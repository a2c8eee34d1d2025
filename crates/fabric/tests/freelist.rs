//! The fabric's bounded resources come back after use: a fixed number of
//! rounds of mixed traffic, with no sleep and no clock, and after every
//! round the bounce pool, the scratch ring and every queue are where a
//! leak-free fabric leaves them. A bounce buffer or scratch slot that is
//! taken and never returned fails the round it goes missing in.
//!
//! Each round sends
//! * a batch of typed eager messages, receives posted first, so each
//!   send matches a posted receive and the two signatures are compared;
//! * raw blobs posted before their receives, each parked in a bounce
//!   buffer until its receive arrives (the bounce pool);
//! * one bulk flush from a random-access packer to a random-access
//!   unpacker, which the worker pool runs through its scratch ring.
//!
//! Gauges move only while telemetry is on, and that gate is process-wide,
//! so this binary holds one test, which switches it on before its fabric
//! exists. The levels are read from the fabric's own registry.

use mpicd_fabric::{
    Fabric, FabricConfig, FragmentPacker, FragmentUnpacker, IovEntry, IovEntryMut, PipelineConfig,
    RandomAccessPacker, RandomAccessUnpacker, RecvDesc, SendDesc, WireModel,
};
use mpicd_obs::sync::Mutex;
use mpicd_obs::Obs;
use std::sync::Arc;

const ROUNDS: usize = 16;
/// Typed eager messages per round.
const BATCH: usize = 8;
/// Raw blobs in flight at once: the bounce buffers a round needs.
const BLOBS: usize = 4;
/// Structural signature both sides of a typed message declare.
const SIG: u64 = 0x5eed_5eed;
const FRAG: usize = 4096;
/// Bulk flush length: 16 fragments, enough for the pool to take it.
const BULK: usize = 16 * FRAG;

struct VecPacker(Vec<u8>);

impl FragmentPacker for VecPacker {
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
        self.pack_at(offset, dst)
    }
    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        Some(self)
    }
}

impl RandomAccessPacker for VecPacker {
    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
        let n = dst.len().min(self.0.len() - offset);
        dst[..n].copy_from_slice(&self.0[offset..offset + n]);
        Ok(n)
    }
}

#[derive(Clone)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl FragmentUnpacker for Sink {
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
        self.unpack_at(offset, src)
    }
    fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
        Some(self)
    }
}

impl RandomAccessUnpacker for Sink {
    fn unpack_at(&self, offset: usize, src: &[u8]) -> Result<(), i32> {
        self.0.lock()[offset..offset + src.len()].copy_from_slice(src);
        Ok(())
    }
}

/// The level of every bounded-resource gauge in `obs`'s registry.
#[derive(Debug, PartialEq, Eq)]
struct Levels {
    bounce_pool: u64,
    scratch_free: u64,
    match_live: u64,
    match_tombstones: u64,
    unexpected: u64,
    pipeline_queue: u64,
}

impl Levels {
    fn read(obs: &Obs) -> Self {
        let g = |name| obs.registry().gauge(name).get();
        Self {
            bounce_pool: g("fabric.bounce_pool"),
            scratch_free: g("fabric.scratch_free"),
            match_live: g("fabric.match.live"),
            match_tombstones: g("fabric.match.tombstones"),
            unexpected: g("fabric.unexpected_depth"),
            pipeline_queue: g("fabric.pipeline.queue"),
        }
    }
}

#[test]
fn freelists_return_to_their_baselines_every_round() {
    mpicd_obs::telemetry::set_enabled(true);
    let obs = Obs::isolated();
    let fabric = Fabric::with_config(
        2,
        FabricConfig {
            model: WireModel {
                frag_size: FRAG,
                ..WireModel::zero_cost()
            },
            pipeline: PipelineConfig::with_threads(2),
            obs: obs.clone(),
            ..FabricConfig::default()
        },
    );
    let depth = fabric.pipeline_config().depth as u64;
    let (a, b) = (fabric.endpoint(0).unwrap(), fabric.endpoint(1).unwrap());
    let small: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
    let bulk: Vec<u8> = (0..BULK).map(|i| (i % 251) as u8).collect();

    for round in 0..ROUNDS {
        // Typed eager batch, receives first.
        let mut outs = vec![vec![0u8; small.len()]; BATCH];
        // SAFETY: every buffer outlives the waits below.
        let recvs: Vec<_> = outs
            .iter_mut()
            .map(|out| unsafe {
                b.post_recv_sig(RecvDesc::Contig(IovEntryMut::from_slice(out)), 0, 1, SIG)
                    .unwrap()
            })
            .collect();
        for _ in 0..BATCH {
            // SAFETY: `small` outlives the wait.
            let send = unsafe {
                a.post_send_sig(SendDesc::Contig(IovEntry::from_slice(&small)), 1, 1, SIG)
                    .unwrap()
            };
            send.wait().unwrap();
        }
        for r in recvs {
            r.wait().unwrap();
        }
        assert!(
            outs.iter().all(|o| *o == small),
            "round {round}: typed bytes"
        );

        // Raw blobs, each posted before its receive.
        for i in 0..BLOBS {
            a.send_bytes(&small[i..], 1, 2).unwrap();
        }
        for i in 0..BLOBS {
            let mut out = vec![0u8; small.len()];
            let env = b.recv_bytes(&mut out, 0, 2).unwrap();
            assert_eq!(&out[..env.bytes], &small[i..], "round {round}: blob {i}");
        }

        // Bulk flush through the worker pool's scratch ring.
        let sink = Sink(Arc::new(Mutex::new(vec![0u8; BULK])));
        // SAFETY: the descriptors own their buffers.
        let recv = unsafe {
            b.post_recv(
                RecvDesc::Generic {
                    unpacker: Box::new(sink.clone()),
                    packed_size: BULK,
                    regions: Vec::new(),
                },
                0,
                3,
            )
            .unwrap()
        };
        let send = unsafe {
            a.post_send(
                SendDesc::Generic {
                    packer: Box::new(VecPacker(bulk.clone())),
                    packed_size: BULK,
                    regions: Vec::new(),
                    inorder: false,
                },
                1,
                3,
            )
            .unwrap()
        };
        send.wait().unwrap();
        recv.wait().unwrap();
        assert!(*sink.0.lock() == bulk, "round {round}: bulk bytes");

        let levels = Levels::read(&obs);
        assert!(
            levels.bounce_pool >= BLOBS as u64,
            "round {round}: the pool holds fewer than the {BLOBS} buffers \
             the blobs had out at once: {levels:?}"
        );
        assert_eq!(
            levels,
            Levels {
                bounce_pool: levels.bounce_pool,
                scratch_free: depth,
                match_live: 0,
                match_tombstones: 0,
                unexpected: 0,
                pipeline_queue: 0,
            },
            "round {round}"
        );
    }
    let stats = fabric.stats();
    assert_eq!(
        stats.pipelined, ROUNDS as u64,
        "every bulk flush was pooled"
    );
    assert_eq!(stats.unexpected, (ROUNDS * BLOBS) as u64);
    assert_eq!(stats.messages, (ROUNDS * (BATCH + BLOBS + 1)) as u64);
}
