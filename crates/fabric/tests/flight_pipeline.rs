//! Flight-recorder well-formedness under the fragment engine: every
//! matched transfer leaves one post per side and exactly one transfer
//! record, whose stamps are ordered, whose callback counts equal the
//! callbacks the packer and unpacker saw, and whose callback time fits
//! its lanes — at 1, 2 and 4 pipeline threads.
//!
//! The recorder state is process-global, so this is one sequential test;
//! every assertion filters by the ids of the requests it posted.

use mpicd_fabric::{
    Fabric, FragmentPacker, FragmentUnpacker, PipelineConfig, RandomAccessPacker,
    RandomAccessUnpacker, RecvDesc, SendDesc, WireModel,
};
use mpicd_obs::flight::{self, EventKind, Method};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Offset-addressed packer over an owned byte vector, counting its calls.
struct VecPacker(Vec<u8>, Arc<AtomicU64>);

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
        self.1.fetch_add(1, Ordering::Relaxed);
        let n = dst.len().min(self.0.len() - offset);
        dst[..n].copy_from_slice(&self.0[offset..offset + n]);
        Ok(n)
    }
}

/// Offset-addressed unpacker scattering into a caller-owned buffer,
/// counting its calls.
struct PtrUnpacker(*mut u8, Arc<AtomicU64>);

unsafe impl Send for PtrUnpacker {}
// SAFETY: the parallel engine hands concurrent calls disjoint ranges.
unsafe impl Sync for PtrUnpacker {}

impl FragmentUnpacker for PtrUnpacker {
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
        self.unpack_at(offset, src)
    }
    fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
        Some(self)
    }
}

impl RandomAccessUnpacker for PtrUnpacker {
    fn unpack_at(&self, offset: usize, src: &[u8]) -> Result<(), i32> {
        self.1.fetch_add(1, Ordering::Relaxed);
        // SAFETY: in-bounds by construction; ranges are disjoint.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.0.add(offset), src.len());
        }
        Ok(())
    }
}

fn small_frag_model() -> WireModel {
    WireModel {
        frag_size: 4 * 1024,
        ..WireModel::zero_cost()
    }
}

/// Deterministic payload for (`seed`, byte index).
fn payload(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64) % 251) as u8)
        .collect()
}

/// What one round trip posted and how often its callbacks ran.
struct Posted {
    send_id: u64,
    recv_id: u64,
    bytes: u64,
    packs: u64,
    unpacks: u64,
}

/// One generic→generic transfer.
fn roundtrip(fabric: &Fabric, tag: i32, seed: u64, len: usize) -> Posted {
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    let data = payload(seed, len);
    let mut out = vec![0u8; len];
    let (packs, unpacks) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    // SAFETY: both buffers outlive the waits below.
    let recv = unsafe {
        b.post_recv(
            RecvDesc::Generic {
                unpacker: Box::new(PtrUnpacker(out.as_mut_ptr(), Arc::clone(&unpacks))),
                packed_size: len,
                regions: Vec::new(),
            },
            0,
            tag,
        )
        .unwrap()
    };
    let send = unsafe {
        a.post_send(
            SendDesc::Generic {
                packer: Box::new(VecPacker(data.clone(), Arc::clone(&packs))),
                packed_size: len,
                regions: Vec::new(),
                inorder: false,
            },
            1,
            tag,
        )
        .unwrap()
    };
    let (send_id, recv_id) = (send.flight_id(), recv.flight_id());
    send.wait().unwrap();
    recv.wait().unwrap();
    assert_eq!(out, data, "payload intact (seed {seed})");
    Posted {
        send_id,
        recv_id,
        bytes: len as u64,
        packs: packs.load(Ordering::Relaxed),
        unpacks: unpacks.load(Ordering::Relaxed),
    }
}

#[test]
fn pipeline_event_sequences_are_well_formed() {
    flight::set_enabled(true);
    let len = 64 * 1024; // 16 fragments at the 4 KiB model fragment size
    let mut all_ids = Vec::new();

    for threads in [1usize, 2, 4] {
        let fabric = Fabric::with_model_and_pipeline(
            2,
            small_frag_model(),
            PipelineConfig::with_threads(threads),
        );
        let mut posted = Vec::new();
        for (i, seed) in (0..4u64).enumerate() {
            posted.push(roundtrip(
                &fabric,
                10 + i as i32,
                seed + 7 * threads as u64,
                len,
            ));
        }
        // One thread runs every transfer inline; more hand each to the pool.
        let pooled = if threads > 1 { 4 } else { 0 };
        assert_eq!(
            fabric.stats().pipelined,
            pooled,
            "{threads} threads: pipelined"
        );

        let events = flight::events();
        let records = flight::transfers();
        for p in &posted {
            let (sfid, rfid) = (p.send_id, p.recv_id);
            assert!(sfid != 0 && rfid != 0, "recorder was on at post time");
            // One post per side, no error event, and exactly one record.
            let posts = |id: u64, kind: EventKind| {
                events
                    .iter()
                    .filter(|e| e.id == id)
                    .inspect(|e| assert_eq!(e.kind, kind, "{threads}t id {id}"))
                    .count()
            };
            assert_eq!(posts(sfid, EventKind::PostSend), 1, "{threads}t id {sfid}");
            assert_eq!(posts(rfid, EventKind::PostRecv), 1, "{threads}t id {rfid}");
            let of_send: Vec<_> = records.iter().filter(|r| r.id == sfid).collect();
            assert_eq!(of_send.len(), 1, "{threads}t: one record per send id");
            let r = of_send[0];

            // The record joins the receive post and names the protocol.
            assert_eq!(r.recv_id, rfid, "recv_id joins the receive post");
            assert_eq!(r.method, Method::Pipelined);
            assert_eq!((r.bytes, r.error, r.src, r.dst), (p.bytes, 0, 0, 1));

            // Callback counts are the callbacks the user code saw: one
            // pack and one unpack per fragment here.
            assert_eq!((r.pack_calls, r.unpack_calls), (p.packs, p.unpacks));
            assert_eq!((r.pack_calls, r.unpack_calls), (16, 16), "{threads}t");
            assert!(r.pack_ns > 0 && r.unpack_ns > 0, "callbacks were timed");

            // Stamps: posts ≤ match ≤ end, and the callback time of every
            // lane fits the active window, even when workers raced.
            assert!(r.post_send_ns <= r.match_ns && r.post_recv_ns <= r.match_ns);
            assert!(r.match_ns <= r.end_ns);
            assert_eq!(r.lanes, if threads > 1 { threads as u64 } else { 1 });
            assert!(r.pack_ns + r.unpack_ns <= r.lanes * r.active_ns());
        }

        all_ids.extend(posted.iter().flat_map(|p| [p.send_id, p.recv_id]));
    }

    // No orphan ids: this is the only test in the binary, so every entry
    // in the ring must belong to a request posted above.
    for id in flight::events()
        .iter()
        .map(|e| e.id)
        .chain(flight::transfers().iter().map(|r| r.id))
    {
        assert!(all_ids.contains(&id), "orphan id {id}");
    }
    flight::set_enabled(false);
}
