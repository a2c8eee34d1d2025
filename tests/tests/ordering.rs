//! Ordering and out-of-order-delivery semantics.
//!
//! * MPI's non-overtaking guarantee across many interleaved tags,
//! * the `inorder` flag (Listing 2): offset-addressed unpackers tolerate
//!   out-of-order fragment delivery, in-order unpackers demand (and get)
//!   monotonic offsets when the flag is set,
//! * an out-of-order wire reorders fragments whether they run inline or
//!   on the fragment engine's worker pool.

use mpicd::datatype::{CustomPack, CustomUnpack, RandomAccessPacker, RandomAccessUnpacker};
use mpicd::fabric::{FabricConfig, PipelineConfig, WireModel};
use mpicd::{Result, World};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

#[test]
fn non_overtaking_across_interleaved_tags() {
    let world = World::new(2);
    let (a, b) = world.pair();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..100u8 {
                let tag = (i % 3) as i32;
                a.send(&[i][..], 1, tag).unwrap();
            }
        });
        s.spawn(|| {
            // Per tag, messages must arrive in send order.
            let mut last: [i16; 3] = [-1; 3];
            for _ in 0..100 {
                let st = b.probe(0, mpicd::fabric::ANY_TAG);
                let mut v = [0u8; 1];
                b.recv(&mut v[..], 0, st.tag).unwrap();
                let t = st.tag as usize;
                assert!(
                    (v[0] as i16) > last[t],
                    "tag {t}: {} arrived after {}",
                    v[0],
                    last[t]
                );
                last[t] = v[0] as i16;
            }
        });
    });
}

/// Offset-recording unpacker.
struct OffsetRecorder {
    expected: usize,
    offsets: Vec<usize>,
}

impl CustomUnpack for OffsetRecorder {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.expected)
    }
    fn unpack(&mut self, offset: usize, _src: &[u8]) -> Result<()> {
        self.offsets.push(offset);
        Ok(())
    }
}

/// Trivial streaming packer over owned data.
struct StreamPack {
    data: Vec<u8>,
    inorder: bool,
}

impl CustomPack for StreamPack {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.data.len())
    }
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
        let n = dst.len().min(self.data.len() - offset);
        dst[..n].copy_from_slice(&self.data[offset..offset + n]);
        Ok(n)
    }
    fn inorder(&self) -> bool {
        self.inorder
    }
}

fn fragmented_model(ooo_wire: bool) -> WireModel {
    WireModel {
        frag_size: 256,
        out_of_order_fragments: ooo_wire,
        ..WireModel::default()
    }
}

fn run_fragmented(inorder: bool, ooo_wire: bool) -> Vec<usize> {
    let model = fragmented_model(ooo_wire);
    let world = World::with_config(
        2,
        FabricConfig {
            model,
            ..FabricConfig::default()
        },
    );
    let (a, b) = world.pair();
    let sctx = Box::new(StreamPack {
        data: (0..2048u32).map(|i| i as u8).collect(),
        inorder,
    });
    let mut rctx = OffsetRecorder {
        expected: 2048,
        offsets: Vec::new(),
    };
    mpicd::transfer_custom(&a, &b, sctx, &mut rctx, 0).unwrap();
    rctx.offsets
}

#[test]
fn inorder_flag_forces_monotonic_fragments_even_on_ooo_wire() {
    let offsets = run_fragmented(true, true);
    assert_eq!(offsets.len(), 8, "2048 B in 256 B fragments");
    assert!(
        offsets.windows(2).all(|w| w[0] < w[1]),
        "monotonic: {offsets:?}"
    );
}

#[test]
fn ooo_wire_reorders_when_allowed() {
    let offsets = run_fragmented(false, true);
    assert_eq!(offsets.len(), 8);
    assert!(
        offsets.windows(2).any(|w| w[0] > w[1]),
        "expected reordering: {offsets:?}"
    );
    // Every fragment still delivered exactly once.
    let mut sorted = offsets.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 256, 512, 768, 1024, 1280, 1536, 1792]);
}

#[test]
fn in_order_wire_is_monotonic_regardless() {
    let offsets = run_fragmented(false, false);
    assert!(offsets.windows(2).all(|w| w[0] < w[1]));
}

/// Offset-addressed packer over owned data: the pool may take its bytes.
struct RandomPack(Vec<u8>);

impl CustomPack for RandomPack {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.0.len())
    }
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
        Ok(self.pack_at(offset, dst).unwrap())
    }
    fn inorder(&self) -> bool {
        false
    }
    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        Some(self)
    }
}

impl RandomAccessPacker for RandomPack {
    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> std::result::Result<usize, i32> {
        let n = dst.len().min(self.0.len() - offset);
        dst[..n].copy_from_slice(&self.0[offset..offset + n]);
        Ok(n)
    }
}

/// Offset-recording unpacker with a random-access view.
struct RandomRecorder {
    expected: usize,
    offsets: Mutex<Vec<usize>>,
}

impl CustomUnpack for RandomRecorder {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.expected)
    }
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<()> {
        self.unpack_at(offset, src).unwrap();
        Ok(())
    }
    fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
        Some(self)
    }
}

impl RandomAccessUnpacker for RandomRecorder {
    fn unpack_at(&self, offset: usize, _src: &[u8]) -> std::result::Result<(), i32> {
        self.offsets.lock().unwrap().push(offset);
        Ok(())
    }
}

/// Eight fragments of random-access callbacks at two threads go to the
/// worker pool. On an out-of-order wire it claims them last first, so
/// one of the two lanes runs two of them in falling order whatever the
/// schedule, and the unpacker never sees a monotonic sequence.
#[test]
fn ooo_wire_reorders_pooled_fragments() {
    let world = World::with_config(
        2,
        FabricConfig {
            model: fragmented_model(true),
            pipeline: PipelineConfig::with_threads(2),
            ..FabricConfig::default()
        },
    );
    let (a, b) = world.pair();
    let sctx = Box::new(RandomPack((0..2048u32).map(|i| i as u8).collect()));
    let mut rctx = RandomRecorder {
        expected: 2048,
        offsets: Mutex::new(Vec::new()),
    };
    mpicd::transfer_custom(&a, &b, sctx, &mut rctx, 0).unwrap();
    assert_eq!(world.fabric().stats().pipelined, 1, "the pool ran it");
    let offsets = rctx.offsets.into_inner().unwrap();
    assert!(
        offsets.windows(2).any(|w| w[0] > w[1]),
        "expected reordering: {offsets:?}"
    );
    let mut sorted = offsets.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..8).map(|i| i * 256).collect::<Vec<_>>());
}

#[test]
fn wildcard_receives_match_in_arrival_order() {
    let world = World::new(3);
    let comms = world.comms();
    let first_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let c1 = &comms[1];
        let c2 = &comms[2];
        let flag = &first_done;
        s.spawn(move || {
            c1.send(&[11u8][..], 0, 5).unwrap();
            flag.store(true, Ordering::SeqCst);
        });
        s.spawn(move || {
            // Ensure rank 1's message lands first.
            while !flag.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            c2.send(&[22u8][..], 0, 5).unwrap();
        });
        s.spawn(|| {
            let c0 = &comms[0];
            // Wait until both are queued, then match with wildcards.
            while c0.iprobe(2, 5).is_none() || c0.iprobe(1, 5).is_none() {
                std::hint::spin_loop();
            }
            let mut v = [0u8; 1];
            let st = c0
                .recv(
                    &mut v[..],
                    mpicd::fabric::ANY_SOURCE,
                    mpicd::fabric::ANY_TAG,
                )
                .unwrap();
            assert_eq!((st.source, v[0]), (1, 11), "earliest arrival matches first");
            c0.recv(&mut v[..], mpicd::fabric::ANY_SOURCE, 5).unwrap();
            assert_eq!(v[0], 22);
        });
    });
}
