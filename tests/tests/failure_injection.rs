//! Failure injection: the paper makes error propagation a design pillar
//! ("Errors are propagated through return values… Error handling is
//! crucial for serialization libraries that can fail in the case of
//! invalid data"). These tests force failures at every callback site and
//! check they surface as errors — with no hangs, panics, or leaks.

use mpicd::datatype::{CustomPack, CustomUnpack, RecvRegion, SendRegion};
use mpicd::fabric::{FabricConfig, FabricError, WireModel};
use mpicd::{Error, Result, World};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A packer that fails after producing `fail_after` bytes.
struct FailingPack {
    data: Vec<u8>,
    fail_after: usize,
    code: i32,
}

impl CustomPack for FailingPack {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.data.len())
    }
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
        if offset >= self.fail_after {
            return Err(Error::Serialization(self.code));
        }
        let n = dst
            .len()
            .min(self.data.len() - offset)
            .min(self.fail_after - offset);
        dst[..n].copy_from_slice(&self.data[offset..offset + n]);
        Ok(n)
    }
}

/// An unpacker that rejects everything.
struct RejectingUnpack {
    expected: usize,
    code: i32,
}

impl CustomUnpack for RejectingUnpack {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.expected)
    }
    fn unpack(&mut self, _offset: usize, _src: &[u8]) -> Result<()> {
        Err(Error::Serialization(self.code))
    }
}

/// Sink unpacker that accepts everything.
struct SinkUnpack {
    expected: usize,
}

impl CustomUnpack for SinkUnpack {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.expected)
    }
    fn unpack(&mut self, _offset: usize, _src: &[u8]) -> Result<()> {
        Ok(())
    }
}

#[test]
fn pack_failure_mid_stream_fails_both_sides() {
    // Fragment size 64 so the failure happens on a later fragment.
    let model = WireModel {
        frag_size: 64,
        ..WireModel::default()
    };
    let world = World::with_config(
        2,
        FabricConfig {
            model,
            ..FabricConfig::default()
        },
    );
    let (a, b) = world.pair();

    let sctx = Box::new(FailingPack {
        data: vec![7u8; 1000],
        fail_after: 200,
        code: 42,
    });
    let mut rctx = SinkUnpack { expected: 1000 };
    let err = mpicd::transfer_custom(&a, &b, sctx, &mut rctx, 0).unwrap_err();
    assert_eq!(err, Error::Fabric(FabricError::PackFailed(42)));
}

#[test]
fn unpack_failure_propagates_code() {
    let world = World::new(2);
    let (a, b) = world.pair();
    let sctx = Box::new(FailingPack {
        data: vec![1u8; 100],
        fail_after: usize::MAX,
        code: 0,
    });
    let mut rctx = RejectingUnpack {
        expected: 100,
        code: 99,
    };
    let err = mpicd::transfer_custom(&a, &b, sctx, &mut rctx, 0).unwrap_err();
    assert_eq!(err, Error::Fabric(FabricError::UnpackFailed(99)));
}

#[test]
fn query_failure_aborts_before_posting() {
    struct BadQuery;
    impl CustomPack for BadQuery {
        fn packed_size(&self) -> Result<usize> {
            Err(Error::Serialization(13))
        }
        fn pack(&mut self, _o: usize, _d: &mut [u8]) -> Result<usize> {
            unreachable!("pack must not run after a failed query")
        }
    }
    let world = World::new(2);
    let (a, _b) = world.pair();
    let err = a.send_custom(Box::new(BadQuery), 1, 0).unwrap_err();
    assert_eq!(err, Error::Serialization(13));
    assert_eq!(world.fabric().stats().messages, 0, "nothing hit the wire");
}

#[test]
fn region_failure_aborts_before_posting() {
    struct BadRegions;
    impl CustomPack for BadRegions {
        fn packed_size(&self) -> Result<usize> {
            Ok(8)
        }
        fn pack(&mut self, _o: usize, dst: &mut [u8]) -> Result<usize> {
            Ok(dst.len().min(8))
        }
        fn regions(&mut self) -> Result<Vec<SendRegion>> {
            Err(Error::Serialization(21))
        }
    }
    let world = World::new(2);
    let (a, _b) = world.pair();
    let err = a.send_custom(Box::new(BadRegions), 1, 0).unwrap_err();
    assert_eq!(err, Error::Serialization(21));
}

#[test]
fn stalled_packer_detected_not_hung() {
    struct Stall;
    impl CustomPack for Stall {
        fn packed_size(&self) -> Result<usize> {
            Ok(64)
        }
        fn pack(&mut self, _o: usize, _d: &mut [u8]) -> Result<usize> {
            Ok(0) // never makes progress
        }
    }
    let world = World::new(2);
    let (a, b) = world.pair();
    let mut rctx = SinkUnpack { expected: 64 };
    let err = mpicd::transfer_custom(&a, &b, Box::new(Stall), &mut rctx, 0).unwrap_err();
    assert!(matches!(
        err,
        Error::Fabric(FabricError::PackStalled { .. })
    ));
}

#[test]
fn finish_failure_surfaces_after_data_arrives() {
    struct PickyFinish {
        expected: usize,
    }
    impl CustomUnpack for PickyFinish {
        fn packed_size(&self) -> Result<usize> {
            Ok(self.expected)
        }
        fn unpack(&mut self, _o: usize, _s: &[u8]) -> Result<()> {
            Ok(())
        }
        fn finish(&mut self) -> Result<()> {
            Err(Error::InvalidHeader("validation failed in finish"))
        }
    }
    let world = World::new(2);
    let (a, b) = world.pair();
    let sctx = Box::new(FailingPack {
        data: vec![1u8; 32],
        fail_after: usize::MAX,
        code: 0,
    });
    let mut rctx = PickyFinish { expected: 32 };
    let err = mpicd::transfer_custom(&a, &b, sctx, &mut rctx, 0).unwrap_err();
    assert!(matches!(err, Error::InvalidHeader(_)));
}

#[test]
fn scope_panic_cancels_pending_operations() {
    let world = World::new(2);
    let (a, _b) = world.pair();
    let data = vec![0u8; 200_000]; // rendezvous-sized: stays pending
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = a.scope(|s| {
            s.isend(&data, 1, 0)?;
            panic!("application error mid-scope");
            #[allow(unreachable_code)]
            Ok(())
        });
    }));
    assert!(result.is_err(), "panic propagates");
    // The pending send was cancelled: a later receive must not match it.
    let (_, b) = world.pair();
    assert!(b.iprobe(0, 0).is_none(), "cancelled send is not matchable");
}

#[test]
fn region_shape_mismatch_truncates() {
    // Receiver posts fewer region bytes than the sender ships.
    struct OneRegionPack {
        region: Vec<u8>,
    }
    impl CustomPack for OneRegionPack {
        fn packed_size(&self) -> Result<usize> {
            Ok(0)
        }
        fn pack(&mut self, _o: usize, _d: &mut [u8]) -> Result<usize> {
            Ok(0)
        }
        fn regions(&mut self) -> Result<Vec<SendRegion>> {
            Ok(vec![SendRegion::from_slice(&self.region)])
        }
    }
    struct SmallRegionUnpack {
        region: Vec<u8>,
    }
    impl CustomUnpack for SmallRegionUnpack {
        fn packed_size(&self) -> Result<usize> {
            Ok(0)
        }
        fn unpack(&mut self, _o: usize, _s: &[u8]) -> Result<()> {
            Ok(())
        }
        fn regions(&mut self) -> Result<Vec<RecvRegion>> {
            Ok(vec![RecvRegion::from_slice(self.region.as_mut_slice())])
        }
    }
    let world = World::new(2);
    let (a, b) = world.pair();
    let sctx = Box::new(OneRegionPack {
        region: vec![9u8; 512],
    });
    let mut rctx = SmallRegionUnpack {
        region: vec![0u8; 256],
    };
    let err = mpicd::transfer_custom(&a, &b, sctx, &mut rctx, 0).unwrap_err();
    assert!(matches!(err, Error::Fabric(FabricError::Truncated { .. })));
}

#[test]
fn state_objects_freed_exactly_once_under_errors() {
    static LIVE: AtomicUsize = AtomicUsize::new(0);

    struct Counted {
        fail: bool,
    }
    impl Counted {
        fn new(fail: bool) -> Self {
            LIVE.fetch_add(1, Ordering::SeqCst);
            Self { fail }
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
    impl CustomPack for Counted {
        fn packed_size(&self) -> Result<usize> {
            Ok(16)
        }
        fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
            if self.fail {
                return Err(Error::Serialization(5));
            }
            Ok(dst.len().min(16 - offset))
        }
    }

    let world = World::new(2);
    let (a, b) = world.pair();
    for fail in [false, true] {
        let mut rctx = SinkUnpack { expected: 16 };
        let _ = mpicd::transfer_custom(&a, &b, Box::new(Counted::new(fail)), &mut rctx, 0);
    }
    assert_eq!(
        LIVE.load(Ordering::SeqCst),
        0,
        "every context dropped (freefn semantics)"
    );
    let _ = Arc::new(()); // silence unused-import lint paths on some configs
}
