//! DDTBench method runners (§V-C / Fig 10).
//!
//! Each method moves one pattern "face" from a sender-side pattern
//! instance to a receiver-side instance, single-threaded over the fabric.

use mpicd::{transfer, transfer_custom, transfer_typed, Communicator};
use mpicd_datatype::Committed;
use mpicd_ddtbench::Pattern;
use std::sync::Arc;

/// The Fig 10 method set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdtMethod {
    /// Same-size contiguous pingpong, no packing (the plot's reference).
    Reference,
    /// Hand-written pack loop → bytes → hand-written unpack loop.
    Manual,
    /// Direct send/recv with the derived datatype (engine packs inline).
    TypedDirect,
    /// `MPI_Pack`-style: engine packs to a buffer, buffer sent as bytes.
    TypedPack,
    /// Custom datatype API, packing callbacks.
    CustomPack,
    /// Custom datatype API, memory regions (only where Table I allows).
    CustomRegion,
}

impl DdtMethod {
    /// Label used in Fig 10.
    pub fn label(self) -> &'static str {
        match self {
            Self::Reference => "reference",
            Self::Manual => "manual",
            Self::TypedDirect => "mpi-ddt",
            Self::TypedPack => "mpi-pack",
            Self::CustomPack => "custom-pack",
            Self::CustomRegion => "custom-region",
        }
    }

    /// Every method, figure order.
    pub fn all() -> [DdtMethod; 6] {
        [
            Self::Reference,
            Self::Manual,
            Self::TypedDirect,
            Self::TypedPack,
            Self::CustomPack,
            Self::CustomRegion,
        ]
    }
}

/// Scratch buffers reused across iterations (like DDTBench's preallocated
/// pack buffers), and the sender's derived datatype.
pub struct DdtScratch {
    pack: Vec<u8>,
    rx: Vec<u8>,
    reference: Vec<u8>,
    reference_rx: Vec<u8>,
    ty: Arc<Committed>,
}

impl DdtScratch {
    /// Allocate for `sender`'s payload and take its committed datatype
    /// (patterns commit it on first use), so no timed iteration pays for
    /// the commit.
    pub fn new(sender: &dyn Pattern) -> Self {
        let bytes = sender.bytes();
        Self {
            pack: Vec::with_capacity(bytes),
            rx: vec![0u8; bytes],
            reference: vec![0x5Au8; bytes],
            reference_rx: vec![0u8; bytes],
            ty: sender.committed(),
        }
    }
}

/// Move one face from `sender` to `receiver` with `method`. Returns
/// `false` when the pattern does not support the method (region variants
/// of LAMMPS/WRF).
pub fn one_way(
    a: &Communicator,
    b: &Communicator,
    sender: &dyn Pattern,
    receiver: &mut dyn Pattern,
    scratch: &mut DdtScratch,
    method: DdtMethod,
) -> bool {
    match method {
        DdtMethod::Reference => {
            transfer(a, b, &scratch.reference, &mut scratch.reference_rx, 0)
                .expect("reference transfer");
        }
        DdtMethod::Manual => {
            sender.pack_manual(&mut scratch.pack);
            transfer(a, b, &scratch.pack, &mut scratch.rx, 0).expect("manual transfer");
            receiver.unpack_manual(&scratch.rx);
        }
        DdtMethod::TypedDirect => {
            let ty = &scratch.ty;
            transfer_typed(a, b, sender.base(), receiver.base_mut(), 1, ty, 0)
                .expect("typed transfer");
        }
        DdtMethod::TypedPack => {
            let ty = &scratch.ty;
            let packed = ty.pack_slice(sender.base(), 1).expect("typed pack");
            transfer(a, b, &packed, &mut scratch.rx, 0).expect("typed-pack transfer");
            ty.unpack_slice(&scratch.rx, receiver.base_mut(), 1)
                .expect("typed unpack");
        }
        DdtMethod::CustomPack => {
            let sctx = sender.custom_pack_ctx();
            let mut rctx = receiver.custom_unpack_ctx();
            transfer_custom(a, b, sctx, &mut *rctx, 0).expect("custom transfer");
        }
        DdtMethod::CustomRegion => {
            let Some(sctx) = sender.region_pack_ctx() else {
                return false;
            };
            let Some(mut rctx) = receiver.region_unpack_ctx() else {
                return false;
            };
            transfer_custom(a, b, sctx, &mut *rctx, 0).expect("region transfer");
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpicd::World;
    use mpicd_ddtbench::{make, BENCHMARKS};

    #[test]
    fn every_method_moves_identical_bytes_for_every_pattern() {
        for name in BENCHMARKS {
            let sender = make(name, 16 * 1024);
            let expect = sender.checksum();
            for method in DdtMethod::all() {
                if method == DdtMethod::Reference {
                    continue; // moves scratch, not pattern data
                }
                let world = World::new(2);
                let (a, b) = world.pair();
                let mut receiver = make(name, 16 * 1024);
                receiver.clear();
                assert_ne!(receiver.checksum(), expect, "{name} cleared");
                let mut scratch = DdtScratch::new(&*sender);
                let ran = one_way(&a, &b, &*sender, &mut *receiver, &mut scratch, method);
                if !ran {
                    assert!(
                        !sender.info().memory_regions,
                        "{name} should support {}",
                        method.label()
                    );
                    continue;
                }
                assert_eq!(receiver.checksum(), expect, "{name} via {}", method.label());
            }
        }
    }

    #[test]
    fn region_method_skips_unsupported() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let sender = make("LAMMPS", 1024);
        let mut receiver = make("LAMMPS", 1024);
        let mut scratch = DdtScratch::new(&*sender);
        assert!(!one_way(
            &a,
            &b,
            &*sender,
            &mut *receiver,
            &mut scratch,
            DdtMethod::CustomRegion
        ));
    }
}
