//! LAMMPS atom exchange: a single loop gathering one `double` from each of
//! six per-atom arrays (positions ×3, velocities ×3) at non-unit-stride
//! index positions — DDTBench's `LAMMPS_atomic` pattern.
//!
//! The access is *irregular* (an index list, not a rectangular nest), so:
//! the derived datatype is an `hindexed` over doubles, the custom pack
//! context is a run-list gather, and memory regions are impracticable
//! (every run is a lone 8-byte double) — exactly Table I's row.

use crate::custom::{RunsPack, RunsUnpack};
use crate::pattern::{fill_slab, Pattern, PatternInfo};
use mpicd::datatype::{CustomPack, CustomUnpack};
use mpicd_datatype::{Committed, Datatype, Primitive};
use std::sync::{Arc, OnceLock};

/// Number of per-atom arrays gathered (x, y, z, vx, vy, vz).
pub const ARRAYS: usize = 6;

/// Bytes communicated per exchanged atom.
pub const BYTES_PER_ATOM: usize = ARRAYS * 8;

/// The LAMMPS exchange pattern.
pub struct Lammps {
    /// Six arrays of `cap` doubles each, in one slab (array `s` starts at
    /// byte `s * cap * 8`).
    slab: Vec<u8>,
    /// Byte offsets of the gathered doubles, in pack order
    /// (atom-major: atom 0's six values, then atom 1's, …).
    offsets: Vec<isize>,
    atoms: usize,
    /// The convertor view, committed on first use.
    committed: OnceLock<Arc<Committed>>,
}

impl Lammps {
    /// Build a workload of roughly `target_bytes` communicated payload.
    pub fn new(target_bytes: usize) -> Self {
        let atoms = (target_bytes / BYTES_PER_ATOM).max(1);
        // Ghost atoms sit at every other index — the non-unit stride.
        let cap = 2 * atoms;
        let mut slab = vec![0u8; ARRAYS * cap * 8];
        fill_slab(&mut slab, 0x11AA);

        let mut offsets = Vec::with_capacity(atoms * ARRAYS);
        for i in 0..atoms {
            let idx = 2 * i;
            for s in 0..ARRAYS {
                offsets.push(((s * cap + idx) * 8) as isize);
            }
        }

        Self {
            slab,
            offsets,
            atoms,
            committed: OnceLock::new(),
        }
    }

    /// Number of exchanged atoms.
    pub fn atoms(&self) -> usize {
        self.atoms
    }
}

impl Pattern for Lammps {
    fn info(&self) -> PatternInfo {
        PatternInfo {
            name: "LAMMPS",
            mpi_datatypes: "indexed, struct",
            loop_structure: "single loop, 6 arrays (non-unit stride)",
            memory_regions: false,
        }
    }

    fn bytes(&self) -> usize {
        self.atoms * BYTES_PER_ATOM
    }

    fn pack_manual(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.bytes());
        // The single application loop: gather six doubles per atom.
        for chunk in self.offsets.chunks_exact(ARRAYS) {
            for off in chunk {
                out.extend_from_slice(&self.slab[*off as usize..*off as usize + 8]);
            }
        }
    }

    fn unpack_manual(&mut self, data: &[u8]) {
        for (off, val) in self.offsets.iter().zip(data.chunks_exact(8)) {
            self.slab[*off as usize..*off as usize + 8].copy_from_slice(val);
        }
    }

    fn committed(&self) -> Arc<Committed> {
        let view = self.committed.get_or_init(|| {
            Arc::new(
                self.datatype()
                    .commit_convertor()
                    .expect("valid hindexed type"),
            )
        });
        Arc::clone(view)
    }

    fn datatype(&self) -> Datatype {
        // hindexed over MPI_DOUBLE with one block per gathered value — what
        // the application would build with MPI_Type_create_hindexed.
        let blocks: Vec<(usize, isize)> = self.offsets.iter().map(|o| (1usize, *o)).collect();
        Datatype::hindexed(blocks, Datatype::Predefined(Primitive::Double))
    }

    fn base(&self) -> &[u8] {
        &self.slab
    }

    fn base_mut(&mut self) -> &mut [u8] {
        &mut self.slab
    }

    fn custom_pack_ctx(&self) -> Box<dyn CustomPack + '_> {
        Box::new(RunsPack::new(self.offsets.clone(), 8, &self.slab))
    }

    fn custom_unpack_ctx(&mut self) -> Box<dyn CustomUnpack + '_> {
        let offsets = self.offsets.clone();
        Box::new(RunsUnpack::new(offsets, 8, &mut self.slab))
    }

    fn region_pack_ctx(&self) -> Option<Box<dyn CustomPack + '_>> {
        None // lone 8-byte doubles: regions impracticable (Table I)
    }

    fn region_unpack_ctx(&mut self) -> Option<Box<dyn CustomUnpack + '_>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_target() {
        let p = Lammps::new(48 * 100);
        assert_eq!(p.atoms(), 100);
        assert_eq!(p.bytes(), 4800);
        assert_eq!(p.datatype().size(), 4800);
        assert!(Lammps::new(1).atoms() == 1, "minimum one atom");
    }

    #[test]
    fn manual_pack_matches_datatype_pack() {
        let p = Lammps::new(2000);
        let mut manual = Vec::new();
        p.pack_manual(&mut manual);
        let typed = p.committed().pack_slice(p.base(), 1).unwrap();
        assert_eq!(manual, typed);
    }

    #[test]
    fn custom_ctx_matches_manual() {
        let p = Lammps::new(2000);
        let mut manual = Vec::new();
        p.pack_manual(&mut manual);
        let mut ctx = p.custom_pack_ctx();
        let mut out = vec![0u8; manual.len()];
        let mut off = 0;
        while off < out.len() {
            off += ctx.pack(off, &mut out[off..]).unwrap();
        }
        assert_eq!(out, manual);
    }

    #[test]
    fn unpack_restores_cleared_payload() {
        let mut p = Lammps::new(1024);
        let c = p.checksum();
        let mut packed = Vec::new();
        p.pack_manual(&mut packed);
        p.clear();
        assert_ne!(p.checksum(), c);
        p.unpack_manual(&packed);
        assert_eq!(p.checksum(), c);
    }

    #[test]
    fn no_region_variant() {
        let mut p = Lammps::new(100);
        assert!(p.region_pack_ctx().is_none());
        assert!(p.region_unpack_ctx().is_none());
        assert!(!p.info().memory_regions);
    }

    #[test]
    fn gathered_offsets_skip_every_other_index() {
        let p = Lammps::new(48 * 4); // 4 atoms
                                     // Atom 1's x-array offset is at index 8 of a 8-double array (cap=8).
        assert_eq!(p.offsets[ARRAYS], (2 * 8) as isize);
    }
}
