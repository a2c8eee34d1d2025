//! The common interface every DDTBench pattern implements, plus the
//! Table I metadata.

use mpicd::datatype::{CustomPack, CustomUnpack};
use mpicd_datatype::{Committed, Datatype};
use std::sync::Arc;

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternInfo {
    /// Benchmark name.
    pub name: &'static str,
    /// "MPI Datatypes" column.
    pub mpi_datatypes: &'static str,
    /// "Loop Structure" column.
    pub loop_structure: &'static str,
    /// "Memory Regions" column (✓ where region transfer makes sense).
    pub memory_regions: bool,
}

/// The paper's Table I.
pub fn table1() -> Vec<PatternInfo> {
    vec![
        PatternInfo {
            name: "LAMMPS",
            mpi_datatypes: "indexed, struct",
            loop_structure: "single loop, 6 arrays (non-unit stride)",
            memory_regions: false,
        },
        PatternInfo {
            name: "MILC",
            mpi_datatypes: "strided vector",
            loop_structure: "5 nested loops (non-unit stride)",
            memory_regions: true,
        },
        PatternInfo {
            name: "NAS_LU_x",
            mpi_datatypes: "contiguous",
            loop_structure: "2 nested loops",
            memory_regions: true,
        },
        PatternInfo {
            name: "NAS_LU_y",
            mpi_datatypes: "strided vector",
            loop_structure: "2 nested loops (non-contiguous)",
            memory_regions: true,
        },
        PatternInfo {
            name: "NAS_MG_x",
            mpi_datatypes: "strided vector",
            loop_structure: "2 nested loops (non-contiguous)",
            memory_regions: true,
        },
        PatternInfo {
            name: "NAS_MG_y",
            mpi_datatypes: "strided vector",
            loop_structure: "2 nested loops (non-contiguous)",
            memory_regions: true,
        },
        PatternInfo {
            name: "WRF_x_vec",
            mpi_datatypes: "struct of strided vectors",
            loop_structure: "3/4 nested loops (non-contiguous)",
            memory_regions: false,
        },
        PatternInfo {
            name: "WRF_y_vec",
            mpi_datatypes: "struct of strided vectors",
            loop_structure: "4/5 nested loops (non-contiguous)",
            memory_regions: false,
        },
    ]
}

/// A DDTBench data-access pattern with every transfer method attached.
///
/// All methods communicate the identical payload over the identical
/// application state, so results are directly comparable:
///
/// * `pack_manual`/`unpack_manual` — hand-written packing loops,
/// * `committed` + `base`/`base_mut` — the classic derived-datatype path,
/// * `custom_*_ctx` — the paper's custom serialization API (packing),
/// * `region_*_ctx` — the custom API exposing memory regions instead of
///   packing (only where Table I marks regions as sensible).
pub trait Pattern: Send {
    /// Table I row for this pattern.
    fn info(&self) -> PatternInfo;

    /// Communicated payload bytes.
    fn bytes(&self) -> usize;

    /// Hand-written packing loop (the DDTBench "manual" method).
    fn pack_manual(&self, out: &mut Vec<u8>);

    /// Hand-written unpacking loop; scatters `data` back into the
    /// application state.
    fn unpack_manual(&mut self, data: &[u8]);

    /// The derived datatype describing one face/exchange (count = 1),
    /// relative to [`Self::base`]: the Open MPI-style convertor view,
    /// committed on first use.
    fn committed(&self) -> Arc<Committed>;

    /// The uncommitted datatype tree behind [`Self::committed`], so
    /// callers (the pack-plan ablation) can recommit it with a different
    /// engine flavor (`commit` / `commit_interpreted` / `commit_convertor`).
    fn datatype(&self) -> Datatype;

    /// The raw application state the datatype addresses.
    fn base(&self) -> &[u8];

    /// Mutable view of the application state (receive side).
    fn base_mut(&mut self) -> &mut [u8];

    /// Custom-API pack context (packing variant).
    fn custom_pack_ctx(&self) -> Box<dyn CustomPack + '_>;

    /// Custom-API unpack context (packing variant).
    fn custom_unpack_ctx(&mut self) -> Box<dyn CustomUnpack + '_>;

    /// Custom-API context exposing memory regions (`None` where
    /// impracticable — LAMMPS scattered doubles, WRF loop nests).
    fn region_pack_ctx(&self) -> Option<Box<dyn CustomPack + '_>>;

    /// Receive-side counterpart of [`Self::region_pack_ctx`].
    fn region_unpack_ctx(&mut self) -> Option<Box<dyn CustomUnpack + '_>>;

    /// Checksum over the *communicated* bytes (gaps excluded) for
    /// cross-method verification.
    fn checksum(&self) -> u64 {
        let mut out = Vec::with_capacity(self.bytes());
        self.pack_manual(&mut out);
        fnv1a(&out)
    }

    /// Reset the communicated portion of the state to a sentinel so a
    /// subsequent receive is observable.
    fn clear(&mut self) {
        let zeros = vec![0u8; self.bytes()];
        self.unpack_manual(&zeros);
    }
}

/// FNV-1a over a byte slice (cheap, deterministic verification hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic slab fill used by the generators: one xorshift step per
/// 8-byte word, stored little-endian (a short tail takes the word's low
/// bytes).
pub fn fill_slab(slab: &mut [u8], seed: u64) {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.to_le_bytes()
    };
    let mut words = slab.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&step());
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        tail.copy_from_slice(&step()[..tail.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_benchmarks() {
        let t = table1();
        assert_eq!(t.len(), 8);
        assert_eq!(
            t.iter().map(|r| r.name).collect::<Vec<_>>(),
            crate::BENCHMARKS.to_vec()
        );
    }

    #[test]
    fn regions_column_matches_paper() {
        for row in table1() {
            let expect = matches!(
                row.name,
                "MILC" | "NAS_LU_x" | "NAS_LU_y" | "NAS_MG_x" | "NAS_MG_y"
            );
            assert_eq!(row.memory_regions, expect, "{}", row.name);
        }
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    /// The byte-at-a-time fill `fill_slab` replaced: the reference its
    /// output is pinned to.
    fn fill_slab_bytewise(slab: &mut [u8], seed: u64) {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for (i, b) in slab.iter_mut().enumerate() {
            if i % 8 == 0 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            *b = (x >> ((i % 8) * 8)) as u8;
        }
    }

    #[test]
    fn fill_slab_matches_bytewise_reference() {
        for seed in [0, 1, 7, 0x11AA, u64::MAX] {
            for len in [0, 1, 7, 8, 9, 15, 16, 63, 100, 4099] {
                let (mut words, mut bytes) = (vec![0u8; len], vec![0u8; len]);
                fill_slab(&mut words, seed);
                fill_slab_bytewise(&mut bytes, seed);
                assert_eq!(words, bytes, "seed {seed}, {len} B");
            }
        }
    }

    #[test]
    fn fill_slab_is_deterministic() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        fill_slab(&mut a, 7);
        fill_slab(&mut b, 7);
        assert_eq!(a, b);
        fill_slab(&mut b, 8);
        assert_ne!(a, b);
    }
}
