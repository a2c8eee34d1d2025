//! Generic [`Pattern`] implementation for loop-nest-shaped benchmarks
//! (MILC, NAS LU/MG, WRF). Each benchmark module supplies geometry (a
//! [`LoopNest`]) plus the matching derived datatype; everything else —
//! manual packing, custom contexts, region extraction — is shared here.

// Audited unsafe: nested-pattern raw-memory callbacks; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::custom::{NestPack, NestUnpack, RegionsPack, RegionsUnpack};
use crate::pattern::{fill_slab, Pattern, PatternInfo};
use mpicd::datatype::{CustomPack, CustomUnpack, RecvRegion, SendRegion};
use mpicd::LoopNest;
use mpicd_datatype::{Committed, Datatype, Primitive};
use std::sync::{Arc, OnceLock};

/// A DDTBench pattern whose access shape is a rectangular loop nest.
pub struct NestPattern {
    info: PatternInfo,
    slab: Vec<u8>,
    nest: LoopNest,
    datatype: Datatype,
    /// The convertor view, committed on first use.
    committed: OnceLock<Arc<Committed>>,
}

impl NestPattern {
    /// Build from geometry. `datatype` must describe exactly the bytes the
    /// nest touches, in the same pack order (validated here by size and in
    /// the integration tests byte-for-byte).
    pub fn new(info: PatternInfo, nest: LoopNest, datatype: Datatype, seed: u64) -> Self {
        let (min, max) = nest.span();
        assert!(min >= 0, "nest offsets must be non-negative");
        let mut slab = vec![0u8; max as usize];
        fill_slab(&mut slab, seed);
        assert_eq!(
            datatype.size(),
            nest.packed_size(),
            "{}: datatype and nest disagree on payload size",
            info.name
        );
        Self {
            info,
            slab,
            nest,
            datatype,
            committed: OnceLock::new(),
        }
    }

    /// Derived datatype equivalent of a nest: a byte run wrapped in one
    /// hvector per dimension (inner → outer).
    pub fn nest_datatype(nest: &LoopNest) -> Datatype {
        // Describe the run in the widest primitive that divides it (what an
        // application would declare), so the convertor model interprets at
        // realistic granularity.
        let mut t = if nest.run_len().is_multiple_of(8) {
            Datatype::contiguous(nest.run_len() / 8, Datatype::Predefined(Primitive::Double))
        } else {
            Datatype::contiguous(nest.run_len(), Datatype::Predefined(Primitive::Byte))
        };
        for d in (0..nest.depth()).rev() {
            t = Datatype::hvector(nest.dims()[d], 1, nest.strides()[d], t);
        }
        t
    }

    /// The nest's runs as `(offset, len)` regions in pack order, adjacent
    /// runs merged (see [`Self::region_list`]).
    pub fn region_runs(&self) -> Vec<(isize, usize)> {
        self.region_list(|off, len| (off, len))
    }

    /// The nest's runs in pack order as `region(offset, len)`, adjacent
    /// runs merged as they are enumerated (a row of back-to-back runs is
    /// one region): a region context's list, built in one pass.
    pub fn region_list<R>(&self, region: impl Fn(isize, usize) -> R) -> Vec<R> {
        let (total, len) = (self.nest.total_runs(), self.nest.run_len());
        let mut regions = Vec::with_capacity(total);
        // The last region, still open to a run that starts where it ends.
        let mut open: Option<(isize, usize)> = None;
        self.nest.for_each_row(0, total, |start, n, stride| {
            let closed = match &mut open {
                Some((o, l)) if *o + *l as isize == start => {
                    *l += if stride == len as isize { n * len } else { len };
                    None
                }
                _ if stride == len as isize => open.replace((start, n * len)),
                _ => open.replace((start, len)),
            };
            regions.extend(closed.map(|(o, l)| region(o, l)));
            if n > 1 && stride != len as isize {
                // Run i + 1 touches run i only when `stride == len`, so
                // only the row's first run can extend the region before
                // it, and only its last the region after it. Appending
                // the rest in bulk builds NAS_MG_x's and NAS_LU_y's lists
                // 2.3-3.3x faster than merging per run.
                let last = start + (n - 1) as isize * stride;
                let (o, l) = open.replace((last, len)).expect("the row's first run");
                regions.push(region(o, l));
                regions.extend((1..n as isize - 1).map(|i| region(start + i * stride, len)));
            }
        });
        regions.extend(open.map(|(o, l)| region(o, l)));
        regions
    }

    /// The loop nest (geometry inspection / tests).
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }
}

impl Pattern for NestPattern {
    fn info(&self) -> PatternInfo {
        self.info
    }

    fn bytes(&self) -> usize {
        self.nest.packed_size()
    }

    fn pack_manual(&self, out: &mut Vec<u8>) {
        out.clear();
        out.resize(self.bytes(), 0);
        // The hand-written loop nest, expressed through the suspendable
        // cursor (the straight-line equivalent of the app's pack loops).
        let mut cur = self.nest.cursor();
        // SAFETY: slab sized to the nest's span in `new`.
        let n = unsafe { cur.pack_into(self.slab.as_ptr(), out) };
        debug_assert_eq!(n, out.len());
    }

    fn unpack_manual(&mut self, data: &[u8]) {
        let mut cur = self.nest.cursor();
        // SAFETY: as above; exclusive access via &mut self.
        unsafe { cur.unpack_from(self.slab.as_mut_ptr(), data) };
    }

    fn committed(&self) -> Arc<Committed> {
        // Open MPI-style convertor view: the baseline the paper measures.
        let view = self
            .committed
            .get_or_init(|| Arc::new(self.datatype.commit_convertor().expect("valid datatype")));
        Arc::clone(view)
    }

    fn datatype(&self) -> Datatype {
        self.datatype.clone()
    }

    fn base(&self) -> &[u8] {
        &self.slab
    }

    fn base_mut(&mut self) -> &mut [u8] {
        &mut self.slab
    }

    fn custom_pack_ctx(&self) -> Box<dyn CustomPack + '_> {
        Box::new(NestPack::new(self.nest.clone(), &self.slab))
    }

    fn custom_unpack_ctx(&mut self) -> Box<dyn CustomUnpack + '_> {
        Box::new(NestUnpack::new(self.nest.clone(), &mut self.slab))
    }

    fn region_pack_ctx(&self) -> Option<Box<dyn CustomPack + '_>> {
        if !self.info.memory_regions {
            return None;
        }
        let base = self.slab.as_ptr();
        let regions = self.region_list(|off, len| SendRegion {
            ptr: base.wrapping_offset(off),
            len,
        });
        Some(Box::new(RegionsPack::new(regions, &self.slab)))
    }

    fn region_unpack_ctx(&mut self) -> Option<Box<dyn CustomUnpack + '_>> {
        if !self.info.memory_regions {
            return None;
        }
        let base = self.slab.as_mut_ptr();
        let regions = self.region_list(|off, len| RecvRegion {
            ptr: base.wrapping_offset(off),
            len,
        });
        Some(Box::new(RegionsUnpack::new(regions, &mut self.slab)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::push_merged;

    fn sample() -> NestPattern {
        let nest = LoopNest::new(vec![3, 4], vec![512, 64], 32).unwrap();
        let dt = NestPattern::nest_datatype(&nest);
        NestPattern::new(
            PatternInfo {
                name: "sample",
                mpi_datatypes: "strided vector",
                loop_structure: "2 nested loops",
                memory_regions: true,
            },
            nest,
            dt,
            42,
        )
    }

    #[test]
    fn datatype_matches_nest_pack_order() {
        let p = sample();
        let mut manual = Vec::new();
        p.pack_manual(&mut manual);
        let typed = p.committed().pack_slice(p.base(), 1).unwrap();
        assert_eq!(manual, typed, "typemap pack equals loop-nest pack");
    }

    #[test]
    fn custom_ctx_packs_identically() {
        let p = sample();
        let mut manual = Vec::new();
        p.pack_manual(&mut manual);
        let mut ctx = p.custom_pack_ctx();
        assert_eq!(ctx.packed_size().unwrap(), manual.len());
        let mut out = vec![0u8; manual.len()];
        let mut off = 0;
        while off < out.len() {
            let n = ctx.pack(off, &mut out[off..]).unwrap();
            assert!(n > 0);
            off += n;
        }
        assert_eq!(out, manual);
    }

    #[test]
    fn region_runs_cover_payload() {
        let p = sample();
        let total: usize = p.region_runs().iter().map(|(_, l)| l).sum();
        assert_eq!(total, p.bytes());
        // 12 runs of 32 bytes, none adjacent (stride 64 > 32).
        assert_eq!(p.region_runs().len(), 12);
    }

    #[test]
    fn unpack_manual_restores() {
        let mut p = sample();
        let mut before = Vec::new();
        p.pack_manual(&mut before);
        p.clear();
        let mut cleared = Vec::new();
        p.pack_manual(&mut cleared);
        assert!(cleared.iter().all(|b| *b == 0));
        p.unpack_manual(&before);
        let mut after = Vec::new();
        p.pack_manual(&mut after);
        assert_eq!(after, before);
    }

    #[test]
    fn checksum_tracks_payload_only() {
        let mut p = sample();
        let c1 = p.checksum();
        // Mutate a gap byte (offset 32..64 of the first row is a gap).
        p.base_mut()[40] ^= 0xFF;
        assert_eq!(p.checksum(), c1, "gap bytes not communicated");
        p.base_mut()[0] ^= 0xFF;
        assert_ne!(p.checksum(), c1, "payload bytes are");
    }

    /// The region list as built before the run walker: every run located
    /// by `offset_of_run`, then merged in a second pass.
    fn per_run_regions(nest: &LoopNest) -> Vec<(isize, usize)> {
        let mut regions = Vec::new();
        for r in 0..nest.total_runs() {
            push_merged(&mut regions, nest.offset_of_run(r), nest.run_len());
        }
        regions
    }

    #[test]
    fn region_runs_equal_per_run_merge_for_every_nest_pattern() {
        use crate::{milc::Milc, nas_lu, nas_mg, wrf};
        let makers: [fn(usize) -> NestPattern; 7] = [
            Milc::new,
            nas_lu::NasLuX::new,
            nas_lu::NasLuY::new,
            nas_mg::NasMgX::new,
            nas_mg::NasMgY::new,
            wrf::WrfXVec::new,
            wrf::WrfYVec::new,
        ];
        for make in makers {
            for target in [1 << 10, 20 << 10, 80 << 10] {
                let p = make(target);
                let want = per_run_regions(p.nest());
                assert_eq!(p.region_runs(), want, "{} at {target} B", p.info.name);
            }
        }
        // Rows that merge whole, and rows whose first run extends the
        // region before them.
        for (dims, strides, len, regions) in [
            (vec![3, 4], vec![32, 8], 8, 1),
            (vec![2, 2], vec![40, 32], 8, 3),
        ] {
            let nest = LoopNest::new(dims, strides, len).unwrap();
            let dt = NestPattern::nest_datatype(&nest);
            let p = NestPattern::new(sample().info, nest.clone(), dt, 7);
            assert_eq!(p.region_runs(), per_run_regions(&nest));
            assert_eq!(p.region_runs().len(), regions);
        }
    }
}
