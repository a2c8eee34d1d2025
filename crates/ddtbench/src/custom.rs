//! Reusable custom-API contexts for the DDTBench patterns.
//!
//! * [`NestPack`]/[`NestUnpack`] — packing through a [`LoopNest`], the
//!   suspendable nested-loop traversal (the paper's coroutine experiment).
//! * [`RunsPack`]/[`RunsUnpack`] — packing an explicit run list (LAMMPS's
//!   irregular index gather) through [`RunList`].
//! * [`RegionsPack`]/[`RegionsUnpack`] — no packing at all: every
//!   contiguous run is exposed as a memory region (the "custom regions"
//!   variant of Fig 10).

// Audited unsafe: benchmark datatype raw-memory callbacks; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use mpicd::datatype::{
    CustomPack, CustomUnpack, RandomAccessPacker, RandomAccessUnpacker, RecvRegion, SendRegion,
};
use mpicd::resumable::RunList;
use mpicd::{Error, LoopNest, Result};
use std::marker::PhantomData;

/// Pack context driving a [`LoopNest`].
pub struct NestPack<'a> {
    nest: LoopNest,
    base: *const u8,
    _borrow: PhantomData<&'a [u8]>,
}

unsafe impl Send for NestPack<'_> {}

// SAFETY: packing only reads the borrowed slab; concurrent `pack_at` calls
// are safe on any ranges.
unsafe impl Sync for NestPack<'_> {}

impl<'a> NestPack<'a> {
    /// Pack the nest's runs out of `slab`.
    pub fn new(nest: LoopNest, slab: &'a [u8]) -> Self {
        let (min, max) = nest.span();
        assert!(min >= 0 && max as usize <= slab.len(), "nest within slab");
        Self {
            nest,
            base: slab.as_ptr(),
            _borrow: PhantomData,
        }
    }
}

impl CustomPack for NestPack<'_> {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.nest.packed_size())
    }
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
        // SAFETY: span checked against the borrowed slab in `new`.
        Ok(unsafe { self.nest.pack_segment(self.base, offset, dst) })
    }
    fn inorder(&self) -> bool {
        false
    }
    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        Some(self)
    }
}

impl RandomAccessPacker for NestPack<'_> {
    fn runs(&self) -> Option<usize> {
        Some(self.nest.total_runs())
    }

    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> std::result::Result<usize, i32> {
        // SAFETY: span checked against the borrowed slab in `new`; the nest
        // addresses any packed offset directly, so disjoint fragments can
        // be produced concurrently.
        Ok(unsafe { self.nest.pack_segment(self.base, offset, dst) })
    }
}

/// Unpack context driving a [`LoopNest`].
pub struct NestUnpack<'a> {
    nest: LoopNest,
    base: *mut u8,
    _borrow: PhantomData<&'a mut [u8]>,
}

unsafe impl Send for NestUnpack<'_> {}

// SAFETY: `unpack_at` writes only the runs addressed by the packed range it
// is handed; the parallel engine guarantees disjoint ranges, which map to
// disjoint runs of the slab.
unsafe impl Sync for NestUnpack<'_> {}

impl<'a> NestUnpack<'a> {
    /// Scatter incoming runs into `slab`.
    pub fn new(nest: LoopNest, slab: &'a mut [u8]) -> Self {
        let (min, max) = nest.span();
        assert!(min >= 0 && max as usize <= slab.len(), "nest within slab");
        Self {
            nest,
            base: slab.as_mut_ptr(),
            _borrow: PhantomData,
        }
    }
}

impl CustomUnpack for NestUnpack<'_> {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.nest.packed_size())
    }
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<()> {
        // SAFETY: span checked in `new`; exclusive borrow held for 'a.
        unsafe { self.nest.unpack_segment(self.base, offset, src) };
        Ok(())
    }
    fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
        Some(self)
    }
}

impl RandomAccessUnpacker for NestUnpack<'_> {
    fn runs(&self) -> Option<usize> {
        Some(self.nest.total_runs())
    }

    fn unpack_at(&self, offset: usize, src: &[u8]) -> std::result::Result<(), i32> {
        // SAFETY: span checked in `new`; disjoint packed ranges scatter to
        // disjoint runs (see the `Sync` justification).
        unsafe { self.nest.unpack_segment(self.base, offset, src) };
        Ok(())
    }
}

/// Pack context over an explicit, uniform-length run list.
pub struct RunsPack<'a> {
    offsets: Vec<isize>,
    run_len: usize,
    base: *const u8,
    _borrow: PhantomData<&'a [u8]>,
}

unsafe impl Send for RunsPack<'_> {}

// SAFETY: packing only reads the borrowed slab.
unsafe impl Sync for RunsPack<'_> {}

impl<'a> RunsPack<'a> {
    /// Pack `offsets.len()` runs of `run_len` bytes out of `slab`.
    pub fn new(offsets: Vec<isize>, run_len: usize, slab: &'a [u8]) -> Self {
        debug_assert!(offsets
            .iter()
            .all(|o| *o >= 0 && (*o as usize + run_len) <= slab.len()));
        Self {
            offsets,
            run_len,
            base: slab.as_ptr(),
            _borrow: PhantomData,
        }
    }

    fn runs(&self) -> RunList<'_> {
        RunList::new(&self.offsets, self.run_len)
    }

    /// Stateless gather of `[offset, offset + dst)` of the packed stream.
    fn gather(&self, offset: usize, dst: &mut [u8]) -> usize {
        // SAFETY: offsets validated against the slab in `new`.
        unsafe { self.runs().pack_segment(self.base, offset, dst) }
    }
}

impl CustomPack for RunsPack<'_> {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.runs().packed_size())
    }

    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
        Ok(self.gather(offset, dst))
    }

    fn inorder(&self) -> bool {
        false
    }

    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        Some(self)
    }
}

impl RandomAccessPacker for RunsPack<'_> {
    fn runs(&self) -> Option<usize> {
        Some(self.offsets.len())
    }

    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> std::result::Result<usize, i32> {
        Ok(self.gather(offset, dst))
    }
}

/// Unpack counterpart of [`RunsPack`].
pub struct RunsUnpack<'a> {
    offsets: Vec<isize>,
    run_len: usize,
    base: *mut u8,
    _borrow: PhantomData<&'a mut [u8]>,
}

unsafe impl Send for RunsUnpack<'_> {}

// SAFETY: disjoint packed ranges scatter to disjoint runs of the slab (the
// parallel engine's contract), so concurrent `unpack_at` calls are safe.
unsafe impl Sync for RunsUnpack<'_> {}

impl<'a> RunsUnpack<'a> {
    /// Scatter incoming runs into `slab`.
    pub fn new(offsets: Vec<isize>, run_len: usize, slab: &'a mut [u8]) -> Self {
        debug_assert!(offsets
            .iter()
            .all(|o| *o >= 0 && (*o as usize + run_len) <= slab.len()));
        Self {
            offsets,
            run_len,
            base: slab.as_mut_ptr(),
            _borrow: PhantomData,
        }
    }

    fn runs(&self) -> RunList<'_> {
        RunList::new(&self.offsets, self.run_len)
    }

    /// Stateless scatter of a packed-stream range into the run list.
    fn scatter(&self, offset: usize, src: &[u8]) -> Result<()> {
        let total = self.runs().packed_size();
        if offset.checked_add(src.len()).is_none_or(|end| end > total) {
            return Err(Error::InvalidHeader("run-list unpack overflow"));
        }
        // SAFETY: offsets validated in `new`; exclusive borrow.
        unsafe { self.runs().unpack_segment(self.base, offset, src) };
        Ok(())
    }
}

impl CustomUnpack for RunsUnpack<'_> {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.runs().packed_size())
    }

    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<()> {
        self.scatter(offset, src)
    }

    fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
        Some(self)
    }
}

impl RandomAccessUnpacker for RunsUnpack<'_> {
    fn runs(&self) -> Option<usize> {
        Some(self.offsets.len())
    }

    fn unpack_at(&self, offset: usize, src: &[u8]) -> std::result::Result<(), i32> {
        self.scatter(offset, src).map_err(|e| e.code())
    }
}

/// Append the run `(off, len)` to `regions`, merged into the last region
/// when the two are adjacent (fewer, larger regions).
pub fn push_merged(regions: &mut Vec<(isize, usize)>, off: isize, len: usize) {
    match regions.last_mut() {
        Some((o, l)) if *o + *l as isize == off => *l += len,
        _ => regions.push((off, len)),
    }
}

/// Region-only pack context: nothing is packed; every run is a region.
/// The list is built once and handed to the operation as it is.
pub struct RegionsPack<'a> {
    regions: Vec<SendRegion>,
    _borrow: PhantomData<&'a [u8]>,
}

unsafe impl Send for RegionsPack<'_> {}

impl<'a> RegionsPack<'a> {
    /// Expose `regions`, each inside `slab`.
    pub fn new(regions: Vec<SendRegion>, slab: &'a [u8]) -> Self {
        let range = slab.as_ptr_range();
        debug_assert!(regions
            .iter()
            .all(|r| range.start <= r.ptr && r.ptr.wrapping_add(r.len) <= range.end));
        Self {
            regions,
            _borrow: PhantomData,
        }
    }
}

impl CustomPack for RegionsPack<'_> {
    fn packed_size(&self) -> Result<usize> {
        Ok(0)
    }
    fn pack(&mut self, _offset: usize, _dst: &mut [u8]) -> Result<usize> {
        Ok(0) // nothing in the packed stream
    }
    /// Hands the list over: the operation asks once.
    fn regions(&mut self) -> Result<Vec<SendRegion>> {
        Ok(std::mem::take(&mut self.regions))
    }
    fn inorder(&self) -> bool {
        false
    }
}

/// Region-only unpack context, its list built once like [`RegionsPack`]'s.
pub struct RegionsUnpack<'a> {
    regions: Vec<RecvRegion>,
    _borrow: PhantomData<&'a mut [u8]>,
}

unsafe impl Send for RegionsUnpack<'_> {}

impl<'a> RegionsUnpack<'a> {
    /// Receive directly into `regions`, each inside `slab`, which stays
    /// borrowed exclusively.
    pub fn new(regions: Vec<RecvRegion>, slab: &'a mut [u8]) -> Self {
        let range = slab.as_mut_ptr_range();
        debug_assert!(regions
            .iter()
            .all(|r| range.start <= r.ptr && r.ptr.wrapping_add(r.len) <= range.end));
        Self {
            regions,
            _borrow: PhantomData,
        }
    }
}

impl CustomUnpack for RegionsUnpack<'_> {
    fn packed_size(&self) -> Result<usize> {
        Ok(0)
    }
    fn unpack(&mut self, _offset: usize, _src: &[u8]) -> Result<()> {
        Err(Error::InvalidHeader(
            "regions-only receive got packed bytes",
        ))
    }
    /// Hands the list over: the operation asks once.
    fn regions(&mut self) -> Result<Vec<RecvRegion>> {
        Ok(std::mem::take(&mut self.regions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_pack_gathers_in_order() {
        let slab: Vec<u8> = (0..32).collect();
        let mut p = RunsPack::new(vec![8, 0, 24], 4, &slab);
        assert_eq!(p.packed_size().unwrap(), 12);
        let mut out = vec![0u8; 12];
        assert_eq!(p.pack(0, &mut out).unwrap(), 12);
        assert_eq!(out, vec![8, 9, 10, 11, 0, 1, 2, 3, 24, 25, 26, 27]);
    }

    #[test]
    fn runs_pack_partial_offsets() {
        let slab: Vec<u8> = (0..32).collect();
        let mut p = RunsPack::new(vec![0, 16], 8, &slab);
        let mut out = vec![0u8; 5];
        assert_eq!(p.pack(6, &mut out).unwrap(), 5);
        assert_eq!(out, vec![6, 7, 16, 17, 18]);
    }

    #[test]
    fn runs_unpack_inverts() {
        let src: Vec<u8> = (0..12).collect();
        let mut slab = vec![0xAAu8; 32];
        {
            let mut u = RunsUnpack::new(vec![8, 0, 24], 4, &mut slab);
            u.unpack(0, &src).unwrap();
        }
        assert_eq!(&slab[8..12], &[0, 1, 2, 3]);
        assert_eq!(&slab[0..4], &[4, 5, 6, 7]);
        assert_eq!(&slab[24..28], &[8, 9, 10, 11]);
        assert_eq!(slab[4], 0xAA, "untouched bytes preserved");
    }

    #[test]
    fn merge_runs_collapses_adjacent() {
        let mut regions = Vec::new();
        for (off, len) in [(0, 4), (4, 4), (16, 8), (24, 8), (40, 4)] {
            push_merged(&mut regions, off, len);
        }
        assert_eq!(regions, vec![(0, 8), (16, 16), (40, 4)]);
    }

    #[test]
    fn regions_pack_exposes_runs() {
        let slab: Vec<u8> = (0..64).collect();
        let list = vec![
            SendRegion::from_slice(&slab[..16]),
            SendRegion::from_slice(&slab[32..40]),
        ];
        let mut p = RegionsPack::new(list, &slab);
        assert_eq!(p.packed_size().unwrap(), 0);
        let regions = p.regions().unwrap();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].len, 16);
        assert_eq!(regions[1].len, 8);
        assert_eq!(regions[0].ptr, slab.as_ptr());
    }

    #[test]
    fn regions_unpack_rejects_packed_bytes() {
        let mut slab = vec![0u8; 16];
        let list = vec![RecvRegion::from_slice(&mut slab)];
        let mut u = RegionsUnpack::new(list, &mut slab);
        assert!(u.unpack(0, &[1, 2]).is_err());
    }

    #[test]
    fn runs_contexts_match_per_run_reference() {
        use mpicd_obs::rng::XorShift64Star;
        let mut rng = XorShift64Star::new(0x5EED_1A77);
        for case in 0..200 {
            let run_len = [1, 3, 4, 8, 12, 16, 24, 40][rng.range(0, 8)];
            let slab = rng.bytes(512);
            // Disjoint runs (LAMMPS-like gathers never alias), shuffled.
            let slots = 512 / run_len;
            let mut offsets: Vec<isize> = (0..slots.min(24))
                .map(|i| (i * (slots / slots.min(24)) * run_len) as isize)
                .collect();
            for i in (1..offsets.len()).rev() {
                offsets.swap(i, rng.range(0, i + 1));
            }
            offsets.truncate(rng.range(0, offsets.len() + 1));
            let total = offsets.len() * run_len;
            let byte = |p: usize| offsets[p / run_len] as usize + p % run_len;

            let mut pack = RunsPack::new(offsets.clone(), run_len, &slab);
            assert_eq!(pack.packed_size().unwrap(), total);
            let stream: Vec<u8> = (0..total).map(|p| slab[byte(p)]).collect();
            for _ in 0..8 {
                let offset = rng.range(0, total + 2);
                let mut dst = vec![0u8; rng.range(0, total + 2)];
                let n = pack.pack(offset, &mut dst).unwrap();
                let want = stream.get(offset..).unwrap_or(&[]);
                let want = &want[..want.len().min(dst.len())];
                assert_eq!(&dst[..n], want, "case {case}: pack at {offset}");
            }

            let incoming = rng.bytes(total);
            let mut got = vec![0u8; 512];
            let mut expect = got.clone();
            for p in 0..total {
                expect[byte(p)] = incoming[p];
            }
            {
                let mut unpack = RunsUnpack::new(offsets.clone(), run_len, &mut got);
                // Fragments last-first, as an out-of-order wire delivers them.
                let mut cuts = vec![0, total];
                cuts.extend((0..3).map(|_| rng.range(0, total + 1)));
                cuts.sort_unstable();
                for w in cuts.windows(2).rev() {
                    unpack.unpack(w[0], &incoming[w[0]..w[1]]).unwrap();
                }
                assert!(unpack.unpack(total, &[0]).is_err(), "overflow rejected");
            }
            assert_eq!(got, expect, "case {case}: unpack");
        }
    }
}
