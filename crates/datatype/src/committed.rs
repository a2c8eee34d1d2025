//! Committed (flattened, optimized) datatypes.
//!
//! `MPI_Type_commit` gives implementations a chance to build an optimized
//! internal description. Ours walks the type tree once, run by run (a
//! block of a dense child is one run, whatever its primitive count), into
//! a merged list of `(byte offset, byte length)` blocks in pack order,
//! hashing the type's structural signature in the same walk. A
//! packed-offset prefix table makes the pack engine *resumable*: any byte
//! range of the packed stream can be produced independently, which is
//! what pipelined fragment protocols need.

// Audited unsafe: pack/unpack over caller-described memory; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::error::{DatatypeError, DatatypeResult};
use crate::plan::PackPlan;
use crate::typ::{Datatype, Grain, Layout};

/// A committed datatype: flattened block list plus derived layout facts.
#[derive(Debug, Clone)]
pub struct Committed {
    /// Merged `(offset, len)` runs, in pack (type map) order.
    blocks: Vec<(isize, usize)>,
    /// `prefix[i]` = packed bytes preceding block `i` within one element.
    prefix: Vec<usize>,
    /// Packed bytes per element (`MPI_Type_size`).
    size: usize,
    /// Element-to-element spacing (`MPI_Type_get_extent`).
    extent: usize,
    /// Lower bound.
    lb: isize,
    /// Greatest `offset + len` over all blocks (for bounds checking).
    max_end: isize,
    /// Convertor mode: per-block interpretation overhead is modeled by
    /// routing each block through an uninlined dynamic dispatch, the way a
    /// generalized engine walks its description stack.
    convertor: bool,
    /// Compiled pack plan (see [`mod@crate::plan`]); `None` on the
    /// interpreted and convertor paths.
    plan: Option<PackPlan>,
    /// Stable 64-bit structural signature ([`crate::equivalence::key64`] of
    /// the type's structural key), computed once at commit time because the
    /// flattened form does not retain the type tree. Never zero.
    sig64: u64,
}

impl Committed {
    /// Flatten and optimize `t`: adjacent runs are merged, then the block
    /// list is compiled into a strided-kernel pack plan (see
    /// [`mod@crate::plan`]).
    pub fn new(t: &Datatype) -> DatatypeResult<Self> {
        let layout = t.layout()?;
        let _sp = mpicd_obs::span!("dt.commit", "datatype", layout.size);
        let mut c = Self::build(t, &layout, Grain::Runs)?;
        if c.size > 0 {
            c.plan = Some(PackPlan::compile(&c.blocks, c.size, c.extent));
        }
        Ok(c)
    }

    /// Flatten and optimize `t` like [`Self::new`], but skip pack-plan
    /// compilation: packing runs the interpreted merged-block engine.
    ///
    /// This is the pre-plan behavior, kept as the middle rung of the
    /// interpreted-vs-compiled ablation (`ablation_pack_plan`) and for
    /// byte-identity property tests.
    pub fn new_interpreted(t: &Datatype) -> DatatypeResult<Self> {
        let layout = t.layout()?;
        let _sp = mpicd_obs::span!("dt.commit_interpreted", "datatype", layout.size);
        Self::build(t, &layout, Grain::Runs)
    }

    /// Flatten `t` the way a generalized convertor sees it: one block per
    /// *described* `(primitive, blocklength)` entry, no cross-entry
    /// merging, and per-block interpretation overhead on the pack path —
    /// unless the type turns out fully contiguous, which every MPI
    /// implementation special-cases.
    ///
    /// This models Open MPI's datatype engine: long described blocks
    /// (e.g. struct-vec's 2048-int array) still move as one memcpy, but
    /// types made of *small* blocks (the gapped `struct-simple`) pay the
    /// engine's per-entry machinery — the paper's Fig 5 slowness ("the
    /// Open MPI type representation is not able to handle efficiently").
    /// Byte-for-byte output is identical to [`Self::new`].
    pub fn new_convertor(t: &Datatype) -> DatatypeResult<Self> {
        let layout = t.layout()?;
        let _sp = mpicd_obs::span!("dt.commit_convertor", "datatype", layout.size);
        let mut c = Self::build(t, &layout, Grain::Described)?;
        // Contiguity, read from the described blocks: back to back from
        // offset 0 up to the extent.
        let back_to_back = c.blocks.iter().try_fold(0, |end, &(off, len)| {
            (off == end).then_some(off + len as isize)
        });
        if c.size == c.extent && c.lb == 0 && back_to_back.is_some() {
            // Dense types collapse to a single memcpy in real engines too.
            let size = c.size;
            c.blocks.truncate(1);
            c.prefix.truncate(1);
            c.blocks.iter_mut().for_each(|block| block.1 = size);
        } else {
            c.convertor = true;
        }
        Ok(c)
    }

    /// One walk of `t` at `grain`: the blocks (merged when memory-adjacent
    /// at [`Grain::Runs`], one per described entry otherwise) and the
    /// structural signature.
    fn build(t: &Datatype, layout: &Layout, grain: Grain) -> DatatypeResult<Self> {
        let merge = grain == Grain::Runs;
        let mut blocks: Vec<(isize, usize)> = Vec::new();
        let sig64 = crate::equivalence::digest(t, layout, grain, |p, off, n| {
            let len = n * p.size();
            match blocks.last_mut() {
                // Merge runs that are adjacent in both memory and pack order.
                Some((last_off, last_len)) if merge && *last_off + *last_len as isize == off => {
                    *last_len += len;
                }
                _ => blocks.push((off, len)),
            }
        })?;
        let mut prefix = Vec::with_capacity(blocks.len());
        let mut acc = 0usize;
        for (_, len) in &blocks {
            prefix.push(acc);
            acc += len;
        }
        debug_assert_eq!(acc, layout.size, "flattened size matches MPI_Type_size");
        let max_end = blocks.iter().map(|(off, len)| off + *len as isize).max();
        let min_off = blocks.iter().map(|(off, _)| *off).min();
        // The distance between any two blocks must fit too.
        max_end
            .unwrap_or(0)
            .checked_sub(min_off.unwrap_or(0))
            .ok_or(DatatypeError::LayoutOverflow)?;
        Ok(Self {
            blocks,
            prefix,
            size: acc,
            extent: layout.extent(),
            lb: layout.lb,
            max_end: max_end.unwrap_or(0),
            convertor: false,
            plan: None,
            sig64,
        })
    }

    /// The compiled pack plan, when this commit went through the plan
    /// compiler (convertor and interpreted commits have none).
    pub fn plan(&self) -> Option<&PackPlan> {
        self.plan.as_ref()
    }

    /// Packed bytes per element.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Element-to-element spacing in memory.
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// Lower bound in bytes.
    pub fn lb(&self) -> isize {
        self.lb
    }

    /// The stable 64-bit structural signature of the committed type (see
    /// [`crate::equivalence::signature64`]). Identical across the plan,
    /// interpreted and convertor commit paths, and across processes, so
    /// the fabric can compare a sender's token against the posted
    /// receive's under `MPICD_TYPECHECK`.
    pub fn signature64(&self) -> u64 {
        self.sig64
    }

    /// Number of merged blocks per element.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The merged blocks per element, in pack order.
    pub fn blocks(&self) -> &[(isize, usize)] {
        &self.blocks
    }

    /// True when the committed type is a single dense run starting at the
    /// base address whose length equals the extent. For such types an
    /// implementation can skip packing entirely and transfer the bytes
    /// directly — the Fig 6 (`struct-simple-no-gap`) fast path.
    pub fn is_contiguous(&self) -> bool {
        self.size == self.extent
            && self.lb == 0
            && (self.blocks.is_empty() || self.blocks == [(0, self.size)])
    }

    /// Bytes of memory a buffer of `count` elements must provide past the
    /// base address for the safe slice API, or
    /// [`DatatypeError::CountOverflow`] when that exceeds `usize`.
    pub fn required_span(&self, count: usize) -> DatatypeResult<usize> {
        if count == 0 || self.size == 0 {
            return Ok(0);
        }
        (count - 1)
            .checked_mul(self.extent)
            .and_then(|s| s.checked_add(self.max_end.max(0) as usize))
            .ok_or(DatatypeError::CountOverflow { count })
    }

    /// Packed bytes of `count` elements, or
    /// [`DatatypeError::CountOverflow`] when that exceeds `usize`.
    pub(crate) fn packed_len(&self, count: usize) -> DatatypeResult<usize> {
        self.size
            .checked_mul(count)
            .ok_or(DatatypeError::CountOverflow { count })
    }

    /// Flattened `(offset, len)` list for `count` consecutive elements,
    /// merging across element boundaries where possible. This is the
    /// iov/memory-region view of a derived datatype (cf. the MPICH iovec
    /// extraction extensions cited by the paper).
    pub fn flatten_count(&self, count: usize) -> Vec<(isize, usize)> {
        let mut out: Vec<(isize, usize)> = Vec::new();
        for elem in 0..count {
            let shift = (elem * self.extent) as isize;
            for (off, len) in &self.blocks {
                let off = off + shift;
                match out.last_mut() {
                    Some((lo, ll)) if *lo + *ll as isize == off => *ll += len,
                    _ => out.push((off, *len)),
                }
            }
        }
        out
    }

    // ---- resumable raw engine ---------------------------------------------

    /// Produce packed bytes `[packed_off, packed_off + dst.len())` of the
    /// packed stream for `count` elements based at `base`.
    ///
    /// Returns the number of bytes written (less than `dst.len()` only when
    /// the stream ends).
    ///
    /// # Safety
    /// `base` must be valid for reads over every typemap block of all
    /// `count` elements, and `size() * count` must not overflow `usize`
    /// ([`Self::check_bounds`] checks both).
    pub unsafe fn pack_segment(
        &self,
        base: *const u8,
        count: usize,
        packed_off: usize,
        dst: &mut [u8],
    ) -> usize {
        if let Some(plan) = &self.plan {
            return plan.pack_segment(base, count, packed_off, dst);
        }
        self.segment_op(count, packed_off, dst.len(), |mem_off, seg_off, n| {
            std::ptr::copy_nonoverlapping(base.offset(mem_off), dst.as_mut_ptr().add(seg_off), n);
        })
    }

    /// Consume packed bytes `[packed_off, packed_off + src.len())`,
    /// scattering them into `count` elements based at `base`.
    ///
    /// # Safety
    /// `base` must be valid for writes over every typemap block of all
    /// `count` elements, and `size() * count` must not overflow `usize`
    /// ([`Self::check_bounds`] checks both).
    pub unsafe fn unpack_segment(
        &self,
        base: *mut u8,
        count: usize,
        packed_off: usize,
        src: &[u8],
    ) -> usize {
        if let Some(plan) = &self.plan {
            return plan.unpack_segment(base, count, packed_off, src);
        }
        self.segment_op(count, packed_off, src.len(), |mem_off, seg_off, n| {
            std::ptr::copy_nonoverlapping(src.as_ptr().add(seg_off), base.offset(mem_off), n);
        })
    }

    /// Shared walk for pack/unpack: maps a packed-stream range onto memory
    /// offsets, invoking `op(memory_offset, segment_offset, len)` per run.
    /// Uninlined per-block dispatch emulating the description-stack walk +
    /// indirect memcpy call of a generalized convertor.
    #[inline(never)]
    fn convertor_step(op: &mut dyn FnMut(isize, usize, usize), mem: isize, seg: usize, n: usize) {
        op(mem, seg, n);
    }

    fn segment_op(
        &self,
        count: usize,
        packed_off: usize,
        seg_len: usize,
        mut op: impl FnMut(isize, usize, usize),
    ) -> usize {
        if self.size == 0 || count == 0 {
            return 0;
        }
        let total = self.size * count;
        if packed_off >= total {
            return 0;
        }
        let mut elem = packed_off / self.size;
        let mut within = packed_off % self.size;
        // Locate the entry block once; after that the walk is sequential
        // (real convertors keep a position stack for exactly this reason).
        let mut bi = match self.prefix.binary_search(&within) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let mut done = 0usize;
        while elem < count && done < seg_len {
            let skip = within - self.prefix[bi];
            let (off, len) = self.blocks[bi];
            let avail = len - skip;
            let n = avail.min(seg_len - done);
            let mem_off = (elem * self.extent) as isize + off + skip as isize;
            if self.convertor {
                Self::convertor_step(&mut op, mem_off, done, n);
            } else {
                op(mem_off, done, n);
            }
            done += n;
            within += n;
            if n == avail {
                bi += 1;
            }
            if within == self.size {
                elem += 1;
                within = 0;
                bi = 0;
            }
        }
        done
    }

    // ---- safe slice API -----------------------------------------------------

    /// Validate that `count` elements fit inside `region_len` bytes for the
    /// safe APIs (requires a non-negative lower bound), and that their
    /// packed stream is addressable — the pack engines count bytes of it
    /// in `usize`.
    pub fn check_bounds(&self, count: usize, region_len: usize) -> DatatypeResult<()> {
        if self.lb < 0 {
            return Err(DatatypeError::NegativeLowerBound { lb: self.lb });
        }
        self.packed_len(count)?;
        let span = self.required_span(count)?;
        if span > region_len {
            return Err(DatatypeError::OutOfBounds {
                offset: self.max_end,
                len: span,
                region: region_len,
            });
        }
        Ok(())
    }

    /// Pack `count` elements from `src` into a fresh buffer.
    pub fn pack_slice(&self, src: &[u8], count: usize) -> DatatypeResult<Vec<u8>> {
        self.check_bounds(count, src.len())?;
        let mut out = vec![0u8; self.packed_len(count)?];
        // SAFETY: bounds checked above.
        let n = unsafe { self.pack_segment(src.as_ptr(), count, 0, &mut out) };
        debug_assert_eq!(n, out.len());
        Ok(out)
    }

    /// Unpack a packed stream into `count` elements of `dst`.
    pub fn unpack_slice(&self, packed: &[u8], dst: &mut [u8], count: usize) -> DatatypeResult<()> {
        self.check_bounds(count, dst.len())?;
        let needed = self.packed_len(count)?;
        if packed.len() < needed {
            return Err(DatatypeError::UnpackUnderflow {
                needed,
                available: packed.len(),
            });
        }
        // SAFETY: bounds checked above.
        let n = unsafe { self.unpack_segment(dst.as_mut_ptr(), count, 0, packed) };
        debug_assert_eq!(n, needed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::Primitive;

    fn int() -> Datatype {
        Datatype::Predefined(Primitive::Int32)
    }
    fn dbl() -> Datatype {
        Datatype::Predefined(Primitive::Double)
    }

    /// The paper's struct-simple: three i32s, a 4-byte gap, one f64.
    fn struct_simple() -> Committed {
        Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())])
            .commit()
            .unwrap()
    }

    #[test]
    fn merge_adjacent_runs() {
        let c = struct_simple();
        assert_eq!(c.blocks(), &[(0, 12), (16, 8)]);
        assert_eq!(c.size(), 20);
        assert_eq!(c.extent(), 24);
        assert!(!c.is_contiguous());
    }

    #[test]
    fn no_gap_struct_is_contiguous() {
        let c = Datatype::structure(vec![(2, 0, int()), (1, 8, dbl())])
            .commit()
            .unwrap();
        assert!(c.is_contiguous());
        assert_eq!(c.blocks(), &[(0, 16)]);
    }

    #[test]
    fn contiguous_of_contiguous_merges_to_one_block() {
        let c = Datatype::contiguous(8, Datatype::contiguous(4, int()))
            .commit()
            .unwrap();
        assert_eq!(c.block_count(), 1);
        assert!(c.is_contiguous());
        assert_eq!(c.size(), 128);
    }

    #[test]
    fn pack_unpack_roundtrip_struct_simple() {
        let c = struct_simple();
        // Two elements, 24 bytes each.
        let mut src = vec![0u8; 48];
        for (i, b) in src.iter_mut().enumerate() {
            *b = i as u8;
        }
        let packed = c.pack_slice(&src, 2).unwrap();
        assert_eq!(packed.len(), 40);
        // Element 0: bytes 0..12 and 16..24.
        assert_eq!(&packed[..12], &src[..12]);
        assert_eq!(&packed[12..20], &src[16..24]);
        // Element 1 starts at extent 24.
        assert_eq!(&packed[20..32], &src[24..36]);
        assert_eq!(&packed[32..40], &src[40..48]);

        let mut dst = vec![0xffu8; 48];
        c.unpack_slice(&packed, &mut dst, 2).unwrap();
        // Data bytes equal; gap bytes untouched.
        assert_eq!(&dst[..12], &src[..12]);
        assert_eq!(&dst[16..24], &src[16..24]);
        assert_eq!(&dst[12..16], &[0xff; 4]);
    }

    #[test]
    fn resumable_segments_agree_with_full_pack() {
        let c = struct_simple();
        let src: Vec<u8> = (0..240).map(|i| i as u8).collect(); // 10 elements
        let full = c.pack_slice(&src, 10).unwrap();
        // Re-produce in odd-sized segments.
        for seg in [1usize, 3, 7, 13, 40, 200] {
            let mut acc = Vec::new();
            let mut off = 0;
            loop {
                let mut buf = vec![0u8; seg];
                let n = unsafe { c.pack_segment(src.as_ptr(), 10, off, &mut buf) };
                if n == 0 {
                    break;
                }
                acc.extend_from_slice(&buf[..n]);
                off += n;
            }
            assert_eq!(acc, full, "segment size {seg}");
        }
    }

    #[test]
    fn resumable_unpack_from_arbitrary_offsets() {
        let c = struct_simple();
        let src: Vec<u8> = (0..48).map(|i| i as u8).collect();
        let packed = c.pack_slice(&src, 2).unwrap();
        let mut dst = vec![0u8; 48];
        // Deliver out of order: second half then first half.
        let mid = 23;
        unsafe {
            c.unpack_segment(dst.as_mut_ptr(), 2, mid, &packed[mid..]);
            c.unpack_segment(dst.as_mut_ptr(), 2, 0, &packed[..mid]);
        }
        let mut roundtrip = vec![0u8; 48];
        c.unpack_slice(&packed, &mut roundtrip, 2).unwrap();
        assert_eq!(dst, roundtrip);
    }

    #[test]
    fn bounds_checking_rejects_short_regions() {
        let c = struct_simple();
        let src = vec![0u8; 47]; // one byte short for 2 elements
        assert!(matches!(
            c.pack_slice(&src, 2),
            Err(DatatypeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn negative_lb_rejected_by_safe_api() {
        let t = Datatype::indexed(vec![(1, -1), (1, 1)], int());
        let c = t.commit().unwrap();
        assert!(matches!(
            c.pack_slice(&[0u8; 64], 1),
            Err(DatatypeError::NegativeLowerBound { .. })
        ));
    }

    #[test]
    fn unpack_underflow_detected() {
        let c = struct_simple();
        let mut dst = vec![0u8; 24];
        assert!(matches!(
            c.unpack_slice(&[0u8; 10], &mut dst, 1),
            Err(DatatypeError::UnpackUnderflow { .. })
        ));
    }

    #[test]
    fn flatten_count_merges_across_elements() {
        // Contiguous ints: N elements flatten to one run.
        let c = Datatype::contiguous(4, int()).commit().unwrap();
        assert_eq!(c.flatten_count(3), vec![(0, 48)]);
        // Gapped struct: element 0's trailing run (16..24) is memory-adjacent
        // to element 1's leading run (24..36), so those merge; the gaps at
        // 12..16 and 36..40 split the rest.
        let s = struct_simple();
        let flat = s.flatten_count(2);
        assert_eq!(flat, vec![(0, 12), (16, 20), (40, 8)]);
    }

    #[test]
    fn required_span_accounts_for_trailing_gap() {
        let c = struct_simple();
        // 2 elements: (2-1)*24 + 24 = 48.
        assert_eq!(c.required_span(2), Ok(48));
        assert_eq!(c.required_span(0), Ok(0));
    }

    #[test]
    fn huge_counts_are_rejected_not_wrapped() {
        // (2^60 + 1 - 1) * 16 wraps to 0 in usize: unchecked, the span of
        // 2^60 + 1 elements would read as 8 bytes and pass a 16-byte region.
        let c = Datatype::resized(0, 16, dbl()).commit().unwrap();
        let count = (1usize << 60) + 1;
        let overflow = DatatypeError::CountOverflow { count };
        assert_eq!(c.required_span(count), Err(overflow.clone()));
        assert_eq!(c.check_bounds(count, 16), Err(overflow.clone()));
        assert_eq!(c.pack_slice(&[0u8; 16], count), Err(overflow.clone()));
        let mut dst = [0xA5u8; 16];
        assert_eq!(c.unpack_slice(&[0u8; 16], &mut dst, count), Err(overflow));
        assert_eq!(dst, [0xA5u8; 16], "nothing was written");
        // The packed length overflows on its own when the extent is 0.
        let z = Datatype::resized(0, 0, dbl()).commit().unwrap();
        let count = usize::MAX / 4;
        assert_eq!(z.required_span(count), Ok(8));
        assert_eq!(
            z.check_bounds(count, 8),
            Err(DatatypeError::CountOverflow { count })
        );
    }

    #[test]
    fn dense_terabyte_commits_to_one_block_and_one_op() {
        // 2^37 doubles: one run, so commit costs one step, not 2^37.
        let t = Datatype::contiguous(1 << 37, dbl());
        let c = t.commit().unwrap();
        assert_eq!(c.blocks(), &[(0, 1 << 40)]);
        assert!(c.is_contiguous());
        let ops = c.plan().unwrap().ops();
        assert_eq!(
            ops,
            &[crate::PlanOp::Contig {
                mem: 0,
                len: 1 << 40
            }]
        );
        let conv = t.commit_convertor().unwrap();
        assert_eq!(conv.blocks(), c.blocks());
        assert_eq!(conv.signature64(), c.signature64());
    }

    #[test]
    fn layout_overflow_fails_every_commit_path() {
        let overflow = DatatypeError::LayoutOverflow;
        for t in [
            // A wrapped displacement: release once committed it at size 16.
            Datatype::vector(2, 1, isize::MAX / 4, dbl()),
            // An upper bound past isize::MAX.
            Datatype::hvector(3, 1, isize::MAX / 2, dbl()),
            // A size past usize::MAX: once a walk of 2^62 primitives.
            Datatype::contiguous(usize::MAX / 4, dbl()),
            // A displacement past isize::MAX below a resize that hides it.
            Datatype::hindexed(
                vec![(1, isize::MAX - 16)],
                Datatype::resized(0, 8, Datatype::hindexed(vec![(1, 64)], dbl())),
            ),
        ] {
            assert_eq!(t.commit().unwrap_err(), overflow, "{t:?}");
            assert_eq!(t.commit_interpreted().unwrap_err(), overflow);
            assert_eq!(t.commit_convertor().unwrap_err(), overflow);
            assert_eq!(crate::signature64(&t), Err(overflow.clone()));
            assert_eq!(crate::structural_key(&t), Err(overflow.clone()));
        }
    }

    #[test]
    fn empty_type_packs_nothing() {
        let c = Datatype::contiguous(0, int()).commit().unwrap();
        assert_eq!(c.pack_slice(&[], 0).unwrap(), Vec::<u8>::new());
        assert_eq!(c.size(), 0);
    }

    #[test]
    fn convertor_commit_same_bytes_described_blocks() {
        let t = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        let merged = t.commit().unwrap();
        let convertor = t.commit_convertor().unwrap();
        assert_eq!(merged.block_count(), 2);
        // Described blocks: (3 × int) and (1 × double) — 2 entries here too,
        // but packing runs through the convertor's per-block machinery.
        assert_eq!(convertor.block_count(), 2);
        let src: Vec<u8> = (0..240).map(|i| i as u8).collect();
        assert_eq!(
            merged.pack_slice(&src, 10).unwrap(),
            convertor.pack_slice(&src, 10).unwrap(),
            "identical packed bytes"
        );
    }

    #[test]
    fn convertor_keeps_described_entries_unmerged() {
        // d (at 16) and data (at 24) are memory-adjacent: the optimized
        // commit merges them, the convertor keeps the described entries.
        let t = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl()), (8, 24, int())]);
        assert_eq!(t.commit().unwrap().block_count(), 2);
        let c = t.commit_convertor().unwrap();
        assert_eq!(c.block_count(), 3, "3 described entries");
        assert_eq!(c.blocks()[2], (24, 32), "the int array is ONE block");
    }

    #[test]
    fn convertor_commit_keeps_contiguous_fast_path() {
        let t = Datatype::structure(vec![(2, 0, int()), (1, 8, dbl())]);
        let c = t.commit_convertor().unwrap();
        assert!(c.is_contiguous());
        assert_eq!(c.block_count(), 1);
    }

    #[test]
    fn signature64_agrees_across_commit_paths() {
        let t = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        let plan = t.commit().unwrap();
        let interp = t.commit_interpreted().unwrap();
        let conv = t.commit_convertor().unwrap();
        assert_ne!(plan.signature64(), 0);
        assert_eq!(plan.signature64(), interp.signature64());
        assert_eq!(plan.signature64(), conv.signature64());
        assert_eq!(
            plan.signature64(),
            crate::equivalence::signature64(&t).unwrap(),
            "commit stores the tree's digest verbatim"
        );
    }

    #[test]
    fn vector_pack_matches_manual_gather() {
        // 4 blocks of 2 ints with stride 3 → gather pattern.
        let t = Datatype::vector(4, 2, 3, int());
        let c = t.commit().unwrap();
        let ints: Vec<i32> = (0..12).collect();
        let bytes: &[u8] =
            unsafe { std::slice::from_raw_parts(ints.as_ptr() as *const u8, ints.len() * 4) };
        let packed = c.pack_slice(bytes, 1).unwrap();
        let vals: Vec<i32> = packed
            .chunks_exact(4)
            .map(|ch| i32::from_ne_bytes(ch.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![0, 1, 3, 4, 6, 7, 9, 10]);
    }
}
