//! Committed (flattened, optimized) datatypes.
//!
//! `MPI_Type_commit` gives implementations a chance to build an optimized
//! internal description. Ours walks the type tree once, run by run, and
//! hashes its structural signature in the same walk. `commit()` streams the
//! runs into the plan compiler ([`mod@crate::plan`]) and keeps only its ops;
//! the block engines (`commit_interpreted`, `commit_convertor`) keep
//! `(offset, len)` blocks and a packed-offset prefix table. Every engine is
//! *resumable*: any byte range of the packed stream can be produced
//! independently, which is what pipelined fragment protocols need.

// Audited unsafe: pack/unpack over caller-described memory; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::error::{DatatypeError, DatatypeResult};
use crate::plan::{PackPlan, PlanBuilder, PlanOp};
use crate::typ::{Datatype, Grain, Layout};

/// A committed datatype: its pack engine plus derived layout facts.
#[derive(Debug, Clone)]
pub struct Committed {
    /// Size, extent and lower bound.
    layout: Layout,
    /// Greatest `offset + len` over all runs (for bounds checking).
    max_end: isize,
    /// Stable 64-bit structural signature ([`crate::equivalence::key64`] of
    /// the type's structural key), computed once at commit time because the
    /// committed form does not retain the type tree. Never zero.
    sig64: u64,
    engine: Engine,
}

/// How a committed type packs.
#[derive(Debug, Clone)]
enum Engine {
    /// `commit()`: the compiled plan and the number of merged runs it was
    /// compiled from.
    Plan { plan: PackPlan, runs: usize },
    /// The block engines: `(offset, len)` blocks in pack order, `prefix[i]`
    /// = packed bytes before block `i`, and the convertor's per-block
    /// dispatch (a generalized engine's walk of its description stack).
    Blocks {
        blocks: Vec<(isize, usize)>,
        prefix: Vec<usize>,
        convertor: bool,
    },
}

impl Committed {
    /// Flatten and optimize `t`: its runs stream into the plan compiler
    /// ([`mod@crate::plan`]), which stores only strided-kernel ops.
    pub fn new(t: &Datatype) -> DatatypeResult<Self> {
        Self::commit(t, None, "dt.commit")
    }

    /// Flatten and optimize `t` like [`Self::new`], but skip pack-plan
    /// compilation: packing runs the interpreted merged-block engine.
    ///
    /// This is the pre-plan behavior, kept as the middle rung of the
    /// interpreted-vs-compiled ablation (`ablation_pack_plan`) and for
    /// byte-identity property tests.
    pub fn new_interpreted(t: &Datatype) -> DatatypeResult<Self> {
        Self::commit(t, Some(Grain::Runs), "dt.commit_interpreted")
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
        Self::commit(t, Some(Grain::Described), "dt.commit_convertor")
    }

    /// One walk of `t`, traced as `span_name`, into the plan compiler, or
    /// into a block list at `blocks` grain: runs merged when
    /// memory-adjacent at [`Grain::Runs`], one block per described entry
    /// otherwise (the convertor).
    fn commit(
        t: &Datatype,
        blocks: Option<Grain>,
        span_name: &'static str,
    ) -> DatatypeResult<Self> {
        let layout = t.layout()?;
        let _sp = mpicd_obs::span!(span_name, "datatype", layout.size);
        let (mut builder, mut list) = (PlanBuilder::default(), Vec::<(isize, usize)>::new());
        let mut span: Option<(isize, isize)> = None;
        let grain = blocks.unwrap_or(Grain::Runs);
        let sig64 = crate::equivalence::digest(t, &layout, grain, |p, off, n| {
            let len = n * p.size();
            let end = off + len as isize;
            span = Some(span.map_or((off, end), |(lo, hi)| (lo.min(off), hi.max(end))));
            match (blocks, list.last_mut()) {
                (None, _) => builder.push(off, len),
                // Merge runs that are adjacent in both memory and pack order.
                (Some(Grain::Runs), Some((o, l))) if *o + *l as isize == off => *l += len,
                _ => list.push((off, len)),
            }
        })?;
        // The distance between any two runs must fit too.
        let (lo, hi) = span.unwrap_or((0, 0));
        hi.checked_sub(lo).ok_or(DatatypeError::LayoutOverflow)?;
        let engine = match blocks {
            None => {
                let (plan, runs) = builder.finish(layout.size, layout.extent());
                Engine::Plan { plan, runs }
            }
            Some(grain) => Engine::blocks(list, grain == Grain::Described, &layout),
        };
        Ok(Self {
            layout,
            max_end: hi,
            sig64,
            engine,
        })
    }

    /// The compiled pack plan, when this commit went through the plan
    /// compiler (convertor and interpreted commits have none).
    pub fn plan(&self) -> Option<&PackPlan> {
        match &self.engine {
            Engine::Plan { plan, .. } => Some(plan),
            Engine::Blocks { .. } => None,
        }
    }

    /// Packed bytes per element.
    pub fn size(&self) -> usize {
        self.layout.size
    }

    /// Element-to-element spacing in memory.
    pub fn extent(&self) -> usize {
        self.layout.extent()
    }

    /// Lower bound in bytes.
    pub fn lb(&self) -> isize {
        self.layout.lb
    }

    /// The stable 64-bit structural signature of the committed type (see
    /// [`crate::equivalence::signature64`]). Identical across the plan,
    /// interpreted and convertor commit paths, and across processes, so
    /// the fabric can compare a sender's token against the posted
    /// receive's under `MPICD_TYPECHECK`.
    pub fn signature64(&self) -> u64 {
        self.sig64
    }

    /// Number of blocks per element: merged runs, or the convertor's
    /// described entries.
    pub fn block_count(&self) -> usize {
        match &self.engine {
            Engine::Plan { runs, .. } => *runs,
            Engine::Blocks { blocks, .. } => blocks.len(),
        }
    }

    /// A block engine's blocks per element, in pack order; `None` for a
    /// plan commit, which keeps only its ops.
    pub fn blocks(&self) -> Option<&[(isize, usize)]> {
        match &self.engine {
            Engine::Plan { .. } => None,
            Engine::Blocks { blocks, .. } => Some(blocks),
        }
    }

    /// True when the committed type is a single dense run starting at the
    /// base address whose length equals the extent. For such types an
    /// implementation can skip packing entirely and transfer the bytes
    /// directly — the Fig 6 (`struct-simple-no-gap`) fast path.
    pub fn is_contiguous(&self) -> bool {
        let at_base = match &self.engine {
            Engine::Plan { plan, .. } => matches!(plan.ops(), [] | [PlanOp::Contig { mem: 0, .. }]),
            Engine::Blocks { blocks, .. } => matches!(blocks[..], [] | [(0, _)]),
        };
        self.size() == self.extent() && self.lb() == 0 && at_base
    }

    /// Bytes of memory a buffer of `count` elements must provide past the
    /// base address for the safe slice API, or
    /// [`DatatypeError::CountOverflow`] when that exceeds `usize`.
    pub fn required_span(&self, count: usize) -> DatatypeResult<usize> {
        if count == 0 || self.size() == 0 {
            return Ok(0);
        }
        (count - 1)
            .checked_mul(self.extent())
            .and_then(|s| s.checked_add(self.max_end.max(0) as usize))
            .ok_or(DatatypeError::CountOverflow { count })
    }

    /// Packed bytes of `count` elements, or
    /// [`DatatypeError::CountOverflow`] when that exceeds `usize`.
    pub(crate) fn packed_len(&self, count: usize) -> DatatypeResult<usize> {
        self.size()
            .checked_mul(count)
            .ok_or(DatatypeError::CountOverflow { count })
    }

    /// A block engine's `(offset, len)` list for `count` consecutive
    /// elements, merged across element boundaries: the iov view of a derived
    /// datatype (cf. the MPICH iovec extraction extensions cited by the
    /// paper). `None` for a plan commit, which keeps no blocks.
    pub fn flatten_count(&self, count: usize) -> Option<Vec<(isize, usize)>> {
        let blocks = self.blocks()?;
        let mut out: Vec<(isize, usize)> = Vec::new();
        for elem in 0..count {
            let shift = (elem * self.extent()) as isize;
            for &(off, len) in blocks {
                match out.last_mut() {
                    Some((lo, ll)) if *lo + *ll as isize == off + shift => *ll += len,
                    _ => out.push((off + shift, len)),
                }
            }
        }
        Some(out)
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
        let (buf, len) = (dst.as_mut_ptr(), dst.len());
        self.run::<true>(base as *mut u8, count, packed_off, buf, len)
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
        self.run::<false>(base, count, packed_off, src.as_ptr() as *mut u8, src.len())
    }

    /// The engine behind both directions; `PACK` selects which.
    ///
    /// # Safety
    /// As [`Self::pack_segment`] or [`Self::unpack_segment`] over `buf_len`
    /// bytes at `buf`, which packing only writes: they may be uninitialized.
    unsafe fn run<const PACK: bool>(
        &self,
        base: *mut u8,
        count: usize,
        packed_off: usize,
        buf: *mut u8,
        buf_len: usize,
    ) -> usize {
        let (blocks, prefix, convertor) = match &self.engine {
            Engine::Plan { plan, .. } => {
                return plan.run::<PACK>(base, count, packed_off, buf, buf_len)
            }
            Engine::Blocks {
                blocks,
                prefix,
                convertor,
            } => (blocks, prefix, *convertor),
        };
        let (size, extent) = (self.size(), self.extent());
        if size == 0 || count == 0 || packed_off >= size * count {
            return 0;
        }
        let mut op = |mem: isize, seg: usize, n: usize| {
            let (mem, seg) = (base.offset(mem), buf.add(seg));
            let (src, dst) = if PACK { (mem, seg) } else { (seg, mem) };
            std::ptr::copy_nonoverlapping(src, dst, n);
        };
        let mut elem = packed_off / size;
        let mut within = packed_off % size;
        // Locate the entry block once; after that the walk is sequential
        // (real convertors keep a position stack for exactly this reason).
        let mut bi = match prefix.binary_search(&within) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let mut done = 0usize;
        while elem < count && done < buf_len {
            let skip = within - prefix[bi];
            let (off, len) = blocks[bi];
            let avail = len - skip;
            let n = avail.min(buf_len - done);
            let mem_off = (elem * extent) as isize + off + skip as isize;
            if convertor {
                convertor_step(&mut op, mem_off, done, n);
            } else {
                op(mem_off, done, n);
            }
            done += n;
            within += n;
            if n == avail {
                bi += 1;
            }
            if within == size {
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
        if self.lb() < 0 {
            return Err(DatatypeError::NegativeLowerBound { lb: self.lb() });
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
        let len = self.packed_len(count)?;
        let mut out = Vec::with_capacity(len);
        // SAFETY: bounds checked above; the engine writes the `len` bytes
        // of `out`'s spare capacity without reading them.
        let n =
            unsafe { self.run::<true>(src.as_ptr() as *mut u8, count, 0, out.as_mut_ptr(), len) };
        assert_eq!(n, len, "the engine packs the whole stream");
        // SAFETY: the engine initialized all `len` bytes.
        unsafe { out.set_len(len) };
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

impl Engine {
    /// A block engine over `blocks`. A convertor whose described blocks
    /// run back to back from 0 to the extent collapses to one memcpy.
    fn blocks(mut blocks: Vec<(isize, usize)>, convertor: bool, layout: &Layout) -> Self {
        let mut end = 0;
        let mut back_to_back = blocks
            .iter()
            .map(|&(off, len)| std::mem::replace(&mut end, off + len as isize) == off);
        let dense = convertor && layout.size == layout.extent() && layout.lb == 0;
        let dense = dense && back_to_back.all(|adjacent| adjacent);
        if dense {
            blocks.truncate(1);
            blocks.iter_mut().for_each(|block| block.1 = layout.size);
        }
        debug_assert_eq!(blocks.iter().map(|b| b.1).sum::<usize>(), layout.size);
        let mut packed = 0;
        let prefix = blocks.iter().map(|&(_, len)| {
            packed += len;
            packed - len
        });
        let prefix = prefix.collect();
        Engine::Blocks {
            blocks,
            prefix,
            convertor: convertor && !dense,
        }
    }
}

/// The convertor's per-block step: an uninlined dynamic dispatch,
/// emulating the description-stack walk and indirect memcpy call of a
/// generalized convertor.
#[inline(never)]
fn convertor_step(op: &mut dyn FnMut(isize, usize, usize), mem: isize, seg: usize, n: usize) {
    op(mem, seg, n);
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

    /// The merged blocks of `t`, from the interpreted engine (a plan
    /// commit keeps none).
    fn blocks(t: &Datatype) -> Vec<(isize, usize)> {
        t.commit_interpreted().unwrap().blocks().unwrap().to_vec()
    }

    #[test]
    fn merge_adjacent_runs() {
        let c = struct_simple();
        let t = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        assert_eq!(blocks(&t), [(0, 12), (16, 8)]);
        assert_eq!(c.blocks(), None, "a plan commit keeps only its ops");
        assert_eq!(c.block_count(), 2);
        assert_eq!(c.size(), 20);
        assert_eq!(c.extent(), 24);
        assert!(!c.is_contiguous());
    }

    #[test]
    fn no_gap_struct_is_contiguous() {
        let t = Datatype::structure(vec![(2, 0, int()), (1, 8, dbl())]);
        let c = t.commit().unwrap();
        assert!(c.is_contiguous());
        assert!(t.commit_interpreted().unwrap().is_contiguous());
        assert_eq!(blocks(&t), [(0, 16)]);
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
        let c = Datatype::contiguous(4, int()).commit_interpreted().unwrap();
        assert_eq!(c.flatten_count(3).unwrap(), vec![(0, 48)]);
        // Gapped struct: element 0's trailing run (16..24) is memory-adjacent
        // to element 1's leading run (24..36), so those merge; the gaps at
        // 12..16 and 36..40 split the rest.
        let t = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        let flat = t.commit_interpreted().unwrap().flatten_count(2);
        assert_eq!(flat.unwrap(), vec![(0, 12), (16, 20), (40, 8)]);
        assert_eq!(
            struct_simple().flatten_count(2),
            None,
            "a plan keeps no blocks"
        );
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
        assert_eq!(blocks(&t), [(0, 1 << 40)]);
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
        assert_eq!(conv.blocks(), Some(&blocks(&t)[..]));
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
        assert_eq!(
            c.blocks().unwrap()[2],
            (24, 32),
            "the int array is ONE block"
        );
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
