//! Resumable nested-loop packing — the Rust answer to the paper's C++
//! coroutine experiment (§V-C, Listing 9).
//!
//! Fragment-granular packing must be able to *suspend in the middle of a
//! loop nest* and resume in a later callback. The paper prototypes this
//! with `std::generator`; here we provide two equivalent mechanisms:
//!
//! * [`LoopNest`] — a declarative description of a rectangular loop nest
//!   (per-dimension trip counts and byte strides over a contiguous run).
//!   Because every run has the same length, a packed offset maps onto loop
//!   indices by mixed-radix decomposition, giving *random access*: any
//!   fragment can be produced or consumed independently, in any order.
//! * [`SuspendableCursor`] — keeps the packed position it stopped at and
//!   resumes there in the next call, even mid-run. This is the literal
//!   translation of Listing 9's suspended coroutine, and is what the
//!   DDTBench manual packers use for their 2–5-deep nests. Its loop indices
//!   are observable state only, derived from that position on request.
//!
//! [`RunList`] covers the irregular case (an explicit list of equal-length
//! runs, DDTBench's LAMMPS gather). Every traversal — cursor, segment,
//! run enumeration, run list — goes through one run walker. Each call
//! re-derives its position from the packed offset with a few div/mod
//! chains (the start run, and each run cut by an end of the range); in
//! between it loops over the innermost dimension with its stride hoisted,
//! carries outward only at a row's end, and moves an 8-byte run as one
//! unaligned load and store. Down a long stride it prefetches by the plan
//! kernels' rule ([`mpicd_obs::prefetch`]).

// Audited unsafe: offset-addressed cursors over raw memory; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::error::{Error, Result};
use mpicd_obs::{prefetch, Counter};
use std::sync::{Arc, OnceLock};

/// Process-global counters for the suspendable cursor — how many
/// fragment-granular pack/unpack calls the Listing 9 analogue served, and
/// how many of them *suspended mid-nest* (fragment boundary fell inside the
/// loop nest) rather than finishing the traversal. Plain relaxed counters,
/// always on; they surface in `mpicd_obs::export::summary()` and the
/// `MPICD_METRICS_JSON` snapshot.
struct CursorMetrics {
    pack_calls: Arc<Counter>,
    unpack_calls: Arc<Counter>,
    suspensions: Arc<Counter>,
}

fn cursor_metrics() -> &'static CursorMetrics {
    static METRICS: OnceLock<CursorMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = mpicd_obs::global();
        CursorMetrics {
            pack_calls: g.counter("core.cursor.pack_calls"),
            unpack_calls: g.counter("core.cursor.unpack_calls"),
            suspensions: g.counter("core.cursor.suspensions"),
        }
    })
}

/// A rectangular loop nest over contiguous runs of bytes.
///
/// Iteration is lexicographic over `dims` (outermost first); the run at
/// indices `i₀, i₁, …` starts at byte `Σ iₖ · strides[k]` from the base and
/// is `run_len` bytes long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    dims: Vec<usize>,
    strides: Vec<isize>,
    run_len: usize,
    /// `suffix[d]` = product of `dims[d+1..]` — how many runs one step of
    /// dimension `d` spans. Precomputed at construction so a flat run index
    /// decomposes with one div/mod chain.
    suffix: Vec<usize>,
    /// Product of `dims`.
    runs: usize,
    /// `runs · run_len`.
    packed: usize,
    /// `(min start, max end)` byte offsets over all runs.
    span: (isize, isize),
}

impl LoopNest {
    /// Describe a loop nest. `dims` and `strides` must have equal length,
    /// and the run count, packed size and byte span must fit their types.
    pub fn new(dims: Vec<usize>, strides: Vec<isize>, run_len: usize) -> Result<Self> {
        const OVERFLOW: Error = Error::Unsupported("loop nest extent overflows");
        if dims.len() != strides.len() {
            return Err(Error::Unsupported("dims/strides length mismatch"));
        }
        let runs = dims
            .iter()
            .try_fold(1usize, |acc, &n| acc.checked_mul(n))
            .ok_or(OVERFLOW)?;
        let packed = runs.checked_mul(run_len).ok_or(OVERFLOW)?;
        let mut span = (0isize, 0isize);
        if packed > 0 {
            for (&n, &s) in dims.iter().zip(&strides) {
                let reach = isize::try_from(n - 1)
                    .ok()
                    .and_then(|k| k.checked_mul(s))
                    .ok_or(OVERFLOW)?;
                let side = if reach < 0 { &mut span.0 } else { &mut span.1 };
                *side = side.checked_add(reach).ok_or(OVERFLOW)?;
            }
            span.1 = isize::try_from(run_len)
                .ok()
                .and_then(|len| span.1.checked_add(len))
                .ok_or(OVERFLOW)?;
        }
        // Each suffix product is at most `runs` unless an outer dimension
        // is zero, and then no run is ever decomposed.
        let mut suffix = vec![1usize; dims.len()];
        for d in (0..dims.len().saturating_sub(1)).rev() {
            suffix[d] = suffix[d + 1].saturating_mul(dims[d + 1]);
        }
        Ok(Self {
            dims,
            strides,
            run_len,
            suffix,
            runs,
            packed,
            span,
        })
    }

    /// Total number of contiguous runs.
    pub fn total_runs(&self) -> usize {
        self.runs
    }

    /// Total packed bytes.
    pub fn packed_size(&self) -> usize {
        self.packed
    }

    /// Number of dimensions.
    pub fn depth(&self) -> usize {
        self.dims.len()
    }

    /// Length of one contiguous run in bytes.
    pub fn run_len(&self) -> usize {
        self.run_len
    }

    /// Per-dimension trip counts (outermost first).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Per-dimension byte strides (outermost first).
    pub fn strides(&self) -> &[isize] {
        &self.strides
    }

    /// Byte offset (from base) of run `run` (mixed-radix decomposition of
    /// the flat run index, using the precomputed suffix products).
    pub fn offset_of_run(&self, mut run: usize) -> isize {
        let mut off = 0isize;
        for d in 0..self.dims.len() {
            let idx = (run / self.suffix[d]) % self.dims[d];
            run %= self.suffix[d];
            off += idx as isize * self.strides[d];
        }
        off
    }

    /// `(min, max)` byte offsets touched, for bounds checking: min start and
    /// max end over all runs.
    pub fn span(&self) -> (isize, isize) {
        self.span
    }

    /// Enumerates runs `first..first + count` (clamped to the nest) in
    /// pack order, a row at a time: `f(start, n, stride)` stands for `n`
    /// runs along the innermost dimension, the first at byte `start` and
    /// each `stride` bytes after the one before. Division-free after the
    /// start index is decomposed.
    pub fn for_each_row(&self, first: usize, count: usize, mut f: impl FnMut(isize, usize, isize)) {
        let mut left = count.min(self.runs.saturating_sub(first));
        if left == 0 {
            return;
        }
        match self.dims.len() {
            0 => f(0, 1, 0),
            1 => f(first as isize * self.strides[0], left, self.strides[0]),
            _ => {
                self.walk(0, 0, first, &mut left, &mut f);
            }
        }
    }

    /// Visits the rows under dimension `d` (any but the innermost) from
    /// flat index `first` within that sub-nest, whose first run starts at
    /// byte `mem`. Returns `false` once `left` has counted down to zero.
    fn walk(
        &self,
        d: usize,
        mut mem: isize,
        first: usize,
        left: &mut usize,
        f: &mut impl FnMut(isize, usize, isize),
    ) -> bool {
        let (n, stride, sub) = (self.dims[d], self.strides[d], self.suffix[d]);
        let (mut i, mut inner) = match first {
            0 => (0, 0),
            _ => (first / sub, first % sub),
        };
        mem += i as isize * stride;
        let rows = d + 2 == self.dims.len();
        while i < n {
            if rows {
                // One step of `d` is one row of `sub` runs.
                let row_stride = self.strides[d + 1];
                let k = (sub - inner).min(*left);
                f(mem + inner as isize * row_stride, k, row_stride);
                *left -= k;
                if *left == 0 {
                    return false;
                }
            } else if !self.walk(d + 1, mem, inner, left, f) {
                return false;
            }
            inner = 0;
            i += 1;
            // The step past the last index is never used and may leave
            // the span.
            mem = mem.wrapping_add(stride);
        }
        true
    }

    /// Produce packed bytes `[offset, offset + dst.len())`.
    ///
    /// # Safety
    /// `base` must be valid for reads over the nest's whole [`Self::span`].
    pub unsafe fn pack_segment(&self, base: *const u8, offset: usize, dst: &mut [u8]) -> usize {
        move_runs::<_, true>(self, base.cast_mut(), offset, dst.as_mut_ptr(), dst.len())
    }

    /// Consume packed bytes `[offset, offset + src.len())`.
    ///
    /// # Safety
    /// `base` must be valid for writes over the nest's whole [`Self::span`].
    pub unsafe fn unpack_segment(&self, base: *mut u8, offset: usize, src: &[u8]) -> usize {
        move_runs::<_, false>(self, base, offset, src.as_ptr().cast_mut(), src.len())
    }

    /// Safe full pack: bounds-checked against `src`.
    pub fn pack_slice(&self, src: &[u8]) -> Result<Vec<u8>> {
        self.check_bounds(src.len())?;
        let mut out = vec![0u8; self.packed_size()];
        // SAFETY: bounds checked.
        let n = unsafe { self.pack_segment(src.as_ptr(), 0, &mut out) };
        debug_assert_eq!(n, out.len());
        Ok(out)
    }

    /// Safe full unpack: bounds-checked against `dst`.
    pub fn unpack_slice(&self, packed: &[u8], dst: &mut [u8]) -> Result<()> {
        self.check_bounds(dst.len())?;
        if packed.len() < self.packed_size() {
            return Err(Error::InvalidHeader("packed stream shorter than nest"));
        }
        // SAFETY: bounds checked.
        unsafe { self.unpack_segment(dst.as_mut_ptr(), 0, packed) };
        Ok(())
    }

    fn check_bounds(&self, region: usize) -> Result<()> {
        let (min, max) = self.span();
        if min < 0 {
            return Err(Error::Unsupported(
                "negative offsets need the raw (unsafe) API",
            ));
        }
        if max as usize > region {
            return Err(Error::LengthMismatch {
                expected: max as usize,
                got: region,
            });
        }
        Ok(())
    }

    /// Begin a suspendable traversal (Listing 9 analogue).
    pub fn cursor(&self) -> SuspendableCursor<'_> {
        SuspendableCursor {
            nest: self,
            offset: 0,
        }
    }
}

/// An explicit list of equal-length runs in pack order — an irregular
/// index gather such as DDTBench's LAMMPS exchange — moved by the same run
/// walker as a [`LoopNest`]. Any packed offset is addressable.
#[derive(Debug, Clone, Copy)]
pub struct RunList<'a> {
    offsets: &'a [isize],
    run_len: usize,
}

impl<'a> RunList<'a> {
    /// `offsets.len()` runs of `run_len` bytes, run `i` at byte
    /// `offsets[i]` from the base.
    pub fn new(offsets: &'a [isize], run_len: usize) -> Self {
        Self { offsets, run_len }
    }

    /// Total packed bytes.
    pub fn packed_size(&self) -> usize {
        self.offsets.len() * self.run_len
    }

    /// Produce packed bytes `[offset, offset + dst.len())`.
    ///
    /// # Safety
    /// `base` must be valid for reads over every run.
    pub unsafe fn pack_segment(&self, base: *const u8, offset: usize, dst: &mut [u8]) -> usize {
        move_runs::<_, true>(self, base.cast_mut(), offset, dst.as_mut_ptr(), dst.len())
    }

    /// Consume packed bytes `[offset, offset + src.len())`.
    ///
    /// # Safety
    /// `base` must be valid for writes over every run.
    pub unsafe fn unpack_segment(&self, base: *mut u8, offset: usize, src: &[u8]) -> usize {
        move_runs::<_, false>(self, base, offset, src.as_ptr().cast_mut(), src.len())
    }
}

/// Equal-length runs in pack order, addressable by index: what
/// [`move_runs`] walks.
trait RunSource {
    fn run_len(&self) -> usize;
    fn packed_size(&self) -> usize;
    fn offset_of(&self, run: usize) -> isize;
    /// Calls `copy(run start, packed position)` for runs `first..first +
    /// count`, whose packed bytes start at `buf`.
    ///
    /// # Safety
    /// The runs must lie inside the allocation `base` points into, and
    /// `buf` must have room for `count` runs.
    unsafe fn each_run(
        &self,
        base: *mut u8,
        first: usize,
        count: usize,
        buf: *mut u8,
        copy: impl Fn(*mut u8, *mut u8) + Copy,
    );
}

impl RunSource for LoopNest {
    fn run_len(&self) -> usize {
        self.run_len
    }
    fn packed_size(&self) -> usize {
        self.packed
    }
    fn offset_of(&self, run: usize) -> isize {
        self.offset_of_run(run)
    }
    #[inline]
    unsafe fn each_run(
        &self,
        base: *mut u8,
        first: usize,
        count: usize,
        buf: *mut u8,
        copy: impl Fn(*mut u8, *mut u8) + Copy,
    ) {
        let step = self.run_len;
        let mut at = buf;
        self.for_each_row(first, count, |start, n, stride| {
            // Locals, so the row loop runs in registers.
            let (copy, step, mut mem, mut p) = (copy, step, base.offset(start), at);
            // The plan kernels' rule: long strides prefetch the run
            // `AHEAD` steps on (a hint, so past the row end is fine).
            let pf = stride.unsigned_abs() >= prefetch::MIN_STRIDE;
            let ahead = stride * prefetch::AHEAD as isize;
            for _ in 0..n {
                if pf {
                    prefetch::line(mem.wrapping_offset(ahead));
                }
                copy(mem, p);
                mem = mem.wrapping_offset(stride);
                p = p.add(step);
            }
            at = p;
        });
    }
}

impl RunSource for RunList<'_> {
    fn run_len(&self) -> usize {
        self.run_len
    }
    fn packed_size(&self) -> usize {
        RunList::packed_size(self)
    }
    fn offset_of(&self, run: usize) -> isize {
        self.offsets[run]
    }
    #[inline]
    unsafe fn each_run(
        &self,
        base: *mut u8,
        first: usize,
        count: usize,
        buf: *mut u8,
        copy: impl Fn(*mut u8, *mut u8) + Copy,
    ) {
        let mut p = buf;
        for &off in &self.offsets[first..first + count] {
            copy(base.offset(off), p);
            p = p.add(self.run_len);
        }
    }
}

/// Copies `n` bytes from memory at `mem` to the packed buffer at `buf`
/// when `PACK`, the other way otherwise. A constant `n` (the 8-byte arm of
/// [`move_runs`]) compiles to one unaligned load and store, not a `memcpy`
/// call.
#[inline(always)]
unsafe fn copy<const PACK: bool>(mem: *mut u8, buf: *mut u8, n: usize) {
    let (src, dst) = if PACK { (mem, buf) } else { (buf, mem) };
    std::ptr::copy_nonoverlapping(src, dst, n);
}

/// The run walker: moves packed bytes `[offset, offset + len)` (clamped to
/// the stream's end) between memory at `base` and the packed buffer `buf`,
/// out of memory when `PACK`, and returns the bytes moved. A run cut by either end
/// of the range is located with `offset_of` and copied alone; the whole
/// runs between go through one `each_run`.
///
/// # Safety
/// `base` must be valid over every run for reads when `PACK`, for writes
/// otherwise; `buf` must be valid for `len` bytes of the other access and
/// must not overlap those runs.
unsafe fn move_runs<R: RunSource, const PACK: bool>(
    runs: &R,
    base: *mut u8,
    offset: usize,
    buf: *mut u8,
    len: usize,
) -> usize {
    let (run_len, total) = (runs.run_len(), runs.packed_size());
    if offset >= total {
        return 0;
    }
    let len = len.min(total - offset);
    let (mut run, within) = (offset / run_len, offset % run_len);
    let mut done = 0;
    if within != 0 {
        done = (run_len - within).min(len);
        let cut = base.offset(runs.offset_of(run) + within as isize);
        copy::<PACK>(cut, buf, done);
        run += 1;
    }
    let whole = (len - done) / run_len;
    let at = buf.add(done);
    match run_len {
        8 => runs.each_run(base, run, whole, at, |m, b| copy::<PACK>(m, b, 8)),
        _ => runs.each_run(base, run, whole, at, move |m, b| {
            copy::<PACK>(m, b, run_len)
        }),
    }
    done += whole * run_len;
    if done < len {
        let last = base.offset(runs.offset_of(run + whole));
        copy::<PACK>(last, buf.add(done), len - done);
    }
    len
}

/// Resumable traversal of a [`LoopNest`] — suspend anywhere (even mid-run)
/// and resume where it stopped.
///
/// This is the coroutine replacement: where Listing 9 does `co_yield` inside
/// the `m`-loop and later resumes, the cursor stores its packed position in
/// `self` and each [`Self::pack_into`] call continues the same traversal.
pub struct SuspendableCursor<'a> {
    nest: &'a LoopNest,
    /// Packed bytes already moved.
    offset: usize,
}

impl SuspendableCursor<'_> {
    /// Has the traversal emitted every byte?
    pub fn is_finished(&self) -> bool {
        self.offset >= self.nest.packed
    }

    /// Current loop indices (outermost first) — observable suspension
    /// state: the indices of the run holding the next packed byte, all zero
    /// once finished. Derived from the packed position on each call.
    pub fn indices(&self) -> Vec<usize> {
        let nest = self.nest;
        if self.is_finished() {
            return vec![0; nest.depth()];
        }
        let mut run = self.offset / nest.run_len;
        nest.suffix
            .iter()
            .map(|&sub| {
                let i = run / sub;
                run %= sub;
                i
            })
            .collect()
    }

    /// Pack as many bytes as fit into `dst`, suspending mid-nest when the
    /// fragment fills. Returns bytes written.
    ///
    /// # Safety
    /// `base` must be valid for reads over the nest's whole span.
    pub unsafe fn pack_into(&mut self, base: *const u8, dst: &mut [u8]) -> usize {
        cursor_metrics().pack_calls.inc();
        let n = self.nest.pack_segment(base, self.offset, dst);
        self.advance(n);
        n
    }

    /// Unpack as many bytes as `src` provides, suspending mid-nest.
    ///
    /// # Safety
    /// `base` must be valid for writes over the nest's whole span.
    pub unsafe fn unpack_from(&mut self, base: *mut u8, src: &[u8]) -> usize {
        cursor_metrics().unpack_calls.inc();
        let n = self.nest.unpack_segment(base, self.offset, src);
        self.advance(n);
        n
    }

    /// Move past `n` packed bytes, counting a suspension if any are left.
    fn advance(&mut self, n: usize) {
        self.offset += n;
        if !self.is_finished() {
            cursor_metrics().suspensions.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NAS_LU_y-like pattern: pack a column slab out of a 2-D array.
    /// dims = [DIM3-1, DIM1], run = one f64.
    fn lu_y_nest(dim1: usize, dim3: usize) -> LoopNest {
        LoopNest::new(vec![dim3 - 1, dim1], vec![(dim1 * 8) as isize, 8], 8).unwrap()
    }

    #[test]
    fn packed_size_and_span() {
        let nest = lu_y_nest(10, 5);
        assert_eq!(nest.total_runs(), 40);
        assert_eq!(nest.packed_size(), 320);
        let (min, max) = nest.span();
        assert_eq!(min, 0);
        assert_eq!(max, (3 * 80 + 9 * 8 + 8) as isize);
    }

    #[test]
    fn offset_of_run_mixed_radix() {
        let nest = LoopNest::new(vec![2, 3], vec![100, 10], 4).unwrap();
        assert_eq!(nest.offset_of_run(0), 0);
        assert_eq!(nest.offset_of_run(1), 10);
        assert_eq!(nest.offset_of_run(2), 20);
        assert_eq!(nest.offset_of_run(3), 100);
        assert_eq!(nest.offset_of_run(5), 120);
    }

    /// The naive per-call decomposition `offset_of_run` used before the
    /// suffix products were hoisted to construction time.
    fn naive_offset_of_run(nest: &LoopNest, mut run: usize) -> isize {
        let mut off = 0isize;
        for d in (0..nest.dims().len()).rev() {
            let idx = run % nest.dims()[d];
            run /= nest.dims()[d];
            off += idx as isize * nest.strides()[d];
        }
        off
    }

    #[test]
    fn suffix_products_match_naive_decomposition() {
        for nest in [
            LoopNest::new(vec![2, 3], vec![100, 10], 4).unwrap(),
            LoopNest::new(vec![5, 4, 3, 2], vec![-700, 130, -17, 8], 3).unwrap(),
            LoopNest::new(vec![7], vec![32], 16).unwrap(),
            LoopNest::new(Vec::new(), Vec::new(), 8).unwrap(),
        ] {
            for run in 0..nest.total_runs() {
                assert_eq!(
                    nest.offset_of_run(run),
                    naive_offset_of_run(&nest, run),
                    "dims {:?} run {run}",
                    nest.dims()
                );
            }
        }
    }

    #[test]
    fn pack_slice_gathers_strided_runs() {
        let nest = LoopNest::new(vec![3], vec![8], 4).unwrap(); // every other 4 bytes
        let src: Vec<u8> = (0..24).collect();
        let packed = nest.pack_slice(&src).unwrap();
        assert_eq!(packed, vec![0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19]);
    }

    #[test]
    fn unpack_inverts_pack() {
        let nest = lu_y_nest(7, 4);
        let (_, max) = nest.span();
        let src: Vec<u8> = (0..max as usize).map(|i| (i % 251) as u8).collect();
        let packed = nest.pack_slice(&src).unwrap();
        let mut dst = vec![0u8; max as usize];
        nest.unpack_slice(&packed, &mut dst).unwrap();
        let repacked = nest.pack_slice(&dst).unwrap();
        assert_eq!(repacked, packed);
    }

    #[test]
    fn segments_agree_with_full_pack_any_granularity() {
        let nest = lu_y_nest(13, 6);
        let (_, max) = nest.span();
        let src: Vec<u8> = (0..max as usize).map(|i| (i * 7 % 256) as u8).collect();
        let full = nest.pack_slice(&src).unwrap();
        for frag in [1usize, 3, 8, 17, 64, 1000] {
            let mut acc = Vec::new();
            let mut off = 0;
            loop {
                let mut buf = vec![0u8; frag];
                let n = unsafe { nest.pack_segment(src.as_ptr(), off, &mut buf) };
                if n == 0 {
                    break;
                }
                acc.extend_from_slice(&buf[..n]);
                off += n;
            }
            assert_eq!(acc, full, "fragment size {frag}");
        }
    }

    #[test]
    fn cursor_suspends_mid_run_and_matches_offset_api() {
        let nest = lu_y_nest(9, 5);
        let (_, max) = nest.span();
        let src: Vec<u8> = (0..max as usize).map(|i| (i * 3 % 256) as u8).collect();
        let full = nest.pack_slice(&src).unwrap();

        let mut cur = nest.cursor();
        let mut acc = Vec::new();
        // Fragment sizes chosen to split runs (run_len = 8) awkwardly.
        for frag in [5usize, 3, 11, 7].iter().cycle() {
            if cur.is_finished() {
                break;
            }
            let mut buf = vec![0u8; *frag];
            let n = unsafe { cur.pack_into(src.as_ptr(), &mut buf) };
            acc.extend_from_slice(&buf[..n]);
        }
        assert_eq!(acc, full);
        assert!(cur.is_finished());
    }

    #[test]
    fn cursor_unpack_reconstructs() {
        let nest = LoopNest::new(vec![4, 3], vec![48, 16], 8).unwrap();
        let (_, max) = nest.span();
        let src: Vec<u8> = (0..max as usize).map(|i| (255 - i % 256) as u8).collect();
        let packed = nest.pack_slice(&src).unwrap();

        let mut dst = vec![0u8; max as usize];
        let mut cur = nest.cursor();
        let mut at = 0usize;
        for frag in [9usize, 1, 30, 100] {
            if cur.is_finished() {
                break;
            }
            let take = frag.min(packed.len() - at);
            let n = unsafe { cur.unpack_from(dst.as_mut_ptr(), &packed[at..at + take]) };
            at += n;
        }
        assert_eq!(nest.pack_slice(&dst).unwrap(), packed);
    }

    #[test]
    fn cursor_indices_visible_at_suspension() {
        let nest = LoopNest::new(vec![2, 4], vec![64, 16], 16).unwrap();
        let src = vec![1u8; 256];
        let mut cur = nest.cursor();
        // Consume exactly 3 runs (48 bytes): indices should sit at [0, 3].
        let mut buf = vec![0u8; 48];
        unsafe { cur.pack_into(src.as_ptr(), &mut buf) };
        assert_eq!(cur.indices(), [0, 3]);
    }

    #[test]
    fn cursor_counters_track_calls_and_suspensions() {
        let nest = LoopNest::new(vec![2, 4], vec![64, 16], 16).unwrap();
        let src = vec![1u8; 256];
        let m = cursor_metrics();
        let (calls0, susp0) = (m.pack_calls.get(), m.suspensions.get());
        let mut cur = nest.cursor();
        // Two partial fragments (suspended mid-nest), then the remainder.
        let mut buf = vec![0u8; 48];
        unsafe { cur.pack_into(src.as_ptr(), &mut buf) };
        unsafe { cur.pack_into(src.as_ptr(), &mut buf) };
        let mut rest = vec![0u8; 128];
        unsafe { cur.pack_into(src.as_ptr(), &mut rest) };
        assert!(cur.is_finished());
        // Other tests exercise cursors concurrently, so the deltas are lower
        // bounds on the process-global counters.
        assert!(m.pack_calls.get() - calls0 >= 3);
        assert!(m.suspensions.get() - susp0 >= 2);
    }

    #[test]
    fn bounds_rejected_for_short_regions() {
        let nest = LoopNest::new(vec![4], vec![16], 8).unwrap();
        let short = vec![0u8; 40]; // needs 3*16+8 = 56
        assert!(nest.pack_slice(&short).is_err());
    }

    #[test]
    fn mismatched_dims_rejected() {
        assert!(LoopNest::new(vec![2, 3], vec![10], 4).is_err());
    }

    #[test]
    fn extent_overflow_rejected_at_construction() {
        // The span of this nest is 2^64 + 8 bytes: it used to wrap to
        // (0, 8) while packed_size() was 128, so pack_slice on an 8-byte
        // source wrote far out of bounds.
        let err = LoopNest::new(vec![2; 4], vec![1 << 62; 4], 8).unwrap_err();
        assert_eq!(err, Error::Unsupported("loop nest extent overflows"));
        assert!(LoopNest::new(vec![1 << 40; 2], vec![8, 8], 1 << 30).is_err());
        assert!(LoopNest::new(vec![usize::MAX, 2], vec![1, 1], 1).is_err());
        assert!(LoopNest::new(vec![3], vec![isize::MIN / 2 - 1], 1).is_err());
        // Largest reaches that still fit are accepted and bounds-checked.
        let edge = LoopNest::new(vec![2], vec![isize::MAX - 8], 8).unwrap();
        assert_eq!(edge.span(), (0, isize::MAX));
        assert!(matches!(
            edge.pack_slice(&[0u8; 8]),
            Err(Error::LengthMismatch { .. })
        ));
    }

    use mpicd_obs::rng::XorShift64Star;

    const RUN_LENS: [usize; 8] = [1, 3, 4, 8, 12, 16, 24, 40];

    /// A random nest of depth 0–5 with strides of either sign (runs may
    /// overlap), plus a zeroed buffer covering its span and the offset of
    /// the nest's base within that buffer.
    fn random_nest(rng: &mut XorShift64Star) -> (LoopNest, Vec<u8>, usize) {
        let depth = rng.range(0, 6);
        let run_len = RUN_LENS[rng.range(0, RUN_LENS.len())];
        let dims: Vec<usize> = (0..depth).map(|_| rng.range(1, 5)).collect();
        let strides: Vec<isize> = (0..depth)
            .map(|_| {
                let s = rng.range(0, 4 * run_len + 9) as isize;
                if rng.chance(1, 3) {
                    -s
                } else {
                    s
                }
            })
            .collect();
        let nest = LoopNest::new(dims, strides, run_len).unwrap();
        let (min, max) = nest.span();
        (nest, vec![0u8; (max - min) as usize], (-min) as usize)
    }

    /// Memory offset of packed byte `p`, built on `offset_of_run` alone.
    fn mem_of_byte(nest: &LoopNest, p: usize) -> usize {
        (nest.offset_of_run(p / nest.run_len()) + (p % nest.run_len()) as isize) as usize
    }

    /// Per-byte reference pack of `[offset, offset + len)`.
    fn reference_pack(
        nest: &LoopNest,
        mem: &[u8],
        base: usize,
        offset: usize,
        len: usize,
    ) -> Vec<u8> {
        (offset..(offset + len).min(nest.packed_size()))
            .map(|p| mem[base.wrapping_add(mem_of_byte(nest, p))])
            .collect()
    }

    /// Per-byte reference unpack of `src` at packed `offset`, in pack order.
    fn reference_unpack(nest: &LoopNest, mem: &mut [u8], base: usize, offset: usize, src: &[u8]) {
        for (i, b) in src
            .iter()
            .enumerate()
            .take(nest.packed_size().saturating_sub(offset))
        {
            mem[base.wrapping_add(mem_of_byte(nest, offset + i))] = *b;
        }
    }

    #[test]
    fn walker_matches_per_run_reference() {
        let mut rng = XorShift64Star::new(0x5EED_0021);
        for case in 0..400 {
            let (nest, mut mem, base) = random_nest(&mut rng);
            rng.fill_bytes(&mut mem);
            let total = nest.packed_size();
            let what = format!("case {case}: {nest:?}");

            // Run enumeration equals the offset_of_run sequence.
            let first = rng.range(0, nest.total_runs() + 2);
            let count = rng.range(0, nest.total_runs() + 3);
            let mut seen = Vec::new();
            nest.for_each_row(first, count, |start, n, stride| {
                seen.extend((0..n as isize).map(|i| start + i * stride))
            });
            let expect: Vec<isize> = (first..(first + count).min(nest.total_runs()))
                .map(|r| nest.offset_of_run(r))
                .collect();
            assert_eq!(seen, expect, "runs {first}+{count}, {what}");

            // Random (offset, len) segments, both directions.
            for _ in 0..8 {
                let offset = rng.range(0, total + 2);
                let len = rng.range(0, total + 2);
                let mut dst = vec![0u8; len];
                // SAFETY: `mem` covers the span around `base`.
                let n = unsafe { nest.pack_segment(mem.as_ptr().add(base), offset, &mut dst) };
                let want = reference_pack(&nest, &mem, base, offset, len);
                assert_eq!(&dst[..n], &want[..], "pack {offset}+{len}, {what}");

                let src = rng.bytes(len);
                let mut got = mem.clone();
                let mut expect = mem.clone();
                // SAFETY: as above.
                let n = unsafe { nest.unpack_segment(got.as_mut_ptr().add(base), offset, &src) };
                reference_unpack(&nest, &mut expect, base, offset, &src);
                assert_eq!(n, want.len(), "unpack length {offset}+{len}, {what}");
                assert_eq!(got, expect, "unpack {offset}+{len}, {what}");
            }

            // The cursor at random fragment sizes, suspending mid-run.
            let full = reference_pack(&nest, &mem, base, 0, total);
            let mut cur = nest.cursor();
            let mut packed = Vec::new();
            while !cur.is_finished() {
                let mut frag = vec![0u8; rng.range(1, 2 * nest.run_len() + 2)];
                // SAFETY: as above.
                let n = unsafe { cur.pack_into(mem.as_ptr().add(base), &mut frag) };
                packed.extend_from_slice(&frag[..n]);
                if !cur.is_finished() {
                    let (run, indices) = (packed.len() / nest.run_len(), cur.indices());
                    assert_eq!(
                        nest.offset_of_run(run),
                        (0..nest.depth())
                            .map(|d| indices[d] as isize * nest.strides()[d])
                            .sum::<isize>(),
                        "indices at {}, {what}",
                        packed.len()
                    );
                }
            }
            assert_eq!(packed, full, "cursor pack, {what}");
            assert!(cur.indices().iter().all(|i| *i == 0));

            let src = rng.bytes(total);
            let mut got = mem.clone();
            let mut expect = mem.clone();
            reference_unpack(&nest, &mut expect, base, 0, &src);
            let mut cur = nest.cursor();
            let mut at = 0;
            while !cur.is_finished() {
                let take = rng.range(1, 2 * nest.run_len() + 2).min(total - at);
                // SAFETY: as above.
                at += unsafe { cur.unpack_from(got.as_mut_ptr().add(base), &src[at..at + take]) };
            }
            assert_eq!(got, expect, "cursor unpack, {what}");
        }
    }

    #[test]
    fn run_list_matches_per_run_reference() {
        let mut rng = XorShift64Star::new(0x5EED_1157);
        for case in 0..200 {
            let run_len = RUN_LENS[rng.range(0, RUN_LENS.len())];
            let slab = rng.bytes(256);
            let offsets: Vec<isize> = (0..rng.range(0, 24))
                .map(|_| rng.range(0, 256 - run_len + 1) as isize)
                .collect();
            let list = RunList::new(&offsets, run_len);
            let total = list.packed_size();
            let byte = |p: usize| offsets[p / run_len] as usize + p % run_len;
            for _ in 0..8 {
                let offset = rng.range(0, total + 2);
                let len = rng.range(0, total + 2);
                let end = (offset + len).min(total).max(offset);
                let mut dst = vec![0u8; len];
                // SAFETY: every run lies inside `slab`.
                let n = unsafe { list.pack_segment(slab.as_ptr(), offset, &mut dst) };
                let want: Vec<u8> = (offset..end).map(|p| slab[byte(p)]).collect();
                assert_eq!(&dst[..n], &want[..], "case {case}: pack {offset}+{len}");

                let src = rng.bytes(len);
                let mut got = slab.clone();
                let mut expect = slab.clone();
                // SAFETY: as above.
                unsafe { list.unpack_segment(got.as_mut_ptr(), offset, &src) };
                for p in offset..end {
                    expect[byte(p)] = src[p - offset];
                }
                assert_eq!(got, expect, "case {case}: unpack {offset}+{len}");
            }
        }
    }
}
