//! Commit-time pack-plan compilation.
//!
//! The interpreted engine in [`crate::committed`] walks the merged block
//! list one `(offset, len)` run at a time — every run pays the same loop
//! bookkeeping and a variable-length `memcpy`, no matter how regular the
//! layout is. Real datatype engines recover the regularity instead:
//! TEMPI (Pearson et al., ICS'22) canonicalizes MPI derived datatypes into
//! strided-copy kernels, and Träff et al. show derived-datatype performance
//! hinges on exactly this normalization step.
//!
//! This module does the same at `commit()` time:
//!
//! 1. **Lower** the type's runs, streamed in from commit's walk, into a
//!    short canonical list of [`PlanOp`]s — contiguous run, 1-D
//!    constant-stride block array, fused two-block interleave, or 2-D nest
//!    of block arrays. Only the ops are stored: a million-run NAS face
//!    commits to one op in O(1) heap, and an array-of-struct layout whose
//!    runs alternate between two lengths fuses into one [`PlanOp::Pair`].
//!    Elements of one or two runs, or of one block array, also get an
//!    *element fold*: a `count`-element stream (`MPI_Send(buf, count, T)`)
//!    runs as one op at stride = extent instead of a loop over elements,
//!    so `count × T` costs what `contiguous(count, T)` costs.
//! 2. **Select a copy kernel** per op ([`Kernel::for_block`]): a straight
//!    `memcpy` for contiguous runs, fixed-size copies for 4/16-byte
//!    blocks, wide-word (u64/u128-packed) gather/scatter kernels for
//!    1/2/8-byte blocks, chunked wide copies for the remaining small
//!    blocks, and a generic fallback for everything else. The choice is a
//!    pure function of the op's shape, fixed when the plan is compiled,
//!    so every process runs the same kernels.
//!
//! The executor keeps the engine's resumable contract: any byte range of
//! the packed stream can be produced or consumed independently, so plans
//! drop straight into the fabric's fragmented generic-payload path.
//! Wide-word kernels only ever touch whole blocks; partial head/tail
//! blocks of a segment go through the byte-accurate generic path, so a
//! fragment boundary can fall anywhere — including mid-word.
//!
//! Every commit compiles its own plan in the pass that walks the type's
//! runs, so a registry of plans keyed by type would save nothing it does
//! not spend on its key.
//!
//! Observability: `plan.kernel.*_bytes` attribute every copied byte to
//! the kernel that moved it (see `mpicd-obs` and `docs/PERFORMANCE.md`).
//! The plan-free merged-block engine stays reachable through
//! [`crate::Datatype::commit_interpreted`].

// Audited unsafe: compiled-plan kernels over raw memory; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use mpicd_obs::metrics::Counter;
use mpicd_obs::prefetch;
use std::sync::{Arc, OnceLock};

/// Copy kernel of a plan op, selected when the plan is compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Unit-stride run: one `memcpy` of the whole op.
    Memcpy,
    /// Strided copy of 4-byte blocks (one `u32` load/store per block).
    Fixed4,
    /// Strided copy of 16-byte blocks (one 16-byte load/store per block).
    Fixed16,
    /// Wide-word gather/scatter: eight 1-byte blocks move through one
    /// `u64` of the packed stream, with software prefetch down long
    /// strides.
    Gather64,
    /// Wide-word gather/scatter through `u128` packed words — eight
    /// 2-byte or two 8-byte blocks per packed store.
    Gather128,
    /// Per-block chunked wide copy (overlapping unaligned u128/u64/u32/u16
    /// pieces) for arbitrary small blocks — a 12-byte block is two
    /// overlapping 8-byte moves instead of a byte loop.
    Wide,
    /// Strided copy of arbitrary-length blocks (variable-length copy).
    Generic,
}

impl Kernel {
    /// Kernel for a strided op whose blocks are `block` bytes long — the
    /// one and only selection rule. 8-byte blocks take `Gather128`, which
    /// beat the fixed 8-byte copy on the LAMMPS and NAS_MG_x faces.
    ///
    /// ```
    /// use mpicd_datatype::Kernel;
    /// assert_eq!(Kernel::for_block(8), Kernel::Gather128);
    /// // Small odd blocks ride the wide-word kernels, not the byte loop:
    /// assert_eq!(Kernel::for_block(1), Kernel::Gather64);
    /// assert_eq!(Kernel::for_block(12), Kernel::Wide);
    /// // Very large blocks stay variable-length copies (memcpy wins).
    /// assert_eq!(Kernel::for_block(4096), Kernel::Generic);
    /// ```
    pub fn for_block(block: usize) -> Self {
        match block {
            1 => Kernel::Gather64,
            2 | 8 => Kernel::Gather128,
            4 => Kernel::Fixed4,
            16 => Kernel::Fixed16,
            b if b <= 64 => Kernel::Wide,
            _ => Kernel::Generic,
        }
    }

    /// Stable index into the per-kernel byte tallies.
    fn index(self) -> usize {
        match self {
            Kernel::Memcpy => 0,
            Kernel::Fixed4 => 1,
            Kernel::Fixed16 => 2,
            Kernel::Gather64 => 3,
            Kernel::Gather128 => 4,
            Kernel::Wide => 5,
            Kernel::Generic => 6,
        }
    }

    /// Human-readable name (matches the obs counter suffix).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Memcpy => "memcpy",
            Kernel::Fixed4 => "fixed4",
            Kernel::Fixed16 => "fixed16",
            Kernel::Gather64 => "gather64",
            Kernel::Gather128 => "gather128",
            Kernel::Wide => "wide",
            Kernel::Generic => "generic",
        }
    }
}

/// Number of distinct [`Kernel`]s (size of the byte tallies).
const KERNELS: usize = 7;

// ---- plan representation ---------------------------------------------------

/// One strided-copy operation of a compiled plan, relative to the element
/// base address. Ops appear in pack order; their packed lengths sum to the
/// type's size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// A single contiguous run of `len` bytes at memory offset `mem`.
    Contig {
        /// Byte offset from the element base.
        mem: isize,
        /// Run length in bytes.
        len: usize,
    },
    /// `count` blocks of `block` bytes, block `i` at `mem + i * stride`.
    Strided {
        /// Byte offset of block 0 from the element base.
        mem: isize,
        /// Distance between consecutive block starts, in bytes.
        stride: isize,
        /// Bytes per block.
        block: usize,
        /// Number of blocks.
        count: usize,
        /// Copy kernel selected for the block length.
        kernel: Kernel,
    },
    /// `count` interleaved pairs of two runs (`block_a` then `block_b`
    /// bytes) repeating at a constant period — the array-of-struct layout
    /// whose runs alternate between two lengths, fused into one op that
    /// always runs the [`Kernel::Wide`] chunked copy.
    Pair {
        /// Byte offset of pair 0's first run from the element base.
        mem: isize,
        /// Offset of the second run within a pair, relative to the first.
        delta: isize,
        /// Distance between consecutive pair starts, in bytes.
        stride: isize,
        /// Bytes in the first run of each pair.
        block_a: usize,
        /// Bytes in the second run of each pair.
        block_b: usize,
        /// Number of pairs.
        count: usize,
    },
    /// `rows` repetitions of a strided block array — the doubly-nested
    /// loop shape of the NAS/MILC/WRF face exchanges.
    Nest2 {
        /// Byte offset of row 0, block 0 from the element base.
        mem: isize,
        /// Distance between consecutive rows, in bytes.
        row_stride: isize,
        /// Number of rows.
        rows: usize,
        /// Distance between consecutive blocks within a row, in bytes.
        col_stride: isize,
        /// Blocks per row.
        cols: usize,
        /// Bytes per block.
        block: usize,
        /// Copy kernel selected for the block length.
        kernel: Kernel,
    },
}

impl PlanOp {
    /// Packed bytes this op produces.
    pub fn packed_len(&self) -> usize {
        match *self {
            PlanOp::Contig { len, .. } => len,
            PlanOp::Strided { block, count, .. } => block * count,
            PlanOp::Pair {
                block_a,
                block_b,
                count,
                ..
            } => (block_a + block_b) * count,
            PlanOp::Nest2 {
                rows, cols, block, ..
            } => rows * cols * block,
        }
    }

    /// The copy kernel this op executes with.
    pub fn kernel(&self) -> Kernel {
        match *self {
            PlanOp::Contig { .. } => Kernel::Memcpy,
            PlanOp::Pair { .. } => Kernel::Wide,
            PlanOp::Strided { kernel, .. } | PlanOp::Nest2 { kernel, .. } => kernel,
        }
    }

    /// An element fold (see [`element_fold`]) stretched over `n` elements.
    fn repeated(&self, n: usize) -> PlanOp {
        let mut op = self.clone();
        match &mut op {
            PlanOp::Strided { count, .. } | PlanOp::Pair { count, .. } => *count = n,
            PlanOp::Nest2 { rows, .. } => *rows = n,
            PlanOp::Contig { .. } => unreachable!("an element fold is never Contig"),
        }
        op
    }
}

/// A compiled pack plan: the canonical op list for one element, plus the
/// placement facts needed to execute over `count` consecutive elements.
///
/// Byte-for-byte, a plan's output is identical to the interpreted engine's
/// (asserted by the workspace property tests); only the loop structure
/// and copy kernels differ.
#[derive(Debug, Clone)]
pub struct PackPlan {
    ops: Vec<PlanOp>,
    /// `prefix[i]` = packed bytes preceding op `i` within one element.
    prefix: Vec<usize>,
    /// Packed bytes per element.
    size: usize,
    /// Element-to-element spacing in memory.
    extent: usize,
    /// The element fold: one op that runs a stream of `count > 1` elements
    /// at stride `extent`, stored for a one-element stream (see
    /// [`element_fold`]). `None` keeps the per-element loop.
    fold: Option<PlanOp>,
}

impl PackPlan {
    /// Compile a plan from a block list, through the streaming compiler
    /// that `commit()` feeds its run walk into.
    pub fn compile(blocks: &[(isize, usize)], size: usize, extent: usize) -> Self {
        let _sp = mpicd_obs::span!("dt.plan_compile", "datatype", size);
        let mut builder = PlanBuilder::default();
        blocks.iter().for_each(|&(off, len)| builder.push(off, len));
        builder.finish(size, extent).0
    }

    /// The canonical op list for one element, in pack order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Number of ops per element (the interpreted engine executes
    /// [`crate::Committed::block_count`] runs instead).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Packed bytes per element.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Shared resumable executor; `PACK` selects the copy direction.
    ///
    /// # Safety
    /// As [`crate::Committed::pack_segment`] or `unpack_segment` over
    /// `buf_len` bytes at `buf`, which packing never reads.
    pub(crate) unsafe fn run<const PACK: bool>(
        &self,
        base: *mut u8,
        count: usize,
        packed_off: usize,
        mut buf: *mut u8,
        buf_len: usize,
    ) -> usize {
        if self.size == 0 || count == 0 {
            return 0;
        }
        let total = self.size * count;
        if packed_off >= total {
            return 0;
        }
        let goal = buf_len.min(total - packed_off);
        let mut remaining = goal;
        let mut tally = [0u64; KERNELS];

        // A stream of `count > 1` elements with an element fold runs as one
        // element made of the one folded op.
        let folded;
        let (ops, prefix, size, count) = match &self.fold {
            Some(fold) if count > 1 => {
                folded = fold.repeated(count);
                (std::slice::from_ref(&folded), &[0][..], total, 1)
            }
            _ => (&self.ops[..], &self.prefix[..], self.size, count),
        };
        let mut elem = packed_off / size;
        let mut within = packed_off % size;
        // Locate the entry op once; the walk is sequential afterwards.
        let mut oi = match prefix.binary_search(&within) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        while remaining > 0 && elem < count {
            let elem_base = base.add(elem * self.extent);
            while remaining > 0 && oi < ops.len() {
                let skip = within - prefix[oi];
                let op = &ops[oi];
                let n = exec_op::<PACK>(op, elem_base, skip, buf, remaining, &mut tally);
                buf = buf.add(n);
                remaining -= n;
                within += n;
                if within == prefix[oi] + op.packed_len() {
                    oi += 1;
                }
            }
            if oi == ops.len() {
                elem += 1;
                within = 0;
                oi = 0;
            }
        }
        flush_tally(&tally);
        goal - remaining
    }
}

// ---- streaming compiler ----------------------------------------------------

/// The streaming plan compiler: runs go in one at a time, in pack order,
/// through four greedy stages. Stages 1-3 hold one open run, group or half
/// pair; stages 3 and 4 rewrite the last ops in place. Only ops are stored.
#[derive(Debug, Default)]
pub(crate) struct PlanBuilder {
    /// The open run (none while its length is 0).
    open: (isize, usize),
    /// Merged runs passed on (the interpreted engine's block count).
    runs: usize,
    /// The open group: first and last offsets, block (0: none), stride, blocks.
    group: (isize, isize, usize, isize, usize),
    /// The first half of the next pair of the `Pair` op ending `ops`.
    half: Option<(isize, usize)>,
    ops: Vec<PlanOp>,
}

impl PlanBuilder {
    /// Stage 1: feed the element's next run. Memory-adjacent runs merge;
    /// empty ones drop.
    pub(crate) fn push(&mut self, off: isize, len: usize) {
        let (o, l) = self.open;
        if l > 0 && o + l as isize == off {
            self.open.1 += len;
        } else if len > 0 {
            self.open = (off, len);
            if l > 0 {
                self.run(o, l);
            }
        }
    }

    /// Stage 2: a merged run joins the open group of equal-length runs at
    /// a constant stride, or closes it.
    fn run(&mut self, off: isize, len: usize) {
        self.runs += 1;
        let group @ (mem, last, block, stride, count) = self.group;
        if block == len && (count == 1 || off - last == stride) {
            self.group = (mem, off, block, off - last, count + 1);
        } else {
            self.group = (off, off, len, 0, 1);
            self.emit(group);
        }
    }

    /// Stage 2: pass a closed group on, as `Strided` if it repeats.
    fn emit(&mut self, (mem, _, block, stride, count): (isize, isize, usize, isize, usize)) {
        match (block, count) {
            (0, _) => {}
            (_, 1) => self.contig(mem, block),
            _ => self.strided(mem, stride, block, count),
        }
    }

    /// Stage 3: a `Contig` run completes the next pair of the `Pair` op
    /// before it, or closes a window of four runs that starts one.
    fn contig(&mut self, mem: isize, len: usize) {
        if let Some(PlanOp::Pair {
            mem: m0,
            delta,
            stride,
            block_a,
            block_b,
            count,
        }) = self.ops.last_mut()
        {
            match self.half {
                None if len == *block_a && mem - *m0 == *stride * *count as isize => {
                    return self.half = Some((mem, len));
                }
                Some((ma, _)) if len == *block_b && mem - ma == *delta => {
                    *count += 1;
                    return self.half = None;
                }
                _ => self.close_half(),
            }
        }
        let n = self.ops.len();
        match self.ops[n.saturating_sub(3)..] {
            [PlanOp::Contig { mem: m0, len: a }, PlanOp::Contig { mem: m1, len: b }, PlanOp::Contig { mem: m2, len: a2 }]
                if a2 == a && len == b && mem - m2 == m1 - m0 && m2 != m0 =>
            {
                self.ops.truncate(n - 3);
                self.ops.push(PlanOp::Pair {
                    mem: m0,
                    delta: m1 - m0,
                    stride: m2 - m0,
                    block_a: a,
                    block_b: b,
                    count: 2,
                });
            }
            _ => self.ops.push(PlanOp::Contig { mem, len }),
        }
    }

    /// Stage 3: the pending half of a pair becomes a `Contig` op.
    fn close_half(&mut self) {
        if let Some((mem, len)) = self.half.take() {
            self.ops.push(PlanOp::Contig { mem, len });
        }
    }

    /// Stage 4: a `Strided` op becomes the next row of the `Strided` or
    /// `Nest2` op before it when they repeat at a constant row stride.
    fn strided(&mut self, mem: isize, stride: isize, block: usize, count: usize) {
        self.close_half();
        let shape = (stride, block, count);
        match self.ops.last_mut() {
            Some(
                last @ &mut PlanOp::Strided {
                    mem: m0,
                    stride: s,
                    block: b,
                    count: c,
                    ..
                },
            ) if (s, b, c) == shape => {
                // Its element fold at the row stride, stretched to two rows.
                let fold = element_fold(std::slice::from_ref(last), mem - m0);
                *last = fold.expect("a Strided op folds").repeated(2);
            }
            Some(PlanOp::Nest2 {
                mem: m0,
                row_stride,
                rows,
                col_stride,
                cols,
                block: b,
                ..
            }) if (*col_stride, *b, *cols) == shape
                && mem - *m0 == *row_stride * *rows as isize =>
            {
                *rows += 1;
            }
            _ => self.ops.push(PlanOp::Strided {
                mem,
                stride,
                block,
                count,
                kernel: Kernel::for_block(block),
            }),
        }
    }

    /// Flush the open run and group: the plan of an element of `size`
    /// packed bytes at `extent`, and the number of merged runs fed.
    pub(crate) fn finish(mut self, size: usize, extent: usize) -> (PackPlan, usize) {
        let (off, len) = self.open;
        if len > 0 {
            self.run(off, len);
        }
        self.emit(self.group);
        self.close_half();
        let prefix = (self.ops.iter())
            .scan(0, |at, op| {
                Some(std::mem::replace(at, *at + op.packed_len()))
            })
            .collect();
        debug_assert_eq!(self.ops.iter().map(PlanOp::packed_len).sum::<usize>(), size);
        let plan = PackPlan {
            fold: element_fold(&self.ops, extent as isize),
            ops: self.ops,
            prefix,
            size,
            extent,
        };
        (plan, self.runs)
    }
}

/// The element fold of an element whose ops are `ops`: the op that packs
/// element `i` of a stream at `i * extent`, for a one-element stream
/// ([`PlanOp::repeated`] sets the element count). A single run becomes a
/// `Strided` block array; two runs of at most 64 B a fused `Pair` (above
/// 64 B [`Kernel::for_block`] keeps the plain copy, so longer runs stay
/// `memcpy`s); a single `Strided` op a `Nest2` with one row per element.
/// Any other element keeps the per-element loop.
fn element_fold(ops: &[PlanOp], extent: isize) -> Option<PlanOp> {
    match *ops {
        [PlanOp::Contig { mem, len }] => Some(PlanOp::Strided {
            mem,
            stride: extent,
            block: len,
            count: 1,
            kernel: Kernel::for_block(len),
        }),
        [PlanOp::Contig { mem, len: a }, PlanOp::Contig { mem: mem_b, len: b }]
            if a <= 64 && b <= 64 =>
        {
            Some(PlanOp::Pair {
                mem,
                delta: mem_b - mem,
                stride: extent,
                block_a: a,
                block_b: b,
                count: 1,
            })
        }
        [PlanOp::Strided {
            mem,
            stride,
            block,
            count,
            kernel,
        }] => Some(PlanOp::Nest2 {
            mem,
            row_stride: extent,
            rows: 1,
            col_stride: stride,
            cols: count,
            block,
            kernel,
        }),
        _ => None,
    }
}

// ---- copy kernels ----------------------------------------------------------

/// Prefetch distance down a stride, in blocks (the shared rule of
/// [`mpicd_obs::prefetch`]).
const PF_AHEAD: isize = prefetch::AHEAD as isize;

/// Direction-parametric byte copy between memory and the packed buffer.
#[inline(always)]
unsafe fn copy<const PACK: bool>(mem: *mut u8, buf: *mut u8, n: usize) {
    if PACK {
        std::ptr::copy_nonoverlapping(mem as *const u8, buf, n);
    } else {
        std::ptr::copy_nonoverlapping(buf as *const u8, mem, n);
    }
}

/// Chunked wide copy of one block: unaligned `u128`/`u64`/`u32`/`u16`
/// pieces with overlapping tails, so e.g. a 12-byte block is two
/// overlapping 8-byte moves instead of a byte loop. Source and
/// destination never overlap (user memory vs. the packed buffer).
#[inline(always)]
unsafe fn copy_wide<const PACK: bool>(mem: *mut u8, buf: *mut u8, n: usize) {
    let (src, dst): (*const u8, *mut u8) = if PACK {
        (mem as *const u8, buf)
    } else {
        (buf as *const u8, mem)
    };
    if n >= 16 {
        let mut off = 0usize;
        while off + 16 <= n {
            (dst.add(off) as *mut u128)
                .write_unaligned((src.add(off) as *const u128).read_unaligned());
            off += 16;
        }
        if off < n {
            let off = n - 16;
            (dst.add(off) as *mut u128)
                .write_unaligned((src.add(off) as *const u128).read_unaligned());
        }
    } else if n >= 8 {
        let hi = n - 8;
        let a = (src as *const u64).read_unaligned();
        let b = (src.add(hi) as *const u64).read_unaligned();
        (dst as *mut u64).write_unaligned(a);
        (dst.add(hi) as *mut u64).write_unaligned(b);
    } else if n >= 4 {
        let hi = n - 4;
        let a = (src as *const u32).read_unaligned();
        let b = (src.add(hi) as *const u32).read_unaligned();
        (dst as *mut u32).write_unaligned(a);
        (dst.add(hi) as *mut u32).write_unaligned(b);
    } else if n >= 2 {
        let hi = n - 2;
        let a = (src as *const u16).read_unaligned();
        let b = (src.add(hi) as *const u16).read_unaligned();
        (dst as *mut u16).write_unaligned(a);
        (dst.add(hi) as *mut u16).write_unaligned(b);
    } else if n == 1 {
        *dst = *src;
    }
}

/// Fixed-block strided copy: the specialized kernel. With `N` a compile
/// time constant the body is a single `N`-byte load/store per block.
#[inline(always)]
unsafe fn strided_fixed<const N: usize, const PACK: bool>(
    mut mem: *mut u8,
    stride: isize,
    blocks: usize,
    mut buf: *mut u8,
) {
    for _ in 0..blocks {
        copy::<PACK>(mem, buf, N);
        mem = mem.offset(stride);
        buf = buf.add(N);
    }
}

/// Wide-word gather/scatter: `W / B` blocks of `B` bytes share one
/// `W`-byte word of the packed stream — fewer, wider packed-side accesses
/// — with software prefetch down long strides. Remainder blocks (fewer
/// than a full word) move individually; packed-stream chunk boundaries
/// need no alignment because partial blocks never reach this kernel.
#[inline(always)]
unsafe fn strided_gather<const B: usize, const W: usize, const PACK: bool>(
    mut mem: *mut u8,
    stride: isize,
    blocks: usize,
    mut buf: *mut u8,
) {
    let lanes = W / B;
    let pf = stride.unsigned_abs() >= prefetch::MIN_STRIDE;
    for _ in 0..blocks / lanes {
        let mut word = [0u8; W];
        if PACK {
            for l in 0..lanes {
                if pf {
                    prefetch::line(mem.wrapping_offset(stride * PF_AHEAD));
                }
                std::ptr::copy_nonoverlapping(mem as *const u8, word.as_mut_ptr().add(l * B), B);
                mem = mem.offset(stride);
            }
            (buf as *mut [u8; W]).write(word);
        } else {
            word = (buf as *const [u8; W]).read();
            for l in 0..lanes {
                if pf {
                    prefetch::line(mem.wrapping_offset(stride * PF_AHEAD));
                }
                std::ptr::copy_nonoverlapping(word.as_ptr().add(l * B), mem, B);
                mem = mem.offset(stride);
            }
        }
        buf = buf.add(W);
    }
    for _ in 0..blocks % lanes {
        copy::<PACK>(mem, buf, B);
        mem = mem.offset(stride);
        buf = buf.add(B);
    }
}

/// Arbitrary-block strided copy through [`copy_wide`], with software
/// prefetch down long strides.
#[inline(always)]
unsafe fn strided_wide<const PACK: bool>(
    mut mem: *mut u8,
    stride: isize,
    block: usize,
    blocks: usize,
    mut buf: *mut u8,
) {
    let pf = stride.unsigned_abs() >= prefetch::MIN_STRIDE;
    for _ in 0..blocks {
        if pf {
            prefetch::line(mem.wrapping_offset(stride * PF_AHEAD));
        }
        copy_wide::<PACK>(mem, buf, block);
        mem = mem.offset(stride);
        buf = buf.add(block);
    }
}

/// Variable-block strided copy: the generic fallback kernel.
#[inline(always)]
unsafe fn strided_generic<const PACK: bool>(
    mut mem: *mut u8,
    stride: isize,
    block: usize,
    blocks: usize,
    mut buf: *mut u8,
) {
    for _ in 0..blocks {
        copy::<PACK>(mem, buf, block);
        mem = mem.offset(stride);
        buf = buf.add(block);
    }
}

/// Execute (part of) one strided block array: skip `skip` packed bytes in,
/// move at most `want` bytes, return bytes moved. Partial head/tail blocks
/// go through the generic copy; whole blocks through the selected kernel.
// Hot-path kernel dispatch: the flat argument list keeps the call free
// of a params-struct build in the per-op loop.
#[allow(clippy::too_many_arguments)]
unsafe fn strided_part<const PACK: bool>(
    mem0: *mut u8,
    stride: isize,
    block: usize,
    count: usize,
    kernel: Kernel,
    skip: usize,
    want: usize,
    mut buf: *mut u8,
    tally: &mut [u64; KERNELS],
) -> usize {
    let avail = block * count - skip;
    let want = want.min(avail);
    let mut done = 0usize;
    let mut bi = skip / block;
    let brem = skip % block;
    // Head: finish a partially consumed block.
    if brem != 0 {
        let n = (block - brem).min(want);
        copy::<PACK>(mem0.offset(bi as isize * stride + brem as isize), buf, n);
        tally[Kernel::Generic.index()] += n as u64;
        done += n;
        buf = buf.add(n);
        if brem + n == block {
            bi += 1;
        }
    }
    // Body: whole blocks through the specialized kernel.
    let full = (want - done) / block;
    if full > 0 {
        let mem = mem0.offset(bi as isize * stride);
        debug_assert_eq!(kernel, Kernel::for_block(block));
        match (kernel, block) {
            (Kernel::Fixed4, 4) => strided_fixed::<4, PACK>(mem, stride, full, buf),
            (Kernel::Fixed16, 16) => strided_fixed::<16, PACK>(mem, stride, full, buf),
            (Kernel::Gather64, 1) => strided_gather::<1, 8, PACK>(mem, stride, full, buf),
            (Kernel::Gather128, 2) => strided_gather::<2, 16, PACK>(mem, stride, full, buf),
            (Kernel::Gather128, 8) => strided_gather::<8, 16, PACK>(mem, stride, full, buf),
            (Kernel::Wide, _) => strided_wide::<PACK>(mem, stride, block, full, buf),
            _ => strided_generic::<PACK>(mem, stride, block, full, buf),
        }
        tally[kernel.index()] += (full * block) as u64;
        done += full * block;
        buf = buf.add(full * block);
        bi += full;
    }
    // Tail: start of the next block.
    if done < want {
        let n = want - done;
        copy::<PACK>(mem0.offset(bi as isize * stride), buf, n);
        tally[Kernel::Generic.index()] += n as u64;
        done += n;
    }
    done
}

/// Copy packed bytes `[from, from + len)` of one pair (the `a` run
/// followed by the `b` run) — the byte-accurate partial-pair path.
/// Caller guarantees `from + len <= block_a + block_b`.
unsafe fn pair_slice<const PACK: bool>(
    pbase: *mut u8,
    delta: isize,
    block_a: usize,
    block_b: usize,
    mut from: usize,
    mut len: usize,
    mut buf: *mut u8,
) {
    debug_assert!(from + len <= block_a + block_b);
    if from < block_a {
        let n = (block_a - from).min(len);
        copy::<PACK>(pbase.add(from), buf, n);
        buf = buf.add(n);
        from += n;
        len -= n;
    }
    if len > 0 {
        copy::<PACK>(pbase.offset(delta).add(from - block_a), buf, len);
    }
}

/// Execute (part of) one fused two-run `Pair` op: skip `skip` packed
/// bytes in, move at most `want` bytes, return bytes moved. Partial
/// head/tail pairs are byte-accurate; whole pairs run the chunked wide
/// copy.
#[allow(clippy::too_many_arguments)]
unsafe fn pair_part<const PACK: bool>(
    mem0: *mut u8,
    delta: isize,
    stride: isize,
    block_a: usize,
    block_b: usize,
    count: usize,
    skip: usize,
    want: usize,
    mut buf: *mut u8,
    tally: &mut [u64; KERNELS],
) -> usize {
    let pair_len = block_a + block_b;
    let avail = pair_len * count - skip;
    let want = want.min(avail);
    let mut done = 0usize;
    let mut pi = skip / pair_len;
    let prem = skip % pair_len;
    // Head: finish a partially consumed pair.
    if prem != 0 {
        let n = (pair_len - prem).min(want);
        pair_slice::<PACK>(
            mem0.offset(pi as isize * stride),
            delta,
            block_a,
            block_b,
            prem,
            n,
            buf,
        );
        tally[Kernel::Generic.index()] += n as u64;
        done += n;
        buf = buf.add(n);
        if prem + n < pair_len {
            return done;
        }
        pi += 1;
    }
    // Body: whole pairs through the fused kernel.
    let full = (want - done) / pair_len;
    if full > 0 {
        let mut mem = mem0.offset(pi as isize * stride);
        let pf = stride.unsigned_abs() >= prefetch::MIN_STRIDE;
        for _ in 0..full {
            if pf {
                prefetch::line(mem.wrapping_offset(stride * 8));
            }
            copy_wide::<PACK>(mem, buf, block_a);
            copy_wide::<PACK>(mem.offset(delta), buf.add(block_a), block_b);
            mem = mem.offset(stride);
            buf = buf.add(pair_len);
        }
        tally[Kernel::Wide.index()] += (full * pair_len) as u64;
        done += full * pair_len;
        pi += full;
    }
    // Tail: start of the next pair.
    if done < want {
        let n = want - done;
        pair_slice::<PACK>(
            mem0.offset(pi as isize * stride),
            delta,
            block_a,
            block_b,
            0,
            n,
            buf,
        );
        tally[Kernel::Generic.index()] += n as u64;
        done += n;
    }
    done
}

/// Execute `nrows` whole rows of a `Nest2` op with kernel `k`, returning
/// the bytes moved (`nrows * cols * block`). The wide-word kernels run a
/// dedicated row loop — single dispatch, next-row prefetch, none of the
/// per-row partial-block bookkeeping — which is where fine-grained nests
/// like LAMMPS (6 blocks of 8 bytes per row) recover their loop overhead.
/// The fixed/generic kernels keep the per-row [`strided_part`] path.
#[allow(clippy::too_many_arguments)]
unsafe fn nest2_rows<const PACK: bool>(
    k: Kernel,
    mem0: *mut u8,
    row_stride: isize,
    nrows: usize,
    col_stride: isize,
    cols: usize,
    block: usize,
    mut buf: *mut u8,
    tally: &mut [u64; KERNELS],
) -> usize {
    let row_len = cols * block;
    match k {
        Kernel::Gather64 | Kernel::Gather128 => {
            debug_assert_eq!(k, Kernel::for_block(block));
            let f: unsafe fn(*mut u8, isize, usize, *mut u8) = match block {
                1 => strided_gather::<1, 8, PACK>,
                2 => strided_gather::<2, 16, PACK>,
                _ => strided_gather::<8, 16, PACK>,
            };
            let mut mem = mem0;
            for _ in 0..nrows {
                prefetch::line(mem.wrapping_offset(row_stride));
                f(mem, col_stride, cols, buf);
                mem = mem.offset(row_stride);
                buf = buf.add(row_len);
            }
            tally[k.index()] += (nrows * row_len) as u64;
        }
        Kernel::Wide => {
            let mut mem = mem0;
            for _ in 0..nrows {
                prefetch::line(mem.wrapping_offset(row_stride));
                strided_wide::<PACK>(mem, col_stride, block, cols, buf);
                mem = mem.offset(row_stride);
                buf = buf.add(row_len);
            }
            tally[Kernel::Wide.index()] += (nrows * row_len) as u64;
        }
        _ => {
            let mut mem = mem0;
            for _ in 0..nrows {
                strided_part::<PACK>(mem, col_stride, block, cols, k, 0, row_len, buf, tally);
                mem = mem.offset(row_stride);
                buf = buf.add(row_len);
            }
        }
    }
    nrows * row_len
}

/// Execute (part of) one op at `skip` packed bytes in; returns bytes moved
/// (`> 0` whenever `want > 0` and the op has bytes past `skip`).
unsafe fn exec_op<const PACK: bool>(
    op: &PlanOp,
    elem_base: *mut u8,
    skip: usize,
    buf: *mut u8,
    want: usize,
    tally: &mut [u64; KERNELS],
) -> usize {
    match *op {
        PlanOp::Contig { mem, len } => {
            let n = (len - skip).min(want);
            copy::<PACK>(elem_base.offset(mem + skip as isize), buf, n);
            tally[Kernel::Memcpy.index()] += n as u64;
            n
        }
        PlanOp::Strided {
            mem,
            stride,
            block,
            count,
            kernel,
        } => strided_part::<PACK>(
            elem_base.offset(mem),
            stride,
            block,
            count,
            kernel,
            skip,
            want,
            buf,
            tally,
        ),
        PlanOp::Pair {
            mem,
            delta,
            stride,
            block_a,
            block_b,
            count,
        } => pair_part::<PACK>(
            elem_base.offset(mem),
            delta,
            stride,
            block_a,
            block_b,
            count,
            skip,
            want,
            buf,
            tally,
        ),
        PlanOp::Nest2 {
            mem,
            row_stride,
            rows,
            col_stride,
            cols,
            block,
            kernel,
        } => {
            let row_len = cols * block;
            let bytes = want.min(rows * row_len - skip);
            let mut row = skip / row_len;
            let rskip = skip % row_len;
            let mut done = 0usize;
            // Head: finish a partially consumed row.
            if rskip != 0 {
                let m = elem_base.offset(mem + row as isize * row_stride);
                let n = strided_part::<PACK>(
                    m, col_stride, block, cols, kernel, rskip, bytes, buf, tally,
                );
                done += n;
                if rskip + n < row_len {
                    return done;
                }
                row += 1;
            }
            // Body: whole rows.
            let full = ((bytes - done) / row_len).min(rows - row);
            if full > 0 {
                let m = elem_base.offset(mem + row as isize * row_stride);
                done += nest2_rows::<PACK>(
                    kernel,
                    m,
                    row_stride,
                    full,
                    col_stride,
                    cols,
                    block,
                    buf.add(done),
                    tally,
                );
                row += full;
            }
            // Tail: start of the next row.
            if done < bytes && row < rows {
                let m = elem_base.offset(mem + row as isize * row_stride);
                done += strided_part::<PACK>(
                    m,
                    col_stride,
                    block,
                    cols,
                    kernel,
                    0,
                    bytes - done,
                    buf.add(done),
                    tally,
                );
            }
            done
        }
    }
}

// ---- observability ---------------------------------------------------------

/// Cached `Arc<Counter>` handles so the hot path pays one relaxed atomic
/// add per kernel per segment, not a registry lookup.
struct PlanCounters {
    kernel_bytes: [Arc<Counter>; KERNELS],
}

fn counters() -> &'static PlanCounters {
    static C: OnceLock<PlanCounters> = OnceLock::new();
    C.get_or_init(|| {
        let r = mpicd_obs::global();
        PlanCounters {
            kernel_bytes: [
                r.counter("plan.kernel.memcpy_bytes"),
                r.counter("plan.kernel.fixed4_bytes"),
                r.counter("plan.kernel.fixed16_bytes"),
                r.counter("plan.kernel.gather64_bytes"),
                r.counter("plan.kernel.gather128_bytes"),
                r.counter("plan.kernel.wide_bytes"),
                r.counter("plan.kernel.generic_bytes"),
            ],
        }
    })
}

/// Add a segment's per-kernel byte tallies to the global counters.
fn flush_tally(tally: &[u64; KERNELS]) {
    let c = counters();
    for (k, &bytes) in tally.iter().enumerate() {
        if bytes != 0 {
            c.kernel_bytes[k].add(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::Primitive;
    use crate::typ::Datatype;

    /// Pack through the plan's executor alone.
    unsafe fn pack_segment(
        p: &PackPlan,
        base: *const u8,
        count: usize,
        off: usize,
        dst: &mut [u8],
    ) -> usize {
        p.run::<true>(base as *mut u8, count, off, dst.as_mut_ptr(), dst.len())
    }

    fn plan_of(t: &Datatype) -> PackPlan {
        let c = crate::Committed::new_interpreted(t).unwrap();
        PackPlan::compile(c.blocks().unwrap(), c.size(), c.extent())
    }

    /// The multi-pass compiler the streaming [`PlanBuilder`] replaced:
    /// re-coalesce, group, fuse pairs and fold nests, each pass over the
    /// whole list. The oracle of the streaming compiler's property test.
    fn compile_multipass(blocks: &[(isize, usize)]) -> Vec<PlanOp> {
        // Pass 0: re-coalesce defensively (inputs from `Committed::new` are
        // already merged; raw callers may not be).
        let mut runs: Vec<(isize, usize)> = Vec::with_capacity(blocks.len());
        for &(off, len) in blocks {
            if len == 0 {
                continue;
            }
            match runs.last_mut() {
                Some((lo, ll)) if *lo + *ll as isize == off => *ll += len,
                _ => runs.push((off, len)),
            }
        }

        // Pass 1: group equal-length, constant-stride run sequences into
        // `Strided` ops; everything else stays `Contig`.
        let mut ops: Vec<PlanOp> = Vec::new();
        let mut i = 0usize;
        while i < runs.len() {
            let (mem, block) = runs[i];
            let mut n = 1usize;
            if i + 1 < runs.len() && runs[i + 1].1 == block {
                let stride = runs[i + 1].0 - mem;
                while i + n < runs.len()
                    && runs[i + n].1 == block
                    && runs[i + n].0 - runs[i + n - 1].0 == stride
                {
                    n += 1;
                }
                if n >= 2 {
                    ops.push(PlanOp::Strided {
                        mem,
                        stride,
                        block,
                        count: n,
                        kernel: Kernel::for_block(block),
                    });
                    i += n;
                    continue;
                }
            }
            ops.push(PlanOp::Contig { mem, len: block });
            i += n;
        }

        // Pass 1.5: fuse alternating two-length contiguous runs at a
        // constant period into `Pair` ops — the array-of-struct layout
        // (e.g. `{3×i32, f64}` with padding) whose unequal runs pass 1's
        // equal-length grouping cannot touch.
        let contig = |ops: &[PlanOp], j: usize| -> Option<(isize, usize)> {
            match ops.get(j) {
                Some(&PlanOp::Contig { mem, len }) => Some((mem, len)),
                _ => None,
            }
        };
        let mut fused: Vec<PlanOp> = Vec::with_capacity(ops.len());
        let mut i = 0usize;
        while i < ops.len() {
            if let (Some((m0, a)), Some((m1, b)), Some((m2, a2)), Some((m3, b2))) = (
                contig(&ops, i),
                contig(&ops, i + 1),
                contig(&ops, i + 2),
                contig(&ops, i + 3),
            ) {
                let delta = m1 - m0;
                let stride = m2 - m0;
                if a2 == a && b2 == b && m3 - m2 == delta && stride != 0 {
                    let mut pairs = 2usize;
                    while let (Some((ma, la)), Some((mb, lb))) =
                        (contig(&ops, i + 2 * pairs), contig(&ops, i + 2 * pairs + 1))
                    {
                        if la == a
                            && lb == b
                            && ma - m0 == stride * pairs as isize
                            && mb - ma == delta
                        {
                            pairs += 1;
                        } else {
                            break;
                        }
                    }
                    fused.push(PlanOp::Pair {
                        mem: m0,
                        delta,
                        stride,
                        block_a: a,
                        block_b: b,
                        count: pairs,
                    });
                    i += 2 * pairs;
                    continue;
                }
            }
            fused.push(ops[i].clone());
            i += 1;
        }
        let ops = fused;

        // Pass 2: fold repeated identical `Strided` ops at a constant row
        // stride into `Nest2` — the doubly-nested loop of a face exchange.
        let mut folded: Vec<PlanOp> = Vec::new();
        let mut i = 0usize;
        while i < ops.len() {
            if let PlanOp::Strided {
                mem,
                stride,
                block,
                count,
                kernel,
            } = ops[i]
            {
                let same = |op: &PlanOp| {
                    matches!(*op, PlanOp::Strided { stride: s, block: b, count: c, .. }
                    if s == stride && b == block && c == count)
                };
                let mut rows = 1usize;
                if i + 1 < ops.len() && same(&ops[i + 1]) {
                    let row_stride = strided_mem(&ops[i + 1]) - mem;
                    while i + rows < ops.len()
                        && same(&ops[i + rows])
                        && strided_mem(&ops[i + rows]) - strided_mem(&ops[i + rows - 1])
                            == row_stride
                    {
                        rows += 1;
                    }
                    if rows >= 2 {
                        folded.push(PlanOp::Nest2 {
                            mem,
                            row_stride,
                            rows,
                            col_stride: stride,
                            cols: count,
                            block,
                            kernel,
                        });
                        i += rows;
                        continue;
                    }
                }
            }
            folded.push(ops[i].clone());
            i += 1;
        }

        folded
    }

    /// `mem` of a `Strided` op (helper for the `Nest2` fold).
    fn strided_mem(op: &PlanOp) -> isize {
        match *op {
            PlanOp::Strided { mem, .. } => mem,
            _ => unreachable!("caller matched Strided"),
        }
    }

    #[test]
    fn contiguous_compiles_to_one_memcpy_op() {
        let t = Datatype::contiguous(64, Datatype::Predefined(Primitive::Int32));
        let p = plan_of(&t);
        assert_eq!(p.ops(), &[PlanOp::Contig { mem: 0, len: 256 }]);
    }

    #[test]
    fn vector_compiles_to_one_strided_op() {
        // 16 blocks of 2 doubles, stride 4 doubles.
        let t = Datatype::vector(16, 2, 4, Datatype::Predefined(Primitive::Double));
        let p = plan_of(&t);
        assert_eq!(
            p.ops(),
            &[PlanOp::Strided {
                mem: 0,
                stride: 32,
                block: 16,
                count: 16,
                kernel: Kernel::Fixed16,
            }]
        );
    }

    #[test]
    fn nested_hvector_compiles_to_nest2() {
        // rows of strided doubles, repeated at a row stride — 2-D nest.
        let inner = Datatype::hvector(8, 1, 16, Datatype::Predefined(Primitive::Double));
        let t = Datatype::hvector(4, 1, 256, inner);
        let p = plan_of(&t);
        assert_eq!(
            p.ops(),
            &[PlanOp::Nest2 {
                mem: 0,
                row_stride: 256,
                rows: 4,
                col_stride: 16,
                cols: 8,
                block: 8,
                kernel: Kernel::Gather128,
            }]
        );
    }

    #[test]
    fn irregular_indexed_falls_back_to_contig_ops() {
        let t = Datatype::hindexed(
            vec![(1, 0), (2, 16), (1, 100)],
            Datatype::Predefined(Primitive::Int32),
        );
        let p = plan_of(&t);
        assert_eq!(p.op_count(), 3);
        assert_eq!(p.size(), 16);
    }

    #[test]
    fn block_size_to_kernel_mapping_is_pinned() {
        // The static mapping: wide-word gathers for 1/2/8-byte blocks,
        // fixed kernels for 4/16, chunked wide copies for every other
        // small block (the generic byte loop would crawl over 12-byte
        // traffic-detector struct fields), and memcpy-sized blocks stay
        // generic.
        let expect = [
            (1, Kernel::Gather64),
            (2, Kernel::Gather128),
            (3, Kernel::Wide),
            (4, Kernel::Fixed4),
            (5, Kernel::Wide),
            (6, Kernel::Wide),
            (7, Kernel::Wide),
            (8, Kernel::Gather128),
            (12, Kernel::Wide),
            (16, Kernel::Fixed16),
            (24, Kernel::Wide),
            (64, Kernel::Wide),
            (65, Kernel::Generic),
            (4096, Kernel::Generic),
        ];
        for (block, kernel) in expect {
            assert_eq!(Kernel::for_block(block), kernel, "block {block}");
        }
    }

    #[test]
    fn alternating_runs_fuse_into_pair_op() {
        // Array-of-struct: {3×i32 (12 B), pad, f64 (8 B), pad} per element,
        // resized to a 32-byte extent — runs alternate 12/8 at a constant
        // period, which pass 1 cannot group (unequal lengths) but pass 1.5
        // fuses into one Pair op.
        let field = Datatype::structure(vec![
            (3, 0, Datatype::Predefined(Primitive::Int32)),
            (1, 16, Datatype::Predefined(Primitive::Double)),
        ]);
        let t = Datatype::contiguous(32, Datatype::resized(0, 32, field));
        let p = plan_of(&t);
        assert_eq!(
            p.ops(),
            &[PlanOp::Pair {
                mem: 0,
                delta: 16,
                stride: 32,
                block_a: 12,
                block_b: 8,
                count: 32,
            }]
        );
        assert_eq!(p.ops()[0].kernel(), Kernel::Wide);

        // And the fused op is byte-identical to the interpreted engine,
        // including suspend/resume at every packed offset.
        let c = crate::Committed::new_interpreted(&t).unwrap();
        let span = c.required_span(1).unwrap();
        let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
        let full = c.pack_slice(&src, 1).unwrap();
        for cut in 0..full.len() {
            let mut out = vec![0u8; full.len()];
            unsafe {
                pack_segment(&p, src.as_ptr(), 1, cut, &mut out[cut..]);
                pack_segment(&p, src.as_ptr(), 1, 0, &mut out[..cut]);
            }
            assert_eq!(out, full, "cut={cut}");
        }
    }

    #[test]
    fn element_fold_shapes_are_pinned() {
        let int = || Datatype::Predefined(Primitive::Int32);
        let dbl = || Datatype::Predefined(Primitive::Double);
        let fold = |t: &Datatype| plan_of(t).fold;
        // One gapped run: a strided block array at stride = extent.
        assert_eq!(
            fold(&Datatype::resized(0, 16, dbl())),
            Some(PlanOp::Strided {
                mem: 0,
                stride: 16,
                block: 8,
                count: 1,
                kernel: Kernel::Gather128,
            })
        );
        // Two runs ≤ 64 B (struct-simple): a fused Pair.
        let simple = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        assert_eq!(
            fold(&simple),
            Some(PlanOp::Pair {
                mem: 0,
                delta: 16,
                stride: 24,
                block_a: 12,
                block_b: 8,
                count: 1,
            })
        );
        // Runs of 64 and 60 B still fuse.
        let wide = Datatype::structure(vec![(16, 0, int()), (15, 72, int())]);
        assert!(matches!(fold(&wide), Some(PlanOp::Pair { .. })));
        // One block array (a resized matrix column): a Nest2, one row per
        // element.
        let column = Datatype::resized(0, 8, Datatype::vector(4, 1, 3, dbl()));
        assert_eq!(
            fold(&column),
            Some(PlanOp::Nest2 {
                mem: 0,
                row_stride: 8,
                rows: 1,
                col_stride: 24,
                cols: 4,
                block: 8,
                kernel: Kernel::Gather128,
            })
        );
        // Everything else keeps the per-element loop: a run > 64 B
        // (struct-vec keeps memcpy), three runs, an element that is
        // already a Pair or a Nest2.
        let struct_vec = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl()), (17, 24, int())]);
        let three = Datatype::structure(vec![(1, 0, int()), (2, 8, int()), (1, 20, int())]);
        let pairs = Datatype::contiguous(4, Datatype::resized(0, 32, simple));
        let nest = Datatype::hvector(4, 1, 256, Datatype::hvector(8, 1, 16, dbl()));
        for t in [struct_vec, three, pairs, nest] {
            assert_eq!(fold(&t), None, "{t:?}");
        }

        // A folded stream is the per-element stream, byte for byte.
        let c = crate::Committed::new_interpreted(&column).unwrap();
        let span = c.required_span(3).unwrap();
        let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
        let mut out = vec![0u8; 3 * 32];
        let n = unsafe { pack_segment(&plan_of(&column), src.as_ptr(), 3, 0, &mut out) };
        assert_eq!(n, out.len());
        assert_eq!(out, c.pack_slice(&src, 3).unwrap());
    }

    #[test]
    fn plan_pack_matches_interpreted_pack() {
        let t = Datatype::structure(vec![
            (3, 0, Datatype::Predefined(Primitive::Int32)),
            (1, 16, Datatype::Predefined(Primitive::Double)),
        ]);
        let c = crate::Committed::new_interpreted(&t).unwrap();
        let p = plan_of(&t);
        let src: Vec<u8> = (0..240).map(|i| i as u8).collect();
        let reference = c.pack_slice(&src, 10).unwrap();
        let mut out = vec![0u8; reference.len()];
        let n = unsafe { pack_segment(&p, src.as_ptr(), 10, 0, &mut out) };
        assert_eq!(n, out.len());
        assert_eq!(out, reference);
    }

    #[test]
    fn resumable_at_every_offset() {
        // A shape that exercises Contig, Strided and partial blocks.
        let t = Datatype::structure(vec![
            (
                1,
                0,
                Datatype::vector(5, 1, 3, Datatype::Predefined(Primitive::Int32)),
            ),
            (3, 64, Datatype::Predefined(Primitive::Double)),
        ]);
        let c = crate::Committed::new_interpreted(&t).unwrap();
        let p = plan_of(&t);
        let count = 3;
        let span = c.required_span(count).unwrap();
        let src: Vec<u8> = (0..span).map(|i| (i % 253) as u8).collect();
        let full = c.pack_slice(&src, count).unwrap();
        for cut in 0..full.len() {
            let mut out = vec![0u8; full.len()];
            unsafe {
                pack_segment(&p, src.as_ptr(), count, cut, &mut out[cut..]);
                pack_segment(&p, src.as_ptr(), count, 0, &mut out[..cut]);
            }
            assert_eq!(out, full, "cut={cut}");
        }
    }

    /// A seeded raw block list built to hit every stage's edges: strided
    /// groups, pair sequences and nests at negative, zero and positive
    /// strides, each possibly broken by one near-miss run, plus zero-length
    /// and memory-adjacent (unmerged) blocks.
    fn raw_blocks(rng: &mut mpicd_obs::XorShift64Star) -> Vec<(isize, usize)> {
        let stride = |rng: &mut mpicd_obs::XorShift64Star| rng.range(0, 9) as isize * 8 - 32;
        let len = |rng: &mut mpicd_obs::XorShift64Star| [0, 4, 8, 8, 12, 16][rng.range(0, 6)];
        let mut out: Vec<(isize, usize)> = Vec::new();
        for _ in 0..rng.range(1, 6) {
            let mem = rng.range(0, 64) as isize - 32;
            let n = rng.range(1, 6);
            let start = out.len();
            match rng.range(0, 5) {
                0 => {
                    let (s, b) = (stride(rng), len(rng));
                    out.extend((0..n as isize).map(|i| (mem + i * s, b)));
                }
                1 => {
                    let (delta, s, a, b) = (stride(rng), stride(rng), len(rng), len(rng));
                    for i in 0..n as isize {
                        out.extend([(mem + i * s, a), (mem + i * s + delta, b)]);
                    }
                }
                2 => {
                    let (rs, cs, b, cols) =
                        (stride(rng) * 4, stride(rng), len(rng), rng.range(1, 4));
                    for r in 0..n as isize {
                        out.extend((0..cols as isize).map(|c| (mem + r * rs + c * cs, b)));
                    }
                }
                3 => {
                    // Runs that touch the run before them.
                    let mut at = mem;
                    for _ in 0..n {
                        let b = len(rng);
                        out.push((at, b));
                        at += b as isize + 8 * rng.range(0, 2) as isize;
                    }
                }
                _ => out.extend((0..n).map(|_| (rng.range(0, 128) as isize - 64, len(rng)))),
            }
            if rng.chance(1, 3) {
                // A near miss: one run of the segment shifted or resized.
                let i = rng.range(start, out.len());
                match rng.range(0, 3) {
                    0 => out[i].0 += 1,
                    1 => out[i].1 += 4,
                    _ => out[i].1 = 0,
                }
            }
        }
        out
    }

    #[test]
    fn streaming_compiler_equals_multipass_oracle() {
        let mut rng = mpicd_obs::XorShift64Star::new(0x5EED_0025);
        let mut shapes = [0usize; 4];
        for case in 0..20_000 {
            let blocks = raw_blocks(&mut rng);
            let size = blocks.iter().map(|b| b.1).sum();
            let extent = rng.range(0, 256);
            let mut builder = PlanBuilder::default();
            blocks.iter().for_each(|&(off, len)| builder.push(off, len));
            let (plan, runs) = builder.finish(size, extent);
            let want = compile_multipass(&blocks);
            assert_eq!(plan.ops(), &want[..], "case {case}: {blocks:?}");
            assert_eq!(plan.fold, element_fold(&want, extent as isize));
            let mut merged: Vec<(isize, usize)> = Vec::new();
            for &(off, len) in blocks.iter().filter(|b| b.1 > 0) {
                match merged.last_mut() {
                    Some((o, l)) if *o + *l as isize == off => *l += len,
                    _ => merged.push((off, len)),
                }
            }
            assert_eq!(runs, merged.len(), "case {case}: merged runs");
            for op in &want {
                shapes[match op {
                    PlanOp::Contig { .. } => 0,
                    PlanOp::Strided { .. } => 1,
                    PlanOp::Pair { .. } => 2,
                    PlanOp::Nest2 { .. } => 3,
                }] += 1;
            }
        }
        assert!(
            shapes.iter().all(|&n| n > 1000),
            "every op shape is exercised: {shapes:?}"
        );
    }
}
