//! The fragment engine: pairs a matched send and receive as two byte
//! streams and moves every payload byte for real.
//!
//! Each side is a [`Stream`]: an optional leading callback segment (a
//! generic datatype's packed stream) followed by memory regions. The stream
//! is cut at the wire model's fixed fragment boundaries, and [`move_range`]
//! moves one range of it across the (source × destination) segment
//! intersections, invoking pack/unpack callbacks with explicit virtual byte
//! offsets — the UCX generic-datatype contract of the paper (§IV). It is the
//! only code that runs a memcpy, a pack or an unpack callback.
//!
//! Two drivers share it. [`run_inline`] walks fragments in order on the
//! posting thread; the worker pool in the `pipeline` module runs runs of
//! consecutive fragments concurrently. They differ only in how a callback
//! segment is reached ([`PackFn`]/[`UnpackFn`]): through
//! `&mut dyn FragmentPacker` inline, through the shared random-access view
//! from pool workers.

// Audited unsafe: fragment walk over posted raw regions; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::error::{FabricError, FabricResult};
use crate::payload::{
    FragmentPacker, FragmentUnpacker, IovEntry, IovEntryMut, RandomAccessPacker,
    RandomAccessUnpacker,
};
use crate::stats::FabricMetrics;
use mpicd_obs::prefetch;
use mpicd_obs::sync::atomic::{AtomicU64, Ordering};

/// How the engine reaches a pack callback.
pub(crate) trait PackFn {
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize, i32>;
}

/// How the engine reaches an unpack callback.
pub(crate) trait UnpackFn {
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32>;
}

impl PackFn for &mut dyn FragmentPacker {
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
        FragmentPacker::pack(&mut **self, offset, dst)
    }
}

/// From the pool: the random-access view, or `None` for a streaming
/// callback, whose bytes the engine keeps off the pool.
impl PackFn for Option<&dyn RandomAccessPacker> {
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
        let view = self.expect("the pool never reaches a streaming callback");
        view.pack_at(offset, dst)
    }
}

impl UnpackFn for &mut dyn FragmentUnpacker {
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
        FragmentUnpacker::unpack(&mut **self, offset, src)
    }
}

impl UnpackFn for Option<&dyn RandomAccessUnpacker> {
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
        let view = self.expect("the pool never reaches a streaming callback");
        view.unpack_at(offset, src)
    }
}

/// A memory region of a stream.
pub(crate) trait Region: Copy {
    fn bytes(&self) -> usize;
}

impl Region for IovEntry {
    fn bytes(&self) -> usize {
        self.len
    }
}

impl Region for IovEntryMut {
    fn bytes(&self) -> usize {
        self.len
    }
}

/// One side of a matched transfer as a byte stream: the callback segment
/// `cb` (callback, packed length) at stream offset 0 if there is one, then
/// the memory regions `mem`.
#[derive(Clone, Copy)]
pub(crate) struct Stream<'a, C, M> {
    pub(crate) cb: Option<(C, usize)>,
    pub(crate) mem: &'a [M],
}

impl<'a, C, M: Region> Stream<'a, C, M> {
    fn seg_len(&self, i: usize) -> usize {
        match &self.cb {
            Some((_, len)) if i == 0 => *len,
            Some(_) => self.mem[i - 1].bytes(),
            None => self.mem[i].bytes(),
        }
    }

    /// Index in `mem` of segment `i`, or `None` for the callback segment.
    fn mem_index(&self, i: usize) -> Option<usize> {
        match self.cb {
            Some(_) => i.checked_sub(1),
            None => Some(i),
        }
    }

    /// Move `at` forward to the segment holding stream offset `pos`, which
    /// must lie before the end of the stream.
    pub(crate) fn seek(&self, at: &mut At, pos: usize) {
        while at.start + self.seg_len(at.seg) <= pos {
            at.start += self.seg_len(at.seg);
            at.seg += 1;
        }
    }

    /// The same stream with its callback reached through `view`.
    pub(crate) fn view<'s, D>(&'s self, view: impl FnOnce(&'s C) -> D) -> Stream<'a, D, M> {
        Stream {
            cb: self.cb.as_ref().map(|(c, len)| (view(c), *len)),
            mem: self.mem,
        }
    }
}

/// Σ time (ns) and count of one kind of callback in a transfer. Relaxed
/// adds: plain statistics, read once the walk is over — the pool's
/// completion handshake (a mutex) orders every worker's adds before that.
#[derive(Default)]
pub(crate) struct CallbackSums {
    pub(crate) ns: AtomicU64,
    pub(crate) calls: AtomicU64,
}

/// Per-transfer state of the fragment walk: its constants, and the
/// callback sums the transfer's record is built from.
pub(crate) struct Walk<'a> {
    /// Fragment size: no callback invocation crosses a multiple of it, so
    /// partial-pack semantics are exercised exactly as on a fragmenting
    /// transport. Memory-to-memory copies ignore it.
    pub(crate) frag: usize,
    pub(crate) metrics: &'a FabricMetrics,
    /// The destination's memory regions are fresh (uninitialized): a range
    /// is zero-filled before a pack callback is handed it.
    pub(crate) fresh: bool,
    /// Take one stamp pair per pack/unpack callback (tracing, flight or
    /// telemetry on). Off, a callback is timed by nothing.
    pub(crate) stamped: bool,
    /// Pack-callback time and invocations, over every thread that ran a
    /// fragment.
    pub(crate) pack: CallbackSums,
    /// Unpack-callback time and invocations, likewise.
    pub(crate) unpack: CallbackSums,
    /// Threads that ran the fragments (1 unless the worker pool did).
    pub(crate) lanes: AtomicU64,
}

impl<'a> Walk<'a> {
    pub(crate) fn new(frag: usize, metrics: &'a FabricMetrics, fresh: bool, stamped: bool) -> Self {
        Self {
            frag,
            metrics,
            fresh,
            stamped,
            pack: Default::default(),
            unpack: Default::default(),
            lanes: AtomicU64::new(1),
        }
    }

    /// Run one pack (`unpack == false`) or unpack callback over `bytes`
    /// bytes. A stamped walk adds the call's time to the transfer's sums
    /// and, under tracing, emits a `pack`/`unpack` span from the same two
    /// stamps.
    fn call<T>(&self, unpack: bool, bytes: usize, f: impl FnOnce() -> T) -> T {
        if !self.stamped {
            return f();
        }
        let t0 = mpicd_obs::now_ns();
        let r = f();
        let dur = mpicd_obs::now_ns().saturating_sub(t0);
        let (name, sums) = if unpack {
            ("unpack", &self.unpack)
        } else {
            ("pack", &self.pack)
        };
        sums.ns.fetch_add(dur, Ordering::Relaxed);
        sums.calls.fetch_add(1, Ordering::Relaxed);
        mpicd_obs::trace::record(name, "fabric", t0, dur, bytes as u64);
        r
    }
}

/// A segment cursor: the index of a segment and the stream offset where it
/// starts.
#[derive(Clone, Copy, Default)]
pub(crate) struct At {
    pub(crate) seg: usize,
    pub(crate) start: usize,
}

/// Hold a pack callback to its `used` count: at most the `room` it was
/// handed (more would deliver bytes it never wrote), and not 0 while
/// `remaining` bytes are left at stream `offset` (that would loop forever).
fn checked_used(used: usize, room: usize, offset: usize, remaining: usize) -> FabricResult<usize> {
    if used > room {
        return Err(FabricError::PackOverrun { offset, used, room });
    }
    if used == 0 {
        return Err(FabricError::PackStalled { offset, remaining });
    }
    Ok(used)
}

/// Copy `left` bytes from source region `i` at byte `s_off` on, into
/// destination region `j` at byte `d_off` on, across as many consecutive
/// regions of either list as it takes, prefetching the region
/// [`prefetch::AHEAD`] places on in each list. Returns where it stopped:
/// `(i, s_off, j, d_off)`.
///
/// # Safety
/// Both lists must hold `left` bytes from the start cursors, and the
/// regions must satisfy the post contracts (see [`move_range`]).
unsafe fn copy_regions(
    src: &[IovEntry],
    dst: &[IovEntryMut],
    (mut i, mut s_off): (usize, usize),
    (mut j, mut d_off): (usize, usize),
    mut left: usize,
) -> (usize, usize, usize, usize) {
    loop {
        let (s, d) = (src[i], dst[j]);
        let n = (s.len - s_off).min(d.len - d_off).min(left);
        let (from, to) = (s.ptr.add(s_off), d.ptr.add(d_off));
        match n {
            // One unaligned load and store, not a `memcpy` call: the
            // 8-byte regions of strided faces (NAS_MG_x, one double each).
            8 => to
                .cast::<u64>()
                .write_unaligned(from.cast::<u64>().read_unaligned()),
            _ => std::ptr::copy_nonoverlapping(from, to, n),
        }
        left -= n;
        s_off += n;
        d_off += n;
        if left == 0 {
            return (i, s_off, j, d_off);
        }
        if s_off == s.len {
            (i, s_off) = (i + 1, 0);
            if let Some(r) = src.get(i + prefetch::AHEAD) {
                prefetch::line(r.ptr);
            }
        }
        if d_off == d.len {
            (j, d_off) = (j + 1, 0);
            if let Some(r) = dst.get(j + prefetch::AHEAD) {
                prefetch::line(r.ptr);
            }
        }
    }
}

/// Move stream bytes `[lo, hi)` from `src` into `dst`, starting from the
/// cursors `sa`/`da` (at or before `lo`) and leaving them at the segments
/// where the walk stopped.
///
/// Where both sides are memory, one loop copies across consecutive
/// regions. A packer that partially fills its buffer is re-invoked at the
/// advanced offset until the piece is full. Packer→unpacker pieces stage
/// through `stage`. With `staged` set, bytes bound for the unpacker are not
/// delivered: they land in `stage` at their packed offset, which the caller
/// has sized to the unpacker's share of the range. Errors carry the stream
/// position they occurred at; the walk stops at the first one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn move_range<P: PackFn, U: UnpackFn>(
    w: &Walk<'_>,
    src: &mut Stream<'_, P, IovEntry>,
    dst: &mut Stream<'_, U, IovEntryMut>,
    lo: usize,
    hi: usize,
    sa: &mut At,
    da: &mut At,
    stage: &mut Vec<u8>,
    staged: bool,
) -> Result<(), (usize, FabricError)> {
    let mut pos = lo;
    while pos < hi {
        src.seek(sa, pos);
        dst.seek(da, pos);
        let (s_off, d_off) = (pos - sa.start, pos - da.start);
        let (s_mem, d_mem) = (src.mem_index(sa.seg), dst.mem_index(da.seg));
        if let (Some(i), Some(j)) = (s_mem, d_mem) {
            // SAFETY: post contracts keep the source regions live and
            // unmutated, and the destination regions live, exclusive and
            // disjoint from them; both streams hold `hi - pos` more bytes,
            // and concurrent ranges write disjoint bytes. A raw copy forms
            // no reference over the destination, which may be fresh.
            let (i2, s_off, j2, d_off) =
                unsafe { copy_regions(src.mem, dst.mem, (i, s_off), (j, d_off), hi - pos) };
            // Only memory follows memory, so the copy reached `hi`.
            *sa = At {
                seg: sa.seg + i2 - i,
                start: hi - s_off,
            };
            *da = At {
                seg: da.seg + j2 - j,
                start: hi - d_off,
            };
            return Ok(());
        }
        let s_len = src.seg_len(sa.seg);
        let n = (s_len - s_off)
            .min(dst.seg_len(da.seg) - d_off)
            .min(hi - pos)
            .min(w.frag - pos % w.frag);
        let bytes: &[u8] = match (s_mem, &d_mem) {
            // SAFETY: post contracts keep the source region live and
            // unmutated for the operation; `n` stays inside it.
            (Some(i), None) if !staged => unsafe {
                std::slice::from_raw_parts(src.mem[i].ptr.add(s_off), n)
            },
            (s_mem, d_mem) => {
                let sink: &mut [u8] = match d_mem {
                    // Reached only with a packer source.
                    Some(j) => {
                        // SAFETY: as for the memory-to-memory copy; a fresh
                        // range is zero-filled first, so the packer is
                        // never handed uninitialized bytes.
                        unsafe {
                            let at = dst.mem[*j].ptr.add(d_off);
                            if w.fresh {
                                std::ptr::write_bytes(at, 0, n);
                            }
                            std::slice::from_raw_parts_mut(at, n)
                        }
                    }
                    None if staged => &mut stage[d_off..d_off + n],
                    None => {
                        if stage.len() < n {
                            stage.resize(n, 0);
                        }
                        &mut stage[..n]
                    }
                };
                match s_mem {
                    // SAFETY: as above for the source region.
                    Some(i) => unsafe {
                        std::ptr::copy_nonoverlapping(
                            src.mem[i].ptr.add(s_off),
                            sink.as_mut_ptr(),
                            n,
                        );
                    },
                    None => {
                        let (packer, _) = src.cb.as_mut().expect("segment 0 is the callback");
                        let mut filled = 0;
                        while filled < n {
                            let at = s_off + filled;
                            let room = n - filled;
                            let used = w
                                .call(false, room, || packer.pack(at, &mut sink[filled..]))
                                .map_err(|c| (pos + filled, FabricError::PackFailed(c)))?;
                            filled += checked_used(used, room, at, s_len - at)
                                .map_err(|e| (pos + filled, e))?;
                        }
                    }
                }
                sink
            }
        };
        if let (None, false) = (d_mem, staged) {
            let (unpacker, _) = dst.cb.as_mut().expect("segment 0 is the callback");
            w.call(true, n, || unpacker.unpack(d_off, bytes))
                .map_err(|c| (pos, FabricError::UnpackFailed(c)))?;
        }
        pos += n;
    }
    Ok(())
}

/// Most staging bytes kept between transfers, in fragments.
const STAGE_KEEP_FRAGS: usize = 64;

/// Move stream bytes `[0, hi)` of a transfer in order on the posting
/// thread, and return the (source, destination) cursors where it stopped.
///
/// Packers see increasing offsets. With `reverse` set (an out-of-order wire
/// model and a sender that did not demand `inorder`), the unpacker's bytes
/// in the range are staged and delivered one fragment per call, last
/// fragment first, modeling a transport that completes fragments out of
/// order; memory regions are position-addressed and unaffected. `stage` is
/// reused across transfers.
pub(crate) fn run_inline(
    w: &Walk<'_>,
    src: &mut Stream<'_, &mut dyn FragmentPacker, IovEntry>,
    dst: &mut Stream<'_, &mut dyn FragmentUnpacker, IovEntryMut>,
    hi: usize,
    reverse: bool,
    stage: &mut Vec<u8>,
) -> FabricResult<(At, At)> {
    // The unpacker's bytes are the stream prefix [0, staged).
    let staged = match &dst.cb {
        Some((_, len)) if reverse => (*len).min(hi),
        _ => 0,
    };
    if staged > 0 {
        stage.clear();
        stage.resize(staged, 0);
    }
    let (mut sa, mut da) = (At::default(), At::default());
    let r = move_range(w, src, dst, 0, hi, &mut sa, &mut da, stage, staged > 0)
        .map_err(|(_, e)| e)
        .and_then(|()| {
            let Some((unpacker, _)) = dst.cb.as_mut() else {
                return Ok(());
            };
            let mut hi = staged;
            while hi > 0 {
                let lo = (hi - 1) / w.frag * w.frag;
                w.call(true, hi - lo, || unpacker.unpack(lo, &stage[lo..hi]))
                    .map_err(FabricError::UnpackFailed)?;
                hi = lo;
            }
            Ok(())
        });
    if stage.capacity() > STAGE_KEEP_FRAGS * w.frag {
        *stage = Vec::new();
    }
    r.map(|()| (sa, da))
}

#[cfg(test)]
mod tests {
    use super::*;

    type Src<'a> = Stream<'a, &'a mut dyn FragmentPacker, IovEntry>;
    type Dst<'a> = Stream<'a, &'a mut dyn FragmentUnpacker, IovEntryMut>;

    /// Run `src` into `dst` inline at fragment size `frag`.
    fn run(
        frag: usize,
        mut src: Src<'_>,
        mut dst: Dst<'_>,
        reverse: bool,
        stage: &mut Vec<u8>,
    ) -> FabricResult<usize> {
        let metrics = FabricMetrics::new(&mpicd_obs::Registry::new());
        let w = Walk::new(frag, &metrics, false, false);
        let total = src.cb.as_ref().map_or(0, |(_, len)| *len)
            + src.mem.iter().map(|e| e.len).sum::<usize>();
        run_inline(&w, &mut src, &mut dst, total, reverse, stage)?;
        Ok(total)
    }

    /// Unpacker writing into an owned buffer and logging call offsets.
    struct Log {
        out: Vec<u8>,
        offsets: Vec<usize>,
    }

    impl FragmentUnpacker for Log {
        fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
            self.offsets.push(offset);
            self.out[offset..offset + src.len()].copy_from_slice(src);
            Ok(())
        }
    }

    fn log(len: usize) -> Log {
        Log {
            out: vec![0; len],
            offsets: Vec::new(),
        }
    }

    #[test]
    fn mem_to_mem_across_boundaries() {
        let a = [1u8, 2, 3, 4, 5];
        let b = [6u8, 7, 8];
        let mut out1 = [0u8; 2];
        let mut out2 = [0u8; 6];
        let src = [IovEntry::from_slice(&a), IovEntry::from_slice(&b)];
        let dst = [
            IovEntryMut::from_slice(&mut out1),
            IovEntryMut::from_slice(&mut out2),
        ];
        let moved = run(
            4,
            Stream {
                cb: None,
                mem: &src,
            },
            Stream {
                cb: None,
                mem: &dst,
            },
            false,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(moved, 8);
        assert_eq!(out1, [1, 2]);
        assert_eq!(out2, [3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn packer_partial_fill_is_respected() {
        // Packer emits at most 3 bytes per call regardless of fragment size.
        let data: Vec<u8> = (0..20u8).collect();
        let src_data = data.clone();
        let mut calls = Vec::new();
        let mut packer = |offset: usize, dst: &mut [u8]| {
            calls.push((offset, dst.len()));
            let n = dst.len().min(3).min(src_data.len() - offset);
            dst[..n].copy_from_slice(&src_data[offset..offset + n]);
            Ok(n)
        };
        let mut out = vec![0u8; 20];
        let dst = [IovEntryMut::from_slice(&mut out)];
        let moved = run(
            8,
            Stream {
                cb: Some((&mut packer as &mut dyn FragmentPacker, 20)),
                mem: &[],
            },
            Stream {
                cb: None,
                mem: &dst,
            },
            false,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(moved, 20);
        assert_eq!(out, data);
        // Re-invoked at the advanced offset with the rest of the fragment;
        // no call crosses a fragment boundary.
        assert_eq!(
            calls,
            [
                (0, 8),
                (3, 5),
                (6, 2),
                (8, 8),
                (11, 5),
                (14, 2),
                (16, 4),
                (19, 1)
            ]
        );
    }

    #[test]
    fn packer_to_unpacker_roundtrip() {
        let data: Vec<u8> = (0..50u8).map(|x| x.wrapping_mul(3)).collect();
        let src_data = data.clone();
        let mut packer = move |offset: usize, dst: &mut [u8]| {
            let n = dst.len().min(src_data.len() - offset);
            dst[..n].copy_from_slice(&src_data[offset..offset + n]);
            Ok(n)
        };
        let mut unpacker = log(50);
        let moved = run(
            7,
            Stream {
                cb: Some((&mut packer as &mut dyn FragmentPacker, 50)),
                mem: &[],
            },
            Stream {
                cb: Some((&mut unpacker as &mut dyn FragmentUnpacker, 50)),
                mem: &[],
            },
            false,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(moved, 50);
        assert_eq!(unpacker.out, data);
        assert_eq!(unpacker.offsets, (0..50).step_by(7).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_delivery_permutes_offsets() {
        let data: Vec<u8> = (0..32u8).collect();
        let mut unpacker = log(32);
        let src = [IovEntry::from_slice(&data)];
        run(
            8,
            Stream {
                cb: None,
                mem: &src,
            },
            Stream {
                cb: Some((&mut unpacker as &mut dyn FragmentUnpacker, 32)),
                mem: &[],
            },
            true,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(unpacker.out, data, "offset-addressed unpack reassembles");
        assert_eq!(
            unpacker.offsets,
            vec![24, 16, 8, 0],
            "reverse-order delivery"
        );
    }

    #[test]
    fn stalled_packer_errors() {
        let mut packer = |_offset: usize, _dst: &mut [u8]| Ok(0usize);
        let mut out = vec![0u8; 16];
        let dst = [IovEntryMut::from_slice(&mut out)];
        let err = run(
            8,
            Stream {
                cb: Some((&mut packer as &mut dyn FragmentPacker, 16)),
                mem: &[],
            },
            Stream {
                cb: None,
                mem: &dst,
            },
            false,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            FabricError::PackStalled {
                offset: 0,
                remaining: 16
            }
        );
    }

    #[test]
    fn failing_unpacker_propagates_code() {
        struct Fail;
        impl FragmentUnpacker for Fail {
            fn unpack(&mut self, _offset: usize, _src: &[u8]) -> Result<(), i32> {
                Err(42)
            }
        }
        let data = [0u8; 16];
        let src = [IovEntry::from_slice(&data)];
        for reverse in [false, true] {
            let mut unpacker = Fail;
            let r = run(
                8,
                Stream {
                    cb: None,
                    mem: &src,
                },
                Stream {
                    cb: Some((&mut unpacker as &mut dyn FragmentUnpacker, 16)),
                    mem: &[],
                },
                reverse,
                &mut Vec::new(),
            );
            assert_eq!(r, Err(FabricError::UnpackFailed(42)), "reverse {reverse}");
        }
    }

    #[test]
    fn scratch_freelist_recycles_ooo_buffers() {
        // One staging buffer serves every transfer: packer→unpacker pieces
        // and out-of-order staging reuse its allocation instead of
        // reallocating per transfer.
        let data: Vec<u8> = (0..32u8).collect();
        let mut stage = Vec::new();
        let mut base = None;
        for (round, reverse) in [true, false, true, false].into_iter().enumerate() {
            let src_data = data.clone();
            let mut packer = move |offset: usize, dst: &mut [u8]| {
                let n = dst.len().min(src_data.len() - offset);
                dst[..n].copy_from_slice(&src_data[offset..offset + n]);
                Ok(n)
            };
            let mut unpacker = log(32);
            run(
                8,
                Stream {
                    cb: Some((&mut packer as &mut dyn FragmentPacker, 32)),
                    mem: &[],
                },
                Stream {
                    cb: Some((&mut unpacker as &mut dyn FragmentUnpacker, 32)),
                    mem: &[],
                },
                reverse,
                &mut stage,
            )
            .unwrap();
            assert_eq!(unpacker.out, data, "round {round}");
            assert_eq!(*base.get_or_insert(stage.as_ptr()), stage.as_ptr());
        }
        assert_eq!(stage.capacity(), 32, "one transfer's worth of staging");
    }

    #[test]
    fn staging_above_the_keep_bound_is_released() {
        let data = vec![7u8; 2 * STAGE_KEEP_FRAGS * 8];
        let src = [IovEntry::from_slice(&data)];
        let mut unpacker = log(data.len());
        let mut stage = Vec::new();
        run(
            8,
            Stream {
                cb: None,
                mem: &src,
            },
            Stream {
                cb: Some((&mut unpacker as &mut dyn FragmentUnpacker, data.len())),
                mem: &[],
            },
            true,
            &mut stage,
        )
        .unwrap();
        assert_eq!(unpacker.out, data);
        assert_eq!(stage.capacity(), 0);
    }

    #[test]
    fn empty_transfer_moves_nothing() {
        let r = run(
            8,
            Stream { cb: None, mem: &[] },
            Stream { cb: None, mem: &[] },
            false,
            &mut Vec::new(),
        );
        assert_eq!(r, Ok(0));
    }
}
