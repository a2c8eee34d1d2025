//! The parallel fragment pipeline — concurrent pack/copy/unpack of a
//! matched transfer's byte stream.
//!
//! PR 2 made every plan-backed packer *offset-addressed*: any fragment of
//! the packed stream can be produced or consumed independently. This module
//! exploits that. When a matched transfer's source and destination are both
//! random-access (every callback segment exposes a
//! [`RandomAccessPacker`]/[`RandomAccessUnpacker`] view) and the sender did
//! not demand `inorder` delivery, the stream is split at the wire model's
//! fragment size and the fragments are executed concurrently by a
//! persistent, lazily-spawned worker pool — the CPU-side analogue of the
//! overlapped fragment pipelining UCX does on the wire (paper §IV, Fig. 5).
//!
//! Design points:
//!
//! * **Serial fallback.** The pool is only consulted for eligible
//!   transfers; everything else (streaming callbacks, `inorder` senders,
//!   single-fragment payloads, `MPICD_PIPELINE=0`) runs the untouched
//!   serial [`copy_stream`](crate::transfer) engine.
//! * **Bounded scratch ring.** Packer→unpacker fragments stage through a
//!   pool of recycled per-fragment buffers; at most
//!   [`PipelineConfig`](crate::config::PipelineConfig)::`depth` are ever
//!   checked out, bounding memory regardless of transfer size.
//! * **First error wins.** Workers never stop mid-transfer; every callback
//!   error is recorded with its stream position and the *lowest-position*
//!   error is surfaced — the same error the serial engine's in-order walk
//!   would have returned first (matching the paper's error-return
//!   semantics). Which later callbacks also ran is unspecified on error.
//! * **The posting thread participates.** A pool configured with
//!   `threads = 1` spawns no workers at all: the posting thread drains the
//!   fragment queue itself, so the parallel machinery can be benchmarked
//!   head-to-head against the serial engine with no thread handoff cost.

// Audited unsafe: lifetime-erased job sharing (see JobRef safety argument); every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::config::PipelineConfig;
use crate::error::{FabricError, FabricResult};
use crate::payload::{IovEntry, IovEntryMut, RandomAccessPacker, RandomAccessUnpacker};
use crate::stats::FabricMetrics;
use crate::transfer::{checked_used, DstSeg, SrcSeg};
use mpicd_obs::flight::{self, EventKind};
use mpicd_obs::sync::{Condvar, Mutex};
use mpicd_obs::telemetry;
use mpicd_obs::trace::span_acc;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

// ---- parallel-capable segment views ----------------------------------------

/// A source segment admitted to the parallel engine.
pub(crate) enum ParSrc<'a> {
    /// Position-addressed memory — always eligible.
    Mem(IovEntry),
    /// A packer that exposed its random-access view.
    Packer {
        packer: &'a dyn RandomAccessPacker,
        len: usize,
    },
}

/// A destination segment admitted to the parallel engine.
pub(crate) enum ParDst<'a> {
    Mem(IovEntryMut),
    Unpacker {
        unpacker: &'a dyn RandomAccessUnpacker,
        len: usize,
    },
}

/// Try to build parallel views of a matched transfer's segment lists.
///
/// Returns `None` — routing the transfer to the serial engine — unless
/// *every* callback segment is random-access. Memory segments always
/// qualify.
pub(crate) fn parallel_view<'a>(
    src_segs: &'a [SrcSeg<'_>],
    dst_segs: &'a [DstSeg<'_>],
) -> Option<(Vec<ParSrc<'a>>, Vec<ParDst<'a>>)> {
    let src = src_segs
        .iter()
        .map(|s| match s {
            SrcSeg::Mem(e) => Some(ParSrc::Mem(*e)),
            SrcSeg::Packer { packer, len } => packer
                .random_access()
                .map(|packer| ParSrc::Packer { packer, len: *len }),
        })
        .collect::<Option<Vec<_>>>()?;
    let dst = dst_segs
        .iter()
        .map(|d| match d {
            DstSeg::Mem(e) => Some(ParDst::Mem(*e)),
            DstSeg::Unpacker { unpacker, len } => {
                unpacker.random_access().map(|unpacker| ParDst::Unpacker {
                    unpacker,
                    len: *len,
                })
            }
        })
        .collect::<Option<Vec<_>>>()?;
    Some((src, dst))
}

fn src_len(s: &ParSrc<'_>) -> usize {
    match s {
        ParSrc::Mem(e) => e.len,
        ParSrc::Packer { len, .. } => *len,
    }
}

fn dst_len(d: &ParDst<'_>) -> usize {
    match d {
        ParDst::Mem(e) => e.len,
        ParDst::Unpacker { len, .. } => *len,
    }
}

// ---- bounded scratch ring ---------------------------------------------------

/// Bounded ring of pooled per-fragment staging buffers. Checkout blocks
/// when `depth` buffers are already out; buffers are recycled for the
/// lifetime of the pool.
struct ScratchRing {
    state: Mutex<RingState>,
    returned: Condvar,
    /// Level gauge (`fabric.scratch_free`): slots still available for
    /// checkout. A sustained low reading means fragments are stalling on
    /// staging buffers (raise `MPICD_PIPELINE_DEPTH`).
    gauge: Arc<telemetry::Gauge>,
}

struct RingState {
    free: Vec<Vec<u8>>,
    issued: usize,
    depth: usize,
}

impl RingState {
    /// Slots a checkout could take right now without blocking.
    fn free_slots(&self) -> u64 {
        (self.depth - self.issued + self.free.len()) as u64
    }
}

impl ScratchRing {
    fn new(depth: usize, gauge: Arc<telemetry::Gauge>) -> Self {
        let depth = depth.max(1);
        // Structural baseline, recorded even before telemetry is enabled
        // so the gauge never reads 0-free on an idle ring.
        gauge.observe_set(depth as u64);
        Self {
            state: Mutex::new(RingState {
                free: Vec::new(),
                issued: 0,
                depth,
            }),
            returned: Condvar::new(),
            gauge,
        }
    }

    fn checkout(&self) -> Vec<u8> {
        let mut st = self.state.lock();
        loop {
            if let Some(b) = st.free.pop() {
                self.gauge.set(st.free_slots());
                return b;
            }
            if st.issued < st.depth {
                st.issued += 1;
                self.gauge.set(st.free_slots());
                return Vec::new();
            }
            st = self.returned.wait(st);
        }
    }

    fn checkin(&self, buf: Vec<u8>) {
        let mut st = self.state.lock();
        st.free.push(buf);
        self.gauge.set(st.free_slots());
        drop(st);
        self.returned.notify_one();
    }
}

// ---- one in-flight transfer -------------------------------------------------

/// Shared state of one pipelined transfer, stack-allocated by the posting
/// thread, which blocks until `remaining` hits zero. Workers reach it
/// through a lifetime-erased pointer that provably never outlives it (see
/// the safety argument on [`JobRef`]).
struct JobShared<'a> {
    frag: usize,
    total: usize,
    src: Vec<ParSrc<'a>>,
    /// Stream offset where each source segment starts; last entry = total.
    src_prefix: Vec<usize>,
    dst: Vec<ParDst<'a>>,
    dst_prefix: Vec<usize>,
    scratch: &'a ScratchRing,
    metrics: &'a FabricMetrics,
    /// Flight-recorder transfer id (0 = not recording).
    fid: u64,
    /// Merged Lamport clock of the transfer, stamped on fragment events.
    lc: u64,
    /// Lowest-stream-position callback error (position, error).
    error: Mutex<Option<(usize, FabricError)>>,
    /// Fragments not yet finished; guarded decrement, last one notifies.
    remaining: Mutex<usize>,
    done: Condvar,
}

/// Record `(pos, e)` into the job's error slot unless an error at an
/// equal-or-lower stream position is already there: concurrent fragments
/// can fail in any order, but the transfer reports the error closest to
/// the start of the stream, matching what the serial engine would hit
/// first.
fn record_error(slot: &Mutex<Option<(usize, FabricError)>>, pos: usize, e: FabricError) {
    let mut g = slot.lock();
    match &*g {
        Some((p, _)) if *p <= pos => {}
        _ => *g = Some((pos, e)),
    }
}

/// Retire one fragment: decrement the remaining count under its mutex and
/// notify the posting thread on the last one. The decrement must be the
/// final touch of job state (see [`JobRef`]).
fn complete_fragment(remaining: &Mutex<usize>, done: &Condvar) {
    let mut g = remaining.lock();
    *g -= 1;
    if *g == 0 {
        done.notify_all();
    }
}

impl JobShared<'_> {
    /// Execute fragment `idx`, record any error, and signal completion.
    /// The completion decrement is the **last** touch of job state: once
    /// the posting thread observes `remaining == 0` (which requires this
    /// mutex), no worker dereferences the job again.
    fn exec_fragment(&self, idx: usize) {
        let lo = idx * self.frag;
        let hi = self.total.min(lo + self.frag);
        if let Err((pos, e)) = self.run_range(lo, hi) {
            record_error(&self.error, pos, e);
        }
        complete_fragment(&self.remaining, &self.done);
    }

    /// Move stream bytes `[lo, hi)`, walking the (src × dst) segment
    /// intersections exactly like the serial engine but addressed
    /// absolutely. Errors carry the stream position they occurred at.
    fn run_range(&self, lo: usize, hi: usize) -> Result<(), (usize, FabricError)> {
        let mut pos = lo;
        let mut si = self.src_prefix.partition_point(|&p| p <= pos) - 1;
        let mut di = self.dst_prefix.partition_point(|&p| p <= pos) - 1;
        while pos < hi {
            while self.src_prefix[si + 1] <= pos {
                si += 1;
            }
            while self.dst_prefix[di + 1] <= pos {
                di += 1;
            }
            let s_off = pos - self.src_prefix[si];
            let d_off = pos - self.dst_prefix[di];
            let n = (self.src_prefix[si + 1] - pos)
                .min(self.dst_prefix[di + 1] - pos)
                .min(hi - pos);
            match (&self.src[si], &self.dst[di]) {
                (ParSrc::Mem(s), ParDst::Mem(d)) => {
                    // SAFETY: post contracts guarantee both regions are live
                    // and non-overlapping; concurrent fragments touch
                    // disjoint ranges.
                    unsafe {
                        std::ptr::copy_nonoverlapping(s.ptr.add(s_off), d.ptr.add(d_off), n);
                    }
                }
                (ParSrc::Mem(s), ParDst::Unpacker { unpacker, .. }) => {
                    // SAFETY: as above.
                    let bytes = unsafe { std::slice::from_raw_parts(s.ptr.add(s_off), n) };
                    let t0 = flight::clock(self.fid);
                    {
                        let _sp = span_acc("unpack", "fabric", n as u64, &self.metrics.unpack_ns);
                        unpacker
                            .unpack_at(d_off, bytes)
                            .map_err(|c| (pos, FabricError::UnpackFailed(c)))?;
                    }
                    flight::record_frag(
                        EventKind::FragUnpacked,
                        self.fid,
                        t0,
                        n as u64,
                        d_off as u64,
                        self.lc,
                    );
                }
                (ParSrc::Packer { packer, len }, ParDst::Mem(d)) => {
                    // SAFETY: `n` stays within the destination region.
                    let out = unsafe { std::slice::from_raw_parts_mut(d.ptr.add(d_off), n) };
                    let t0 = flight::clock(self.fid);
                    self.pack_fill(*packer, s_off, out, *len)
                        .map_err(|(rel, e)| (pos + rel, e))?;
                    flight::record_frag(
                        EventKind::FragPacked,
                        self.fid,
                        t0,
                        n as u64,
                        s_off as u64,
                        self.lc,
                    );
                }
                (ParSrc::Packer { packer, len }, ParDst::Unpacker { unpacker, .. }) => {
                    let mut buf = self.scratch.checkout();
                    buf.resize(n, 0);
                    let t0 = flight::clock(self.fid);
                    let r = self
                        .pack_fill(*packer, s_off, &mut buf[..n], *len)
                        .map_err(|(rel, e)| (pos + rel, e))
                        .and_then(|()| {
                            flight::record_frag(
                                EventKind::FragPacked,
                                self.fid,
                                t0,
                                n as u64,
                                s_off as u64,
                                self.lc,
                            );
                            let t1 = flight::clock(self.fid);
                            {
                                let _sp =
                                    span_acc("unpack", "fabric", n as u64, &self.metrics.unpack_ns);
                                unpacker
                                    .unpack_at(d_off, &buf[..n])
                                    .map_err(|c| (pos, FabricError::UnpackFailed(c)))?;
                            }
                            flight::record_frag(
                                EventKind::FragUnpacked,
                                self.fid,
                                t1,
                                n as u64,
                                d_off as u64,
                                self.lc,
                            );
                            Ok(())
                        });
                    self.scratch.checkin(buf);
                    r?;
                }
            }
            pos += n;
        }
        Ok(())
    }

    /// Fill `out` completely from `packer` starting at segment-local
    /// `offset`, honoring the partial-fill contract. Errors carry the
    /// byte count already filled (relative position).
    fn pack_fill(
        &self,
        packer: &dyn RandomAccessPacker,
        offset: usize,
        out: &mut [u8],
        seg_len: usize,
    ) -> Result<(), (usize, FabricError)> {
        let mut filled = 0usize;
        while filled < out.len() {
            let used = {
                let _sp = span_acc(
                    "pack",
                    "fabric",
                    (out.len() - filled) as u64,
                    &self.metrics.pack_ns,
                );
                packer.pack_at(offset + filled, &mut out[filled..])
            }
            .map_err(|c| (filled, FabricError::PackFailed(c)))?;
            filled += checked_used(
                used,
                out.len() - filled,
                offset + filled,
                seg_len - (offset + filled),
            )
            .map_err(|e| (filled, e))?;
        }
        Ok(())
    }
}

/// Lifetime-erased pointer to a [`JobShared`] on a posting thread's stack.
///
/// # Safety
/// Sound because of three invariants, all enforced in this module:
/// 1. a `JobRef` escapes the queue lock only paired with a claimed
///    fragment index, and the queue entry is removed once every fragment
///    is claimed — no stale reference survives in the queue;
/// 2. after executing its fragment a worker's final access is the
///    `remaining` decrement, and the posting thread cannot observe
///    `remaining == 0` (it must acquire the same mutex) until that access
///    completes;
/// 3. the posting thread does not return — and the `JobShared` does not
///    drop — until it has observed `remaining == 0`.
#[derive(Clone, Copy)]
struct JobRef(*const JobShared<'static>);

// SAFETY: see the invariants above; everything a job references is Sync
// (random-access views) or raw memory covered by the post contracts.
unsafe impl Send for JobRef {}

// ---- the worker pool --------------------------------------------------------

struct QueuedJob {
    job: JobRef,
    next: usize,
    frags: usize,
}

struct PoolQueue {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
    /// Level gauge (`fabric.pipeline.queue`): jobs with unclaimed
    /// fragments. Updated at the push and pop sites, under the queue lock.
    depth_gauge: Arc<telemetry::Gauge>,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work: Condvar,
}

/// Claim the next unclaimed fragment, removing fully-claimed jobs from the
/// queue. Must be called with the queue lock held.
fn claim(q: &mut PoolQueue) -> Option<(JobRef, usize)> {
    let qj = q.jobs.front_mut()?;
    let idx = qj.next;
    let job = qj.job;
    qj.next += 1;
    if qj.next == qj.frags {
        q.jobs.pop_front();
        q.depth_gauge.set(q.jobs.len() as u64);
    }
    Some((job, idx))
}

/// The persistent worker pool plus its scratch ring. One per fabric,
/// spawned lazily on the first eligible transfer and joined when the
/// fabric drops.
pub(crate) struct PipelinePool {
    shared: Arc<PoolShared>,
    scratch: ScratchRing,
    workers: Vec<JoinHandle<()>>,
}

impl PipelinePool {
    /// Spawn `cfg.threads - 1` workers (the posting thread is the last
    /// participant) and record the pool size in the obs registry.
    pub(crate) fn spawn(cfg: PipelineConfig, metrics: &FabricMetrics) -> Self {
        let threads = cfg.threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
                depth_gauge: Arc::clone(&metrics.g_pipeline_queue),
            }),
            work: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mpicd-pipeline-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pipeline worker")
            })
            .collect();
        metrics.pipeline_threads.add(threads as u64);
        Self {
            shared,
            scratch: ScratchRing::new(cfg.depth, Arc::clone(&metrics.g_scratch_free)),
            workers,
        }
    }

    /// Total concurrency, counting the posting thread.
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.workers.len() + 1
    }
}

impl Drop for PipelinePool {
    fn drop(&mut self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let claimed = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(c) = claim(&mut q) {
                    break Some(c);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.work.wait(q);
            }
        };
        match claimed {
            // SAFETY: JobRef invariants (documented on the type).
            Some((job, idx)) => unsafe { (*job.0).exec_fragment(idx) },
            None => return,
        }
    }
}

/// Run one eligible transfer through the pool. Blocks (while participating
/// in the fragment work) until every fragment completes; returns the bytes
/// moved or the lowest-stream-position callback error.
///
/// `fid` is the send-side flight-recorder transfer id (0 = no recording);
/// workers emit `FragPacked`/`FragUnpacked` events against it, stamped
/// with the transfer's merged Lamport clock `lc`.
pub(crate) fn run_parallel(
    pool: &PipelinePool,
    frag_size: usize,
    src: Vec<ParSrc<'_>>,
    dst: Vec<ParDst<'_>>,
    metrics: &FabricMetrics,
    fid: u64,
    lc: u64,
) -> FabricResult<usize> {
    let total: usize = src.iter().map(src_len).sum();
    let frag = frag_size.max(1);
    let frags = total.div_ceil(frag);
    if frags == 0 {
        return Ok(0);
    }

    let mut src_prefix = Vec::with_capacity(src.len() + 1);
    src_prefix.push(0usize);
    for s in &src {
        src_prefix.push(src_prefix.last().unwrap() + src_len(s));
    }
    let mut dst_prefix = Vec::with_capacity(dst.len() + 1);
    dst_prefix.push(0usize);
    for d in &dst {
        dst_prefix.push(dst_prefix.last().unwrap() + dst_len(d));
    }

    let _sp = span_acc("pipeline", "fabric", total as u64, &metrics.pipeline_ns);
    metrics.pipeline_transfers.inc();
    metrics.pipeline_frags.add(frags as u64);

    let job = JobShared {
        frag,
        total,
        src,
        src_prefix,
        dst,
        dst_prefix,
        scratch: &pool.scratch,
        metrics,
        fid,
        lc,
        error: Mutex::new(None),
        remaining: Mutex::new(frags),
        done: Condvar::new(),
    };
    // SAFETY: lifetime erasure justified by the JobRef invariants — this
    // function does not return until `remaining == 0`.
    let jref = JobRef(unsafe {
        std::mem::transmute::<*const JobShared<'_>, *const JobShared<'static>>(&job)
    });

    {
        let mut q = pool.shared.queue.lock();
        q.jobs.push_back(QueuedJob {
            job: jref,
            next: 0,
            frags,
        });
        q.depth_gauge.set(q.jobs.len() as u64);
        pool.shared.work.notify_all();
    }

    // The posting thread participates until nothing is left to claim …
    loop {
        let claimed = {
            let mut q = pool.shared.queue.lock();
            claim(&mut q)
        };
        match claimed {
            // SAFETY: JobRef invariants.
            Some((j, idx)) => unsafe { (*j.0).exec_fragment(idx) },
            None => break,
        }
    }
    // … then waits for workers still finishing claimed fragments.
    {
        let mut g = job.remaining.lock();
        while *g > 0 {
            g = job.done.wait(g);
        }
    }

    if let Some((_, e)) = job.error.lock().take() {
        return Err(e);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WireModel;
    use crate::payload::{FragmentPacker, FragmentUnpacker};
    use crate::transfer::{copy_stream, TransferScratch};
    use mpicd_obs::XorShift64Star;

    /// Offset-addressed test packer over a byte vector; optionally fails
    /// deterministically on any call whose range covers `fail_at`, and
    /// optionally emits at most `max_chunk` bytes per call (partial fills).
    struct TestPacker {
        data: Vec<u8>,
        max_chunk: usize,
        fail_at: Option<(usize, i32)>,
    }

    impl TestPacker {
        fn pack_shared(&self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
            let n = dst.len().min(self.max_chunk).min(self.data.len() - offset);
            if let Some((at, code)) = self.fail_at {
                if offset <= at && at < offset + n.max(1) {
                    return Err(code);
                }
            }
            dst[..n].copy_from_slice(&self.data[offset..offset + n]);
            Ok(n)
        }
    }

    impl FragmentPacker for TestPacker {
        fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
            self.pack_shared(offset, dst)
        }
        fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
            Some(self)
        }
    }

    impl RandomAccessPacker for TestPacker {
        fn pack_at(&self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
            self.pack_shared(offset, dst)
        }
    }

    /// Offset-addressed test unpacker scattering into a raw buffer;
    /// optionally fails on any call whose range covers `fail_at`.
    struct TestUnpacker {
        base: *mut u8,
        len: usize,
        fail_at: Option<(usize, i32)>,
    }

    // SAFETY: concurrent calls receive disjoint ranges (engine contract).
    unsafe impl Send for TestUnpacker {}
    unsafe impl Sync for TestUnpacker {}

    impl TestUnpacker {
        fn unpack_shared(&self, offset: usize, src: &[u8]) -> Result<(), i32> {
            if let Some((at, code)) = self.fail_at {
                if offset <= at && at < offset + src.len() {
                    return Err(code);
                }
            }
            assert!(offset + src.len() <= self.len);
            // SAFETY: in-bounds, disjoint ranges per the engine contract.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), self.base.add(offset), src.len());
            }
            Ok(())
        }
    }

    impl FragmentUnpacker for TestUnpacker {
        fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
            self.unpack_shared(offset, src)
        }
        fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
            Some(self)
        }
    }

    impl RandomAccessUnpacker for TestUnpacker {
        fn unpack_at(&self, offset: usize, src: &[u8]) -> Result<(), i32> {
            self.unpack_shared(offset, src)
        }
    }

    /// One randomized transfer layout, derived from the seed.
    struct Layout {
        payload: Vec<u8>,
        /// Byte lengths of the source segments; index 0 may be a packer.
        src_splits: Vec<usize>,
        src_lead_packer: bool,
        dst_splits: Vec<usize>,
        dst_lead_unpacker: bool,
        frag: usize,
        max_chunk: usize,
        pack_fail: Option<(usize, i32)>,
        unpack_fail: Option<(usize, i32)>,
    }

    fn splits(rng: &mut XorShift64Star, total: usize, parts: usize) -> Vec<usize> {
        let mut v = Vec::new();
        let mut left = total;
        for i in 0..parts {
            let take = if i + 1 == parts {
                left
            } else {
                (rng.next_u64() as usize) % (left + 1)
            };
            v.push(take);
            left -= take;
        }
        v
    }

    fn random_layout(rng: &mut XorShift64Star, with_errors: bool) -> Layout {
        let total = 1 + (rng.next_u64() as usize) % (48 * 1024);
        let payload: Vec<u8> = (0..total)
            .map(|i| (rng.next_u64() as u8).wrapping_add(i as u8))
            .collect();
        let nsrc = 1 + (rng.next_u64() as usize) % 3;
        let ndst = 1 + (rng.next_u64() as usize) % 3;
        let frag = 1 + (rng.next_u64() as usize) % (8 * 1024);
        let max_chunk = 1 + (rng.next_u64() as usize) % 4096;
        let mut fail = |p: i32| -> Option<(usize, i32)> {
            if with_errors && rng.next_u64().is_multiple_of(3) {
                Some(((rng.next_u64() as usize) % total, p))
            } else {
                None
            }
        };
        let pack_fail = fail(17);
        let unpack_fail = fail(23);
        Layout {
            src_splits: splits(rng, total, nsrc),
            src_lead_packer: rng.next_u64().is_multiple_of(2),
            dst_splits: splits(rng, total, ndst),
            dst_lead_unpacker: rng.next_u64().is_multiple_of(2),
            payload,
            frag,
            max_chunk,
            pack_fail,
            unpack_fail,
        }
    }

    /// Drive one layout through an engine (serial or parallel) and return
    /// (reassembled destination bytes, result).
    fn drive(layout: &Layout, pool: Option<&PipelinePool>) -> (Vec<u8>, FabricResult<usize>) {
        let total = layout.payload.len();
        let mut out = vec![0u8; total];
        let model = WireModel {
            frag_size: layout.frag,
            ..WireModel::zero_cost()
        };
        let metrics = FabricMetrics::detached();

        // Source segments.
        let mut packers: Vec<TestPacker> = Vec::new();
        let mut bounds = Vec::new();
        let mut at = 0usize;
        for (i, len) in layout.src_splits.iter().enumerate() {
            bounds.push((at, *len, i == 0 && layout.src_lead_packer));
            at += len;
        }
        for &(start, len, is_packer) in &bounds {
            if is_packer {
                packers.push(TestPacker {
                    data: layout.payload[start..start + len].to_vec(),
                    max_chunk: layout.max_chunk,
                    fail_at: layout.pack_fail.and_then(|(p, c)| {
                        (p >= start && p < start + len).then_some((p - start, c))
                    }),
                });
            }
        }
        let mut packer_iter = packers.iter_mut();
        let mut src_segs: Vec<SrcSeg<'_>> = Vec::new();
        for &(start, len, is_packer) in &bounds {
            if is_packer {
                src_segs.push(SrcSeg::Packer {
                    packer: packer_iter.next().unwrap(),
                    len,
                });
            } else {
                src_segs.push(SrcSeg::Mem(IovEntry {
                    ptr: layout.payload[start..].as_ptr(),
                    len,
                }));
            }
        }

        // Destination segments.
        let mut unpackers: Vec<TestUnpacker> = Vec::new();
        let mut dbounds = Vec::new();
        at = 0;
        for (i, len) in layout.dst_splits.iter().enumerate() {
            dbounds.push((at, *len, i == 0 && layout.dst_lead_unpacker));
            at += len;
        }
        for &(start, len, is_unpacker) in &dbounds {
            if is_unpacker {
                unpackers.push(TestUnpacker {
                    base: out[start..].as_mut_ptr(),
                    len,
                    fail_at: layout.unpack_fail.and_then(|(p, c)| {
                        (p >= start && p < start + len).then_some((p - start, c))
                    }),
                });
            }
        }
        let mut unpacker_iter = unpackers.iter_mut();
        let mut dst_segs: Vec<DstSeg<'_>> = Vec::new();
        for &(start, len, is_unpacker) in &dbounds {
            if is_unpacker {
                dst_segs.push(DstSeg::Unpacker {
                    unpacker: unpacker_iter.next().unwrap(),
                    len,
                });
            } else {
                dst_segs.push(DstSeg::Mem(IovEntryMut {
                    ptr: out[start..].as_mut_ptr(),
                    len,
                }));
            }
        }

        let r = match pool {
            None => copy_stream(
                &model,
                &mut src_segs,
                &mut dst_segs,
                false,
                &metrics,
                &mut TransferScratch::default(),
                0,
                0,
            ),
            Some(pool) => {
                let (ps, pd) =
                    parallel_view(&src_segs, &dst_segs).expect("test segments are random-access");
                run_parallel(pool, model.frag_size, ps, pd, &metrics, 0, 0)
            }
        };
        drop(src_segs);
        drop(dst_segs);
        (out, r)
    }

    /// The satellite property test: across random segment layouts,
    /// fragment sizes, thread counts and mid-stream callback errors, the
    /// pipelined engine is byte-identical to the serial `copy_stream` and
    /// surfaces the same first error.
    #[test]
    fn pipelined_engine_matches_serial_property() {
        let metrics = FabricMetrics::detached();
        let pools: Vec<PipelinePool> = [1usize, 2, 4]
            .iter()
            .map(|&t| PipelinePool::spawn(PipelineConfig::with_threads(t), &metrics))
            .collect();
        let mut rng = XorShift64Star::new(0x5eed_cafe_d00d_f00d);
        for case in 0..120 {
            let with_errors = case % 2 == 1;
            let layout = random_layout(&mut rng, with_errors);
            let (serial_out, serial_r) = drive(&layout, None);
            for pool in &pools {
                let (par_out, par_r) = drive(&layout, Some(pool));
                match (&serial_r, &par_r) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "case {case}: bytes moved");
                        assert_eq!(
                            par_out,
                            serial_out,
                            "case {case}, {} threads: byte identity",
                            pool.threads()
                        );
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "case {case}: same first error surfaced");
                    }
                    (a, b) => panic!(
                        "case {case}, {} threads: serial {a:?} vs parallel {b:?}",
                        pool.threads()
                    ),
                }
            }
        }
    }

    #[test]
    fn streaming_callbacks_are_rejected() {
        // A plain closure packer has no random-access view, so the
        // parallel engine must refuse the transfer (serial fallback).
        let mut closure = |_o: usize, _d: &mut [u8]| Ok(0usize);
        let src = [SrcSeg::Packer {
            packer: &mut closure,
            len: 8,
        }];
        let mut out = [0u8; 8];
        let dst = [DstSeg::Mem(IovEntryMut::from_slice(&mut out))];
        assert!(parallel_view(&src, &dst).is_none());
    }

    #[test]
    fn mem_only_transfers_are_eligible() {
        let a = [1u8, 2, 3, 4];
        let mut b = [0u8; 4];
        let src = [SrcSeg::Mem(IovEntry::from_slice(&a))];
        let dst = [DstSeg::Mem(IovEntryMut::from_slice(&mut b))];
        assert!(parallel_view(&src, &dst).is_some());
    }

    #[test]
    fn scratch_ring_is_bounded_and_recycles() {
        let ring = ScratchRing::new(2, Arc::new(telemetry::Gauge::standalone()));
        let b1 = ring.checkout();
        let b2 = ring.checkout();
        ring.checkin(b1);
        let b3 = ring.checkout(); // recycled, not newly issued
        assert_eq!(ring.state.lock().issued, 2);
        ring.checkin(b2);
        ring.checkin(b3);
    }

    /// The pool's worker is parked on an empty queue when a job arrives.
    /// The posting thread holds its first fragment until another thread
    /// has packed one, so the transfer only finishes if queueing the job
    /// woke the parked worker.
    #[test]
    fn parked_worker_wakes_for_a_queued_job() {
        use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};
        use std::thread::ThreadId;
        use std::time::Duration;

        struct NeedsHelper {
            poster: ThreadId,
            helped: (StdMutex<bool>, StdCondvar),
        }
        impl RandomAccessPacker for NeedsHelper {
            fn pack_at(&self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
                let (m, cv) = &self.helped;
                if std::thread::current().id() == self.poster {
                    let g = m.lock().unwrap();
                    let (g, _) = cv
                        .wait_timeout_while(g, Duration::from_secs(30), |h| !*h)
                        .unwrap();
                    if !*g {
                        return Err(99);
                    }
                } else {
                    *m.lock().unwrap() = true;
                    cv.notify_all();
                }
                for (i, b) in dst.iter_mut().enumerate() {
                    *b = (offset + i) as u8;
                }
                Ok(dst.len())
            }
        }

        let metrics = FabricMetrics::detached();
        let pool = PipelinePool::spawn(PipelineConfig::with_threads(2), &metrics);
        // Give the worker time to find the queue empty and park.
        std::thread::sleep(Duration::from_millis(20));
        let packer = NeedsHelper {
            poster: std::thread::current().id(),
            helped: (StdMutex::new(false), StdCondvar::new()),
        };
        let mut out = vec![0u8; 64];
        let src = vec![ParSrc::Packer {
            packer: &packer,
            len: 64,
        }];
        let dst = vec![ParDst::Mem(IovEntryMut::from_slice(&mut out))];
        assert_eq!(run_parallel(&pool, 32, src, dst, &metrics, 0, 0), Ok(64));
        let want: Vec<u8> = (0..64u8).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn pack_stall_is_reported() {
        let metrics = FabricMetrics::detached();
        let pool = PipelinePool::spawn(PipelineConfig::with_threads(2), &metrics);
        struct Stall;
        impl RandomAccessPacker for Stall {
            fn pack_at(&self, _o: usize, _d: &mut [u8]) -> Result<usize, i32> {
                Ok(0)
            }
        }
        let stall = Stall;
        let mut out = vec![0u8; 64];
        let src = vec![ParSrc::Packer {
            packer: &stall,
            len: 64,
        }];
        let dst = vec![ParDst::Mem(IovEntryMut::from_slice(&mut out))];
        let err = run_parallel(&pool, 16, src, dst, &metrics, 0, 0).unwrap_err();
        assert!(matches!(err, FabricError::PackStalled { .. }));
    }
}

/// Model-checked pipeline protocol tests. Run with
/// `RUSTFLAGS="--cfg mpicd_check" cargo test -p mpicd-fabric`; under that
/// cfg the `mpicd_obs::sync` primitives used by this module resolve to the
/// instrumented `mpicd-check` versions and these tests explore thread
/// interleavings exhaustively (bounded DFS) plus randomized PCT schedules.
#[cfg(all(test, mpicd_check))]
mod model_tests {
    use super::*;
    use mpicd_check::{model, thread as mthread};

    /// Depth-1 scratch ring shared by two threads: checkout blocks until
    /// the other side's checkin, so every interleaving must hand the single
    /// buffer across without deadlock or over-issuing.
    #[test]
    fn scratch_ring_hands_single_buffer_across_threads() {
        model(|| {
            let ring = Arc::new(ScratchRing::new(
                1,
                Arc::new(telemetry::Gauge::standalone()),
            ));
            let r = Arc::clone(&ring);
            let t = mthread::spawn(move || {
                let mut b = r.checkout();
                b.push(1);
                r.checkin(b);
            });
            let mut b = ring.checkout();
            b.push(2);
            ring.checkin(b);
            t.join();
            let st = ring.state.lock();
            assert!(st.issued <= st.depth, "ring never over-issues buffers");
            assert_eq!(
                st.free.len(),
                st.issued,
                "every issued buffer is back in the pool"
            );
        });
    }

    /// A checkout blocked at `depth` races the checkin that frees a slot.
    /// `checkin` notifies after dropping the guard, so the parked-waiter
    /// count is read outside the critical section: in every interleaving
    /// the blocked checkout still wakes and takes the returned buffer.
    #[test]
    fn checkout_blocked_at_depth_wakes_on_checkin() {
        model(|| {
            let ring = Arc::new(ScratchRing::new(
                1,
                Arc::new(telemetry::Gauge::standalone()),
            ));
            let mut held = ring.checkout();
            held.push(7);
            let r = Arc::clone(&ring);
            let blocked = mthread::spawn(move || r.checkout());
            ring.checkin(held);
            let b = blocked.join();
            assert_eq!(b, vec![7], "the blocked checkout gets the returned buffer");
            assert_eq!(ring.state.lock().issued, 1, "no second buffer was issued");
        });
    }

    /// Three fragments complete in any order; two fail at different stream
    /// positions. Whatever the schedule, the posting side wakes only after
    /// the last completion and observes the lowest-position error.
    #[test]
    fn lowest_position_error_wins_and_last_fragment_notifies() {
        model(|| {
            let error = Arc::new(Mutex::new(None));
            let remaining = Arc::new(Mutex::new(3usize));
            let done = Arc::new(Condvar::new());
            let frag = |pos: Option<usize>| {
                let error = Arc::clone(&error);
                let remaining = Arc::clone(&remaining);
                let done = Arc::clone(&done);
                mthread::spawn(move || {
                    if let Some(p) = pos {
                        record_error(&error, p, FabricError::PackFailed(p as i32));
                    }
                    complete_fragment(&remaining, &done);
                })
            };
            let t1 = frag(Some(200));
            let t2 = frag(Some(100));
            // The posting thread runs the non-failing fragment inline …
            complete_fragment(&remaining, &done);
            // … then waits for the stragglers, exactly like `run_parallel`.
            {
                let mut g = remaining.lock();
                while *g > 0 {
                    g = done.wait(g);
                }
            }
            t1.join();
            t2.join();
            let (pos, err) = error.lock().take().expect("a failure was recorded");
            assert_eq!(pos, 100, "lowest-stream-position error wins");
            assert!(matches!(err, FabricError::PackFailed(100)));
        });
    }

    /// Queued fragments are claimed exactly once across competing workers,
    /// and the fully-claimed job leaves the queue.
    #[test]
    fn fragments_are_claimed_exactly_once() {
        model(|| {
            let shared = Arc::new(PoolShared {
                queue: Mutex::new(PoolQueue {
                    jobs: VecDeque::new(),
                    shutdown: false,
                    depth_gauge: Arc::new(telemetry::Gauge::standalone()),
                }),
                work: Condvar::new(),
            });
            let seen = Arc::new(Mutex::new(Vec::new()));
            {
                let mut q = shared.queue.lock();
                // The JobRef is a placeholder: this test only exercises
                // queue claiming and never dereferences it.
                q.jobs.push_back(QueuedJob {
                    job: JobRef(std::ptr::null()),
                    next: 0,
                    frags: 3,
                });
            }
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    let seen = Arc::clone(&seen);
                    mthread::spawn(move || {
                        while let Some((_, idx)) = {
                            let mut q = shared.queue.lock();
                            claim(&mut q)
                        } {
                            seen.lock().push(idx);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join();
            }
            let mut idxs = std::mem::take(&mut *seen.lock());
            idxs.sort_unstable();
            assert_eq!(idxs, vec![0, 1, 2], "each fragment claimed exactly once");
            assert!(
                shared.queue.lock().jobs.is_empty(),
                "fully-claimed job left the queue"
            );
        });
    }

    /// The `Drop` shutdown protocol: idle workers parked in `work.wait`
    /// must all observe the shutdown flag and exit — in every
    /// interleaving of flag-set, notify, and late arrivals (a lost-wakeup
    /// bug here would deadlock the fabric drop).
    #[test]
    fn worker_pool_shutdown_wakes_every_worker() {
        model(|| {
            let shared = Arc::new(PoolShared {
                queue: Mutex::new(PoolQueue {
                    jobs: VecDeque::new(),
                    shutdown: false,
                    depth_gauge: Arc::new(telemetry::Gauge::standalone()),
                }),
                work: Condvar::new(),
            });
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    mthread::spawn(move || worker_loop(&shared))
                })
                .collect();
            shared.queue.lock().shutdown = true;
            shared.work.notify_all();
            for w in workers {
                w.join();
            }
        });
    }
}
