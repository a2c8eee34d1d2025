//! The worker pool of the fragment engine: runs the fragments of one
//! matched transfer concurrently.
//!
//! Plan-backed packers are *offset-addressed*: any fragment of the packed
//! stream can be produced or consumed independently. An [`Engine`] with
//! more than one thread hands runs of such fragments ("jobs") to a
//! persistent, lazily-spawned worker pool — the CPU-side analogue of the
//! overlapped fragment pipelining UCX does on the wire (paper §IV, Fig. 5).
//! Which bytes the pool may take is decided per segment, and whether it
//! takes them by their modeled cost (see [`pool_part`]); everything else
//! runs inline on the posting thread. Both paths move bytes through the
//! one fragment walker, `transfer::move_range`.
//!
//! * **Bounded scratch ring.** Packer→unpacker fragments stage through
//!   recycled per-job buffers; at most
//!   [`PipelineConfig`](crate::config::PipelineConfig)::`depth` are ever
//!   checked out, bounding memory regardless of transfer size.
//! * **First error wins.** Workers never stop mid-transfer; every callback
//!   error is recorded with its stream position and the *lowest-position*
//!   error is surfaced — the one the in-order walk would have returned
//!   first. Which later callbacks also ran is unspecified on error.
//! * **The posting thread participates.** It drains the job queue
//!   alongside the `threads - 1` workers, then waits for stragglers.

// Audited unsafe: lifetime-erased job sharing (see JobRef safety argument); every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::config::PipelineConfig;
use crate::error::{FabricError, FabricResult};
use crate::payload::{
    FragmentPacker, FragmentUnpacker, IovEntry, IovEntryMut, RandomAccessPacker,
    RandomAccessUnpacker,
};
use crate::stats::{FabricMetrics, FabricStats};
use crate::transfer::{move_range, run_inline, At, Stream, Walk};
use mpicd_obs::sync::atomic::Ordering;
use mpicd_obs::sync::{Condvar, Mutex};
use mpicd_obs::trace::span_acc;
use mpicd_obs::Gauge;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Modeled work per pool job, ns: about the measured cost of handing work
/// to the pool — queueing it, waking a worker, waiting for the last job.
const JOB_NS: usize = 20_000;

/// Fewest jobs worth a hand-off: less work runs no faster on two lanes.
const MIN_JOBS: usize = 3;

/// Modeled copy rate, bytes/ns, and cost per region or run, ns: fitted to
/// where pooling the `ddt_faces` cells started to win (DESIGN.md §6c).
const COPY_BYTES_PER_NS: usize = 8;
const REGION_NS: usize = 5;

/// The fabric's fragment engine: its thread count and the worker pool,
/// spawned on the first transfer handed to it.
pub(crate) struct Engine {
    pub(crate) cfg: PipelineConfig,
    pub(crate) pool: OnceLock<PipelinePool>,
}

/// A transfer's callback as the pool reaches it: its random-access view,
/// or `None` for a streaming callback, whose bytes never reach the pool.
type PoolSrc<'a> = Stream<'a, Option<&'a dyn RandomAccessPacker>, IovEntry>;
type PoolDst<'a> = Stream<'a, Option<&'a dyn RandomAccessUnpacker>, IovEntryMut>;

impl Engine {
    /// Move the `total` bytes of a matched transfer.
    ///
    /// With one thread, or for a sender that set `inorder`, every byte runs
    /// inline on the posting thread. Otherwise the [`pool_part`], if any,
    /// goes to the pool (counted in `stats`) and the bytes before it run
    /// inline; the decision depends on the transfer's shape alone. On an
    /// `ooo_wire`, inline bytes reach the unpacker in reverse (see
    /// [`run_inline`]) and the pool claims its jobs last first.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &self,
        w: &Walk<'_>,
        stats: &FabricStats,
        src: &mut Stream<'_, &mut dyn FragmentPacker, IovEntry>,
        dst: &mut Stream<'_, &mut dyn FragmentUnpacker, IovEntryMut>,
        total: usize,
        inorder: bool,
        ooo_wire: bool,
        stage: &mut Vec<u8>,
    ) -> FabricResult<()> {
        let reverse = ooo_wire && !inorder;
        let part = (self.cfg.threads > 1 && !inorder)
            .then(|| pool_part(w.frag, src, dst, total))
            .flatten();
        let Some((lo, span)) = part else {
            return run_inline(w, src, dst, total, reverse, stage).map(drop);
        };
        let (sa, da) = run_inline(w, src, dst, lo, reverse, stage)?;
        let pool = self
            .pool
            .get_or_init(|| PipelinePool::spawn(self.cfg, w.metrics));
        stats.record_pipelined();
        let (s, d) = (
            src.view(|p| p.random_access()),
            dst.view(|u| u.random_access()),
        );
        run_pooled(pool, w, s, d, (lo, span, total, reverse), sa, da)
    }
}

/// The pool part of a transfer, if it goes to the pool: where it starts
/// and the bytes per job.
///
/// It starts at the first fragment boundary past every byte under a
/// streaming callback segment. Its work is modeled from its shape alone:
/// [`REGION_NS`] per region and per run a callback reports
/// ([`RandomAccessPacker::runs`]), one ns per [`COPY_BYTES_PER_NS`] bytes,
/// and a whole job per fragment of a callback that reports none. Jobs
/// are runs of fragments worth about [`JOB_NS`], at least [`MIN_JOBS`] of
/// them. Memory alone is pooled if the model makes [`MIN_JOBS`] jobs;
/// callback bytes from [`MIN_JOBS`] fragments on, since reported runs
/// bound a callback's cost only from below (DESIGN.md §6c).
fn pool_part(
    frag: usize,
    src: &Stream<'_, &mut dyn FragmentPacker, IovEntry>,
    dst: &Stream<'_, &mut dyn FragmentUnpacker, IovEntryMut>,
    total: usize,
) -> Option<(usize, usize)> {
    if total <= (MIN_JOBS - 1).saturating_mul(frag) {
        return None;
    }
    // Each callback segment: its length, and `None` if it is streaming,
    // else the runs it reports.
    let s = src
        .cb
        .as_ref()
        .map(|(p, len)| (p.random_access().map(|v| v.runs()), *len));
    let d = dst
        .cb
        .as_ref()
        .map(|(u, len)| (u.random_access().map(|v| v.runs()), *len));
    let cbs = [s, d].into_iter().flatten();
    let streamed = cbs.clone().filter(|(v, _)| v.is_none()).map(|(_, len)| len);
    let lo = streamed.max().unwrap_or(0).next_multiple_of(frag);
    let bytes = total.saturating_sub(lo);
    let frags = bytes.div_ceil(frag);
    // Fragments of the part holding random-access callback bytes, and
    // those of a callback that reports no runs.
    let called = |opaque: bool| {
        cbs.clone()
            .filter(|(v, _)| v.is_some_and(|r| !opaque || r.is_none()))
            .map(|(_, len)| len.saturating_sub(lo).div_ceil(frag))
            .max()
            .unwrap_or(0)
    };
    let runs = cbs
        .clone()
        .filter_map(|(v, _)| v.flatten())
        .fold(src.mem.len() + dst.mem.len(), usize::saturating_add);
    let work = called(true)
        .saturating_mul(JOB_NS)
        .saturating_add(runs.saturating_mul(REGION_NS))
        .saturating_add(bytes / COPY_BYTES_PER_NS);
    let per_job = JOB_NS.div_ceil(work.div_ceil(frags.max(1)).max(1));
    let pooled = frags.div_ceil(per_job) >= MIN_JOBS || (called(false) > 0 && frags >= MIN_JOBS);
    let per_job = per_job.min(frags / MIN_JOBS).max(1);
    pooled.then_some((lo, per_job * frag))
}

// ---- bounded scratch ring ---------------------------------------------------

/// Bounded ring of pooled per-job staging buffers. Checkout blocks
/// when `depth` buffers are already out; buffers are recycled for the
/// lifetime of the pool.
struct ScratchRing {
    state: Mutex<RingState>,
    returned: Condvar,
    /// Level gauge (`fabric.scratch_free`): slots still available for
    /// checkout. A sustained low reading means jobs are stalling on
    /// staging buffers (raise `MPICD_PIPELINE_DEPTH`).
    gauge: Arc<Gauge>,
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
    fn new(depth: usize, gauge: Arc<Gauge>) -> Self {
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

/// Shared state of one pooled transfer, stack-allocated by the posting
/// thread, which blocks until `remaining` hits zero. Workers reach it
/// through a lifetime-erased pointer that provably never outlives it (see
/// the safety argument on [`JobRef`]).
struct JobShared<'a> {
    walk: &'a Walk<'a>,
    /// Stream offset where job 0 starts.
    lo: usize,
    /// Bytes per job (a multiple of the fragment size); the last job ends
    /// at `total`.
    span: usize,
    total: usize,
    /// Jobs are claimed last first (an out-of-order wire).
    reverse: bool,
    src: PoolSrc<'a>,
    dst: PoolDst<'a>,
    /// Each job's (source, destination) start cursors.
    starts: Vec<(At, At)>,
    scratch: &'a ScratchRing,
    /// Lowest-stream-position callback error (position, error).
    error: Mutex<Option<(usize, FabricError)>>,
    /// Jobs not yet finished; guarded decrement, last one notifies.
    remaining: Mutex<usize>,
    done: Condvar,
}

/// Record `(pos, e)` into the job's error slot unless an error at an
/// equal-or-lower stream position is already there: concurrent jobs
/// can fail in any order, but the transfer reports the error closest to
/// the start of the stream, matching what the in-order walk would hit
/// first.
fn record_error(slot: &Mutex<Option<(usize, FabricError)>>, pos: usize, e: FabricError) {
    let mut g = slot.lock();
    match &*g {
        Some((p, _)) if *p <= pos => {}
        _ => *g = Some((pos, e)),
    }
}

/// Retire one job: decrement the remaining count under its mutex and
/// notify the posting thread on the last one. The decrement must be the
/// final touch of job state (see [`JobRef`]).
fn complete_job(remaining: &Mutex<usize>, done: &Condvar) {
    let mut g = remaining.lock();
    *g -= 1;
    if *g == 0 {
        done.notify_all();
    }
}

impl JobShared<'_> {
    /// Execute job `idx`, record any error, and signal completion.
    /// The completion decrement is the **last** touch of job state: once
    /// the posting thread observes `remaining == 0` (which requires this
    /// mutex), no worker dereferences the job again.
    fn exec_job(&self, idx: usize) {
        let idx = if self.reverse {
            self.starts.len() - 1 - idx
        } else {
            idx
        };
        let lo = self.lo + idx * self.span;
        let hi = self.total.min(lo + self.span);
        let (mut src, mut dst) = (self.src, self.dst);
        let (mut sa, mut da) = self.starts[idx];
        let staged = src.cb.is_some() && dst.cb.is_some();
        let mut buf = if staged {
            self.scratch.checkout()
        } else {
            Vec::new()
        };
        let r = move_range(
            self.walk, &mut src, &mut dst, lo, hi, &mut sa, &mut da, &mut buf, false,
        );
        if staged {
            self.scratch.checkin(buf);
        }
        if let Err((pos, e)) = r {
            record_error(&self.error, pos, e);
        }
        complete_job(&self.remaining, &self.done);
    }
}

/// Lifetime-erased pointer to a [`JobShared`] on a posting thread's stack.
///
/// # Safety
/// Sound because of three invariants, all enforced in this module:
/// 1. a `JobRef` escapes the queue lock only paired with a claimed
///    job index, and the queue entry is removed once every job
///    is claimed — no stale reference survives in the queue;
/// 2. after executing its job a worker's final access is the
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

/// A queued transfer: jobs `next..jobs` are still unclaimed.
struct QueuedJob {
    job: JobRef,
    next: usize,
    jobs: usize,
}

struct PoolQueue {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
    /// Level gauge (`fabric.pipeline.queue`): transfers with unclaimed
    /// jobs. Updated at the push and pop sites, under the queue lock.
    depth_gauge: Arc<Gauge>,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work: Condvar,
}

/// Claim the next unclaimed job, removing fully-claimed transfers from the
/// queue. Must be called with the queue lock held.
fn claim(q: &mut PoolQueue) -> Option<(JobRef, usize)> {
    let qj = q.jobs.front_mut()?;
    let idx = qj.next;
    let job = qj.job;
    qj.next += 1;
    if qj.next == qj.jobs {
        q.jobs.pop_front();
        q.depth_gauge.set(q.jobs.len() as u64);
    }
    Some((job, idx))
}

/// The persistent worker pool plus its scratch ring. One per fabric,
/// spawned lazily on the first transfer it takes and joined when the
/// fabric drops.
pub(crate) struct PipelinePool {
    shared: Arc<PoolShared>,
    scratch: ScratchRing,
    workers: Vec<JoinHandle<()>>,
}

impl PipelinePool {
    /// Spawn `cfg.threads - 1` workers (the posting thread is the last
    /// participant) and record the pool size in the obs registry. A worker
    /// the OS refuses is left out: the posting thread still drains every
    /// job, so the pool only runs narrower.
    pub(crate) fn spawn(cfg: PipelineConfig, metrics: &FabricMetrics) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
                depth_gauge: Arc::clone(&metrics.g_pipeline_queue),
            }),
            work: Condvar::new(),
        });
        let workers: Vec<_> = (1..cfg.threads)
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mpicd-pipeline-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| eprintln!("mpicd: pipeline worker {i} not spawned: {e}"))
                    .ok()
            })
            .collect();
        metrics.pipeline_threads.add(workers.len() as u64 + 1);
        Self {
            shared,
            scratch: ScratchRing::new(cfg.depth, Arc::clone(&metrics.g_scratch_free)),
            workers,
        }
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
            Some((job, idx)) => unsafe { (*job.0).exec_job(idx) },
            None => return,
        }
    }
}

/// Run stream bytes `[lo, total)` of a transfer through the pool as jobs
/// of `span` bytes, from the cursors `sa`/`da` (at or before `lo`), the
/// last job first if `reverse` is set. Blocks
/// (while participating in the work) until every job completes; returns
/// the lowest-stream-position callback error, if any.
fn run_pooled(
    pool: &PipelinePool,
    w: &Walk<'_>,
    src: PoolSrc<'_>,
    dst: PoolDst<'_>,
    (lo, span, total, reverse): (usize, usize, usize, bool),
    mut sa: At,
    mut da: At,
) -> FabricResult<()> {
    let jobs = (total - lo).div_ceil(span);
    let _sp = span_acc(
        "pipeline",
        "fabric",
        (total - lo) as u64,
        &w.metrics.pipeline_ns,
    );
    w.metrics.pipeline_transfers.inc();
    w.metrics
        .pipeline_frags
        .add((total - lo).div_ceil(w.frag) as u64);
    // Every worker may run jobs, and so may the posting thread.
    w.lanes
        .store(pool.workers.len() as u64 + 1, Ordering::Relaxed);

    // Each job's start cursors, in one pass over both segment lists.
    let starts = (0..jobs)
        .map(|j| {
            src.seek(&mut sa, lo + j * span);
            dst.seek(&mut da, lo + j * span);
            (sa, da)
        })
        .collect();
    let job = JobShared {
        walk: w,
        lo,
        span,
        total,
        reverse,
        src,
        dst,
        starts,
        scratch: &pool.scratch,
        error: Mutex::new(None),
        remaining: Mutex::new(jobs),
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
            jobs,
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
            Some((j, idx)) => unsafe { (*j.0).exec_job(idx) },
            None => break,
        }
    }
    // … then waits for workers still finishing claimed jobs.
    {
        let mut g = job.remaining.lock();
        while *g > 0 {
            g = job.done.wait(g);
        }
    }

    if let Some((_, e)) = job.error.lock().take() {
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpicd_obs::XorShift64Star;

    /// Offset-addressed test packer over a byte vector; optionally fails
    /// deterministically on any call whose range covers `fail_at`, and
    /// emits at most `max_chunk` bytes per call (partial fills). A
    /// `streaming` one offers no random-access view.
    struct TestPacker {
        data: Vec<u8>,
        max_chunk: usize,
        fail_at: Option<(usize, i32)>,
        streaming: bool,
        runs: Option<usize>,
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
            (!self.streaming).then_some(self as &dyn RandomAccessPacker)
        }
    }

    impl RandomAccessPacker for TestPacker {
        fn pack_at(&self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
            self.pack_shared(offset, dst)
        }
        fn runs(&self) -> Option<usize> {
            self.runs
        }
    }

    /// Offset-addressed test unpacker scattering into a raw buffer;
    /// optionally fails on any call whose range covers `fail_at`. A
    /// `streaming` one offers no random-access view.
    struct TestUnpacker {
        base: *mut u8,
        len: usize,
        fail_at: Option<(usize, i32)>,
        streaming: bool,
        runs: Option<usize>,
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
            (!self.streaming).then_some(self as &dyn RandomAccessUnpacker)
        }
    }

    impl RandomAccessUnpacker for TestUnpacker {
        fn unpack_at(&self, offset: usize, src: &[u8]) -> Result<(), i32> {
            self.unpack_shared(offset, src)
        }
        fn runs(&self) -> Option<usize> {
            self.runs
        }
    }

    /// One side of a randomized layout: an optional leading callback
    /// segment of `cb` bytes (streaming, or random-access reporting
    /// `runs` or not), then memory regions of `mem` bytes each.
    struct Side {
        cb: Option<usize>,
        streaming: bool,
        runs: Option<usize>,
        mem: Vec<usize>,
    }

    impl Side {
        /// Bytes the pool may not take: a streaming callback's.
        fn streamed(&self) -> usize {
            self.cb.filter(|_| self.streaming).unwrap_or(0)
        }
    }

    /// One randomized transfer layout, derived from the seed; failures sit
    /// at stream offsets inside the callback segments.
    struct Layout {
        payload: Vec<u8>,
        src: Side,
        dst: Side,
        frag: usize,
        max_chunk: usize,
        pack_fail: Option<usize>,
        unpack_fail: Option<usize>,
    }

    const PACK_CODE: i32 = 17;
    const UNPACK_CODE: i32 = 23;

    /// Split `total` into `parts` random lengths (zero lengths included).
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

    /// One side's segments over `total` bytes: a callback segment (often
    /// zero-length: a region-only context) in front of a few regions, or
    /// in front of many small ones with their own boundaries.
    fn random_side(rng: &mut XorShift64Star, total: usize) -> Side {
        let mut lens = match rng.range(0, 4) {
            0 => {
                let each = rng.range(1, 65);
                let mut lens = vec![each; total / each];
                lens.push(total % each);
                lens
            }
            _ => {
                let parts = 1 + rng.range(0, 6);
                splits(rng, total, parts)
            }
        };
        let cb = match rng.range(0, 4) {
            0 => None,
            1 => Some(0),
            _ => Some(lens.remove(0)),
        };
        Side {
            cb,
            streaming: rng.chance(1, 3),
            runs: rng.chance(1, 2).then(|| rng.range(1, 64)),
            mem: lens,
        }
    }

    fn random_layout(rng: &mut XorShift64Star, with_errors: bool) -> Layout {
        let total = 1 + (rng.next_u64() as usize) % (48 * 1024);
        let payload: Vec<u8> = (0..total)
            .map(|i| (rng.next_u64() as u8).wrapping_add(i as u8))
            .collect();
        let src = random_side(rng, total);
        let dst = random_side(rng, total);
        let mut fail = |cb: Option<usize>| match cb {
            Some(len) if len > 0 && with_errors && rng.next_u64().is_multiple_of(2) => {
                Some((rng.next_u64() as usize) % len)
            }
            _ => None,
        };
        let pack_fail = fail(src.cb);
        let unpack_fail = fail(dst.cb);
        let frag = match rng.range(0, 4) {
            0 => rng.range(1, 17),
            _ => rng.range(1, 8 * 1024 + 1),
        };
        Layout {
            payload,
            src,
            dst,
            frag,
            max_chunk: 1 + (rng.next_u64() as usize) % 4096,
            pack_fail,
            unpack_fail,
        }
    }

    /// Region lengths → (start, len) pairs from stream offset `at`.
    fn regions(at: usize, lens: &[usize]) -> Vec<(usize, usize)> {
        let mut at = at;
        lens.iter()
            .map(|&len| {
                at += len;
                (at - len, len)
            })
            .collect()
    }

    /// The error the fragment engine must surface for `layout`, straight
    /// from the layout, when bytes `[0, split)` run on the inline side. In
    /// stream order, a failing callback's error belongs to the piece (the
    /// intersection of a fragment, a source and a destination segment)
    /// that holds its offset, and a piece packs before it unpacks; the
    /// earliest such error wins, wherever the split put it. With `reverse`,
    /// the unpacker's bytes below the split are delivered after every pack
    /// below it and before anything above it.
    fn expected_error(layout: &Layout, split: usize, reverse: bool) -> Option<FabricError> {
        let cuts: Vec<usize> = regions(layout.src.cb.unwrap_or(0), &layout.src.mem)
            .into_iter()
            .chain(regions(layout.dst.cb.unwrap_or(0), &layout.dst.mem))
            .map(|(start, _)| start)
            .collect();
        let piece = |x: usize| {
            cuts.iter()
                .copied()
                .filter(|&c| c <= x)
                .fold(x / layout.frag * layout.frag, usize::max)
        };
        let pack = layout
            .pack_fail
            .map(|p| ((piece(p), 1), FabricError::PackFailed(PACK_CODE)));
        let unpack = layout.unpack_fail.map(|q| {
            let key = if reverse && q < split {
                (split, 0)
            } else {
                (piece(q), 2)
            };
            (key, FabricError::UnpackFailed(UNPACK_CODE))
        });
        pack.into_iter()
            .chain(unpack)
            .min_by_key(|(key, _)| *key)
            .map(|(_, e)| e)
    }

    /// Where the pool part of `layout` starts under `engine`, if it could
    /// have one: the first fragment boundary past every streaming callback
    /// segment, with at least three fragments after it.
    fn pool_start(engine: &Engine, layout: &Layout, inorder: bool) -> Option<usize> {
        let first = (layout.src.streamed())
            .max(layout.dst.streamed())
            .next_multiple_of(layout.frag);
        let total = layout.payload.len();
        (engine.cfg.threads > 1 && !inorder && total.saturating_sub(first) > 2 * layout.frag)
            .then_some(first)
    }

    /// Drive one layout through `engine` and return (destination bytes,
    /// result, whether the pool ran it).
    fn drive(
        engine: &Engine,
        layout: &Layout,
        inorder: bool,
        ooo_wire: bool,
    ) -> (Vec<u8>, FabricResult<()>, bool) {
        let total = layout.payload.len();
        let mut out = vec![0u8; total];
        let metrics = FabricMetrics::new(&mpicd_obs::Registry::new());
        let stats = FabricStats::default();
        let w = Walk::new(layout.frag, &metrics, false, false);
        let src_at = layout.src.cb.unwrap_or(0);
        let src_mem: Vec<IovEntry> = regions(src_at, &layout.src.mem)
            .iter()
            .map(|&(start, len)| IovEntry::from_slice(&layout.payload[start..start + len]))
            .collect();
        let mut packer = layout.src.cb.map(|len| TestPacker {
            data: layout.payload[..len].to_vec(),
            max_chunk: layout.max_chunk,
            fail_at: layout.pack_fail.map(|p| (p, PACK_CODE)),
            streaming: layout.src.streaming,
            runs: layout.src.runs,
        });
        let dst_at = layout.dst.cb.unwrap_or(0);
        let dst_mem: Vec<IovEntryMut> = regions(dst_at, &layout.dst.mem)
            .iter()
            .map(|&(start, len)| IovEntryMut {
                ptr: out[start..].as_mut_ptr(),
                len,
            })
            .collect();
        let mut unpacker = layout.dst.cb.map(|len| TestUnpacker {
            base: out.as_mut_ptr(),
            len,
            fail_at: layout.unpack_fail.map(|q| (q, UNPACK_CODE)),
            streaming: layout.dst.streaming,
            runs: layout.dst.runs,
        });
        let mut src = Stream {
            cb: packer
                .as_mut()
                .map(|p| (p as &mut dyn FragmentPacker, src_at)),
            mem: &src_mem,
        };
        let mut dst = Stream {
            cb: unpacker
                .as_mut()
                .map(|u| (u as &mut dyn FragmentUnpacker, dst_at)),
            mem: &dst_mem,
        };
        let mut stage = Vec::new();
        let r = engine.run(
            &w, &stats, &mut src, &mut dst, total, inorder, ooo_wire, &mut stage,
        );
        (out, r, stats.view().pipelined == 1)
    }

    /// Across random segment layouts — region-only streams behind
    /// zero-length callback segments, streaming callbacks in front of
    /// regions, unequal region boundaries on the two sides — fragment
    /// sizes down to 1 byte, partial fills and mid-stream callback errors,
    /// the engine delivers exactly the payload, or exactly the error the
    /// layout predicts across the inline/pool split: at one, two and four
    /// threads, inline for an `inorder` sender, and in reverse on an
    /// out-of-order wire. Whether the cost rule pooled a transfer changes
    /// neither; the pool only ever takes a transfer that has a pool part,
    /// and decides the same way for the same layout every time.
    #[test]
    fn pipelined_engine_matches_serial_property() {
        let engines: Vec<Engine> = [1usize, 2, 4]
            .iter()
            .map(|&t| Engine {
                cfg: PipelineConfig::with_threads(t),
                pool: OnceLock::new(),
            })
            .collect();
        let mut rng = XorShift64Star::new(0x5eed_cafe_d00d_f00d);
        let mut seen = [0usize; 4]; // inline, pooled, reversed, split kept inline
        for case in 0..160 {
            let layout = random_layout(&mut rng, case % 2 == 1);
            let total = layout.payload.len();
            for engine in &engines {
                for (inorder, ooo_wire) in [(false, false), (true, false), (false, true)] {
                    let threads = engine.cfg.threads;
                    let (out, r, pooled) = drive(engine, &layout, inorder, ooo_wire);
                    let part = pool_start(engine, &layout, inorder);
                    let split = part.filter(|_| pooled).unwrap_or(total);
                    let reverse = ooo_wire && !inorder;
                    let at = format!(
                        "case {case}, {threads} threads, inorder {inorder}, ooo {ooo_wire}, \
                         frag {}, split {split}",
                        layout.frag
                    );
                    assert!(
                        !pooled || part.is_some(),
                        "{at}: pooled without a pool part"
                    );
                    assert_eq!(
                        pooled,
                        drive(engine, &layout, inorder, ooo_wire).2,
                        "{at}: the same decision again"
                    );
                    seen[usize::from(pooled)] += 1;
                    if reverse && layout.dst.cb.is_some_and(|l| l > 0 && split > 0) {
                        seen[2] += 1;
                    }
                    if part.is_some() && !pooled {
                        seen[3] += 1;
                    }
                    match expected_error(&layout, split, reverse) {
                        None => {
                            assert_eq!(r, Ok(()), "{at}");
                            assert!(out == layout.payload, "{at}: byte identity");
                        }
                        Some(e) => assert_eq!(r, Err(e), "{at}: first error"),
                    }
                }
            }
        }
        assert!(
            seen[..3].iter().all(|&n| n > 0),
            "every path exercised: {seen:?}"
        );
    }

    /// Run `src` into a same-length memory destination through a
    /// two-thread engine; return (bytes, result, pooled).
    fn two_threads(
        src: &mut Stream<'_, &mut dyn FragmentPacker, IovEntry>,
        frag: usize,
    ) -> (Vec<u8>, FabricResult<()>, bool) {
        let metrics = FabricMetrics::new(&mpicd_obs::Registry::new());
        let stats = FabricStats::default();
        let w = Walk::new(frag, &metrics, false, false);
        let total = src.cb.as_ref().map_or(0, |(_, len)| *len)
            + src.mem.iter().map(|e| e.len).sum::<usize>();
        let mut out = vec![0u8; total];
        let dst_mem = [IovEntryMut::from_slice(&mut out)];
        let mut dst = Stream {
            cb: None,
            mem: &dst_mem,
        };
        let engine = Engine {
            cfg: PipelineConfig::with_threads(2),
            pool: OnceLock::new(),
        };
        let r = engine.run(
            &w,
            &stats,
            src,
            &mut dst,
            total,
            false,
            false,
            &mut Vec::new(),
        );
        (out, r, stats.view().pipelined == 1)
    }

    #[test]
    fn streaming_callbacks_are_rejected() {
        // A plain closure packer has no random-access view, so the pool
        // must refuse its bytes and the posting thread runs them.
        let data: Vec<u8> = (0..64u8).collect();
        let mut closure = |o: usize, d: &mut [u8]| {
            d.copy_from_slice(&data[o..o + d.len()]);
            Ok(d.len())
        };
        let mut src = Stream {
            cb: Some((&mut closure as &mut dyn FragmentPacker, 64)),
            mem: &[],
        };
        let (out, r, pooled) = two_threads(&mut src, 16);
        assert_eq!((r, pooled), (Ok(()), false));
        assert_eq!(out, data);
    }

    /// Memory regions behind a zero-length streaming callback segment — a
    /// region-only custom context — are pool-eligible from byte 0, and
    /// the cost rule decides by their modeled work: 64 bytes in 8-byte
    /// regions are far below one job's worth, so the transfer stays
    /// inline, byte-identical.
    #[test]
    fn mem_only_transfers_are_eligible() {
        let data: Vec<u8> = (0..64u8).collect();
        let src_mem: Vec<IovEntry> = data.chunks(8).map(IovEntry::from_slice).collect();
        let mut closure = |_o: usize, _d: &mut [u8]| Ok(0usize);
        for cb in [None, Some((&mut closure as &mut dyn FragmentPacker, 0))] {
            let mut src = Stream { cb, mem: &src_mem };
            let (out, r, pooled) = two_threads(&mut src, 16);
            assert_eq!((r, pooled), (Ok(()), false));
            assert_eq!(out, data);
        }
    }

    /// The cost rule on `ddt_faces`-like shapes at 64 KiB fragments:
    /// memory alone pools at 960 KiB in a few regions, or at 320 KiB in
    /// thousands, not at 320 KiB in a few; callback bytes pool from three
    /// fragments on, in jobs sized by the runs they report.
    #[test]
    fn pool_part_follows_the_modeled_cost() {
        const FRAG: usize = 64 << 10;
        type Src<'a> = Stream<'a, &'a mut dyn FragmentPacker, IovEntry>;
        type Dst<'a> = Stream<'a, &'a mut dyn FragmentUnpacker, IovEntryMut>;
        // Regions are never dereferenced: only their count and lengths.
        let mem = |regions: usize, total: usize| {
            let len = total / regions;
            let src = vec![
                IovEntry {
                    ptr: std::ptr::null(),
                    len
                };
                regions
            ];
            let dst = vec![
                IovEntryMut {
                    ptr: std::ptr::null_mut(),
                    len
                };
                regions
            ];
            let (s, d): (Src, Dst) = (
                Stream {
                    cb: None,
                    mem: &src,
                },
                Stream {
                    cb: None,
                    mem: &dst,
                },
            );
            pool_part(FRAG, &s, &d, total)
        };
        assert_eq!(mem(16, 320 << 10), None);
        assert_eq!(mem(16, 960 << 10), Some((0, 3 * FRAG)));
        assert_eq!(mem(8192, 320 << 10), Some((0, FRAG)));
        let called = |runs: Option<usize>, total: usize| {
            let mut p = TestPacker {
                data: Vec::new(),
                max_chunk: 0,
                fail_at: None,
                streaming: false,
                runs,
            };
            let out = [IovEntryMut {
                ptr: std::ptr::null_mut(),
                len: total,
            }];
            let s: Src = Stream {
                cb: Some((&mut p as &mut dyn FragmentPacker, total)),
                mem: &[],
            };
            let d: Dst = Stream {
                cb: None,
                mem: &out,
            };
            pool_part(FRAG, &s, &d, total)
        };
        assert_eq!(called(Some(16), 2 * FRAG), None);
        assert_eq!(called(Some(16), 3 * FRAG), Some((0, FRAG)));
        assert_eq!(called(None, 64 * FRAG), Some((0, FRAG)));
        assert_eq!(called(Some(16), 64 * FRAG), Some((0, 3 * FRAG)));
    }

    #[test]
    fn pack_stall_is_reported() {
        // Four fragments of random-access callback bytes are four jobs, so
        // the transfer goes to the pool, where the packer stalls.
        struct Stall;
        impl FragmentPacker for Stall {
            fn pack(&mut self, o: usize, d: &mut [u8]) -> Result<usize, i32> {
                self.pack_at(o, d)
            }
            fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
                Some(self)
            }
        }
        impl RandomAccessPacker for Stall {
            fn pack_at(&self, o: usize, d: &mut [u8]) -> Result<usize, i32> {
                Ok(if o < 16 { d.len() } else { 0 })
            }
        }
        let mut stall = Stall;
        let mut src = Stream {
            cb: Some((&mut stall as &mut dyn FragmentPacker, 64)),
            mem: &[],
        };
        let (_, r, pooled) = two_threads(&mut src, 16);
        assert!(pooled);
        assert_eq!(
            r,
            Err(FabricError::PackStalled {
                offset: 16,
                remaining: 48
            })
        );
    }

    #[test]
    fn scratch_ring_is_bounded_and_recycles() {
        let ring = ScratchRing::new(2, Arc::new(Gauge::new()));
        let b1 = ring.checkout();
        let b2 = ring.checkout();
        ring.checkin(b1);
        let b3 = ring.checkout(); // recycled, not newly issued
        assert_eq!(ring.state.lock().issued, 2);
        ring.checkin(b2);
        ring.checkin(b3);
    }

    /// The pool's worker is parked on an empty queue when a job arrives.
    /// The posting thread holds its first job until another thread
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

        let metrics = FabricMetrics::new(&mpicd_obs::Registry::new());
        let pool = PipelinePool::spawn(PipelineConfig::with_threads(2), &metrics);
        // Give the worker time to find the queue empty and park.
        std::thread::sleep(Duration::from_millis(20));
        let packer = NeedsHelper {
            poster: std::thread::current().id(),
            helped: (StdMutex::new(false), StdCondvar::new()),
        };
        let mut out = vec![0u8; 64];
        let dst_mem = [IovEntryMut::from_slice(&mut out)];
        let src = Stream {
            cb: Some((Some(&packer as &dyn RandomAccessPacker), 64)),
            mem: &[],
        };
        let dst = Stream {
            cb: None,
            mem: &dst_mem,
        };
        let w = Walk::new(32, &metrics, false, false);
        let (sa, da) = (At::default(), At::default());
        assert_eq!(
            run_pooled(&pool, &w, src, dst, (0, 32, 64, false), sa, da),
            Ok(())
        );
        let want: Vec<u8> = (0..64u8).collect();
        assert_eq!(out, want);
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
            let ring = Arc::new(ScratchRing::new(1, Arc::new(Gauge::new())));
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
            let ring = Arc::new(ScratchRing::new(1, Arc::new(Gauge::new())));
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
                    complete_job(&remaining, &done);
                })
            };
            let t1 = frag(Some(200));
            let t2 = frag(Some(100));
            // The posting thread runs the non-failing fragment inline …
            complete_job(&remaining, &done);
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
                    depth_gauge: Arc::new(Gauge::new()),
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
                    jobs: 3,
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
                    depth_gauge: Arc::new(Gauge::new()),
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
