//! The worker pool of the fragment engine: runs the fragments of one
//! matched transfer concurrently.
//!
//! Plan-backed packers are *offset-addressed*: any fragment of the packed
//! stream can be produced or consumed independently. An [`Engine`] with
//! more than one thread hands such transfers' fixed-size fragments to a
//! persistent, lazily-spawned worker pool — the CPU-side analogue of the
//! overlapped fragment pipelining UCX does on the wire (paper §IV, Fig. 5).
//! Every other transfer runs inline on the posting thread; both paths move
//! bytes through the one fragment walker, `transfer::move_range`.
//!
//! * **Bounded scratch ring.** Packer→unpacker fragments stage through
//!   recycled per-fragment buffers; at most
//!   [`PipelineConfig`](crate::config::PipelineConfig)::`depth` are ever
//!   checked out, bounding memory regardless of transfer size.
//! * **First error wins.** Workers never stop mid-transfer; every callback
//!   error is recorded with its stream position and the *lowest-position*
//!   error is surfaced — the one the in-order walk would have returned
//!   first. Which later callbacks also ran is unspecified on error.
//! * **The posting thread participates.** It drains the fragment queue
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

/// The fabric's fragment engine: its thread count and the worker pool,
/// spawned on the first transfer handed to it.
pub(crate) struct Engine {
    pub(crate) cfg: PipelineConfig,
    pub(crate) pool: OnceLock<PipelinePool>,
}

impl Engine {
    /// Move every byte of a matched transfer and return the count.
    ///
    /// The transfer goes to the worker pool (counted in `stats`) when the
    /// engine has more than one thread, the stream spans at least two
    /// fragments, the sender did not set `inorder`, and every callback
    /// segment is random-access. Otherwise it runs inline on the posting
    /// thread, with the unpacker's fragments delivered in reverse order on
    /// an `ooo_wire` (see [`run_inline`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &self,
        w: &Walk<'_>,
        stats: &FabricStats,
        src: &mut Stream<'_, &mut dyn FragmentPacker, IovEntry>,
        dst: &mut Stream<'_, &mut dyn FragmentUnpacker, IovEntryMut>,
        inorder: bool,
        ooo_wire: bool,
        stage: &mut Vec<u8>,
    ) -> FabricResult<usize> {
        let total = src.len();
        if self.cfg.threads > 1 && !inorder && total > w.frag {
            if let (Some(s), Some(d)) = (
                src.view(|p| p.random_access()),
                dst.view(|u| u.random_access()),
            ) {
                let pool = self
                    .pool
                    .get_or_init(|| PipelinePool::spawn(self.cfg, w.metrics));
                stats.record_pipelined();
                return run_pooled(pool, w, s, d, total);
            }
        }
        run_inline(w, src, dst, ooo_wire && !inorder, stage)
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
    total: usize,
    src: Stream<'a, &'a dyn RandomAccessPacker, IovEntry>,
    /// Stream offset where each source segment starts; last entry = total.
    src_prefix: Vec<usize>,
    dst: Stream<'a, &'a dyn RandomAccessUnpacker, IovEntryMut>,
    dst_prefix: Vec<usize>,
    scratch: &'a ScratchRing,
    /// Lowest-stream-position callback error (position, error).
    error: Mutex<Option<(usize, FabricError)>>,
    /// Fragments not yet finished; guarded decrement, last one notifies.
    remaining: Mutex<usize>,
    done: Condvar,
}

/// Record `(pos, e)` into the job's error slot unless an error at an
/// equal-or-lower stream position is already there: concurrent fragments
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
        let lo = idx * self.walk.frag;
        let hi = self.total.min(lo + self.walk.frag);
        let (mut src, mut dst) = (self.src, self.dst);
        let staged = src.cb.is_some() && dst.cb.is_some();
        let mut buf = if staged {
            self.scratch.checkout()
        } else {
            Vec::new()
        };
        // The cursor of the segment holding stream offset `lo`.
        let at = |prefix: &[usize]| {
            let seg = prefix.partition_point(|&p| p <= lo) - 1;
            At {
                seg,
                start: prefix[seg],
            }
        };
        let (sa, da) = (at(&self.src_prefix), at(&self.dst_prefix));
        let r = move_range(
            self.walk, &mut src, &mut dst, lo, hi, sa, da, &mut buf, false,
        );
        if staged {
            self.scratch.checkin(buf);
        }
        if let Err((pos, e)) = r {
            record_error(&self.error, pos, e);
        }
        complete_fragment(&self.remaining, &self.done);
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
    depth_gauge: Arc<Gauge>,
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
    /// participant) and record the pool size in the obs registry. A worker
    /// the OS refuses is left out: the posting thread still drains every
    /// fragment, so the pool only runs narrower.
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
            Some((job, idx)) => unsafe { (*job.0).exec_fragment(idx) },
            None => return,
        }
    }
}

/// Run one transfer of `total` bytes through the pool. Blocks (while
/// participating in the fragment work) until every fragment completes;
/// returns the bytes moved or the lowest-stream-position callback error.
fn run_pooled(
    pool: &PipelinePool,
    w: &Walk<'_>,
    src: Stream<'_, &dyn RandomAccessPacker, IovEntry>,
    dst: Stream<'_, &dyn RandomAccessUnpacker, IovEntryMut>,
    total: usize,
) -> FabricResult<usize> {
    let frags = total.div_ceil(w.frag);
    let _sp = span_acc("pipeline", "fabric", total as u64, &w.metrics.pipeline_ns);
    w.metrics.pipeline_transfers.inc();
    w.metrics.pipeline_frags.add(frags as u64);
    // Every worker may run fragments, and so may the posting thread.
    w.lanes
        .store(pool.workers.len() as u64 + 1, Ordering::Relaxed);

    let job = JobShared {
        walk: w,
        total,
        src_prefix: src.prefix(),
        src,
        dst_prefix: dst.prefix(),
        dst,
        scratch: &pool.scratch,
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
    use mpicd_obs::XorShift64Star;

    /// Offset-addressed test packer over a byte vector; optionally fails
    /// deterministically on any call whose range covers `fail_at`, and
    /// emits at most `max_chunk` bytes per call (partial fills).
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

    /// One randomized transfer layout, derived from the seed. Each side
    /// is an optional leading callback segment of `cb` bytes followed by
    /// memory regions of `mem` bytes each; failures sit at stream offsets
    /// inside the callback segments.
    struct Layout {
        payload: Vec<u8>,
        src_cb: Option<usize>,
        src_mem: Vec<usize>,
        dst_cb: Option<usize>,
        dst_mem: Vec<usize>,
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

    fn random_layout(rng: &mut XorShift64Star, with_errors: bool) -> Layout {
        let total = 1 + (rng.next_u64() as usize) % (48 * 1024);
        let payload: Vec<u8> = (0..total)
            .map(|i| (rng.next_u64() as u8).wrapping_add(i as u8))
            .collect();
        let side = |rng: &mut XorShift64Star| {
            let parts = 1 + (rng.next_u64() as usize) % 3;
            let mut lens = splits(rng, total, parts);
            let cb = rng.next_u64().is_multiple_of(2).then(|| lens.remove(0));
            (cb, lens)
        };
        let (src_cb, src_mem) = side(rng);
        let (dst_cb, dst_mem) = side(rng);
        let mut fail = |cb: Option<usize>| match cb {
            Some(len) if len > 0 && with_errors && rng.next_u64().is_multiple_of(2) => {
                Some((rng.next_u64() as usize) % len)
            }
            _ => None,
        };
        let pack_fail = fail(src_cb);
        let unpack_fail = fail(dst_cb);
        Layout {
            payload,
            src_cb,
            src_mem,
            dst_cb,
            dst_mem,
            frag: 1 + (rng.next_u64() as usize) % (8 * 1024),
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
    /// from the layout. In stream order, a failing callback's error
    /// belongs to the piece (the intersection of a fragment, a source and a
    /// destination segment) that holds its offset, and a piece packs
    /// before it unpacks; the earliest such error wins. When the unpacker's
    /// fragments are delivered in reverse, every pack precedes every
    /// unpack.
    fn expected_error(layout: &Layout, reversed: bool) -> Option<FabricError> {
        let cuts: Vec<usize> = regions(layout.src_cb.unwrap_or(0), &layout.src_mem)
            .into_iter()
            .chain(regions(layout.dst_cb.unwrap_or(0), &layout.dst_mem))
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
            .map(|p| ((piece(p), 0), FabricError::PackFailed(PACK_CODE)));
        let unpack = layout
            .unpack_fail
            .map(|q| ((piece(q), 1), FabricError::UnpackFailed(UNPACK_CODE)));
        if reversed {
            return pack.or(unpack).map(|(_, e)| e);
        }
        pack.into_iter()
            .chain(unpack)
            .min_by_key(|(key, _)| *key)
            .map(|(_, e)| e)
    }

    /// Drive one layout through `engine` and return (destination bytes,
    /// result, whether the pool ran it).
    fn drive(
        engine: &Engine,
        layout: &Layout,
        inorder: bool,
        ooo_wire: bool,
    ) -> (Vec<u8>, FabricResult<usize>, bool) {
        let total = layout.payload.len();
        let mut out = vec![0u8; total];
        let metrics = FabricMetrics::new(&mpicd_obs::Registry::new());
        let stats = FabricStats::default();
        let w = Walk::new(layout.frag, &metrics, false, false);
        let src_at = layout.src_cb.unwrap_or(0);
        let src_mem: Vec<IovEntry> = regions(src_at, &layout.src_mem)
            .iter()
            .map(|&(start, len)| IovEntry::from_slice(&layout.payload[start..start + len]))
            .collect();
        let mut packer = layout.src_cb.map(|len| TestPacker {
            data: layout.payload[..len].to_vec(),
            max_chunk: layout.max_chunk,
            fail_at: layout.pack_fail.map(|p| (p, PACK_CODE)),
        });
        let dst_at = layout.dst_cb.unwrap_or(0);
        let dst_mem: Vec<IovEntryMut> = regions(dst_at, &layout.dst_mem)
            .iter()
            .map(|&(start, len)| IovEntryMut {
                ptr: out[start..].as_mut_ptr(),
                len,
            })
            .collect();
        let mut unpacker = layout.dst_cb.map(|len| TestUnpacker {
            base: out.as_mut_ptr(),
            len,
            fail_at: layout.unpack_fail.map(|q| (q, UNPACK_CODE)),
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
            &w, &stats, &mut src, &mut dst, inorder, ooo_wire, &mut stage,
        );
        (out, r, stats.view().pipelined == 1)
    }

    /// Across random segment layouts, fragment sizes, partial fills and
    /// mid-stream callback errors, the engine delivers exactly the
    /// payload, or exactly the error the layout predicts: inline at one
    /// thread, on the pool at two and four, inline for an `inorder`
    /// sender, and in reverse on an out-of-order wire.
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
        let mut seen = [0usize; 3]; // inline, pooled, reversed
        for case in 0..120 {
            let layout = random_layout(&mut rng, case % 2 == 1);
            let total = layout.payload.len();
            for engine in &engines {
                for (inorder, ooo_wire) in [(false, false), (true, false), (false, true)] {
                    let threads = engine.cfg.threads;
                    let (out, r, pooled) = drive(engine, &layout, inorder, ooo_wire);
                    let want_pooled = threads > 1 && !inorder && total > layout.frag;
                    let reversed = !want_pooled && ooo_wire && layout.dst_cb.is_some_and(|l| l > 0);
                    let at = format!(
                        "case {case}, {threads} threads, inorder {inorder}, ooo {ooo_wire}"
                    );
                    assert_eq!(pooled, want_pooled, "{at}: path");
                    seen[usize::from(pooled) + 2 * usize::from(reversed)] += 1;
                    match expected_error(&layout, reversed) {
                        None => {
                            assert_eq!(r, Ok(total), "{at}");
                            assert!(out == layout.payload, "{at}: byte identity");
                        }
                        Some(e) => assert_eq!(r, Err(e), "{at}: first error"),
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every path exercised: {seen:?}"
        );
    }

    /// Run `src` into a same-length memory destination through a
    /// two-thread engine; return (bytes, result, pooled).
    fn two_threads(
        src: &mut Stream<'_, &mut dyn FragmentPacker, IovEntry>,
        frag: usize,
    ) -> (Vec<u8>, FabricResult<usize>, bool) {
        let metrics = FabricMetrics::new(&mpicd_obs::Registry::new());
        let stats = FabricStats::default();
        let w = Walk::new(frag, &metrics, false, false);
        let mut out = vec![0u8; src.len()];
        let dst_mem = [IovEntryMut::from_slice(&mut out)];
        let mut dst = Stream {
            cb: None,
            mem: &dst_mem,
        };
        let engine = Engine {
            cfg: PipelineConfig::with_threads(2),
            pool: OnceLock::new(),
        };
        let r = engine.run(&w, &stats, src, &mut dst, false, false, &mut Vec::new());
        (out, r, stats.view().pipelined == 1)
    }

    #[test]
    fn streaming_callbacks_are_rejected() {
        // A plain closure packer has no random-access view, so the pool
        // must refuse the transfer and the posting thread runs it.
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
        assert_eq!((r, pooled), (Ok(64), false));
        assert_eq!(out, data);
    }

    #[test]
    fn mem_only_transfers_are_eligible() {
        let data: Vec<u8> = (0..64u8).collect();
        let src_mem = [IovEntry::from_slice(&data)];
        let mut src = Stream {
            cb: None,
            mem: &src_mem,
        };
        let (out, r, pooled) = two_threads(&mut src, 16);
        assert_eq!((r, pooled), (Ok(64), true));
        assert_eq!(out, data);
    }

    #[test]
    fn pack_stall_is_reported() {
        struct Stall;
        impl FragmentPacker for Stall {
            fn pack(&mut self, _o: usize, _d: &mut [u8]) -> Result<usize, i32> {
                Ok(0)
            }
            fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
                Some(self)
            }
        }
        impl RandomAccessPacker for Stall {
            fn pack_at(&self, _o: usize, _d: &mut [u8]) -> Result<usize, i32> {
                Ok(0)
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
                offset: 0,
                remaining: 64
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
            cb: Some((&packer as &dyn RandomAccessPacker, 64)),
            mem: &[],
        };
        let dst = Stream {
            cb: None::<(&dyn RandomAccessUnpacker, usize)>,
            mem: &dst_mem,
        };
        let w = Walk::new(32, &metrics, false, false);
        assert_eq!(run_pooled(&pool, &w, src, dst, 64), Ok(64));
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
