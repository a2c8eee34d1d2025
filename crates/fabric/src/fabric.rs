//! The fabric proper: a world of ranks, tag matching with MPI's
//! non-overtaking order, and the eager/rendezvous protocol split.
//!
//! Protocol rules (modeled on UCX over the paper's 100 Gbps testbed):
//!
//! * **Contiguous payloads ≤ rendezvous threshold** go *eager*: the payload
//!   is copied into a bounce buffer at post time (a real memcpy — this is the
//!   extra copy that penalizes manual packing), the send completes
//!   immediately, and the data is delivered when a matching receive arrives.
//! * **Contiguous payloads above the threshold** use *rendezvous*: the send
//!   stays pending until matched, data moves directly from the source buffer
//!   (one copy), and the modeled wire charges an extra handshake round-trip —
//!   the Fig 7 bandwidth dip at 2^15 bytes.
//! * **Iov and Generic payloads** (the custom-datatype path) always use the
//!   pipelined scatter/gather transfer: no bounce copy, no handshake
//!   surcharge, but per-region and per-fragment wire overheads. This matches
//!   the paper's note that the custom path "uses the UCX iovec API
//!   internally" and is unaffected by the eager/rendezvous switch.

// Audited unsafe: transfer execution over posted raw regions; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::clock::WireLedger;
use crate::config::{bounce_pool_cap, MatchConfig, PipelineConfig, TypecheckMode, WireModel};
use crate::error::{FabricError, FabricResult};
use crate::matching::{Envelope, RecvQueue, Selector, SendQueue, Tag};
use crate::payload::{FragmentPacker, FragmentUnpacker, IovEntry, IovEntryMut, RecvDesc, SendDesc};
use crate::pipeline::Engine;
use crate::request::{ReqState, Request};
use crate::stats::{gauge_shift, FabricMetrics, FabricStats, StatsView};
use crate::transfer::{Stream, Walk};
use mpicd_obs::flight::{self, EventKind, FlightEvent, Method, TransferRecord};
use mpicd_obs::sync::{Condvar, Mutex};
use mpicd_obs::telemetry;
use std::sync::{Arc, OnceLock};

/// A pending (unmatched) send sitting in the unexpected queue.
struct PendingSend {
    source: usize,
    tag: Tag,
    total: usize,
    /// Flight-recorder transfer id allocated at post time (0 = off).
    fid: u64,
    /// The post event's stamp, for the transfer's record (0 = off).
    post_ns: u64,
    /// Sender's 64-bit structural type signature (0 = unchecked raw bytes).
    /// Travels with the in-process transfer the way the `0xC6` marshal
    /// frame travels with out-of-band datatype descriptions.
    sig: u64,
    kind: PendKind,
}

enum PendKind {
    /// Eager: payload already gathered into a bounce buffer; the send
    /// request has already completed.
    Eager { data: Vec<u8> },
    /// Rendezvous / pipelined: the descriptor (and thus the source buffers)
    /// stays referenced until a receive matches.
    Deferred { desc: SendDesc, req: Arc<ReqState> },
}

/// A posted receive waiting for a matching send. The selector lives in the
/// matching engine (it is the queue key), not here.
struct PostedRecv {
    desc: RecvDesc,
    req: Arc<ReqState>,
    /// Flight-recorder id of the receive post (0 = off).
    fid: u64,
    /// The post event's stamp, for the transfer's record (0 = off).
    post_ns: u64,
    /// Structural signature of the datatype the receive was posted with
    /// (0 = unchecked raw bytes).
    sig: u64,
}

/// A send whose deferred request has completed (cancelled) is dead weight
/// in the unexpected queue; the engine tombstones it when scanned past.
fn send_is_dead(p: &PendingSend) -> bool {
    matches!(&p.kind, PendKind::Deferred { req, .. } if req.is_done())
}

/// A posted receive whose request has completed (cancelled) must never
/// match — its buffers may be gone.
fn recv_is_dead(r: &PostedRecv) -> bool {
    r.req.is_done()
}

struct MatchState {
    /// Unexpected sends, one matching engine per destination rank.
    unexpected: Vec<SendQueue<PendingSend>>,
    /// Posted receives, one matching engine per receiving rank.
    posted: Vec<RecvQueue<PostedRecv>>,
    /// Bounce-buffer freelist (eager protocol) to keep allocator noise out
    /// of latency measurements, like UCX's preregistered eager buffers.
    /// Bounded by `MPICD_BOUNCE_POOL_CAP` (default 64 buffers).
    bounce_pool: Vec<Vec<u8>>,
    /// The inline path's packer→unpacker staging buffer, reused by every
    /// transfer. Transfers run with the match lock held, so one per fabric
    /// suffices.
    stage: Vec<u8>,
}

struct Inner {
    model: WireModel,
    size: usize,
    ledger: WireLedger,
    stats: FabricStats,
    /// Mirror of the traffic counters into the process-global obs registry,
    /// plus the span-fed phase-time counters.
    metrics: FabricMetrics,
    state: Mutex<MatchState>,
    arrivals: Condvar,
    /// Signature-enforcement mode applied at match time (`MPICD_TYPECHECK`
    /// unless the fabric was built with an explicit [`MatchConfig`]).
    typecheck: TypecheckMode,
    /// The fragment engine: its thread count (env knobs unless the fabric
    /// was built with [`Fabric::with_model_and_pipeline`]) and the worker
    /// pool, spawned on the first transfer handed to it and joined when the
    /// fabric drops.
    engine: Engine,
}

/// An in-process world of communicating ranks.
///
/// Cloning is cheap (shared handle). Create per-rank [`Endpoint`]s with
/// [`Fabric::endpoint`].
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<Inner>,
}

impl Fabric {
    /// A world of `size` ranks with the default (100 Gbps IB-like) wire model.
    pub fn new(size: usize) -> Self {
        Self::with_model(size, WireModel::default())
    }

    /// A world of `size` ranks with an explicit wire model. The fragment
    /// engine follows the `MPICD_PIPELINE_THREADS` and
    /// `MPICD_PIPELINE_DEPTH` knobs.
    pub fn with_model(size: usize, model: WireModel) -> Self {
        Self::with_model_and_pipeline(size, model, PipelineConfig::from_env())
    }

    /// A world of `size` ranks with an explicit wire model *and* an
    /// explicit pipeline configuration, ignoring the environment knobs.
    /// Benchmarks and tests use this to sweep thread counts;
    /// `PipelineConfig::with_threads(1)` runs every transfer inline on the
    /// posting thread.
    /// The matching engine follows `MPICD_MATCH_BUCKETS`.
    pub fn with_model_and_pipeline(
        size: usize,
        model: WireModel,
        pipeline: PipelineConfig,
    ) -> Self {
        Self::with_config(size, model, pipeline, MatchConfig::from_env())
    }

    /// The fully-explicit constructor: wire model, pipeline, *and* matching
    /// engine configuration. [`MatchConfig::linear`] reproduces the old
    /// single-queue linear-scan matcher (the `ablation_msgrate` baseline).
    pub fn with_config(
        size: usize,
        model: WireModel,
        pipeline: PipelineConfig,
        matching: MatchConfig,
    ) -> Self {
        assert!(size > 0, "fabric needs at least one rank");
        Self {
            inner: Arc::new(Inner {
                model,
                size,
                ledger: WireLedger::new(),
                stats: FabricStats::default(),
                metrics: FabricMetrics::new(mpicd_obs::global()),
                state: Mutex::new(MatchState {
                    unexpected: (0..size)
                        .map(|_| SendQueue::new(matching.buckets))
                        .collect(),
                    posted: (0..size)
                        .map(|_| RecvQueue::new(matching.buckets))
                        .collect(),
                    bounce_pool: Vec::new(),
                    stage: Vec::new(),
                }),
                arrivals: Condvar::new(),
                typecheck: matching.typecheck,
                engine: Engine {
                    cfg: pipeline,
                    pool: OnceLock::new(),
                },
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The wire model in effect.
    pub fn model(&self) -> &WireModel {
        &self.inner.model
    }

    /// The fragment-engine configuration in effect.
    pub fn pipeline_config(&self) -> PipelineConfig {
        self.inner.engine.cfg
    }

    /// The modeled wire-time ledger.
    pub fn ledger(&self) -> &WireLedger {
        &self.inner.ledger
    }

    /// Snapshot of traffic counters.
    pub fn stats(&self) -> StatsView {
        self.inner.stats.view()
    }

    /// Endpoint for `rank`.
    pub fn endpoint(&self, rank: usize) -> FabricResult<Endpoint> {
        if rank >= self.inner.size {
            return Err(FabricError::InvalidRank {
                rank,
                world: self.inner.size,
            });
        }
        Ok(Endpoint {
            inner: Arc::clone(&self.inner),
            rank,
        })
    }

    /// Endpoints for every rank, in rank order.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        (0..self.inner.size)
            .map(|r| self.endpoint(r).expect("rank in range"))
            .collect()
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Fail any requests still pending so waiters on other threads wake.
        let state = self.state.get_mut();
        for q in &state.unexpected {
            for p in q.iter_live() {
                if let PendKind::Deferred { req, .. } = &p.kind {
                    if !req.is_done() && p.fid != 0 {
                        flight::record(
                            FlightEvent::new(EventKind::Error, p.fid)
                                .code(FabricError::ShutDown.flight_code()),
                        );
                    }
                    req.complete(Err(FabricError::ShutDown));
                }
            }
        }
        for q in &state.posted {
            for r in q.iter_live() {
                if !r.req.is_done() && r.fid != 0 {
                    flight::record(
                        FlightEvent::new(EventKind::Error, r.fid)
                            .code(FabricError::ShutDown.flight_code()),
                    );
                }
                r.req.complete(Err(FabricError::ShutDown));
            }
        }
    }
}

/// A single rank's interface to the fabric (UCP endpoint + worker in one).
#[derive(Clone)]
pub struct Endpoint {
    inner: Arc<Inner>,
    rank: usize,
}

impl Endpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The fabric's modeled wire-time ledger.
    pub fn ledger(&self) -> &WireLedger {
        &self.inner.ledger
    }

    /// Snapshot of the fabric's traffic counters.
    pub fn stats(&self) -> StatsView {
        self.inner.stats.view()
    }

    /// Post a nonblocking send.
    ///
    /// # Safety
    /// Every memory region referenced by `desc` must stay valid, and must
    /// not be mutated, until the returned request completes. Pack callbacks
    /// must not re-enter the fabric.
    ///
    /// # Example
    ///
    /// A callback-packed stream (the generic-datatype path — the entry
    /// point a committed datatype's pack engine plugs into, fragment by
    /// fragment) received into a contiguous buffer:
    ///
    /// ```
    /// use mpicd_fabric::{Fabric, IovEntryMut, RecvDesc, SendDesc};
    ///
    /// let fabric = Fabric::new(2);
    /// let (a, b) = (fabric.endpoint(0)?, fabric.endpoint(1)?);
    ///
    /// let data: Vec<u8> = (0..=255).collect();
    /// let src = data.clone();
    /// let packer = move |offset: usize, dst: &mut [u8]| {
    ///     let n = dst.len().min(src.len() - offset);
    ///     dst[..n].copy_from_slice(&src[offset..offset + n]);
    ///     Ok(n)
    /// };
    /// // SAFETY: everything the descriptors reference outlives the waits.
    /// let send = unsafe {
    ///     a.post_send(
    ///         SendDesc::Generic {
    ///             packer: Box::new(packer),
    ///             packed_size: data.len(),
    ///             regions: Vec::new(),
    ///             inorder: true,
    ///         },
    ///         1,
    ///         7,
    ///     )?
    /// };
    /// let mut buf = vec![0u8; 256];
    /// // SAFETY: `buf` lives until the wait below.
    /// let recv =
    ///     unsafe { b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)), 0, 7)? };
    /// recv.wait()?;
    /// send.wait()?;
    /// assert_eq!(buf, data);
    /// # Ok::<(), mpicd_fabric::FabricError>(())
    /// ```
    pub unsafe fn post_send(&self, desc: SendDesc, dest: usize, tag: Tag) -> FabricResult<Request> {
        // SAFETY: same contract as post_send_sig; 0 = unchecked raw bytes.
        unsafe { self.post_send_sig(desc, dest, tag, 0) }
    }

    /// [`Self::post_send`] with the sender's 64-bit structural type
    /// signature attached. The signature travels with the pending send
    /// (the in-process analogue of the `0xC6` marshal frame) and is
    /// compared against the posted receive's signature at match time under
    /// `MPICD_TYPECHECK`. `0` means "unchecked" and never mismatches.
    ///
    /// # Safety
    /// Same contract as [`Self::post_send`].
    pub unsafe fn post_send_sig(
        &self,
        desc: SendDesc,
        dest: usize,
        tag: Tag,
        sig: u64,
    ) -> FabricResult<Request> {
        if dest >= self.inner.size {
            return Err(FabricError::InvalidRank {
                rank: dest,
                world: self.inner.size,
            });
        }
        let total = desc.total_bytes();
        // Flight: allocate the send-side transfer id (the id the transfer's
        // record is keyed by) and log the post; its stamp rides with the
        // send into the record.
        let fid = flight::next_id();
        let post_ns = if fid != 0 {
            let method = match &desc {
                SendDesc::Contig(_) if self.inner.model.is_rendezvous(total) => Method::Rendezvous,
                SendDesc::Contig(_) => Method::Eager,
                _ => Method::Pipelined,
            };
            flight::record(
                FlightEvent::new(EventKind::PostSend, fid)
                    .ranks(self.rank as i32, dest as i32)
                    .tag(tag)
                    .bytes(total as u64)
                    .method(method),
            )
        } else {
            0
        };
        let mut state = self.inner.state.lock();

        // Try to match the earliest eligible posted receive: O(1) through
        // the (source, tag) bucket, merged by post order with the wildcard
        // sideline. Cancelled posts on the way are drained lazily.
        let mut drained = 0;
        let qb = state.posted[dest].counts();
        let hit = state.posted[dest].take_match(self.rank, tag, recv_is_dead, &mut drained);
        self.inner
            .note_queue_shift(qb, state.posted[dest].counts(), false);
        self.inner.note_drained(drained);
        if let Some((recv, wildcard)) = hit {
            self.inner.note_match(wildcard);
            let outcome = self.inner.run_matched_transfer(
                self.rank,
                dest,
                tag,
                SendSide::Direct(desc),
                recv.desc,
                &mut state,
                posts(fid, post_ns, recv.fid, recv.post_ns),
                sig,
                recv.sig,
            );
            recv.req.complete(outcome.clone());
            return Ok(match outcome {
                Ok(env) => Request::ready(env).with_flight(fid),
                // The sender's data went out even if the receiver
                // truncated or rejected the type — same contract as the
                // unexpected-path match sites, so which side arrived first
                // stays unobservable.
                Err(FabricError::Truncated { .. } | FabricError::TypeMismatch { .. }) => {
                    Request::ready(Envelope {
                        source: self.rank,
                        tag,
                        bytes: total,
                    })
                    .with_flight(fid)
                }
                Err(e) => Request::done(Err(e)).with_flight(fid),
            });
        }

        // No receive yet: eager-copy small contiguous payloads, defer the rest.
        match desc {
            SendDesc::Contig(entry) if total <= self.inner.model.rndv_threshold => {
                let mut bounce = state.bounce_pool.pop().unwrap_or_default();
                self.inner
                    .metrics
                    .g_bounce_pool
                    .set(state.bounce_pool.len() as u64);
                bounce.clear();
                {
                    // The eager bounce copy — the extra memcpy the custom
                    // datatype path exists to avoid. Counted always; traced
                    // as a span when tracing is on.
                    let _sp = mpicd_obs::trace::span("bounce_copy", "fabric", total as u64);
                    // SAFETY: caller guarantees the region is live (post contract).
                    bounce.extend_from_slice(unsafe { entry.as_slice() });
                }
                self.inner.metrics.copy_bytes.add(total as u64);
                let qb = state.unexpected[dest].counts();
                state.unexpected[dest].push(
                    self.rank,
                    tag,
                    PendingSend {
                        source: self.rank,
                        tag,
                        total,
                        fid,
                        post_ns,
                        sig,
                        kind: PendKind::Eager { data: bounce },
                    },
                );
                self.inner
                    .note_queue_shift(qb, state.unexpected[dest].counts(), true);
                self.inner.stats.record_unexpected();
                self.inner.metrics.unexpected.inc();
                self.inner.arrivals.notify_all();
                Ok(Request::ready(Envelope {
                    source: self.rank,
                    tag,
                    bytes: total,
                })
                .with_flight(fid))
            }
            desc => {
                let req = ReqState::new();
                let qb = state.unexpected[dest].counts();
                state.unexpected[dest].push(
                    self.rank,
                    tag,
                    PendingSend {
                        source: self.rank,
                        tag,
                        total,
                        fid,
                        post_ns,
                        sig,
                        kind: PendKind::Deferred {
                            desc,
                            req: Arc::clone(&req),
                        },
                    },
                );
                self.inner
                    .note_queue_shift(qb, state.unexpected[dest].counts(), true);
                self.inner.stats.record_unexpected();
                self.inner.metrics.unexpected.inc();
                self.inner.arrivals.notify_all();
                Ok(Request::new(req).with_flight(fid))
            }
        }
    }

    /// Post a nonblocking receive. `source` may be [`crate::ANY_SOURCE`] and
    /// `tag` may be [`crate::ANY_TAG`].
    ///
    /// # Safety
    /// Every memory region referenced by `desc` must stay valid and
    /// exclusively available to the fabric until the returned request
    /// completes. Unpack callbacks must not re-enter the fabric.
    pub unsafe fn post_recv(&self, desc: RecvDesc, source: i32, tag: Tag) -> FabricResult<Request> {
        // SAFETY: same contract as post_recv_sig; 0 = unchecked raw bytes.
        unsafe { self.post_recv_sig(desc, source, tag, 0) }
    }

    /// [`Self::post_recv`] with the structural signature of the datatype
    /// the receive is posted with. Compared against the matched sender's
    /// signature under `MPICD_TYPECHECK`; `0` means "unchecked".
    ///
    /// # Safety
    /// Same contract as [`Self::post_recv`].
    pub unsafe fn post_recv_sig(
        &self,
        desc: RecvDesc,
        source: i32,
        tag: Tag,
        sig: u64,
    ) -> FabricResult<Request> {
        let sel = Selector::new(source, tag);
        // Flight: the receive post gets its own id; the transfer's record
        // carries it as `recv_id`, joining the two.
        let rfid = flight::next_id();
        let rpost_ns = if rfid != 0 {
            flight::record(
                FlightEvent::new(EventKind::PostRecv, rfid)
                    .ranks(source, self.rank as i32)
                    .tag(tag)
                    .bytes(desc.capacity() as u64),
            )
        } else {
            0
        };
        let mut state = self.inner.state.lock();

        // Try to match the earliest unexpected send, lazily draining
        // cancelled deferred sends scanned past (their buffers may be gone).
        let mut drained = 0;
        let qb = state.unexpected[self.rank].counts();
        let hit = state.unexpected[self.rank].take(sel, send_is_dead, &mut drained);
        self.inner
            .note_queue_shift(qb, state.unexpected[self.rank].counts(), true);
        self.inner.note_drained(drained);
        if let Some((pending, wildcard)) = hit {
            self.inner.note_match(wildcard);
            let (send_side, send_req) = match pending.kind {
                PendKind::Eager { data } => (SendSide::Bounce { data }, None),
                PendKind::Deferred { desc, req } => (SendSide::Direct(desc), Some(req)),
            };
            let outcome = self.inner.run_matched_transfer(
                pending.source,
                self.rank,
                pending.tag,
                send_side,
                desc,
                &mut state,
                posts(pending.fid, pending.post_ns, rfid, rpost_ns),
                pending.sig,
                sig,
            );
            if let Some(req) = send_req {
                req.complete(match &outcome {
                    // The sender's data went out even if the receiver
                    // truncated or rejected the type; only callback
                    // failures abort the send too.
                    Ok(env) => Ok(*env),
                    Err(FabricError::Truncated { .. } | FabricError::TypeMismatch { .. }) => {
                        Ok(Envelope {
                            source: pending.source,
                            tag: pending.tag,
                            bytes: pending.total,
                        })
                    }
                    Err(e) => Err(e.clone()),
                });
            }
            return Ok(Request::done(outcome).with_flight(rfid));
        }

        let req = ReqState::new();
        let qb = state.posted[self.rank].counts();
        state.posted[self.rank].push(
            sel,
            PostedRecv {
                desc,
                req: Arc::clone(&req),
                fid: rfid,
                post_ns: rpost_ns,
                sig,
            },
        );
        self.inner
            .note_queue_shift(qb, state.posted[self.rank].counts(), false);
        Ok(Request::new(req).with_flight(rfid))
    }

    /// Nonblocking probe: envelope of the earliest matching unexpected send,
    /// through the engine's ordered view (the same entry a receive posted
    /// now would match).
    pub fn iprobe(&self, source: i32, tag: Tag) -> Option<Envelope> {
        let sel = Selector::new(source, tag);
        let mut state = self.inner.state.lock();
        let mut drained = 0;
        let qb = state.unexpected[self.rank].counts();
        let env = state.unexpected[self.rank]
            .peek(sel, send_is_dead, &mut drained)
            .map(|(source, tag, p)| Envelope {
                source,
                tag,
                bytes: p.total,
            });
        self.inner
            .note_queue_shift(qb, state.unexpected[self.rank].counts(), true);
        self.inner.note_drained(drained);
        env
    }

    /// Blocking probe: wait until a matching send arrives (like `MPI_Probe`).
    pub fn probe(&self, source: i32, tag: Tag) -> Envelope {
        let sel = Selector::new(source, tag);
        let mut state = self.inner.state.lock();
        loop {
            let mut drained = 0;
            let qb = state.unexpected[self.rank].counts();
            let env = state.unexpected[self.rank]
                .peek(sel, send_is_dead, &mut drained)
                .map(|(source, tag, p)| Envelope {
                    source,
                    tag,
                    bytes: p.total,
                });
            self.inner
                .note_queue_shift(qb, state.unexpected[self.rank].counts(), true);
            self.inner.note_drained(drained);
            if let Some(env) = env {
                return env;
            }
            state = self.inner.arrivals.wait(state);
        }
    }

    /// Matched probe (`MPI_Improbe`): atomically *removes* the earliest
    /// matching unexpected send and returns it as a [`Message`] that only
    /// [`Endpoint::post_mrecv`] can consume. This closes the probe→receive
    /// race that forces multithreaded mpi4py-style code to lock around
    /// plain probe + receive (paper §II-C).
    pub fn improbe(&self, source: i32, tag: Tag) -> Option<(Envelope, Message)> {
        let sel = Selector::new(source, tag);
        let mut state = self.inner.state.lock();
        let mut drained = 0;
        let qb = state.unexpected[self.rank].counts();
        let hit = state.unexpected[self.rank].take(sel, send_is_dead, &mut drained);
        self.inner
            .note_queue_shift(qb, state.unexpected[self.rank].counts(), true);
        self.inner.note_drained(drained);
        let (pending, wildcard) = hit?;
        self.inner.note_match(wildcard);
        let env = Envelope {
            source: pending.source,
            tag: pending.tag,
            bytes: pending.total,
        };
        Some((
            env,
            Message {
                pending: Some(pending),
            },
        ))
    }

    /// Blocking matched probe (`MPI_Mprobe`): take-or-wait under one lock
    /// hold per attempt, so an arrival between the check and the wait
    /// cannot be missed.
    pub fn mprobe(&self, source: i32, tag: Tag) -> (Envelope, Message) {
        let sel = Selector::new(source, tag);
        let mut state = self.inner.state.lock();
        loop {
            let mut drained = 0;
            let qb = state.unexpected[self.rank].counts();
            let hit = state.unexpected[self.rank].take(sel, send_is_dead, &mut drained);
            self.inner
                .note_queue_shift(qb, state.unexpected[self.rank].counts(), true);
            self.inner.note_drained(drained);
            if let Some((pending, wildcard)) = hit {
                self.inner.note_match(wildcard);
                let env = Envelope {
                    source: pending.source,
                    tag: pending.tag,
                    bytes: pending.total,
                };
                return (
                    env,
                    Message {
                        pending: Some(pending),
                    },
                );
            }
            state = self.inner.arrivals.wait(state);
        }
    }

    /// Receive a message previously matched by [`Self::improbe`] /
    /// [`Self::mprobe`] (`MPI_Mrecv`).
    ///
    /// # Safety
    /// Same buffer contract as [`Self::post_recv`].
    pub unsafe fn post_mrecv(&self, desc: RecvDesc, msg: Message) -> FabricResult<Request> {
        // SAFETY: same contract as post_mrecv_sig; 0 = unchecked raw bytes.
        unsafe { self.post_mrecv_sig(desc, msg, 0) }
    }

    /// [`Self::post_mrecv`] with the structural signature of the datatype
    /// the receive is posted with (see [`Self::post_recv_sig`]). The
    /// sender's signature rode along on the probed message.
    ///
    /// # Safety
    /// Same buffer contract as [`Self::post_recv`].
    pub unsafe fn post_mrecv_sig(
        &self,
        desc: RecvDesc,
        msg: Message,
        sig: u64,
    ) -> FabricResult<Request> {
        // Flight: the matched receive is posted here, so the PostRecv event
        // is logged here (the probe that detached the message has no buffer).
        let rfid = flight::next_id();
        let rpost_ns = if rfid != 0 {
            flight::record(
                FlightEvent::new(EventKind::PostRecv, rfid)
                    .ranks(
                        msg.pending.as_ref().map_or(-1, |p| p.source as i32),
                        self.rank as i32,
                    )
                    .tag(msg.pending.as_ref().map_or(0, |p| p.tag))
                    .bytes(desc.capacity() as u64),
            )
        } else {
            0
        };
        let mut state = self.inner.state.lock();
        let pending = msg.take();
        let (send_side, send_req) = match pending.kind {
            PendKind::Eager { data } => (SendSide::Bounce { data }, None),
            PendKind::Deferred { desc, req } => (SendSide::Direct(desc), Some(req)),
        };
        let outcome = self.inner.run_matched_transfer(
            pending.source,
            self.rank,
            pending.tag,
            send_side,
            desc,
            &mut state,
            posts(pending.fid, pending.post_ns, rfid, rpost_ns),
            pending.sig,
            sig,
        );
        if let Some(req) = send_req {
            req.complete(match &outcome {
                Ok(env) => Ok(*env),
                Err(FabricError::Truncated { .. } | FabricError::TypeMismatch { .. }) => {
                    Ok(Envelope {
                        source: pending.source,
                        tag: pending.tag,
                        bytes: pending.total,
                    })
                }
                Err(e) => Err(e.clone()),
            });
        }
        Ok(Request::done(outcome).with_flight(rfid))
    }

    /// Blocking convenience send of a byte slice.
    pub fn send_bytes(&self, data: &[u8], dest: usize, tag: Tag) -> FabricResult<()> {
        // SAFETY: we wait before returning, so `data` outlives the operation.
        let req =
            unsafe { self.post_send(SendDesc::Contig(IovEntry::from_slice(data)), dest, tag)? };
        req.wait().map(|_| ())
    }

    /// Blocking convenience receive into a byte slice. Returns the envelope.
    pub fn recv_bytes(&self, buf: &mut [u8], source: i32, tag: Tag) -> FabricResult<Envelope> {
        // SAFETY: we wait before returning, so `buf` outlives the operation.
        let req =
            unsafe { self.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(buf)), source, tag)? };
        req.wait()
    }
}

/// A message detached from the unexpected queue by a matched probe; can
/// only be consumed by [`Endpoint::post_mrecv`]. Dropping it without
/// receiving fails the sender's request (the message is gone).
pub struct Message {
    pending: Option<PendingSend>,
}

impl Message {
    /// Payload bytes of the message.
    pub fn bytes(&self) -> usize {
        self.pending.as_ref().map_or(0, |p| p.total)
    }

    fn take(mut self) -> PendingSend {
        self.pending.take().expect("message not yet consumed")
    }
}

impl Drop for Message {
    fn drop(&mut self) {
        if let Some(PendingSend {
            fid,
            kind: PendKind::Deferred { req, .. },
            ..
        }) = &self.pending
        {
            if !req.is_done() && *fid != 0 {
                flight::record(
                    FlightEvent::new(EventKind::Error, *fid)
                        .code(FabricError::Cancelled.flight_code()),
                );
            }
            req.complete(Err(FabricError::Cancelled));
        }
    }
}

impl std::fmt::Debug for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.pending {
            Some(p) => write!(f, "Message(from {} tag {} {} B)", p.source, p.tag, p.total),
            None => write!(f, "Message(consumed)"),
        }
    }
}

/// A receive descriptor as the byte stream the transfer engine writes to.
fn recv_stream(desc: &mut RecvDesc) -> Stream<'_, &mut dyn FragmentUnpacker, IovEntryMut> {
    match desc {
        RecvDesc::Fresh(d) => recv_stream(d),
        RecvDesc::Contig(e) => Stream {
            cb: None,
            mem: std::slice::from_ref(e),
        },
        RecvDesc::Iov(v) => Stream { cb: None, mem: v },
        RecvDesc::Generic {
            unpacker,
            packed_size,
            regions,
        } => Stream {
            cb: Some((unpacker.as_mut() as &mut dyn FragmentUnpacker, *packed_size)),
            mem: regions,
        },
    }
}

/// What the transfer engine reads from.
enum SendSide {
    Bounce { data: Vec<u8> },
    Direct(SendDesc),
}

impl Inner {
    /// Record one send/recv pairing (exact path or wildcard sideline) in
    /// the per-fabric stats and the registry counters.
    fn note_match(&self, wildcard: bool) {
        self.stats.record_match(wildcard);
        self.metrics.record_match(wildcard);
    }

    /// Record `n` lazily-drained dead queue entries.
    fn note_drained(&self, n: u64) {
        if n > 0 {
            self.stats.record_drained(n);
            self.metrics.record_drained(n);
        }
    }

    /// Refresh the matching-depth gauges from one queue's `counts()`
    /// before/after an operation. O(1) per call: only the touched queue's
    /// occupancy shift is applied — never a sum over all per-rank queues,
    /// which would turn every post into an O(world) walk.
    fn note_queue_shift(&self, before: (usize, usize), after: (usize, usize), unexpected: bool) {
        gauge_shift(&self.metrics.g_match_live, before.0, after.0);
        gauge_shift(&self.metrics.g_match_tombstones, before.1, after.1);
        if unexpected {
            gauge_shift(&self.metrics.g_unexpected, before.0, after.0);
        }
    }

    /// Execute a matched transfer and publish its record — on completion
    /// and on every error exit alike. Called with the match lock held;
    /// user callbacks therefore must not re-enter the fabric (documented on
    /// the post functions), the same rule UCX imposes inside progress
    /// callbacks. `rec` arrives holding what the two posts supply (see
    /// [`posts`]).
    // One argument per matched-transfer ingredient; a params struct
    // would be built and destructured at each call site.
    #[allow(clippy::too_many_arguments)]
    fn run_matched_transfer(
        &self,
        source: usize,
        dest: usize,
        tag: Tag,
        mut send: SendSide,
        mut recv: RecvDesc,
        state: &mut MatchState,
        mut rec: TransferRecord,
        send_sig: u64,
        recv_sig: u64,
    ) -> FabricResult<Envelope> {
        let (total, send_regions, rendezvous) = match &send {
            SendSide::Bounce { data } => (data.len(), 1, false),
            SendSide::Direct(desc) => {
                let t = desc.total_bytes();
                let rndv = matches!(desc, SendDesc::Contig(_)) && self.model.is_rendezvous(t);
                (t, desc.region_count(), rndv)
            }
        };
        rec.src = source as i32;
        rec.dst = dest as i32;
        rec.tag = tag;
        rec.bytes = total as u64;
        rec.method = match &send {
            SendSide::Bounce { .. } => Method::Eager,
            SendSide::Direct(SendDesc::Contig(_)) if rendezvous => Method::Rendezvous,
            SendSide::Direct(SendDesc::Contig(_)) => Method::Eager,
            SendSide::Direct(_) => Method::Pipelined,
        };
        rec.regions = send_regions.max(recv.region_count()) as u64;
        // The record's stamps are read by the trace, the flight ring and
        // telemetry; with all three off the transfer reads no clock.
        let stamped =
            mpicd_obs::enabled() || (rec.id != 0 && flight::enabled()) || telemetry::enabled();
        let now = || if stamped { mpicd_obs::now_ns() } else { 0 };
        rec.match_ns = now();
        let fresh = matches!(recv, RecvDesc::Fresh(_));
        let walk = Walk::new(self.model.frag_size.max(1), &self.metrics, fresh, stamped);

        let outcome: FabricResult<()> = 'run: {
            // Cross-rank signature check: both sides declared a structural
            // signature (0 = unchecked raw bytes) and they disagree, so the
            // receiver would unpack the sender's bytes through the wrong
            // type map. Checked before the capacity test — a type error is
            // semantically prior to a length error.
            if send_sig != 0 && recv_sig != 0 && send_sig != recv_sig {
                match self.typecheck {
                    TypecheckMode::Off => {}
                    TypecheckMode::Warn => {
                        self.stats.record_type_mismatch();
                        self.metrics.type_mismatch.inc();
                        eprintln!(
                            "mpicd: datatype signature mismatch {source}->{dest} tag {tag}: \
                             sender {send_sig:#018x}, receiver {recv_sig:#018x} \
                             (MPICD_TYPECHECK=warn; proceeding)"
                        );
                    }
                    TypecheckMode::Enforce => {
                        self.stats.record_type_mismatch();
                        self.metrics.type_mismatch.inc();
                        break 'run Err(FabricError::TypeMismatch {
                            sent: send_sig,
                            expected: recv_sig,
                        });
                    }
                }
            }
            if total > recv.capacity() {
                break 'run Err(FabricError::Truncated {
                    received: total,
                    capacity: recv.capacity(),
                });
            }
            let inorder = match &send {
                SendSide::Direct(SendDesc::Generic { inorder, .. }) => *inorder,
                _ => false,
            };
            // Describe both sides as byte streams and move the bytes.
            let bounce;
            let (cb, mem) = match &mut send {
                SendSide::Bounce { data } => {
                    bounce = IovEntry::from_slice(data);
                    (None, std::slice::from_ref(&bounce))
                }
                SendSide::Direct(SendDesc::Contig(e)) => (None, std::slice::from_ref(e)),
                SendSide::Direct(SendDesc::Iov(v)) => (None, &v[..]),
                SendSide::Direct(SendDesc::Generic {
                    packer,
                    packed_size,
                    regions,
                    ..
                }) => (
                    Some((packer.as_mut() as &mut dyn FragmentPacker, *packed_size)),
                    &regions[..],
                ),
            };
            let mut src = Stream { cb, mem };
            let mut dst = recv_stream(&mut recv);
            self.engine.run(
                &walk,
                &self.stats,
                &mut src,
                &mut dst,
                total,
                inorder,
                self.model.out_of_order_fragments,
                &mut state.stage,
            )
        };
        // Recycle the bounce buffer.
        if let SendSide::Bounce { data } = send {
            if state.bounce_pool.len() < bounce_pool_cap() {
                state.bounce_pool.push(data);
                self.metrics
                    .g_bounce_pool
                    .set(state.bounce_pool.len() as u64);
            }
        }

        rec.end_ns = now();
        rec.pack_ns = walk.pack.ns.into_inner();
        rec.pack_calls = walk.pack.calls.into_inner();
        rec.unpack_ns = walk.unpack.ns.into_inner();
        rec.unpack_calls = walk.unpack.calls.into_inner();
        rec.lanes = walk.lanes.into_inner();
        match &outcome {
            Ok(()) => {
                rec.wire_ns = self
                    .model
                    .message_time_ns(total, rec.regions as usize, rendezvous);
                // The online gate: a transfer beyond the previous window's
                // p99-derived threshold is flagged (and counted) as it
                // completes.
                rec.straggler = stamped
                    && self
                        .metrics
                        .record_straggler_check(rec.end_ns, rec.active_ns());
            }
            Err(e) => rec.error = e.flight_code(),
        }
        self.publish(&rec);
        outcome.map(|()| Envelope {
            source,
            tag,
            bytes: total,
        })
    }

    /// Write one transfer's record to every sink: the traffic counters
    /// (per fabric and in the registry), the wire ledger, the synthetic
    /// `wire` span, the telemetry sketches, and the flight ring (the
    /// straggler gate already ran: its verdict is in the record). A failed
    /// transfer delivered no message, so it reaches only the callback-time
    /// counters and the flight ring.
    fn publish(&self, rec: &TransferRecord) {
        if rec.pack_calls + rec.unpack_calls > 0 {
            self.metrics.pack_ns.add(rec.pack_ns);
            self.metrics.unpack_ns.add(rec.unpack_ns);
        }
        if rec.error == 0 {
            let (bytes, regions) = (rec.bytes as usize, rec.regions as usize);
            let rendezvous = rec.method == Method::Rendezvous;
            let frags = self.model.fragments(bytes);
            self.ledger.add_ns(rec.wire_ns);
            self.stats.record_message(bytes, rendezvous, frags, regions);
            self.metrics
                .record_message(bytes, rendezvous, frags, regions, rec.wire_ns);
            // The wire is modeled, not executed: its span is the modeled
            // time anchored at the match stamp.
            mpicd_obs::trace::record(
                "wire",
                "fabric",
                rec.match_ns,
                rec.wire_ns as u64,
                rec.bytes,
            );
            self.metrics.tele_active_ns.record(rec.active_ns());
        }
        // Unrecorded transfers (id 0) skip the call, as the posts do.
        if rec.id != 0 {
            flight::record_transfer(rec);
        }
    }
}

/// A transfer's record as its two posts seed it: their flight ids and
/// post stamps.
fn posts(send_id: u64, send_ns: u64, recv_id: u64, recv_ns: u64) -> TransferRecord {
    TransferRecord {
        id: send_id,
        recv_id,
        post_send_ns: send_ns,
        post_recv_ns: recv_ns,
        ..TransferRecord::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{ANY_SOURCE, ANY_TAG};

    #[test]
    fn eager_send_recv_roundtrip() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        a.send_bytes(b"hello fabric", 1, 7).unwrap();
        let mut buf = [0u8; 32];
        let env = b.recv_bytes(&mut buf, 0, 7).unwrap();
        assert_eq!(env.bytes, 12);
        assert_eq!(env.source, 0);
        assert_eq!(&buf[..12], b"hello fabric");
    }

    /// A thread parked in `probe`, then in `mprobe`, wakes for a send
    /// posted after it parked.
    #[test]
    fn parked_probe_and_mprobe_wake_on_a_later_send() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let prober = std::thread::spawn(move || {
            parked_tx.send(()).unwrap();
            let env = b.probe(0, 3);
            parked_tx.send(()).unwrap();
            let (menv, msg) = b.mprobe(0, 4);
            let mut buf = [0u8; 2];
            let req = unsafe {
                b.post_mrecv(RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)), msg)
                    .unwrap()
            };
            req.wait().unwrap();
            (env, menv, buf)
        });
        for (payload, tag) in [(&b"abc"[..], 3), (&b"de"[..], 4)] {
            parked_rx.recv().unwrap();
            // Give the prober time to find the queue empty and park.
            std::thread::sleep(std::time::Duration::from_millis(20));
            a.send_bytes(payload, 1, tag).unwrap();
        }
        let (env, menv, buf) = prober.join().unwrap();
        assert_eq!((env.tag, env.bytes), (3, 3));
        assert_eq!((menv.tag, menv.bytes), (4, 2));
        assert_eq!(&buf, b"de");
    }

    /// A receive matched when it is posted comes back finished; it clones,
    /// tests, waits and cancels exactly like a pending request that was
    /// completed by a later send.
    #[test]
    fn receive_matched_at_post_behaves_like_a_pending_one() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let mut early = [0u8; 4];
        let mut late = [0u8; 4];
        // Pending: posted before its send.
        let pending = unsafe {
            b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut late)), 0, 1)
                .unwrap()
        };
        assert!(!pending.is_done());
        a.send_bytes(b"wxyz", 1, 2).unwrap();
        a.send_bytes(b"WXYZ", 1, 1).unwrap();
        // Finished: its send is already queued.
        let finished = unsafe {
            b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut early)), 0, 2)
                .unwrap()
        };
        for (r, tag) in [(&finished, 2), (&pending, 1)] {
            let want = Envelope {
                source: 0,
                tag,
                bytes: 4,
            };
            let copy = r.clone();
            assert!(r.is_done() && copy.is_done());
            assert_eq!(r.test(), Some(Ok(want)));
            r.cancel();
            assert_eq!(copy.wait(), Ok(want), "cancel after completion is a no-op");
            assert_eq!(r.test(), Some(Ok(want)));
        }
        assert_eq!(&early, b"wxyz");
        assert_eq!(&late, b"WXYZ");
    }

    #[test]
    fn recv_posted_first_nonblocking() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let mut buf = [0u8; 8];
        let recv = unsafe {
            b.post_recv(
                RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)),
                ANY_SOURCE,
                ANY_TAG,
            )
            .unwrap()
        };
        assert!(!recv.is_done());
        a.send_bytes(&[1, 2, 3, 4], 1, 0).unwrap();
        let env = recv.wait().unwrap();
        assert_eq!(env.bytes, 4);
        assert_eq!(&buf[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn rendezvous_send_defers_until_matched() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let big = vec![0xabu8; 64 * 1024]; // above the 32 KiB threshold
        let send = unsafe {
            a.post_send(SendDesc::Contig(IovEntry::from_slice(&big)), 1, 3)
                .unwrap()
        };
        assert!(!send.is_done(), "rendezvous send pends until matched");
        let mut out = vec![0u8; 64 * 1024];
        b.recv_bytes(&mut out, 0, 3).unwrap();
        assert!(send.is_done());
        assert_eq!(out, big);
        let stats = fabric.stats();
        assert_eq!(stats.rendezvous, 1);
        assert_eq!(stats.eager, 0);
    }

    #[test]
    fn eager_send_completes_immediately() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let small = [5u8; 128];
        let send = unsafe {
            a.post_send(SendDesc::Contig(IovEntry::from_slice(&small)), 1, 0)
                .unwrap()
        };
        assert!(send.is_done(), "eager send buffers and completes");
        let mut out = [0u8; 128];
        fabric
            .endpoint(1)
            .unwrap()
            .recv_bytes(&mut out, 0, 0)
            .unwrap();
        assert_eq!(out, small);
        assert_eq!(fabric.stats().eager, 1);
    }

    #[test]
    fn non_overtaking_order_same_tag() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        a.send_bytes(&[1], 1, 5).unwrap();
        a.send_bytes(&[2], 1, 5).unwrap();
        let mut x = [0u8; 1];
        let mut y = [0u8; 1];
        b.recv_bytes(&mut x, 0, 5).unwrap();
        b.recv_bytes(&mut y, 0, 5).unwrap();
        assert_eq!((x[0], y[0]), (1, 2));
    }

    #[test]
    fn tag_selective_matching() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        a.send_bytes(&[10], 1, 100).unwrap();
        a.send_bytes(&[20], 1, 200).unwrap();
        let mut buf = [0u8; 1];
        b.recv_bytes(&mut buf, 0, 200).unwrap();
        assert_eq!(buf[0], 20);
        b.recv_bytes(&mut buf, 0, 100).unwrap();
        assert_eq!(buf[0], 10);
    }

    #[test]
    fn truncation_errors_receiver_not_sender() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        a.send_bytes(&[0u8; 100], 1, 0).unwrap();
        let mut small = [0u8; 10];
        let err = b.recv_bytes(&mut small, 0, 0).unwrap_err();
        assert!(matches!(err, FabricError::Truncated { .. }));
    }

    #[test]
    fn truncation_errors_receiver_when_recv_posted_first() {
        // Same contract in the opposite arrival order: a pre-posted small
        // receive truncates, but the matched sender still succeeds — which
        // side won the race must be unobservable to the sender.
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let mut small = [0u8; 10];
        let recv = unsafe {
            b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut small)), 0, 0)
                .unwrap()
        };
        a.send_bytes(&[0u8; 100], 1, 0).unwrap();
        let err = recv.wait().unwrap_err();
        assert!(matches!(err, FabricError::Truncated { .. }));
    }

    #[test]
    fn iov_send_to_contig_recv() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let p1 = [1u8, 2];
        let p2 = [3u8, 4, 5];
        let mut out = [0u8; 5];
        let recv = unsafe {
            b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut out)), 0, 0)
                .unwrap()
        };
        let send = unsafe {
            a.post_send(
                SendDesc::Iov(vec![IovEntry::from_slice(&p1), IovEntry::from_slice(&p2)]),
                1,
                0,
            )
            .unwrap()
        };
        send.wait().unwrap();
        recv.wait().unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5]);
        assert_eq!(fabric.stats().regions, 2);
    }

    #[test]
    fn generic_send_with_regions_single_message() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let header = [9u8, 8, 7, 6];
        let body = vec![0x55u8; 1000];
        let mut out_header = [0u8; 4];
        let mut out_body = vec![0u8; 1000];

        struct HeaderUnpack(*mut u8);
        unsafe impl Send for HeaderUnpack {}
        impl crate::payload::FragmentUnpacker for HeaderUnpack {
            fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
                unsafe {
                    std::ptr::copy_nonoverlapping(src.as_ptr(), self.0.add(offset), src.len());
                }
                Ok(())
            }
        }

        let recv = unsafe {
            b.post_recv(
                RecvDesc::Generic {
                    unpacker: Box::new(HeaderUnpack(out_header.as_mut_ptr())),
                    packed_size: 4,
                    regions: vec![IovEntryMut::from_slice(&mut out_body)],
                },
                0,
                1,
            )
            .unwrap()
        };

        let hdr = header;
        let send = unsafe {
            a.post_send(
                SendDesc::Generic {
                    packer: Box::new(move |offset: usize, dst: &mut [u8]| {
                        let n = dst.len().min(4 - offset);
                        dst[..n].copy_from_slice(&hdr[offset..offset + n]);
                        Ok(n)
                    }),
                    packed_size: 4,
                    regions: vec![IovEntry::from_slice(&body)],
                    inorder: true,
                },
                1,
                1,
            )
            .unwrap()
        };
        send.wait().unwrap();
        let env = recv.wait().unwrap();
        assert_eq!(env.bytes, 1004);
        assert_eq!(out_header, header);
        assert_eq!(out_body, body);
        // The whole thing was ONE message — the paper's key property.
        assert_eq!(fabric.stats().messages, 1);
    }

    #[test]
    fn probe_reports_envelope() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        assert!(b.iprobe(ANY_SOURCE, ANY_TAG).is_none());
        a.send_bytes(&[0u8; 42], 1, 9).unwrap();
        let env = b.iprobe(ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(env.bytes, 42);
        assert_eq!(env.tag, 9);
        assert_eq!(env.source, 0);
        // Probing does not consume the message.
        let mut buf = [0u8; 42];
        b.recv_bytes(&mut buf, 0, 9).unwrap();
    }

    #[test]
    fn blocking_probe_from_other_thread() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let t = std::thread::spawn(move || b.probe(ANY_SOURCE, ANY_TAG));
        std::thread::sleep(std::time::Duration::from_millis(20));
        a.send_bytes(&[1, 2, 3], 1, 4).unwrap();
        let env = t.join().unwrap();
        assert_eq!(env.bytes, 3);
    }

    #[test]
    fn threaded_pingpong() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let t = std::thread::spawn(move || {
            let mut buf = vec![0u8; 1024];
            for _ in 0..100 {
                b.recv_bytes(&mut buf, 0, 0).unwrap();
                b.send_bytes(&buf, 0, 1).unwrap();
            }
        });
        let msg = vec![7u8; 1024];
        let mut echo = vec![0u8; 1024];
        for _ in 0..100 {
            a.send_bytes(&msg, 1, 0).unwrap();
            a.recv_bytes(&mut echo, 1, 1).unwrap();
        }
        t.join().unwrap();
        assert_eq!(echo, msg);
        assert_eq!(fabric.stats().messages, 200);
    }

    #[test]
    fn invalid_rank_rejected() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        assert!(matches!(
            a.send_bytes(&[1], 5, 0),
            Err(FabricError::InvalidRank { rank: 5, world: 2 })
        ));
        assert!(fabric.endpoint(2).is_err());
    }

    #[test]
    fn wire_ledger_accumulates_per_message() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let snap = fabric.ledger().snapshot();
        a.send_bytes(&[0u8; 1024], 1, 0).unwrap();
        let mut buf = [0u8; 1024];
        b.recv_bytes(&mut buf, 0, 0).unwrap();
        let expected = fabric.model().message_time_ns(1024, 1, false);
        assert!((fabric.ledger().delta_ns(&snap) - expected).abs() < 0.01);
        assert_eq!(fabric.ledger().delta_messages(&snap), 1);
    }

    #[test]
    fn many_completed_recvs_ahead_of_match_drain_amortized() {
        // Regression (the old `remove(idx)` sweep): thousands of cancelled
        // receives queued ahead of the live one were shifted out one at a
        // time inside the match loop. The engine drains them lazily —
        // each dead entry is visited once, counted once, and the match
        // still lands on the live post.
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        const DEAD: usize = 5000;
        let mut bufs = vec![[0u8; 4]; DEAD];
        for buf in &mut bufs {
            let r = unsafe {
                b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(buf)), 0, 0)
                    .unwrap()
            };
            r.cancel();
        }
        let mut live = [0u8; 4];
        let r = unsafe {
            b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut live)), 0, 0)
                .unwrap()
        };
        a.send_bytes(&[9, 9, 9, 9], 1, 0).unwrap();
        r.wait().unwrap();
        assert_eq!(live, [9, 9, 9, 9]);
        let stats = fabric.stats();
        assert_eq!(
            stats.match_drained, DEAD as u64,
            "each dead post drained once"
        );
        assert_eq!(stats.match_exact, 1);
        // The drained entries are gone: a second exchange drains nothing new.
        let r2 = unsafe {
            b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut live)), 0, 0)
                .unwrap()
        };
        a.send_bytes(&[7, 7, 7, 7], 1, 0).unwrap();
        r2.wait().unwrap();
        assert_eq!(fabric.stats().match_drained, DEAD as u64);
    }

    #[test]
    fn improbe_consumes_earliest_match() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        a.send_bytes(&[1], 1, 5).unwrap();
        a.send_bytes(&[2, 2], 1, 9).unwrap();
        a.send_bytes(&[3, 3, 3], 1, 5).unwrap();
        // Wildcard matched probe takes the earliest arrival (tag 5, 1 byte).
        let (env, msg) = b.improbe(ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!((env.tag, env.bytes), (5, 1));
        let mut buf = [0u8; 4];
        unsafe { b.post_mrecv(RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)), msg) }
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(buf[0], 1);
        // Exact matched probe skips the tag-9 message and takes the
        // earliest tag-5 one.
        let (env, msg) = b.improbe(0, 5).unwrap();
        assert_eq!((env.tag, env.bytes), (5, 3));
        unsafe { b.post_mrecv(RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)), msg) }
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(&buf[..3], &[3, 3, 3]);
        assert!(b.improbe(0, 5).is_none(), "tag 5 drained");
        assert!(b.iprobe(0, 9).is_some(), "tag 9 still queued");
    }

    #[test]
    fn probe_skips_cancelled_deferred_send() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        // A rendezvous send stays deferred; cancelling it makes it dead.
        let big = vec![1u8; 64 * 1024];
        let dead = unsafe {
            a.post_send(SendDesc::Contig(IovEntry::from_slice(&big)), 1, 4)
                .unwrap()
        };
        dead.cancel();
        a.send_bytes(&[42], 1, 4).unwrap();
        // Every probe flavor must report the live eager send, not the corpse.
        let env = b.iprobe(ANY_SOURCE, 4).unwrap();
        assert_eq!(env.bytes, 1);
        let env = b.probe(0, ANY_TAG);
        assert_eq!(env.bytes, 1);
        let (env, msg) = b.improbe(0, 4).unwrap();
        assert_eq!(env.bytes, 1);
        let mut buf = [0u8; 1];
        unsafe { b.post_mrecv(RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)), msg) }
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(buf[0], 42);
        assert!(fabric.stats().match_drained >= 1);
    }

    #[test]
    fn wildcard_recv_preserves_cross_tag_arrival_order() {
        // Sends with different tags land in different hash buckets; a
        // wildcard receive must still see them in arrival order (the
        // sideline merge).
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        for (i, tag) in [900, 3, 77, 12].into_iter().enumerate() {
            a.send_bytes(&[i as u8], 1, tag).unwrap();
        }
        for want in 0..4u8 {
            let mut buf = [0u8; 1];
            b.recv_bytes(&mut buf, ANY_SOURCE, ANY_TAG).unwrap();
            assert_eq!(buf[0], want);
        }
        let stats = fabric.stats();
        assert_eq!(stats.match_wildcard, 4);
        assert_eq!(stats.match_exact, 0);
    }

    #[test]
    fn wildcard_posted_before_exact_wins_the_race() {
        // Posted-receive side of the seq merge: an ANY_SOURCE post made
        // *before* an exact post must match first (MPI post order), even
        // though the exact post sits in the O(1) bucket.
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let mut wild = [0u8; 1];
        let rw = unsafe {
            b.post_recv(
                RecvDesc::Contig(IovEntryMut::from_slice(&mut wild)),
                ANY_SOURCE,
                6,
            )
            .unwrap()
        };
        let mut exact = [0u8; 1];
        let re = unsafe {
            b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut exact)), 0, 6)
                .unwrap()
        };
        a.send_bytes(&[1], 1, 6).unwrap();
        a.send_bytes(&[2], 1, 6).unwrap();
        rw.wait().unwrap();
        re.wait().unwrap();
        assert_eq!((wild[0], exact[0]), (1, 2));
        let stats = fabric.stats();
        assert_eq!(stats.match_wildcard, 1);
        assert_eq!(stats.match_exact, 1);
    }

    #[test]
    fn linear_config_is_functionally_identical() {
        // MatchConfig::linear (one bucket) must behave exactly like the
        // default engine — it is the ablation baseline.
        let fabric = Fabric::with_config(
            2,
            WireModel::default(),
            PipelineConfig::with_threads(1),
            MatchConfig::linear(),
        );
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        a.send_bytes(&[1], 1, 5).unwrap();
        a.send_bytes(&[2], 1, 5).unwrap();
        let mut x = [0u8; 1];
        let mut y = [0u8; 1];
        b.recv_bytes(&mut x, 0, 5).unwrap();
        b.recv_bytes(&mut y, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!((x[0], y[0]), (1, 2));
    }

    #[test]
    fn cancelled_recv_is_skipped() {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let mut buf1 = [0u8; 4];
        let r1 = unsafe {
            b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut buf1)), 0, 0)
                .unwrap()
        };
        r1.cancel();
        let mut buf2 = [0u8; 4];
        let r2 = unsafe {
            b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut buf2)), 0, 0)
                .unwrap()
        };
        a.send_bytes(&[1, 2, 3, 4], 1, 0).unwrap();
        r2.wait().unwrap();
        assert_eq!(buf2, [1, 2, 3, 4]);
        assert_eq!(buf1, [0; 4], "cancelled receive got no data");
    }

    fn typecheck_fabric(mode: TypecheckMode) -> Fabric {
        Fabric::with_config(
            2,
            WireModel::default(),
            PipelineConfig::with_threads(1),
            MatchConfig::default().with_typecheck(mode),
        )
    }

    #[test]
    fn typecheck_enforce_fails_mismatched_pair_posted_first() {
        let fabric = typecheck_fabric(TypecheckMode::Enforce);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let mut buf = [0u8; 8];
        // Receive posted first: the check fires inside post_send_sig.
        let r = unsafe {
            b.post_recv_sig(
                RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)),
                0,
                0,
                0xB,
            )
            .unwrap()
        };
        let data = [1u8; 8];
        let s = unsafe {
            a.post_send_sig(SendDesc::Contig(IovEntry::from_slice(&data)), 1, 0, 0xA)
                .unwrap()
        };
        assert_eq!(
            r.wait(),
            Err(FabricError::TypeMismatch {
                sent: 0xA,
                expected: 0xB
            })
        );
        // The sender's bytes went out; like Truncated, the send completes.
        assert_eq!(s.wait().unwrap().bytes, 8);
        assert_eq!(fabric.stats().type_mismatch, 1);
        assert_eq!(buf, [0u8; 8], "rejected receive got no data");
    }

    #[test]
    fn typecheck_enforce_fails_mismatched_pair_unexpected() {
        let fabric = typecheck_fabric(TypecheckMode::Enforce);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        // Send lands on the unexpected queue; the check fires in
        // post_recv_sig with the signature that rode along on PendingSend.
        let data = [2u8; 8];
        let s = unsafe {
            a.post_send_sig(SendDesc::Contig(IovEntry::from_slice(&data)), 1, 0, 0xA)
                .unwrap()
        };
        s.wait().unwrap();
        let mut buf = [0u8; 8];
        let r = unsafe {
            b.post_recv_sig(
                RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)),
                0,
                0,
                0xB,
            )
            .unwrap()
        };
        assert_eq!(
            r.wait(),
            Err(FabricError::TypeMismatch {
                sent: 0xA,
                expected: 0xB
            })
        );
        assert_eq!(fabric.stats().type_mismatch, 1);
    }

    #[test]
    fn typecheck_enforce_fails_mismatched_mrecv() {
        let fabric = typecheck_fabric(TypecheckMode::Enforce);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let data = [3u8; 4];
        unsafe {
            a.post_send_sig(SendDesc::Contig(IovEntry::from_slice(&data)), 1, 0, 0xA)
                .unwrap()
        }
        .wait()
        .unwrap();
        let (_env, msg) = b.improbe(0, 0).unwrap();
        let mut buf = [0u8; 4];
        let r = unsafe {
            b.post_mrecv_sig(
                RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)),
                msg,
                0xB,
            )
            .unwrap()
        };
        assert_eq!(
            r.wait(),
            Err(FabricError::TypeMismatch {
                sent: 0xA,
                expected: 0xB
            })
        );
        assert_eq!(fabric.stats().type_mismatch, 1);
    }

    #[test]
    fn typecheck_warn_counts_and_proceeds() {
        // Warn is the static default MatchConfig.
        let fabric = Fabric::with_config(
            2,
            WireModel::default(),
            PipelineConfig::with_threads(1),
            MatchConfig::default(),
        );
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let data = [4u8; 4];
        unsafe {
            a.post_send_sig(SendDesc::Contig(IovEntry::from_slice(&data)), 1, 0, 0xA)
                .unwrap()
        }
        .wait()
        .unwrap();
        let mut buf = [0u8; 4];
        let env = unsafe {
            b.post_recv_sig(
                RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)),
                0,
                0,
                0xB,
            )
            .unwrap()
        }
        .wait()
        .unwrap();
        assert_eq!(env.bytes, 4);
        assert_eq!(buf, data, "warn mode still delivers the bytes");
        assert_eq!(fabric.stats().type_mismatch, 1, "but the mismatch counts");
    }

    #[test]
    fn typecheck_off_is_silent() {
        let fabric = typecheck_fabric(TypecheckMode::Off);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let data = [5u8; 4];
        unsafe {
            a.post_send_sig(SendDesc::Contig(IovEntry::from_slice(&data)), 1, 0, 0xA)
                .unwrap()
        }
        .wait()
        .unwrap();
        let mut buf = [0u8; 4];
        unsafe {
            b.post_recv_sig(
                RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)),
                0,
                0,
                0xB,
            )
            .unwrap()
        }
        .wait()
        .unwrap();
        assert_eq!(buf, data);
        assert_eq!(fabric.stats().type_mismatch, 0, "off mode never counts");
    }

    #[test]
    fn typecheck_zero_signature_is_unchecked() {
        // A raw-bytes side (sig 0) never trips the check, even in enforce:
        // send_bytes/recv_bytes interop with typed peers stays legal.
        let fabric = typecheck_fabric(TypecheckMode::Enforce);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let data = [6u8; 4];
        unsafe {
            a.post_send_sig(SendDesc::Contig(IovEntry::from_slice(&data)), 1, 0, 0xA)
                .unwrap()
        }
        .wait()
        .unwrap();
        let mut buf = [0u8; 4];
        b.recv_bytes(&mut buf, 0, 0).unwrap();
        assert_eq!(buf, data);
        assert_eq!(fabric.stats().type_mismatch, 0);
    }

    #[test]
    fn typecheck_matching_signatures_pass_enforce() {
        let fabric = typecheck_fabric(TypecheckMode::Enforce);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let data = [7u8; 4];
        unsafe {
            a.post_send_sig(SendDesc::Contig(IovEntry::from_slice(&data)), 1, 0, 0xA)
                .unwrap()
        }
        .wait()
        .unwrap();
        let mut buf = [0u8; 4];
        unsafe {
            b.post_recv_sig(
                RecvDesc::Contig(IovEntryMut::from_slice(&mut buf)),
                0,
                0,
                0xA,
            )
            .unwrap()
        }
        .wait()
        .unwrap();
        assert_eq!(buf, data);
        assert_eq!(fabric.stats().type_mismatch, 0);
    }
}

/// Model-checked arrival wakeups. Run with
/// `RUSTFLAGS="--cfg mpicd_check" cargo test -p mpicd-fabric`; the match
/// state lock and the `arrivals` condvar then resolve to the instrumented
/// primitives, and the checker explores a blocking probe racing the send
/// it waits for.
#[cfg(all(test, mpicd_check))]
mod model_tests {
    use super::*;
    use mpicd_check::{model, thread as mthread};

    /// `probe` and `mprobe` park on `arrivals` until a matching send is
    /// queued; in every interleaving with the eager `post_send` they wake
    /// and see it.
    #[test]
    fn blocking_probe_racing_post_send_never_misses_the_arrival() {
        // Initialize process-wide observability state outside the model,
        // so every explored iteration runs the same operations.
        drop(Fabric::new(2));
        model(|| {
            let fabric = Fabric::new(2);
            let rx = fabric.endpoint(1).unwrap();
            let tx = fabric.endpoint(0).unwrap();
            let prober = mthread::spawn(move || {
                let env = rx.probe(0, 5);
                let (menv, msg) = rx.mprobe(0, 5);
                drop(msg);
                (env, menv)
            });
            tx.send_bytes(&[1, 2, 3], 1, 5).unwrap();
            let (env, menv) = prober.join();
            assert_eq!((env.source, env.tag, env.bytes), (0, 5, 3));
            assert_eq!(env, menv, "mprobe takes the message probe saw");
        });
    }
}
