//! Point-to-point communication: worlds, communicators, blocking and scoped
//! nonblocking operations.
//!
//! Three send/receive paths exist, matching the methods compared throughout
//! the paper's evaluation:
//!
//! 1. **contiguous** — the buffer is already dense bytes ([`Buffer`] yields
//!    [`SendView::Contiguous`]); sent directly (the `rsmpi-bytes-baseline`).
//! 2. **custom** — the buffer serializes through the callback interface;
//!    the wire carries *one* message whose scatter/gather list is
//!    `[packed stream, region…]` (the paper's proposal).
//! 3. **typed** — classic MPI derived datatypes via the `mpicd-datatype`
//!    engine ([`Communicator::send_typed`]); contiguous committed types are
//!    sent directly, gapped ones stream through the type-map pack engine
//!    (the `rsmpi`/Open MPI baseline).

// Audited unsafe: FFI-style buffer handoff into the fabric; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::buffer::{Buffer, BufferMut, RecvView, SendView};
use crate::datatype::{CustomPack, CustomUnpack, PackAdapter, RecvRegion};
use crate::error::{Error, Result};
use mpicd_datatype::engine::{DatatypePacker, DatatypeUnpacker};
use mpicd_datatype::Committed;
use mpicd_fabric::{
    Endpoint, Fabric, FragmentPacker, FragmentUnpacker, IovEntry, IovEntryMut, RecvDesc, Request,
    SendDesc, Tag, WireModel,
};
use std::marker::PhantomData;
use std::sync::Arc;

/// Completion information (MPI's `MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank of the peer that sent the message.
    pub source: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload bytes transferred.
    pub bytes: usize,
}

impl From<mpicd_fabric::matching::Envelope> for Status {
    fn from(e: mpicd_fabric::matching::Envelope) -> Self {
        Self {
            source: e.source,
            tag: e.tag,
            bytes: e.bytes,
        }
    }
}

/// Tag reserved for [`Communicator::barrier`].
const BARRIER_TAG: Tag = i32::MAX - 7;

/// Flight-recorder `Error` code for a receive whose `finish()` hook
/// failed *after* the wire transfer completed. Kept above the
/// `FabricError::flight_code` range (1–12) so analyzers can tell transport
/// failures from receiver-side deserialization failures.
const FLIGHT_FINISH_FAILED: u64 = 100;

/// Record a flight `Error` event against `req`'s transfer id (no-op when
/// the recorder was off at post time).
fn flight_finish_error(req: &Request) {
    let fid = req.flight_id();
    if fid != 0 {
        mpicd_obs::flight::record(
            mpicd_obs::flight::FlightEvent::new(mpicd_obs::flight::EventKind::Error, fid)
                .code(FLIGHT_FINISH_FAILED),
        );
    }
}

/// An in-process MPI world (all ranks share one simulated fabric).
pub struct World {
    fabric: Fabric,
}

impl World {
    /// A world of `size` ranks with the default wire model.
    pub fn new(size: usize) -> Self {
        Self {
            fabric: Fabric::new(size),
        }
    }

    /// A world with an explicit wire model (latency, bandwidth, thresholds).
    pub fn with_model(size: usize, model: WireModel) -> Self {
        Self {
            fabric: Fabric::with_model(size, model),
        }
    }

    /// A world with an explicit wire model *and* fragment-engine
    /// configuration, overriding the `MPICD_PIPELINE_THREADS` and
    /// `MPICD_PIPELINE_DEPTH` knobs (used by the ablation harness to sweep
    /// thread counts).
    pub fn with_model_and_pipeline(
        size: usize,
        model: WireModel,
        pipeline: mpicd_fabric::PipelineConfig,
    ) -> Self {
        Self {
            fabric: Fabric::with_model_and_pipeline(size, model, pipeline),
        }
    }

    /// The fully-explicit constructor: wire model, pipeline, and matching
    /// configuration (match buckets + `MPICD_TYPECHECK` mode), ignoring the
    /// environment. Tests pin the typecheck mode through this so parallel
    /// test binaries never race on the process environment.
    pub fn with_config(
        size: usize,
        model: WireModel,
        pipeline: mpicd_fabric::PipelineConfig,
        matching: mpicd_fabric::MatchConfig,
    ) -> Self {
        Self {
            fabric: Fabric::with_config(size, model, pipeline, matching),
        }
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.fabric.size()
    }

    /// The underlying fabric (wire ledger, traffic statistics).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Communicator for `rank`.
    pub fn comm(&self, rank: usize) -> Communicator {
        Communicator {
            ep: self.fabric.endpoint(rank).expect("rank in range"),
        }
    }

    /// Convenience: communicators for ranks 0 and 1 (the pingpong pair).
    pub fn pair(&self) -> (Communicator, Communicator) {
        assert!(self.size() >= 2, "pair() needs at least two ranks");
        (self.comm(0), self.comm(1))
    }

    /// Communicators for every rank, in rank order.
    pub fn comms(&self) -> Vec<Communicator> {
        (0..self.size()).map(|r| self.comm(r)).collect()
    }
}

/// A rank's handle for point-to-point communication.
#[derive(Clone)]
pub struct Communicator {
    ep: Endpoint,
}

impl Communicator {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.ep.size()
    }

    /// Access to the underlying fabric endpoint (statistics, wire ledger).
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    // ---- blocking operations -----------------------------------------------

    /// Blocking send of any [`Buffer`].
    pub fn send<B: Buffer + ?Sized>(&self, buf: &B, dest: usize, tag: Tag) -> Result<Status> {
        let _sp = mpicd_obs::span!("comm.send", "core");
        let req = match buf.send_view() {
            SendView::Contiguous(bytes) => {
                // SAFETY: we wait below, so `bytes` outlives the operation.
                unsafe {
                    self.ep
                        .post_send(SendDesc::Contig(IovEntry::from_slice(bytes)), dest, tag)?
                }
            }
            SendView::Custom(ctx) => {
                // SAFETY: we wait below, so the context (and the regions it
                // references) outlive the operation.
                unsafe { self.post_custom_send(ctx, dest, tag)? }
            }
        };
        Ok(req.wait()?.into())
    }

    /// Blocking receive into any [`BufferMut`].
    pub fn recv<B: BufferMut + ?Sized>(
        &self,
        buf: &mut B,
        source: i32,
        tag: Tag,
    ) -> Result<Status> {
        let _sp = mpicd_obs::span!("comm.recv", "core");
        match buf.recv_view() {
            RecvView::Contiguous(bytes) => {
                // SAFETY: we wait before returning.
                let req = unsafe {
                    self.ep.post_recv(
                        RecvDesc::Contig(IovEntryMut::from_slice(bytes)),
                        source,
                        tag,
                    )?
                };
                Ok(req.wait()?.into())
            }
            RecvView::Custom(mut ctx) => {
                // SAFETY: `ctx` stays alive on this stack frame until after
                // the wait; the fabric stops using the pointer at completion.
                let req = unsafe { self.post_custom_recv(&mut *ctx, source, tag)? };
                let env = req.wait()?;
                if let Err(e) = ctx.finish() {
                    flight_finish_error(&req);
                    return Err(e);
                }
                Ok(env.into())
            }
        }
    }

    /// Blocking send through an explicit custom-serialization context
    /// (bypassing the [`Buffer`] trait — used by the C API and protocol
    /// layers that assemble contexts at runtime).
    pub fn send_custom(
        &self,
        ctx: Box<dyn CustomPack + '_>,
        dest: usize,
        tag: Tag,
    ) -> Result<Status> {
        let _sp = mpicd_obs::span!("comm.send_custom", "core");
        // SAFETY: we wait below, so the context and its regions outlive the
        // operation.
        let req = unsafe { self.post_custom_send(ctx, dest, tag)? };
        Ok(req.wait()?.into())
    }

    /// Blocking receive through an explicit custom-deserialization context.
    /// Runs `finish()` after completion.
    pub fn recv_custom(
        &self,
        ctx: &mut (dyn CustomUnpack + '_),
        source: i32,
        tag: Tag,
    ) -> Result<Status> {
        let _sp = mpicd_obs::span!("comm.recv_custom", "core");
        // SAFETY: `ctx` outlives the wait below.
        let req = unsafe { self.post_custom_recv(ctx, source, tag)? };
        let env = req.wait()?;
        if let Err(e) = ctx.finish() {
            flight_finish_error(&req);
            return Err(e);
        }
        Ok(env.into())
    }

    /// Blocking send with a classic derived datatype (the Open MPI/rsmpi
    /// baseline). `region` is the memory holding `count` elements laid out
    /// with the committed type's extent.
    pub fn send_typed(
        &self,
        region: &[u8],
        count: usize,
        ty: &Arc<Committed>,
        dest: usize,
        tag: Tag,
    ) -> Result<Status> {
        ty.check_bounds(count, region.len())?;
        let _sp = mpicd_obs::span!("comm.send_typed", "core", ty.size() * count);
        // SAFETY: we wait below, so `region` outlives the operation.
        let req = unsafe { self.post_typed_send(region.as_ptr(), count, ty, dest, tag)? };
        Ok(req.wait()?.into())
    }

    /// Blocking receive with a classic derived datatype.
    pub fn recv_typed(
        &self,
        region: &mut [u8],
        count: usize,
        ty: &Arc<Committed>,
        source: i32,
        tag: Tag,
    ) -> Result<Status> {
        ty.check_bounds(count, region.len())?;
        let _sp = mpicd_obs::span!("comm.recv_typed", "core", ty.size() * count);
        // SAFETY: we wait below.
        let req = unsafe { self.post_typed_recv(region.as_mut_ptr(), count, ty, source, tag)? };
        Ok(req.wait()?.into())
    }

    /// Nonblocking probe (like `MPI_Iprobe`).
    pub fn iprobe(&self, source: i32, tag: Tag) -> Option<Status> {
        self.ep.iprobe(source, tag).map(Into::into)
    }

    /// Blocking probe (like `MPI_Probe`).
    pub fn probe(&self, source: i32, tag: Tag) -> Status {
        self.ep.probe(source, tag).into()
    }

    /// Nonblocking matched probe (`MPI_Improbe`): atomically claims the
    /// earliest matching message so a later [`Self::mrecv`] cannot race
    /// with other threads of this rank (the locking problem the paper
    /// attributes to probe-based multi-message protocols, §II-C/§VI).
    pub fn improbe(&self, source: i32, tag: Tag) -> Option<(Status, MatchedMessage)> {
        self.ep
            .improbe(source, tag)
            .map(|(env, msg)| (env.into(), MatchedMessage { msg }))
    }

    /// Blocking matched probe (`MPI_Mprobe`).
    pub fn mprobe(&self, source: i32, tag: Tag) -> (Status, MatchedMessage) {
        let (env, msg) = self.ep.mprobe(source, tag);
        (env.into(), MatchedMessage { msg })
    }

    /// Receive a matched message into a contiguous buffer (`MPI_Mrecv`).
    pub fn mrecv(&self, buf: &mut [u8], msg: MatchedMessage) -> Result<Status> {
        let _sp = mpicd_obs::span!("comm.mrecv", "core", buf.len());
        // SAFETY: we wait before returning.
        let req = unsafe {
            self.ep
                .post_mrecv(RecvDesc::Contig(IovEntryMut::from_slice(buf)), msg.msg)?
        };
        Ok(req.wait()?.into())
    }

    // ---- fresh receives ------------------------------------------------------
    //
    // A fresh receive allocates its destination with `Vec::with_capacity`
    // and posts the spare capacity, so no byte is written before the
    // message lands: one write per received byte. The length is set only
    // after the request completes with exactly the expected byte count;
    // anything else returns `Error::LengthMismatch` and exposes nothing.

    /// Receive a matched message (`MPI_Mrecv`) into a fresh vector of its
    /// exact size.
    pub fn mrecv_vec(&self, msg: MatchedMessage) -> Result<Vec<u8>> {
        let len = msg.msg.bytes();
        let _sp = mpicd_obs::span!("comm.mrecv", "core", len);
        let (mut buf, entry) = fresh_region(len);
        // SAFETY: `entry` covers `buf`'s spare capacity, which nothing else
        // touches until the wait below returns; the descriptor is fresh, so
        // the fabric writes it only through raw copies.
        let req = unsafe {
            self.ep
                .post_mrecv(RecvDesc::Contig(entry).fresh(), msg.msg)?
        };
        let st: Status = req.wait()?.into();
        // SAFETY: the request completed having written `st.bytes` bytes
        // from the start of the spare capacity.
        unsafe { set_len_exact(&mut buf, len, st.bytes)? };
        Ok(buf)
    }

    /// Receive a message of exactly `len` bytes into a fresh vector. A
    /// shorter message is an [`Error::LengthMismatch`]; a longer one is
    /// truncated as for [`Self::recv`].
    pub fn recv_vec(&self, len: usize, source: i32, tag: Tag) -> Result<(Vec<u8>, Status)> {
        let _sp = mpicd_obs::span!("comm.recv", "core", len);
        let (mut buf, entry) = fresh_region(len);
        // SAFETY: as in `mrecv_vec`.
        let req = unsafe {
            self.ep
                .post_recv(RecvDesc::Contig(entry).fresh(), source, tag)?
        };
        let st: Status = req.wait()?.into();
        // SAFETY: as in `mrecv_vec`.
        unsafe { set_len_exact(&mut buf, len, st.bytes)? };
        Ok((buf, st))
    }

    /// Receive through `ctx`, which unpacks the packed stream, into one
    /// fresh vector per entry of `lens` for the regions after it. `ctx`
    /// must expose no regions of its own, and the message must carry
    /// exactly `ctx.packed_size()` plus the sum of `lens` bytes. Runs
    /// `finish()` after completion.
    pub fn recv_custom_fresh(
        &self,
        ctx: &mut (dyn CustomUnpack + '_),
        lens: &[usize],
        source: i32,
        tag: Tag,
    ) -> Result<(Vec<Vec<u8>>, Status)> {
        let _sp = mpicd_obs::span!("comm.recv_custom", "core");
        let packed_size = ctx.packed_size()?;
        if !ctx.regions()?.is_empty() {
            return Err(Error::Unsupported("fresh receive into context regions"));
        }
        let expected = lens
            .iter()
            .try_fold(packed_size, |total, &len| total.checked_add(len))
            .ok_or(Error::InvalidHeader("fresh receive lengths overflow"))?;
        let (mut bufs, regions): (Vec<Vec<u8>>, _) =
            lens.iter().map(|&len| fresh_region(len)).unzip();
        // SAFETY: `ctx` and `bufs` outlive the wait below and are not
        // touched before it; each region covers one vector's spare
        // capacity, and the descriptor is fresh.
        let req = unsafe { self.post_generic_recv(ctx, packed_size, regions, true, source, tag)? };
        let env = req.wait()?;
        if env.bytes != expected {
            return Err(Error::LengthMismatch {
                expected,
                got: env.bytes,
            });
        }
        for (b, &len) in bufs.iter_mut().zip(lens) {
            // SAFETY: the full-length transfer wrote every region whole.
            unsafe { b.set_len(len) };
        }
        if let Err(e) = ctx.finish() {
            flight_finish_error(&req);
            return Err(e);
        }
        Ok((bufs, env.into()))
    }

    /// Combined send + receive (`MPI_Sendrecv`): posts both nonblocking,
    /// then waits — deadlock-free regardless of peer ordering, the idiom
    /// halo-exchange codes rely on.
    pub fn sendrecv<S, R>(
        &self,
        sbuf: &S,
        dest: usize,
        stag: Tag,
        rbuf: &mut R,
        source: i32,
        rtag: Tag,
    ) -> Result<Status>
    where
        S: Buffer + ?Sized,
        R: BufferMut + ?Sized,
    {
        let _sp = mpicd_obs::span!("comm.sendrecv", "core");
        // Post the receive first, then the send, then wait on both — all
        // borrows live until the end of this call.
        match rbuf.recv_view() {
            RecvView::Contiguous(bytes) => {
                // SAFETY: waited below.
                let rreq = unsafe {
                    self.ep.post_recv(
                        RecvDesc::Contig(IovEntryMut::from_slice(bytes)),
                        source,
                        rtag,
                    )?
                };
                let sreq = self.post_any_send(sbuf, dest, stag)?;
                let status = rreq.wait()?.into();
                sreq.wait()?;
                Ok(status)
            }
            RecvView::Custom(mut ctx) => {
                // SAFETY: ctx outlives the waits below.
                let rreq = unsafe { self.post_custom_recv(&mut *ctx, source, rtag)? };
                let sreq = self.post_any_send(sbuf, dest, stag)?;
                let env = rreq.wait()?;
                if let Err(e) = ctx.finish() {
                    flight_finish_error(&rreq);
                    // Drain the send so the borrow is not left lent out.
                    let _ = sreq.wait();
                    return Err(e);
                }
                sreq.wait()?;
                Ok(env.into())
            }
        }
    }

    /// Post a send for any [`Buffer`] view (helper for [`Self::sendrecv`]).
    fn post_any_send<S: Buffer + ?Sized>(
        &self,
        sbuf: &S,
        dest: usize,
        tag: Tag,
    ) -> Result<Request> {
        match sbuf.send_view() {
            SendView::Contiguous(bytes) => {
                // SAFETY: callers wait before the borrow ends.
                Ok(unsafe {
                    self.ep
                        .post_send(SendDesc::Contig(IovEntry::from_slice(bytes)), dest, tag)?
                })
            }
            // SAFETY: as above.
            SendView::Custom(ctx) => unsafe { self.post_custom_send(ctx, dest, tag) },
        }
    }

    /// Block until every rank has entered the barrier. Requires ranks to be
    /// driven by concurrent threads (a central gather-then-release).
    pub fn barrier(&self) -> Result<()> {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let _sp = mpicd_obs::span!("comm.barrier", "core");
        let mut byte = [0u8; 1];
        if self.rank() == 0 {
            for src in 1..n {
                self.ep.recv_bytes(&mut byte, src as i32, BARRIER_TAG)?;
            }
            for dst in 1..n {
                self.ep.send_bytes(&byte, dst, BARRIER_TAG)?;
            }
        } else {
            self.ep.send_bytes(&byte, 0, BARRIER_TAG)?;
            self.ep.recv_bytes(&mut byte, 0, BARRIER_TAG)?;
        }
        Ok(())
    }

    // ---- scoped nonblocking operations --------------------------------------

    /// Run `f` with a [`Scope`] for nonblocking operations. Every operation
    /// posted in the scope is waited before `scope` returns, which is what
    /// makes lending buffers to the fabric sound.
    ///
    /// ```
    /// use mpicd::World;
    /// let world = World::new(2);
    /// let (c0, c1) = world.pair();
    /// let data = vec![1i32, 2, 3];
    /// let mut out = vec![0i32; 3];
    /// // Single-threaded nonblocking pingpong (deterministic benchmarking).
    /// c0.scope(|s| s.isend(&data, 1, 0)).unwrap();
    /// c1.scope(|s| s.irecv(&mut out, 0, 0)).unwrap();
    /// assert_eq!(out, data);
    /// ```
    pub fn scope<'env, R>(&self, f: impl FnOnce(&mut Scope<'env, '_>) -> Result<R>) -> Result<R> {
        let mut scope = Scope {
            comm: self,
            pending: Vec::new(),
            _env: PhantomData,
        };
        let r = f(&mut scope);
        let waited = scope.finish_all();
        match (r, waited) {
            (Ok(v), Ok(())) => Ok(v),
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(e),
        }
    }

    // ---- descriptor builders (shared by blocking + scoped paths) -----------

    /// Post a nonblocking custom-serialization send without a scope (used
    /// by the C API, whose callers manage buffer lifetimes manually).
    ///
    /// # Safety
    /// The context and all regions it references must outlive the request.
    pub unsafe fn post_custom_send<'a>(
        &self,
        mut ctx: Box<dyn CustomPack + 'a>,
        dest: usize,
        tag: Tag,
    ) -> Result<Request> {
        let packed_size = ctx.packed_size()?;
        let regions = ctx.regions()?;
        let inorder = ctx.inorder();
        let sig = ctx.type_signature();
        let packer: Box<dyn FragmentPacker + 'a> = Box::new(PackAdapter(ctx));
        // SAFETY: lifetime extension justified by this function's contract.
        let packer: Box<dyn FragmentPacker + 'static> = std::mem::transmute(packer);
        Ok(self.ep.post_send_sig(
            SendDesc::Generic {
                packer,
                packed_size,
                regions,
                inorder,
            },
            dest,
            tag,
            sig,
        )?)
    }

    /// Post a nonblocking custom-deserialization receive without a scope.
    /// The caller must keep `ctx` alive and untouched until the request
    /// completes (and run `finish()` itself if desired).
    ///
    /// # Safety
    /// `ctx` must outlive the request and not be accessed until it completes.
    pub unsafe fn post_custom_recv(
        &self,
        ctx: &mut (dyn CustomUnpack + '_),
        source: i32,
        tag: Tag,
    ) -> Result<Request> {
        let packed_size = ctx.packed_size()?;
        let regions = ctx.regions()?;
        // SAFETY: forwarded from this function's contract.
        unsafe { self.post_generic_recv(ctx, packed_size, regions, false, source, tag) }
    }

    /// Post `ctx` as the unpacker of a generic receive into `regions`,
    /// marked fresh when `fresh` is set.
    ///
    /// # Safety
    /// `ctx` and every region must outlive the request, and neither may be
    /// accessed until it completes.
    unsafe fn post_generic_recv(
        &self,
        ctx: &mut (dyn CustomUnpack + '_),
        packed_size: usize,
        regions: Vec<RecvRegion>,
        fresh: bool,
        source: i32,
        tag: Tag,
    ) -> Result<Request> {
        let sig = ctx.type_signature();
        let ptr: *mut (dyn CustomUnpack + '_) = ctx;
        // SAFETY: lifetime extension justified by this function's contract.
        let ptr: *mut (dyn CustomUnpack + 'static) = unsafe { std::mem::transmute(ptr) };
        let desc = RecvDesc::Generic {
            unpacker: Box::new(UnpackPtr(ptr)),
            packed_size,
            regions,
        };
        let desc = if fresh { desc.fresh() } else { desc };
        // SAFETY: forwarded from this function's contract.
        Ok(unsafe { self.ep.post_recv_sig(desc, source, tag, sig)? })
    }

    /// Post a nonblocking derived-datatype send without a scope (used by
    /// the benchmark harness and the C API).
    ///
    /// # Safety
    /// `base` must stay valid for reads of `count` elements of `ty` until
    /// the request completes.
    pub unsafe fn post_typed_send(
        &self,
        base: *const u8,
        count: usize,
        ty: &Arc<Committed>,
        dest: usize,
        tag: Tag,
    ) -> Result<Request> {
        // The committed type's structural signature rides along so the
        // receiver can verify the pair under MPICD_TYPECHECK — on the fast
        // path too: dense bytes through the wrong type map are still wrong.
        let sig = ty.signature64();
        if ty.is_contiguous() {
            // Fast path: dense types go out as raw bytes (what Open MPI does
            // for `struct-simple-no-gap` in Fig 6).
            let entry = IovEntry {
                ptr: base,
                len: ty.size() * count,
            };
            Ok(self
                .ep
                .post_send_sig(SendDesc::Contig(entry), dest, tag, sig)?)
        } else {
            // Gapped types stream through the type-map pack engine, fragment
            // by fragment — Open MPI's convertor behaviour (slow in Fig 5).
            let packer = DatatypePacker::new(Arc::clone(ty), base, count);
            let packed_size = packer.packed_size()?;
            // `inorder: false`: the type-map engine addresses any stream
            // offset directly, so fragments may arrive (or be produced by
            // the parallel pipeline) in any order.
            Ok(self.ep.post_send_sig(
                SendDesc::Generic {
                    packer: Box::new(DtPack(packer)),
                    packed_size,
                    regions: Vec::new(),
                    inorder: false,
                },
                dest,
                tag,
                sig,
            )?)
        }
    }

    /// Post a nonblocking derived-datatype receive without a scope.
    ///
    /// # Safety
    /// `base` must stay valid for writes of `count` elements of `ty` until
    /// the request completes, with no other access in between.
    pub unsafe fn post_typed_recv(
        &self,
        base: *mut u8,
        count: usize,
        ty: &Arc<Committed>,
        source: i32,
        tag: Tag,
    ) -> Result<Request> {
        let sig = ty.signature64();
        if ty.is_contiguous() {
            let entry = IovEntryMut {
                ptr: base,
                len: ty.size() * count,
            };
            Ok(self
                .ep
                .post_recv_sig(RecvDesc::Contig(entry), source, tag, sig)?)
        } else {
            let unpacker = DatatypeUnpacker::new(Arc::clone(ty), base, count);
            let packed_size = unpacker.packed_size()?;
            Ok(self.ep.post_recv_sig(
                RecvDesc::Generic {
                    unpacker: Box::new(DtUnpack(unpacker)),
                    packed_size,
                    regions: Vec::new(),
                },
                source,
                tag,
                sig,
            )?)
        }
    }
}

/// An empty vector of capacity `len`, and its spare capacity as a receive
/// region (moving the vector leaves the region valid).
fn fresh_region(len: usize) -> (Vec<u8>, RecvRegion) {
    let mut buf = Vec::with_capacity(len);
    let region = RecvRegion {
        ptr: buf.spare_capacity_mut().as_mut_ptr().cast(),
        len,
    };
    (buf, region)
}

/// Expose the `len` received bytes of a fresh `buf`, or report a transfer
/// that delivered `got` bytes instead.
///
/// # Safety
/// A completed receive must have written `got` bytes from the start of
/// `buf`'s spare capacity.
unsafe fn set_len_exact(buf: &mut Vec<u8>, len: usize, got: usize) -> Result<()> {
    if got != len {
        return Err(Error::LengthMismatch { expected: len, got });
    }
    // SAFETY: `len == got` bytes were initialized by the receive, and the
    // capacity was allocated for `len`.
    unsafe { buf.set_len(len) };
    Ok(())
}

/// A message claimed by a matched probe, consumable only via
/// [`Communicator::mrecv`] or [`Communicator::mrecv_vec`].
#[derive(Debug)]
pub struct MatchedMessage {
    msg: mpicd_fabric::fabric::Message,
}

/// Fabric adapter for the derived-datatype pack engine. Opts into the
/// parallel fragment pipeline: the committed plan addresses any stream
/// offset directly, so disjoint fragments can be packed concurrently.
struct DtPack(DatatypePacker);

impl FragmentPacker for DtPack {
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> std::result::Result<usize, i32> {
        Ok(self.0.pack(offset, dst))
    }

    fn random_access(&self) -> Option<&dyn mpicd_fabric::RandomAccessPacker> {
        Some(self)
    }
}

impl mpicd_fabric::RandomAccessPacker for DtPack {
    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> std::result::Result<usize, i32> {
        Ok(self.0.pack_at(offset, dst))
    }

    fn runs(&self) -> Option<usize> {
        Some(self.0.runs())
    }
}

/// Fabric adapter for the derived-datatype unpack engine. Opts into the
/// parallel pipeline: disjoint packed ranges scatter to disjoint typemap
/// blocks, so concurrent unpacking is safe.
struct DtUnpack(DatatypeUnpacker);

impl FragmentUnpacker for DtUnpack {
    fn unpack(&mut self, offset: usize, src: &[u8]) -> std::result::Result<(), i32> {
        self.0.unpack(offset, src);
        Ok(())
    }

    fn random_access(&self) -> Option<&dyn mpicd_fabric::RandomAccessUnpacker> {
        Some(self)
    }
}

impl mpicd_fabric::RandomAccessUnpacker for DtUnpack {
    fn unpack_at(&self, offset: usize, src: &[u8]) -> std::result::Result<(), i32> {
        self.0.unpack_at(offset, src);
        Ok(())
    }

    fn runs(&self) -> Option<usize> {
        Some(self.0.runs())
    }
}

/// Fabric adapter delivering fragments through a raw context pointer whose
/// owner outlives the request (see `post_custom_recv`).
struct UnpackPtr(*mut (dyn CustomUnpack + 'static));

// SAFETY: exclusive access alternates between poster and fabric; the post
// contract forbids concurrent use.
unsafe impl Send for UnpackPtr {}

impl FragmentUnpacker for UnpackPtr {
    fn unpack(&mut self, offset: usize, src: &[u8]) -> std::result::Result<(), i32> {
        // SAFETY: the owner keeps the context alive and untouched until
        // completion.
        unsafe { (*self.0).unpack(offset, src) }.map_err(|e| e.code())
    }

    fn random_access(&self) -> Option<&dyn mpicd_fabric::RandomAccessUnpacker> {
        // SAFETY: as above; the view borrows from the live context.
        unsafe { (*self.0).random_access() }
    }
}

/// A pending operation inside a [`Scope`].
struct PendingOp<'env> {
    request: Request,
    /// Receive contexts are kept here so `finish()` can run after completion.
    recv_ctx: Option<Box<dyn CustomUnpack + 'env>>,
}

/// Collects nonblocking operations; everything is waited when the scope
/// ends (or cancelled-then-waited if the closure errors or panics).
pub struct Scope<'env, 'c> {
    comm: &'c Communicator,
    pending: Vec<PendingOp<'env>>,
    _env: PhantomData<&'env mut ()>,
}

impl<'env> Scope<'env, '_> {
    /// Nonblocking send (like `MPI_Isend`).
    pub fn isend<B: Buffer + ?Sized>(&mut self, buf: &'env B, dest: usize, tag: Tag) -> Result<()> {
        let request = match buf.send_view() {
            SendView::Contiguous(bytes) => {
                // SAFETY: the borrow lasts for 'env, which outlives the
                // enclosing `scope` call, which waits.
                unsafe {
                    self.comm.ep.post_send(
                        SendDesc::Contig(IovEntry::from_slice(bytes)),
                        dest,
                        tag,
                    )?
                }
            }
            // SAFETY: as above.
            SendView::Custom(ctx) => unsafe { self.comm.post_custom_send(ctx, dest, tag)? },
        };
        self.pending.push(PendingOp {
            request,
            recv_ctx: None,
        });
        Ok(())
    }

    /// Nonblocking receive (like `MPI_Irecv`).
    pub fn irecv<B: BufferMut + ?Sized>(
        &mut self,
        buf: &'env mut B,
        source: i32,
        tag: Tag,
    ) -> Result<()> {
        match buf.recv_view() {
            RecvView::Contiguous(bytes) => {
                // SAFETY: see `isend`.
                let request = unsafe {
                    self.comm.ep.post_recv(
                        RecvDesc::Contig(IovEntryMut::from_slice(bytes)),
                        source,
                        tag,
                    )?
                };
                self.pending.push(PendingOp {
                    request,
                    recv_ctx: None,
                });
            }
            RecvView::Custom(mut ctx) => {
                // SAFETY: the context is stored in `pending` and outlives
                // the request; `finish_all` runs `finish()` after the wait.
                let request = unsafe { self.comm.post_custom_recv(&mut *ctx, source, tag)? };
                self.pending.push(PendingOp {
                    request,
                    recv_ctx: Some(ctx),
                });
            }
        }
        Ok(())
    }

    /// Nonblocking derived-datatype send.
    pub fn isend_typed(
        &mut self,
        region: &'env [u8],
        count: usize,
        ty: &Arc<Committed>,
        dest: usize,
        tag: Tag,
    ) -> Result<()> {
        ty.check_bounds(count, region.len())?;
        // SAFETY: see `isend`.
        let request = unsafe {
            self.comm
                .post_typed_send(region.as_ptr(), count, ty, dest, tag)?
        };
        self.pending.push(PendingOp {
            request,
            recv_ctx: None,
        });
        Ok(())
    }

    /// Nonblocking derived-datatype receive.
    pub fn irecv_typed(
        &mut self,
        region: &'env mut [u8],
        count: usize,
        ty: &Arc<Committed>,
        source: i32,
        tag: Tag,
    ) -> Result<()> {
        ty.check_bounds(count, region.len())?;
        // SAFETY: see `isend`.
        let request = unsafe {
            self.comm
                .post_typed_recv(region.as_mut_ptr(), count, ty, source, tag)?
        };
        self.pending.push(PendingOp {
            request,
            recv_ctx: None,
        });
        Ok(())
    }

    /// Nonblocking send through an explicit custom-serialization context.
    pub fn isend_custom(
        &mut self,
        ctx: Box<dyn CustomPack + 'env>,
        dest: usize,
        tag: Tag,
    ) -> Result<()> {
        // SAFETY: 'env outlives the enclosing `scope` call, which waits.
        let request = unsafe { self.comm.post_custom_send(ctx, dest, tag)? };
        self.pending.push(PendingOp {
            request,
            recv_ctx: None,
        });
        Ok(())
    }

    /// Nonblocking receive through an explicit custom-deserialization
    /// context; `finish()` runs when the scope waits.
    pub fn irecv_custom(
        &mut self,
        mut ctx: Box<dyn CustomUnpack + 'env>,
        source: i32,
        tag: Tag,
    ) -> Result<()> {
        // SAFETY: the context is stored in `pending` until the wait.
        let request = unsafe { self.comm.post_custom_recv(&mut *ctx, source, tag)? };
        self.pending.push(PendingOp {
            request,
            recv_ctx: Some(ctx),
        });
        Ok(())
    }

    /// Number of not-yet-waited operations.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Wait for every pending operation; first error wins but everything is
    /// drained (so no buffer stays lent to the fabric).
    fn finish_all(&mut self) -> Result<()> {
        let _sp = mpicd_obs::span!("comm.wait", "core");
        let mut first_err: Option<Error> = None;
        for mut op in self.pending.drain(..) {
            match op.request.wait() {
                Ok(_) => {
                    if let Some(ctx) = op.recv_ctx.as_mut() {
                        if let Err(e) = ctx.finish() {
                            flight_finish_error(&op.request);
                            first_err.get_or_insert(e);
                        }
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(Error::Fabric(e));
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

impl Drop for Scope<'_, '_> {
    fn drop(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // The closure panicked (normal exits drain via finish_all): cancel
        // what we can, then wait so no borrowed buffer stays lent out.
        for op in &self.pending {
            op.request.cancel();
        }
        for op in self.pending.drain(..) {
            let _ = op.request.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::RandomAccessPacker;
    use mpicd_datatype::Datatype;

    #[test]
    fn contiguous_send_recv() {
        let world = World::new(2);
        let (c0, c1) = world.pair();
        let data = vec![1i32, 2, 3, 4];
        let mut out = vec![0i32; 4];
        c0.scope(|s| s.isend(&data, 1, 0)).unwrap();
        let st = c1.recv(&mut out, 0, 0).unwrap();
        assert_eq!(out, data);
        assert_eq!(st.bytes, 16);
        assert_eq!(st.source, 0);
    }

    #[test]
    fn scoped_pingpong_single_thread() {
        let world = World::new(2);
        let (c0, c1) = world.pair();
        let data = vec![0.5f64; 128];
        let mut echo = vec![0f64; 128];
        for _ in 0..10 {
            c0.scope(|s| s.isend(&data, 1, 0)).unwrap();
            let mut tmp = vec![0f64; 128];
            c1.recv(&mut tmp, 0, 0).unwrap();
            c1.scope(|s| s.isend(&tmp, 0, 1)).unwrap();
            c0.recv(&mut echo, 1, 1).unwrap();
        }
        assert_eq!(echo, data);
    }

    #[test]
    fn typed_gapped_roundtrip() {
        // struct-simple over the derived-datatype engine.
        let ty = Arc::new(
            Datatype::structure(vec![
                (3, 0, Datatype::of::<i32>()),
                (1, 16, Datatype::of::<f64>()),
            ])
            .commit()
            .unwrap(),
        );
        assert!(!ty.is_contiguous());
        let world = World::new(2);
        let (c0, c1) = world.pair();
        let src: Vec<u8> = (0..240).map(|i| i as u8).collect(); // 10 elements
        let mut dst = vec![0u8; 240];
        std::thread::scope(|s| {
            s.spawn(|| c0.send_typed(&src, 10, &ty, 1, 0).unwrap());
            s.spawn(|| c1.recv_typed(&mut dst, 10, &ty, 0, 0).unwrap());
        });
        for e in 0..10 {
            let b = e * 24;
            assert_eq!(&dst[b..b + 12], &src[b..b + 12], "ints of element {e}");
            assert_eq!(&dst[b + 16..b + 24], &src[b + 16..b + 24], "double of {e}");
        }
        // Gap bytes were never written.
        assert_eq!(&dst[12..16], &[0u8; 4]);
    }

    #[test]
    fn typed_contiguous_uses_fast_path() {
        let ty = Arc::new(
            Datatype::structure(vec![
                (2, 0, Datatype::of::<i32>()),
                (1, 8, Datatype::of::<f64>()),
            ])
            .commit()
            .unwrap(),
        );
        assert!(ty.is_contiguous());
        let world = World::new(2);
        let (c0, c1) = world.pair();
        let src = vec![7u8; 160];
        let mut dst = vec![0u8; 160];
        std::thread::scope(|s| {
            s.spawn(|| c0.send_typed(&src, 10, &ty, 1, 0).unwrap());
            s.spawn(|| c1.recv_typed(&mut dst, 10, &ty, 0, 0).unwrap());
        });
        assert_eq!(dst, src);
        // Fast path = eager contiguous message.
        assert_eq!(world.fabric().stats().eager, 1);
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let world = World::new(4);
        let comms = world.comms();
        let counter = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for c in &comms {
                s.spawn(|| {
                    counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    c.barrier().unwrap();
                    assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 4);
                });
            }
        });
    }

    #[test]
    fn probe_sees_pending_message() {
        let world = World::new(2);
        let (c0, c1) = world.pair();
        assert!(c1.iprobe(-1, -2).is_none());
        c0.scope(|s| s.isend(&[1u8, 2, 3][..], 1, 5)).unwrap();
        let st = c1.iprobe(0, 5).expect("message pending");
        assert_eq!(st.bytes, 3);
        let mut out = [0u8; 3];
        c1.recv(&mut out[..], 0, 5).unwrap();
    }

    #[test]
    fn sendrecv_ring_does_not_deadlock() {
        // Every rank sendrecvs simultaneously around a ring — the pattern
        // that deadlocks with naive blocking send+recv.
        let world = World::new(4);
        let comms = world.comms();
        std::thread::scope(|s| {
            for c in &comms {
                s.spawn(|| {
                    let right = (c.rank() + 1) % 4;
                    let left = (c.rank() + 3) % 4;
                    // Rendezvous-sized so no eager buffering can hide a deadlock.
                    let send = vec![c.rank() as i64; 50_000];
                    let mut recv = vec![0i64; 50_000];
                    let st = c
                        .sendrecv(&send, right, 5, &mut recv, left as i32, 5)
                        .unwrap();
                    assert_eq!(st.source, left);
                    assert!(recv.iter().all(|v| *v == left as i64));
                });
            }
        });
    }

    #[test]
    fn sendrecv_custom_types() {
        let world = World::new(2);
        let comms = world.comms();
        std::thread::scope(|s| {
            for c in &comms {
                s.spawn(|| {
                    let peer = 1 - c.rank();
                    let send: Vec<Vec<i32>> = vec![vec![c.rank() as i32; 10]];
                    let mut recv: Vec<Vec<i32>> = vec![vec![-1; 10]];
                    c.sendrecv(&send, peer, 0, &mut recv, peer as i32, 0)
                        .unwrap();
                    assert_eq!(recv[0], vec![peer as i32; 10]);
                });
            }
        });
    }

    /// Packs byte `i` of its stream as `i as u8`, asserting first that the
    /// destination it was handed is all zeros.
    struct ZeroCheckingPack(usize);

    impl RandomAccessPacker for ZeroCheckingPack {
        fn pack_at(&self, offset: usize, dst: &mut [u8]) -> std::result::Result<usize, i32> {
            assert!(dst.iter().all(|&b| b == 0), "pack callback saw a dirty dst");
            let n = dst.len().min(self.0 - offset);
            for (i, b) in dst[..n].iter_mut().enumerate() {
                *b = (offset + i) as u8;
            }
            Ok(n)
        }
    }

    impl CustomPack for ZeroCheckingPack {
        fn packed_size(&self) -> Result<usize> {
            Ok(self.0)
        }
        fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
            self.pack_at(offset, dst).map_err(Error::Serialization)
        }
        fn inorder(&self) -> bool {
            false
        }
        fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
            Some(self)
        }
    }

    /// A receive context with an empty packed stream, eligible for the
    /// worker pool.
    struct NoStream;

    impl mpicd_fabric::RandomAccessUnpacker for NoStream {
        fn unpack_at(&self, _offset: usize, _src: &[u8]) -> std::result::Result<(), i32> {
            Ok(())
        }
    }

    impl CustomUnpack for NoStream {
        fn packed_size(&self) -> Result<usize> {
            Ok(0)
        }
        fn unpack(&mut self, _offset: usize, _src: &[u8]) -> Result<()> {
            Ok(())
        }
        fn random_access(&self) -> Option<&dyn mpicd_fabric::RandomAccessUnpacker> {
            Some(self)
        }
    }

    fn world_with_threads(threads: usize) -> World {
        World::with_model_and_pipeline(
            2,
            WireModel::default(),
            mpicd_fabric::PipelineConfig::with_threads(threads),
        )
    }

    #[test]
    fn pack_callbacks_see_zeroed_fresh_destinations() {
        let len = 5 * WireModel::default().frag_size + 123;
        let want: Vec<u8> = (0..len).map(|i| i as u8).collect();
        for threads in [1, 2] {
            let world = world_with_threads(threads);
            let (c0, c1) = world.pair();
            let lens = [len / 3, len - len / 3];
            let (contig, regions) = std::thread::scope(|s| {
                s.spawn(|| {
                    c0.send_custom(Box::new(ZeroCheckingPack(len)), 1, 0)
                        .unwrap();
                    c0.send_custom(Box::new(ZeroCheckingPack(len)), 1, 1)
                        .unwrap();
                });
                let (contig, st) = c1.recv_vec(len, 0, 0).unwrap();
                assert_eq!(st.bytes, len);
                let (regions, _) = c1.recv_custom_fresh(&mut NoStream, &lens, 0, 1).unwrap();
                (contig, regions)
            });
            assert_eq!(contig, want, "threads {threads}");
            assert_eq!(regions.concat(), want, "threads {threads}");
            assert_eq!(regions[0].len(), lens[0]);
            let pooled = world.fabric().stats().pipelined;
            assert_eq!(pooled, if threads > 1 { 2 } else { 0 }, "threads {threads}");
        }
    }

    #[test]
    fn short_messages_into_fresh_buffers_are_length_mismatches() {
        let world = World::new(2);
        let (c0, c1) = world.pair();
        let short = vec![5u8; 8];
        c0.scope(|s| s.isend(&short, 1, 0)).unwrap();
        assert_eq!(
            c1.recv_vec(16, 0, 0).unwrap_err(),
            Error::LengthMismatch {
                expected: 16,
                got: 8
            }
        );
        std::thread::scope(|s| {
            s.spawn(|| c0.send_custom(Box::new(ZeroCheckingPack(8)), 1, 1).unwrap());
            let err = c1
                .recv_custom_fresh(&mut NoStream, &[4, 12], 0, 1)
                .unwrap_err();
            assert_eq!(
                err,
                Error::LengthMismatch {
                    expected: 16,
                    got: 8
                }
            );
        });
        // A matched probe's fresh receive takes the message's exact size.
        c0.scope(|s| s.isend(&short, 1, 2)).unwrap();
        let (_, msg) = c1.mprobe(0, 2);
        assert_eq!(c1.mrecv_vec(msg).unwrap(), short);
    }

    #[test]
    fn status_reports_wildcard_matches() {
        let world = World::new(3);
        let c2 = world.comm(2);
        world.comm(1).scope(|s| s.isend(&[9u8][..], 2, 42)).unwrap();
        let mut b = [0u8; 1];
        let st = c2
            .recv(&mut b[..], mpicd_fabric::ANY_SOURCE, mpicd_fabric::ANY_TAG)
            .unwrap();
        assert_eq!(st.source, 1);
        assert_eq!(st.tag, 42);
    }
}
