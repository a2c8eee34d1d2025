#![deny(missing_docs)]
#![deny(unsafe_code)]
//! # mpicd-fabric — UCP-like transport substrate
//!
//! This crate stands in for UCX/UCP in the paper *"Improving MPI Language
//! Support Through Custom Datatype Serialization"* (SC 2024). The paper's
//! prototype (`mpicd`) sits on top of `ucp_tag_send_nbx`/`ucp_tag_recv_nbx`
//! with three payload representations:
//!
//! * `UCP_DATATYPE_CONTIG` — one contiguous buffer,
//! * `UCP_DATATYPE_IOV`    — a scatter/gather list of memory regions,
//! * `UCP_DATATYPE_GENERIC` — application pack/unpack callbacks invoked
//!   fragment-by-fragment with *virtual byte offsets*.
//!
//! We reproduce those exact semantics over an in-process fabric:
//!
//! * **Real data movement.** Every payload byte is actually copied (eager
//!   bounce buffers, per-fragment pack/unpack, per-region scatter/gather), so
//!   CPU-side costs of each strategy (extra copies, elementwise packing,
//!   receive-side allocation) are measured for real.
//! * **Modeled wire.** A [`WireModel`] adds the network-shape costs a
//!   loopback run cannot show: base latency `α`, bandwidth `β`, per-region
//!   and per-fragment overheads, and the eager→rendezvous protocol switch
//!   (an extra handshake round-trip above the threshold). Modeled time is
//!   accumulated on a [ledger](clock::WireLedger) that benchmark harnesses
//!   combine with measured wall time.
//!
//! The fabric is thread-safe: ranks may live on different threads and use
//! blocking completion, or a single thread may drive several ranks with
//! nonblocking posts (handy for deterministic benchmarking on small machines).
//!
//! ## Safety
//!
//! Like UCX itself, the post functions take raw buffer descriptors; the
//! caller must keep buffers alive and un-aliased until the returned request
//! completes. The safe, lifetime-checked interface lives one layer up in the
//! `mpicd` crate.

pub mod clock;
pub mod config;
pub mod error;
pub mod fabric;
pub mod matching;
pub mod payload;
mod pipeline;
pub mod request;
pub mod stats;
mod transfer;

pub use clock::WireLedger;
pub use config::{FabricConfig, MatchConfig, PipelineConfig, TypecheckMode, WireModel};
pub use error::{FabricError, FabricResult};
pub use fabric::{Endpoint, Fabric, Message};
pub use matching::{Tag, ANY_SOURCE, ANY_TAG};
pub use payload::{
    FragmentPacker, FragmentUnpacker, IovEntry, IovEntryMut, RandomAccessPacker,
    RandomAccessUnpacker, RecvDesc, SendDesc,
};
pub use request::Request;
pub use stats::FabricStats;
