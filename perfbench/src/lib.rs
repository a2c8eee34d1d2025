//! # mpicd-perfbench — the repository's end-to-end benchmark
//!
//! Three seeded, closed-loop workloads drive the public API of the mpicd
//! crates from outside, the way an application would:
//!
//! * [`ddt_faces`] — DDTBench faces (16 KiB–1 MiB) moved with every
//!   method of the paper's Fig 10: pack-bound.
//! * [`small_structs`] — gapped structs, traffic-telemetry `Register`
//!   batches and double-vecs of 32 B–8 KiB: per-message-overhead-bound.
//! * [`pickle_objects`] — pickled NumPy-style objects (128 KiB–4 MiB)
//!   echoed between two rank threads with the basic, oob and oob-cdt
//!   strategies.
//!
//! Every op is verified outside its timed window. A run is split into
//! blocks that each run every cell of the workload once: warmup blocks in
//! a fixed order, timed blocks in seeded orders. So per-op counts taken
//! over whole blocks repeat exactly for a seed.
//! The untraced run gives the end-to-end metrics; the traced run wraps
//! every call into a library layer in an in-memory span
//! ([`trace::Tracer`]) and derives per-layer self times from them.
//! `README.md` next to this crate lists every metric.

pub mod ddt_faces;
pub mod json;
pub mod pickle_objects;
pub mod register;
pub mod rng;
pub mod runner;
pub mod small_structs;
pub mod sys;
pub mod trace;

pub use runner::{run, Budget, Report, RunConfig, Workload};

/// Workload names, as accepted on the command line.
pub const WORKLOADS: [&str; 3] = ["ddt_faces", "small_structs", "pickle_objects"];

/// Build the named workload from `seed`. Everything the library later sees
/// (sizes, data, op order) is generated here and in [`runner::Schedule`].
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "ddt_faces" => Ok(Box::new(ddt_faces::DdtFaces::new(seed)?)),
        "small_structs" => Ok(Box::new(small_structs::SmallStructs::new(seed)?)),
        "pickle_objects" => Ok(Box::new(pickle_objects::PickleObjects::new(seed))),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}
