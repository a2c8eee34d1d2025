#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # mpicd-bench — the paper's evaluation harness
//!
//! One binary per figure/table of the paper (see `src/bin/`); this library
//! holds the shared machinery:
//!
//! * [`harness`] — OSU-style latency/bandwidth pingpong measurement with
//!   warmup, repetitions and the paper's 4-run averaging (error bars);
//!   combines measured wall time with the fabric's modeled wire time.
//! * [`methods`] — the Rust transfer methods of §V-A (custom /
//!   manual-pack / derived-datatype / raw bytes) over the paper's types.
//! * [`pickle_run`] — the threaded pingpong driver for the Python-style
//!   strategies of §V-B.
//! * [`ddt`] — the DDTBench method runners of §V-C.
//! * [`report`] — aligned table output (one table per figure).
//! * [`phase`] — per-phase breakdown (pack/unpack CPU, wire, copies)
//!   snapshotted from the `mpicd-obs` registry per measured cell.
//! * [`flight`] — flight-recorder dump analysis behind the
//!   `mpicd-inspect` binary: one timeline per transfer record,
//!   per-transfer latency attribution, and the straggler report.
//! * [`critical`] — cross-rank happens-before DAG over the transfer
//!   timelines and the critical-path / slack / per-rank-blame report
//!   (`mpicd-inspect critical-path`).
//! * [`regress`] — `BENCH_*.json` parsing and the p50/p99 regression
//!   comparator behind the `bench_compare` CI gate.
//! * [`soak`] — the record-stream soak harness behind `mpicd-soak`:
//!   client ranks streaming `Register` batches to aggregators under live
//!   telemetry, with the freelist zero-growth and sampled-flight
//!   well-formedness verdicts CI gates on.
//! * [`healthview`] — health-snapshot stream (`MPICD_HEALTH_MS`) parsing
//!   and rendering behind `mpicd-inspect health`.
//!
//! All binaries accept `MPICD_BENCH_QUICK=1` to run a fast smoke sweep
//! (used by tests) and print the same table shape as the full run. With
//! `MPICD_TRACE=1` they additionally write a Chrome trace (see
//! [`obs_finish`]) and populate the CPU columns of the phase tables.

pub mod critical;
pub mod ddt;
pub mod flight;
pub mod harness;
pub mod healthview;
pub mod methods;
pub mod phase;
pub mod pickle_run;
pub mod regress;
pub mod report;
pub mod soak;

pub use harness::{Config, Sample};
pub use phase::{PhaseProbe, PhaseTable, Phases};
pub use report::Table;

/// End-of-run observability flush, called by every figure binary: when
/// tracing is enabled this writes the Chrome trace file and prints the
/// metric summary to stderr; when disabled it does nothing.
pub fn obs_finish() {
    if let Some(path) = mpicd_obs::flush() {
        eprintln!("wrote Chrome trace to {}", path.display());
    }
}

/// Write a table as `BENCH_<stem>.json` when `MPICD_BENCH_JSON` is set
/// (to a directory path, or `1` for the current directory). CI sets this
/// and uploads the emitted files as a workflow artifact; locally it is a
/// no-op unless asked for. Returns the path written, if any.
pub fn emit_json(stem: &str, table: &Table) -> Option<std::path::PathBuf> {
    let dest = std::env::var("MPICD_BENCH_JSON").ok()?;
    if dest.is_empty() || dest == "0" {
        return None;
    }
    let dir = if dest == "1" {
        std::path::PathBuf::from(".")
    } else {
        std::path::PathBuf::from(dest)
    };
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("BENCH_{stem}.json"));
    match std::fs::write(&path, table.render_json()) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            None
        }
    }
}

/// Standard power-of-two size sweep `[lo, hi]` (bytes).
pub fn size_sweep(lo: usize, hi: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = lo;
    while s <= hi {
        v.push(s);
        s *= 2;
    }
    v
}

/// Whether quick (smoke-test) mode is enabled.
pub fn quick_mode() -> bool {
    std::env::var("MPICD_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_powers_of_two() {
        assert_eq!(size_sweep(64, 512), vec![64, 128, 256, 512]);
        assert_eq!(size_sweep(1024, 1024), vec![1024]);
    }
}
