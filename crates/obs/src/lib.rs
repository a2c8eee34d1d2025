#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # mpicd-obs — tracing & metrics for the mpicd stack
//!
//! The paper's argument is a *breakdown* claim: custom serialization wins
//! because it trades per-buffer messages and bounce-buffer copies for packed
//! fragments plus zero-copy regions. Verifying that claim requires
//! attributing time to pack vs. wire vs. copy — which is exactly what this
//! crate provides, as an always-available, near-zero-overhead substrate:
//!
//! * [`trace`] — lightweight span/event tracing. [`span!`]-style RAII
//!   guards record monotonic start/stop into per-thread ring buffers.
//!   Unless tracing is enabled (`MPICD_TRACE=1` or
//!   [`config::ObsConfig::install`]), a span is a single relaxed atomic
//!   load — no clock read, no allocation.
//! * [`Obs`] — one observability handle: a [`Registry`] and a
//!   [`flight::Recorder`]. Every fabric owns one. Worlds built without an
//!   explicit handle share the process default ([`Obs::process`]), whose
//!   registry is [`global`]; tests build isolated handles
//!   ([`Obs::isolated`]) so two worlds never blend counters or records.
//! * [`flight`] — the per-transfer flight recorder: a lock-free bounded
//!   ring of post events and one [`flight::TransferRecord`] per matched
//!   transfer, each tagged with an id unique within its recorder. Off by
//!   default at the same one-relaxed-load cost discipline; the process
//!   default is enabled with `MPICD_FLIGHT=1`, which also arms
//!   dump-on-error and a panic-hook dump. Dumps are JSON lines readable
//!   by the `mpicd-inspect` analyzer (in `crates/bench`).
//! * [`metrics`] — the one registry: named [`Counter`]s (always on),
//!   [`Gauge`]s (level plus high-water mark) and [`Sketch`]es (the one
//!   histogram type: log-linear, answering p50/p99). Counters are plain
//!   relaxed atomics, the same cost class as the fabric's `FabricStats`.
//! * [`telemetry`] — gauges and sketches, their `MPICD_TELEMETRY` gate
//!   (one relaxed load when off, like the flight recorder), and the
//!   registry's live renderers: Prometheus text exposition and one JSON
//!   object per snapshot.
//! * [`health`] — a background thread (`MPICD_HEALTH_MS=N`) that writes
//!   periodic health-snapshot JSONL (every registered counter, gauge and
//!   sketch) and refreshes the Prometheus exposition while the process
//!   runs, instead of waiting for the exit-time [`flush`]. All
//!   observability files are replaced atomically (tmp + rename), so
//!   concurrent scrapers never see torn output.
//! * [`export`] — the registry's summary table and Chrome trace-event
//!   JSON (loadable in `chrome://tracing` / Perfetto).
//! * [`prefetch`] — the software-prefetch hint and the one rule (stride,
//!   distance) the plan kernels, the run walker and the fragment engine
//!   share.
//! * [`rng`] — a tiny seeded xorshift64* PRNG, shared by tests and
//!   benchmarks now that the workspace carries no external dependencies.
//! * [`sync`] — poison-ignoring wrappers over `std::sync` primitives,
//!   the workspace's replacement for `parking_lot`.
//!
//! ## Usage
//!
//! ```
//! use mpicd_obs as obs;
//!
//! // Programmatic enable (benchmarks honour MPICD_TRACE instead).
//! obs::set_enabled(true);
//!
//! {
//!     let _span = obs::span!("pack", "demo", 4096);
//!     // ... work ...
//! } // span recorded on drop
//!
//! let packed = obs::metrics::global().counter("demo.packed_bytes");
//! packed.add(4096);
//!
//! let summary = obs::export::summary();
//! assert!(summary.contains("demo.packed_bytes"));
//! obs::set_enabled(false);
//! ```

pub mod config;
pub mod export;
pub mod flight;
mod fsio;
pub mod health;
pub mod metrics;
pub mod prefetch;
pub mod rng;
pub mod sync;
pub mod telemetry;
pub mod time;
pub mod trace;

use std::sync::{Arc, OnceLock};

pub use config::ObsConfig;
pub use metrics::{global, Counter, Registry, Snapshot};
pub use rng::XorShift64Star;
pub use telemetry::{Gauge, Sketch};
pub use time::now_ns;
pub use trace::{enabled, set_enabled, SpanGuard};

/// One observability handle: a metrics [`Registry`] and a flight
/// [`flight::Recorder`]. Cloning is cheap (a shared handle).
#[derive(Clone, Debug)]
pub struct Obs(Arc<Parts>);

#[derive(Debug)]
struct Parts {
    registry: Registry,
    flight: flight::Recorder,
}

impl Obs {
    /// A handle of its own: an empty registry and a recorder that is off.
    pub fn isolated() -> Self {
        Self(Arc::new(Parts {
            registry: Registry::new(),
            flight: flight::Recorder::new(),
        }))
    }

    /// The process default, shared by every world built without an
    /// explicit handle. Its registry is [`global`], which the exit-time
    /// [`flush`], the health thread and the benchmarks read; its recorder
    /// is armed by `MPICD_FLIGHT`.
    pub fn process() -> &'static Obs {
        static PROCESS: OnceLock<Obs> = OnceLock::new();
        PROCESS.get_or_init(|| {
            let obs = Obs::isolated();
            if config::current().flight {
                obs.flight().arm();
                flight::install_panic_hook();
            }
            obs
        })
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.0.registry
    }

    /// The flight recorder.
    pub fn flight(&self) -> &flight::Recorder {
        &self.0.flight
    }
}

/// Record a span over the enclosing scope.
///
/// Forms:
/// * `span!("name")` — category defaults to `"mpicd"`, zero bytes.
/// * `span!("name", category)` — explicit category, zero bytes.
/// * `span!("name", category, bytes)` — byte count attached to the event.
///
/// Returns a [`SpanGuard`]; bind it (`let _span = ...`) so it drops at end
/// of scope. When tracing is disabled this is one relaxed atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name, "mpicd", 0)
    };
    ($name:expr, $cat:expr) => {
        $crate::trace::span($name, $cat, 0)
    };
    ($name:expr, $cat:expr, $bytes:expr) => {
        $crate::trace::span($name, $cat, $bytes as u64)
    };
}

/// Flush observability output:
///
/// * when a metrics JSON path is configured (`MPICD_METRICS_JSON`), write
///   the metrics JSON there — counters are always on, so this works even
///   with tracing disabled;
/// * when the process default's flight recorder is enabled
///   (`MPICD_FLIGHT=1` or [`flight::Recorder::set_enabled`]), dump its
///   ring as JSON lines (path from [`ObsConfig`], default
///   `mpicd-flight.jsonl`);
/// * when telemetry is enabled (`MPICD_TELEMETRY=1` or
///   [`telemetry::set_enabled`]), write the Prometheus-style exposition
///   (default `mpicd-telemetry.prom`);
/// * when span tracing is enabled, write the Chrome trace-event file
///   (default `mpicd-trace.json`) and print the metrics summary table to
///   stderr.
///
/// Ring-buffer truncation (trace drops, flight overflow) is warned about
/// on stderr so a truncated recording is never silently read as complete.
/// Returns the trace file path if one was written.
pub fn flush() -> Option<std::path::PathBuf> {
    let cfg = config::current();
    if health::running() {
        // Capture the end-of-run state in the snapshot stream too.
        health::tick();
    }
    if let Some(mpath) = &cfg.metrics_file {
        match telemetry::write_json(mpath) {
            Ok(()) => eprintln!("[mpicd-obs] wrote metrics JSON to {}", mpath.display()),
            Err(e) => eprintln!("[mpicd-obs] failed to write {}: {e}", mpath.display()),
        }
    }
    if telemetry::enabled() {
        let tpath = cfg.telemetry_path();
        match telemetry::write_prometheus(&tpath) {
            Ok(()) => eprintln!(
                "[mpicd-obs] wrote telemetry exposition to {}",
                tpath.display()
            ),
            Err(e) => eprintln!("[mpicd-obs] failed to write {}: {e}", tpath.display()),
        }
    }
    let flight = Obs::process().flight();
    if flight.enabled() {
        let fpath = cfg.flight_path();
        match flight.dump_jsonl(&fpath) {
            Ok(n) => eprintln!("[mpicd-obs] wrote {n} flight events to {}", fpath.display()),
            Err(e) => eprintln!("[mpicd-obs] failed to write {}: {e}", fpath.display()),
        }
        let lost = flight.overflowed();
        if lost > 0 {
            eprintln!(
                "[mpicd-obs] WARNING: flight ring overwrote {lost} entries; \
                 older posts and transfers are missing (raise MPICD_FLIGHT_CAP)"
            );
        }
    }
    if !enabled() {
        return None;
    }
    let path = cfg.trace_path();
    let written = match export::write_chrome_trace(&path) {
        Ok(n) => {
            eprintln!("[mpicd-obs] wrote {n} trace events to {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("[mpicd-obs] failed to write {}: {e}", path.display());
            false
        }
    };
    let dropped = trace::dropped_events();
    if dropped > 0 {
        eprintln!(
            "[mpicd-obs] WARNING: trace ring buffers overwrote {dropped} events; \
             the trace window is incomplete (raise MPICD_TRACE_CAP)"
        );
    }
    eprintln!("{}", export::summary());
    written.then_some(path)
}
