//! Periodic background health snapshots.
//!
//! [`crate::flush`] is an *exit-time* flush: a soak run that streams
//! transfers for minutes produces no observable telemetry until the
//! process ends. Setting `MPICD_HEALTH_MS=N` (or installing a config
//! with [`crate::ObsConfig::health_ms`]) starts one detached background
//! thread that every `N` milliseconds:
//!
//! * appends one health-snapshot line — the [`crate::telemetry::render_json`]
//!   object of the global registry: every counter, gauge (value +
//!   high-water mark) and sketch (count/sum/p50/p99/max) — to an
//!   in-memory log and rewrites the whole JSONL file atomically
//!   (`MPICD_HEALTH_PATH`, default `mpicd-health.jsonl`);
//! * rewrites the Prometheus exposition (`MPICD_TELEMETRY_PATH`) so a
//!   scraper sees live values, not end-of-run ones.
//!
//! Both files go through the tmp-then-rename path, so a concurrent
//! reader never observes a torn write. The snapshot log is bounded
//! ([`MAX_SNAPSHOTS`]); once full, the oldest lines are dropped — the
//! file is a sliding window, like the flight ring. `mpicd-inspect
//! health` reads the file back and joins it with sampled flight dumps.

use crate::sync::Mutex;
use std::path::PathBuf;
use std::sync::{Once, OnceLock};
use std::time::Duration;

/// Most snapshot lines retained in the health file (a sliding window;
/// at the default 1 s cadence this is over an hour of history).
pub const MAX_SNAPSHOTS: usize = 4096;

struct HealthLog {
    lines: Vec<String>,
    path: PathBuf,
}

static LOG: OnceLock<Mutex<HealthLog>> = OnceLock::new();
static STARTED: Once = Once::new();

fn log() -> &'static Mutex<HealthLog> {
    LOG.get_or_init(|| {
        Mutex::new(HealthLog {
            lines: Vec::new(),
            path: crate::config::current().health_path(),
        })
    })
}

/// Whether the background health thread has been started.
pub fn running() -> bool {
    STARTED.is_completed()
}

/// Take one health snapshot now: append a snapshot line and atomically
/// rewrite the health JSONL file and the telemetry exposition. This is
/// what the background thread does each tick; call it directly to force
/// a final snapshot (e.g. at the end of a soak's steady-state window).
pub fn tick() {
    let cfg = crate::config::current();
    let line = crate::telemetry::render_json(crate::metrics::global());
    let mut log = log().lock();
    if log.lines.len() >= MAX_SNAPSHOTS {
        log.lines.remove(0);
    }
    log.lines.push(line);
    let mut out = String::with_capacity(log.lines.iter().map(|l| l.len() + 1).sum());
    for l in &log.lines {
        out.push_str(l);
        out.push('\n');
    }
    let path = log.path.clone();
    drop(log);
    if let Err(e) = crate::fsio::write_atomic(&path, out.as_bytes()) {
        eprintln!("[mpicd-obs] failed to write {}: {e}", path.display());
    }
    if crate::telemetry::enabled() {
        let tpath = cfg.telemetry_path();
        if let Err(e) = crate::telemetry::write_prometheus(&tpath) {
            eprintln!("[mpicd-obs] failed to write {}: {e}", tpath.display());
        }
    }
}

/// Start the background health thread if the current configuration asks
/// for it (`health_ms > 0`) and it is not already running. Called from
/// [`crate::ObsConfig::install`] and from the telemetry env
/// initialization, so `MPICD_HEALTH_MS` takes effect as soon as the
/// process touches telemetry. Idempotent.
pub fn ensure_started() {
    let ms = crate::config::current().health_ms;
    if ms == 0 {
        return;
    }
    STARTED.call_once(|| {
        // Resolve the output path once, before ticking starts.
        let _ = log();
        let interval = Duration::from_millis(ms.max(1));
        let spawned = std::thread::Builder::new()
            .name("mpicd-health".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                tick();
            });
        if let Err(e) = spawned {
            eprintln!("[mpicd-obs] failed to start health thread: {e}");
        } else {
            eprintln!(
                "[mpicd-obs] health snapshots every {ms} ms to {}",
                crate::config::current().health_path().display()
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The thread and Once are process-wide; unit tests exercise only the
    // snapshot/rewrite path with the thread left unstarted (health_ms
    // defaults to 0, so ensure_started is a no-op here).

    #[test]
    fn ensure_started_without_config_is_a_noop() {
        ensure_started();
        assert!(!running(), "health_ms=0 must not start the thread");
    }

    #[test]
    fn tick_appends_and_rewrites_atomically() {
        let dir = std::env::temp_dir().join("mpicd-obs-health-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("health.jsonl");
        log().lock().path = path.clone();
        tick();
        tick();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "one line per tick: {}", lines.len());
        for l in lines {
            assert!(l.starts_with("{\"t_ns\":"), "line shape: {l}");
            assert!(l.ends_with('}'));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
