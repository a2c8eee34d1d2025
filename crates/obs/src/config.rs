//! Observability configuration: environment variables and a builder.
//!
//! Environment (read once, at first use):
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `MPICD_TRACE` | enable span tracing (`1`/`true`/`on`) | off |
//! | `MPICD_TRACE_FILE` | Chrome trace output path | `mpicd-trace.json` |
//! | `MPICD_TRACE_CAP` | per-thread ring-buffer capacity (events) | `65536` |
//! | `MPICD_FLIGHT` | enable the per-transfer flight recorder, with dump-on-error and a panic-hook dump | off |
//! | `MPICD_FLIGHT_PATH` | flight-recorder JSONL dump path | `mpicd-flight.jsonl` |
//! | `MPICD_FLIGHT_CAP` | flight ring capacity (entries, process-global) | `65536` |
//! | `MPICD_FLIGHT_SAMPLE` | give every Nth post an id: a sampled send keeps its post and its whole record (1 = all) | `1` |
//! | `MPICD_HEALTH_MS` | when set, write periodic health snapshots every N ms (invalid values use 1000) | off |
//! | `MPICD_HEALTH_PATH` | health-snapshot JSONL path | `mpicd-health.jsonl` |
//! | `MPICD_METRICS_JSON` | write the metrics snapshot as JSON at flush (a path, or `1` for `mpicd-metrics.json`) | off |
//! | `MPICD_TELEMETRY` | enable gauges and sketches (`1`/`true`/`on`) | off |
//! | `MPICD_TELEMETRY_PATH` | Prometheus-style exposition path written at flush | `mpicd-telemetry.prom` |
//!
//! Capacity and cadence knobs are validated at parse time: `0`, absurdly
//! large values, or unparseable input produce a stderr warning and fall
//! back to the default (capacities above [`MAX_CAPACITY`] are clamped)
//! instead of silently misbehaving.
//!
//! Programmatic control overrides the environment:
//! [`ObsConfig::install`] (builder) or [`crate::set_enabled`] /
//! [`crate::flight::set_enabled`] (toggles only).

use crate::sync::Mutex;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Default per-thread ring-buffer capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Default flight-recorder ring capacity (entries, whole process).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 65_536;

/// Upper bound accepted for ring capacities (`MPICD_TRACE_CAP` /
/// `MPICD_FLIGHT_CAP`): 64 Mi events. A flight ring alone costs ~152 bytes
/// per event, so anything larger is a typo, not a tuning choice; larger
/// requests are clamped here with a warning.
pub const MAX_CAPACITY: usize = 1 << 26;

/// Default flight-recorder sampling rate: every transfer is recorded.
pub const DEFAULT_FLIGHT_SAMPLE: u64 = 1;

/// Upper bound accepted for `MPICD_FLIGHT_SAMPLE` (one in a billion —
/// anything sparser is a typo, not a tuning choice).
pub const MAX_FLIGHT_SAMPLE: u64 = 1_000_000_000;

/// Default health-snapshot cadence (ms) when `MPICD_HEALTH_MS` is set but
/// unparseable or 0.
pub const DEFAULT_HEALTH_MS: u64 = 1_000;

/// Upper bound accepted for `MPICD_HEALTH_MS`: one hour.
pub const MAX_HEALTH_MS: u64 = 3_600_000;

/// `1`/`true`/`on`-style boolean environment parse (empty/`0`/`false`/
/// `off` are false).
fn env_flag(value: &str) -> bool {
    let v = value.trim().to_ascii_lowercase();
    !v.is_empty() && v != "0" && v != "false" && v != "off"
}

/// Parse an on/off knob with loud validation: unset (or empty) uses the
/// default silently; `1`/`true`/`on`/`yes` enable and `0`/`false`/`off`/
/// `no` disable (case-insensitive); anything else warns on stderr and
/// falls back to the default instead of silently misbehaving.
pub fn env_toggle(var: &str, default: bool) -> bool {
    let Ok(raw) = std::env::var(var) else {
        return default;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" => default,
        "1" | "true" | "on" | "yes" => true,
        "0" | "false" | "off" | "no" => false,
        _ => {
            eprintln!(
                "[mpicd-obs] WARNING: {var}={raw:?} is not a boolean \
                 (1/0/true/false/on/off); using {default}"
            );
            default
        }
    }
}

/// Parse an enumerated knob with loud validation: returns the matching
/// entry of `choices` (case-insensitive); unset or empty uses `default`
/// silently, anything unrecognized warns on stderr and falls back.
pub fn env_choice(var: &str, choices: &[&'static str], default: &'static str) -> &'static str {
    let Ok(raw) = std::env::var(var) else {
        return default;
    };
    let v = raw.trim().to_ascii_lowercase();
    if v.is_empty() {
        return default;
    }
    for c in choices {
        if *c == v {
            return c;
        }
    }
    eprintln!("[mpicd-obs] WARNING: {var}={raw:?} is not one of {choices:?}; using {default:?}");
    default
}

/// Parse a positive integer knob with loud validation: unset uses the
/// default silently; `0`, garbage, or values above `max` warn on stderr
/// and fall back (clamping to `max` for oversized values).
pub fn env_bounded(var: &str, default: u64, max: u64) -> u64 {
    let Ok(raw) = std::env::var(var) else {
        return default;
    };
    match raw.trim().parse::<u64>() {
        Ok(0) => {
            eprintln!("[mpicd-obs] WARNING: {var}=0 is invalid (must be >= 1); using {default}");
            default
        }
        Ok(v) if v > max => {
            eprintln!("[mpicd-obs] WARNING: {var}={v} exceeds the maximum {max}; clamping");
            max
        }
        Ok(v) => v,
        Err(_) => {
            eprintln!("[mpicd-obs] WARNING: {var}={raw:?} is not a number; using {default}");
            default
        }
    }
}

/// Observability settings.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Whether span tracing is enabled.
    pub enabled: bool,
    /// Chrome trace output path used by [`crate::flush`].
    pub trace_file: Option<PathBuf>,
    /// Per-thread ring-buffer capacity in events (power of two is not
    /// required). Applies to ring buffers created after installation.
    pub ring_capacity: usize,
    /// Whether the per-transfer flight recorder is enabled.
    pub flight: bool,
    /// Flight-recorder JSONL dump path used by [`crate::flush`], the
    /// dump-on-error path and the panic hook.
    pub flight_file: Option<PathBuf>,
    /// Flight ring capacity in events (one ring for the whole process).
    /// Applies only before the first flight event is recorded.
    pub flight_capacity: usize,
    /// Flight-recorder sampling rate: record every Nth transfer
    /// end-to-end (1 = record all). Sampled transfers keep their whole
    /// timeline; unsampled transfers are wholly absent from the ring.
    pub flight_sample: u64,
    /// Health-snapshot cadence in milliseconds; 0 disables the
    /// background health thread (the default).
    pub health_ms: u64,
    /// Health-snapshot JSONL path (`None` uses the default
    /// `mpicd-health.jsonl`).
    pub health_file: Option<PathBuf>,
    /// Metrics-snapshot JSON path written by [`crate::flush`]
    /// (`None` disables the file).
    pub metrics_file: Option<PathBuf>,
    /// Whether telemetry (gauges and sketches) is enabled.
    pub telemetry: bool,
    /// Prometheus-style exposition path written by [`crate::flush`]
    /// (`None` uses the default `mpicd-telemetry.prom`).
    pub telemetry_file: Option<PathBuf>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            trace_file: None,
            ring_capacity: DEFAULT_RING_CAPACITY,
            flight: false,
            flight_file: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            flight_sample: DEFAULT_FLIGHT_SAMPLE,
            health_ms: 0,
            health_file: None,
            metrics_file: None,
            telemetry: false,
            telemetry_file: None,
        }
    }
}

impl ObsConfig {
    /// Settings from the `MPICD_TRACE*` / `MPICD_FLIGHT*` /
    /// `MPICD_METRICS_JSON` environment variables.
    pub fn from_env() -> Self {
        let enabled = std::env::var("MPICD_TRACE")
            .map(|v| env_flag(&v))
            .unwrap_or(false);
        let trace_file = std::env::var("MPICD_TRACE_FILE").ok().map(PathBuf::from);
        let ring_capacity = env_bounded(
            "MPICD_TRACE_CAP",
            DEFAULT_RING_CAPACITY as u64,
            MAX_CAPACITY as u64,
        ) as usize;
        let flight = std::env::var("MPICD_FLIGHT")
            .map(|v| env_flag(&v))
            .unwrap_or(false);
        let flight_file = std::env::var("MPICD_FLIGHT_PATH").ok().map(PathBuf::from);
        let flight_capacity = env_bounded(
            "MPICD_FLIGHT_CAP",
            DEFAULT_FLIGHT_CAPACITY as u64,
            MAX_CAPACITY as u64,
        ) as usize;
        let flight_sample = env_bounded(
            "MPICD_FLIGHT_SAMPLE",
            DEFAULT_FLIGHT_SAMPLE,
            MAX_FLIGHT_SAMPLE,
        );
        // MPICD_HEALTH_MS arms the health thread by being set at all;
        // 0/garbage degrade to the documented default cadence rather than
        // silently disabling the snapshots the operator asked for.
        let health_ms = if std::env::var("MPICD_HEALTH_MS").is_ok() {
            env_bounded("MPICD_HEALTH_MS", DEFAULT_HEALTH_MS, MAX_HEALTH_MS)
        } else {
            0
        };
        let health_file = std::env::var("MPICD_HEALTH_PATH").ok().map(PathBuf::from);
        // MPICD_METRICS_JSON is a path, or a bare truthy flag for the
        // default filename.
        let metrics_file = std::env::var("MPICD_METRICS_JSON").ok().and_then(|v| {
            let t = v.trim().to_ascii_lowercase();
            if t.is_empty() || t == "0" || t == "false" || t == "off" {
                None
            } else if t == "1" || t == "true" || t == "on" {
                Some(PathBuf::from("mpicd-metrics.json"))
            } else {
                Some(PathBuf::from(v))
            }
        });
        let telemetry = std::env::var("MPICD_TELEMETRY")
            .map(|v| env_flag(&v))
            .unwrap_or(false);
        let telemetry_file = std::env::var("MPICD_TELEMETRY_PATH")
            .ok()
            .map(PathBuf::from);
        Self {
            enabled,
            trace_file,
            ring_capacity,
            flight,
            flight_file,
            flight_capacity,
            flight_sample,
            health_ms,
            health_file,
            metrics_file,
            telemetry,
            telemetry_file,
        }
    }

    /// Builder: enable/disable tracing.
    pub fn enabled(mut self, on: bool) -> Self {
        self.enabled = on;
        self
    }

    /// Builder: trace output path.
    pub fn trace_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_file = Some(path.into());
        self
    }

    /// Builder: ring-buffer capacity.
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        self.ring_capacity = cap.max(1);
        self
    }

    /// Builder: enable/disable the flight recorder.
    pub fn flight(mut self, on: bool) -> Self {
        self.flight = on;
        self
    }

    /// Builder: flight-recorder dump path.
    pub fn flight_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.flight_file = Some(path.into());
        self
    }

    /// Builder: flight ring capacity.
    pub fn flight_capacity(mut self, cap: usize) -> Self {
        self.flight_capacity = cap.max(1);
        self
    }

    /// Builder: flight-recorder sampling rate (record every `n`th
    /// transfer; 1 = all).
    pub fn flight_sample(mut self, n: u64) -> Self {
        self.flight_sample = n.max(1);
        self
    }

    /// Builder: health-snapshot cadence in milliseconds (0 disables).
    pub fn health_ms(mut self, ms: u64) -> Self {
        self.health_ms = ms;
        self
    }

    /// Builder: health-snapshot JSONL path.
    pub fn health_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.health_file = Some(path.into());
        self
    }

    /// Builder: metrics-snapshot JSON path.
    pub fn metrics_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_file = Some(path.into());
        self
    }

    /// Builder: enable/disable telemetry (gauges and sketches).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Builder: telemetry exposition path.
    pub fn telemetry_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.telemetry_file = Some(path.into());
        self
    }

    /// The trace output path ([`Self::trace_file`] or the default).
    pub fn trace_path(&self) -> PathBuf {
        self.trace_file
            .clone()
            .unwrap_or_else(|| PathBuf::from("mpicd-trace.json"))
    }

    /// The flight dump path ([`Self::flight_file`] or the default).
    pub fn flight_path(&self) -> PathBuf {
        self.flight_file
            .clone()
            .unwrap_or_else(|| PathBuf::from("mpicd-flight.jsonl"))
    }

    /// The telemetry exposition path ([`Self::telemetry_file`] or the
    /// default).
    pub fn telemetry_path(&self) -> PathBuf {
        self.telemetry_file
            .clone()
            .unwrap_or_else(|| PathBuf::from("mpicd-telemetry.prom"))
    }

    /// The health-snapshot path ([`Self::health_file`] or the default).
    pub fn health_path(&self) -> PathBuf {
        self.health_file
            .clone()
            .unwrap_or_else(|| PathBuf::from("mpicd-health.jsonl"))
    }

    /// Install as the process-wide configuration (overrides the
    /// environment) and apply the enable flags.
    pub fn install(self) {
        crate::trace::set_enabled(self.enabled);
        crate::flight::set_enabled(self.flight);
        crate::flight::set_sample(self.flight_sample);
        crate::telemetry::set_enabled(self.telemetry);
        let health_ms = self.health_ms;
        *store().lock() = self;
        if health_ms > 0 {
            crate::health::ensure_started();
        }
    }
}

fn store() -> &'static Mutex<ObsConfig> {
    static STORE: OnceLock<Mutex<ObsConfig>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(ObsConfig::from_env()))
}

/// The current process-wide configuration.
pub fn current() -> ObsConfig {
    store().lock().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let c = ObsConfig::default();
        assert!(!c.enabled);
        assert!(!c.flight);
        assert_eq!(c.ring_capacity, DEFAULT_RING_CAPACITY);
        assert_eq!(c.flight_capacity, DEFAULT_FLIGHT_CAPACITY);
        assert_eq!(c.trace_path(), PathBuf::from("mpicd-trace.json"));
        assert_eq!(c.flight_path(), PathBuf::from("mpicd-flight.jsonl"));
        assert!(c.metrics_file.is_none());
        assert!(!c.telemetry);
        assert_eq!(c.telemetry_path(), PathBuf::from("mpicd-telemetry.prom"));
        assert_eq!(c.flight_sample, DEFAULT_FLIGHT_SAMPLE);
        assert_eq!(c.health_ms, 0, "health thread is off by default");
        assert_eq!(c.health_path(), PathBuf::from("mpicd-health.jsonl"));
    }

    #[test]
    fn builder_chains() {
        let c = ObsConfig::default()
            .enabled(true)
            .trace_file("/tmp/t.json")
            .ring_capacity(16)
            .flight(true)
            .flight_file("/tmp/f.jsonl")
            .flight_capacity(32)
            .metrics_file("/tmp/m.json")
            .telemetry(true)
            .telemetry_file("/tmp/tele.prom")
            .flight_sample(16)
            .health_ms(500)
            .health_file("/tmp/h.jsonl");
        assert!(c.enabled);
        assert!(c.flight);
        assert_eq!(c.trace_path(), PathBuf::from("/tmp/t.json"));
        assert_eq!(c.flight_path(), PathBuf::from("/tmp/f.jsonl"));
        assert_eq!(c.ring_capacity, 16);
        assert_eq!(c.flight_capacity, 32);
        assert_eq!(c.metrics_file, Some(PathBuf::from("/tmp/m.json")));
        assert!(c.telemetry);
        assert_eq!(c.telemetry_path(), PathBuf::from("/tmp/tele.prom"));
        assert_eq!(c.flight_sample, 16);
        assert_eq!(c.health_ms, 500);
        assert_eq!(c.health_path(), PathBuf::from("/tmp/h.jsonl"));
    }

    #[test]
    fn env_flag_parses() {
        for on in ["1", "true", "ON", " yes "] {
            assert!(env_flag(on), "{on:?}");
        }
        for off in ["", "0", "false", "OFF"] {
            assert!(!env_flag(off), "{off:?}");
        }
    }

    #[test]
    fn env_bounded_validates() {
        // Env mutation is process-wide; this test owns a variable name no
        // other code reads and restores it before returning.
        const VAR: &str = "MPICDTEST_CAP_KNOB";
        let check = |val: Option<&str>, expect: u64| {
            match val {
                Some(v) => std::env::set_var(VAR, v),
                None => std::env::remove_var(VAR),
            }
            assert_eq!(env_bounded(VAR, 64, 1024), expect, "value {val:?}");
        };
        check(None, 64);
        check(Some("128"), 128);
        check(Some("0"), 64);
        check(Some("not-a-number"), 64);
        check(Some("999999999"), 1024);
        check(Some("1024"), 1024);
        std::env::remove_var(VAR);
    }

    #[test]
    fn env_toggle_validates() {
        // Env mutation is process-wide; this test owns its variable name.
        const VAR: &str = "MPICDTEST_TOGGLE_KNOB";
        let check = |val: Option<&str>, default: bool, expect: bool| {
            match val {
                Some(v) => std::env::set_var(VAR, v),
                None => std::env::remove_var(VAR),
            }
            assert_eq!(env_toggle(VAR, default), expect, "value {val:?}");
        };
        check(None, true, true);
        check(None, false, false);
        check(Some("1"), false, true);
        check(Some("ON"), false, true);
        check(Some("0"), true, false);
        check(Some("off"), true, false);
        check(Some(""), false, false);
        check(Some(""), true, true);
        check(Some("banana"), true, true);
        check(Some("banana"), false, false);
        std::env::remove_var(VAR);
    }

    #[test]
    fn env_choice_validates() {
        const VAR: &str = "MPICDTEST_CHOICE_KNOB";
        const CHOICES: &[&str] = &["auto", "legacy", "wide"];
        let check = |val: Option<&str>, expect: &str| {
            match val {
                Some(v) => std::env::set_var(VAR, v),
                None => std::env::remove_var(VAR),
            }
            assert_eq!(env_choice(VAR, CHOICES, "auto"), expect, "value {val:?}");
        };
        check(None, "auto");
        check(Some("legacy"), "legacy");
        check(Some(" WIDE "), "wide");
        check(Some(""), "auto");
        check(Some("nope"), "auto");
        std::env::remove_var(VAR);
    }
}
