//! Telemetry: the gated instruments of the metrics registry, the
//! `MPICD_TELEMETRY` gate, the sketch bucket space, and the live
//! exposition formats.
//!
//! * [`Gauge`] — an instantaneous level with a high-water mark.
//! * [`Sketch`] — the one histogram type: log-linear buckets (exact below
//!   16, then 4 sub-buckets per power of two, ≤ 25% relative error) plus
//!   count/sum/max, answering p50/p99 at any moment without storing
//!   samples.
//!
//! Both are registered through [`crate::metrics::Registry`]. Disabled
//! (the default), [`Gauge::set`]/[`Gauge::add`]/[`Gauge::sub`] and
//! [`Sketch::record`] are one relaxed atomic load — the same discipline
//! as [`crate::flight`]; their `observe*` twins record regardless.
//! [`quantile_from_counts`] reads a quantile back from bucket counts, so a
//! consumer can difference two [`Sketch::bucket_counts`] snapshots and
//! ask for the quantile of just that window.
//!
//! [`render_prometheus`] (the `MPICD_TELEMETRY_PATH` exposition written by
//! [`crate::flush`] and the health thread) and [`render_json`] (one
//! health-stream line, and the `MPICD_METRICS_JSON` file) render a whole
//! registry: counters, gauges and sketches.

use crate::metrics::{self, Registry};
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::time::now_ns;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Once;

/// Sketch bucket count: 16 exact values, then 4 sub-buckets per octave up
/// to `u64::MAX`.
pub const SKETCH_BUCKETS: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if crate::config::current().telemetry {
            ENABLED.store(true, Ordering::Relaxed);
        }
        // MPICD_HEALTH_MS rides the first telemetry touch: the health
        // thread only reports registry contents, so starting it here
        // (rather than at some explicit init call nobody makes) means
        // env-only runs get live snapshots too.
        crate::health::ensure_started();
    });
}

/// Whether telemetry is currently enabled.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable telemetry at runtime (overrides `MPICD_TELEMETRY`).
pub fn set_enabled(on: bool) {
    ENV_INIT.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

/// Timestamp helper for externally-timed sections: [`now_ns`] when
/// telemetry is on, else 0 without touching the clock (one relaxed load).
#[inline]
pub fn clock() -> u64 {
    if enabled() {
        now_ns()
    } else {
        0
    }
}

/// Bucket index for sample `v`: exact below 16, then 4 log-linear
/// sub-buckets per power of two.
#[inline]
pub fn sketch_bucket(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (octave - 2)) & 3) as usize;
    (16 + (octave - 4) * 4 + sub).min(SKETCH_BUCKETS - 1)
}

/// Largest sample that lands in bucket `i` (inclusive upper bound).
fn sketch_bound(i: usize) -> u64 {
    if i < 16 {
        return i as u64;
    }
    let octave = 4 + (i - 16) / 4;
    let sub = ((i - 16) % 4) as u128;
    // Bucket covers [ (4+sub) << (octave-2), (5+sub) << (octave-2) );
    // the top bucket's open end exceeds u64, so compute in u128 and clamp.
    let bound = ((5 + sub) << (octave - 2)) - 1;
    bound.min(u64::MAX as u128) as u64
}

/// The `q`-quantile (`0.0 ..= 1.0`) of a bucket-count vector in
/// [`sketch_bucket`] space (e.g. the element-wise difference of two
/// [`Sketch::bucket_counts`] snapshots). Returns the
/// bucket's inclusive upper bound; 0 when the counts are empty.
pub fn quantile_from_counts(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return sketch_bound(i.min(SKETCH_BUCKETS - 1));
        }
    }
    sketch_bound(SKETCH_BUCKETS - 1)
}

/// An instantaneous level with a high-water mark.
///
/// The *current* value serves zero-growth assertions, the *highest value
/// ever reached* serves capacity sizing. Values are non-negative;
/// [`Gauge::sub`] saturates at 0 rather than wrapping.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicU64,
    hwm: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
            hwm: AtomicU64::new(0),
        }
    }

    /// Set the level to `v`. One relaxed load when telemetry is off.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.observe_set(v);
        }
    }

    /// Raise the level by `v`. One relaxed load when telemetry is off.
    #[inline]
    pub fn add(&self, v: u64) {
        if enabled() {
            self.observe_add(v);
        }
    }

    /// Lower the level by `v` (saturating at 0). One relaxed load when
    /// telemetry is off.
    #[inline]
    pub fn sub(&self, v: u64) {
        if enabled() {
            self.observe_sub(v);
        }
    }

    /// Ungated [`Self::set`].
    pub fn observe_set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.hwm.fetch_max(v, Ordering::Relaxed);
    }

    /// Ungated [`Self::add`].
    pub fn observe_add(&self, v: u64) {
        let now = self.value.fetch_add(v, Ordering::Relaxed).wrapping_add(v);
        self.hwm.fetch_max(now, Ordering::Relaxed);
    }

    /// Ungated [`Self::sub`], saturating at 0.
    pub fn observe_sub(&self, v: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_sub(v))
            });
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level ever observed.
    pub fn high_water(&self) -> u64 {
        self.hwm.load(Ordering::Relaxed)
    }
}

/// A streaming histogram of `u64` samples (latencies in ns, sizes in
/// bytes): [`SKETCH_BUCKETS`] log-linear buckets plus count/sum/max. No
/// per-sample allocation, wait-free recording. Quantiles come back as the
/// bucket's inclusive upper bound (≤ 25% above the true value), clamped
/// to the exact observed maximum.
#[derive(Debug)]
pub struct Sketch {
    buckets: Box<[AtomicU64; SKETCH_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

impl Sketch {
    /// New empty sketch.
    pub fn new() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record a sample. One relaxed load when telemetry is off.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.observe(v);
        }
    }

    /// Ungated [`Self::record`].
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[sketch_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wraps only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample observed (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket upper bound clamped
    /// to the exact max; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.bucket_counts(), q).min(self.max())
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Snapshot of the raw bucket counters (cumulative). Two snapshots
    /// taken a window apart can be differenced and fed to
    /// [`quantile_from_counts`] to answer *windowed* quantiles.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// `fabric.wire_ns` → `mpicd_fabric_wire_ns` (metric-name charset).
fn prom_name(name: &str) -> String {
    let sanitized: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("mpicd_{sanitized}")
}

/// Render every instrument of `reg` in Prometheus text-exposition format:
/// counters as `<name>_total` counters, gauges as a live level plus a
/// `<name>_hwm` high-water mark, sketches as `summary` metrics (p50/p99
/// quantiles, sum, count) plus a `<name>_max` gauge.
pub fn render_prometheus(reg: &Registry) -> String {
    reg.with(|m| {
        let mut out = String::from("# mpicd metrics exposition\n");
        for (name, c) in &m.counters {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p}_total counter\n{p}_total {}", c.get());
        }
        for (name, g) in &m.gauges {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} gauge\n{p} {}", g.get());
            let _ = writeln!(out, "# TYPE {p}_hwm gauge\n{p}_hwm {}", g.high_water());
        }
        for (name, s) in &m.sketches {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} summary");
            let _ = writeln!(out, "{p}{{quantile=\"0.5\"}} {}", s.p50());
            let _ = writeln!(out, "{p}{{quantile=\"0.99\"}} {}", s.p99());
            let _ = writeln!(out, "{p}_sum {}\n{p}_count {}", s.sum(), s.count());
            let _ = writeln!(out, "# TYPE {p}_max gauge\n{p}_max {}", s.max());
        }
        out
    })
}

/// Render every instrument of `reg` as one JSON object (no trailing
/// newline): `{"t_ns":…,"counters":{name:v},"gauges":{name:{"value","hwm"}},
/// "sketches":{name:{"count","sum","p50","p99","max"}}}`. This is a line
/// of the health-snapshot stream read back by `mpicd-inspect health`, and
/// the `MPICD_METRICS_JSON` file.
pub fn render_json(reg: &Registry) -> String {
    fn section<T>(
        out: &mut String,
        key: &str,
        items: &std::collections::BTreeMap<&'static str, T>,
        value: impl Fn(&mut String, &T),
    ) {
        let _ = write!(out, ",\"{key}\":{{");
        for (i, (name, item)) in items.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{}\":", crate::export::escape(name));
            value(out, item);
        }
        out.push('}');
    }
    reg.with(|m| {
        let mut out = format!("{{\"t_ns\":{}", now_ns());
        section(&mut out, "counters", &m.counters, |o, c| {
            let _ = write!(o, "{}", c.get());
        });
        section(&mut out, "gauges", &m.gauges, |o, g| {
            let _ = write!(o, "{{\"value\":{},\"hwm\":{}}}", g.get(), g.high_water());
        });
        section(&mut out, "sketches", &m.sketches, |o, s| {
            let _ = write!(
                o,
                "{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                s.count(),
                s.sum(),
                s.p50(),
                s.p99(),
                s.max()
            );
        });
        out.push('}');
        out
    })
}

/// Write [`render_prometheus`] of the process-global registry to `path`
/// atomically, so a concurrent scraper never sees a torn exposition.
pub fn write_prometheus(path: &Path) -> std::io::Result<()> {
    crate::fsio::write_atomic(path, render_prometheus(metrics::global()).as_bytes())
}

/// Write [`render_json`] of the process-global registry to `path` (the
/// `MPICD_METRICS_JSON` file), replacing it atomically.
pub fn write_json(path: &Path) -> std::io::Result<()> {
    let json = render_json(metrics::global()) + "\n";
    crate::fsio::write_atomic(path, json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_brackets_every_octave() {
        let mut prev_bound = None;
        for i in 0..SKETCH_BUCKETS {
            let b = sketch_bound(i);
            if let Some(p) = prev_bound {
                assert!(b > p, "bounds strictly increase at bucket {i}");
            }
            prev_bound = Some(b);
            // The bound itself must land in its own bucket.
            assert_eq!(sketch_bucket(b), i, "bound of bucket {i} roundtrips");
        }
        for v in [0u64, 1, 15, 16, 17, 100, 1024, 1 << 20, u64::MAX / 2] {
            let i = sketch_bucket(v);
            assert!(sketch_bound(i) >= v, "upper bound covers {v}");
            if i > 0 {
                assert!(sketch_bound(i - 1) < v, "lower neighbour excludes {v}");
            }
            // ≤ 25% relative error from the log-linear sub-buckets.
            assert!(sketch_bound(i) as f64 <= v as f64 * 1.25 + 1.0);
        }
        assert_eq!(sketch_bucket(u64::MAX), SKETCH_BUCKETS - 1);
    }

    #[test]
    fn sketch_quantiles_track_a_known_distribution() {
        let s = Sketch::new();
        for v in 1..=100u64 {
            s.observe(v * 10);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 50_500);
        assert_eq!(s.max(), 1000);
        let p50 = s.p50();
        assert!((450..=650).contains(&p50), "p50 ≈ 500, got {p50}");
        let p99 = s.p99();
        assert!((950..=1000).contains(&p99), "p99 ≈ 990, got {p99}");
        assert_eq!(s.quantile(1.0), 1000, "p100 is the exact max");
    }

    #[test]
    fn empty_sketch_is_zeroed() {
        let s = Sketch::new();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn windowed_quantiles_from_bucket_deltas() {
        let s = Sketch::new();
        for v in 1..=100u64 {
            s.observe(v * 10);
        }
        let before = s.bucket_counts();
        for _ in 0..900 {
            s.observe(50); // a second batch at a much lower latency
        }
        let after = s.bucket_counts();
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        let p50 = quantile_from_counts(&delta, 0.50);
        assert!(p50 <= 64, "window delta is dominated by the 50s: {p50}");
        let full_p50 = quantile_from_counts(&after, 0.50);
        assert!(full_p50 <= 64);
        assert_eq!(quantile_from_counts(&[], 0.5), 0);
        assert_eq!(quantile_from_counts(&[0, 0, 0], 0.99), 0);
    }

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let g = Gauge::new();
        g.observe_add(5);
        g.observe_add(3);
        assert_eq!(g.get(), 8);
        assert_eq!(g.high_water(), 8);
        g.observe_sub(6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 8, "hwm is sticky");
        g.observe_sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        g.observe_set(4);
        assert_eq!(g.get(), 4);
        assert_eq!(g.high_water(), 8, "set below hwm leaves it");
        g.observe_set(20);
        assert_eq!(g.high_water(), 20, "set above hwm raises it");
    }

    #[test]
    fn registry_returns_same_instance() {
        // Gauges and sketches are get-or-create by name in the one
        // registry, like counters.
        let r = Registry::new();
        let a = r.sketch("test.same_sketch");
        assert!(std::sync::Arc::ptr_eq(&a, &r.sketch("test.same_sketch")));
        let g = r.gauge("test.same_gauge");
        assert!(std::sync::Arc::ptr_eq(&g, &r.gauge("test.same_gauge")));
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("fabric.wire_ns"), "mpicd_fabric_wire_ns");
        assert_eq!(prom_name("coll.op-rate"), "mpicd_coll_op_rate");
    }

    /// A registry holding one instrument of each kind.
    fn one_of_each() -> Registry {
        let r = Registry::new();
        r.counter("fabric.messages").add(7);
        r.gauge("test.expo_gauge").observe_add(7);
        r.gauge("test.expo_gauge").observe_sub(3);
        r.sketch("fabric.msg_size").observe(4096);
        r
    }

    #[test]
    fn exposition_contains_registered_instruments() {
        let text = render_prometheus(&one_of_each());
        assert!(text.contains("# TYPE mpicd_fabric_messages_total counter\n"));
        assert!(text.contains("mpicd_fabric_messages_total 7\n"));
        assert!(text.contains("# TYPE mpicd_test_expo_gauge gauge\n"));
        assert!(text.contains("# TYPE mpicd_fabric_msg_size summary\n"));
        assert!(text.contains("mpicd_fabric_msg_size{quantile=\"0.99\"} 4096\n"));
        assert!(text.contains("mpicd_fabric_msg_size_sum 4096\n"));
        assert!(text.contains("mpicd_fabric_msg_size_count 1\n"));
    }

    #[test]
    fn gauge_renders_in_exposition_and_health_json() {
        let r = one_of_each();
        let text = render_prometheus(&r);
        assert!(text.contains("mpicd_test_expo_gauge 4\n"));
        assert!(text.contains("mpicd_test_expo_gauge_hwm 7\n"));
        let health = render_json(&r);
        assert!(health.starts_with("{\"t_ns\":"));
        assert!(health.contains("\"gauges\":{\"test.expo_gauge\":{\"value\":4,\"hwm\":7}}"));
    }
}
