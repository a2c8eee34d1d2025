//! The metrics registry: the one [`Registry`] of named counters, gauges
//! and sketches.
//!
//! * [`Counter`] — a monotonically increasing relaxed atomic. Always on:
//!   the same cost class as the fabric's `FabricStats`.
//! * [`Gauge`] — an instantaneous level with a high-water mark, for
//!   bounded resources (freelists, queue depths, slab occupancy).
//! * [`Sketch`] — the one histogram type: a streaming histogram of `u64`
//!   samples in log-linear buckets, answering p50/p99 at any moment
//!   without storing samples.
//!
//! Gauges and sketches live in [`crate::telemetry`], which gates their
//! mutators on `MPICD_TELEMETRY`. Each name belongs to one kind:
//! registering a name as a second kind panics.
//!
//! Callers obtain `Arc` handles once (at construction time) and hold them
//! on hot paths; the registry's lock is only taken at lookup and render
//! time. [`crate::telemetry::render_prometheus`] and
//! [`crate::telemetry::render_json`] render a registry for scrapers and
//! the health stream, [`crate::export::summary_of`] for humans.

use crate::sync::Mutex;
use crate::telemetry::{Gauge, Sketch};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The instruments of a [`Registry`], one map per kind.
#[derive(Debug, Default)]
pub(crate) struct Instruments {
    pub(crate) counters: BTreeMap<&'static str, Arc<Counter>>,
    pub(crate) gauges: BTreeMap<&'static str, Arc<Gauge>>,
    pub(crate) sketches: BTreeMap<&'static str, Arc<Sketch>>,
}

impl Instruments {
    /// Panic if `name` is registered as a kind other than `kind`.
    fn claim(&self, name: &str, kind: &str) {
        let taken = [
            ("counter", self.counters.contains_key(name)),
            ("gauge", self.gauges.contains_key(name)),
            ("sketch", self.sketches.contains_key(name)),
        ];
        if let Some((other, _)) = taken.iter().find(|&&(k, has)| has && k != kind) {
            panic!("metric {name:?} is already a {other}, not a {kind}");
        }
    }
}

/// A named collection of counters, gauges and sketches.
#[derive(Debug, Default)]
pub struct Registry {
    instruments: Mutex<Instruments>,
}

impl Registry {
    /// New empty registry (the process default's is [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name` (dotted lowercase, e.g.
    /// `"fabric.messages"`). Hold the returned handle on hot paths.
    /// Panics if `name` is already a gauge or sketch.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut m = self.instruments.lock();
        m.claim(name, "counter");
        Arc::clone(m.counters.entry(name).or_default())
    }

    /// Get or create the gauge named `name`. Panics if `name` is already
    /// a counter or sketch.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut m = self.instruments.lock();
        m.claim(name, "gauge");
        Arc::clone(m.gauges.entry(name).or_default())
    }

    /// Get or create the sketch named `name`. Panics if `name` is already
    /// a counter or gauge.
    pub fn sketch(&self, name: &'static str) -> Arc<Sketch> {
        let mut m = self.instruments.lock();
        m.claim(name, "sketch");
        Arc::clone(m.sketches.entry(name).or_default())
    }

    /// Run `f` over every registered instrument, with the registry locked.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&Instruments) -> R) -> R {
        f(&self.instruments.lock())
    }

    /// Copy out every counter value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.with(|m| {
                m.counters
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.get()))
                    .collect()
            }),
        }
    }
}

/// The process default's registry ([`crate::Obs::process`]): the plan,
/// cursor and collective counters, and the `fabric.*` instruments of
/// every world built without its own handle.
pub fn global() -> &'static Registry {
    crate::Obs::process().registry()
}

/// The counter values of a [`Registry`] at one point in time.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Activity since `earlier` (saturating per counter; counters absent
    /// from `earlier` are treated as starting at zero).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        Snapshot { counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{quantile_from_counts, sketch_bucket, SKETCH_BUCKETS};

    // The telemetry gate is process-wide; unit tests use the ungated
    // `observe` path. Gated behaviour lives in the crate's integration
    // tests (own processes).

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn bucket_index_edges() {
        let s = Registry::new().sketch("h");
        for v in [0u64, 15, 16, 19, 20, 1 << 20, u64::MAX] {
            s.observe(v);
        }
        let counts = s.bucket_counts();
        assert_eq!(counts.len(), SKETCH_BUCKETS);
        for (v, i) in [(0u64, 0), (15, 15), (16, 16), (19, 16), (20, 17)] {
            assert_eq!(sketch_bucket(v), i, "bucket of {v}");
            assert!(counts[i] >= 1, "{v} counted in bucket {i}");
        }
        assert_eq!(counts[SKETCH_BUCKETS - 1], 1, "u64::MAX in the top bucket");
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [1u64, 7, 16, 100, 1000, 1 << 40, u64::MAX] {
            let s = Sketch::new();
            s.observe(v);
            // The bucket bound, before clamping to the exact max.
            let bound = quantile_from_counts(&s.bucket_counts(), 0.5);
            assert!(bound >= v, "bound {bound} covers {v}");
            assert!(bound as f64 <= v as f64 * 1.25 + 1.0, "≤ 25% above {v}");
        }
    }

    #[test]
    fn histogram_edge_values() {
        let s = Registry::new().sketch("h");
        s.observe(0);
        s.observe(1);
        s.observe(u64::MAX);
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), u64::MAX);
        assert_eq!(s.p50(), 1, "zero and one land in exact buckets");
        assert_eq!(s.quantile(1.0), u64::MAX);
        // 0 + 1 + MAX wraps; sum is still the wrapped total of the adds.
        assert_eq!(s.sum(), u64::MAX.wrapping_add(1));
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let s = Sketch::new();
        for _ in 0..99 {
            s.observe(100); // bucket [96, 112)
        }
        s.observe(1 << 20); // one outlier
        assert_eq!(s.p50(), 111, "median reported as bucket upper bound");
        assert_eq!(s.p99(), 111, "99th within the bulk");
        assert_eq!(s.quantile(1.0), 1 << 20);
        assert_eq!(s.max(), 1 << 20);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let s = Sketch::new();
        assert_eq!((s.count(), s.sum(), s.max()), (0, 0, 0));
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn quantile_never_exceeds_exact_max() {
        let s = Sketch::new();
        s.observe(100); // bucket [96, 112) has upper bound 111
        assert_eq!(s.p99(), 100, "clamped to exact max");
    }

    #[test]
    fn summary_since_subtracts() {
        // A window's distribution is the difference of two bucket-count
        // snapshots.
        let s = Sketch::new();
        s.observe(5);
        let a = s.bucket_counts();
        s.observe(5);
        s.observe(100);
        let d: Vec<u64> = s
            .bucket_counts()
            .iter()
            .zip(&a)
            .map(|(n, e)| n - e)
            .collect();
        assert_eq!(d.iter().sum::<u64>(), 2);
        assert_eq!(d[sketch_bucket(5)], 1);
        assert_eq!(d[sketch_bucket(100)], 1);
        assert_eq!(quantile_from_counts(&d, 1.0), 111);
    }

    #[test]
    fn registry_returns_same_instance() {
        let r = Registry::new();
        let a = r.counter("x");
        r.counter("x").add(3);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&r.gauge("g"), &r.gauge("g")));
        let h1 = r.sketch("h");
        r.sketch("h").observe(7);
        assert_eq!(h1.count(), 1);
    }

    #[test]
    #[should_panic(expected = "already a counter")]
    fn one_name_cannot_be_two_kinds() {
        let r = Registry::new();
        r.counter("fabric.stragglers");
        r.sketch("fabric.stragglers");
    }

    #[test]
    fn snapshot_since_handles_new_metrics() {
        let r = Registry::new();
        r.counter("a").add(10);
        let early = r.snapshot();
        r.counter("a").add(5);
        r.counter("b").add(2);
        let d = r.snapshot().since(&early);
        assert_eq!(d.counter("a"), 5);
        assert_eq!(d.counter("b"), 2, "counter absent earlier counts fully");
        assert_eq!(d.counter("missing"), 0);
    }
}
