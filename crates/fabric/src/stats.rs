//! Fabric traffic counters.
//!
//! Tests (and EXPERIMENTS.md claims) rely on counting *how* data moved:
//! e.g. a pickle out-of-band transfer issues one message per buffer while
//! the custom-datatype path folds everything into a single message, and
//! eager messages pay a bounce-buffer copy that rendezvous avoids.
//!
//! [`FabricStats`] keeps the per-fabric counters the public API exposes;
//! the crate-private `FabricMetrics` mirrors the same traffic into an
//! `mpicd-obs` registry (plus callback-time counters) so the
//! benchmark harness can read the process-global registry without holding
//! a fabric handle.

use mpicd_obs::telemetry::{quantile_from_counts, sketch_bucket, SKETCH_BUCKETS};
use mpicd_obs::{Counter, Gauge, Registry, Sketch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Samples a windowed latency distribution has to hold before the
/// straggler threshold arms. Below this the p99 of the previous window
/// is noise and flagging against it would tag healthy transfers.
const MIN_WINDOW_SAMPLES: u64 = 100;

/// Width of the straggler gate's rotating window (1 s: long enough to
/// collect [`MIN_WINDOW_SAMPLES`] under any sustained load, short
/// enough that the threshold tracks shifting traffic).
const STRAGGLER_WINDOW_NS: u64 = 1_000_000_000;

/// Online straggler detector: a latency histogram in sketch buckets over
/// a rotating wall-clock window. Each completed transfer's active time is
/// recorded into the current window; when the window rolls over, the p99
/// of the *closed* window sets the straggler threshold (2x the p99
/// bucket's upper bound) for the next one. A transfer is flagged the
/// moment it completes — no post-mortem pass.
///
/// The gate is advisory: rotation races with concurrent `observe`
/// calls can misplace a handful of samples across a window boundary,
/// which shifts the p99 by at most a bucket. It disarms (threshold 0)
/// whenever the previous window is stale (a gap of idle windows) or
/// too thin ([`MIN_WINDOW_SAMPLES`]).
#[derive(Debug)]
pub(crate) struct StragglerGate {
    window_ns: u64,
    epoch: AtomicU64,
    buckets: [AtomicU64; SKETCH_BUCKETS],
    threshold_ns: AtomicU64,
}

impl StragglerGate {
    pub(crate) fn new(window_ns: u64) -> Self {
        Self {
            window_ns: window_ns.max(1),
            epoch: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            threshold_ns: AtomicU64::new(0),
        }
    }

    /// Record one completed transfer's active time; returns `true` when
    /// it exceeds the armed threshold from the previous window.
    pub(crate) fn observe(&self, now_ns: u64, active_ns: u64) -> bool {
        let epoch = now_ns / self.window_ns;
        let cur = self.epoch.load(Ordering::Relaxed);
        if epoch != cur
            && self
                .epoch
                .compare_exchange(cur, epoch, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            // This thread won the rotation: close the previous window,
            // derive the next threshold from its p99, and reset.
            let counts: Vec<u64> = self
                .buckets
                .iter()
                .map(|b| b.swap(0, Ordering::Relaxed))
                .collect();
            let total: u64 = counts.iter().sum();
            let thr = if epoch == cur + 1 && total >= MIN_WINDOW_SAMPLES {
                quantile_from_counts(&counts, 0.99).saturating_mul(2)
            } else {
                // Idle gap or thin window: disarm rather than flag
                // against stale statistics.
                0
            };
            self.threshold_ns.store(thr, Ordering::Relaxed);
        }
        self.buckets[sketch_bucket(active_ns)].fetch_add(1, Ordering::Relaxed);
        let thr = self.threshold_ns.load(Ordering::Relaxed);
        thr != 0 && active_ns > thr
    }

    /// Currently armed threshold in ns (0 = disarmed).
    #[cfg(test)]
    pub(crate) fn threshold(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }
}

/// Move `gauge` by the difference between a resource's occupancy before
/// and after an operation, issuing only the one delta (O(1) per call —
/// never a rescan of the structure).
pub(crate) fn gauge_shift(gauge: &Gauge, before: usize, after: usize) {
    if after > before {
        gauge.add((after - before) as u64);
    } else if before > after {
        gauge.sub((before - after) as u64);
    }
}

/// Monotonic counters describing all traffic a [`Fabric`](crate::Fabric)
/// has carried.
#[derive(Debug, Default)]
pub struct FabricStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    eager: AtomicU64,
    rendezvous: AtomicU64,
    fragments: AtomicU64,
    regions: AtomicU64,
    unexpected: AtomicU64,
    pipelined: AtomicU64,
    match_exact: AtomicU64,
    match_wildcard: AtomicU64,
    match_drained: AtomicU64,
    type_mismatch: AtomicU64,
}

/// A copied-out, plain view of [`FabricStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsView {
    /// Completed messages.
    pub messages: u64,
    /// Total payload bytes carried.
    pub bytes: u64,
    /// Messages carried with the eager protocol.
    pub eager: u64,
    /// Messages carried with the rendezvous protocol.
    pub rendezvous: u64,
    /// Pipeline fragments transferred.
    pub fragments: u64,
    /// Scatter/gather entries transferred.
    pub regions: u64,
    /// Messages that arrived before a matching receive was posted.
    pub unexpected: u64,
    /// Messages whose fragments were handed to the fragment engine's worker
    /// pool (zero at one pipeline thread; transfers run inline on the
    /// posting thread are not counted).
    pub pipelined: u64,
    /// Send/recv pairings found through the O(1) exact-match hash path.
    pub match_exact: u64,
    /// Pairings that required the ordered wildcard sideline (ANY_SOURCE /
    /// ANY_TAG on either side of the match).
    pub match_wildcard: u64,
    /// Cancelled or already-completed queue entries lazily drained while
    /// matching (each entry counted once).
    pub match_drained: u64,
    /// Matched pairs whose structural type signatures disagreed (counted
    /// in `warn` and `enforce` modes; see `MPICD_TYPECHECK`).
    pub type_mismatch: u64,
}

impl FabricStats {
    pub(crate) fn record_message(
        &self,
        bytes: usize,
        rendezvous: bool,
        fragments: usize,
        regions: usize,
    ) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        if rendezvous {
            self.rendezvous.fetch_add(1, Ordering::Relaxed);
        } else {
            self.eager.fetch_add(1, Ordering::Relaxed);
        }
        self.fragments
            .fetch_add(fragments as u64, Ordering::Relaxed);
        self.regions.fetch_add(regions as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_unexpected(&self) {
        self.unexpected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_pipelined(&self) {
        self.pipelined.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_match(&self, wildcard: bool) {
        if wildcard {
            self.match_wildcard.fetch_add(1, Ordering::Relaxed);
        } else {
            self.match_exact.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_drained(&self, n: u64) {
        if n > 0 {
            self.match_drained.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_type_mismatch(&self) {
        self.type_mismatch.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy out the current counter values.
    pub fn view(&self) -> StatsView {
        StatsView {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            eager: self.eager.load(Ordering::Relaxed),
            rendezvous: self.rendezvous.load(Ordering::Relaxed),
            fragments: self.fragments.load(Ordering::Relaxed),
            regions: self.regions.load(Ordering::Relaxed),
            unexpected: self.unexpected.load(Ordering::Relaxed),
            pipelined: self.pipelined.load(Ordering::Relaxed),
            match_exact: self.match_exact.load(Ordering::Relaxed),
            match_wildcard: self.match_wildcard.load(Ordering::Relaxed),
            match_drained: self.match_drained.load(Ordering::Relaxed),
            type_mismatch: self.type_mismatch.load(Ordering::Relaxed),
        }
    }
}

impl StatsView {
    /// Difference between two views. Saturating: callers sometimes compare
    /// views from different fabrics or across a counter reset, and a
    /// nonsensical ordering must degrade to zero, not panic in debug builds.
    pub fn since(&self, earlier: &StatsView) -> StatsView {
        StatsView {
            messages: self.messages.saturating_sub(earlier.messages),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            eager: self.eager.saturating_sub(earlier.eager),
            rendezvous: self.rendezvous.saturating_sub(earlier.rendezvous),
            fragments: self.fragments.saturating_sub(earlier.fragments),
            regions: self.regions.saturating_sub(earlier.regions),
            unexpected: self.unexpected.saturating_sub(earlier.unexpected),
            pipelined: self.pipelined.saturating_sub(earlier.pipelined),
            match_exact: self.match_exact.saturating_sub(earlier.match_exact),
            match_wildcard: self.match_wildcard.saturating_sub(earlier.match_wildcard),
            match_drained: self.match_drained.saturating_sub(earlier.match_drained),
            type_mismatch: self.type_mismatch.saturating_sub(earlier.type_mismatch),
        }
    }
}

/// Handles into an `mpicd-obs` registry for everything the fabric reports.
/// Created once per [`Fabric`](crate::Fabric) from the process-global
/// registry, so all fabrics share the same entries (get-or-create by name).
///
/// The callback-time counters are fed from each transfer's record and
/// advance only while transfers are stamped (tracing, flight or telemetry
/// on); `pipeline_ns` is fed by a `span_acc` guard (tracing only). The
/// traffic counters and the modeled `wire_ns` are always on (same cost
/// class as [`FabricStats`]).
#[derive(Debug, Clone)]
pub(crate) struct FabricMetrics {
    pub messages: Arc<Counter>,
    pub bytes: Arc<Counter>,
    pub eager: Arc<Counter>,
    pub rendezvous: Arc<Counter>,
    pub fragments: Arc<Counter>,
    pub regions: Arc<Counter>,
    pub unexpected: Arc<Counter>,
    /// Modeled wire time (always on).
    pub wire_ns: Arc<Counter>,
    /// Wall time spent inside pack callbacks (stamped transfers only).
    pub pack_ns: Arc<Counter>,
    /// Wall time spent inside unpack callbacks (stamped transfers only).
    pub unpack_ns: Arc<Counter>,
    /// Bytes copied into eager bounce buffers (the copy the custom path avoids).
    pub copy_bytes: Arc<Counter>,
    /// Message-size distribution (always on: recorded with the ungated
    /// `observe`).
    pub msg_size: Arc<Sketch>,
    /// Transfers handed to the fragment engine's worker pool (always on).
    pub pipeline_transfers: Arc<Counter>,
    /// Fragments of those transfers (always on).
    pub pipeline_frags: Arc<Counter>,
    /// Threads of each worker pool, posting thread included (once per pool).
    pub pipeline_threads: Arc<Counter>,
    /// Wall time of pooled transfers, submit to completion
    /// (tracing only, fed by a `span_acc` guard).
    pub pipeline_ns: Arc<Counter>,
    /// Pairings found through the exact-match hash path (always on).
    pub match_exact: Arc<Counter>,
    /// Pairings that needed the wildcard sideline (always on).
    pub match_wildcard: Arc<Counter>,
    /// Dead queue entries lazily drained while matching (always on).
    pub match_drained: Arc<Counter>,
    /// Matched pairs whose structural signatures disagreed (always on;
    /// counted in `warn` and `enforce` typecheck modes).
    pub type_mismatch: Arc<Counter>,
    /// Telemetry sketch (`MPICD_TELEMETRY=1`): modeled per-message wire
    /// latency.
    pub tele_wire_ns: Arc<Sketch>,
    /// Telemetry sketch: match-to-complete wall time per transfer.
    pub tele_active_ns: Arc<Sketch>,
    /// Transfers flagged by the online straggler gate.
    pub stragglers: Arc<Counter>,
    /// Windowed p99 gate feeding `stragglers`.
    pub straggler_gate: Arc<StragglerGate>,
    /// Level gauge: eager bounce-buffer freelist occupancy.
    pub g_bounce_pool: Arc<Gauge>,
    /// Level gauge: pending unexpected sends across all destinations.
    pub g_unexpected: Arc<Gauge>,
    /// Level gauge: live entries across matching slabs (posted + unexpected).
    pub g_match_live: Arc<Gauge>,
    /// Level gauge: tombstoned (matched/cancelled, not yet compacted)
    /// matching-slab entries.
    pub g_match_tombstones: Arc<Gauge>,
    /// Level gauge: free scratch-ring slots in the pipeline pool.
    pub g_scratch_free: Arc<Gauge>,
    /// Level gauge: jobs queued to the pipeline worker pool.
    pub g_pipeline_queue: Arc<Gauge>,
}

impl FabricMetrics {
    /// Handles into `r` under `fabric.*` names.
    pub(crate) fn new(r: &Registry) -> Self {
        Self {
            messages: r.counter("fabric.messages"),
            bytes: r.counter("fabric.bytes"),
            eager: r.counter("fabric.eager"),
            rendezvous: r.counter("fabric.rendezvous"),
            fragments: r.counter("fabric.fragments"),
            regions: r.counter("fabric.regions"),
            unexpected: r.counter("fabric.unexpected"),
            wire_ns: r.counter("fabric.wire_ns"),
            pack_ns: r.counter("fabric.pack_ns"),
            unpack_ns: r.counter("fabric.unpack_ns"),
            copy_bytes: r.counter("fabric.copy_bytes"),
            msg_size: r.sketch("fabric.msg_size"),
            pipeline_transfers: r.counter("fabric.pipeline.transfers"),
            pipeline_frags: r.counter("fabric.pipeline.frags"),
            pipeline_threads: r.counter("fabric.pipeline.threads"),
            pipeline_ns: r.counter("fabric.pipeline.ns"),
            match_exact: r.counter("fabric.match.exact"),
            match_wildcard: r.counter("fabric.match.wildcard"),
            match_drained: r.counter("fabric.match.drained"),
            type_mismatch: r.counter("fabric.type_mismatch"),
            tele_wire_ns: r.sketch("fabric.wire_latency_ns"),
            tele_active_ns: r.sketch("fabric.transfer_active_ns"),
            stragglers: r.counter("fabric.stragglers"),
            straggler_gate: Arc::new(StragglerGate::new(STRAGGLER_WINDOW_NS)),
            g_bounce_pool: r.gauge("fabric.bounce_pool"),
            g_unexpected: r.gauge("fabric.unexpected_depth"),
            g_match_live: r.gauge("fabric.match.live"),
            g_match_tombstones: r.gauge("fabric.match.tombstones"),
            g_scratch_free: r.gauge("fabric.scratch_free"),
            g_pipeline_queue: r.gauge("fabric.pipeline.queue"),
        }
    }

    /// Mirror of [`FabricStats::record_message`], plus modeled wire time
    /// and the message-size sketch.
    pub(crate) fn record_message(
        &self,
        bytes: usize,
        rendezvous: bool,
        fragments: usize,
        regions: usize,
        wire_ns: f64,
    ) {
        self.messages.inc();
        self.bytes.add(bytes as u64);
        if rendezvous {
            self.rendezvous.inc();
        } else {
            self.eager.inc();
        }
        self.fragments.add(fragments as u64);
        self.regions.add(regions as u64);
        self.wire_ns.add(wire_ns as u64);
        self.msg_size.observe(bytes as u64);
        // One relaxed load when MPICD_TELEMETRY is off.
        self.tele_wire_ns.record(wire_ns as u64);
    }

    /// Mirror of [`FabricStats::record_match`].
    pub(crate) fn record_match(&self, wildcard: bool) {
        if wildcard {
            self.match_wildcard.inc();
        } else {
            self.match_exact.inc();
        }
    }

    /// Mirror of [`FabricStats::record_drained`].
    pub(crate) fn record_drained(&self, n: u64) {
        if n > 0 {
            self.match_drained.add(n);
        }
    }

    /// Feed one completed transfer's active time through the straggler
    /// gate, counting it live if it exceeds the windowed p99 threshold.
    /// Returns the verdict, which the transfer's record carries.
    pub(crate) fn record_straggler_check(&self, now_ns: u64, active_ns: u64) -> bool {
        let flagged = self.straggler_gate.observe(now_ns, active_ns);
        if flagged {
            self.stragglers.inc();
        }
        flagged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_views() {
        let s = FabricStats::default();
        s.record_message(1024, false, 1, 1);
        s.record_message(1 << 20, true, 16, 3);
        s.record_unexpected();
        let v = s.view();
        assert_eq!(v.messages, 2);
        assert_eq!(v.bytes, 1024 + (1 << 20));
        assert_eq!(v.eager, 1);
        assert_eq!(v.rendezvous, 1);
        assert_eq!(v.fragments, 17);
        assert_eq!(v.regions, 4);
        assert_eq!(v.unexpected, 1);
    }

    #[test]
    fn since_subtracts() {
        let s = FabricStats::default();
        s.record_message(10, false, 1, 1);
        let a = s.view();
        s.record_message(20, false, 1, 1);
        let b = s.view();
        let d = b.since(&a);
        assert_eq!(d.messages, 1);
        assert_eq!(d.bytes, 20);
    }

    #[test]
    fn since_saturates_instead_of_panicking() {
        // Regression: `since` across a reset (or with views from different
        // fabrics) used plain subtraction and panicked in debug builds.
        let busy = StatsView {
            messages: 5,
            bytes: 100,
            eager: 3,
            rendezvous: 2,
            fragments: 7,
            regions: 9,
            unexpected: 1,
            pipelined: 4,
            match_exact: 6,
            match_wildcard: 2,
            match_drained: 3,
            type_mismatch: 1,
        };
        let fresh = StatsView::default();
        let d = fresh.since(&busy);
        assert_eq!(d, StatsView::default(), "negative deltas clamp to zero");
        // The sane direction still subtracts exactly.
        assert_eq!(busy.since(&fresh), busy);
    }

    #[test]
    fn match_counters_split_exact_and_wildcard() {
        let s = FabricStats::default();
        s.record_match(false);
        s.record_match(false);
        s.record_match(true);
        s.record_drained(5);
        s.record_drained(0);
        let v = s.view();
        assert_eq!(v.match_exact, 2);
        assert_eq!(v.match_wildcard, 1);
        assert_eq!(v.match_drained, 5);

        let m = FabricMetrics::new(&Registry::new());
        m.record_match(true);
        m.record_drained(7);
        assert_eq!(m.match_wildcard.get(), 1);
        assert_eq!(m.match_exact.get(), 0);
        assert_eq!(m.match_drained.get(), 7);
    }

    #[test]
    fn straggler_gate_arms_from_previous_window_p99() {
        let g = StragglerGate::new(1_000);
        // Window 0: 200 samples of 100 ns (sketch bucket [96, 112)).
        for i in 0..200u64 {
            assert!(!g.observe(i, 100), "gate must stay disarmed in window 0");
        }
        assert_eq!(g.threshold(), 0);
        // First observe in window 1 rotates; threshold = 2 * 111 = 222.
        assert!(!g.observe(1_000, 100));
        assert_eq!(g.threshold(), 222);
        // A 10 µs transfer in window 1 is flagged live.
        assert!(g.observe(1_100, 10_000));
        // A sub-threshold one is not.
        assert!(!g.observe(1_200, 200));
    }

    #[test]
    fn straggler_gate_disarms_on_thin_or_stale_windows() {
        let g = StragglerGate::new(1_000);
        // Thin window: below MIN_WINDOW_SAMPLES, never arms.
        for i in 0..10u64 {
            g.observe(i, 100);
        }
        g.observe(1_000, 100);
        assert_eq!(g.threshold(), 0, "thin window must not arm");
        // Arm it properly in window 1...
        for i in 0..200u64 {
            g.observe(1_000 + i, 100);
        }
        g.observe(2_000, 100);
        assert_ne!(g.threshold(), 0);
        // ...then skip straight to window 9: the gap disarms the gate.
        assert!(!g.observe(9_000, 1 << 40));
        assert_eq!(g.threshold(), 0, "idle gap must disarm");
    }

    #[test]
    fn straggler_check_counts_into_metrics() {
        let m = FabricMetrics::new(&Registry::new());
        for i in 0..200u64 {
            m.record_straggler_check(i, 100);
        }
        m.record_straggler_check(STRAGGLER_WINDOW_NS, 100);
        assert_eq!(m.stragglers.get(), 0);
        m.record_straggler_check(STRAGGLER_WINDOW_NS + 1, 1 << 30);
        assert_eq!(m.stragglers.get(), 1);
    }

    #[test]
    fn gauge_shift_moves_by_delta_only() {
        let g = Gauge::new();
        g.observe_set(10);
        gauge_shift(&g, 3, 7);
        // gauge_shift goes through the gated add/sub, so force telemetry on.
        mpicd_obs::telemetry::set_enabled(true);
        gauge_shift(&g, 3, 7);
        assert_eq!(g.get(), 14);
        gauge_shift(&g, 7, 2);
        assert_eq!(g.get(), 9);
        gauge_shift(&g, 5, 5);
        assert_eq!(g.get(), 9);
        mpicd_obs::telemetry::set_enabled(false);
    }

    #[test]
    fn metrics_mirror_counts() {
        let m = FabricMetrics::new(&Registry::new());
        m.record_message(4096, true, 2, 3, 1500.9);
        assert_eq!(m.messages.get(), 1);
        assert_eq!(m.bytes.get(), 4096);
        assert_eq!(m.rendezvous.get(), 1);
        assert_eq!(m.eager.get(), 0);
        assert_eq!(m.fragments.get(), 2);
        assert_eq!(m.regions.get(), 3);
        assert_eq!(m.wire_ns.get(), 1500);
        assert_eq!(m.msg_size.count(), 1);
    }
}
