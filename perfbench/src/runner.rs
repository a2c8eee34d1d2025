//! The closed loop shared by every workload: seeded schedule, warmup,
//! timed blocks, verification, and the metrics derived from one run.

use crate::json::Value;
use crate::rng::{Digest, Rng};
use crate::sys;
use crate::trace::{self, Summary, Tracer};
use mpicd::fabric::stats::StatsView;
use mpicd::fabric::Fabric;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One workload: a fixed set of cells (type × method × size), each of which
/// is one op. A block runs every cell once, so every block does the same
/// work in a seeded order.
pub trait Workload {
    /// Workload name.
    fn name(&self) -> &'static str;
    /// Number of cells.
    fn cells(&self) -> usize;
    /// Stable description of a cell (method, type, size) for the digest.
    fn describe(&self, cell: usize) -> String;
    /// Application payload bytes one op on `cell` delivers.
    fn payload_bytes(&self, cell: usize) -> u64;
    /// The fabric the ops run over.
    fn fabric(&self) -> &Fabric;
    /// Cold `commit()` time of each derived type built at setup, µs.
    fn commit_us(&self) -> &[f64];
    /// Untimed blocks run before the first timed op.
    fn warmup_blocks(&self) -> usize;
    /// Most latency samples a run keeps (storage is allocated up front so
    /// peak RSS does not depend on the op rate).
    fn max_samples(&self) -> usize;
    /// Called once with the schedule, before the first op.
    fn begin(&mut self, _schedule: &Schedule) {}
    /// Called before every block.
    fn start_block(&mut self) {}
    /// Called once after the last block.
    fn end(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Reset `cell`'s receive side so a skipped receive cannot verify
    /// (untimed).
    fn reset(&mut self, cell: usize);
    /// Run one op on `cell` (timed).
    fn run(&mut self, cell: usize, tr: &mut Tracer) -> Result<(), String>;
    /// Check `cell`'s received data against what was sent (untimed);
    /// with `corrupt`, first damage one received byte.
    fn verify(&mut self, cell: usize, corrupt: bool) -> bool;
}

/// The op sequence: warmup blocks in cell order, then the seeded part,
/// [`Schedule::BLOCKS`] permutations of the cells, run in turn and
/// repeated.
///
/// Warmup leaves state behind (allocator thresholds, pools, tuned plans)
/// that depends on the order of the ops; one fixed warmup order brings
/// every seed to the same starting state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    warmup: usize,
    canonical: Vec<u32>,
    blocks: Vec<Vec<u32>>,
}

impl Schedule {
    /// Distinct seeded permutations before the sequence repeats.
    pub const BLOCKS: usize = 256;

    /// The schedule for `cells` cells with `warmup` warmup blocks under
    /// `seed`.
    pub fn new(cells: usize, warmup: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0x5C4E);
        let canonical: Vec<u32> = (0..cells as u32).collect();
        let blocks = (0..Self::BLOCKS)
            .map(|_| {
                let mut order = canonical.clone();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        Self {
            warmup,
            canonical,
            blocks,
        }
    }

    /// Block `k` of the run, warmup included.
    pub fn block(&self, k: usize) -> &[u32] {
        match k.checked_sub(self.warmup) {
            None => &self.canonical,
            Some(i) => &self.blocks[i % self.blocks.len()],
        }
    }

    /// Digest of the whole op sequence: every cell's description followed
    /// by the block orders.
    pub fn digest(&self, w: &dyn Workload) -> u64 {
        let mut d = Digest::default();
        for cell in 0..w.cells() {
            d.update(w.describe(cell).as_bytes());
            d.update(b"\n");
        }
        for block in &self.blocks {
            for cell in block {
                d.update(&cell.to_le_bytes());
            }
        }
        d.value()
    }
}

/// When the timed phase ends (always on a block boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// After the first block that ends past this much wall time (at
    /// least one block).
    Time(Duration),
    /// After exactly this many blocks (0: setup and warmup only).
    Blocks(usize),
}

/// How to run a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Seed (it also built the workload).
    pub seed: u64,
    /// Length of the timed phase.
    pub budget: Budget,
    /// Traced run: every other block records spans.
    pub traced: bool,
    /// Damage the received data of this timed op before verifying it
    /// (checks that the verifier counts corruption).
    pub corrupt_op: Option<u64>,
    /// Where a traced run writes its spans (CSV) at exit.
    pub span_csv: Option<PathBuf>,
}

/// Most spans a traced run keeps (about 32 MiB).
const SPAN_CAP: usize = 1 << 20;

/// Most spans one op records (the op and up to three calls).
const SPANS_PER_OP: usize = 4;

/// Untraced ops a timed run needs before its time budget may end it, so its
/// p99 has at least ten samples beyond it.
const MIN_OPS: u64 = 1000;

/// Spans written out at exit (the analysis uses every recorded span).
const SPANS_WRITTEN: usize = 200_000;

/// Wall time of one window of an untraced run (see [`Window`]).
const WINDOW: Duration = Duration::from_millis(500);

/// Timed-op totals of one kind of block.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Ops.
    pub ops: u64,
    /// Sum of op wall times, ns.
    pub wall_ns: u64,
    /// Application payload bytes delivered.
    pub payload: u64,
}

impl Totals {
    fn add(&mut self, ns: u64, payload: u64) {
        self.ops += 1;
        self.wall_ns += ns;
        self.payload += payload;
    }

    fn mean_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.ops as f64
        }
    }
}

/// The timings of one stretch of about [`WINDOW`] of an untraced run
/// (whole blocks; a short tail joins the window before it). A shared
/// machine slows whole stretches of seconds down; the launcher pools the
/// windows of all processes and reports the best one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Payload over the sum of the window's op wall times, MB/s.
    pub mbps: f64,
    /// Median op wall time, µs.
    pub p50_us: f64,
    /// 99th-percentile op wall time, µs.
    pub p99_us: f64,
}

impl Window {
    /// The window over `lat` (op wall times in run order, ns) whose ops
    /// delivered `payload` bytes.
    fn new(lat: &[u32], payload: u64) -> Self {
        let mut sorted = lat.to_vec();
        sorted.sort_unstable();
        let ns: u64 = lat.iter().map(|&x| u64::from(x)).sum();
        Self {
            mbps: ratio(payload as f64 * 1e3, ns as f64),
            p50_us: f64::from(trace::percentile(&sorted, 50.0)) / 1e3,
            p99_us: f64::from(trace::percentile(&sorted, 99.0)) / 1e3,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Digest of the op sequence ([`Schedule::digest`]).
    pub digest: u64,
    /// Cells per block.
    pub cells: usize,
    /// Ops run, warmup included.
    pub attempted: u64,
    /// Ops that returned an error or failed verification.
    pub failed: u64,
    /// Timed blocks.
    pub blocks: usize,
    /// Untraced timed ops.
    pub untraced: Totals,
    /// Traced timed ops.
    pub traced: Totals,
    /// Untraced op wall times, ns, ascending.
    pub latencies_ns: Vec<u32>,
    /// Consecutive windows of the untraced run, in run order.
    pub windows: Vec<Window>,
    /// Fabric counter deltas over the timed phase.
    pub fabric: StatsView,
    /// Bounce-copy bytes (`fabric.copy_bytes`) over the timed phase.
    pub copy_bytes: u64,
    /// Modeled wire time over the timed phase, ns.
    pub wire_ns: f64,
    /// Wall time of the timed phase (verification included), s.
    pub wall_s: f64,
    /// Process CPU time over timed-phase wall time.
    pub cpu_busy_share: f64,
    /// CPU time the hypervisor stole from the machine over the timed
    /// phase, as a share of all CPUs' wall time (context for the timings).
    pub steal_share: f64,
    /// Peak RSS of the process at the end of the run, MiB.
    pub peak_rss_mb: f64,
    /// Cold commit time per derived type, µs.
    pub commit_us: Vec<f64>,
    /// Span analysis of the traced blocks.
    pub trace: Option<Summary>,
}

fn copy_bytes() -> u64 {
    mpicd_obs::global().counter("fabric.copy_bytes").get()
}

/// Run one op: reset, time, verify. Returns the op's wall time and
/// whether it succeeded.
fn one_op(
    w: &mut dyn Workload,
    cell: usize,
    op: u64,
    tr: &mut Tracer,
    corrupt: bool,
) -> (u64, bool) {
    w.reset(cell);
    let start = Instant::now();
    tr.begin_op(op as u32, start);
    let r = w.run(cell, tr);
    let end = Instant::now();
    tr.end_op(end);
    let ns = end.duration_since(start).as_nanos() as u64;
    let ok = match r {
        Ok(()) => w.verify(cell, corrupt),
        Err(e) => {
            eprintln!("{}: op {op} ({}) failed: {e}", w.name(), w.describe(cell));
            false
        }
    };
    (ns, ok)
}

/// Run `w` under `cfg`. `on_ready` is called once setup and warmup are
/// done, just before the first timed op.
pub fn run(
    w: &mut dyn Workload,
    cfg: &RunConfig,
    on_ready: &mut dyn FnMut(),
) -> Result<Report, String> {
    let warmup = w.warmup_blocks();
    let schedule = Schedule::new(w.cells(), warmup, cfg.seed);
    let digest = schedule.digest(w);
    w.begin(&schedule);

    let mut tr = Tracer::new(SPAN_CAP);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for k in 0..warmup {
        w.start_block();
        for &cell in schedule.block(k) {
            let (_, ok) = one_op(w, cell as usize, attempted, &mut tr, false);
            attempted += 1;
            failed += u64::from(!ok);
        }
    }

    // Sample storage is written once up front, so its pages are resident
    // before the timed phase whatever the op rate.
    let block_len = w.cells();
    let cap = if cfg.traced { 0 } else { w.max_samples() };
    let mut lat: Vec<u32> = vec![u32::MAX; cap];
    lat.clear();
    let span_room = block_len * SPANS_PER_OP;
    on_ready();

    let stats0 = w.fabric().stats();
    let ledger0 = w.fabric().ledger().snapshot();
    let copy0 = copy_bytes();
    let cpu0 = sys::cpu_time_s().unwrap_or(0.0);
    let steal0 = sys::steal_s().unwrap_or(0.0);
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Totals::default(), Totals::default());
    let mut op = 0u64;
    let mut blocks = 0usize;
    // Window starts: (time, index into `lat`, untraced payload so far).
    let mut marks = vec![(t0, 0usize, 0u64)];
    let stop_before = |blocks: usize, untraced_ops: u64, tr: &Tracer| {
        // A traced run ends after a traced block, so both kinds of block
        // ran equally often.
        if cfg.traced && blocks % 2 == 1 {
            return false;
        }
        let done = match cfg.budget {
            // On a slowed machine the run stretches, up to 4x, to reach
            // MIN_OPS.
            Budget::Time(d) => {
                let t = t0.elapsed();
                blocks > 0 && t >= d && (untraced_ops >= MIN_OPS || t >= 4 * d)
            }
            Budget::Blocks(n) => blocks >= n,
        };
        let full = if cfg.traced {
            tr.nearly_full(span_room)
        } else {
            untraced_ops as usize + block_len > cap
        };
        done || full
    };
    while !stop_before(blocks, untraced.ops, &tr) {
        let traced_block = cfg.traced && blocks % 2 == 1;
        tr.set_enabled(traced_block);
        w.start_block();
        for &cell in schedule.block(warmup + blocks) {
            let cell = cell as usize;
            let (ns, ok) = one_op(w, cell, op, &mut tr, cfg.corrupt_op == Some(op));
            attempted += 1;
            failed += u64::from(!ok);
            let payload = w.payload_bytes(cell);
            if traced_block {
                traced.add(ns, payload);
            } else {
                untraced.add(ns, payload);
                if !cfg.traced {
                    lat.push(u32::try_from(ns).unwrap_or(u32::MAX));
                }
            }
            op += 1;
        }
        if !cfg.traced {
            let now = Instant::now();
            if now.duration_since(marks[marks.len() - 1].0) >= WINDOW {
                marks.push((now, lat.len(), untraced.payload));
            }
        }
        blocks += 1;
    }
    tr.set_enabled(false);
    let t_end = Instant::now();
    let wall_s = t_end.duration_since(t0).as_secs_f64();
    let cpu_s = sys::cpu_time_s().unwrap_or(0.0) - cpu0;
    let steal_s = sys::steal_s().unwrap_or(0.0) - steal0;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fabric = w.fabric().stats().since(&stats0);
    let wire_ns = w.fabric().ledger().delta_ns(&ledger0);
    let copy_bytes = copy_bytes() - copy0;
    w.end()?;
    let windows = windows(&lat, untraced.payload, marks, t_end);

    if let Some(path) = cfg.span_csv.as_deref().filter(|_| cfg.traced) {
        if let Err(e) = tr.write_csv(path, SPANS_WRITTEN) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    lat.sort_unstable();
    Ok(Report {
        workload: w.name(),
        seed: cfg.seed,
        digest,
        cells: block_len,
        attempted,
        failed,
        blocks,
        untraced,
        traced,
        latencies_ns: lat,
        windows,
        fabric,
        copy_bytes,
        wire_ns,
        wall_s,
        cpu_busy_share: ratio(cpu_s, wall_s),
        steal_share: ratio(steal_s, wall_s * cpus as f64),
        peak_rss_mb: sys::peak_rss_mb().unwrap_or(0.0),
        commit_us: w.commit_us().to_vec(),
        trace: cfg.traced.then(|| trace::summarize(tr.spans())),
    })
}

/// Split the untraced ops into windows at `marks`; a tail shorter than
/// half a window joins the window before it.
fn windows(
    lat: &[u32],
    payload: u64,
    mut marks: Vec<(Instant, usize, u64)>,
    end: Instant,
) -> Vec<Window> {
    let (start, from, _) = marks[marks.len() - 1];
    if from == lat.len() || (marks.len() > 1 && end.duration_since(start) < WINDOW / 2) {
        marks.pop();
    }
    let ends = marks.iter().skip(1).map(|&(_, i, p)| (i, p));
    marks
        .iter()
        .zip(ends.chain([(lat.len(), payload)]))
        .map(|(&(_, i0, p0), (i1, p1))| Window::new(&lat[i0..i1], p1 - p0))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Report {
    /// Timed ops, traced and untraced.
    pub fn timed_ops(&self) -> u64 {
        self.untraced.ops + self.traced.ops
    }

    /// Failed ops over attempted ops.
    pub fn failed_op_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// End-to-end metrics of an untraced run (`setup_s` is measured by the
    /// launcher): `(name, value, unit)`.
    pub fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        let lat = &self.latencies_ns;
        let mut mbps: Vec<f64> = self.windows.iter().map(|w| w.mbps).collect();
        mbps.sort_unstable_by(f64::total_cmp);
        vec![
            (
                "throughput_MBps".into(),
                trace::percentile(&mbps, 50.0),
                "MB/s",
            ),
            (
                "op_latency_us_p50".into(),
                f64::from(trace::percentile(lat, 50.0)) / 1e3,
                "us",
            ),
            (
                "op_latency_us_p99".into(),
                f64::from(trace::percentile(lat, 99.0)) / 1e3,
                "us",
            ),
            (
                "modeled_wire_us_per_op".into(),
                ratio(self.wire_ns / 1e3, self.timed_ops() as f64),
                "us",
            ),
            ("peak_rss_MB".into(), self.peak_rss_mb, "MiB"),
        ]
    }

    /// Per-layer metrics of a traced run: `(name, value, unit)`.
    pub fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let mut out = Vec::new();
        let summary = self.trace.clone().unwrap_or_default();
        for (call, s) in &summary.calls {
            out.push((format!("{}.us_p50", call.name()), s.p50_us, "us"));
            out.push((format!("{}.us_p99", call.name()), s.p99_us, "us"));
            out.push((format!("{}.share", call.name()), s.share, "share"));
        }
        let commits = &self.commit_us;
        out.push((
            "datatype.commit_us".into(),
            ratio(commits.iter().sum(), commits.len() as f64),
            "us",
        ));
        let f = &self.fabric;
        let ops = self.timed_ops() as f64;
        let msgs = f.messages as f64;
        let payload = (self.untraced.payload + self.traced.payload) as f64;
        out.extend([
            ("fabric.messages_per_op".into(), ratio(msgs, ops), "msg/op"),
            (
                "fabric.rendezvous_share".into(),
                ratio(f.rendezvous as f64, msgs),
                "share",
            ),
            (
                "fabric.fragments_per_op".into(),
                ratio(f.fragments as f64, ops),
                "frag/op",
            ),
            (
                "fabric.regions_per_op".into(),
                ratio(f.regions as f64, ops),
                "region/op",
            ),
            (
                "fabric.unexpected_share".into(),
                ratio(f.unexpected as f64, msgs),
                "share",
            ),
            (
                "fabric.pipelined_share".into(),
                ratio(f.pipelined as f64, msgs),
                "share",
            ),
            (
                "fabric.copy_bytes_per_payload_byte".into(),
                ratio(self.copy_bytes as f64, payload),
                "B/B",
            ),
            ("proc.cpu_busy_share".into(), self.cpu_busy_share, "cores"),
            (
                "bench.unattributed_share".into(),
                summary.unattributed_share,
                "share",
            ),
            (
                "bench.trace_overhead_share".into(),
                ratio(self.traced.mean_ns(), self.untraced.mean_ns()) - 1.0,
                "share",
            ),
        ]);
        out
    }

    /// The run as one JSON object: the metrics of its mode plus the
    /// context needed to read them.
    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        let list = if self.trace.is_some() {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        for (name, value, unit) in list {
            metrics.set(&name, Value::metric(value, unit));
        }
        let mut info = Value::obj();
        info.set("digest", Value::Str(format!("{:016x}", self.digest)))
            .set("cells_per_block", Value::Int(self.cells as u64))
            .set("timed_blocks", Value::Int(self.blocks as u64))
            .set("timed_ops", Value::Int(self.timed_ops()))
            .set(
                "latency_samples",
                Value::Int(self.latencies_ns.len() as u64),
            )
            .set("timed_wall_s", Value::Num(self.wall_s))
            .set("failed_op_share", Value::Num(self.failed_op_share()))
            .set("steal_share", Value::Num(self.steal_share))
            .set("commit_types", Value::Int(self.commit_us.len() as u64));
        if self.trace.is_none() {
            let list = |f: fn(&Window) -> f64| {
                Value::Arr(self.windows.iter().map(|w| Value::Num(f(w))).collect())
            };
            let mut windows = Value::obj();
            windows
                .set("throughput_MBps", list(|w| w.mbps))
                .set("op_latency_us_p50", list(|w| w.p50_us))
                .set("op_latency_us_p99", list(|w| w.p99_us));
            info.set("windows", windows);
        }
        if let Some(t) = &self.trace {
            let mut samples = Value::obj();
            for (call, s) in &t.calls {
                samples.set(call.name(), Value::Int(s.samples as u64));
            }
            info.set("traced_ops", Value::Int(t.ops as u64))
                .set("call_samples", samples);
        }
        let mut out = Value::obj();
        out.set("workload", Value::Str(self.workload.into()))
            .set("seed", Value::Int(self.seed))
            .set("correct", Value::Bool(self.failed == 0))
            .set("attempted", Value::Int(self.attempted))
            .set("failed", Value::Int(self.failed))
            .set("metrics", metrics)
            .set("info", info);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_tail_joins_the_window_before_it() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let lat = [1000u32, 1000, 1000, 2000, 2000, 2000, 2000, 4000];
        let marks = vec![(t0, 0, 0), (at(600), 3, 300), (at(1200), 6, 600)];
        let w = windows(&lat, 800, marks.clone(), at(1300));
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].mbps, w[0].p50_us, w[0].p99_us), (100.0, 1.0, 1.0));
        assert_eq!((w[1].p50_us, w[1].p99_us), (2.0, 4.0));
        assert_eq!(w[1].mbps, 500.0 * 1e3 / 12_000.0);
        assert_eq!(windows(&lat, 800, marks, at(1500)).len(), 3);
        assert!(windows(&[], 0, vec![(t0, 0, 0)], at(1)).is_empty());
    }
}
