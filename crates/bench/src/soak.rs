//! Record-stream soak harness behind the `mpicd-soak` binary.
//!
//! Streams batches of [`Register`] records — the traffic-telemetry schema
//! of the paper's motivating Rust application (detector id, lane, date,
//! time of day, GPS fix, speed, municipality, time band) — from many
//! simulated client ranks to a few aggregator ranks for a configurable
//! duration, and judges the run from the transport's **live** telemetry
//! rather than a post-mortem:
//!
//! * windowed ingest throughput and active-latency p50/p99, read from the
//!   `fabric.transfer_active_ns` sketch by differencing bucket-count
//!   snapshots one reporting window apart;
//! * the straggler count from `fabric.stragglers`, armed by the fabric's
//!   rolling-p99 gate while transfers are still in flight;
//! * every bounded-resource gauge, with a **zero-growth assertion** on the
//!   freelists across the steady-state window: the harness quiesces after
//!   warmup and again after the soak, and the bounce-buffer pool and
//!   scratch ring must return to exactly their baseline levels while the
//!   matching/unexpected/pipeline queues drain to zero — a leaked buffer
//!   or slab entry fails the run;
//! * the sampled flight recorder (`MPICD_FLIGHT=1 MPICD_FLIGHT_SAMPLE=N`),
//!   whose dump is re-analyzed in-process at the end: every sampled
//!   record must read back cleanly (a record is whole or absent, so
//!   "malformed" means a recorder defect, not bad luck).
//!
//! The warmup baseline is taken at a *fixed point*: after the timed warmup
//! the harness runs short quiesced bursts until two consecutive gauge
//! snapshots agree, so the steady-state comparison never races pool
//! warm-up.

use crate::flight::{analyze, read_dump};
use crate::harness::Sample;
use crate::report::Table;
use mpicd::types::as_bytes;
use mpicd::{transfer, transfer_typed, Communicator, World};
use mpicd_datatype::{Committed, Datatype};
use mpicd_obs::{flight, telemetry, Gauge};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- the Register workload --------------------------------------------------

/// Calendar date of a [`Register`] observation.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Date {
    /// Four-digit year.
    pub year: i16,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
}

/// Time of day of a [`Register`] observation.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Hour {
    /// Hour 0–23.
    pub hour: u8,
    /// Minute 0–59.
    pub minute: u8,
    /// Second 0–59.
    pub second: u8,
}

/// One traffic-detector record, shaped like the registers the paper's
/// motivating application streams to its aggregators: nested date/time
/// structs, mixed scalar widths, and interior padding the derived
/// datatype must skip (after `hora` and at the struct tail).
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Register {
    /// Detector station id.
    pub cod_detector: i32,
    /// Lane id within the station.
    pub id_carril: i32,
    /// Observation date.
    pub fecha: Date,
    /// Observation time of day.
    pub hora: Hour,
    /// Latitude of the fix.
    pub latitud: f32,
    /// Longitude of the fix.
    pub longitud: f32,
    /// Measured speed.
    pub velocidad: f32,
    /// Municipality code.
    pub municipio_id: u8,
    /// Time-band bucket.
    pub franja_horaria: u8,
}

impl Register {
    /// Deterministic workload record (index-derived, no RNG needed).
    pub fn generate(i: usize) -> Self {
        Self {
            cod_detector: (i % 4096) as i32,
            id_carril: (i % 4) as i32,
            fecha: Date {
                year: 2024,
                month: (i % 12 + 1) as u8,
                day: (i % 28 + 1) as u8,
            },
            hora: Hour {
                hour: (i % 24) as u8,
                minute: (i % 60) as u8,
                second: (i * 7 % 60) as u8,
            },
            latitud: 40.4 + (i % 100) as f32 * 1e-3,
            longitud: -3.7 - (i % 100) as f32 * 1e-3,
            velocidad: (i % 140) as f32,
            municipio_id: (i % 179) as u8,
            franja_horaria: (i % 3) as u8,
        }
    }

    /// The derived-datatype description: field triples over the gappy
    /// `repr(C)` layout, resized so the extent equals the Rust stride
    /// (the last field ends at byte 30; the struct is 32 bytes).
    pub fn datatype() -> Datatype {
        let fields = Datatype::structure(vec![
            (2, 0, Datatype::of::<i32>()),  // cod_detector, id_carril
            (1, 8, Datatype::of::<i16>()),  // fecha.year
            (2, 10, Datatype::of::<u8>()),  // fecha.month, fecha.day
            (3, 12, Datatype::of::<u8>()),  // hora (one pad byte follows)
            (3, 16, Datatype::of::<f32>()), // latitud, longitud, velocidad
            (2, 28, Datatype::of::<u8>()),  // municipio_id, franja_horaria
        ]);
        Datatype::resized(0, std::mem::size_of::<Register>(), fields)
    }
}

// ---- configuration ----------------------------------------------------------

/// Soak-run parameters (see `mpicd-soak --help`).
#[derive(Clone, Debug, PartialEq)]
pub struct SoakConfig {
    /// Steady-state (measured) duration.
    pub duration: Duration,
    /// Timed warmup before the baseline gauge snapshot.
    pub warmup: Duration,
    /// Number of client ranks streaming records.
    pub clients: usize,
    /// Number of aggregator ranks the clients share.
    pub aggregators: usize,
    /// Records per transfer.
    pub batch: usize,
    /// Live-report cadence.
    pub window: Duration,
    /// Where to write the machine-readable soak report (`-` disables).
    pub report: Option<PathBuf>,
}

impl SoakConfig {
    /// Full-length defaults, or the smoke-test shape under
    /// `MPICD_BENCH_QUICK=1`.
    pub fn defaults(quick: bool) -> Self {
        if quick {
            Self {
                duration: Duration::from_secs(2),
                warmup: Duration::from_millis(300),
                clients: 4,
                aggregators: 2,
                batch: 16,
                window: Duration::from_millis(500),
                report: None,
            }
        } else {
            Self {
                duration: Duration::from_secs(60),
                warmup: Duration::from_secs(2),
                clients: 8,
                aggregators: 2,
                batch: 64,
                window: Duration::from_secs(1),
                report: Some(PathBuf::from("mpicd-soak-report.json")),
            }
        }
    }
}

/// Parse a human duration: `90`/`90s` (seconds, fractions allowed),
/// `250ms`, `2m`.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, scale) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = s.strip_suffix('m') {
        (v, 60.0)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num
        .parse()
        .map_err(|_| format!("bad duration `{s}` (try 60, 10s, 250ms)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("bad duration `{s}`"));
    }
    Ok(Duration::from_secs_f64(v * scale))
}

/// Apply command-line arguments on top of `base` defaults.
pub fn parse_args(
    args: impl Iterator<Item = String>,
    base: SoakConfig,
) -> Result<SoakConfig, String> {
    let mut cfg = base;
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut val = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--duration" => cfg.duration = parse_duration(&val("--duration")?)?,
            "--warmup" => cfg.warmup = parse_duration(&val("--warmup")?)?,
            "--window" => cfg.window = parse_duration(&val("--window")?)?,
            "--clients" => {
                cfg.clients = val("--clients")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--clients needs an integer >= 1")?;
            }
            "--aggregators" => {
                cfg.aggregators = val("--aggregators")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--aggregators needs an integer >= 1")?;
            }
            "--batch" => {
                cfg.batch = val("--batch")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--batch needs an integer >= 1")?;
            }
            "--report" => {
                let v = val("--report")?;
                cfg.report = if v == "-" {
                    None
                } else {
                    Some(PathBuf::from(v))
                };
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(cfg)
}

// ---- gauge snapshots --------------------------------------------------------

/// A point-in-time reading of every bounded-resource gauge the fabric
/// exports. Names must match `FabricMetrics` (the conformance test pins
/// them into `docs/ARCHITECTURE.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeLevels {
    /// `fabric.bounce_pool` — recycled eager bounce buffers parked.
    pub bounce_pool: u64,
    /// `fabric.scratch_free` — free pipeline scratch slots.
    pub scratch_free: u64,
    /// `fabric.match.live` — live posted/unexpected slab entries.
    pub match_live: u64,
    /// `fabric.match.tombstones` — cancelled entries awaiting lazy drain.
    pub match_tombstones: u64,
    /// `fabric.unexpected_depth` — unexpected-queue depth.
    pub unexpected: u64,
    /// `fabric.pipeline.queue` — fragment jobs waiting for a worker.
    pub pipeline_queue: u64,
}

impl GaugeLevels {
    fn from_gauges(level: fn(&Gauge) -> u64) -> Self {
        let g = |name| level(&mpicd_obs::global().gauge(name));
        Self {
            bounce_pool: g("fabric.bounce_pool"),
            scratch_free: g("fabric.scratch_free"),
            match_live: g("fabric.match.live"),
            match_tombstones: g("fabric.match.tombstones"),
            unexpected: g("fabric.unexpected_depth"),
            pipeline_queue: g("fabric.pipeline.queue"),
        }
    }

    /// Current values.
    pub fn read() -> Self {
        Self::from_gauges(Gauge::get)
    }

    /// High-water marks.
    pub fn high_water() -> Self {
        Self::from_gauges(Gauge::high_water)
    }

    /// Total growth of `self` (the quiesced end-of-soak levels) versus the
    /// quiesced post-warmup `baseline`. The bounce pool is a demand-grown
    /// freelist (hard-capped in the fabric), so a quiesced level *above*
    /// the baseline is late capacity warm-up — the first steady-state
    /// concurrency peak the warmup bursts happened to miss — while a
    /// level *below* it is a buffer checked out and never returned. The
    /// scratch ring is fixed-size, so it must return to its baseline
    /// exactly; queue-depth gauges must drain to zero outright.
    pub fn growth_from(&self, baseline: &Self) -> u64 {
        baseline.bounce_pool.saturating_sub(self.bounce_pool)
            + self.scratch_free.abs_diff(baseline.scratch_free)
            + self.match_tombstones.abs_diff(baseline.match_tombstones)
            + self.match_live
            + self.unexpected
            + self.pipeline_queue
    }
}

// ---- the run ----------------------------------------------------------------

/// One live-report window's worth of steady-state measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowStat {
    /// Seconds since steady-state start, at the window's end.
    pub t_s: f64,
    /// Completed transfers per second in this window.
    pub msg_per_s: f64,
    /// Windowed active-latency median (ns).
    pub p50_ns: u64,
    /// Windowed active-latency 99th percentile (ns).
    pub p99_ns: u64,
    /// Stragglers flagged during this window.
    pub stragglers: u64,
}

/// Everything a finished soak run learned.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Measured steady-state wall time (s).
    pub elapsed_s: f64,
    /// Transfers completed in the steady-state window.
    pub messages: u64,
    /// Records carried by those transfers.
    pub records: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Per-window transfer throughput (msg/s).
    pub throughput: Sample,
    /// Steady-state active-latency median (ns).
    pub p50_ns: u64,
    /// Steady-state active-latency 99th percentile (ns).
    pub p99_ns: u64,
    /// Stragglers flagged across the steady-state window.
    pub stragglers: u64,
    /// The live per-window measurements, in order.
    pub windows: Vec<WindowStat>,
    /// Quiesced gauge baseline after warmup.
    pub start: GaugeLevels,
    /// Quiesced gauge levels after the soak.
    pub end: GaugeLevels,
    /// Gauge high-water marks over the whole run.
    pub hwm: GaugeLevels,
    /// Total freelist growth ([`GaugeLevels::growth_from`]); 0 on a
    /// healthy run.
    pub growth: u64,
    /// Quiesced warmup bursts needed to reach the gauge fixed point.
    pub stabilize_rounds: usize,
    /// Sampled timelines reconstructed from the flight dump (0 when the
    /// recorder is off).
    pub sampled_timelines: usize,
    /// Malformed sampled timelines (must be 0).
    pub malformed: usize,
    /// Flight sample rate in effect (1 = every transfer).
    pub sample_rate: u64,
    /// Flight dump analyzed, if the recorder was on.
    pub flight_dump: Option<PathBuf>,
    /// Health-snapshot stream, if `MPICD_HEALTH_MS` armed it.
    pub health_path: Option<PathBuf>,
}

/// Transfers per client in each gauge-stabilization burst (covers two
/// full traffic-mix cycles, so every freelist is warm before the
/// baseline snapshot).
const STABILIZE_ITERS: usize = 2 * BULK_EVERY;
/// Upper bound on stabilization bursts before taking the baseline as-is.
const MAX_STABILIZE_ROUNDS: usize = 8;
/// Every `RAW_EVERY`th client transfer sends the batch as a contiguous
/// pre-serialized blob: posted before the receive, it lands unexpected
/// and exercises the eager bounce-buffer freelist.
const RAW_EVERY: usize = 4;
/// Every `BULK_EVERY`th client transfer is a bulk flush of
/// `BULK_FACTOR * batch` records — large enough for the rendezvous
/// protocol and the fragment pipeline's scratch ring.
const BULK_EVERY: usize = 32;
/// Batch multiplier for bulk flushes.
const BULK_FACTOR: usize = 64;

/// Let posted work fully retire before reading quiesced gauge levels.
fn settle() {
    std::thread::sleep(Duration::from_millis(20));
}

fn straggler_total() -> u64 {
    mpicd_obs::global().counter("fabric.stragglers").get()
}

/// Element-wise `now - then` over two cumulative bucket snapshots.
fn sub_counts(now: &[u64], then: &[u64]) -> Vec<u64> {
    now.iter()
        .zip(then)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect()
}

/// The run-wide pieces every client thread shares: batch shape, the
/// committed datatype, the stop flag, the burst length and the record
/// counter.
struct ClientCtx<'a> {
    batch: usize,
    ty: &'a Arc<Committed>,
    stop: &'a AtomicBool,
    iters: usize,
    records: &'a AtomicU64,
}

/// Client send loop: stream batches until `ctx.stop`, or for `ctx.iters`
/// batches when nonzero (stabilization bursts). The traffic cycles a
/// fixed mix so every bounded resource sees steady use: typed eager
/// batches, a raw contiguous blob every [`RAW_EVERY`]th transfer (bounce
/// pool), and a [`BULK_FACTOR`]× bulk flush every [`BULK_EVERY`]th
/// (rendezvous + pipeline scratch ring). Adds every record streamed to
/// `ctx.records`.
fn client_loop(a: &Communicator, b: &Communicator, tag: i32, ctx: &ClientCtx<'_>) {
    let stride = std::mem::size_of::<Register>();
    let small: Vec<Register> = (0..ctx.batch).map(Register::generate).collect();
    let big: Vec<Register> = (0..ctx.batch * BULK_FACTOR)
        .map(Register::generate)
        .collect();
    let mut rsmall = vec![0u8; ctx.batch * stride];
    let mut rbig = vec![0u8; ctx.batch * BULK_FACTOR * stride];
    let mut done = 0usize;
    while !ctx.stop.load(Ordering::Relaxed) && (ctx.iters == 0 || done < ctx.iters) {
        let n = if (done + 1).is_multiple_of(BULK_EVERY) {
            transfer_typed(a, b, as_bytes(&big), &mut rbig, big.len(), ctx.ty, tag)
                .expect("soak bulk transfer");
            big.len()
        } else if (done + 1).is_multiple_of(RAW_EVERY) {
            transfer(a, b, as_bytes(&small), &mut rsmall[..], tag).expect("soak raw transfer");
            small.len()
        } else {
            transfer_typed(
                a,
                b,
                as_bytes(&small),
                &mut rsmall,
                small.len(),
                ctx.ty,
                tag,
            )
            .expect("soak typed transfer");
            small.len()
        };
        ctx.records.fetch_add(n as u64, Ordering::Relaxed);
        done += 1;
    }
}

/// Spawn the client threads and run them until `stop` (timed phases pass
/// `iters == 0` and flip `stop` from the caller via `body`).
fn drive(
    world: &World,
    cfg: &SoakConfig,
    ty: &Arc<Committed>,
    iters: usize,
    records: &AtomicU64,
    body: impl FnOnce(&AtomicBool),
) {
    let stop = AtomicBool::new(false);
    let ctx = ClientCtx {
        batch: cfg.batch,
        ty,
        stop: &stop,
        iters,
        records,
    };
    std::thread::scope(|s| {
        for c in 0..cfg.clients {
            let a = world.comm(cfg.aggregators + c);
            let b = world.comm(c % cfg.aggregators);
            let ctx = &ctx;
            s.spawn(move || client_loop(&a, &b, c as i32, ctx));
        }
        body(ctx.stop);
    });
}

/// Run the soak: timed warmup, gauge-fixed-point baseline, the measured
/// steady-state stream with live windowed reporting, quiesce, and the
/// end-of-run flight-dump self-check. Enables telemetry if the caller has
/// not already.
pub fn run(cfg: &SoakConfig) -> SoakReport {
    telemetry::set_enabled(true);
    // Arm the periodic health-snapshot thread if MPICD_HEALTH_MS asks
    // for one (no-op otherwise).
    mpicd_obs::health::ensure_started();
    let world = World::new(cfg.aggregators + cfg.clients);
    let ty = Arc::new(
        Register::datatype()
            .commit()
            .expect("Register datatype commits"),
    );
    let records = AtomicU64::new(0);

    // Timed warmup: warms the bounce pool, scratch ring and pack-plan
    // cache so the baseline below is representative.
    let warmup = cfg.warmup;
    drive(&world, cfg, &ty, 0, &records, |stop| {
        std::thread::sleep(warmup);
        stop.store(true, Ordering::Relaxed);
    });
    settle();

    // Quiesced bursts until two consecutive gauge snapshots agree: the
    // baseline is a fixed point, so steady-state growth is attributable.
    let mut baseline = GaugeLevels::read();
    let mut stabilize_rounds = 0;
    for _ in 0..MAX_STABILIZE_ROUNDS {
        drive(&world, cfg, &ty, STABILIZE_ITERS, &records, |_| {});
        settle();
        stabilize_rounds += 1;
        let next = GaugeLevels::read();
        let stable = next == baseline;
        baseline = next;
        if stable {
            break;
        }
    }

    // Steady state: stream for `duration` while reporting live windows.
    let sketch = mpicd_obs::global().sketch("fabric.transfer_active_ns");
    let stats0 = world.fabric().stats();
    let strag0 = straggler_total();
    let counts0 = sketch.bucket_counts();
    let records0 = records.load(Ordering::Relaxed);
    let mut windows = Vec::new();
    let t0 = Instant::now();
    drive(&world, cfg, &ty, 0, &records, |stop| {
        let mut prev_counts = counts0.clone();
        let mut prev_msgs = stats0.messages;
        let mut prev_strag = strag0;
        let mut prev_t = t0;
        loop {
            let elapsed = t0.elapsed();
            if elapsed >= cfg.duration {
                break;
            }
            std::thread::sleep((cfg.duration - elapsed).min(cfg.window));
            let now = Instant::now();
            let counts = sketch.bucket_counts();
            let stats = world.fabric().stats();
            let strag = straggler_total();
            let diff = sub_counts(&counts, &prev_counts);
            let w = WindowStat {
                t_s: (now - t0).as_secs_f64(),
                msg_per_s: (stats.messages - prev_msgs) as f64 / (now - prev_t).as_secs_f64(),
                p50_ns: telemetry::quantile_from_counts(&diff, 0.50),
                p99_ns: telemetry::quantile_from_counts(&diff, 0.99),
                stragglers: strag - prev_strag,
            };
            let g = GaugeLevels::read();
            println!(
                "[soak +{:6.1}s] ingest {:>9.0} msg/s | active p50 {:>8} p99 {:>8} | \
                 stragglers +{} | pool {} scratch {} live {} q {}",
                w.t_s,
                w.msg_per_s,
                fmt_ns(w.p50_ns),
                fmt_ns(w.p99_ns),
                w.stragglers,
                g.bounce_pool,
                g.scratch_free,
                g.match_live,
                g.pipeline_queue,
            );
            windows.push(w);
            prev_counts = counts;
            prev_msgs = stats.messages;
            prev_strag = strag;
            prev_t = now;
        }
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    settle();

    let end = GaugeLevels::read();
    let stats = world.fabric().stats();
    let diff = sub_counts(&sketch.bucket_counts(), &counts0);
    let messages = stats.messages - stats0.messages;
    let rates: Vec<f64> = windows.iter().map(|w| w.msg_per_s).collect();

    // End-of-run observability flush (telemetry exposition, flight dump,
    // final health snapshot), then re-read our own dump: the soak is its
    // own first consumer.
    mpicd_obs::flush();
    let mut flight_dump = None;
    let mut sampled_timelines = 0;
    let mut malformed = 0;
    if flight::enabled() {
        let path = mpicd_obs::config::current().flight_path();
        match read_dump(&path) {
            Ok(dump) => {
                let a = analyze(&dump);
                sampled_timelines = a.completed.len() + a.errored.len();
                malformed = a.malformed.len();
                flight_dump = Some(path);
            }
            Err(e) => {
                eprintln!("mpicd-soak: could not re-read flight dump: {e}");
                malformed += 1;
            }
        }
    }
    let health_path =
        mpicd_obs::health::running().then(|| mpicd_obs::config::current().health_path());

    SoakReport {
        elapsed_s,
        messages,
        records: records.load(Ordering::Relaxed) - records0,
        bytes: stats.bytes - stats0.bytes,
        throughput: Sample::from_values(&rates),
        p50_ns: telemetry::quantile_from_counts(&diff, 0.50),
        p99_ns: telemetry::quantile_from_counts(&diff, 0.99),
        stragglers: straggler_total() - strag0,
        windows,
        start: baseline,
        end,
        hwm: GaugeLevels::high_water(),
        growth: end.growth_from(&baseline),
        stabilize_rounds,
        sampled_timelines,
        malformed,
        sample_rate: flight::sample().max(1),
        flight_dump,
        health_path,
    }
}

// ---- rendering --------------------------------------------------------------

/// Human-friendly nanosecond figure (`850ns`, `2.1us`, `18.4ms`).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The end-of-run summary, including the two greppable verdict lines CI
/// gates on (`soak: freelist growth …` and `soak: malformed sampled
/// timelines: …`).
pub fn render_report(r: &SoakReport, cfg: &SoakConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mpicd-soak — {} clients -> {} aggregators, batch {} ({:.1}s steady state, {} stabilization bursts)",
        cfg.clients, cfg.aggregators, cfg.batch, r.elapsed_s, r.stabilize_rounds
    );
    let _ = writeln!(
        out,
        "ingest: {} transfers, {} records, {:.1} MB — {:.0} msg/s mean per window (p50 {:.0}, worst {:.0})",
        r.messages,
        r.records,
        r.bytes as f64 / 1e6,
        r.throughput.mean,
        r.throughput.p50,
        r.windows
            .iter()
            .map(|w| w.msg_per_s)
            .fold(f64::INFINITY, f64::min),
    );
    let _ = writeln!(
        out,
        "active latency (steady window): p50 {}  p99 {}  stragglers {}",
        fmt_ns(r.p50_ns),
        fmt_ns(r.p99_ns),
        r.stragglers
    );
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>8} {:>8}",
        "gauge", "start", "end", "hwm"
    );
    for (name, s, e, h) in [
        (
            "fabric.bounce_pool",
            r.start.bounce_pool,
            r.end.bounce_pool,
            r.hwm.bounce_pool,
        ),
        (
            "fabric.scratch_free",
            r.start.scratch_free,
            r.end.scratch_free,
            r.hwm.scratch_free,
        ),
        (
            "fabric.match.live",
            r.start.match_live,
            r.end.match_live,
            r.hwm.match_live,
        ),
        (
            "fabric.match.tombstones",
            r.start.match_tombstones,
            r.end.match_tombstones,
            r.hwm.match_tombstones,
        ),
        (
            "fabric.unexpected_depth",
            r.start.unexpected,
            r.end.unexpected,
            r.hwm.unexpected,
        ),
        (
            "fabric.pipeline.queue",
            r.start.pipeline_queue,
            r.end.pipeline_queue,
            r.hwm.pipeline_queue,
        ),
    ] {
        let _ = writeln!(out, "{name:<26} {s:>8} {e:>8} {h:>8}");
    }
    let _ = writeln!(
        out,
        "soak: freelist growth {} (bounce_pool {}->{}, scratch_free {}->{}, \
         match_live {}, tombstones {}->{}, unexpected {}, pipeline_queue {})",
        r.growth,
        r.start.bounce_pool,
        r.end.bounce_pool,
        r.start.scratch_free,
        r.end.scratch_free,
        r.end.match_live,
        r.start.match_tombstones,
        r.end.match_tombstones,
        r.end.unexpected,
        r.end.pipeline_queue,
    );
    if r.flight_dump.is_some() {
        let _ = writeln!(
            out,
            "soak: malformed sampled timelines: {} (sampled {}, sample 1/{})",
            r.malformed, r.sampled_timelines, r.sample_rate
        );
    } else {
        let _ = writeln!(
            out,
            "soak: flight recorder off (MPICD_FLIGHT=1 MPICD_FLIGHT_SAMPLE=N to sample timelines)"
        );
    }
    if let Some(h) = &r.health_path {
        let _ = writeln!(out, "health snapshots: {}", h.display());
    }
    out
}

/// The `BENCH_soak.json` table: per-window ingest throughput, whose p99
/// cell gives the regression gate its tail column.
pub fn table(r: &SoakReport) -> Table {
    let mut t = Table::new(
        "record-stream soak: steady-state ingest",
        "metric",
        "msg/s",
        vec!["ingest".to_string()],
    );
    t.push("throughput", vec![Some(r.throughput)]);
    t
}

/// Machine-readable soak report (hand-rolled JSON, atomic tmp+rename so a
/// concurrent reader never sees a torn artifact).
pub fn write_report_json(
    path: &std::path::Path,
    r: &SoakReport,
    cfg: &SoakConfig,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut o = String::from("{\n");
    let _ = writeln!(o, "  \"kind\": \"soak-report\",");
    let _ = writeln!(
        o,
        "  \"clients\": {}, \"aggregators\": {}, \"batch\": {}, \"elapsed_s\": {:.3},",
        cfg.clients, cfg.aggregators, cfg.batch, r.elapsed_s
    );
    let _ = writeln!(
        o,
        "  \"messages\": {}, \"records\": {}, \"bytes\": {},",
        r.messages, r.records, r.bytes
    );
    let _ = writeln!(
        o,
        "  \"throughput_msg_s\": {{\"mean\": {:.3}, \"std\": {:.3}, \"p50\": {:.3}, \"p99\": {:.3}}},",
        r.throughput.mean, r.throughput.std, r.throughput.p50, r.throughput.p99
    );
    let _ = writeln!(
        o,
        "  \"active_ns\": {{\"p50\": {}, \"p99\": {}}}, \"stragglers\": {},",
        r.p50_ns, r.p99_ns, r.stragglers
    );
    let _ = writeln!(o, "  \"freelist_growth\": {},", r.growth);
    let _ = writeln!(o, "  \"gauges\": {{");
    let rows = [
        (
            "fabric.bounce_pool",
            r.start.bounce_pool,
            r.end.bounce_pool,
            r.hwm.bounce_pool,
        ),
        (
            "fabric.scratch_free",
            r.start.scratch_free,
            r.end.scratch_free,
            r.hwm.scratch_free,
        ),
        (
            "fabric.match.live",
            r.start.match_live,
            r.end.match_live,
            r.hwm.match_live,
        ),
        (
            "fabric.match.tombstones",
            r.start.match_tombstones,
            r.end.match_tombstones,
            r.hwm.match_tombstones,
        ),
        (
            "fabric.unexpected_depth",
            r.start.unexpected,
            r.end.unexpected,
            r.hwm.unexpected,
        ),
        (
            "fabric.pipeline.queue",
            r.start.pipeline_queue,
            r.end.pipeline_queue,
            r.hwm.pipeline_queue,
        ),
    ];
    for (i, (name, s, e, h)) in rows.iter().enumerate() {
        let _ = writeln!(
            o,
            "    \"{name}\": {{\"start\": {s}, \"end\": {e}, \"hwm\": {h}}}{}",
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(o, "  }},");
    let _ = writeln!(
        o,
        "  \"flight\": {{\"sampled_timelines\": {}, \"malformed\": {}, \"sample\": {}}},",
        r.sampled_timelines, r.malformed, r.sample_rate
    );
    let _ = writeln!(o, "  \"windows\": [");
    for (i, w) in r.windows.iter().enumerate() {
        let _ = writeln!(
            o,
            "    {{\"t_s\": {:.3}, \"msg_per_s\": {:.3}, \"p50_ns\": {}, \"p99_ns\": {}, \"stragglers\": {}}}{}",
            w.t_s,
            w.msg_per_s,
            w.p50_ns,
            w.p99_ns,
            w.stragglers,
            if i + 1 < r.windows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(o, "  ]");
    o.push_str("}\n");
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, o)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_datatype_matches_rust_layout() {
        assert_eq!(std::mem::size_of::<Register>(), 32, "repr(C) stride");
        let ty = Register::datatype();
        assert_eq!(ty.size(), 29, "data bytes (three pad bytes skipped)");
        assert_eq!(ty.extent(), 32, "resized extent equals the Rust stride");
        let c = ty.commit().expect("commits");
        assert_eq!(c.size(), 29);
        assert_eq!(c.extent(), 32);
    }

    #[test]
    fn parse_args_applies_flags_over_defaults() {
        let base = SoakConfig::defaults(true);
        let cfg = parse_args(
            [
                "--duration",
                "10s",
                "--clients",
                "3",
                "--batch",
                "7",
                "--report",
                "-",
            ]
            .iter()
            .map(|s| s.to_string()),
            base.clone(),
        )
        .unwrap();
        assert_eq!(cfg.duration, Duration::from_secs(10));
        assert_eq!(cfg.clients, 3);
        assert_eq!(cfg.batch, 7);
        assert_eq!(cfg.report, None);
        assert_eq!(cfg.window, base.window, "untouched fields keep defaults");

        assert!(parse_args(["--clients".to_string()].into_iter(), base.clone()).is_err());
        assert!(parse_args(["--bogus".to_string()].into_iter(), base).is_err());
    }

    #[test]
    fn parse_duration_units() {
        assert_eq!(parse_duration("60").unwrap(), Duration::from_secs(60));
        assert_eq!(parse_duration("10s").unwrap(), Duration::from_secs(10));
        assert_eq!(parse_duration("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert!(parse_duration("ten").is_err());
        assert!(parse_duration("-1s").is_err());
    }

    #[test]
    fn growth_is_zero_only_at_the_baseline_fixed_point() {
        let base = GaugeLevels {
            bounce_pool: 8,
            scratch_free: 4,
            ..GaugeLevels::default()
        };
        assert_eq!(base.growth_from(&base), 0);
        let leaked = GaugeLevels {
            bounce_pool: 7,
            ..base
        };
        assert_eq!(leaked.growth_from(&base), 1, "a lost bounce buffer counts");
        let warmed = GaugeLevels {
            bounce_pool: 9,
            ..base
        };
        assert_eq!(
            warmed.growth_from(&base),
            0,
            "late demand-driven pool warm-up is not a leak"
        );
        let stuck = GaugeLevels {
            match_live: 2,
            pipeline_queue: 1,
            ..base
        };
        assert_eq!(
            stuck.growth_from(&base),
            3,
            "undrained queues count outright"
        );
    }

    #[test]
    fn soak_smoke_run_holds_zero_growth() {
        // Miniature end-to-end soak: the steady-state freelist assertion
        // must hold on a healthy fabric, and the live windows must have
        // seen real traffic.
        let cfg = SoakConfig {
            duration: Duration::from_millis(200),
            warmup: Duration::from_millis(50),
            clients: 2,
            aggregators: 1,
            batch: 4,
            window: Duration::from_millis(50),
            report: None,
        };
        // `run` ends with a telemetry flush: send it to a temp dir, not
        // the working tree.
        let dir = std::env::temp_dir().join(format!("mpicd-soak-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        mpicd_obs::config::current()
            .telemetry_file(dir.join("mpicd-telemetry.prom"))
            .install();
        let r = run(&cfg);
        std::fs::remove_dir_all(&dir).ok();
        assert!(r.messages > 0, "steady state moved traffic");
        assert!(
            r.records >= r.messages * 4,
            "bulk flushes carry extra records"
        );
        assert_eq!(
            r.growth, 0,
            "freelists returned to baseline: {:?} -> {:?}",
            r.start, r.end
        );
        assert!(!r.windows.is_empty(), "live windows were reported");
        assert_eq!(r.malformed, 0);
    }
}
