//! Measurement core: OSU-style pingpong loops over the simulated fabric.
//!
//! Timing model (DESIGN.md §5): the measured wall time captures every CPU
//! cost (packing, copying, allocation — all data movement is real), the
//! fabric's [`WireLedger`](mpicd::fabric::WireLedger) captures modeled
//! network time. For a strictly-alternating latency pingpong the two
//! serialize (`total = wall + wire`); for a windowed bandwidth test the
//! wire overlaps CPU (`total = max(wall, wire) + α`).

use mpicd::fabric::Fabric;
use std::time::Instant;

/// Measurement configuration (paper: "average of four runs, with error
/// bars").
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Untimed iterations before each run.
    pub warmup: usize,
    /// Timed iterations per run.
    pub reps: usize,
    /// Independent runs (mean ± std over these).
    pub runs: usize,
}

impl Config {
    /// Iteration counts scaled to the transfer size, OSU-style (fewer
    /// iterations for big messages), honoring quick mode.
    pub fn auto(bytes: usize) -> Self {
        if crate::quick_mode() {
            return Self {
                warmup: 1,
                reps: 3,
                runs: 2,
            };
        }
        let reps = match bytes {
            0..=8192 => 400,
            8193..=131072 => 120,
            131073..=1048576 => 40,
            _ => 12,
        };
        Self {
            warmup: reps / 10 + 1,
            reps,
            runs: 4,
        }
    }
}

/// A mean ± standard deviation over the configured runs, plus
/// nearest-rank percentiles for the CI regression gate (noise-tolerant:
/// p50 ignores outlier runs entirely, p99 pins the worst run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Mean value.
    pub mean: f64,
    /// Standard deviation (the paper's error bars).
    pub std: f64,
    /// Median of the per-run values (nearest-rank).
    pub p50: f64,
    /// 99th percentile of the per-run values (nearest-rank; with few runs
    /// this is the worst run).
    pub p99: f64,
}

impl Sample {
    /// Aggregate per-run values.
    pub fn from_values(vals: &[f64]) -> Self {
        let n = vals.len().max(1) as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let mut sorted = vals.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            mean,
            std: var.sqrt(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
        }
    }

    /// A derived point value (speedup ratio, count) with no per-run
    /// distribution behind it: percentiles collapse onto the value.
    pub fn point(mean: f64, std: f64) -> Self {
        Self {
            mean,
            std,
            p50: mean,
            p99: mean,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One-way latency in microseconds. `pingpong` must perform one full
/// round trip (a→b then b→a).
pub fn latency(fabric: &Fabric, cfg: Config, mut pingpong: impl FnMut()) -> Sample {
    let mut vals = Vec::with_capacity(cfg.runs);
    for _ in 0..cfg.runs {
        for _ in 0..cfg.warmup {
            pingpong();
        }
        let snap = fabric.ledger().snapshot();
        let t0 = Instant::now();
        for _ in 0..cfg.reps {
            pingpong();
        }
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let wire_ns = fabric.ledger().delta_ns(&snap);
        // Round trip = wall + wire; one-way = half (OSU convention).
        vals.push((wall_ns + wire_ns) / (2.0 * cfg.reps as f64) / 1000.0);
    }
    Sample::from_values(&vals)
}

/// Bandwidth in MB/s for one-directional streaming. `send_one` must move
/// one message of `bytes` from a to b.
pub fn bandwidth(fabric: &Fabric, cfg: Config, bytes: usize, mut send_one: impl FnMut()) -> Sample {
    let alpha = fabric.model().latency_ns;
    let mut vals = Vec::with_capacity(cfg.runs);
    for _ in 0..cfg.runs {
        for _ in 0..cfg.warmup {
            send_one();
        }
        let snap = fabric.ledger().snapshot();
        let t0 = Instant::now();
        for _ in 0..cfg.reps {
            send_one();
        }
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let wire_ns = fabric.ledger().delta_ns(&snap);
        // Streaming window: wire pipelines under CPU.
        let total_ns = wall_ns.max(wire_ns) + alpha;
        let total_bytes = (bytes * cfg.reps) as f64;
        // bytes/ns == GB/s; ×1000 == MB/s.
        vals.push(total_bytes / total_ns * 1000.0);
    }
    Sample::from_values(&vals)
}

/// Bandwidth in MB/s for a *pingpong-style* exchange where CPU work and
/// wire time serialize (one message in flight — DDTBench's methodology).
/// Unlike [`bandwidth`], packing CPU is not hidden under the wire.
pub fn bandwidth_serial(
    fabric: &Fabric,
    cfg: Config,
    bytes: usize,
    mut send_one: impl FnMut(),
) -> Sample {
    let mut vals = Vec::with_capacity(cfg.runs);
    for _ in 0..cfg.runs {
        for _ in 0..cfg.warmup {
            send_one();
        }
        let snap = fabric.ledger().snapshot();
        let t0 = Instant::now();
        for _ in 0..cfg.reps {
            send_one();
        }
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let wire_ns = fabric.ledger().delta_ns(&snap);
        let total_bytes = (bytes * cfg.reps) as f64;
        vals.push(total_bytes / (wall_ns + wire_ns) * 1000.0);
    }
    Sample::from_values(&vals)
}

/// Threaded round-trip measurement for strategies built from blocking
/// calls (the pickle pingpong of §V-B). `side0`/`side1` each perform one
/// full iteration of their rank's half of the pingpong and are invoked
/// `reps` times on separate threads. Returns bandwidth in MB/s for
/// `bytes_per_iter` payload bytes moved per iteration (both directions
/// counted, as the paper's pingpong bandwidth does).
pub fn threaded_bandwidth<F0, F1>(
    fabric: &Fabric,
    cfg: Config,
    bytes_per_iter: usize,
    side0: F0,
    side1: F1,
) -> Sample
where
    F0: Fn() + Sync,
    F1: Fn() + Sync,
{
    let mut vals = Vec::with_capacity(cfg.runs);
    for _ in 0..cfg.runs {
        let iters = cfg.warmup + cfg.reps;
        let snap_holder = std::sync::Mutex::new(None);
        let t = std::thread::scope(|s| {
            let h0 = s.spawn(|| {
                let mut timed: Option<Instant> = None;
                for i in 0..iters {
                    if i == cfg.warmup {
                        *snap_holder.lock().unwrap() = Some(fabric.ledger().snapshot());
                        timed = Some(Instant::now());
                    }
                    side0();
                }
                timed.expect("timed section started").elapsed()
            });
            let h1 = s.spawn(|| {
                for _ in 0..iters {
                    side1();
                }
            });
            let wall = h0.join().expect("side 0");
            h1.join().expect("side 1");
            wall
        });
        let wall_ns = t.as_nanos() as f64;
        let snap = snap_holder.lock().unwrap().expect("snapshot taken");
        let wire_ns = fabric.ledger().delta_ns(&snap);
        let total_bytes = (bytes_per_iter * cfg.reps) as f64;
        vals.push(total_bytes / (wall_ns + wire_ns) * 1000.0);
    }
    Sample::from_values(&vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpicd::World;

    #[test]
    fn sample_statistics() {
        let s = Sample::from_values(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 1.0);
        assert_eq!(s.p50, 1.0, "nearest-rank median of two runs");
        assert_eq!(s.p99, 3.0, "p99 pins the worst run");
        let s = Sample::from_values(&[5.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 5.0);
        let p = Sample::point(2.5, 0.0);
        assert_eq!((p.p50, p.p99), (2.5, 2.5));
    }

    #[test]
    fn latency_includes_modeled_wire() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let cfg = Config {
            warmup: 2,
            reps: 10,
            runs: 2,
        };
        let msg = vec![0u8; 64];
        let mut echo = vec![0u8; 64];
        let mut back = vec![0u8; 64];
        let s = latency(world.fabric(), cfg, || {
            mpicd::transfer(&a, &b, &msg, &mut echo, 0).unwrap();
            mpicd::transfer(&b, &a, &echo, &mut back, 1).unwrap();
        });
        // One-way must be at least the modeled base latency (1.3 µs).
        assert!(s.mean >= 1.3, "mean = {}", s.mean);
        assert!(s.mean < 1000.0, "sane upper bound");
    }

    #[test]
    fn bandwidth_below_link_rate() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let cfg = Config {
            warmup: 1,
            reps: 5,
            runs: 2,
        };
        let msg = vec![7u8; 1 << 20];
        let mut dst = vec![0u8; 1 << 20];
        let s = bandwidth(world.fabric(), cfg, 1 << 20, || {
            mpicd::transfer(&a, &b, &msg, &mut dst, 0).unwrap();
        });
        assert!(s.mean > 0.0);
        assert!(
            s.mean <= 12_500.0,
            "cannot beat the 100 Gbps wire: {}",
            s.mean
        );
    }

    #[test]
    fn threaded_bandwidth_runs() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let cfg = Config {
            warmup: 1,
            reps: 5,
            runs: 1,
        };
        let s = threaded_bandwidth(
            world.fabric(),
            cfg,
            2 * 4096,
            || {
                let msg = vec![1u8; 4096];
                a.send(&msg, 1, 0).unwrap();
                let mut echo = vec![0u8; 4096];
                a.recv(&mut echo, 1, 1).unwrap();
            },
            || {
                let mut buf = vec![0u8; 4096];
                b.recv(&mut buf, 0, 0).unwrap();
                b.send(&buf, 0, 1).unwrap();
            },
        );
        assert!(s.mean > 0.0);
    }
}
