//! The op sequence is a pure function of the seed, and so are the fabric
//! counts it produces.
//!
//! One test function: the bounce-copy counter lives in a process-wide
//! registry, so runs must not overlap.

use mpicd_perfbench::{build, run, Budget, Report, RunConfig, WORKLOADS};

fn run_blocks(workload: &str, seed: u64, blocks: usize) -> Report {
    let mut w = build(workload, seed).expect("workload builds");
    let cfg = RunConfig {
        seed,
        budget: Budget::Blocks(blocks),
        traced: false,
        corrupt_op: None,
        span_csv: None,
    };
    run(&mut *w, &cfg, &mut || {}).expect("run completes")
}

/// Counts whose value depends only on the ops, not on thread timing.
fn counts(r: &Report) -> Vec<(&'static str, u64)> {
    let f = &r.fabric;
    let mut v = vec![
        ("messages", f.messages),
        ("bytes", f.bytes),
        ("eager", f.eager),
        ("rendezvous", f.rendezvous),
        ("fragments", f.fragments),
        ("regions", f.regions),
        ("pipelined", f.pipelined),
        ("copy_bytes", r.copy_bytes),
        ("timed_ops", r.timed_ops()),
    ];
    // With two rank threads, whether a send finds its receive already
    // posted depends on which thread gets there first.
    if r.workload != "pickle_objects" {
        v.push(("unexpected", f.unexpected));
    }
    v
}

#[test]
fn same_seed_same_sequence_and_counts_other_seed_other_sequence() {
    for workload in WORKLOADS {
        let first = run_blocks(workload, 11, 2);
        let again = run_blocks(workload, 11, 2);
        let other = run_blocks(workload, 12, 2);
        assert_eq!(first.failed, 0, "{workload}");
        assert_eq!(first.digest, again.digest, "{workload}: same seed");
        assert_ne!(first.digest, other.digest, "{workload}: other seed");
        assert_eq!(counts(&first), counts(&again), "{workload}: same seed");
        // Every block does the same work, so per-op counts do not depend
        // on how many blocks ran.
        let longer = run_blocks(workload, 11, 3);
        let per_op = |r: &Report| r.fabric.messages as f64 / r.timed_ops() as f64;
        assert_eq!(per_op(&first), per_op(&longer), "{workload}");
        let wire = |r: &Report| r.wire_ns / r.timed_ops() as f64;
        assert!((wire(&first) - wire(&longer)).abs() < 1e-6 * wire(&first));
    }
}
