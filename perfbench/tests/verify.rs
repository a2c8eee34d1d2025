//! Damaging one received buffer is caught by the verifier and counted as
//! a failed op, on every workload.

use mpicd_perfbench::{build, run, Budget, RunConfig, WORKLOADS};

#[test]
fn one_corrupted_receive_counts_as_one_failed_op() {
    for workload in WORKLOADS {
        let mut w = build(workload, 5).expect("workload builds");
        let cells = w.cells() as u64;
        let cfg = RunConfig {
            seed: 5,
            budget: Budget::Blocks(1),
            traced: false,
            corrupt_op: Some(cells / 2),
            span_csv: None,
        };
        let r = run(&mut *w, &cfg, &mut || {}).expect("run completes");
        assert_eq!(r.failed, 1, "{workload}");
        assert!(r.attempted > cells, "{workload}: warmup ops count too");
        assert!(r.failed_op_share() > 0.0);
    }
}

#[test]
fn clean_runs_fail_nothing() {
    for workload in WORKLOADS {
        let mut w = build(workload, 6).expect("workload builds");
        let cfg = RunConfig {
            seed: 6,
            budget: Budget::Blocks(1),
            traced: true,
            corrupt_op: None,
            span_csv: None,
        };
        let r = run(&mut *w, &cfg, &mut || {}).expect("run completes");
        assert_eq!(r.failed, 0, "{workload}");
        // A traced run always ends after a traced block.
        assert_eq!(r.blocks, 2, "{workload}");
        assert_eq!(r.traced.ops, r.untraced.ops);
        let t = r.trace.as_ref().expect("traced run has a summary");
        let shares: f64 = t.calls.iter().map(|(_, c)| c.share).sum();
        assert!(
            (shares + t.unattributed_share - 1.0).abs() < 1e-9,
            "{workload}: shares close to 1"
        );
    }
}
