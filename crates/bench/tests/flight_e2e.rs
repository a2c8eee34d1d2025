//! End-to-end flight-recorder acceptance over the DDTBench patterns: with
//! the serial transfer engine, every posted send must leave a transfer
//! record `mpicd-inspect`'s analyzer reads back, joined to its receive
//! post, and the per-phase attribution must sum to the end-to-end time
//! within 5%.
//!
//! Serial engine on purpose: the copy phase is the exact residual of the
//! active window only when callbacks don't overlap in time. The worker
//! pool's records are covered by the fabric's pipeline test.

use mpicd::World;
use mpicd_bench::ddt::{one_way, DdtMethod, DdtScratch};
use mpicd_bench::flight::{analyze, read_dump};
use mpicd_ddtbench::{make, BENCHMARKS};
use mpicd_fabric::{FabricConfig, PipelineConfig};
use mpicd_obs::Obs;

#[test]
fn inspect_reconstructs_every_ddtbench_transfer() {
    let obs = Obs::isolated();
    obs.flight().set_enabled(true);
    let size = 32 * 1024;

    let world = World::with_config(
        2,
        FabricConfig {
            pipeline: PipelineConfig::with_threads(1),
            obs: obs.clone(),
            ..FabricConfig::default()
        },
    );
    let (a, b) = world.pair();
    for name in BENCHMARKS {
        let sender = make(name, size);
        let mut receiver = make(name, size);
        let mut scratch = DdtScratch::new(&*sender);
        for method in DdtMethod::all() {
            // Unsupported method/pattern combinations probe as false and
            // move no data; everything that runs is recorded.
            one_way(&a, &b, &*sender, &mut *receiver, &mut scratch, method);
        }
    }
    obs.flight().set_enabled(false);

    let path = std::env::temp_dir().join(format!("mpicd-flight-e2e-{}.jsonl", std::process::id()));
    let n = obs.flight().dump_jsonl(&path).unwrap();
    assert!(n > 0, "the run recorded events");
    let dump = read_dump(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(dump.meta.unwrap().overflowed, 0, "ring did not overflow");

    let analysis = analyze(&dump);
    assert!(analysis.malformed.is_empty(), "{:#?}", analysis.malformed);
    assert!(analysis.errored.is_empty(), "{:#?}", analysis.errored);

    // One record per posted send, every one completed (every wait
    // returned before the dump, so nothing may stay pending).
    let posted_sends = dump
        .events
        .iter()
        .filter(|e| e.kind == mpicd_obs::flight::EventKind::PostSend)
        .count();
    assert!(posted_sends > 0);
    assert_eq!(analysis.completed.len(), posted_sends, "no lost timelines");
    assert_eq!(analysis.pending_sends, 0);
    assert_eq!(analysis.pending_recvs, 0);
    assert_eq!(
        dump.transfers.len(),
        posted_sends,
        "one record per transfer"
    );

    // Every timeline joined its receive post and attribution is airtight:
    // wait + pack + unpack + copy within 5% of end-to-end.
    for t in &analysis.completed {
        assert_ne!(t.recv_id, 0, "id {}: receive post joined", t.id);
        assert!(t.post_recv_ns.is_some(), "id {}: recv post found", t.id);
        let p = t.phases();
        let sum = p.wait + p.pack + p.unpack + p.copy;
        let tol = (p.e2e / 20).max(1);
        assert!(
            sum.abs_diff(p.e2e) <= tol,
            "id {}: phases sum {} vs e2e {} (tol {})",
            t.id,
            sum,
            p.e2e,
            tol
        );
    }
}
