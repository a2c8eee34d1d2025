//! Ablation: the fragment engine at 1, 2 and 4 threads across DDTBench
//! patterns.
//!
//! Every cell moves the same pattern face through the custom-datatype pack
//! path (`transfer_custom`) over a zero-cost wire model, so the measured
//! time is the CPU-side pack → copy → unpack work the worker pool
//! parallelizes. Configurations:
//!
//! * **serial** — `PipelineConfig::with_threads(1)`: every fragment runs
//!   inline on the posting thread, no pool (`MPICD_PIPELINE_THREADS=1`);
//! * **pipe×2 / pipe×4** — 2 and 4 threads, the posting thread included:
//!   the engine hands a transfer's fragments to the worker pool when their
//!   measured cost is worth at least two pool jobs, and runs them inline
//!   otherwise.
//!
//! The sweep crosses each pattern with {16 KiB, 64 KiB} fragment sizes.
//! Byte identity against the pattern's reference checksum is asserted for
//! every cell before anything is timed. Every cell's pooled share (the
//! transfers the pool took, from the `pipelined` counter) is printed; the
//! serial cells must have none, and in full mode the pool must take the
//! fine-grained rows, whose pack cost per byte is what it parallelizes.

use mpicd::fabric::{PipelineConfig, WireModel};
use mpicd::{transfer_custom, World};
use mpicd_bench::harness::Sample;
use mpicd_bench::report::size_label;
use mpicd_bench::{emit_json, obs_finish, quick_mode, Table};
use mpicd_ddtbench::Pattern;
use std::time::Instant;

/// Fragment sizes crossed with every pattern (the fabric default is 64 KiB;
/// 16 KiB produces 4× as many fragments for the pool to chew on).
const FRAG_SIZES: [usize; 2] = [16 * 1024, 64 * 1024];

/// Patterns whose pack cost per byte the pool pays off on: in full mode
/// it must take their transfers at 2 and 4 threads.
const FINE_GRAINED: [&str; 5] = ["LAMMPS", "NAS_LU_y", "NAS_MG_x", "WRF_x_vec", "WRF_y_vec"];

/// One full one-way custom-pack transfer of the pattern face.
fn one_transfer(world: &World, sender: &dyn Pattern, receiver: &mut dyn Pattern) {
    let (a, b) = world.pair();
    let sctx = sender.custom_pack_ctx();
    let mut rctx = receiver.custom_unpack_ctx();
    transfer_custom(&a, &b, sctx, &mut *rctx, 0).expect("custom transfer");
}

/// Mean one-way throughput in MB/s over `runs` timed repetitions.
fn throughput(
    world: &World,
    sender: &dyn Pattern,
    receiver: &mut dyn Pattern,
    reps: usize,
    runs: usize,
) -> Sample {
    let bytes = (sender.bytes() * reps) as f64;
    let vals: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                one_transfer(world, sender, receiver);
            }
            bytes / t0.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    Sample::from_values(&vals)
}

fn main() {
    let target = if quick_mode() { 128 * 1024 } else { 1 << 20 };
    let runs = 4; // the paper's 4-run averaging
    let configs: [(&str, PipelineConfig); 3] = [
        ("serial", PipelineConfig::with_threads(1)),
        ("pipe×2", PipelineConfig::with_threads(2)),
        ("pipe×4", PipelineConfig::with_threads(4)),
    ];
    let mut table = Table::new(
        &format!("Ablation: fragment pipeline throughput ({target} B faces)"),
        "pattern/frag",
        "MB/s",
        configs
            .iter()
            .map(|(label, _)| label.to_string())
            .chain(std::iter::once("×4 vs serial".into()))
            .collect(),
    );

    let mut shares = Vec::new();
    let mut unpooled = Vec::new();
    for name in mpicd_ddtbench::BENCHMARKS {
        let sender = mpicd_ddtbench::make(name, target);
        let expect = sender.checksum();
        let reps = if quick_mode() {
            4
        } else {
            ((256 << 20) / sender.bytes().max(1)).clamp(8, 256)
        };

        for frag in FRAG_SIZES {
            let model = WireModel {
                frag_size: frag,
                ..WireModel::zero_cost()
            };
            let mut cells: Vec<Option<Sample>> = Vec::new();
            for (label, cfg) in configs {
                let world = World::with_model_and_pipeline(2, model, cfg);
                let mut receiver = mpicd_ddtbench::make(name, target);

                // Byte identity before timing: the cell's engine must
                // reconstruct the exact face the reference checksum hashes.
                receiver.clear();
                one_transfer(&world, &*sender, &mut *receiver);
                assert_eq!(
                    receiver.checksum(),
                    expect,
                    "{name}/{frag}: {label} engine diverges"
                );
                cells.push(Some(throughput(
                    &world,
                    &*sender,
                    &mut *receiver,
                    reps,
                    runs,
                )));
                let stats = world.fabric().stats();
                let share = stats.pipelined as f64 / stats.messages.max(1) as f64;
                let cell = format!("{name}/{} {label}", size_label(frag));
                if cfg.threads == 1 {
                    assert_eq!(stats.pipelined, 0, "{cell}: serial config pipelined");
                } else if !quick_mode() && FINE_GRAINED.contains(&name) && share < 1.0 {
                    unpooled.push(format!("{cell} ({share:.2})"));
                }
                shares.push((cell, share));
            }
            let speedup = Sample::point(
                cells[2].as_ref().unwrap().mean / cells[0].as_ref().unwrap().mean,
                0.0,
            );
            cells.push(Some(speedup));
            table.push(format!("{name}/{}", size_label(frag)), cells);
        }
    }

    table.print();
    emit_json("ablation_pipeline", &table);
    println!("# pooled share (transfers the worker pool took / transfers)");
    for (cell, share) in &shares {
        println!("{cell:<28} {share:.2}");
    }
    assert!(
        unpooled.is_empty(),
        "the pool left fine-grained transfers inline: {unpooled:?}"
    );

    // Pipeline observability: how much work actually went parallel. The
    // `.ns` accumulator follows the span cost model and stays 0 unless
    // tracing is on (`MPICD_TRACE=1`).
    let snap = mpicd_obs::global().snapshot();
    println!("# pipeline counters");
    for name in [
        "fabric.pipeline.transfers",
        "fabric.pipeline.frags",
        "fabric.pipeline.threads",
        "fabric.pipeline.ns",
    ] {
        println!("{name:<28} {}", snap.counter(name));
    }
    obs_finish();
}
