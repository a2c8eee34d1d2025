//! Ablations over the simulated wire model — how sensitive the paper's
//! headline shapes are to the modeled network constants:
//!
//! 1. **per-region overhead γ** — moves the regions-vs-packing crossover
//!    (Fig 10's MILC vs NAS_LU_y split);
//! 2. **rendezvous threshold** — moves the manual-pack bandwidth dip
//!    (Fig 7);
//! 3. **fragment size** — granularity of the pack callbacks (partial-pack
//!    pressure vs. per-fragment overhead).

use mpicd::fabric::WireModel;
use mpicd::types::StructSimple;
use mpicd::World;
use mpicd_bench::ddt::{one_way, DdtMethod, DdtScratch};
use mpicd_bench::methods::{ss_custom, ss_manual};
use mpicd_bench::report::size_label;
use mpicd_bench::{harness, quick_mode, Config, Table};

fn region_overhead_ablation() {
    let size = if quick_mode() { 32 * 1024 } else { 256 * 1024 };
    let mut table = Table::new(
        &format!("Ablation 1: per-region overhead γ ({size} B faces)"),
        "gamma_ns",
        "MB/s",
        vec![
            "MILC pack".into(),
            "MILC regions".into(),
            "NAS_LU_y pack".into(),
            "NAS_LU_y regions".into(),
        ],
    );
    for gamma in [0.0f64, 50.0, 200.0, 800.0] {
        let model = WireModel {
            per_region_overhead_ns: gamma,
            ..WireModel::default()
        };
        let mut cells = Vec::new();
        for name in ["MILC", "NAS_LU_y"] {
            let sender = mpicd_ddtbench::make(name, size);
            let bytes = sender.bytes();
            let cfg = Config::auto(bytes);
            for method in [DdtMethod::CustomPack, DdtMethod::CustomRegion] {
                let world = World::with_model(2, model);
                let (a, b) = world.pair();
                let mut receiver = mpicd_ddtbench::make(name, size);
                let mut scratch = DdtScratch::new(&*sender);
                let sample = harness::bandwidth_serial(world.fabric(), cfg, bytes, || {
                    one_way(&a, &b, &*sender, &mut *receiver, &mut scratch, method);
                });
                cells.push(Some(sample));
            }
        }
        table.push(format!("{gamma}"), cells);
    }
    table.print();
    mpicd_bench::emit_json("ablation_wire_model_gamma", &table);
}

fn rndv_threshold_ablation() {
    let mut table = Table::new(
        "Ablation 2: rendezvous threshold vs manual-pack bandwidth (struct-simple)",
        "size",
        "MB/s",
        vec![
            "thr=8K manual".into(),
            "thr=32K manual".into(),
            "thr=128K manual".into(),
            "thr=32K custom".into(),
        ],
    );
    let hi = if quick_mode() { 64 * 1024 } else { 1 << 20 };
    let mut size = 4 * 1024usize;
    while size <= hi {
        let cfg = Config::auto(size);
        let count = size / 20;
        let send: Vec<StructSimple> = (0..count).map(StructSimple::generate).collect();
        let mut cells = Vec::new();
        for thr in [8 * 1024usize, 32 * 1024, 128 * 1024] {
            let model = WireModel {
                rndv_threshold: thr,
                ..WireModel::default()
            };
            let world = World::with_model(2, model);
            let (a, b) = world.pair();
            let mut rx = vec![StructSimple::default(); count];
            cells.push(Some(harness::bandwidth(world.fabric(), cfg, size, || {
                ss_manual(&a, &b, &send, &mut rx);
            })));
        }
        {
            let world = World::new(2);
            let (a, b) = world.pair();
            let mut rx = vec![StructSimple::default(); count];
            cells.push(Some(harness::bandwidth(world.fabric(), cfg, size, || {
                ss_custom(&a, &b, &send, &mut rx);
            })));
        }
        table.push(size_label(size), cells);
        size *= 2;
    }
    table.print();
    mpicd_bench::emit_json("ablation_wire_model_rndv", &table);
}

fn frag_size_ablation() {
    let size = if quick_mode() { 64 * 1024 } else { 1 << 20 };
    let count = size / 20;
    let send: Vec<StructSimple> = (0..count).map(StructSimple::generate).collect();
    let cfg = Config::auto(size);
    let mut table = Table::new(
        &format!("Ablation 3: fragment size vs custom packing ({size} B payload)"),
        "frag",
        "MB/s",
        vec!["custom".into()],
    );
    for frag in [4 * 1024usize, 16 * 1024, 64 * 1024, 256 * 1024] {
        let model = WireModel {
            frag_size: frag,
            ..WireModel::default()
        };
        let world = World::with_model(2, model);
        let (a, b) = world.pair();
        let mut rx = vec![StructSimple::default(); count];
        let sample = harness::bandwidth(world.fabric(), cfg, size, || {
            ss_custom(&a, &b, &send, &mut rx);
        });
        table.push(size_label(frag), vec![Some(sample)]);
    }
    table.print();
    mpicd_bench::emit_json("ablation_wire_model_frag", &table);
}

fn main() {
    region_overhead_ablation();
    println!();
    rndv_threshold_ablation();
    println!();
    frag_size_ablation();
    mpicd_bench::obs_finish();
}
