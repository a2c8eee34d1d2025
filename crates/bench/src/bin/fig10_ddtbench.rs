//! Figure 10 — DDTBench pingpong bandwidth: every pattern × every method
//! (reference / manual / MPI datatype direct / MPI pack / custom pack /
//! custom regions).

use mpicd::World;
use mpicd_bench::ddt::{one_way, DdtMethod, DdtScratch};
use mpicd_bench::{harness, quick_mode, Config, Table};
use mpicd_ddtbench::{make, BENCHMARKS};

fn main() {
    let size = std::env::var("MPICD_DDT_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick_mode() { 32 * 1024 } else { 512 * 1024 });

    let mut table = Table::new(
        &format!("Fig 10: DDTBench bandwidth ({size} B faces)"),
        "benchmark",
        "MB/s",
        DdtMethod::all().iter().map(|m| m.label().into()).collect(),
    );

    for name in BENCHMARKS {
        let sender = make(name, size);
        let bytes = sender.bytes();
        let cfg = Config::auto(bytes);
        let mut cells = Vec::new();
        for method in DdtMethod::all() {
            let world = World::new(2);
            let (a, b) = world.pair();
            let mut receiver = make(name, size);
            let mut scratch = DdtScratch::new(&*sender);
            // Probe support once before timing.
            if !one_way(&a, &b, &*sender, &mut *receiver, &mut scratch, method) {
                cells.push(None);
                continue;
            }
            let sample = harness::bandwidth_serial(world.fabric(), cfg, bytes, || {
                one_way(&a, &b, &*sender, &mut *receiver, &mut scratch, method);
            });
            cells.push(Some(sample));
        }
        table.push(name, cells);
    }
    table.print();
    mpicd_bench::obs_finish();
}
