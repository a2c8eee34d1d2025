//! Run every figure/table binary in sequence, writing each output under
//! `results/` — the one-command regeneration of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p mpicd-bench --bin bench_all            # full
//! MPICD_BENCH_QUICK=1 cargo run ... --bin bench_all             # smoke
//! MPICD_RESULTS_DIR=/tmp/out cargo run ... --bin bench_all
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

/// Every figure/table binary, paper order.
const BINARIES: [&str; 14] = [
    "fig01_double_vec_latency",
    "fig02_double_vec_bw",
    "fig03_struct_vec_latency",
    "fig04_struct_vec_bw",
    "fig05_struct_simple_latency",
    "fig06_struct_simple_no_gap_latency",
    "fig07_struct_simple_bw",
    "fig08_pickle_single_array",
    "fig09_pickle_complex_object",
    "fig10_ddtbench",
    "table1_characteristics",
    "ablation_wire_model",
    "ablation_pack_plan",
    "ablation_msgrate",
];

fn main() {
    let out_dir: PathBuf = std::env::var("MPICD_RESULTS_DIR")
        .unwrap_or_else(|_| "results".to_string())
        .into();
    std::fs::create_dir_all(&out_dir).expect("create results dir");

    // Figure binaries live next to this one.
    let me = std::env::current_exe().expect("own path");
    let bin_dir = me.parent().expect("bin dir").to_path_buf();

    let mut failures = 0usize;
    for name in BINARIES {
        let t0 = std::time::Instant::now();
        print!("{name:<38}");
        std::io::stdout().flush().ok();
        let output = Command::new(bin_dir.join(name))
            .output()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let path = out_dir.join(format!("{name}.txt"));
        std::fs::write(&path, &output.stdout).expect("write result");
        if output.status.success() {
            println!(
                "ok  ({:>6.1}s) → {}",
                t0.elapsed().as_secs_f64(),
                path.display()
            );
        } else {
            failures += 1;
            println!("FAILED ({})", output.status);
            std::io::stderr().write_all(&output.stderr).ok();
        }
    }
    if failures > 0 {
        eprintln!("{failures} benchmark(s) failed");
        std::process::exit(1);
    }
    println!("\nall outputs in {}", out_dir.display());
    mpicd_bench::obs_finish();
}
