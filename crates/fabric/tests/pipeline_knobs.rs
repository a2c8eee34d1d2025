//! The fragment-engine knobs are validated: a thread count above the
//! ceiling is clamped, and a value that is not a number falls back to the
//! default (both with a warning on stderr).
//!
//! `PipelineConfig::from_env` reads the process environment once, so this
//! is the only test in its binary and sets the knobs before the first read.

use mpicd_fabric::{Fabric, FabricConfig, PipelineConfig};

#[test]
fn out_of_range_and_garbage_knobs_are_bounded() {
    std::env::set_var("MPICD_PIPELINE_THREADS", "100000");
    std::env::set_var("MPICD_PIPELINE_DEPTH", "lots");
    let cfg = PipelineConfig::from_env();
    assert_eq!(cfg.threads, 64, "threads clamped to the ceiling");
    assert_eq!(cfg.depth, 128, "garbage depth falls back to 2 × threads");
    let fabric = Fabric::with_config(
        2,
        FabricConfig {
            ..FabricConfig::default()
        },
    );
    assert_eq!(fabric.pipeline_config(), cfg);
}
