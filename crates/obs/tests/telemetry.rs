//! Gauges and sketches with telemetry enabled. Runs in its own process
//! (the enable flag is process-global and `disabled.rs` asserts the
//! default-off state).

use mpicd_obs::{global, telemetry, ObsConfig};

#[test]
fn telemetry_end_to_end() {
    ObsConfig::default().telemetry(true).install();
    assert!(telemetry::enabled());
    assert!(telemetry::clock() > 0, "clock reads while enabled");

    // Sketch: gated recording works and quantiles come back sane.
    let lat = global().sketch("test.lat_ns");
    for v in 1..=100u64 {
        lat.record(v * 1_000);
    }
    assert_eq!(lat.count(), 100);
    assert_eq!(lat.max(), 100_000);
    let p50 = lat.p50();
    assert!((45_000..=65_000).contains(&p50), "p50 ≈ 50k, got {p50}");
    assert!(lat.p99() >= p50, "quantiles are monotone");

    // Gauge: gated mutators move the level and the high-water mark.
    let depth = global().gauge("test.depth");
    depth.add(5);
    depth.sub(2);
    assert_eq!((depth.get(), depth.high_water()), (3, 5));

    // Counters ride along in the same exposition; flush writes it to the
    // configured path.
    global().counter("test.msgs").add(10);
    let path = std::env::temp_dir().join(format!("mpicd-tele-test-{}.prom", std::process::id()));
    ObsConfig::default()
        .telemetry(true)
        .telemetry_file(&path)
        .install();
    mpicd_obs::flush();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(text.contains("# TYPE mpicd_test_lat_ns summary"));
    assert!(text.contains("mpicd_test_lat_ns{quantile=\"0.5\"}"));
    assert!(text.contains("mpicd_test_lat_ns_count 100"));
    assert!(text.contains("mpicd_test_depth 3\n"));
    assert!(text.contains("mpicd_test_depth_hwm 5\n"));
    assert!(text.contains("mpicd_test_msgs_total 10"));

    // Toggling off restores the disabled discipline.
    telemetry::set_enabled(false);
    lat.record(1);
    depth.add(100);
    assert_eq!(lat.count(), 100, "no recording once disabled");
    assert_eq!(depth.get(), 3, "no gauge movement once disabled");
    assert_eq!(telemetry::clock(), 0);
}
