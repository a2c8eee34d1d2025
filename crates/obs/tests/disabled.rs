//! Disabled-mode behaviour — runs in its own process (no other test here
//! may enable tracing or the flight recorder) so the default-off state is
//! actually observable.

use mpicd_obs::{flight, telemetry, trace, Obs};

#[test]
fn disabled_spans_record_nothing() {
    assert!(!mpicd_obs::enabled(), "tracing must default to off");

    {
        let _sp = mpicd_obs::span!("invisible", "test", 42);
    }
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let _sp = mpicd_obs::span!("worker", "test");
            });
        }
    });
    trace::record("direct", "test", 1, 2, 3);

    assert!(trace::take_events().is_empty(), "no events when disabled");
    assert_eq!(trace::dropped_events(), 0);
}

#[test]
fn disabled_span_acc_leaves_counter_at_zero() {
    let c = mpicd_obs::Counter::new();
    {
        let _sp = trace::span_acc("timed", "test", 0, &c);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(c.get(), 0, "span_acc must not time while disabled");
}

#[test]
fn disabled_flush_is_noop() {
    assert!(
        mpicd_obs::flush().is_none(),
        "flush writes nothing when off"
    );
}

#[test]
fn disabled_flight_recorder_records_nothing() {
    let rec = Obs::process().flight();
    assert!(!rec.enabled(), "flight recorder must default to off");
    assert_eq!(rec.next_id(), 0, "disabled ids are 0");

    let stamp = rec.record(flight::FlightEvent::new(flight::EventKind::PostSend, 7).bytes(64));
    assert_eq!(stamp, 0, "clock never read when disabled");
    rec.record_transfer(&flight::TransferRecord {
        id: 7,
        ..Default::default()
    });

    assert!(rec.events().is_empty(), "no events when disabled");
    assert!(rec.transfers().is_empty(), "no records when disabled");
    assert_eq!(rec.overflowed(), 0);
}

#[test]
fn disabled_telemetry_records_nothing() {
    // Mirrors the flight.rs discipline: off by default, every hot-path
    // entry point short-circuits on one relaxed atomic load, and nothing
    // is accumulated while disabled.
    assert!(!telemetry::enabled(), "telemetry must default to off");
    assert_eq!(telemetry::clock(), 0, "clock never read when disabled");

    let reg = mpicd_obs::Registry::new();
    let sk = reg.sketch("disabled.sketch");
    let g = reg.gauge("disabled.gauge");
    for v in [1u64, 1000, 1_000_000] {
        sk.record(v);
        g.add(v);
        g.set(v);
    }
    g.sub(1);
    assert_eq!(sk.count(), 0, "disabled sketch records nothing");
    assert_eq!(sk.p99(), 0);
    assert_eq!(
        (g.get(), g.high_water()),
        (0, 0),
        "disabled gauge stays put"
    );
}

#[test]
fn summary_of_empty_registry_is_zeroed() {
    let reg = mpicd_obs::Registry::new();
    reg.counter("untouched");
    assert_eq!(reg.snapshot().counter("untouched"), 0);
    let text = mpicd_obs::export::summary_of(&reg);
    assert!(text.contains("untouched"));
    assert!(text.contains('0'));
}
