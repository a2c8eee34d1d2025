//! Enabled-mode tracing across threads — runs in its own process so the
//! global enable flag cannot leak into other tests.

use mpicd_obs::trace::{self, Event};
use std::sync::{Mutex, MutexGuard};

/// Both tests drain the process-wide span rings, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn spans_nest_and_interleave_across_threads() {
    let _serial = serial();
    mpicd_obs::set_enabled(true);
    let _ = trace::take_events(); // start clean

    // Main thread: an outer span with two nested children.
    {
        let _outer = mpicd_obs::span!("outer", "test", 100);
        {
            let _inner = mpicd_obs::span!("inner_a", "test");
        }
        {
            let _inner = mpicd_obs::span!("inner_b", "test", 7);
        }
    }

    // Worker threads record into their own rings concurrently.
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..10 {
                    let _sp = mpicd_obs::span!("worker", "test");
                }
            });
        }
    });

    let events = trace::take_events();
    let by_name = |n: &str| -> Vec<&Event> { events.iter().filter(|e| e.name == n).collect() };

    assert_eq!(by_name("outer").len(), 1);
    assert_eq!(by_name("inner_a").len(), 1);
    assert_eq!(by_name("inner_b").len(), 1);
    assert_eq!(by_name("worker").len(), 40);

    // Nesting: children start no earlier than the parent and end within it.
    let outer = by_name("outer")[0];
    assert_eq!(outer.bytes, 100);
    for child in ["inner_a", "inner_b"] {
        let c = by_name(child)[0];
        assert!(c.start_ns >= outer.start_ns, "{child} starts inside outer");
        assert!(
            c.start_ns + c.dur_ns <= outer.start_ns + outer.dur_ns,
            "{child} ends inside outer"
        );
        assert_eq!(c.tid, outer.tid, "same thread as parent");
    }
    assert_eq!(by_name("inner_b")[0].bytes, 7);

    // Workers came from distinct thread ids, none of them the main thread's.
    let worker_tids: std::collections::BTreeSet<u64> =
        by_name("worker").iter().map(|e| e.tid).collect();
    assert_eq!(worker_tids.len(), 4, "one ring per worker thread");
    assert!(!worker_tids.contains(&outer.tid));

    // take_events drained everything: a second take is empty.
    assert!(trace::take_events().is_empty());
}

#[test]
fn events_are_sorted_by_start_time() {
    let _serial = serial();
    mpicd_obs::set_enabled(true);
    let _ = trace::take_events();
    // Record out of order across synthetic timestamps.
    trace::record("late", "test", 3000, 10, 0);
    trace::record("early", "test", 1000, 10, 0);
    trace::record("mid", "test", 2000, 10, 0);
    let events = trace::take_events();
    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    assert_eq!(names, vec!["early", "mid", "late"]);
}
