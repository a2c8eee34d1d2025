//! Flight-recorder behaviour with the recorder enabled, on a handle of
//! its own. Runs in its own process so the installed ring capacity is
//! the one the recorder reads when it allocates its ring.

use mpicd_obs::flight::{EventKind, FlightEvent, Method, TransferRecord};
use mpicd_obs::{Obs, ObsConfig};

#[test]
fn flight_ring_end_to_end() {
    // Pin a tiny ring; a recorder reads the capacity at its first entry.
    ObsConfig::default().flight_capacity(64).install();
    let obs = Obs::isolated();
    let flight = obs.flight();
    assert!(!flight.enabled(), "an isolated recorder starts off");
    flight.set_enabled(true);
    assert!(
        !Obs::process().flight().enabled(),
        "the process default stays off"
    );

    // Ids are unique and non-zero while enabled.
    let a = flight.next_id();
    let b = flight.next_id();
    assert!(a != 0 && b != 0 && a != b);

    // Round-trip one fully-populated event through the ring; `record`
    // returns the stamp it used (the post stamp the fabric carries).
    let stamped = flight.record(
        FlightEvent::new(EventKind::PostSend, a)
            .ranks(0, 1)
            .tag(-7)
            .bytes(4096)
            .method(Method::Rendezvous)
            .code(3),
    );
    let evs = flight.events();
    assert_eq!(evs.len(), 1);
    let e = evs[0];
    assert_eq!(e.kind, EventKind::PostSend);
    assert_eq!((e.id, e.src, e.dst, e.tag), (a, 0, 1, -7));
    assert_eq!((e.bytes, e.code), (4096, 3));
    assert_eq!(e.method, Method::Rendezvous);
    assert!(e.t_ns > 0, "zero timestamps are stamped at record time");
    assert_eq!(stamped, e.t_ns);

    // A transfer record reads back whole, and apart from the events.
    let rec = TransferRecord {
        id: a,
        recv_id: b,
        match_ns: 5,
        end_ns: 9,
        pack_calls: 2,
        lanes: 1,
        wire_ns: 2.5,
        ..TransferRecord::default()
    };
    flight.record_transfer(&rec);
    assert_eq!(flight.transfers(), vec![rec]);
    assert_eq!(flight.events().len(), 1);

    // Overflow: write far past capacity; old entries are lost, counted,
    // and the ring never yields more than its capacity.
    let lost_before = flight.overflowed();
    for i in 0..200 {
        flight.record(FlightEvent::new(EventKind::PostRecv, b).bytes(i));
    }
    assert!(flight.overflowed() > lost_before, "overflow is counted");
    let n_live = flight.events().len() + flight.transfers().len();
    assert!(n_live <= 64, "ring is bounded ({n_live} entries)");

    // Dump: one meta header line plus one JSON line per intact event.
    let path = std::env::temp_dir().join(format!("mpicd-flight-test-{}.jsonl", std::process::id()));
    let n = flight.dump_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut lines = text.lines();
    let meta = lines.next().unwrap();
    assert!(meta.starts_with("{\"kind\":\"flight_meta\",\"version\":4,"));
    assert!(meta.contains(&format!("\"events\":{n}")));
    let body: Vec<&str> = lines.collect();
    assert_eq!(body.len(), n);
    assert!(body
        .iter()
        .all(|l| l.starts_with("{\"kind\":\"") && l.ends_with('}')));

    // Single-threaded recording reads back in time order.
    let ts: Vec<u64> = flight.events().iter().map(|e| e.t_ns).collect();
    let mut sorted = ts.clone();
    sorted.sort_unstable();
    assert_eq!(ts, sorted);
    assert_eq!(ts.len(), n_live);

    // Toggling off makes ids 0 again and recording a no-op.
    let (events, transfers) = (flight.events(), flight.transfers());
    flight.set_enabled(false);
    assert_eq!(flight.next_id(), 0);
    assert_eq!(
        flight.record(FlightEvent::new(EventKind::Error, a).code(1)),
        0
    );
    flight.record_transfer(&rec);
    assert_eq!(flight.events(), events);
    assert_eq!(flight.transfers(), transfers);
}
