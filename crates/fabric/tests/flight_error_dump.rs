//! A failing callback under `MPICD_FLIGHT`: the transfer leaves exactly
//! one record carrying the error code, and recording it dumps the ring
//! (the black-box behaviour the environment knob arms).
//!
//! The knob is read once per process, so this binary holds one test and
//! sets the environment before the first recorder call.

use mpicd_fabric::{Fabric, FabricError, IovEntryMut, RecvDesc, SendDesc};
use mpicd_obs::flight;

#[test]
fn failing_callback_leaves_one_error_record_and_dumps() {
    let path =
        std::env::temp_dir().join(format!("mpicd-flight-error-{}.jsonl", std::process::id()));
    std::env::set_var("MPICD_FLIGHT", "1");
    std::env::set_var("MPICD_FLIGHT_PATH", &path);
    assert!(flight::enabled(), "armed from the environment");

    let fabric = Fabric::new(2);
    let (a, b) = (fabric.endpoint(0).unwrap(), fabric.endpoint(1).unwrap());
    let mut out = vec![0u8; 64];
    // SAFETY: `out` outlives the waits below.
    let recv = unsafe {
        b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut out)), 0, 3)
            .unwrap()
    };
    let send = unsafe {
        a.post_send(
            SendDesc::Generic {
                packer: Box::new(|_offset: usize, _dst: &mut [u8]| Err(42)),
                packed_size: 64,
                regions: Vec::new(),
                inorder: true,
            },
            1,
            3,
        )
        .unwrap()
    };
    assert_eq!(recv.wait(), Err(FabricError::PackFailed(42)));
    assert_eq!(send.wait(), Err(FabricError::PackFailed(42)));

    let records: Vec<_> = flight::transfers()
        .into_iter()
        .filter(|r| r.id == send.flight_id())
        .collect();
    assert_eq!(records.len(), 1, "one record for the failed transfer");
    let r = records[0];
    assert_eq!(r.error, FabricError::PackFailed(42).flight_code());
    assert_eq!((r.recv_id, r.pack_calls), (recv.flight_id(), 1));
    assert!(r.match_ns <= r.end_ns);

    let dump = std::fs::read_to_string(&path).expect("the error record dumped the ring");
    let _ = std::fs::remove_file(&path);
    let line = format!("{{\"kind\":\"transfer\",\"id\":{},", r.id);
    assert!(
        dump.lines()
            .any(|l| l.starts_with(&line) && l.contains("\"error\":3,")),
        "{dump}"
    );
}
