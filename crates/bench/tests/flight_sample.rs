//! Sampled-recorder soundness: with `MPICD_FLIGHT_SAMPLE=N` the flight
//! recorder keeps every Nth post and the record of every transfer whose
//! send was kept, and drops the rest entirely, so a sampled dump must
//! *always* analyze clean. Runs in its own process
//! (the recorder and its sample tick are process-global) as one
//! sequential test sweeping seeded workloads across sample rates.

use mpicd::types::as_bytes;
use mpicd::{transfer_typed, World};
use mpicd_bench::flight::{analyze, read_dump};
use mpicd_bench::soak::Register;
use mpicd_obs::flight;
use mpicd_obs::XorShift64Star;
use std::sync::Arc;

#[test]
fn sampled_dumps_are_always_well_formed() {
    let world = World::new(4);
    let ty = Arc::new(Register::datatype().commit().unwrap());
    let stride = std::mem::size_of::<Register>();
    let path =
        std::env::temp_dir().join(format!("mpicd-flight-sample-{}.jsonl", std::process::id()));

    // Seeded: the whole sweep is reproducible from this constant.
    let mut rng = XorShift64Star::new(0x5eed_50a4);
    flight::set_enabled(true);
    // The ring is never cleared, so each sweep's dump also carries every
    // earlier sweep's events; judge per-sweep counts by differencing.
    let mut prev_completed = 0usize;
    for &rate in &[1u64, 4, 64] {
        flight::set_sample(rate);
        let transfers = rng.range(200, 300);
        for i in 0..transfers {
            let batch = rng.range(1, 97);
            let records: Vec<Register> = (0..batch).map(Register::generate).collect();
            let mut rbytes = vec![0u8; batch * stride];
            let (src, dst) = ((i % 2) + 2, i % 2);
            transfer_typed(
                &world.comm(src),
                &world.comm(dst),
                as_bytes(&records),
                &mut rbytes,
                batch,
                &ty,
                i as i32,
            )
            .unwrap();
        }

        let n = flight::dump_jsonl(&path).unwrap();
        let a = analyze(&read_dump(&path).unwrap());

        // The one property sampling must never break: zero malformed
        // timelines, at any rate. Unsampled transfers are wholly absent
        // (id 0 is never recorded), and a record is whole or absent.
        assert!(
            a.malformed.is_empty(),
            "rate {rate}: malformed sampled timelines: {:?}",
            a.malformed
        );
        let sampled = a.completed.len() - prev_completed;
        prev_completed = a.completed.len();
        assert!(
            sampled > 0,
            "rate {rate}: some timelines sampled out of {n} events"
        );
        if rate == 1 {
            assert!(
                sampled >= transfers,
                "rate 1 keeps every transfer ({sampled} < {transfers})"
            );
        } else {
            // Send and receive posts share the tick stream, so sends are
            // sampled at most ceil(2 * transfers / rate) times per sweep
            // (the dump also still holds earlier sweeps' events).
            assert!(
                sampled < transfers,
                "rate {rate} must drop most transfers ({sampled} of {transfers})"
            );
        }
        // Every record carries its send post, match and end stamps.
        for t in &a.completed {
            assert!(t.id != 0, "id 0 never reaches a dump");
            assert!(t.post_send_ns > 0 && t.match_ns > 0 && t.end_ns > 0);
        }
    }
    flight::set_enabled(false);
    flight::set_sample(1);
    let _ = std::fs::remove_file(&path);
}
