//! Cross-crate integration: every layer of the reproduction working
//! together over one fabric.

use mpicd::types::{StructSimple, StructVec};
use mpicd::World;
use mpicd_ddtbench::{make, BENCHMARKS};
use mpicd_pickle::{recv_pickle_oob_cdt, send_pickle_oob_cdt, workload};
use std::sync::Arc;

#[test]
fn mixed_traffic_on_one_fabric() {
    // Rust structs, a DDTBench pattern, and a pickle object all flying
    // between the same pair of ranks with distinct tags.
    let world = World::new(2);
    let (c0, c1) = world.pair();

    let structs: Vec<StructSimple> = (0..500).map(StructSimple::generate).collect();
    let svec: Vec<StructVec> = (0..2).map(StructVec::generate).collect();
    let pyobj = workload::complex_object(256 * 1024);

    let mut structs_rx = vec![StructSimple::default(); 500];
    let mut svec_rx = vec![StructVec::default(); 2];

    std::thread::scope(|s| {
        let pyref = &pyobj;
        s.spawn(|| {
            c0.send(&structs, 1, 10).unwrap();
            c0.send(&svec, 1, 11).unwrap();
            send_pickle_oob_cdt(&c0, pyref, 1, 12).unwrap();
        });
        let got = s.spawn(|| {
            let a = c1.recv(&mut structs_rx, 0, 10).unwrap();
            let b = c1.recv(&mut svec_rx, 0, 11).unwrap();
            let obj = recv_pickle_oob_cdt(&c1, 0, 12).unwrap();
            (a, b, obj)
        });
        let (_, _, obj) = got.join().unwrap();
        assert_eq!(obj, pyobj);
    });
    assert_eq!(structs_rx, structs);
    assert_eq!(svec_rx, svec);
}

#[test]
fn every_ddtbench_pattern_roundtrips_every_method_single_threaded() {
    for name in BENCHMARKS {
        let sender = make(name, 8 * 1024);
        let expect = sender.checksum();
        // The pattern commits its datatype view on first use.
        let ty = sender.committed();

        // Custom pack path.
        {
            let world = World::new(2);
            let (a, b) = world.pair();
            let mut receiver = make(name, 8 * 1024);
            receiver.clear();
            let sctx = sender.custom_pack_ctx();
            let mut rctx = receiver.custom_unpack_ctx();
            mpicd::transfer_custom(&a, &b, sctx, &mut *rctx, 0).unwrap();
            drop(rctx);
            assert_eq!(receiver.checksum(), expect, "{name} custom");
        }

        // Derived datatype path.
        {
            let world = World::new(2);
            let (a, b) = world.pair();
            let mut receiver = make(name, 8 * 1024);
            receiver.clear();
            mpicd::transfer_typed(&a, &b, sender.base(), receiver.base_mut(), 1, &ty, 0).unwrap();
            assert_eq!(receiver.checksum(), expect, "{name} typed");
        }
    }
}

#[test]
fn four_rank_all_to_one_gather_pattern() {
    // Rank 0 gathers double-vecs from everyone, any-source.
    let world = World::new(4);
    let comms = world.comms();
    std::thread::scope(|s| {
        for comm in &comms[1..] {
            s.spawn(move || {
                let payload: Vec<Vec<i32>> =
                    vec![vec![comm.rank() as i32; 64 + comm.rank()], vec![7; 10]];
                comm.send(&payload, 0, 77).unwrap();
            });
        }
        s.spawn(|| {
            let c0 = &comms[0];
            let mut seen = vec![false; 4];
            for _ in 0..3 {
                // Probe to learn who's next, then receive their shape.
                let st = c0.probe(mpicd::fabric::ANY_SOURCE, 77);
                let src = st.source;
                let mut buf: Vec<Vec<i32>> = vec![vec![0; 64 + src], vec![0; 10]];
                c0.recv(&mut buf, src as i32, 77).unwrap();
                assert_eq!(buf[0], vec![src as i32; 64 + src]);
                seen[src] = true;
            }
            assert_eq!(seen, vec![false, true, true, true]);
        });
    });
}

#[test]
fn wire_statistics_are_consistent() {
    let world = World::new(2);
    let (c0, c1) = world.pair();
    let data: Vec<StructVec> = (0..3).map(StructVec::generate).collect();
    let mut rx = vec![StructVec::default(); 3];
    mpicd::transfer(&c0, &c1, &data, &mut rx, 0).unwrap();
    let stats = world.fabric().stats();
    assert_eq!(stats.messages, 1);
    assert_eq!(stats.bytes, 3 * (20 + 8192));
    assert_eq!(stats.regions, 4, "1 packed + 3 data regions");
    assert_eq!(
        world.fabric().ledger().messages(),
        1,
        "ledger and stats agree"
    );
}

#[test]
fn derived_and_custom_produce_identical_wire_bytes() {
    // The same struct-simple payload via both engines lands identically.
    let send: Vec<StructSimple> = (0..100).map(StructSimple::generate).collect();
    let ty = Arc::new(StructSimple::datatype().commit().unwrap());
    let packed_typed = ty
        .pack_slice(mpicd::types::as_bytes(&send), send.len())
        .unwrap();
    let packed_manual = mpicd::types::pack_struct_simple(&send);
    assert_eq!(packed_typed, packed_manual);
}

/// Two worlds in one process, each on an isolated observability handle:
/// their `fabric.*` counters and flight records never blend, whatever
/// the process default (which the other tests here share) is doing.
#[test]
fn two_worlds_keep_separate_counters_and_flight_records() {
    let world_on = |obs: &mpicd_obs::Obs| {
        obs.flight().set_enabled(true);
        World::with_config(
            2,
            mpicd::fabric::FabricConfig {
                obs: obs.clone(),
                ..Default::default()
            },
        )
    };
    let (obs_a, obs_b) = (mpicd_obs::Obs::isolated(), mpicd_obs::Obs::isolated());
    let (world_a, world_b) = (world_on(&obs_a), world_on(&obs_b));
    let structs: Vec<StructSimple> = (0..64).map(StructSimple::generate).collect();
    std::thread::scope(|s| {
        for (world, n) in [(&world_a, 3usize), (&world_b, 5)] {
            let structs = &structs;
            s.spawn(move || {
                let (c0, c1) = world.pair();
                for tag in 0..n as i32 {
                    let mut rx = vec![StructSimple::default(); structs.len()];
                    mpicd::transfer(&c0, &c1, &structs[..], &mut rx[..], tag).unwrap();
                    assert_eq!(&rx, structs);
                }
            });
        }
    });

    for (obs, world, n) in [(&obs_a, &world_a, 3u64), (&obs_b, &world_b, 5)] {
        assert_eq!(obs.registry().counter("fabric.messages").get(), n);
        assert_eq!(world.fabric().stats().messages, n);
        let records = obs.flight().transfers();
        assert_eq!(records.len() as u64, n, "one record per transfer");
        let posts = obs.flight().events();
        assert_eq!(posts.len() as u64, 2 * n, "one post per side");
        for r in &records {
            assert!(r.recv_id != 0, "the record joins its receive post");
            assert!(posts.iter().any(|e| e.id == r.id));
            assert!(posts.iter().any(|e| e.id == r.recv_id));
        }
    }
}
