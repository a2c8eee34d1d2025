//! Edge cases MPI implementations must get right: self-sends, zero-size
//! messages, single-rank worlds, tag extremes, huge region counts.

use mpicd::types::StructSimple;
use mpicd::World;

#[test]
fn send_to_self_eager() {
    // Eager self-send: completes at post, received later on the same rank.
    let world = World::new(2);
    let c0 = world.comm(0);
    let data = vec![1i32, 2, 3];
    c0.scope(|s| s.isend(&data, 0, 5)).unwrap();
    let mut out = vec![0i32; 3];
    c0.recv(&mut out, 0, 5).unwrap();
    assert_eq!(out, data);
}

#[test]
fn send_to_self_custom_nonblocking() {
    // Custom (always deferred) self-send must be posted nonblocking, then
    // matched by the same rank's receive — the single-threaded composition.
    let world = World::new(1);
    let c = world.comm(0);
    let send: Vec<StructSimple> = (0..10).map(StructSimple::generate).collect();
    let mut recv = vec![StructSimple::default(); 10];
    mpicd::transfer(&c, &c, &send, &mut recv, 0).unwrap();
    assert_eq!(recv, send);
}

#[test]
fn zero_byte_messages() {
    let world = World::new(2);
    let (a, b) = world.pair();
    let empty: Vec<u8> = vec![];
    let mut out: Vec<u8> = vec![];
    let st = mpicd::transfer(&a, &b, &empty, &mut out, 0).unwrap();
    assert_eq!(st.bytes, 0);
    assert_eq!(
        world.fabric().stats().messages,
        1,
        "zero-size still a message"
    );
}

#[test]
fn zero_element_custom_type() {
    let world = World::new(2);
    let (a, b) = world.pair();
    let send: Vec<StructSimple> = vec![];
    let mut recv: Vec<StructSimple> = vec![];
    mpicd::transfer(&a, &b, &send, &mut recv, 0).unwrap();
    assert!(recv.is_empty());
}

#[test]
fn single_rank_world_collectives() {
    let world = World::new(1);
    let c = world.comm(0);
    let mut buf = vec![42.0f64; 8];
    mpicd::collective::bcast(&c, &mut buf, 0).unwrap();
    mpicd::collective::allreduce_f64(&c, &mut buf, mpicd::collective::ReduceOp::Sum).unwrap();
    assert_eq!(buf, vec![42.0; 8]);
    c.barrier().unwrap();
}

#[test]
fn extreme_tags() {
    let world = World::new(2);
    let (a, b) = world.pair();
    for tag in [0, 1, i32::MAX - 100] {
        a.scope(|s| s.isend(&[9u8][..], 1, tag)).unwrap();
        let mut out = [0u8; 1];
        b.recv(&mut out[..], 0, tag).unwrap();
        assert_eq!(out[0], 9, "tag {tag}");
    }
}

#[test]
fn many_tiny_regions_one_message() {
    // 2048 single-element subvectors: a worst-case iov list.
    let world = World::new(2);
    let (a, b) = world.pair();
    let send: Vec<Vec<i32>> = (0..2048).map(|i| vec![i]).collect();
    let mut recv: Vec<Vec<i32>> = vec![vec![0]; 2048];
    mpicd::transfer(&a, &b, &send, &mut recv, 0).unwrap();
    assert_eq!(recv, send);
    let stats = world.fabric().stats();
    assert_eq!(stats.messages, 1);
    assert_eq!(stats.regions, 2049);
}

#[test]
fn mixed_empty_and_full_subvectors() {
    let world = World::new(2);
    let (a, b) = world.pair();
    let send: Vec<Vec<i32>> = vec![vec![], vec![1, 2, 3], vec![], vec![4], vec![]];
    let mut recv: Vec<Vec<i32>> = vec![vec![], vec![0; 3], vec![], vec![0], vec![]];
    mpicd::transfer(&a, &b, &send, &mut recv, 0).unwrap();
    assert_eq!(recv, send);
}

#[test]
fn wildcard_recv_of_custom_type() {
    let world = World::new(3);
    let c2 = world.comm(2);
    let c1 = world.comm(1);
    std::thread::scope(|s| {
        s.spawn(move || {
            let payload: Vec<Vec<i32>> = vec![vec![7; 5]];
            c1.send(&payload, 2, 9).unwrap();
        });
        s.spawn(move || {
            let mut buf: Vec<Vec<i32>> = vec![vec![0; 5]];
            let st = c2
                .recv(&mut buf, mpicd::fabric::ANY_SOURCE, mpicd::fabric::ANY_TAG)
                .unwrap();
            assert_eq!(st.source, 1);
            assert_eq!(buf[0], vec![7; 5]);
        });
    });
}

#[test]
fn huge_single_message() {
    // 32 MiB through the rendezvous pipeline.
    let world = World::new(2);
    let (a, b) = world.pair();
    let send = vec![0xCDu8; 32 << 20];
    let mut recv = vec![0u8; 32 << 20];
    mpicd::transfer(&a, &b, &send, &mut recv, 0).unwrap();
    assert_eq!(recv[0], 0xCD);
    assert_eq!(recv[(32 << 20) - 1], 0xCD);
    assert_eq!(world.fabric().stats().rendezvous, 1);
}

#[test]
fn ethernet_preset_flips_region_verdict() {
    // On commodity ethernet (expensive per-descriptor gather), region
    // transfer loses to packing even for MILC's few/large regions — the
    // ablation claim as a test, using the wire presets.
    use mpicd::fabric::{FabricConfig, WireModel};
    let size = 64 * 1024;
    let wire_ns = |model: WireModel, regions: usize| {
        let world = mpicd::World::with_config(
            2,
            FabricConfig {
                model,
                ..FabricConfig::default()
            },
        );
        let (a, b) = world.pair();
        let sender = mpicd_ddtbench::make("MILC", size);
        let mut receiver = mpicd_ddtbench::make("MILC", size);
        let sctx = if regions > 0 {
            sender.region_pack_ctx().expect("MILC supports regions")
        } else {
            sender.custom_pack_ctx()
        };
        let mut rctx = if regions > 0 {
            receiver.region_unpack_ctx().expect("MILC supports regions")
        } else {
            receiver.custom_unpack_ctx()
        };
        mpicd::transfer_custom(&a, &b, sctx, &mut *rctx, 0).unwrap();
        world.fabric().ledger().total_ns()
    };
    // InfiniBand: the 16-region iov message costs barely more wire time
    // than the packed one (small γ).
    let ib_pack = wire_ns(WireModel::infiniband_100g(), 0);
    let ib_regions = wire_ns(WireModel::infiniband_100g(), 1);
    assert!(ib_regions < ib_pack * 2.0);
    // Ethernet: per-region descriptor cost dominates.
    let eth_pack = wire_ns(WireModel::ethernet_10g(), 0);
    let eth_regions = wire_ns(WireModel::ethernet_10g(), 1);
    assert!(eth_regions > eth_pack, "regions pay γ on ethernet");
}
