//! Property-style tests for the fabric, driven by the workspace's seeded
//! xorshift64* PRNG (`mpicd_obs::XorShift64Star`): arbitrary scatter/gather
//! splits on both sides must move the same byte stream; protocol selection
//! must follow the threshold; arbitrary fragment sizes must not change
//! results. Deterministic per seed, so every failure is reproducible.

use mpicd_fabric::{Fabric, FabricConfig, IovEntry, IovEntryMut, RecvDesc, SendDesc, WireModel};
use mpicd_obs::XorShift64Star;

/// Split `total` bytes into a pseudo-random list of chunk lengths.
fn splits(rng: &mut XorShift64Star, total: usize, max_chunk: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut remaining = total;
    while remaining > 0 {
        let take = rng.range(1, remaining.min(max_chunk) + 1);
        out.push(take);
        remaining -= take;
    }
    out
}

#[test]
fn iov_to_iov_streams_bytes() {
    let frags = [16usize, 64, 1024, 64 * 1024];
    let mut rng = XorShift64Star::new(0x5EED_FAB1);
    for case in 0..48 {
        let total = rng.range(1, 5000);
        let frag = frags[case % frags.len()];
        let model = WireModel {
            frag_size: frag,
            ..WireModel::zero_cost()
        };
        let fabric = Fabric::with_config(
            2,
            FabricConfig {
                model,
                ..FabricConfig::default()
            },
        );
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();

        let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();

        // Pseudo-random contiguous split of the send and recv sides.
        let mut send_chunks: Vec<&[u8]> = Vec::new();
        let mut rest = &payload[..];
        while !rest.is_empty() {
            let n = rng.range(1, rest.len().min(977) + 1);
            let (head, tail) = rest.split_at(n);
            send_chunks.push(head);
            rest = tail;
        }

        let mut out = vec![0u8; total];
        let mut recv_chunks: Vec<IovEntryMut> = Vec::new();
        {
            let mut rest: &mut [u8] = &mut out;
            while !rest.is_empty() {
                let n = rng.range(1, rest.len().min(661) + 1);
                let (head, tail) = rest.split_at_mut(n);
                recv_chunks.push(IovEntryMut::from_slice(head));
                rest = tail;
            }
        }

        let rreq = unsafe { b.post_recv(RecvDesc::Iov(recv_chunks), 0, 0).unwrap() };
        let entries: Vec<IovEntry> = send_chunks
            .iter()
            .map(|c| IovEntry::from_slice(c))
            .collect();
        let sreq = unsafe { a.post_send(SendDesc::Iov(entries), 1, 0).unwrap() };
        sreq.wait().unwrap();
        rreq.wait().unwrap();
        assert_eq!(out, payload, "case {case}: total={total} frag={frag}");
    }
}

#[test]
fn protocol_follows_threshold() {
    let mut rng = XorShift64Star::new(0x7407_0C01);
    let threshold = Fabric::new(2).model().rndv_threshold;
    // Random sizes plus the boundary itself from both sides.
    let mut sizes: Vec<usize> = (0..20).map(|_| rng.range(1, 200_000)).collect();
    sizes.extend([1, threshold - 1, threshold, threshold + 1, 200_000 - 1]);
    for size in sizes {
        let fabric = Fabric::new(2);
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let payload = vec![0xA5u8; size];
        let mut out = vec![0u8; size];
        std::thread::scope(|s| {
            s.spawn(|| a.send_bytes(&payload, 1, 0).unwrap());
            s.spawn(|| {
                b.recv_bytes(&mut out, 0, 0).unwrap();
            });
        });
        let stats = fabric.stats();
        if size > fabric.model().rndv_threshold {
            assert_eq!(stats.rendezvous, 1, "size={size}");
        } else {
            assert_eq!(stats.eager, 1, "size={size}");
        }
        assert_eq!(out, payload);
    }
}

#[test]
fn generic_pack_survives_any_fragmentation() {
    let mut rng = XorShift64Star::new(0x9E4E_21C0);
    for case in 0..48 {
        let packed = rng.range(1, 4000);
        let frag = rng.range(1, 700);
        let region_split = splits(&mut rng, 2048, 977);
        let model = WireModel {
            frag_size: frag,
            ..WireModel::zero_cost()
        };
        let fabric = Fabric::with_config(
            2,
            FabricConfig {
                model,
                ..FabricConfig::default()
            },
        );
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();

        let header: Vec<u8> = (0..packed).map(|i| (i * 3 % 256) as u8).collect();
        let body: Vec<u8> = (0..2048u32).map(|i| (i % 241) as u8).collect();

        let mut out_header = vec![0u8; packed];
        let mut out_body = vec![0u8; 2048];

        // Receiver scatters the body across the generated split.
        let mut regions = Vec::new();
        {
            let mut rest: &mut [u8] = &mut out_body;
            for len in &region_split {
                if rest.is_empty() {
                    break;
                }
                let take = (*len).min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                regions.push(IovEntryMut::from_slice(head));
                rest = tail;
            }
            if !rest.is_empty() {
                regions.push(IovEntryMut::from_slice(rest));
            }
        }

        struct CollectUnpack(*mut u8, usize);
        unsafe impl Send for CollectUnpack {}
        impl mpicd_fabric::FragmentUnpacker for CollectUnpack {
            fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
                assert!(offset + src.len() <= self.1);
                unsafe {
                    std::ptr::copy_nonoverlapping(src.as_ptr(), self.0.add(offset), src.len());
                }
                Ok(())
            }
        }

        let rreq = unsafe {
            b.post_recv(
                RecvDesc::Generic {
                    unpacker: Box::new(CollectUnpack(out_header.as_mut_ptr(), packed)),
                    packed_size: packed,
                    regions,
                },
                0,
                0,
            )
            .unwrap()
        };

        let hdr = header.clone();
        let sreq = unsafe {
            a.post_send(
                SendDesc::Generic {
                    packer: Box::new(move |off: usize, dst: &mut [u8]| {
                        let n = dst.len().min(hdr.len() - off);
                        dst[..n].copy_from_slice(&hdr[off..off + n]);
                        Ok(n)
                    }),
                    packed_size: packed,
                    regions: vec![IovEntry::from_slice(&body)],
                    inorder: true,
                },
                1,
                0,
            )
            .unwrap()
        };
        sreq.wait().unwrap();
        rreq.wait().unwrap();
        assert_eq!(
            out_header, header,
            "case {case}: packed={packed} frag={frag}"
        );
        assert_eq!(out_body, body, "case {case}: packed={packed} frag={frag}");
    }
}

#[test]
fn wire_time_monotonic_in_bytes() {
    let m = WireModel::default();
    let mut rng = XorShift64Star::new(0x3173_0411);
    for _ in 0..200 {
        let a = rng.range(1, 1_000_000);
        let b = rng.range(1, 1_000_000);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(
            m.message_time_ns(lo, 1, m.is_rendezvous(lo))
                <= m.message_time_ns(hi, 1, m.is_rendezvous(hi)) + 2.0 * m.latency_ns,
            "lo={lo} hi={hi}"
        );
    }
}
