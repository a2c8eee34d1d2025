//! Flight-recorder well-formedness under the fragment engine:
//! for every transfer the recorder must emit exactly one
//! post → match → fragments → complete sequence in timestamp order, with
//! fragment bytes summing to the payload and no orphan ids — at 1, 2 and
//! 4 pipeline threads.
//!
//! The recorder state is process-global, so this is one sequential test;
//! every assertion filters events by the ids of the requests it posted.

use mpicd_fabric::{
    Fabric, FragmentPacker, FragmentUnpacker, PipelineConfig, RandomAccessPacker,
    RandomAccessUnpacker, RecvDesc, SendDesc, WireModel,
};
use mpicd_obs::flight::{self, EventKind, Method};

/// Offset-addressed packer over an owned byte vector.
struct VecPacker(Vec<u8>);

impl FragmentPacker for VecPacker {
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
        self.pack_at(offset, dst)
    }
    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        Some(self)
    }
}

impl RandomAccessPacker for VecPacker {
    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
        let n = dst.len().min(self.0.len() - offset);
        dst[..n].copy_from_slice(&self.0[offset..offset + n]);
        Ok(n)
    }
}

/// Offset-addressed unpacker scattering into a caller-owned buffer.
struct PtrUnpacker(*mut u8);

unsafe impl Send for PtrUnpacker {}
// SAFETY: the parallel engine hands concurrent calls disjoint ranges.
unsafe impl Sync for PtrUnpacker {}

impl FragmentUnpacker for PtrUnpacker {
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
        self.unpack_at(offset, src)
    }
    fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
        Some(self)
    }
}

impl RandomAccessUnpacker for PtrUnpacker {
    fn unpack_at(&self, offset: usize, src: &[u8]) -> Result<(), i32> {
        // SAFETY: in-bounds by construction; ranges are disjoint.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.0.add(offset), src.len());
        }
        Ok(())
    }
}

fn small_frag_model() -> WireModel {
    WireModel {
        frag_size: 4 * 1024,
        ..WireModel::zero_cost()
    }
}

/// Deterministic payload for (`seed`, byte index).
fn payload(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64) % 251) as u8)
        .collect()
}

/// One generic→generic transfer; returns (send id, recv id, bytes moved).
fn roundtrip(fabric: &Fabric, tag: i32, seed: u64, len: usize) -> (u64, u64, u64) {
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    let data = payload(seed, len);
    let mut out = vec![0u8; len];
    // SAFETY: both buffers outlive the waits below.
    let recv = unsafe {
        b.post_recv(
            RecvDesc::Generic {
                unpacker: Box::new(PtrUnpacker(out.as_mut_ptr())),
                packed_size: len,
                regions: Vec::new(),
            },
            0,
            tag,
        )
        .unwrap()
    };
    let send = unsafe {
        a.post_send(
            SendDesc::Generic {
                packer: Box::new(VecPacker(data.clone())),
                packed_size: len,
                regions: Vec::new(),
                inorder: false,
            },
            1,
            tag,
        )
        .unwrap()
    };
    let (sfid, rfid) = (send.flight_id(), recv.flight_id());
    send.wait().unwrap();
    recv.wait().unwrap();
    assert_eq!(out, data, "payload intact (seed {seed})");
    (sfid, rfid, len as u64)
}

#[test]
fn pipeline_event_sequences_are_well_formed() {
    flight::set_enabled(true);
    let len = 64 * 1024; // 16 fragments at the 4 KiB model fragment size
    let mut all_ids = Vec::new();

    for threads in [1usize, 2, 4] {
        let fabric = Fabric::with_model_and_pipeline(
            2,
            small_frag_model(),
            PipelineConfig::with_threads(threads),
        );
        let mut ids = Vec::new();
        for (i, seed) in (0..4u64).enumerate() {
            ids.push(roundtrip(
                &fabric,
                10 + i as i32,
                seed + 7 * threads as u64,
                len,
            ));
        }
        // One thread runs every transfer inline; more hand each to the pool.
        let pooled = if threads > 1 { 4 } else { 0 };
        assert_eq!(
            fabric.stats().pipelined,
            pooled,
            "{threads} threads: pipelined"
        );

        let events = flight::events();
        for &(sfid, rfid, bytes) in &ids {
            assert!(sfid != 0 && rfid != 0, "recorder was on at post time");
            let of_send: Vec<_> = events.iter().filter(|e| e.id == sfid).collect();
            let of_recv: Vec<_> = events.iter().filter(|e| e.id == rfid).collect();
            let count = |k: EventKind| of_send.iter().filter(|e| e.kind == k).count();

            // Exactly one of each lifecycle event, and no errors.
            assert_eq!(count(EventKind::PostSend), 1, "{threads}t id {sfid}");
            assert_eq!(count(EventKind::Match), 1, "{threads}t id {sfid}");
            assert_eq!(count(EventKind::WireModeled), 1, "{threads}t id {sfid}");
            assert_eq!(count(EventKind::Complete), 1, "{threads}t id {sfid}");
            assert_eq!(count(EventKind::Error), 0, "{threads}t id {sfid}");
            assert_eq!(
                of_recv
                    .iter()
                    .filter(|e| e.kind == EventKind::PostRecv)
                    .count(),
                1,
                "{threads}t recv id {rfid}"
            );
            assert_eq!(of_recv.len(), 1, "recv id carries only its post");

            // The match joins the two timelines and records the protocol.
            let m = of_send.iter().find(|e| e.kind == EventKind::Match).unwrap();
            assert_eq!(m.aux, rfid, "match.aux joins the receive post");
            assert_eq!(m.method, Method::Pipelined);
            assert_eq!(m.bytes, bytes);
            assert_eq!((m.src, m.dst), (0, 1));

            // Timestamp ordering: post ≤ match ≤ every fragment ≤ complete.
            let post = of_send
                .iter()
                .find(|e| e.kind == EventKind::PostSend)
                .unwrap();
            let done = of_send
                .iter()
                .find(|e| e.kind == EventKind::Complete)
                .unwrap();
            let rpost = &of_recv[0];
            assert!(post.t_ns <= m.t_ns && rpost.t_ns <= m.t_ns);
            assert!(m.t_ns <= done.t_ns);

            // Fragments cover the payload exactly, on both sides, and lie
            // inside the match→complete window even when worker threads
            // raced to record them.
            for kind in [EventKind::FragPacked, EventKind::FragUnpacked] {
                let frags: Vec<_> = of_send.iter().filter(|e| e.kind == kind).collect();
                assert_eq!(frags.len(), 16, "{threads}t {kind:?} count");
                assert_eq!(frags.iter().map(|e| e.bytes).sum::<u64>(), bytes);
                let mut offs: Vec<u64> = frags.iter().map(|e| e.aux).collect();
                offs.sort_unstable();
                assert_eq!(offs, (0..16).map(|i| i * 4096).collect::<Vec<_>>());
                for f in &frags {
                    assert!(f.t_ns >= m.t_ns && f.t_ns <= done.t_ns, "frag in window");
                }
            }
        }

        all_ids.extend(ids.iter().flat_map(|&(s, r, _)| [s, r]));
    }

    // No orphan ids: this is the only test in the binary, so every event
    // in the ring must belong to a request posted above.
    for e in flight::events() {
        assert!(all_ids.contains(&e.id), "orphan event id {}", e.id);
    }
    flight::set_enabled(false);
}
