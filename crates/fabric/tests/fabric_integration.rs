//! Fabric integration tests: protocol combinations across threads, the
//! full send-kind × receive-kind matrix, and matched-probe semantics at
//! the transport level.

use mpicd_fabric::{
    Fabric, FabricConfig, FragmentUnpacker, IovEntry, IovEntryMut, RecvDesc, SendDesc, WireModel,
    ANY_SOURCE, ANY_TAG,
};

/// Collects the packed stream into shared storage (offset addressed).
#[derive(Clone)]
struct Sink {
    out: std::sync::Arc<mpicd_obs::sync::Mutex<Vec<u8>>>,
}

impl Sink {
    fn new(len: usize) -> Self {
        Self {
            out: std::sync::Arc::new(mpicd_obs::sync::Mutex::new(vec![0u8; len])),
        }
    }
    fn bytes(&self) -> Vec<u8> {
        self.out.lock().clone()
    }
}

impl FragmentUnpacker for Sink {
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
        self.out.lock()[offset..offset + src.len()].copy_from_slice(src);
        Ok(())
    }
}

/// A packer streaming from an owned buffer.
fn stream_packer(data: Vec<u8>) -> Box<dyn mpicd_fabric::FragmentPacker> {
    Box::new(move |offset: usize, dst: &mut [u8]| {
        let n = dst.len().min(data.len() - offset);
        dst[..n].copy_from_slice(&data[offset..offset + n]);
        Ok(n)
    })
}

/// All send kinds deliver the same byte stream to all receive kinds.
#[test]
fn send_recv_kind_matrix() {
    let total = 10_000usize;
    let payload: Vec<u8> = (0..total).map(|i| (i * 13 % 251) as u8).collect();

    for send_kind in 0..3 {
        for recv_kind in 0..3 {
            let fabric = Fabric::with_config(
                2,
                FabricConfig {
                    model: WireModel {
                        frag_size: 1024,
                        ..WireModel::default()
                    },
                    ..FabricConfig::default()
                },
            );
            let a = fabric.endpoint(0).unwrap();
            let b = fabric.endpoint(1).unwrap();

            // Keep the source data alive for the whole exchange.
            let src = payload.clone();
            let (half1, half2) = src.split_at(total / 3);

            let sdesc = match send_kind {
                0 => SendDesc::Contig(IovEntry::from_slice(&src)),
                1 => SendDesc::Iov(vec![
                    IovEntry::from_slice(half1),
                    IovEntry::from_slice(half2),
                ]),
                _ => SendDesc::Generic {
                    packer: stream_packer(src.clone()),
                    packed_size: total,
                    regions: vec![],
                    inorder: true,
                },
            };

            let mut out = vec![0u8; total];
            let sink = Sink::new(total);
            let (o1, o2) = out.split_at_mut(total / 4);
            let rdesc = match recv_kind {
                0 => RecvDesc::Contig(IovEntryMut {
                    ptr: o1.as_mut_ptr(),
                    len: total, // whole buffer via first pointer
                }),
                1 => RecvDesc::Iov(vec![
                    IovEntryMut::from_slice(o1),
                    IovEntryMut::from_slice(o2),
                ]),
                _ => RecvDesc::Generic {
                    unpacker: Box::new(sink.clone()),
                    packed_size: total,
                    regions: vec![],
                },
            };

            let rreq = unsafe { b.post_recv(rdesc, 0, 7).unwrap() };
            let sreq = unsafe { a.post_send(sdesc, 1, 7).unwrap() };
            sreq.wait().unwrap();
            let env = rreq.wait().unwrap();
            assert_eq!(env.bytes, total, "send {send_kind} → recv {recv_kind}");

            let got = if recv_kind == 2 { sink.bytes() } else { out };
            assert_eq!(got, payload, "send {send_kind} → recv {recv_kind}");
        }
    }
}

#[test]
fn transport_mprobe_claims_once() {
    let fabric = Fabric::new(2);
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    a.send_bytes(&[1, 2, 3], 1, 5).unwrap();
    a.send_bytes(&[4, 5, 6], 1, 5).unwrap();

    let (env1, msg1) = b.improbe(0, 5).expect("first message");
    assert_eq!(env1.bytes, 3);
    // The claimed message is out of the queue: a plain probe sees only #2.
    let env2 = b.iprobe(0, 5).expect("second message visible");
    assert_eq!(env2.bytes, 3);

    let mut buf1 = [0u8; 3];
    let req = unsafe {
        b.post_mrecv(RecvDesc::Contig(IovEntryMut::from_slice(&mut buf1)), msg1)
            .unwrap()
    };
    req.wait().unwrap();
    assert_eq!(buf1, [1, 2, 3], "claimed message is the FIRST (ordering)");

    let mut buf2 = [0u8; 3];
    b.recv_bytes(&mut buf2, 0, 5).unwrap();
    assert_eq!(buf2, [4, 5, 6]);
}

#[test]
fn dropping_matched_rendezvous_message_fails_sender() {
    let fabric = Fabric::new(2);
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    let big = vec![7u8; 100_000];
    let sreq = unsafe {
        a.post_send(SendDesc::Contig(IovEntry::from_slice(&big)), 1, 0)
            .unwrap()
    };
    {
        let (_env, _msg) = b.improbe(ANY_SOURCE, ANY_TAG).expect("claim");
        // drop without receiving
    }
    assert!(
        sreq.wait().is_err(),
        "sender learns the message was dropped"
    );
}

#[test]
fn eager_then_rendezvous_interleaving_under_threads() {
    let fabric = Fabric::new(2);
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..40u8 {
                // Alternate small (eager) and large (rendezvous) payloads.
                let size = if i % 2 == 0 { 128 } else { 100_000 };
                let data = vec![i; size];
                a.send_bytes(&data, 1, 0).unwrap();
            }
        });
        s.spawn(move || {
            for i in 0..40u8 {
                let size = if i % 2 == 0 { 128 } else { 100_000 };
                let mut buf = vec![0u8; size];
                b.recv_bytes(&mut buf, 0, 0).unwrap();
                assert!(buf.iter().all(|x| *x == i), "message {i} in order");
            }
        });
    });
    let stats = fabric.stats();
    assert_eq!(stats.eager, 20);
    assert_eq!(stats.rendezvous, 20);
}

#[test]
fn ledger_accounts_every_message_once() {
    let fabric = Fabric::new(2);
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    for _ in 0..10 {
        a.send_bytes(&[0u8; 256], 1, 0).unwrap();
        let mut buf = [0u8; 256];
        b.recv_bytes(&mut buf, 0, 0).unwrap();
    }
    assert_eq!(fabric.ledger().messages(), 10);
    let per_msg = fabric.model().message_time_ns(256, 1, false);
    assert!((fabric.ledger().total_ns() - 10.0 * per_msg).abs() < 0.1);
}
