//! End-to-end tests of the fragment engine through the public fabric API:
//! transfers worth pooling go to the worker pool, byte-identical to the
//! inline path, and a one-thread configuration never touches the pool.

use mpicd_fabric::{
    Fabric, FragmentPacker, FragmentUnpacker, IovEntry, IovEntryMut, PipelineConfig,
    RandomAccessPacker, RandomAccessUnpacker, RecvDesc, SendDesc, WireModel,
};

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

fn roundtrip(fabric: &Fabric, payload: &[u8]) -> Vec<u8> {
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    let mut out = vec![0u8; payload.len()];
    // SAFETY: both buffers outlive the waits below.
    let recv = unsafe {
        b.post_recv(
            RecvDesc::Generic {
                unpacker: Box::new(PtrUnpacker(out.as_mut_ptr())),
                packed_size: out.len(),
                regions: Vec::new(),
            },
            0,
            1,
        )
        .unwrap()
    };
    let send = unsafe {
        a.post_send(
            SendDesc::Generic {
                packer: Box::new(VecPacker(payload.to_vec())),
                packed_size: payload.len(),
                regions: Vec::new(),
                inorder: false,
            },
            1,
            1,
        )
        .unwrap()
    };
    send.wait().unwrap();
    recv.wait().unwrap();
    out
}

#[test]
fn eligible_transfer_is_pipelined_and_correct() {
    let payload: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let fabric =
        Fabric::with_model_and_pipeline(2, small_frag_model(), PipelineConfig::with_threads(2));
    let out = roundtrip(&fabric, &payload);
    assert_eq!(out, payload);
    assert_eq!(fabric.stats().pipelined, 1, "transfer used the pipeline");
    assert_eq!(fabric.stats().messages, 1);
}

#[test]
fn serial_config_never_pipelines_and_matches() {
    let payload: Vec<u8> = (0..64 * 1024).map(|i| (i % 241) as u8).collect();
    let serial =
        Fabric::with_model_and_pipeline(2, small_frag_model(), PipelineConfig::with_threads(1));
    let out = roundtrip(&serial, &payload);
    assert_eq!(out, payload, "the inline path moves identical bytes");
    assert_eq!(serial.stats().pipelined, 0);

    // Same transfer, parallel config: identical bytes and traffic stats
    // except the `pipelined` counter.
    let par =
        Fabric::with_model_and_pipeline(2, small_frag_model(), PipelineConfig::with_threads(4));
    let out2 = roundtrip(&par, &payload);
    assert_eq!(out2, out);
    let (s, p) = (serial.stats(), par.stats());
    assert_eq!(
        (s.messages, s.bytes, s.fragments),
        (p.messages, p.bytes, p.fragments)
    );
    assert_eq!(p.pipelined, 1);
}

#[test]
fn inorder_sender_stays_serial() {
    let payload: Vec<u8> = (0..32 * 1024).map(|i| (i % 239) as u8).collect();
    let fabric =
        Fabric::with_model_and_pipeline(2, small_frag_model(), PipelineConfig::with_threads(4));
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    let mut out = vec![0u8; payload.len()];
    // SAFETY: buffers outlive the waits.
    let recv = unsafe {
        b.post_recv(
            RecvDesc::Generic {
                unpacker: Box::new(PtrUnpacker(out.as_mut_ptr())),
                packed_size: out.len(),
                regions: Vec::new(),
            },
            0,
            2,
        )
        .unwrap()
    };
    let send = unsafe {
        a.post_send(
            SendDesc::Generic {
                packer: Box::new(VecPacker(payload.clone())),
                packed_size: payload.len(),
                regions: Vec::new(),
                inorder: true, // demands in-order delivery → inline path
            },
            1,
            2,
        )
        .unwrap()
    };
    send.wait().unwrap();
    recv.wait().unwrap();
    assert_eq!(out, payload);
    assert_eq!(
        fabric.stats().pipelined,
        0,
        "inorder sender never pipelines"
    );
}

#[test]
fn streaming_callbacks_stay_serial() {
    // A plain closure packer exposes no random-access view.
    let payload: Vec<u8> = (0..32 * 1024).map(|i| (i % 233) as u8).collect();
    let fabric =
        Fabric::with_model_and_pipeline(2, small_frag_model(), PipelineConfig::with_threads(4));
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    let mut out = vec![0u8; payload.len()];
    let src = payload.clone();
    // SAFETY: buffers outlive the waits.
    let recv = unsafe {
        b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut out)), 0, 3)
            .unwrap()
    };
    let send = unsafe {
        a.post_send(
            SendDesc::Generic {
                packer: Box::new(move |offset: usize, dst: &mut [u8]| {
                    let n = dst.len().min(src.len() - offset);
                    dst[..n].copy_from_slice(&src[offset..offset + n]);
                    Ok(n)
                }),
                packed_size: payload.len(),
                regions: Vec::new(),
                inorder: false,
            },
            1,
            3,
        )
        .unwrap()
    };
    send.wait().unwrap();
    recv.wait().unwrap();
    assert_eq!(out, payload);
    assert_eq!(
        fabric.stats().pipelined,
        0,
        "no random-access view → inline"
    );
}

#[test]
fn large_contig_rendezvous_is_pipelined() {
    // Pure memory→memory is eligible too; at 4 MiB its modeled copy time
    // is worth far more than the jobs the pool needs.
    let payload: Vec<u8> = (0..4 << 20).map(|i| (i % 255) as u8).collect();
    let fabric =
        Fabric::with_model_and_pipeline(2, small_frag_model(), PipelineConfig::with_threads(2));
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    let mut out = vec![0u8; payload.len()];
    // SAFETY: buffers outlive the waits.
    let recv = unsafe {
        b.post_recv(RecvDesc::Contig(IovEntryMut::from_slice(&mut out)), 0, 4)
            .unwrap()
    };
    let send = unsafe {
        a.post_send(SendDesc::Contig(IovEntry::from_slice(&payload)), 1, 4)
            .unwrap()
    };
    send.wait().unwrap();
    recv.wait().unwrap();
    assert_eq!(out, payload);
    assert_eq!(fabric.stats().pipelined, 1);
    assert_eq!(fabric.stats().rendezvous, 1);
}

/// Offset-addressed packer that asserts every destination it is handed is
/// zeroed before writing its bytes.
struct ZeroCheckingPacker(Vec<u8>);

impl FragmentPacker for ZeroCheckingPacker {
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
        self.pack_at(offset, dst)
    }
    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        Some(self)
    }
}

impl RandomAccessPacker for ZeroCheckingPacker {
    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
        if dst.iter().any(|&b| b != 0) {
            return Err(99);
        }
        let n = dst.len().min(self.0.len() - offset);
        dst[..n].copy_from_slice(&self.0[offset..offset + n]);
        Ok(n)
    }
}

#[test]
fn fresh_destinations_are_zeroed_before_a_packer_sees_them() {
    // Garbage stands in for uninitialized memory: a fresh descriptor must
    // never hand it to a pack callback, inline or from the pool.
    let payload: Vec<u8> = (0..24 * 1024).map(|i| (i % 239) as u8).collect();
    for threads in [1, 2] {
        let fabric = Fabric::with_model_and_pipeline(
            2,
            small_frag_model(),
            PipelineConfig::with_threads(threads),
        );
        let a = fabric.endpoint(0).unwrap();
        let b = fabric.endpoint(1).unwrap();
        let mut contig = vec![0xA5u8; payload.len()];
        let (mut r0, mut r1) = (vec![0x5Au8; 10_000], vec![0x5Au8; payload.len() - 10_000]);
        let descs = [
            RecvDesc::Contig(IovEntryMut::from_slice(&mut contig)),
            RecvDesc::Iov(vec![
                IovEntryMut::from_slice(&mut r0),
                IovEntryMut::from_slice(&mut r1),
            ]),
        ];
        for desc in descs {
            // SAFETY: every buffer outlives the waits below.
            let recv = unsafe { b.post_recv(desc.fresh(), 0, 1).unwrap() };
            let send = unsafe {
                a.post_send(
                    SendDesc::Generic {
                        packer: Box::new(ZeroCheckingPacker(payload.clone())),
                        packed_size: payload.len(),
                        regions: Vec::new(),
                        inorder: false,
                    },
                    1,
                    1,
                )
                .unwrap()
            };
            send.wait().unwrap();
            recv.wait().unwrap();
        }
        assert_eq!(contig, payload, "threads {threads}");
        assert_eq!([r0, r1].concat(), payload, "threads {threads}");
        let pooled = if threads > 1 { 2 } else { 0 };
        assert_eq!(fabric.stats().pipelined, pooled, "threads {threads}");
    }
}
