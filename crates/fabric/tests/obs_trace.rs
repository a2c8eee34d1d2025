//! End-to-end observability over the fabric — runs in its own process so
//! it can enable tracing globally: a custom-datatype (generic) send must
//! emit pack → wire → unpack spans on one timeline and advance the
//! `fabric.*` metrics.

use mpicd_fabric::{Fabric, IovEntry, IovEntryMut, RecvDesc, SendDesc};

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

#[test]
fn custom_send_emits_pack_wire_unpack_spans_and_metrics() {
    mpicd_obs::set_enabled(true);
    let _ = mpicd_obs::trace::take_events();
    let before = mpicd_obs::global().snapshot();

    let fabric = Fabric::new(2);
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();

    let packed = 512usize;
    let header: Vec<u8> = (0..packed).map(|i| (i * 3 % 256) as u8).collect();
    let body: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
    let mut out_header = vec![0u8; packed];
    let mut out_body = vec![0u8; 4096];

    let rreq = unsafe {
        b.post_recv(
            RecvDesc::Generic {
                unpacker: Box::new(CollectUnpack(out_header.as_mut_ptr(), packed)),
                packed_size: packed,
                regions: vec![IovEntryMut::from_slice(&mut out_body)],
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
    assert_eq!(out_header, header);
    assert_eq!(out_body, body);

    // --- span sequence -----------------------------------------------------
    let events = mpicd_obs::trace::take_events();
    let first = |n: &str| {
        events
            .iter()
            .filter(|e| e.name == n)
            .min_by_key(|e| e.start_ns)
            .unwrap_or_else(|| panic!("missing {n} span in {events:?}"))
    };
    let pack = first("pack");
    let unpack = first("unpack");
    let wire = first("wire");
    assert_eq!(pack.cat, "fabric");
    assert_eq!(unpack.cat, "fabric");
    assert!(
        pack.start_ns <= unpack.start_ns,
        "packing starts before unpacking: pack@{} unpack@{}",
        pack.start_ns,
        unpack.start_ns
    );
    // The wire span is anchored at the match point, covering the transfer.
    assert!(wire.start_ns <= pack.start_ns, "wire anchored at match");
    assert!(wire.dur_ns > 0, "default model has nonzero wire time");
    assert_eq!(
        wire.bytes,
        (packed + body.len()) as u64,
        "wire span carries the full message size"
    );

    // --- metric deltas ------------------------------------------------------
    let after = mpicd_obs::global().snapshot();
    let d = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(d("fabric.messages"), 1);
    assert_eq!(d("fabric.bytes"), (packed + body.len()) as u64);
    assert!(d("fabric.regions") >= 1, "region traffic recorded");
    assert!(d("fabric.pack_ns") > 0, "pack timer advanced under tracing");
    assert!(d("fabric.unpack_ns") > 0, "unpack timer advanced");
    assert!(d("fabric.wire_ns") > 0, "modeled wire time recorded");
    assert_eq!(
        d("fabric.copy_bytes"),
        0,
        "custom path avoids the bounce copy"
    );
    let sizes = mpicd_obs::global().sketch("fabric.msg_size");
    assert!(
        sizes.count() >= 1,
        "message size recorded with telemetry off"
    );
    assert!(sizes.max() >= (packed + body.len()) as u64);
}
