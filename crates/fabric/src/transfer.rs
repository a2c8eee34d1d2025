//! The data-movement engine: pairs a matched send and receive as two byte
//! streams and moves every payload byte for real.
//!
//! The sender's segments (memory regions and/or a callback-produced packed
//! stream) are read in order and scattered into the receiver's segments in
//! order, chunked at the wire model's fragment size. This mirrors how UCX
//! walks iov lists and invokes generic-datatype pack/unpack callbacks per
//! fragment.

// Audited unsafe: serial copy engine over posted raw regions; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::config::WireModel;
use crate::error::{FabricError, FabricResult};
use crate::payload::{FragmentPacker, FragmentUnpacker, IovEntry, IovEntryMut};
use crate::stats::FabricMetrics;
use mpicd_obs::flight::{self, EventKind};
use mpicd_obs::trace::span_acc;

/// A readable segment of the send-side stream.
pub(crate) enum SrcSeg<'a> {
    /// A contiguous memory region (zero-copy source).
    Mem(IovEntry),
    /// A callback-produced packed stream of exactly `len` bytes.
    Packer {
        packer: &'a mut dyn FragmentPacker,
        len: usize,
    },
}

impl SrcSeg<'_> {
    fn len(&self) -> usize {
        match self {
            Self::Mem(e) => e.len,
            Self::Packer { len, .. } => *len,
        }
    }
}

/// A writable segment of the receive-side stream.
pub(crate) enum DstSeg<'a> {
    /// A contiguous memory region (zero-copy destination).
    Mem(IovEntryMut),
    /// A callback-consumed packed stream of exactly `len` bytes.
    Unpacker {
        unpacker: &'a mut dyn FragmentUnpacker,
        len: usize,
    },
}

impl DstSeg<'_> {
    fn len(&self) -> usize {
        match self {
            Self::Mem(e) => e.len,
            Self::Unpacker { len, .. } => *len,
        }
    }
}

/// Per-transfer allocations of [`copy_stream`], recycled across transfers.
///
/// Every matched transfer used to heap-allocate a fresh staging buffer and
/// a fresh out-of-order fragment list; the fabric now keeps one of these in
/// its match state (mirroring the eager bounce-buffer freelist) and hands
/// it to every serial transfer.
#[derive(Default)]
pub(crate) struct TransferScratch {
    /// Packer→unpacker staging buffer (capacity kept across transfers).
    buf: Vec<u8>,
    /// Out-of-order delivery list: (local offset, data). Drained after use;
    /// entries left behind by an error return are reclaimed on reuse.
    ooo: Vec<(usize, Vec<u8>)>,
    /// Freelist of fragment buffers for the `ooo` list.
    spare: Vec<Vec<u8>>,
}

/// Cap on pooled ooo fragment buffers — bounds retained memory to
/// `SPARE_CAP × frag_size` per fabric.
const SPARE_CAP: usize = 64;

impl TransferScratch {
    /// Prepare for a new transfer: recycle anything a previous transfer
    /// (possibly one that errored mid-stream) left behind.
    fn reset(&mut self) {
        while let Some((_, data)) = self.ooo.pop() {
            if self.spare.len() < SPARE_CAP {
                self.spare.push(data);
            }
        }
    }
}

/// Copy `bytes` into a (possibly recycled) fragment buffer.
fn fill_frag_buf(spare: &mut Vec<Vec<u8>>, bytes: &[u8]) -> Vec<u8> {
    let mut b = spare.pop().unwrap_or_default();
    b.clear();
    b.extend_from_slice(bytes);
    b
}

/// Hold a pack callback to its `used` count: at most the `room` it was
/// handed (more would deliver bytes it never wrote), and not 0 while
/// `remaining` bytes are left at stream `offset` (that would loop forever).
pub(crate) fn checked_used(
    used: usize,
    room: usize,
    offset: usize,
    remaining: usize,
) -> FabricResult<usize> {
    if used > room {
        return Err(FabricError::PackOverrun { offset, used, room });
    }
    if used == 0 {
        return Err(FabricError::PackStalled { offset, remaining });
    }
    Ok(used)
}

/// Move the full send stream into the receive stream.
///
/// * Fragmentation: no single callback invocation or memcpy spans more than
///   `model.frag_size` bytes, so partial-pack semantics are exercised exactly
///   as on a fragmenting transport.
/// * Out-of-order delivery: when `allow_ooo` is set (wire model enables it
///   *and* the sender did not demand in-order), fragments destined for an
///   unpacker are buffered and delivered in reverse offset order, modeling a
///   transport that completes fragments out of order. Memory-region segments
///   are position-addressed and unaffected.
///
/// Returns the number of bytes moved. The caller has already verified the
/// receive side has sufficient capacity.
///
/// `fid` is the send-side flight-recorder transfer id; pack/unpack callback
/// invocations emit `FragPacked`/`FragUnpacked` events against it (0 = no
/// recording, the cost of one relaxed load per fragment). `lc` is the
/// transfer's merged Lamport clock, stamped on every fragment event so the
/// causal-DAG analyzer can order fragments inside the transfer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn copy_stream(
    model: &WireModel,
    src_segs: &mut [SrcSeg<'_>],
    dst_segs: &mut [DstSeg<'_>],
    allow_ooo: bool,
    metrics: &FabricMetrics,
    scratch: &mut TransferScratch,
    fid: u64,
    lc: u64,
) -> FabricResult<usize> {
    let total: usize = src_segs.iter().map(|s| s.len()).sum();
    let frag = model.frag_size.max(1);

    scratch.reset();

    let (mut si, mut s_off) = (0usize, 0usize);
    let (mut di, mut d_off) = (0usize, 0usize);
    let mut moved = 0usize;

    while moved < total {
        // Advance past exhausted segments.
        while si < src_segs.len() && s_off == src_segs[si].len() {
            si += 1;
            s_off = 0;
        }
        while di < dst_segs.len() && d_off == dst_segs[di].len() {
            di += 1;
            d_off = 0;
        }
        if si >= src_segs.len() || di >= dst_segs.len() {
            break;
        }

        let s_rem = src_segs[si].len() - s_off;
        let d_rem = dst_segs[di].len() - d_off;
        let want = s_rem.min(d_rem).min(frag);
        if want == 0 {
            continue;
        }

        let advanced = match (&mut src_segs[si], &mut dst_segs[di]) {
            (SrcSeg::Mem(s), DstSeg::Mem(d)) => {
                // SAFETY: post contracts guarantee both regions are live and
                // non-overlapping for the duration of the operation.
                unsafe {
                    std::ptr::copy_nonoverlapping(s.ptr.add(s_off), d.ptr.add(d_off), want);
                }
                want
            }
            (SrcSeg::Mem(s), DstSeg::Unpacker { unpacker, .. }) => {
                // SAFETY: as above.
                let bytes = unsafe { std::slice::from_raw_parts(s.ptr.add(s_off), want) };
                if allow_ooo {
                    let b = fill_frag_buf(&mut scratch.spare, bytes);
                    scratch.ooo.push((d_off, b));
                } else {
                    let t0 = flight::clock(fid);
                    {
                        let _sp = span_acc("unpack", "fabric", want as u64, &metrics.unpack_ns);
                        unpacker
                            .unpack(d_off, bytes)
                            .map_err(FabricError::UnpackFailed)?;
                    }
                    flight::record_frag(
                        EventKind::FragUnpacked,
                        fid,
                        t0,
                        want as u64,
                        d_off as u64,
                        lc,
                    );
                }
                want
            }
            (SrcSeg::Packer { packer, .. }, DstSeg::Mem(d)) => {
                // SAFETY: as above; `want` stays within the destination region.
                let dst = unsafe { std::slice::from_raw_parts_mut(d.ptr.add(d_off), want) };
                let t0 = flight::clock(fid);
                let used = {
                    let _sp = span_acc("pack", "fabric", want as u64, &metrics.pack_ns);
                    packer.pack(s_off, dst)
                }
                .map_err(FabricError::PackFailed)?;
                let used = checked_used(used, want, s_off, s_rem)?;
                flight::record_frag(
                    EventKind::FragPacked,
                    fid,
                    t0,
                    used as u64,
                    s_off as u64,
                    lc,
                );
                used
            }
            (SrcSeg::Packer { packer, .. }, DstSeg::Unpacker { unpacker, .. }) => {
                scratch.buf.resize(want, 0);
                let t0 = flight::clock(fid);
                let used = {
                    let _sp = span_acc("pack", "fabric", want as u64, &metrics.pack_ns);
                    packer.pack(s_off, &mut scratch.buf[..want])
                }
                .map_err(FabricError::PackFailed)?;
                let used = checked_used(used, want, s_off, s_rem)?;
                flight::record_frag(
                    EventKind::FragPacked,
                    fid,
                    t0,
                    used as u64,
                    s_off as u64,
                    lc,
                );
                if allow_ooo {
                    let b = fill_frag_buf(&mut scratch.spare, &scratch.buf[..used]);
                    scratch.ooo.push((d_off, b));
                } else {
                    let t1 = flight::clock(fid);
                    {
                        let _sp = span_acc("unpack", "fabric", used as u64, &metrics.unpack_ns);
                        unpacker
                            .unpack(d_off, &scratch.buf[..used])
                            .map_err(FabricError::UnpackFailed)?;
                    }
                    flight::record_frag(
                        EventKind::FragUnpacked,
                        fid,
                        t1,
                        used as u64,
                        d_off as u64,
                        lc,
                    );
                }
                used
            }
        };

        s_off += advanced;
        d_off += advanced;
        moved += advanced;
    }

    // Deliver buffered out-of-order fragments (reverse offset order) to the
    // unpacker segment. At most one unpacker segment exists by construction
    // (the packed stream is always the leading segment). Popping walks the
    // list in reverse; an error return leaves the remainder in `scratch`,
    // where the next transfer's `reset` reclaims the buffers.
    if !scratch.ooo.is_empty() {
        let unpacker = dst_segs
            .iter_mut()
            .find_map(|d| match d {
                DstSeg::Unpacker { unpacker, .. } => Some(unpacker),
                _ => None,
            })
            .expect("ooo fragments imply an unpacker segment");
        while let Some((off, data)) = scratch.ooo.pop() {
            let t0 = flight::clock(fid);
            {
                let _sp = span_acc("unpack", "fabric", data.len() as u64, &metrics.unpack_ns);
                unpacker
                    .unpack(off, &data)
                    .map_err(FabricError::UnpackFailed)?;
            }
            flight::record_frag(
                EventKind::FragUnpacked,
                fid,
                t0,
                data.len() as u64,
                off as u64,
                lc,
            );
            if scratch.spare.len() < SPARE_CAP {
                scratch.spare.push(data);
            }
        }
    }

    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with_frag(frag: usize) -> WireModel {
        WireModel {
            frag_size: frag,
            ..WireModel::zero_cost()
        }
    }

    #[test]
    fn mem_to_mem_across_boundaries() {
        let model = model_with_frag(4);
        let a = [1u8, 2, 3, 4, 5];
        let b = [6u8, 7, 8];
        let mut out1 = [0u8; 2];
        let mut out2 = [0u8; 6];
        let mut src = [
            SrcSeg::Mem(IovEntry::from_slice(&a)),
            SrcSeg::Mem(IovEntry::from_slice(&b)),
        ];
        let mut dst = [
            DstSeg::Mem(IovEntryMut::from_slice(&mut out1)),
            DstSeg::Mem(IovEntryMut::from_slice(&mut out2)),
        ];
        let moved = copy_stream(
            &model,
            &mut src,
            &mut dst,
            false,
            &FabricMetrics::detached(),
            &mut TransferScratch::default(),
            0,
            0,
        )
        .unwrap();
        assert_eq!(moved, 8);
        assert_eq!(out1, [1, 2]);
        assert_eq!(out2, [3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn packer_partial_fill_is_respected() {
        // Packer emits at most 3 bytes per call regardless of fragment size.
        let model = model_with_frag(64);
        let data: Vec<u8> = (0..20u8).collect();
        let src_data = data.clone();
        let mut packer = move |offset: usize, dst: &mut [u8]| {
            let n = dst.len().min(3).min(src_data.len() - offset);
            dst[..n].copy_from_slice(&src_data[offset..offset + n]);
            Ok(n)
        };
        let mut out = vec![0u8; 20];
        let mut src = [SrcSeg::Packer {
            packer: &mut packer,
            len: 20,
        }];
        let mut dst = [DstSeg::Mem(IovEntryMut::from_slice(&mut out))];
        let moved = copy_stream(
            &model,
            &mut src,
            &mut dst,
            false,
            &FabricMetrics::detached(),
            &mut TransferScratch::default(),
            0,
            0,
        )
        .unwrap();
        assert_eq!(moved, 20);
        assert_eq!(out, data);
    }

    #[test]
    fn packer_to_unpacker_roundtrip() {
        let model = model_with_frag(7);
        let data: Vec<u8> = (0..50u8).map(|x| x.wrapping_mul(3)).collect();
        let src_data = data.clone();
        let mut packer = move |offset: usize, dst: &mut [u8]| {
            let n = dst.len().min(src_data.len() - offset);
            dst[..n].copy_from_slice(&src_data[offset..offset + n]);
            Ok(n)
        };
        let mut received = vec![0u8; 50];
        let out = std::sync::Arc::new(mpicd_obs::sync::Mutex::new(vec![0u8; 50]));
        struct U(std::sync::Arc<mpicd_obs::sync::Mutex<Vec<u8>>>);
        impl FragmentUnpacker for U {
            fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
                self.0.lock()[offset..offset + src.len()].copy_from_slice(src);
                Ok(())
            }
        }
        let mut unpacker = U(std::sync::Arc::clone(&out));
        let mut src = [SrcSeg::Packer {
            packer: &mut packer,
            len: 50,
        }];
        let mut dst = [DstSeg::Unpacker {
            unpacker: &mut unpacker,
            len: 50,
        }];
        let moved = copy_stream(
            &model,
            &mut src,
            &mut dst,
            false,
            &FabricMetrics::detached(),
            &mut TransferScratch::default(),
            0,
            0,
        )
        .unwrap();
        assert_eq!(moved, 50);
        received.copy_from_slice(&out.lock());
        assert_eq!(received, data);
    }

    #[test]
    fn out_of_order_delivery_permutes_offsets() {
        let model = model_with_frag(8);
        let data: Vec<u8> = (0..32u8).collect();
        let mut offsets_seen = Vec::new();
        struct U<'a> {
            out: Vec<u8>,
            offsets: &'a mut Vec<usize>,
        }
        impl FragmentUnpacker for U<'_> {
            fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
                self.offsets.push(offset);
                self.out[offset..offset + src.len()].copy_from_slice(src);
                Ok(())
            }
        }
        let mut unpacker = U {
            out: vec![0u8; 32],
            offsets: &mut offsets_seen,
        };
        let mut src = [SrcSeg::Mem(IovEntry::from_slice(&data))];
        let mut dst = [DstSeg::Unpacker {
            unpacker: &mut unpacker,
            len: 32,
        }];
        copy_stream(
            &model,
            &mut src,
            &mut dst,
            true,
            &FabricMetrics::detached(),
            &mut TransferScratch::default(),
            0,
            0,
        )
        .unwrap();
        assert_eq!(unpacker.out, data, "offset-addressed unpack reassembles");
        assert_eq!(offsets_seen, vec![24, 16, 8, 0], "reverse-order delivery");
    }

    #[test]
    fn stalled_packer_errors() {
        let model = model_with_frag(8);
        let mut packer = |_offset: usize, _dst: &mut [u8]| Ok(0usize);
        let mut out = vec![0u8; 16];
        let mut src = [SrcSeg::Packer {
            packer: &mut packer,
            len: 16,
        }];
        let mut dst = [DstSeg::Mem(IovEntryMut::from_slice(&mut out))];
        let err = copy_stream(
            &model,
            &mut src,
            &mut dst,
            false,
            &FabricMetrics::detached(),
            &mut TransferScratch::default(),
            0,
            0,
        )
        .unwrap_err();
        assert!(matches!(err, FabricError::PackStalled { .. }));
    }

    #[test]
    fn failing_unpacker_propagates_code() {
        let model = model_with_frag(8);
        let data = [0u8; 16];
        struct Fail;
        impl FragmentUnpacker for Fail {
            fn unpack(&mut self, _offset: usize, _src: &[u8]) -> Result<(), i32> {
                Err(42)
            }
        }
        let mut unpacker = Fail;
        let mut src = [SrcSeg::Mem(IovEntry::from_slice(&data))];
        let mut dst = [DstSeg::Unpacker {
            unpacker: &mut unpacker,
            len: 16,
        }];
        assert_eq!(
            copy_stream(
                &model,
                &mut src,
                &mut dst,
                false,
                &FabricMetrics::detached(),
                &mut TransferScratch::default(),
                0,
                0
            ),
            Err(FabricError::UnpackFailed(42))
        );
    }

    #[test]
    fn scratch_freelist_recycles_ooo_buffers() {
        let model = model_with_frag(8);
        let data: Vec<u8> = (0..32u8).collect();
        struct U(Vec<u8>);
        impl FragmentUnpacker for U {
            fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32> {
                self.0[offset..offset + src.len()].copy_from_slice(src);
                Ok(())
            }
        }
        let mut scratch = TransferScratch::default();
        for round in 0..3 {
            let mut unpacker = U(vec![0u8; 32]);
            let mut src = [SrcSeg::Mem(IovEntry::from_slice(&data))];
            let mut dst = [DstSeg::Unpacker {
                unpacker: &mut unpacker,
                len: 32,
            }];
            copy_stream(
                &model,
                &mut src,
                &mut dst,
                true,
                &FabricMetrics::detached(),
                &mut scratch,
                0,
                0,
            )
            .unwrap();
            assert_eq!(unpacker.0, data, "round {round}");
        }
        // 4 ooo fragments per round were pooled and reused, not reallocated.
        assert_eq!(scratch.spare.len(), 4, "fragment buffers returned to pool");
    }

    #[test]
    fn empty_transfer_moves_nothing() {
        let model = model_with_frag(8);
        let mut src: [SrcSeg<'_>; 0] = [];
        let mut dst: [DstSeg<'_>; 0] = [];
        assert_eq!(
            copy_stream(
                &model,
                &mut src,
                &mut dst,
                false,
                &FabricMetrics::detached(),
                &mut TransferScratch::default(),
                0,
                0
            )
            .unwrap(),
            0
        );
    }
}
