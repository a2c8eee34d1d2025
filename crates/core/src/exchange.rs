//! Single-threaded transfer helpers: drive both ends of a message from one
//! thread, deterministically.
//!
//! Benchmarks on a simulated fabric want zero scheduler noise, which means
//! one thread plays both ranks. Blocking calls would deadlock (a rendezvous
//! send cannot complete until the peer posts its receive), so these helpers
//! post both sides nonblocking, then wait — the safe composition of the
//! unsafe `post_*` entry points.

// Audited unsafe: raw base-pointer exchange plumbing; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::buffer::{Buffer, BufferMut, RecvView, SendView};
use crate::communicator::{Communicator, Status};
use crate::error::Result;
use mpicd_datatype::Committed;
use mpicd_fabric::{IovEntry, IovEntryMut, RecvDesc, SendDesc, Tag};
use std::sync::Arc;

/// Move one message `sbuf@a → rbuf@b` with both ranks driven from the
/// calling thread. Returns the receive status.
pub fn transfer<B, C>(
    a: &Communicator,
    b: &Communicator,
    sbuf: &B,
    rbuf: &mut C,
    tag: Tag,
) -> Result<Status>
where
    B: Buffer + ?Sized,
    C: BufferMut + ?Sized,
{
    let _sp = mpicd_obs::span!("comm.transfer", "core");
    // Post the send first (it pends until matched for custom/rendezvous
    // payloads), then the receive, which triggers the matched transfer.
    let sreq = match sbuf.send_view() {
        SendView::Contiguous(bytes) => {
            // SAFETY: waited below, buffers borrowed for the whole call.
            unsafe {
                a.endpoint().post_send(
                    SendDesc::Contig(IovEntry::from_slice(bytes)),
                    b.rank(),
                    tag,
                )?
            }
        }
        // SAFETY: as above.
        SendView::Custom(ctx) => unsafe { a.post_custom_send(ctx, b.rank(), tag)? },
    };
    let status = match rbuf.recv_view() {
        RecvView::Contiguous(bytes) => {
            // SAFETY: as above.
            let rreq = unsafe {
                b.endpoint().post_recv(
                    RecvDesc::Contig(IovEntryMut::from_slice(bytes)),
                    a.rank() as i32,
                    tag,
                )?
            };
            rreq.wait()?.into()
        }
        RecvView::Custom(mut ctx) => {
            // SAFETY: ctx lives on this frame past the wait.
            let rreq = unsafe { b.post_custom_recv(&mut *ctx, a.rank() as i32, tag)? };
            let env = rreq.wait()?;
            ctx.finish()?;
            env.into()
        }
    };
    sreq.wait()?;
    Ok(status)
}

/// Derived-datatype variant of [`transfer`].
pub fn transfer_typed(
    a: &Communicator,
    b: &Communicator,
    sregion: &[u8],
    rregion: &mut [u8],
    count: usize,
    ty: &Arc<Committed>,
    tag: Tag,
) -> Result<Status> {
    ty.check_bounds(count, sregion.len())?;
    ty.check_bounds(count, rregion.len())?;
    let _sp = mpicd_obs::span!("comm.transfer_typed", "core", ty.size() * count);
    // SAFETY: waited below; regions borrowed for the whole call.
    let sreq = unsafe { a.post_typed_send(sregion.as_ptr(), count, ty, b.rank(), tag)? };
    let rreq = unsafe { b.post_typed_recv(rregion.as_mut_ptr(), count, ty, a.rank() as i32, tag)? };
    let status = rreq.wait()?.into();
    sreq.wait()?;
    Ok(status)
}

/// Explicit-context variant of [`transfer`] (custom serialization on both
/// ends, e.g. the DDTBench patterns).
pub fn transfer_custom(
    a: &Communicator,
    b: &Communicator,
    sctx: Box<dyn crate::CustomPack + '_>,
    rctx: &mut (dyn crate::CustomUnpack + '_),
    tag: Tag,
) -> Result<Status> {
    let _sp = mpicd_obs::span!("comm.transfer_custom", "core");
    // SAFETY: waited below; contexts outlive the call.
    let sreq = unsafe { a.post_custom_send(sctx, b.rank(), tag)? };
    let rreq = unsafe { b.post_custom_recv(rctx, a.rank() as i32, tag)? };
    let env = rreq.wait()?;
    rctx.finish()?;
    sreq.wait()?;
    Ok(env.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::World;
    use crate::types::StructSimple;

    #[test]
    fn single_thread_contiguous() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let send = vec![3i64; 100];
        let mut recv = vec![0i64; 100];
        let st = transfer(&a, &b, &send, &mut recv, 0).unwrap();
        assert_eq!(recv, send);
        assert_eq!(st.bytes, 800);
    }

    #[test]
    fn single_thread_custom_rendezvous_sized() {
        // Custom payloads never take the eager path; this proves the
        // single-threaded composition cannot deadlock.
        let world = World::new(2);
        let (a, b) = world.pair();
        let send: Vec<StructSimple> = (0..10_000).map(StructSimple::generate).collect();
        let mut recv = vec![StructSimple::default(); 10_000];
        transfer(&a, &b, &send, &mut recv, 0).unwrap();
        assert_eq!(recv, send);
    }

    #[test]
    fn single_thread_typed() {
        let ty = Arc::new(StructSimple::datatype().commit().unwrap());
        let world = World::new(2);
        let (a, b) = world.pair();
        let send: Vec<StructSimple> = (0..500).map(StructSimple::generate).collect();
        let mut recv = vec![StructSimple::default(); 500];
        let sbytes = crate::types::as_bytes(&send);
        // SAFETY: POD struct; engine writes only data bytes.
        let rbytes = unsafe { crate::types::as_bytes_mut(&mut recv) };
        transfer_typed(&a, &b, sbytes, rbytes, 500, &ty, 0).unwrap();
        assert_eq!(recv, send);
    }

    #[test]
    fn typed_transfer_rejects_a_count_whose_span_overflows() {
        // Unchecked, (2^60 + 1 - 1) * 16 + 8 wraps to 8 and the 16-byte
        // regions would pass the bounds check.
        let ty = Arc::new(
            mpicd_datatype::Datatype::resized(0, 16, mpicd_datatype::Datatype::of::<f64>())
                .commit()
                .unwrap(),
        );
        let world = World::new(2);
        let (a, b) = world.pair();
        let send = [7u8; 16];
        let mut recv = [0xA5u8; 16];
        let count = (1usize << 60) + 1;
        let err = transfer_typed(&a, &b, &send, &mut recv, count, &ty, 0).unwrap_err();
        assert!(matches!(
            err,
            crate::Error::Datatype(mpicd_datatype::DatatypeError::CountOverflow { .. })
        ));
        assert_eq!(recv, [0xA5u8; 16], "nothing was written");
        assert_eq!(world.fabric().stats().messages, 0, "nothing was sent");
    }

    #[test]
    fn pingpong_loop_many_iterations() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let mut x: Vec<Vec<i32>> = crate::vecvec::generate(16, 64);
        let mut y: Vec<Vec<i32>> = vec![vec![0; 64]; 16];
        for _ in 0..50 {
            transfer(&a, &b, &x, &mut y, 0).unwrap();
            transfer(&b, &a, &y, &mut x, 1).unwrap();
        }
        assert_eq!(x, crate::vecvec::generate(16, 64));
        assert_eq!(world.fabric().stats().messages, 100, "2 per iteration");
    }
}
