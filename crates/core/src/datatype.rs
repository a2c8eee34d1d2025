//! The custom serialization interface — the paper's Listings 2–5 as Rust
//! traits.
//!
//! A custom datatype is described *per operation* by a pack context (send
//! side) or unpack context (receive side). In the C API these are a bundle
//! of function pointers plus an opaque state object created by `statefn`
//! and released by `freefn`; in Rust, the context value itself is the state
//! (constructed by [`Buffer::send_view`](crate::Buffer::send_view), dropped
//! when the operation completes).

use crate::error::Result;
use mpicd_fabric::FragmentPacker;
pub use mpicd_fabric::{RandomAccessPacker, RandomAccessUnpacker};

/// A contiguous memory region exposed for zero-copy sending (one entry of
/// `regionfn`'s output arrays). It must stay valid and unmodified until the
/// operation completes. This is the fabric's own scatter/gather entry, so
/// posting a context's regions copies nothing.
pub use mpicd_fabric::IovEntry as SendRegion;

/// A contiguous memory region exposed for zero-copy receiving. It must stay
/// valid and exclusively available until the operation completes.
pub use mpicd_fabric::IovEntryMut as RecvRegion;

/// Send-side custom serialization context (pack state).
///
/// Equivalent to the paper's `queryfn` + `packfn` + `region_countfn` +
/// `regionfn` callbacks operating on one buffer/count pair, with the state
/// object folded into `self`.
///
/// # Safety-relevant contract
/// Regions returned by [`Self::regions`] must point into memory owned by
/// (or borrowed by) this context and stay valid until the context is
/// dropped.
///
/// # Example
///
/// The paper's canonical shape — a small packed header plus a zero-copy
/// payload region — sent as **one** message through
/// [`Communicator::send_custom`](crate::Communicator::send_custom):
///
/// ```
/// use mpicd::{CustomPack, CustomUnpack, RecvRegion, Result, SendRegion, World};
///
/// /// Sends an 8-byte length header in-band; the payload travels as a
/// /// zero-copy memory region after the packed stream.
/// struct Pack<'a> { data: &'a [u8] }
///
/// impl CustomPack for Pack<'_> {
///     fn packed_size(&self) -> Result<usize> { Ok(8) }
///     fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
///         let hdr = (self.data.len() as u64).to_le_bytes();
///         let n = dst.len().min(8 - offset);
///         dst[..n].copy_from_slice(&hdr[offset..offset + n]);
///         Ok(n)
///     }
///     fn regions(&mut self) -> Result<Vec<SendRegion>> {
///         Ok(vec![SendRegion::from_slice(self.data)])
///     }
/// }
///
/// struct Unpack<'a> { len: u64, data: &'a mut [u8] }
///
/// impl CustomUnpack for Unpack<'_> {
///     fn packed_size(&self) -> Result<usize> { Ok(8) }
///     fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<()> {
///         let mut hdr = self.len.to_le_bytes();
///         hdr[offset..offset + src.len()].copy_from_slice(src);
///         self.len = u64::from_le_bytes(hdr);
///         Ok(())
///     }
///     fn regions(&mut self) -> Result<Vec<RecvRegion>> {
///         Ok(vec![RecvRegion::from_slice(self.data)])
///     }
/// }
///
/// let world = World::new(2);
/// let (rank0, rank1) = world.pair();
/// let payload = vec![7u8; 4096];
/// let mut recv = vec![0u8; 4096];
/// let mut ctx = Unpack { len: 0, data: &mut recv };
/// std::thread::scope(|s| {
///     s.spawn(|| rank0.send_custom(Box::new(Pack { data: &payload }), 1, 0).unwrap());
///     s.spawn(|| rank1.recv_custom(&mut ctx, 0, 0).unwrap());
/// });
/// assert_eq!(ctx.len, 4096);
/// drop(ctx);
/// assert_eq!(recv, payload);
/// ```
pub trait CustomPack: Send {
    /// Total number of bytes [`Self::pack`] will produce (`queryfn`).
    fn packed_size(&self) -> Result<usize>;

    /// Produce packed bytes starting at virtual byte `offset` into `dst`.
    ///
    /// May fill `dst` only partially (return `used < dst.len()`); the
    /// engine re-invokes at the advanced offset. Must make progress: a
    /// return of `Ok(0)` while bytes remain aborts the operation.
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize>;

    /// Contiguous regions to send directly after the packed stream
    /// (`region_countfn` + `regionfn`). Default: none (pure packing).
    fn regions(&mut self) -> Result<Vec<SendRegion>> {
        Ok(Vec::new())
    }

    /// Whether fragments must reach the peer's unpacker in order
    /// (Listing 2's `inorder` flag). Defaults to `true`, the conservative
    /// choice; implementations that are offset-addressed can return `false`
    /// to let advanced transports reorder.
    fn inorder(&self) -> bool {
        true
    }

    /// Offset-addressed concurrent view of this context, if it has one.
    ///
    /// Returning `Some` asserts that [`RandomAccessPacker::pack_at`] calls
    /// with disjoint offset ranges may run concurrently from several
    /// threads; the fabric's parallel fragment pipeline then packs this
    /// send's fragments in parallel. The default (`None`) keeps the context
    /// on the serial engine — correct for any stateful/streaming packer.
    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        None
    }

    /// 64-bit structural signature of the datatype this context serializes,
    /// compared against the receiver's under `MPICD_TYPECHECK` (see
    /// `mpicd_datatype::signature64`). The default `0` means "unchecked" —
    /// hand-written contexts with no declared type map opt out.
    fn type_signature(&self) -> u64 {
        0
    }
}

/// Receive-side custom serialization context (unpack state).
pub trait CustomUnpack: Send {
    /// Exact number of packed-stream bytes this receive expects. The
    /// receive side must know component lengths in advance (paper §VI);
    /// protocols that cannot know ship a header first (see `mpicd-pickle`).
    fn packed_size(&self) -> Result<usize>;

    /// Consume a fragment whose first byte is virtual offset `offset` of
    /// the packed stream (`unpackfn`).
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<()>;

    /// Contiguous destinations for the directly-sent regions.
    fn regions(&mut self) -> Result<Vec<RecvRegion>> {
        Ok(Vec::new())
    }

    /// Called once after every packed byte and region has arrived; a last
    /// chance to validate and finish reconstruction.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }

    /// Offset-addressed concurrent view of this context, if it has one.
    ///
    /// Returning `Some` asserts that [`RandomAccessUnpacker::unpack_at`]
    /// calls with disjoint packed-stream ranges write disjoint memory and
    /// may run concurrently. The default (`None`) keeps the context on the
    /// serial engine.
    fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
        None
    }

    /// 64-bit structural signature of the datatype this context expects,
    /// compared against the sender's under `MPICD_TYPECHECK`. The default
    /// `0` means "unchecked".
    fn type_signature(&self) -> u64 {
        0
    }
}

// ---- adapters into the fabric's generic-datatype path ----------------------

/// Wraps a `CustomPack` as a fabric fragment packer.
pub(crate) struct PackAdapter<'a>(pub Box<dyn CustomPack + 'a>);

impl FragmentPacker for PackAdapter<'_> {
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> std::result::Result<usize, i32> {
        self.0.pack(offset, dst).map_err(|e| e.code())
    }

    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        self.0.random_access()
    }
}

/// Convenience `CustomPack` for a borrowed byte slice plus a pre-packed
/// header — useful in tests and simple protocols.
pub struct HeaderAndRegion<'a> {
    header: Vec<u8>,
    region: &'a [u8],
}

impl<'a> HeaderAndRegion<'a> {
    /// Pack `header` in-band and expose `region` for direct transfer.
    pub fn new(header: Vec<u8>, region: &'a [u8]) -> Self {
        Self { header, region }
    }
}

impl CustomPack for HeaderAndRegion<'_> {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.header.len())
    }

    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
        let n = dst.len().min(self.header.len() - offset);
        dst[..n].copy_from_slice(&self.header[offset..offset + n]);
        Ok(n)
    }

    fn regions(&mut self) -> Result<Vec<SendRegion>> {
        Ok(vec![SendRegion::from_slice(self.region)])
    }

    fn inorder(&self) -> bool {
        false // offset-addressed; order-independent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn regions_from_typed_slices() {
        let data = [1i32, 2, 3];
        let r = SendRegion::from_typed(&data);
        assert_eq!(r.len, 12);
        let mut out = [0f64; 4];
        let r = RecvRegion::from_typed(&mut out);
        assert_eq!(r.len, 32);
    }

    #[test]
    fn header_and_region_packs_header() {
        let body = [9u8; 100];
        let mut ctx = HeaderAndRegion::new(vec![1, 2, 3, 4], &body);
        assert_eq!(ctx.packed_size().unwrap(), 4);
        let mut dst = [0u8; 2];
        assert_eq!(ctx.pack(0, &mut dst).unwrap(), 2);
        assert_eq!(dst, [1, 2]);
        assert_eq!(ctx.pack(2, &mut dst).unwrap(), 2);
        assert_eq!(dst, [3, 4]);
        let regions = ctx.regions().unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].len, 100);
        assert!(!ctx.inorder());
    }

    #[test]
    fn adapter_translates_error_codes() {
        struct Failing;
        impl CustomPack for Failing {
            fn packed_size(&self) -> Result<usize> {
                Ok(8)
            }
            fn pack(&mut self, _offset: usize, _dst: &mut [u8]) -> Result<usize> {
                Err(Error::Serialization(55))
            }
        }
        let mut a = PackAdapter(Box::new(Failing));
        let mut buf = [0u8; 8];
        assert_eq!(FragmentPacker::pack(&mut a, 0, &mut buf), Err(55));
    }
}
