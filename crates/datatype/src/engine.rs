//! Stateful pack/unpack adapters over a [`Committed`] type.
//!
//! These own everything a pipelined transport needs to pull packed
//! fragments on demand (or scatter incoming fragments), mirroring how Open
//! MPI's convertor object carries a datatype, a base pointer, and a count
//! through a fragmented send. The higher `mpicd` layer plugs them directly
//! into the fabric's generic-datatype path.

// Audited unsafe: serial pack engine pointer walks; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::committed::Committed;
use crate::error::DatatypeResult;
use std::sync::Arc;

/// A resumable packer: produces arbitrary byte ranges of the packed stream
/// of `count` elements at `base`.
pub struct DatatypePacker {
    committed: Arc<Committed>,
    base: *const u8,
    count: usize,
}

// SAFETY: the creator guarantees (via `new`'s contract) that the buffer is
// valid and immutable for the adapter's lifetime, on whichever thread uses it.
unsafe impl Send for DatatypePacker {}

// SAFETY: `pack_at` only reads — from the committed plan (immutable) and the
// source buffer (immutable per `new`'s contract) — so concurrent calls from
// the fabric's parallel fragment pipeline are safe.
unsafe impl Sync for DatatypePacker {}

impl DatatypePacker {
    /// Create a packer over `count` elements based at `base`.
    ///
    /// # Safety
    /// `base` must remain valid for reads over every typemap block of all
    /// `count` elements for the packer's entire lifetime.
    pub unsafe fn new(committed: Arc<Committed>, base: *const u8, count: usize) -> Self {
        Self {
            committed,
            base,
            count,
        }
    }

    /// Total packed size in bytes, or
    /// [`crate::DatatypeError::CountOverflow`] when that exceeds `usize`.
    pub fn packed_size(&self) -> DatatypeResult<usize> {
        self.committed.packed_len(self.count)
    }

    /// Produce packed bytes starting at `offset`; returns bytes written.
    pub fn pack(&mut self, offset: usize, dst: &mut [u8]) -> usize {
        self.pack_at(offset, dst)
    }

    /// [`Self::pack`] through a shared reference. Packing is stateless per
    /// call (the committed plan addresses any offset directly), so disjoint
    /// fragments may be produced concurrently — this is what lets the
    /// fabric's parallel pipeline drive a typed send from several threads.
    pub fn pack_at(&self, offset: usize, dst: &mut [u8]) -> usize {
        // SAFETY: `new`'s contract.
        unsafe {
            self.committed
                .pack_segment(self.base, self.count, offset, dst)
        }
    }

    /// Contiguous memory runs the packed stream gathers.
    pub fn runs(&self) -> usize {
        runs(&self.committed, self.count)
    }
}

/// A resumable unpacker: scatters arbitrary byte ranges of an incoming
/// packed stream into `count` elements at `base`.
pub struct DatatypeUnpacker {
    committed: Arc<Committed>,
    base: *mut u8,
    count: usize,
}

// SAFETY: see `DatatypePacker`.
unsafe impl Send for DatatypeUnpacker {}

// SAFETY: `unpack_at` writes only the typemap blocks addressed by the byte
// range it is handed; the fabric's parallel pipeline guarantees concurrent
// calls receive disjoint stream ranges, which map to disjoint memory.
unsafe impl Sync for DatatypeUnpacker {}

impl DatatypeUnpacker {
    /// Create an unpacker over `count` elements based at `base`.
    ///
    /// # Safety
    /// `base` must remain valid for writes over every typemap block of all
    /// `count` elements for the unpacker's entire lifetime, with no other
    /// access in between.
    pub unsafe fn new(committed: Arc<Committed>, base: *mut u8, count: usize) -> Self {
        Self {
            committed,
            base,
            count,
        }
    }

    /// Total packed size in bytes, or
    /// [`crate::DatatypeError::CountOverflow`] when that exceeds `usize`.
    pub fn packed_size(&self) -> DatatypeResult<usize> {
        self.committed.packed_len(self.count)
    }

    /// Consume packed bytes whose first byte is stream offset `offset`.
    pub fn unpack(&mut self, offset: usize, src: &[u8]) -> usize {
        self.unpack_at(offset, src)
    }

    /// [`Self::unpack`] through a shared reference, for concurrent
    /// scattering of *disjoint* stream ranges (disjoint packed offsets map
    /// to disjoint typemap blocks in memory).
    pub fn unpack_at(&self, offset: usize, src: &[u8]) -> usize {
        // SAFETY: `new`'s contract plus range disjointness (see `Sync`).
        unsafe {
            self.committed
                .unpack_segment(self.base, self.count, offset, src)
        }
    }

    /// Contiguous memory runs the packed stream scatters into.
    pub fn runs(&self) -> usize {
        runs(&self.committed, self.count)
    }
}

/// Contiguous runs of `count` elements of `committed`: one for a dense
/// type, else its merged blocks per element, `count` times.
fn runs(committed: &Committed, count: usize) -> usize {
    if committed.is_contiguous() {
        1
    } else {
        committed.block_count().saturating_mul(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::Primitive;
    use crate::typ::Datatype;

    fn struct_simple() -> Arc<Committed> {
        Arc::new(
            Datatype::structure(vec![
                (3, 0, Datatype::Predefined(Primitive::Int32)),
                (1, 16, Datatype::Predefined(Primitive::Double)),
            ])
            .commit()
            .unwrap(),
        )
    }

    #[test]
    fn packer_unpacker_pipeline() {
        let c = struct_simple();
        let src: Vec<u8> = (0..120).map(|i| i as u8).collect(); // 5 elements
        let mut dst = vec![0u8; 120];
        let mut packer = unsafe { DatatypePacker::new(Arc::clone(&c), src.as_ptr(), 5) };
        let mut unpacker = unsafe { DatatypeUnpacker::new(Arc::clone(&c), dst.as_mut_ptr(), 5) };
        assert_eq!(packer.packed_size(), Ok(100));

        // Simulate a fragmented wire with 17-byte fragments.
        let mut off = 0;
        let mut frag = [0u8; 17];
        loop {
            let n = packer.pack(off, &mut frag);
            if n == 0 {
                break;
            }
            assert_eq!(unpacker.unpack(off, &frag[..n]), n);
            off += n;
        }
        assert_eq!(off, 100);

        // Compare data bytes (the 12..16 gap per element is unspecified).
        for e in 0..5 {
            let b = e * 24;
            assert_eq!(&dst[b..b + 12], &src[b..b + 12]);
            assert_eq!(&dst[b + 16..b + 24], &src[b + 16..b + 24]);
        }
    }

    #[test]
    fn adapters_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DatatypePacker>();
        assert_send::<DatatypeUnpacker>();
    }
}
