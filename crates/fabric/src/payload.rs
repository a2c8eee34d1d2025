//! Payload descriptors — the fabric-level equivalents of
//! `UCP_DATATYPE_CONTIG`, `UCP_DATATYPE_IOV` and `UCP_DATATYPE_GENERIC`.
//!
//! A send and a receive are matched by tag and then paired as two *byte
//! streams*: the sender's segments are read in order and scattered into the
//! receiver's segments in order (UCX iov semantics). Generic descriptors
//! additionally route their leading "packed" segment through application
//! callbacks fragment by fragment, with explicit virtual byte offsets — the
//! exact contract of the paper's `MPI_Type_custom_pack_function` /
//! `MPI_Type_custom_unpack_function` (Listing 4).

// Audited unsafe: iovec raw-pointer segment views; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use std::fmt;

/// One contiguous, readable memory region of a send payload.
///
/// Raw-pointer based, like `ucp_dt_iov_t`. The poster guarantees validity
/// and immutability for the lifetime of the operation.
#[derive(Clone, Copy)]
pub struct IovEntry {
    /// Base address of the region.
    pub ptr: *const u8,
    /// Length in bytes.
    pub len: usize,
}

// SAFETY: the fabric only dereferences entries between post and completion,
// during which the (unsafe) post contract guarantees exclusive-enough access.
unsafe impl Send for IovEntry {}

impl IovEntry {
    /// Describe an existing slice.
    pub fn from_slice(s: &[u8]) -> Self {
        Self {
            ptr: s.as_ptr(),
            len: s.len(),
        }
    }

    /// Describe a typed slice as a region of raw bytes.
    pub fn from_typed<T: Copy>(s: &[T]) -> Self {
        Self {
            ptr: s.as_ptr().cast(),
            len: std::mem::size_of_val(s),
        }
    }

    /// View the region as a slice.
    ///
    /// # Safety
    /// The region must still be valid and not mutated for the returned
    /// lifetime.
    pub unsafe fn as_slice<'a>(&self) -> &'a [u8] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }
}

impl fmt::Debug for IovEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IovEntry({:p}, {} B)", self.ptr, self.len)
    }
}

/// One contiguous, writable memory region of a receive payload.
#[derive(Clone, Copy)]
pub struct IovEntryMut {
    /// Base address of the region.
    pub ptr: *mut u8,
    /// Length in bytes.
    pub len: usize,
}

// SAFETY: see `IovEntry`.
unsafe impl Send for IovEntryMut {}

impl IovEntryMut {
    /// Describe an existing mutable slice.
    pub fn from_slice(s: &mut [u8]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
        }
    }

    /// Describe a typed mutable slice as a region of raw bytes.
    pub fn from_typed<T: Copy>(s: &mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr().cast(),
            len: std::mem::size_of_val(s),
        }
    }

    /// View the region as a mutable slice.
    ///
    /// # Safety
    /// The region must still be valid and exclusively borrowed for the
    /// returned lifetime.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice<'a>(&self) -> &'a mut [u8] {
        std::slice::from_raw_parts_mut(self.ptr, self.len)
    }
}

impl fmt::Debug for IovEntryMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IovEntryMut({:p}, {} B)", self.ptr, self.len)
    }
}

/// Shared, offset-addressed view of a packer — the *random access*
/// capability that admits a packer to the fragment engine's worker pool.
///
/// Implementations promise that `pack_at` is a pure function of `offset`:
/// any byte range of the packed stream can be produced independently, in
/// any order, from any thread (`Sync`). Plan-backed datatype engines and
/// `LoopNest` traversals satisfy this; stateful streaming callbacks do not.
pub trait RandomAccessPacker: Sync {
    /// Produce packed bytes starting at virtual byte `offset` into `dst`.
    ///
    /// Same partial-fill contract as [`FragmentPacker::pack`], but callable
    /// concurrently: the engine guarantees concurrent calls use disjoint
    /// offset ranges.
    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> Result<usize, i32>;

    /// How many contiguous memory runs the packed stream gathers, if the
    /// packer knows: the fragment engine then models its cost like a
    /// region list when deciding whether to pool it. `None` (the default)
    /// leaves it opaque, charged one pool job per fragment.
    fn runs(&self) -> Option<usize> {
        None
    }
}

/// Shared, offset-addressed view of an unpacker (see [`RandomAccessPacker`]).
///
/// Implementations additionally promise that fragments at disjoint packed
/// offsets land in disjoint memory, so concurrent delivery is race-free —
/// true of typemap-driven scatters, where each packed byte maps to exactly
/// one destination byte.
pub trait RandomAccessUnpacker: Sync {
    /// Consume `src`, whose first byte is virtual offset `offset` of the
    /// packed stream. The engine guarantees concurrent calls use disjoint
    /// offset ranges.
    fn unpack_at(&self, offset: usize, src: &[u8]) -> Result<(), i32>;

    /// How many contiguous memory runs the packed stream scatters into,
    /// if known (see [`RandomAccessPacker::runs`]).
    fn runs(&self) -> Option<usize> {
        None
    }
}

/// Application-side packer invoked fragment by fragment
/// (`UCP_DATATYPE_GENERIC` pack / Listing 4 `MPI_Type_custom_pack_function`).
pub trait FragmentPacker: Send {
    /// Pack bytes starting at virtual byte `offset` (within the packed
    /// stream) into `dst`.
    ///
    /// Returns the number of bytes written. The packer **may partially fill**
    /// `dst` — the engine then re-invokes it at the advanced offset with a
    /// fresh fragment, exactly as the paper allows ("The pack function may
    /// choose to only partially fill the buffer"). Returning `Err(code)`
    /// aborts the operation and surfaces
    /// [`FabricError::PackFailed`](crate::FabricError::PackFailed).
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize, i32>;

    /// Opt into the fragment engine's worker pool by exposing a shared
    /// offset-addressed view, or `None` (the default) to stay on the inline
    /// path. Non-random-access callbacks must leave this as `None`.
    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        None
    }
}

/// Application-side unpacker invoked once per received fragment
/// (Listing 4 `MPI_Type_custom_unpack_function`).
pub trait FragmentUnpacker: Send {
    /// Consume `src`, a fragment whose first byte sits at virtual byte
    /// `offset` of the packed stream. Fragments arrive in order unless the
    /// sender cleared `inorder` *and* the wire model enables out-of-order
    /// delivery.
    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<(), i32>;

    /// Opt into the fragment engine's worker pool (see
    /// [`FragmentPacker::random_access`]). Default: inline only.
    fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
        None
    }
}

/// Closure adapter: any `FnMut(usize, &mut [u8]) -> Result<usize, i32>` is a
/// packer.
impl<F> FragmentPacker for F
where
    F: FnMut(usize, &mut [u8]) -> Result<usize, i32> + Send,
{
    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize, i32> {
        self(offset, dst)
    }
}

/// What a sender hands to the fabric.
pub enum SendDesc {
    /// A single contiguous buffer (`UCP_DATATYPE_CONTIG`). Small payloads go
    /// eagerly through a bounce buffer; large ones use rendezvous.
    Contig(IovEntry),
    /// A scatter/gather list (`UCP_DATATYPE_IOV`): zero-copy, pipelined, no
    /// eager bounce and no rendezvous handshake surcharge — matching the
    /// paper's observation that the custom/iov path is unaffected by the
    /// eager→rendezvous switch (Fig 7).
    Iov(Vec<IovEntry>),
    /// The paper's custom-datatype wire layout: a packed stream produced by
    /// callbacks, followed by directly-sent memory regions ("The packed data
    /// is the first element in the scatter-gather list, following which the
    /// iovec array is filled with any memory region pointers").
    Generic {
        /// Produces the packed stream, fragment by fragment.
        packer: Box<dyn FragmentPacker>,
        /// Exact total length of the packed stream (the query callback's
        /// answer).
        packed_size: usize,
        /// Memory regions appended after the packed stream.
        regions: Vec<IovEntry>,
        /// Require in-order fragment delivery to the peer's unpacker
        /// (Listing 2's `inorder` flag).
        inorder: bool,
    },
}

impl SendDesc {
    /// Total payload bytes this descriptor will put on the wire.
    pub fn total_bytes(&self) -> usize {
        match self {
            Self::Contig(e) => e.len,
            Self::Iov(v) => v.iter().map(|e| e.len).sum(),
            Self::Generic {
                packed_size,
                regions,
                ..
            } => *packed_size + regions.iter().map(|e| e.len).sum::<usize>(),
        }
    }

    /// Number of scatter/gather entries as seen by the wire.
    pub fn region_count(&self) -> usize {
        match self {
            Self::Contig(_) => 1,
            Self::Iov(v) => v.len().max(1),
            Self::Generic { regions, .. } => 1 + regions.len(),
        }
    }
}

impl fmt::Debug for SendDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Contig(e) => write!(f, "SendDesc::Contig({} B)", e.len),
            Self::Iov(v) => write!(f, "SendDesc::Iov({} entries)", v.len()),
            Self::Generic {
                packed_size,
                regions,
                inorder,
                ..
            } => write!(
                f,
                "SendDesc::Generic(packed {} B + {} regions, inorder={})",
                packed_size,
                regions.len(),
                inorder
            ),
        }
    }
}

/// What a receiver hands to the fabric.
pub enum RecvDesc {
    /// Receive into one contiguous buffer.
    Contig(IovEntryMut),
    /// Scatter the incoming byte stream across several regions.
    Iov(Vec<IovEntryMut>),
    /// Mirror of [`SendDesc::Generic`]: the first `packed_size` incoming
    /// bytes are fed to the unpacker fragment by fragment, the remainder is
    /// scattered into `regions`.
    Generic {
        /// Consumes the packed stream.
        unpacker: Box<dyn FragmentUnpacker>,
        /// Exact expected length of the packed stream. The receive side must
        /// know component lengths in advance (paper §VI "Limitations");
        /// higher layers ship them in a header.
        packed_size: usize,
        /// Destinations for the directly-sent regions.
        regions: Vec<IovEntryMut>,
    },
    /// The wrapped descriptor's memory regions are *fresh*: allocated but
    /// never initialized. The engine writes them only through raw copies,
    /// and zero-fills a fresh range before a pack callback is handed it,
    /// so no callback ever sees uninitialized bytes. Only this variant
    /// pays for that fill.
    Fresh(Box<RecvDesc>),
}

impl RecvDesc {
    /// Mark this descriptor's memory regions fresh (see [`Self::Fresh`]).
    pub fn fresh(self) -> Self {
        Self::Fresh(Box::new(self))
    }

    /// Maximum payload bytes this descriptor can absorb.
    pub fn capacity(&self) -> usize {
        match self {
            Self::Fresh(d) => d.capacity(),
            Self::Contig(e) => e.len,
            Self::Iov(v) => v.iter().map(|e| e.len).sum(),
            Self::Generic {
                packed_size,
                regions,
                ..
            } => *packed_size + regions.iter().map(|e| e.len).sum::<usize>(),
        }
    }

    /// Number of scatter entries as seen by the wire.
    pub fn region_count(&self) -> usize {
        match self {
            Self::Fresh(d) => d.region_count(),
            Self::Contig(_) => 1,
            Self::Iov(v) => v.len().max(1),
            Self::Generic { regions, .. } => 1 + regions.len(),
        }
    }
}

impl fmt::Debug for RecvDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Fresh(d) => write!(f, "RecvDesc::Fresh({d:?})"),
            Self::Contig(e) => write!(f, "RecvDesc::Contig({} B)", e.len),
            Self::Iov(v) => write!(f, "RecvDesc::Iov({} entries)", v.len()),
            Self::Generic {
                packed_size,
                regions,
                ..
            } => write!(
                f,
                "RecvDesc::Generic(packed {} B + {} regions)",
                packed_size,
                regions.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_regions() {
        let a = [1u8; 100];
        let b = [2u8; 50];
        let d = SendDesc::Iov(vec![IovEntry::from_slice(&a), IovEntry::from_slice(&b)]);
        assert_eq!(d.total_bytes(), 150);
        assert_eq!(d.region_count(), 2);

        let g = SendDesc::Generic {
            packer: Box::new(|_o: usize, _d: &mut [u8]| Ok(0usize)),
            packed_size: 24,
            regions: vec![IovEntry::from_slice(&a)],
            inorder: false,
        };
        assert_eq!(g.total_bytes(), 124);
        assert_eq!(g.region_count(), 2);
    }

    #[test]
    fn recv_capacity() {
        let mut a = [0u8; 64];
        let d = RecvDesc::Contig(IovEntryMut::from_slice(&mut a));
        assert_eq!(d.capacity(), 64);
        assert_eq!(d.region_count(), 1);
        let f = d.fresh();
        assert_eq!((f.capacity(), f.region_count()), (64, 1));
    }

    #[test]
    fn closure_is_a_packer() {
        let mut count = 0usize;
        let mut p = |offset: usize, dst: &mut [u8]| {
            count += 1;
            let n = dst.len().min(4);
            dst[..n].fill(offset as u8);
            Ok(n)
        };
        let mut buf = [0u8; 8];
        let used = FragmentPacker::pack(&mut p, 3, &mut buf).unwrap();
        assert_eq!(used, 4);
        assert_eq!(&buf[..4], &[3, 3, 3, 3]);
    }

    #[test]
    fn empty_iov_counts_one_region() {
        let d = SendDesc::Iov(vec![]);
        assert_eq!(d.total_bytes(), 0);
        assert_eq!(d.region_count(), 1);
    }
}
