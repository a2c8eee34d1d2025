//! Support types for [`derive_datatype!`](crate::derive_datatype) —
//! statically verified classic datatypes.
//!
//! The macro in [`crate::macros`] proves at compile time that a declared
//! field list matches a `#[repr(C)]` struct's real layout; this module
//! holds the pieces the generated code leans on:
//!
//! * [`DatatypeField`] — the unsafe marker bound every declared field must
//!   satisfy: a POD type with a classic datatype description. `bool` is
//!   deliberately **not** a field type (receiving arbitrary bytes into a
//!   `bool` is undefined behaviour).
//! * [`StaticDatatype`] — the per-type entry point the macro implements: a
//!   [`Datatype`] description with true offsets, the committed
//!   (plan-compiled) form built once per process, and the 64-bit structural
//!   signature that travels in the transfer header for `MPICD_TYPECHECK`.
//! * [`TypedPack`]/[`TypedUnpack`] — custom-serialization contexts that
//!   route a derived value through the committed pack plan and attach the
//!   signature, so every derived send/receive is checkable on the wire.
//! * [`repr_c_round_up`] — the `#[repr(C)]` field-placement rule, `const`
//!   so the macro's layout proofs replay it at compile time.

// Audited unsafe: raw-pointer pack contexts over caller-owned memory plus
// POD field markers; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

use crate::datatype::{CustomPack, CustomUnpack, RandomAccessPacker, RandomAccessUnpacker};
use crate::error::Result;
use mpicd_datatype::engine::{DatatypePacker, DatatypeUnpacker};
use mpicd_datatype::{Committed, Datatype, Primitive};
use std::marker::PhantomData;
use std::sync::Arc;

/// A field type [`derive_datatype!`](crate::derive_datatype) accepts.
///
/// # Safety
/// Implementors must be plain-old-data with no padding of their own unless
/// [`Self::field_datatype`] describes exactly which bytes are live: the
/// generated pack/unpack contexts copy the type-map blocks bytewise, and
/// every bit pattern the peer may send into those blocks must be a valid
/// value. (`bool` fails that test and has no impl.)
pub unsafe trait DatatypeField: Copy + Send + Sync + 'static {
    /// The classic derived-datatype description of this field type,
    /// relative to the field's own base address.
    fn field_datatype() -> Datatype;
}

macro_rules! impl_field {
    ($($t:ty => $p:expr),* $(,)?) => {
        $(
            // SAFETY: fixed-size numeric POD; every bit pattern is a valid
            // value and the primitive describes the full layout.
            unsafe impl DatatypeField for $t {
                fn field_datatype() -> Datatype {
                    Datatype::predefined($p)
                }
            }
        )*
    };
}

impl_field!(
    u8 => Primitive::Byte,
    i8 => Primitive::Byte,
    u16 => Primitive::Int16,
    i16 => Primitive::Int16,
    u32 => Primitive::Int32,
    i32 => Primitive::Int32,
    u64 => Primitive::Int64,
    i64 => Primitive::Int64,
    f32 => Primitive::Float,
    f64 => Primitive::Double,
);

// SAFETY: an array of POD elements is POD; `contiguous` describes exactly
// N back-to-back elements, which is the array layout guarantee.
unsafe impl<T: DatatypeField, const N: usize> DatatypeField for [T; N] {
    fn field_datatype() -> Datatype {
        Datatype::contiguous(N, T::field_datatype())
    }
}

/// A type whose classic-datatype description was generated (and layout-
/// proved) by [`derive_datatype!`](crate::derive_datatype).
pub trait StaticDatatype {
    /// The full datatype description: a struct of the declared fields at
    /// their true (`offset_of!`) byte offsets.
    fn datatype() -> Datatype;

    /// The committed, plan-compiled form — built once per process and
    /// shared by every operation on this type.
    fn committed() -> &'static Arc<Committed>;

    /// The 64-bit structural signature shipped in the transfer header and
    /// compared under `MPICD_TYPECHECK`.
    fn signature() -> u64 {
        Self::committed().signature64()
    }
}

/// The `#[repr(C)]` field-placement rule: the next field starts at the
/// running offset rounded up to the field's alignment. `const` so the
/// macro's compile-time layout proofs can replay the algorithm.
pub const fn repr_c_round_up(cursor: usize, align: usize) -> usize {
    cursor.div_ceil(align) * align
}

/// Send context for a derived value: packs through the committed plan and
/// attaches the structural signature. Always used as a `Custom` view (even
/// for gap-free types) so the signature travels with every derived send.
pub struct TypedPack<'a> {
    packer: DatatypePacker,
    sig: u64,
    _borrow: PhantomData<&'a [u8]>,
}

impl TypedPack<'_> {
    /// Pack `count` elements of `ty` based at `base`.
    ///
    /// # Safety
    /// `base` must stay valid for reads over every type-map block of all
    /// `count` elements for the context's lifetime.
    pub unsafe fn new(ty: &Arc<Committed>, base: *const u8, count: usize) -> Self {
        Self {
            // SAFETY: forwarded from this constructor's contract.
            packer: unsafe { DatatypePacker::new(Arc::clone(ty), base, count) },
            sig: ty.signature64(),
            _borrow: PhantomData,
        }
    }
}

impl CustomPack for TypedPack<'_> {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.packer.packed_size()?)
    }

    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
        Ok(self.packer.pack(offset, dst))
    }

    fn inorder(&self) -> bool {
        false // the committed plan addresses any stream offset directly
    }

    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        Some(self)
    }

    fn type_signature(&self) -> u64 {
        self.sig
    }
}

impl RandomAccessPacker for TypedPack<'_> {
    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> std::result::Result<usize, i32> {
        Ok(self.packer.pack_at(offset, dst))
    }

    fn runs(&self) -> Option<usize> {
        Some(self.packer.runs())
    }
}

/// Receive context for a derived value: scatters through the committed
/// plan and declares the expected structural signature.
pub struct TypedUnpack<'a> {
    unpacker: DatatypeUnpacker,
    sig: u64,
    _borrow: PhantomData<&'a mut [u8]>,
}

impl TypedUnpack<'_> {
    /// Unpack into `count` elements of `ty` based at `base`.
    ///
    /// # Safety
    /// `base` must stay valid for writes over every type-map block of all
    /// `count` elements for the context's lifetime, with no other access
    /// in between.
    pub unsafe fn new(ty: &Arc<Committed>, base: *mut u8, count: usize) -> Self {
        Self {
            // SAFETY: forwarded from this constructor's contract.
            unpacker: unsafe { DatatypeUnpacker::new(Arc::clone(ty), base, count) },
            sig: ty.signature64(),
            _borrow: PhantomData,
        }
    }
}

impl CustomUnpack for TypedUnpack<'_> {
    fn packed_size(&self) -> Result<usize> {
        Ok(self.unpacker.packed_size()?)
    }

    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<()> {
        self.unpacker.unpack(offset, src);
        Ok(())
    }

    fn random_access(&self) -> Option<&dyn RandomAccessUnpacker> {
        Some(self)
    }

    fn type_signature(&self) -> u64 {
        self.sig
    }
}

impl RandomAccessUnpacker for TypedUnpack<'_> {
    fn unpack_at(&self, offset: usize, src: &[u8]) -> std::result::Result<(), i32> {
        self.unpacker.unpack_at(offset, src);
        Ok(())
    }

    fn runs(&self) -> Option<usize> {
        Some(self.unpacker.runs())
    }
}

/// Safe pack context over a slice of derived elements — one typed message
/// of `items.len()` extent-spaced elements. (The orphan rule keeps
/// `derive_datatype!` from generating `Buffer for [T]` in downstream
/// crates, so slices go through this helper and
/// [`Communicator::send_custom`](crate::Communicator::send_custom) or
/// [`transfer_custom`](crate::transfer_custom).)
pub fn slice_pack<T: StaticDatatype + DatatypeField>(items: &[T]) -> TypedPack<'_> {
    // SAFETY: the borrow ties the base pointer's validity to the context's
    // lifetime; the layout proofs pin extent == size_of, so `len` elements
    // cover exactly the slice.
    unsafe { TypedPack::new(T::committed(), items.as_ptr().cast(), items.len()) }
}

/// Safe unpack context over a mutable slice of derived elements.
pub fn slice_unpack<T: StaticDatatype + DatatypeField>(items: &mut [T]) -> TypedUnpack<'_> {
    // SAFETY: the exclusive borrow guarantees sole access for the
    // context's lifetime; type-map blocks stay inside the slice.
    unsafe { TypedUnpack::new(T::committed(), items.as_mut_ptr().cast(), items.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_fields_describe_their_layout() {
        for (size, dt) in [
            (1, u8::field_datatype()),
            (2, i16::field_datatype()),
            (4, u32::field_datatype()),
            (8, i64::field_datatype()),
            (4, f32::field_datatype()),
            (8, f64::field_datatype()),
        ] {
            assert_eq!(dt.size(), size);
            assert_eq!(dt.extent(), size);
        }
    }

    #[test]
    fn arrays_are_contiguous_fields() {
        let dt = <[f64; 3]>::field_datatype();
        assert_eq!(dt.size(), 24);
        let nested = <[[i32; 2]; 4]>::field_datatype();
        assert_eq!(nested.size(), 32);
    }

    #[test]
    fn repr_c_cursor_rule() {
        assert_eq!(repr_c_round_up(0, 8), 0);
        assert_eq!(repr_c_round_up(1, 8), 8);
        assert_eq!(repr_c_round_up(12, 4), 12);
        assert_eq!(repr_c_round_up(13, 1), 13);
    }
}
