//! `custom_struct!` — generated packing, the paper's anticipated ergonomic
//! layer: "In practice an extended Rust MPI implementation supporting our
//! new type interface may implement macros to automatically generate
//! manual packing" (§VII).
//!
//! The macro declares a struct with two field groups and derives the
//! [`Buffer`](crate::Buffer)/[`BufferMut`](crate::BufferMut)
//! implementations:
//!
//! * `scalars { … }` — plain-old-data fields, packed in-band (gap-free,
//!   regardless of the struct's memory layout);
//! * `regions { … }` — `Vec<T>` fields sent/received as zero-copy memory
//!   regions, with length validation on the receive side.
//!
//! ```
//! mpicd::custom_struct! {
//!     /// A halo exchange record.
//!     pub struct Halo {
//!         scalars { step: u64, dt: f64 }
//!         regions { left: Vec<f64>, right: Vec<f64> }
//!     }
//! }
//!
//! let world = mpicd::World::new(2);
//! let (c0, c1) = world.pair();
//! let send = Halo { step: 7, dt: 0.5, left: vec![1.0; 256], right: vec![2.0; 256] };
//! let mut recv = Halo { step: 0, dt: 0.0, left: vec![0.0; 256], right: vec![0.0; 256] };
//! mpicd::transfer(&c0, &c1, &send, &mut recv, 0).unwrap();
//! assert_eq!(recv.step, 7);
//! assert_eq!(recv.left, send.left);
//! ```

// Audited unsafe: macro-generated raw-memory trait impls; every unsafe block carries a SAFETY note.
#![allow(unsafe_code)]

/// Marker for field types the generated packers may copy bytewise.
///
/// # Safety
/// Implementors must be plain-old-data: no padding, no pointers, every bit
/// pattern valid.
pub unsafe trait PodField: Copy + Send + Sync + 'static {}

macro_rules! impl_pod {
    ($($t:ty),*) => {
        $(
            // SAFETY: primitive numeric types are POD.
            unsafe impl PodField for $t {}
        )*
    };
}

impl_pod!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64, bool);

/// Element types allowed in `regions { … }` fields.
///
/// # Safety
/// Same contract as [`PodField`].
pub unsafe trait RegionElem: Copy + Send + Sync + 'static {}

macro_rules! impl_region_elem {
    ($($t:ty),*) => {
        $(
            // SAFETY: primitive numeric types are POD.
            unsafe impl RegionElem for $t {}
        )*
    };
}

impl_region_elem!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Declare a struct with generated custom-serialization support. See the
/// [module documentation](self) for syntax and an example.
#[macro_export]
macro_rules! custom_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            scalars { $($sf:ident : $st:ty),* $(,)? }
            regions { $($rf:ident : Vec<$rt:ty>),* $(,)? }
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Default)]
        $vis struct $name {
            $(pub $sf: $st,)*
            $(pub $rf: Vec<$rt>,)*
        }

        const _: () = {
            use $crate::datatype::{CustomPack, CustomUnpack, RecvRegion, SendRegion};

            #[allow(dead_code)]
            fn __assert_pod() {
                fn pod<T: $crate::macros::PodField>() {}
                fn elem<T: $crate::macros::RegionElem>() {}
                $(pod::<$st>();)*
                $(elem::<$rt>();)*
            }

            /// Packed in-band bytes of the scalar group.
            const SCALAR_BYTES: usize = 0 $(+ ::std::mem::size_of::<$st>())*;

            #[allow(unused_variables, unused_mut)]
            fn encode_header(v: &$name) -> Vec<u8> {
                let mut h = Vec::with_capacity(SCALAR_BYTES);
                $(
                    // SAFETY: PodField guarantees a padding-free bytewise view.
                    h.extend_from_slice(unsafe {
                        ::std::slice::from_raw_parts(
                            &v.$sf as *const $st as *const u8,
                            ::std::mem::size_of::<$st>(),
                        )
                    });
                )*
                h
            }

            struct Pack<'a> {
                header: Vec<u8>,
                #[allow(dead_code)] // unread when the regions group is empty
                owner: &'a $name,
            }

            impl CustomPack for Pack<'_> {
                fn packed_size(&self) -> $crate::Result<usize> {
                    Ok(self.header.len())
                }
                fn pack(&mut self, offset: usize, dst: &mut [u8]) -> $crate::Result<usize> {
                    let n = dst.len().min(self.header.len() - offset);
                    dst[..n].copy_from_slice(&self.header[offset..offset + n]);
                    Ok(n)
                }
                fn regions(&mut self) -> $crate::Result<Vec<SendRegion>> {
                    Ok(vec![$(SendRegion::from_typed(self.owner.$rf.as_slice()),)*])
                }
                fn inorder(&self) -> bool {
                    false
                }
            }

            // SAFETY: the context references only memory owned by the
            // borrowed value.
            unsafe impl $crate::Buffer for $name {
                fn send_view(&self) -> $crate::SendView<'_> {
                    __assert_pod();
                    $crate::SendView::Custom(Box::new(Pack {
                        header: encode_header(self),
                        owner: self,
                    }))
                }
            }

            struct Unpack<'a> {
                header: Vec<u8>,
                owner: &'a mut $name,
            }

            impl CustomUnpack for Unpack<'_> {
                fn packed_size(&self) -> $crate::Result<usize> {
                    Ok(SCALAR_BYTES)
                }
                fn unpack(&mut self, offset: usize, src: &[u8]) -> $crate::Result<()> {
                    if offset + src.len() > self.header.len() {
                        return Err($crate::Error::InvalidHeader(concat!(
                            stringify!($name),
                            ": scalar header overflow"
                        )));
                    }
                    self.header[offset..offset + src.len()].copy_from_slice(src);
                    Ok(())
                }
                fn regions(&mut self) -> $crate::Result<Vec<RecvRegion>> {
                    Ok(vec![$(RecvRegion::from_typed(self.owner.$rf.as_mut_slice()),)*])
                }
                fn finish(&mut self) -> $crate::Result<()> {
                    let mut __at = 0usize;
                    $(
                        {
                            let size = ::std::mem::size_of::<$st>();
                            // SAFETY: PodField; header sized to SCALAR_BYTES.
                            unsafe {
                                ::std::ptr::copy_nonoverlapping(
                                    self.header.as_ptr().add(__at),
                                    &mut self.owner.$sf as *mut $st as *mut u8,
                                    size,
                                );
                            }
                            __at += size;
                        }
                    )*
                    let _ = __at;
                    Ok(())
                }
            }

            // SAFETY: the context references only memory exclusively owned
            // by the borrowed value.
            unsafe impl $crate::BufferMut for $name {
                fn recv_view(&mut self) -> $crate::RecvView<'_> {
                    __assert_pod();
                    $crate::RecvView::Custom(Box::new(Unpack {
                        header: vec![0u8; SCALAR_BYTES],
                        owner: self,
                    }))
                }
            }
        };
    };
}

/// Declare (or annotate) a `#[repr(C)]` struct as a statically verified
/// classic datatype.
///
/// Where [`custom_struct!`](crate::custom_struct) repacks scalars gap-free,
/// `derive_datatype!` keeps the struct's *native* layout and describes it
/// with a classic derived datatype at true `offset_of!` offsets — the
/// DDTBench struct-of-struct shapes that C codes build with `offsetof`.
/// The macro generates:
///
/// * a [`Datatype`](mpicd_datatype::Datatype) description (struct of
///   {primitive, fixed-size array, nested derived struct} fields), exposed
///   through [`StaticDatatype`](crate::derive::StaticDatatype);
/// * [`Buffer`](crate::Buffer)/[`BufferMut`](crate::BufferMut) impls that
///   route through the committed pack plan and attach the 64-bit
///   structural signature checked under `MPICD_TYPECHECK` (for slices of
///   derived elements, see [`slice_pack`](crate::derive::slice_pack));
/// * **const layout proofs**: the declared field list must be exhaustive,
///   every field must be a [`DatatypeField`](crate::derive::DatatypeField),
///   offsets must be monotone and match a replay of the `#[repr(C)]`
///   placement algorithm, and the accounting must reach `size_of` — a
///   wrong declaration is a *compile error*, not wire corruption.
///
/// Two forms: declare a new struct (field attributes allowed), or
/// `for Existing { field: Type, … }` to annotate a struct declared
/// elsewhere in the same module (it must be `#[repr(C)]` and `Copy`).
///
/// ```
/// mpicd::derive_datatype! {
///     /// An interior cell: 8-byte double + 4-byte int + tail padding.
///     pub struct Cell {
///         rho: f64,
///         mat: i32,
///     }
/// }
///
/// mpicd::derive_datatype! {
///     /// A particle record nesting `Cell` and a fixed-size array.
///     pub struct Particle {
///         pos: [f64; 3],
///         cell: Cell,
///         id: i64,
///     }
/// }
///
/// use mpicd::derive::StaticDatatype;
/// // The committed type map mirrors the native layout exactly.
/// assert_eq!(Particle::committed().extent(), std::mem::size_of::<Particle>());
/// assert_ne!(Particle::signature(), Cell::signature());
///
/// let world = mpicd::World::new(2);
/// let (c0, c1) = world.pair();
/// let send = Particle { pos: [1.0, 2.0, 3.0], cell: Cell { rho: 0.5, mat: 7 }, id: 9 };
/// let mut recv = Particle { pos: [0.0; 3], cell: Cell { rho: 0.0, mat: 0 }, id: 0 };
/// mpicd::transfer(&c0, &c1, &send, &mut recv, 0).unwrap();
/// assert_eq!(recv, send);
/// ```
#[macro_export]
macro_rules! derive_datatype {
    // Form 1: declare the struct and derive everything.
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $f:ident : $ft:ty
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[repr(C)]
        #[derive(Debug, Clone, Copy, PartialEq)]
        $vis struct $name {
            $(
                $(#[$fmeta])*
                pub $f: $ft,
            )*
        }

        $crate::derive_datatype!(for $name { $($f: $ft),* });
    };

    // Form 2: derive for an existing #[repr(C)] struct in this module.
    (for $name:ident { $($f:ident : $ft:ty),* $(,)? }) => {
        const _: () = {
            // (proof 1) Exhaustiveness: rebuilding the struct from exactly
            // the declared fields is a compile error when the declaration
            // omits a field (E0063 `missing field ... in initializer`) or
            // names one the struct lacks (E0560) — including fields hidden
            // entirely inside what the size accounting would take for tail
            // padding.
            #[allow(dead_code)]
            fn __exhaustive(v: $name) -> $name {
                $name { $($f: v.$f),* }
            }

            // (proof 2) Every declared field packs bytewise: DatatypeField
            // is the POD + datatype-description bound (`bool` is deliberately
            // excluded — receiving arbitrary bytes into one is UB).
            #[allow(dead_code)]
            fn __fields_pack() {
                fn ok<T: $crate::derive::DatatypeField>() {}
                $(ok::<$ft>();)*
            }

            // (proof 3) Layout accounting: replay the #[repr(C)] placement
            // algorithm over the declared fields and demand the real
            // offsets — and the final size — agree. Catches reordered
            // declarations, missing fields, and non-repr(C) structs.
            const _: () = {
                let mut cursor: usize = 0;
                $(
                    cursor = $crate::derive::repr_c_round_up(
                        cursor,
                        ::std::mem::align_of::<$ft>(),
                    );
                    assert!(
                        ::std::mem::offset_of!($name, $f) == cursor,
                        concat!(
                            "derive_datatype!(", stringify!($name), "): field `",
                            stringify!($f),
                            "` is not at its declared repr(C) offset (fields listed out of order, or the struct is not #[repr(C)])"
                        )
                    );
                    cursor += ::std::mem::size_of::<$ft>();
                )*
                assert!(
                    $crate::derive::repr_c_round_up(cursor, ::std::mem::align_of::<$name>())
                        == ::std::mem::size_of::<$name>(),
                    concat!(
                        "derive_datatype!(", stringify!($name),
                        "): declared fields do not account for size_of (a field is missing, or the struct is not #[repr(C)])"
                    )
                );
            };

            fn __datatype() -> $crate::derived::Datatype {
                $crate::derived::Datatype::structure(vec![
                    $(
                        (
                            1,
                            ::std::mem::offset_of!($name, $f) as isize,
                            <$ft as $crate::derive::DatatypeField>::field_datatype(),
                        ),
                    )*
                ])
            }

            impl $crate::derive::StaticDatatype for $name {
                fn datatype() -> $crate::derived::Datatype {
                    __datatype()
                }

                fn committed() -> &'static ::std::sync::Arc<$crate::derived::Committed> {
                    static COMMITTED: ::std::sync::OnceLock<
                        ::std::sync::Arc<$crate::derived::Committed>,
                    > = ::std::sync::OnceLock::new();
                    COMMITTED.get_or_init(|| {
                        ::std::sync::Arc::new(__datatype().commit().expect(
                            "derive_datatype! layout proofs guarantee a committable type",
                        ))
                    })
                }
            }

            // Nested use: a proven struct is itself a field type.
            // SAFETY: the layout proofs above establish the POD/layout
            // contract; the description covers exactly the live bytes.
            unsafe impl $crate::derive::DatatypeField for $name {
                fn field_datatype() -> $crate::derived::Datatype {
                    __datatype()
                }
            }

            // SAFETY: the context reads only the borrowed value's type-map
            // blocks, which the proofs tie to the true layout.
            unsafe impl $crate::Buffer for $name {
                fn send_view(&self) -> $crate::SendView<'_> {
                    // Always a Custom view (even when gap-free) so the
                    // structural signature travels with every derived send.
                    // SAFETY: the view borrows `self` for its lifetime.
                    $crate::SendView::Custom(Box::new(unsafe {
                        $crate::derive::TypedPack::new(
                            <$name as $crate::derive::StaticDatatype>::committed(),
                            self as *const $name as *const u8,
                            1,
                        )
                    }))
                }
            }

            // SAFETY: the context writes only the exclusively borrowed
            // value's type-map blocks; padding is never touched.
            unsafe impl $crate::BufferMut for $name {
                fn recv_view(&mut self) -> $crate::RecvView<'_> {
                    // SAFETY: the view exclusively borrows `self`.
                    $crate::RecvView::Custom(Box::new(unsafe {
                        $crate::derive::TypedUnpack::new(
                            <$name as $crate::derive::StaticDatatype>::committed(),
                            self as *mut $name as *mut u8,
                            1,
                        )
                    }))
                }
            }

            // (Slices cannot get a generated `Buffer` impl here — `[T]` is
            // a foreign type constructor, so the impl would be an orphan in
            // downstream crates. Use `mpicd::derive::slice_pack` /
            // `slice_unpack` for multi-element derived transfers.)
        };
    };
}

#[cfg(test)]
mod tests {
    use crate::communicator::World;

    crate::custom_struct! {
        /// Test record with every field category.
        pub struct Record {
            scalars { id: u64, weight: f64, flag: bool }
            regions { values: Vec<f64>, tags: Vec<i32> }
        }
    }

    crate::custom_struct! {
        struct ScalarsOnly {
            scalars { a: i32, b: i32 }
            regions { }
        }
    }

    crate::custom_struct! {
        pub struct RegionsOnly {
            scalars { }
            regions { payload: Vec<u8> }
        }
    }

    #[test]
    fn roundtrip_full_record() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let send = Record {
            id: 12345,
            weight: 2.75,
            flag: true,
            values: (0..300).map(|i| i as f64 * 0.5).collect(),
            tags: (0..77).collect(),
        };
        let mut recv = Record {
            values: vec![0.0; 300],
            tags: vec![0; 77],
            ..Record::default()
        };
        crate::transfer(&a, &b, &send, &mut recv, 0).unwrap();
        assert_eq!(recv, send);
        // One message: scalars in-band + two regions.
        let stats = world.fabric().stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.regions, 3);
    }

    #[test]
    fn scalars_only_struct() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let send = ScalarsOnly { a: -7, b: 9 };
        let mut recv = ScalarsOnly::default();
        crate::transfer(&a, &b, &send, &mut recv, 0).unwrap();
        assert_eq!(recv, send);
        assert_eq!(world.fabric().stats().bytes, 8);
    }

    #[test]
    fn regions_only_struct() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let send = RegionsOnly {
            payload: (0..255).collect(),
        };
        let mut recv = RegionsOnly {
            payload: vec![0; 255],
        };
        crate::transfer(&a, &b, &send, &mut recv, 0).unwrap();
        assert_eq!(recv, send);
    }

    #[test]
    fn region_length_mismatch_truncates() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let send = RegionsOnly {
            payload: vec![1; 100],
        };
        let mut recv = RegionsOnly {
            payload: vec![0; 50],
        };
        let err = crate::transfer(&a, &b, &send, &mut recv, 0).unwrap_err();
        assert!(matches!(
            err,
            crate::Error::Fabric(crate::fabric::FabricError::Truncated { .. })
        ));
    }

    #[test]
    fn generated_structs_are_plain_rust() {
        // Clone/Debug/PartialEq/Default all derive.
        let r = Record::default();
        let r2 = r.clone();
        assert_eq!(r, r2);
        assert!(format!("{r:?}").contains("Record"));
    }

    // ---- derive_datatype! ---------------------------------------------------

    use crate::derive::StaticDatatype;

    crate::derive_datatype! {
        /// Gapped interior struct: f64 + i32 + 4 bytes tail padding.
        pub struct Cell {
            rho: f64,
            mat: i32,
        }
    }

    crate::derive_datatype! {
        /// Nested record with a fixed-size array and a derived struct field.
        pub struct Particle {
            pos: [f64; 3],
            cell: Cell,
            id: i64,
        }
    }

    /// The `for Existing { … }` form on a struct declared by hand.
    #[repr(C)]
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Mixed {
        /// Leading small field forces padding before `b`.
        pub a: i16,
        /// 8-aligned field at offset 8.
        pub b: f64,
    }

    crate::derive_datatype!(for Mixed { a: i16, b: f64 });

    #[test]
    fn derived_layout_matches_native() {
        assert_eq!(Cell::committed().extent(), std::mem::size_of::<Cell>());
        assert_eq!(Cell::committed().size(), 12, "live bytes exclude padding");
        assert_eq!(
            Particle::committed().extent(),
            std::mem::size_of::<Particle>()
        );
        assert_eq!(Particle::committed().size(), 24 + 12 + 8);
        assert_eq!(Mixed::committed().extent(), 16);
        assert_eq!(Mixed::committed().size(), 10);
    }

    #[test]
    fn derived_signatures_are_distinct_and_stable() {
        assert_ne!(Cell::signature(), 0);
        assert_ne!(Cell::signature(), Particle::signature());
        assert_ne!(Cell::signature(), Mixed::signature());
        // The signature is the committed type's, byte for byte.
        assert_eq!(Cell::signature(), Cell::committed().signature64());
    }

    #[test]
    fn derived_roundtrip_preserves_fields_not_padding() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let send = Particle {
            pos: [1.5, -2.5, 3.5],
            cell: Cell { rho: 0.25, mat: 42 },
            id: -9,
        };
        let mut recv = Particle {
            pos: [0.0; 3],
            cell: Cell { rho: 0.0, mat: 0 },
            id: 0,
        };
        crate::transfer(&a, &b, &send, &mut recv, 0).unwrap();
        assert_eq!(recv, send);
        // Only the live bytes crossed the wire, not the padding.
        assert_eq!(
            world.fabric().stats().bytes as usize,
            Particle::committed().size()
        );
    }

    #[test]
    fn derived_slices_transfer_as_one_message() {
        let world = World::new(2);
        let (a, b) = world.pair();
        let send: Vec<Cell> = (0..64)
            .map(|i| Cell {
                rho: i as f64 * 0.5,
                mat: i,
            })
            .collect();
        let mut recv = vec![Cell { rho: 0.0, mat: 0 }; 64];
        let mut rctx = crate::derive::slice_unpack(&mut recv);
        crate::transfer_custom(
            &a,
            &b,
            Box::new(crate::derive::slice_pack(&send)),
            &mut rctx,
            0,
        )
        .unwrap();
        drop(rctx);
        assert_eq!(recv, send);
        assert_eq!(world.fabric().stats().messages, 1);
    }

    #[test]
    fn mismatched_derived_pair_fails_under_enforce() {
        // {f64,i32} sent into a receive posted as {f64;3,Cell,i64} — the
        // acceptance-criteria shape: enforce rejects before unpacking.
        let world = crate::communicator::World::with_config(
            2,
            crate::fabric::WireModel::default(),
            crate::fabric::PipelineConfig::with_threads(1),
            crate::fabric::MatchConfig::default()
                .with_typecheck(crate::fabric::TypecheckMode::Enforce),
        );
        let (a, b) = world.pair();
        let send = Cell { rho: 1.0, mat: 1 };
        let mut recv = Particle {
            pos: [0.0; 3],
            cell: Cell { rho: 0.0, mat: 0 },
            id: 0,
        };
        let err = crate::transfer(&a, &b, &send, &mut recv, 0).unwrap_err();
        match err {
            crate::Error::Fabric(crate::fabric::FabricError::TypeMismatch { sent, expected }) => {
                assert_eq!(sent, Cell::signature());
                assert_eq!(expected, Particle::signature());
            }
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
        assert_eq!(world.fabric().stats().type_mismatch, 1);
    }
}
