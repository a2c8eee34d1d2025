//! End-to-end tests for cross-rank datatype signature enforcement
//! (`MPICD_TYPECHECK`) and the structural-key machinery behind it.
//!
//! Covers the ISSUE acceptance pair — `{f64, f64, i32}` sent into a
//! receive posted as `{f64, i32, f64}` — on both the in-process typed path
//! and the marshalled-header path, in all three knob modes, plus the
//! cross-constructor key64 property over every DDTBench pattern and the
//! pack-engine byte-identity property for `derive_datatype!` types.

use mpicd::derive::slice_pack;
use mpicd::fabric::{FabricError, MatchConfig, PipelineConfig, TypecheckMode, WireModel};
use mpicd::{transfer_typed, Communicator, StaticDatatype, World};
use mpicd_datatype::engine::{DatatypePacker, DatatypeUnpacker};
use mpicd_datatype::Committed;
use mpicd_datatype::{
    key64, marshal_with_header, signature64, structural_key, type_map, unmarshal_with_header,
    Datatype, Primitive,
};
use std::sync::Arc;

/// Two-rank world with the typecheck mode pinned programmatically so the
/// tests cannot race on the `MPICD_TYPECHECK` environment variable.
fn world(mode: TypecheckMode) -> World {
    World::with_config(
        2,
        WireModel::default(),
        PipelineConfig::with_threads(1),
        MatchConfig::default().with_typecheck(mode),
    )
}

/// The acceptance pair: same primitives, different order, laid out at
/// their natural repr(C) offsets. Same MPI *signature*, different
/// structural keys.
fn acceptance_pair() -> (Datatype, Datatype) {
    let ffi = Datatype::structure(vec![
        (1, 0, Datatype::predefined(Primitive::Double)),
        (1, 8, Datatype::predefined(Primitive::Double)),
        (1, 16, Datatype::predefined(Primitive::Int32)),
    ]);
    let fif = Datatype::structure(vec![
        (1, 0, Datatype::predefined(Primitive::Double)),
        (1, 8, Datatype::predefined(Primitive::Int32)),
        (1, 16, Datatype::predefined(Primitive::Double)),
    ]);
    (ffi, fif)
}

/// Drive one typed message `a → b` with *different* declared types on each
/// side — the cross-rank disagreement the typecheck exists to catch. Both
/// posts are nonblocking (a deferred send would deadlock a blocking call on
/// one thread); returns the receive outcome in bytes.
fn typed_exchange(
    a: &Communicator,
    b: &Communicator,
    sregion: &[u8],
    rregion: &mut [u8],
    sty: &Arc<Committed>,
    rty: &Arc<Committed>,
) -> Result<usize, FabricError> {
    // SAFETY: both regions outlive the waits below.
    let sreq = unsafe {
        a.post_typed_send(sregion.as_ptr(), 1, sty, b.rank(), 0)
            .unwrap()
    };
    let rreq = unsafe {
        b.post_typed_recv(rregion.as_mut_ptr(), 1, rty, a.rank() as i32, 0)
            .unwrap()
    };
    let out = rreq.wait().map(|env| env.bytes);
    sreq.wait()
        .expect("the sender completes even when the receiver rejects the type");
    out
}

#[test]
fn enforce_rejects_mismatched_typed_pair() {
    let (ffi, fif) = acceptance_pair();
    let (sent_sig, expected_sig) = (signature64(&ffi).unwrap(), signature64(&fif).unwrap());
    assert_ne!(sent_sig, expected_sig, "the pair must have distinct keys");

    let w = world(TypecheckMode::Enforce);
    let (a, b) = w.pair();
    let sty = ffi.commit().map(Arc::new).unwrap();
    let rty = fif.commit().map(Arc::new).unwrap();
    let sregion = vec![0x5Au8; sty.extent()];
    let mut rregion = vec![0u8; rty.extent()];
    let err = typed_exchange(&a, &b, &sregion, &mut rregion, &sty, &rty).unwrap_err();
    match err {
        FabricError::TypeMismatch { sent, expected } => {
            assert_eq!(sent, sent_sig);
            assert_eq!(expected, expected_sig);
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
    assert_eq!(w.fabric().stats().type_mismatch, 1);
    assert!(
        rregion.iter().all(|&b| b == 0),
        "enforce must reject before any bytes are unpacked"
    );
}

#[test]
fn warn_counts_and_delivers() {
    let (ffi, fif) = acceptance_pair();
    let w = world(TypecheckMode::Warn);
    let (a, b) = w.pair();
    let sty = ffi.commit().map(Arc::new).unwrap();
    let rty = fif.commit().map(Arc::new).unwrap();
    let sregion = vec![0x5Au8; sty.extent()];
    let mut rregion = vec![0u8; rty.extent()];
    let bytes = typed_exchange(&a, &b, &sregion, &mut rregion, &sty, &rty).unwrap();
    assert_eq!(bytes, sty.size());
    assert_eq!(w.fabric().stats().type_mismatch, 1);
    assert!(rregion.iter().any(|&b| b != 0), "warn mode still delivers");
}

#[test]
fn off_is_silent() {
    let (ffi, fif) = acceptance_pair();
    let w = world(TypecheckMode::Off);
    let (a, b) = w.pair();
    let sty = ffi.commit().map(Arc::new).unwrap();
    let rty = fif.commit().map(Arc::new).unwrap();
    let sregion = vec![0x5Au8; sty.extent()];
    let mut rregion = vec![0u8; rty.extent()];
    typed_exchange(&a, &b, &sregion, &mut rregion, &sty, &rty).unwrap();
    assert_eq!(w.fabric().stats().type_mismatch, 0);
}

#[test]
fn matched_pair_passes_all_modes() {
    for mode in [
        TypecheckMode::Off,
        TypecheckMode::Warn,
        TypecheckMode::Enforce,
    ] {
        let (ffi, _) = acceptance_pair();
        let w = world(mode);
        let (a, b) = w.pair();
        let ty = ffi.commit().map(Arc::new).unwrap();
        let sregion: Vec<u8> = (0..ty.extent() as u8).collect();
        let mut rregion = vec![0u8; ty.extent()];
        let st = transfer_typed(&a, &b, &sregion, &mut rregion, 1, &ty, 0).unwrap();
        assert_eq!(st.bytes, ty.size());
        assert_eq!(w.fabric().stats().type_mismatch, 0, "mode {mode:?}");
        // The type map covers bytes 0..20 (two doubles + one i32); those
        // must arrive intact in every mode.
        assert_eq!(rregion[..20], sregion[..20], "mode {mode:?}");
    }
}

#[test]
fn marshalled_header_carries_signature_to_the_fabric() {
    // Sender side: marshal the datatype with its structural key in the
    // 0xC6 header frame, as the context path does for marshalled sends.
    let (ffi, fif) = acceptance_pair();
    let sig = signature64(&ffi).unwrap();
    let wire = marshal_with_header(&ffi, sig);

    // Receiver side: decode the frame; the key survives the round trip
    // and still matches the decoded type's own key.
    let (decoded, wire_sig) = unmarshal_with_header(&wire).unwrap();
    assert_eq!(wire_sig, sig);
    assert_eq!(signature64(&decoded).unwrap(), sig);

    // Drive the decoded type into a mismatched posted receive under
    // enforce: the fabric rejects with exactly the marshalled key.
    let w = world(TypecheckMode::Enforce);
    let (a, b) = w.pair();
    let sty = decoded.commit().map(Arc::new).unwrap();
    let rty = fif.commit().map(Arc::new).unwrap();
    let sregion = vec![1u8; sty.extent()];
    let mut rregion = vec![0u8; rty.extent()];
    let err = typed_exchange(&a, &b, &sregion, &mut rregion, &sty, &rty).unwrap_err();
    match err {
        FabricError::TypeMismatch { sent, expected } => {
            assert_eq!(sent, wire_sig, "fabric enforces the marshalled key");
            assert_eq!(expected, signature64(&fif).unwrap());
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
}

#[test]
fn ddtbench_key_collisions_imply_identical_type_maps() {
    // StructuralKey is a hash; the safety claim is that across every
    // DDTBench pattern (at several sizes) a key collision only ever
    // happens between byte-identical type maps.
    let mut types = Vec::new();
    for name in mpicd_ddtbench::BENCHMARKS {
        for target in [4 << 10, 64 << 10] {
            let t = mpicd_ddtbench::make(name, target).datatype();
            types.push((format!("{name}@{target}"), t));
        }
    }
    let mut distinct = std::collections::HashSet::new();
    for (name, t) in &types {
        let k = key64(&structural_key(t).unwrap());
        assert_ne!(k, 0, "{name}: key64 never returns the unchecked sentinel");
        assert_eq!(
            k,
            signature64(t).unwrap(),
            "{name}: signature64 is key64 of the key"
        );
        distinct.insert(k);
    }
    assert!(distinct.len() > 1, "patterns must not all collide");
    for (i, (na, a)) in types.iter().enumerate() {
        for (nb, b) in &types[i + 1..] {
            if key64(&structural_key(a).unwrap()) == key64(&structural_key(b).unwrap()) {
                assert_eq!(
                    type_map(a),
                    type_map(b),
                    "{na} and {nb} collide on key64 but have different maps"
                );
                assert_eq!(a.extent(), b.extent(), "{na} vs {nb}: extent committed too");
            }
        }
    }
}

mpicd::derive_datatype! {
    /// DDTBench-flavoured particle record: array + nested struct + tail.
    pub struct Body {
        pos: [f64; 3],
        vel: [f32; 2],
        charge: i16,
        id: i64,
    }
}

#[test]
fn derived_types_pack_identically_across_engines() {
    let bodies: Vec<Body> = (0..7)
        .map(|i| Body {
            pos: [i as f64, i as f64 * 0.5, -1.0],
            vel: [i as f32, 2.0],
            charge: i as i16 - 3,
            id: 1_000 + i as i64,
        })
        .collect();

    // Plan-compiled path, exactly as a derived send would pack.
    let mut planned = vec![0u8; bodies.len() * Body::committed().size()];
    {
        let mut ctx = slice_pack(&bodies);
        let mut off = 0;
        while off < planned.len() {
            let used = mpicd::CustomPack::pack(&mut ctx, off, &mut planned[off..]).unwrap();
            assert!(used > 0, "packer must make progress");
            off += used;
        }
    }

    // Interpreted and convertor engines over the same description.
    let dt = Body::datatype();
    for (engine, committed) in [
        ("interpreted", dt.commit_interpreted().unwrap()),
        ("convertor", dt.commit_convertor().unwrap()),
    ] {
        let committed = Arc::new(committed);
        // SAFETY: `bodies` outlives the packer; len covers all elements.
        let packer = unsafe {
            DatatypePacker::new(
                committed.clone(),
                bodies.as_ptr() as *const u8,
                bodies.len(),
            )
        };
        let mut out = vec![0u8; packer.packed_size().unwrap()];
        let written = packer.pack_at(0, &mut out);
        assert_eq!(written, out.len());
        assert_eq!(out, planned, "{engine} engine disagrees with the plan");

        // And the unpack side round-trips the fields bit-for-bit.
        let mut back = vec![
            Body {
                pos: [0.0; 3],
                vel: [0.0; 2],
                charge: 0,
                id: 0,
            };
            bodies.len()
        ];
        // SAFETY: `back` outlives the unpacker; len covers all elements.
        let mut unpacker =
            unsafe { DatatypeUnpacker::new(committed, back.as_mut_ptr() as *mut u8, back.len()) };
        assert_eq!(unpacker.unpack(0, &out), out.len());
        assert_eq!(back, bodies, "{engine} engine round-trip");
    }
}
