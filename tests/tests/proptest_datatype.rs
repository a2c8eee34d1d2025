//! Property-style tests for the derived-datatype engine, driven by the
//! workspace's seeded xorshift64* PRNG: random type trees, random
//! fragmentations, and the merged-vs-convertor equivalence.

use mpicd_datatype::{Datatype, Primitive};
use mpicd_obs::XorShift64Star;

/// Random leaf primitive.
fn prim(rng: &mut XorShift64Star) -> Datatype {
    match rng.range(0, 3) {
        0 => Datatype::Predefined(Primitive::Byte),
        1 => Datatype::Predefined(Primitive::Int32),
        _ => Datatype::Predefined(Primitive::Double),
    }
}

/// Random non-negative-lb datatype tree of bounded depth. Mirrors the
/// constructor mix the old proptest strategy generated: contiguous,
/// disjoint vector, disjoint ascending indexed, and two-field struct.
fn datatype(rng: &mut XorShift64Star, depth: u32) -> Datatype {
    if depth == 0 || rng.chance(1, 4) {
        return prim(rng);
    }
    match rng.range(0, 4) {
        0 => {
            let count = rng.range(1, 5);
            Datatype::contiguous(count, datatype(rng, depth - 1))
        }
        1 => {
            let count = rng.range(1, 4);
            let bl = rng.range(1, 3);
            // Stride ≥ blocklength keeps blocks disjoint and lb = 0.
            let stride = (bl + 1) as isize;
            Datatype::vector(count, bl, stride, datatype(rng, depth - 1))
        }
        2 => {
            let count = rng.range(1, 4);
            // Disjoint ascending displacements (in child extents).
            let blocks = (0..count).map(|i| (1usize, (i * 2) as isize)).collect();
            Datatype::indexed(blocks, datatype(rng, depth - 1))
        }
        _ => {
            let a = datatype(rng, depth - 1);
            let b = datatype(rng, depth - 1);
            // Two fields, second placed past the first's span.
            let off = (a.extent() as isize).max(8);
            Datatype::structure(vec![(1, 0, a), (1, off, b)])
        }
    }
}

#[test]
fn pack_unpack_roundtrip() {
    let mut rng = XorShift64Star::new(0xDA7A_0001);
    for case in 0..64 {
        let t = datatype(&mut rng, 3);
        let count = rng.range(1, 4);
        let c = t.commit().unwrap();
        if c.size() == 0 {
            continue;
        }
        let span = c.required_span(count).unwrap();
        let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
        let packed = c.pack_slice(&src, count).unwrap();
        assert_eq!(packed.len(), c.size() * count);

        let mut dst = vec![0u8; span];
        c.unpack_slice(&packed, &mut dst, count).unwrap();
        // Repacking the unpacked buffer reproduces the stream.
        let repacked = c.pack_slice(&dst, count).unwrap();
        assert_eq!(repacked, packed, "case {case}: {t:?}");
    }
}

#[test]
fn convertor_and_merged_commits_agree() {
    let mut rng = XorShift64Star::new(0xDA7A_0002);
    for case in 0..64 {
        let t = datatype(&mut rng, 3);
        let count = rng.range(1, 3);
        let merged = t.commit().unwrap();
        let convertor = t.commit_convertor().unwrap();
        assert_eq!(merged.size(), convertor.size());
        assert_eq!(merged.extent(), convertor.extent());
        if merged.size() == 0 {
            continue;
        }
        let span = merged.required_span(count).unwrap();
        let src: Vec<u8> = (0..span).map(|i| (i * 7 % 256) as u8).collect();
        assert_eq!(
            merged.pack_slice(&src, count).unwrap(),
            convertor.pack_slice(&src, count).unwrap(),
            "case {case}: {t:?}"
        );
    }
}

#[test]
fn segmented_pack_reassembles() {
    let mut rng = XorShift64Star::new(0xDA7A_0003);
    for case in 0..64 {
        let t = datatype(&mut rng, 3);
        let frag = rng.range(1, 40);
        let c = t.commit().unwrap();
        if c.size() == 0 {
            continue;
        }
        let count = 3usize;
        let span = c.required_span(count).unwrap();
        let src: Vec<u8> = (0..span).map(|i| (i % 255) as u8).collect();
        let full = c.pack_slice(&src, count).unwrap();

        let mut acc = Vec::new();
        let mut off = 0usize;
        loop {
            let mut buf = vec![0u8; frag];
            let n = unsafe { c.pack_segment(src.as_ptr(), count, off, &mut buf) };
            if n == 0 {
                break;
            }
            acc.extend_from_slice(&buf[..n]);
            off += n;
        }
        assert_eq!(acc, full, "case {case}: frag={frag} {t:?}");
    }
}

#[test]
fn out_of_order_unpack_segments() {
    let mut rng = XorShift64Star::new(0xDA7A_0004);
    for case in 0..64 {
        let t = datatype(&mut rng, 2);
        let seed = rng.range(0, 1000);
        let c = t.commit().unwrap();
        if c.size() == 0 {
            continue;
        }
        let count = 2usize;
        let span = c.required_span(count).unwrap();
        let src: Vec<u8> = (0..span).map(|i| (i % 250) as u8).collect();
        let packed = c.pack_slice(&src, count).unwrap();

        // Split the packed stream at a pseudo-random point; deliver the
        // second half before the first.
        let cut = seed % packed.len().max(1);
        let mut dst = vec![0u8; span];
        unsafe {
            c.unpack_segment(dst.as_mut_ptr(), count, cut, &packed[cut..]);
            c.unpack_segment(dst.as_mut_ptr(), count, 0, &packed[..cut]);
        }
        assert_eq!(
            c.pack_slice(&dst, count).unwrap(),
            packed,
            "case {case}: cut={cut}"
        );
    }
}

#[test]
fn extent_is_at_least_size_for_nonneg_lb() {
    let mut rng = XorShift64Star::new(0xDA7A_0005);
    for _ in 0..64 {
        // All generated types have lb == 0, so the span from 0 to ub must
        // cover every data byte.
        let t = datatype(&mut rng, 3);
        assert!(t.extent() >= t.size(), "{t:?}");
    }
}

#[test]
fn flatten_count_covers_exactly_size_bytes() {
    let mut rng = XorShift64Star::new(0xDA7A_0006);
    for _ in 0..64 {
        let t = datatype(&mut rng, 2);
        let count = rng.range(1, 4);
        let c = t.commit_interpreted().unwrap();
        let total: usize = c.flatten_count(count).unwrap().iter().map(|(_, l)| l).sum();
        assert_eq!(total, c.size() * count, "{t:?}");
    }
}

#[test]
fn marshal_roundtrip_preserves_semantics() {
    use mpicd_datatype::{equivalent, marshal, unmarshal};
    let mut rng = XorShift64Star::new(0xDA7A_0007);
    for _ in 0..64 {
        let t = datatype(&mut rng, 3);
        let bytes = marshal(&t);
        let back = unmarshal(&bytes).unwrap();
        assert!(equivalent(&t, &back), "{t:?}");
        assert_eq!(t.extent(), back.extent());
        // Canonical: re-marshalling is byte-identical.
        assert_eq!(marshal(&back), bytes);
    }
}

#[test]
fn marshal_truncation_never_panics() {
    use mpicd_datatype::{marshal, unmarshal};
    let mut rng = XorShift64Star::new(0xDA7A_0008);
    for _ in 0..64 {
        let t = datatype(&mut rng, 2);
        let frac = rng.next_f64();
        let bytes = marshal(&t);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            assert!(
                unmarshal(&bytes[..cut]).is_err(),
                "cut={cut} of {}",
                bytes.len()
            );
        }
    }
}

#[test]
fn signature_is_stable_under_marshal() {
    use mpicd_datatype::{marshal, signature, unmarshal};
    let mut rng = XorShift64Star::new(0xDA7A_0009);
    for _ in 0..64 {
        let t = datatype(&mut rng, 2);
        let back = unmarshal(&marshal(&t)).unwrap();
        assert_eq!(signature(&t), signature(&back), "{t:?}");
    }
}
