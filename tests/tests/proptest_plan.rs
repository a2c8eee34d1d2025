//! Property tests for the commit-time pack-plan compiler: on random type
//! trees (including hvector and resized constructors), the compiled plan
//! must be byte-identical to the interpreted merged-block engine and to the
//! convertor baseline — for whole-stream packing, for mid-fragment
//! suspend/resume, and for out-of-order unpacking — and recommitting an
//! equivalent type must hit the process-wide plan cache.

use mpicd_datatype::{Datatype, Primitive};
use mpicd_obs::XorShift64Star;

/// Random leaf primitive.
fn prim(rng: &mut XorShift64Star) -> Datatype {
    match rng.range(0, 4) {
        0 => Datatype::Predefined(Primitive::Byte),
        1 => Datatype::Predefined(Primitive::Int32),
        2 => Datatype::Predefined(Primitive::Int64),
        _ => Datatype::Predefined(Primitive::Double),
    }
}

/// Random non-negative-lb datatype tree of bounded depth. Extends the
/// `proptest_datatype` generator with the constructors the plan compiler
/// canonicalizes: hvector (byte strides) and resized (artificial extents).
fn datatype(rng: &mut XorShift64Star, depth: u32) -> Datatype {
    if depth == 0 || rng.chance(1, 4) {
        return prim(rng);
    }
    match rng.range(0, 6) {
        0 => {
            let count = rng.range(1, 5);
            Datatype::contiguous(count, datatype(rng, depth - 1))
        }
        1 => {
            let count = rng.range(1, 4);
            let bl = rng.range(1, 3);
            // Stride ≥ blocklength keeps blocks disjoint and lb = 0.
            let stride = (bl + rng.range(1, 3)) as isize;
            Datatype::vector(count, bl, stride, datatype(rng, depth - 1))
        }
        2 => {
            let child = datatype(rng, depth - 1);
            let count = rng.range(1, 4);
            let bl = rng.range(1, 3);
            // Byte stride past the block span keeps blocks disjoint.
            let stride_bytes = (bl * child.extent() + rng.range(0, 16)) as isize;
            Datatype::hvector(count, bl, stride_bytes, child)
        }
        3 => {
            let count = rng.range(1, 4);
            // Disjoint ascending displacements (in child extents).
            let blocks = (0..count).map(|i| (1usize, (i * 2) as isize)).collect();
            Datatype::indexed(blocks, datatype(rng, depth - 1))
        }
        4 => {
            let child = datatype(rng, depth - 1);
            // Pad the extent: elements of the resized type overlap nothing
            // but sit further apart than the natural layout.
            let extent = child.extent() + rng.range(0, 24);
            Datatype::resized(0, extent, child)
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
fn compiled_plan_matches_interpreted_and_convertor() {
    let mut rng = XorShift64Star::new(0xDA7A_0010);
    for case in 0..96 {
        let t = datatype(&mut rng, 3);
        let count = rng.range(1, 4);
        let compiled = t.commit().unwrap();
        let interpreted = t.commit_interpreted().unwrap();
        let convertor = t.commit_convertor().unwrap();
        assert!(
            compiled.plan().is_some() || compiled.size() == 0,
            "case {case}"
        );
        assert!(interpreted.plan().is_none() && convertor.plan().is_none());
        if compiled.size() == 0 {
            continue;
        }
        let span = compiled.required_span(count);
        let src: Vec<u8> = (0..span).map(|i| (i % 249) as u8).collect();
        let reference = interpreted.pack_slice(&src, count).unwrap();
        assert_eq!(
            compiled.pack_slice(&src, count).unwrap(),
            reference,
            "case {case}: compiled pack diverges from interpreted: {t:?}"
        );
        assert_eq!(
            convertor.pack_slice(&src, count).unwrap(),
            reference,
            "case {case}: convertor pack diverges: {t:?}"
        );

        // Unpack into identical sentinel buffers: data bytes equal by
        // construction, gap bytes untouched by all three engines.
        let mut via_plan = vec![0xA5u8; span];
        let mut via_interp = vec![0xA5u8; span];
        compiled
            .unpack_slice(&reference, &mut via_plan, count)
            .unwrap();
        interpreted
            .unpack_slice(&reference, &mut via_interp, count)
            .unwrap();
        assert_eq!(via_plan, via_interp, "case {case}: unpack diverges: {t:?}");
    }
}

#[test]
fn compiled_plan_suspends_and_resumes_mid_fragment() {
    let mut rng = XorShift64Star::new(0xDA7A_0011);
    for case in 0..96 {
        let t = datatype(&mut rng, 3);
        let frag = rng.range(1, 48);
        let compiled = t.commit().unwrap();
        if compiled.size() == 0 {
            continue;
        }
        let count = 3usize;
        let span = compiled.required_span(count);
        let src: Vec<u8> = (0..span).map(|i| (i % 247) as u8).collect();
        let full = t
            .commit_interpreted()
            .unwrap()
            .pack_slice(&src, count)
            .unwrap();

        // Pack through arbitrary fragment sizes: every fragment boundary is
        // a suspend/resume point, usually mid-block.
        let mut acc = Vec::new();
        let mut off = 0usize;
        loop {
            let mut buf = vec![0u8; frag];
            let n = unsafe { compiled.pack_segment(src.as_ptr(), count, off, &mut buf) };
            if n == 0 {
                break;
            }
            acc.extend_from_slice(&buf[..n]);
            off += n;
        }
        assert_eq!(acc, full, "case {case}: frag={frag} {t:?}");

        // Unpack the same fragments out of order (reverse delivery).
        let mut cuts = Vec::new();
        let mut o = 0usize;
        while o < full.len() {
            cuts.push(o);
            o += frag;
        }
        let mut dst = vec![0u8; span];
        for &c in cuts.iter().rev() {
            let end = (c + frag).min(full.len());
            unsafe {
                compiled.unpack_segment(dst.as_mut_ptr(), count, c, &full[c..end]);
            }
        }
        assert_eq!(
            compiled.pack_slice(&dst, count).unwrap(),
            full,
            "case {case}: out-of-order unpack diverges"
        );
    }
}

#[test]
fn plan_cache_hits_on_repeated_equivalent_commits() {
    // Counters are process-global and monotonic, so deltas are robust to
    // the other tests running concurrently.
    let snap = || mpicd_obs::global().snapshot();
    let t = Datatype::vector(7, 3, 5, Datatype::Predefined(Primitive::Double));
    let before = snap();
    let first = t.commit().unwrap();
    let after_first = snap();
    assert!(
        after_first.counter("plan.cache.hits") + after_first.counter("plan.cache.misses")
            > before.counter("plan.cache.hits") + before.counter("plan.cache.misses"),
        "commit consulted the plan registry"
    );

    // Recommit the same description, and an equivalent one built from
    // different constructors: both must reuse the cached plan.
    let equivalent = Datatype::hvector(7, 3, 40, Datatype::Predefined(Primitive::Double));
    assert!(mpicd_datatype::equivalent(&t, &equivalent));
    let before_hits = snap().counter("plan.cache.hits");
    let second = t.commit().unwrap();
    let third = equivalent.commit().unwrap();
    let after_hits = snap().counter("plan.cache.hits");
    assert!(
        after_hits >= before_hits + 2,
        "repeated equivalent commits hit the plan cache ({before_hits} -> {after_hits})"
    );
    for c in [&first, &second, &third] {
        assert!(c.plan().is_some());
    }
    // Same registry entry, not merely equal plans.
    assert!(std::sync::Arc::ptr_eq(
        second.plan().unwrap(),
        third.plan().unwrap()
    ));
}

#[test]
fn kernel_byte_counters_attribute_packed_bytes() {
    // An 8-byte-block strided type must route its bytes through the
    // gather128 kernel counter when packed via the compiled plan.
    let t = Datatype::vector(64, 1, 2, Datatype::Predefined(Primitive::Double));
    let c = t.commit().unwrap();
    let src = vec![3u8; c.required_span(1)];
    let before = mpicd_obs::global()
        .snapshot()
        .counter("plan.kernel.gather128_bytes");
    let packed = c.pack_slice(&src, 1).unwrap();
    let after = mpicd_obs::global()
        .snapshot()
        .counter("plan.kernel.gather128_bytes");
    assert_eq!(packed.len(), 512);
    assert!(
        after >= before + 512,
        "gather128 kernel bytes counted ({before} -> {after})"
    );
}

#[test]
fn plan_never_exceeds_interpreted_op_count() {
    let mut rng = XorShift64Star::new(0xDA7A_0012);
    for _ in 0..64 {
        let t = datatype(&mut rng, 3);
        let c = t.commit().unwrap();
        if let Some(plan) = c.plan() {
            assert!(
                plan.op_count() <= c.block_count().max(1),
                "canonicalization never expands the description: {t:?}"
            );
        }
    }
}
