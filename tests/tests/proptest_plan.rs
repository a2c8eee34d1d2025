//! Property tests for the commit-time pack-plan compiler: on the element
//! types of every element-fold shape and on random type trees (including
//! hvector and resized constructors), at element counts from 1 to 375, the
//! compiled plan must be byte-identical to the interpreted merged-block
//! engine and to the convertor baseline — for whole-stream packing, for
//! mid-fragment suspend/resume, and for out-of-order unpacking — and
//! equivalent types built from different constructors must commit to the
//! same plan and signature.

use mpicd_datatype::{Committed, Datatype, Primitive};
use mpicd_obs::XorShift64Star;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that pack: the kernel byte counters are
/// process-global, and the counter test asserts exact deltas.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the `()` it guards stays valid.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Element counts of every case. Counts above 1 run a plan's element fold
/// (one op over the whole stream) where the element has a foldable shape.
const COUNTS: [usize; 5] = [1, 2, 3, 17, 375];

/// Named element types, one per element-fold shape plus one that must not
/// fold, followed by `random` random type trees from `seed`.
fn cases(seed: u64, random: usize) -> Vec<(String, Datatype)> {
    let int = || Datatype::of::<i32>();
    let dbl = || Datatype::of::<f64>();
    let mut out = vec![
        // Two runs of 12 and 8 B: a fused Pair over the stream.
        (
            "StructSimple".into(),
            mpicd::types::StructSimple::datatype(),
        ),
        // A traffic-detector record, runs of 15 and 14 B: a fused Pair.
        (
            "Register".into(),
            Datatype::resized(
                0,
                32,
                Datatype::structure(vec![
                    (2, 0, int()),
                    (1, 8, Datatype::of::<i16>()),
                    (2, 10, Datatype::of::<u8>()),
                    (3, 12, Datatype::of::<u8>()),
                    (3, 16, Datatype::of::<f32>()),
                    (2, 28, Datatype::of::<u8>()),
                ]),
            ),
        ),
        // One run per element: a strided block array over the stream.
        ("resized f64".into(), Datatype::resized(0, 16, dbl())),
        // A column of an 8 × 400 matrix of doubles, resized so column j
        // starts at 8j: the element's Strided op becomes a Nest2.
        (
            "matrix column".into(),
            Datatype::resized(0, 8, Datatype::vector(8, 1, 400, dbl())),
        ),
        // Runs of 12 and 8 200 B: the long run keeps memcpy, no fold.
        ("StructVec".into(), mpicd::types::StructVec::datatype()),
    ];
    let mut rng = XorShift64Star::new(seed);
    for case in 0..random {
        out.push((format!("random {case}"), datatype(&mut rng, 3)));
    }
    out
}

/// The memory image of unpacking `packed` into a sentinel-filled region.
fn image(c: &Committed, packed: &[u8], span: usize, count: usize) -> Vec<u8> {
    let mut dst = vec![0xA5u8; span];
    c.unpack_slice(packed, &mut dst, count).unwrap();
    dst
}

/// Source bytes for `count` elements of `c`, and the interpreted engine's
/// packed stream of them.
fn reference(c: &Committed, count: usize) -> (Vec<u8>, Vec<u8>) {
    let span = c.required_span(count).unwrap();
    let src: Vec<u8> = (0..span).map(|i| (i % 249) as u8).collect();
    let packed = c.pack_slice(&src, count).unwrap();
    (src, packed)
}

#[test]
fn compiled_plan_matches_interpreted_and_convertor() {
    let _serial = serial();
    for (name, t) in cases(0xDA7A_0010, 96) {
        let compiled = t.commit().unwrap();
        let interpreted = t.commit_interpreted().unwrap();
        let convertor = t.commit_convertor().unwrap();
        assert!(compiled.plan().is_some() || compiled.size() == 0, "{name}");
        assert!(interpreted.plan().is_none() && convertor.plan().is_none());
        assert_eq!(compiled.block_count(), interpreted.block_count(), "{name}");
        if compiled.size() == 0 {
            continue;
        }
        for count in COUNTS {
            let (src, reference) = reference(&interpreted, count);
            assert_eq!(
                compiled.pack_slice(&src, count).unwrap(),
                reference,
                "{name} ×{count}: compiled pack diverges from interpreted: {t:?}"
            );
            assert_eq!(
                convertor.pack_slice(&src, count).unwrap(),
                reference,
                "{name} ×{count}: convertor pack diverges: {t:?}"
            );

            // Unpack into identical sentinel buffers: data bytes equal by
            // construction, gap bytes untouched by all three engines.
            let span = src.len();
            let expect = image(&interpreted, &reference, span, count);
            assert_eq!(
                image(&compiled, &reference, span, count),
                expect,
                "{name} ×{count}: compiled unpack diverges: {t:?}"
            );
            assert_eq!(
                image(&convertor, &reference, span, count),
                expect,
                "{name} ×{count}: convertor unpack diverges: {t:?}"
            );
        }
    }
}

#[test]
fn compiled_plan_suspends_and_resumes_mid_fragment() {
    let _serial = serial();
    let mut rng = XorShift64Star::new(0xDA7A_0011);
    for (name, t) in cases(0xDA7A_0011, 96) {
        let compiled = t.commit().unwrap();
        if compiled.size() == 0 {
            continue;
        }
        let interpreted = t.commit_interpreted().unwrap();
        for count in COUNTS {
            let (src, full) = reference(&interpreted, count);
            let span = src.len();
            let expect = image(&interpreted, &full, span, count);
            // Every fragment boundary is a suspend/resume point: 13 B lands
            // mid-pair and mid-element, 16 B on word boundaries, 4099 B
            // deep inside the folded op.
            for frag in [13, 16, 4099, rng.range(1, 48)] {
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
                assert_eq!(acc, full, "{name} ×{count}: frag={frag} {t:?}");

                // Unpack the same fragments out of order (reverse delivery).
                let mut dst = vec![0xA5u8; span];
                let cuts: Vec<usize> = (0..full.len()).step_by(frag).collect();
                for &c in cuts.iter().rev() {
                    let end = (c + frag).min(full.len());
                    unsafe {
                        compiled.unpack_segment(dst.as_mut_ptr(), count, c, &full[c..end]);
                    }
                }
                assert_eq!(
                    dst, expect,
                    "{name} ×{count}: frag={frag} out-of-order unpack diverges: {t:?}"
                );
            }
        }
    }
}

#[test]
fn equivalent_constructors_commit_identical_plans() {
    // Each group describes one type map, extent and lower bound through
    // different constructors: every commit of a group must give the same
    // blocks, plan ops and signature.
    let dbl = || Datatype::Predefined(Primitive::Double);
    let int = || Datatype::Predefined(Primitive::Int32);
    let groups = [
        vec![
            Datatype::vector(7, 3, 5, dbl()),
            Datatype::hvector(7, 3, 40, dbl()),
            Datatype::indexed((0..7).map(|i| (3, 5 * i)).collect(), dbl()),
            Datatype::hvector(7, 1, 40, Datatype::contiguous(3, dbl())),
        ],
        vec![
            Datatype::contiguous(12, int()),
            Datatype::vector(3, 4, 4, int()),
            Datatype::structure(vec![(6, 0, int()), (2, 24, Datatype::contiguous(3, int()))]),
            Datatype::hindexed(vec![(5, 0), (0, 7), (7, 20)], int()),
        ],
        vec![
            Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]),
            Datatype::structure(vec![
                (1, 0, Datatype::contiguous(2, int())),
                (1, 8, int()),
                (1, 16, dbl()),
            ]),
        ],
    ];
    for group in &groups {
        let first = group[0].commit().unwrap();
        let first_blocks = group[0].commit_interpreted().unwrap();
        for t in group {
            assert!(mpicd_datatype::equivalent(&group[0], t), "{t:?}");
            let c = t.commit().unwrap();
            let blocks = t.commit_interpreted().unwrap();
            assert_eq!(blocks.blocks(), first_blocks.blocks(), "{t:?}");
            assert!(blocks.blocks().is_some(), "{t:?}");
            assert_eq!(
                c.plan().unwrap().ops(),
                first.plan().unwrap().ops(),
                "{t:?}"
            );
            assert_eq!(c.signature64(), first.signature64(), "{t:?}");
            assert_eq!(mpicd_datatype::signature64(t), Ok(first.signature64()));
        }
    }
}

#[test]
fn kernel_byte_counters_attribute_packed_bytes() {
    let _serial = serial();
    let counter = |name: &str| mpicd_obs::global().snapshot().counter(name);
    // 375 StructSimple elements (runs of 12 and 8 B at extent 24) run as
    // one fused Pair op: all 7 500 B through the wide kernel, none
    // through per-element memcpy.
    let c = mpicd::types::StructSimple::datatype().commit().unwrap();
    let src = vec![3u8; c.required_span(375).unwrap()];
    let (wide, memcpy) = (
        counter("plan.kernel.wide_bytes"),
        counter("plan.kernel.memcpy_bytes"),
    );
    assert_eq!(c.pack_slice(&src, 375).unwrap().len(), 7500);
    assert_eq!(counter("plan.kernel.wide_bytes") - wide, 7500);
    assert_eq!(counter("plan.kernel.memcpy_bytes") - memcpy, 0);

    // An 8-byte-block strided type must route its bytes through the
    // gather128 kernel counter when packed via the compiled plan.
    let t = Datatype::vector(64, 1, 2, Datatype::Predefined(Primitive::Double));
    let c = t.commit().unwrap();
    let src = vec![3u8; c.required_span(1).unwrap()];
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
