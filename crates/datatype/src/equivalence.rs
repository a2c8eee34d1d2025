//! Datatype equivalence and signatures.
//!
//! Determining when two MPI datatypes "match" is subtle enough to have its
//! own literature (Kimpe, Goodell, Ross — EuroMPI'10, cited by the paper).
//! MPI distinguishes:
//!
//! * **type signature** — the sequence of primitive types, ignoring
//!   displacements. Send/receive pairs must have compatible signatures.
//! * **type map** — primitives *with* displacements. Two types with equal
//!   maps are interchangeable on the same buffer.
//!
//! [`type_map`] expands both per primitive: it is the reference. The
//! [`StructuralKey`] and its [`key64`] digest, which commit computes for
//! every type, are built from the type's maximal primitive runs instead,
//! so they cost what the type's runs cost, not its primitives.

use crate::error::DatatypeResult;
use crate::primitive::Primitive;
use crate::typ::{Datatype, Grain, Layout};

/// Expand the full type map: `(primitive, byte displacement)` in pack
/// order, one entry per primitive. Panics where [`Datatype::layout`]
/// fails.
pub fn type_map(t: &Datatype) -> Vec<(Primitive, isize)> {
    let mut out = Vec::new();
    t.layout()
        .and_then(|_| t.walk(0, Grain::Primitive, &mut |p, disp, _| out.push((p, disp))))
        .unwrap_or_else(|e| panic!("{e}"));
    out
}

/// The type signature: primitives in pack order, displacements ignored.
pub fn signature(t: &Datatype) -> Vec<Primitive> {
    type_map(t).into_iter().map(|(p, _)| p).collect()
}

/// Same type map ⇒ interchangeable descriptions of the same memory.
pub fn equivalent(a: &Datatype, b: &Datatype) -> bool {
    type_map(a) == type_map(b)
}

/// Same signature ⇒ a send with `a` may be received with `b`
/// (MPI's matching rule; layouts may differ).
pub fn compatible(a: &Datatype, b: &Datatype) -> bool {
    signature(a) == signature(b)
}

/// `count` primitives at consecutive displacements from `displacement`.
type Run = (Primitive, isize, usize);

/// A hashable structural identity: the type map plus the placement facts
/// (extent, lower bound) that govern multi-element packing.
///
/// The map is stored as its maximal runs `(primitive, displacement,
/// count)`: each run is as long as the map allows, so the list is unique
/// to the map, and two keys are equal exactly when the type maps, extents
/// and lower bounds are. Two types with equal keys are interchangeable
/// descriptions of the same memory *and* place consecutive elements
/// identically, so they commit to the same blocks and plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructuralKey {
    runs: Vec<Run>,
    extent: usize,
    lb: isize,
}

/// Close the open run with `run`, or extend it when `run` continues it
/// (same primitive, next displacement); returns the run that closed.
fn coalesce(open: &mut Option<Run>, run: Run) -> Option<Run> {
    if let Some((p, disp, n)) = open {
        if *p == run.0 && *disp + (*n * p.size()) as isize == run.1 {
            *n += run.2;
            return None;
        }
    }
    open.replace(run)
}

/// Compute the [`StructuralKey`] of a datatype in one walk over its runs.
pub fn structural_key(t: &Datatype) -> DatatypeResult<StructuralKey> {
    let layout = t.layout()?;
    let (mut runs, mut open) = (Vec::new(), None);
    t.walk(0, Grain::Runs, &mut |p, disp, n| {
        runs.extend(coalesce(&mut open, (p, disp, n)));
    })?;
    runs.extend(open);
    Ok(StructuralKey {
        runs,
        extent: layout.extent(),
        lb: layout.lb,
    })
}

/// Word-at-a-time digest of a key's maximal runs ([`key64`]).
struct KeyHasher {
    h: u64,
    runs: u64,
}

impl KeyHasher {
    const NEW: Self = Self {
        h: 0xcbf2_9ce4_8422_2325,
        runs: 0,
    };

    /// Mix one word: a 64×64→128-bit multiply folded to 64 bits, so
    /// every input bit reaches every output bit.
    fn word(&mut self, w: u64) {
        let m = u128::from(self.h ^ w) * 0x9e37_79b9_7f4a_7c15;
        self.h = (m as u64) ^ ((m >> 64) as u64);
    }

    /// Mix one maximal run as two words. The count is rotated clear of
    /// the primitive's tag, so no count below 2^56 collides with another.
    fn run(&mut self, (p, disp, n): Run) {
        self.word(disp as u64);
        self.word((n as u64).rotate_left(8) ^ p as u64);
        self.runs += 1;
    }

    fn finish(mut self, extent: usize, lb: isize) -> u64 {
        self.word(self.runs);
        self.word(extent as u64);
        self.word(lb as u64);
        self.h.max(1)
    }
}

/// Stable 64-bit digest of a [`StructuralKey`], used as the wire-level
/// type-matching token (the `MPICD_TYPECHECK` enforcement described in
/// DESIGN.md §6i).
///
/// Properties the enforcement layer relies on:
///
/// * **deterministic across processes** — a fixed multiply-fold mix of
///   each maximal run, a word at a time, then the run count, extent and
///   lower bound; no `std::hash` randomization;
/// * **structural, not nominal** — two types with identical maps, extents
///   and lower bounds digest identically even when built from different
///   constructors (see `different_constructors_same_key64`);
/// * **never zero** — `0` is reserved as the "unchecked" sentinel for raw
///   byte transfers, so a digest landing on 0 is nudged to 1.
///
/// Note this token is *stricter* than MPI's signature-compatibility rule:
/// it also commits displacements and extent, so a send/recv pair with the
/// same primitive sequence but different layouts mismatches. That is
/// deliberate — the fabric moves type maps, not just signatures.
pub fn key64(k: &StructuralKey) -> u64 {
    let mut h = KeyHasher::NEW;
    for &run in &k.runs {
        h.run(run);
    }
    h.finish(k.extent, k.lb)
}

/// Walk `t` (whose layout is `layout`) at `grain`, handing each run to
/// `f`, and return the type's [`key64`]: the walk's runs are coalesced
/// into maximal runs and hashed as they close, so no key is built. Any
/// grain gives the same digest.
pub(crate) fn digest(
    t: &Datatype,
    layout: &Layout,
    grain: Grain,
    mut f: impl FnMut(Primitive, isize, usize),
) -> DatatypeResult<u64> {
    let (mut h, mut open) = (KeyHasher::NEW, None);
    t.walk(0, grain, &mut |p, disp, n| {
        f(p, disp, n);
        if let Some(run) = coalesce(&mut open, (p, disp, n)) {
            h.run(run);
        }
    })?;
    if let Some(run) = open {
        h.run(run);
    }
    Ok(h.finish(layout.extent(), layout.lb))
}

/// The 64-bit structural signature of a datatype: [`key64`] of its
/// [`structural_key`], computed without building the key. This is what
/// [`crate::Committed::signature64`] stores at commit time and what the
/// fabric compares per transfer.
pub fn signature64(t: &Datatype) -> DatatypeResult<u64> {
    digest(t, &t.layout()?, Grain::Runs, |_, _, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int() -> Datatype {
        Datatype::of::<i32>()
    }
    fn dbl() -> Datatype {
        Datatype::of::<f64>()
    }
    fn sig(t: &Datatype) -> u64 {
        signature64(t).unwrap()
    }
    fn key(t: &Datatype) -> StructuralKey {
        structural_key(t).unwrap()
    }

    #[test]
    fn different_constructors_same_map() {
        // contiguous(4, int) == vector(2, 2, 2, int) == indexed[(4, 0)]
        let a = Datatype::contiguous(4, int());
        let b = Datatype::vector(2, 2, 2, int());
        let c = Datatype::indexed(vec![(4, 0)], int());
        assert!(equivalent(&a, &b));
        assert!(equivalent(&b, &c));
    }

    #[test]
    fn gap_changes_map_not_signature() {
        let packed = Datatype::structure(vec![(3, 0, int()), (1, 12, dbl())]);
        let gapped = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        assert!(!equivalent(&packed, &gapped));
        assert!(compatible(&packed, &gapped), "same primitives in order");
    }

    #[test]
    fn signature_ordering_matters() {
        let id = Datatype::structure(vec![(1, 0, int()), (1, 8, dbl())]);
        let di = Datatype::structure(vec![(1, 0, dbl()), (1, 8, int())]);
        assert!(!compatible(&id, &di));
    }

    #[test]
    fn resized_preserves_map() {
        let t = Datatype::contiguous(2, int());
        let r = Datatype::resized(0, 64, Datatype::contiguous(2, int()));
        assert!(equivalent(&t, &r), "resizing changes extent, not the map");
        assert_ne!(t.extent(), r.extent());
    }

    #[test]
    fn structural_key_tracks_map_and_extent() {
        let t = Datatype::contiguous(2, int());
        let r = Datatype::resized(0, 64, Datatype::contiguous(2, int()));
        assert!(equivalent(&t, &r));
        assert_ne!(
            key(&t),
            key(&r),
            "resizing changes element placement, so plans cannot be shared"
        );
        let v = Datatype::vector(1, 2, 2, int());
        assert_eq!(key(&t), key(&v));
    }

    #[test]
    fn different_constructors_same_key64() {
        let a = Datatype::contiguous(4, int());
        let b = Datatype::vector(2, 2, 2, int());
        let c = Datatype::indexed(vec![(4, 0)], int());
        assert_eq!(sig(&a), sig(&b));
        assert_eq!(sig(&b), sig(&c));
    }

    #[test]
    fn key64_separates_layouts_and_reorderings() {
        // Same primitive sequence, different displacement → different digest
        // (the token is stricter than MPI signature compatibility).
        let packed = Datatype::structure(vec![(3, 0, int()), (1, 12, dbl())]);
        let gapped = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        assert!(compatible(&packed, &gapped));
        assert_ne!(sig(&packed), sig(&gapped));
        // Field reordering (the acceptance-criteria pair).
        let ffi = Datatype::structure(vec![(2, 0, dbl()), (1, 16, int())]);
        let fif = Datatype::structure(vec![(1, 0, dbl()), (1, 8, int()), (1, 16, dbl())]);
        assert_ne!(sig(&ffi), sig(&fif));
        // Resizing changes extent → different digest.
        let t = Datatype::contiguous(2, int());
        let r = Datatype::resized(0, 64, Datatype::contiguous(2, int()));
        assert_ne!(sig(&t), sig(&r));
    }

    #[test]
    fn key64_is_never_zero() {
        // Zero is the "unchecked" sentinel; even the empty type digests
        // to a nonzero token.
        let empty = Datatype::contiguous(0, int());
        assert_ne!(sig(&empty), 0);
    }

    /// The reference blocks: the type map's bytes, adjacent ones merged.
    fn reference_blocks(map: &[(Primitive, isize)]) -> Vec<(isize, usize)> {
        let mut out: Vec<(isize, usize)> = Vec::new();
        for &(p, disp) in map {
            match out.last_mut() {
                Some((off, len)) if *off + *len as isize == disp => *len += p.size(),
                _ => out.push((disp, p.size())),
            }
        }
        out
    }

    #[test]
    fn key64_collisions_imply_identical_maps_seeded_random() {
        // Over a seeded (deterministic, zero-dep) population of random
        // constructor trees, against the per-primitive type map:
        // * the run walk commits to the reference's merged blocks, and
        //   `commit()` to the plan `PackPlan::compile` makes of them;
        // * the structural key is the map's maximal runs, so keys are
        //   equal exactly when maps, extents and lower bounds are;
        // * a 64-bit key collision only ever pairs types with identical
        //   maps and extents (the safety property behind MPICD_TYPECHECK).
        struct XorShift(u64);
        impl XorShift {
            fn next(&mut self) -> u64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0
            }
            fn pick(&mut self, n: u64) -> u64 {
                self.next() % n
            }
        }
        fn random_type(rng: &mut XorShift, depth: u32) -> Datatype {
            let leaf = match rng.pick(4) {
                0 => Datatype::predefined(Primitive::Byte),
                1 => Datatype::predefined(Primitive::Int32),
                2 => Datatype::predefined(Primitive::Double),
                _ => Datatype::predefined(Primitive::Float),
            };
            if depth == 0 {
                return leaf;
            }
            let child = random_type(rng, depth - 1);
            // A gap of 0 keeps blocks back to back (a dense run when the
            // child is one), 8 opens a hole.
            let gap = 8 * rng.pick(2) as isize;
            match rng.pick(8) {
                0 => Datatype::contiguous(1 + rng.pick(4) as usize, child),
                1 => Datatype::vector(
                    1 + rng.pick(3) as usize,
                    1 + rng.pick(2) as usize,
                    2 + rng.pick(3) as isize,
                    child,
                ),
                2 => Datatype::indexed(
                    (0..1 + rng.pick(3))
                        .map(|i| (1 + rng.pick(2) as usize, (i * 8) as isize))
                        .collect(),
                    child,
                ),
                3 => {
                    let extent = child.extent().max(1) * (1 + rng.pick(2) as usize);
                    Datatype::resized(0, extent, child)
                }
                4 => Datatype::structure(vec![
                    (1, 0, child),
                    (1 + rng.pick(2) as usize, 64, random_type(rng, depth - 1)),
                ]),
                5 => {
                    let bl = 1 + rng.pick(3) as usize;
                    let stride = (bl * child.extent()) as isize + gap;
                    Datatype::hvector(1 + rng.pick(3) as usize, bl, stride, child)
                }
                6 => {
                    // Chained byte blocks, one of them empty.
                    let ext = child.extent() as isize;
                    let mut at = 0isize;
                    let blocks = (0..1 + rng.pick(3))
                        .map(|_| {
                            let bl = rng.pick(3) as usize;
                            let block = (bl, at);
                            at += bl as isize * ext + gap;
                            block
                        })
                        .collect();
                    Datatype::hindexed(blocks, child)
                }
                _ => {
                    let bl = 1 + rng.pick(3) as usize;
                    Datatype::vector(1 + rng.pick(3) as usize, bl, bl as isize, child)
                }
            }
        }

        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let population: Vec<Datatype> = (0..200).map(|_| random_type(&mut rng, 3)).collect();
        let maps: Vec<_> = population.iter().map(type_map).collect();
        let keys: Vec<_> = population.iter().map(key).collect();
        let mut by_key: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (i, t) in population.iter().enumerate() {
            let (map, k) = (&maps[i], &keys[i]);
            let expanded: Vec<_> = k
                .runs
                .iter()
                .flat_map(|&(p, disp, n)| (0..n).map(move |j| (p, disp + (j * p.size()) as isize)))
                .collect();
            assert_eq!(&expanded, map, "type {i}: the key's runs expand to the map");
            for pair in k.runs.windows(2) {
                let ((p, disp, n), (q, next, _)) = (pair[0], pair[1]);
                assert!(
                    p != q || disp + (n * p.size()) as isize != next,
                    "type {i}: runs {pair:?} are not maximal"
                );
            }

            let reference = reference_blocks(map);
            let c = t.commit().unwrap();
            let interpreted = t.commit_interpreted().unwrap();
            assert_eq!(
                interpreted.blocks(),
                Some(&reference[..]),
                "type {i}: merged blocks"
            );
            assert_eq!(c.block_count(), reference.len(), "type {i}: merged runs");
            let compiled = crate::PackPlan::compile(&reference, c.size(), c.extent());
            assert_eq!(c.plan().map(|p| p.ops()), Some(compiled.ops()));

            let k64 = sig(t);
            assert_eq!(k64, key64(k), "signature64 is key64 of the key");
            assert_eq!(c.signature64(), k64, "commit hashes the same runs");
            assert_ne!(k64, 0, "key64 never returns the unchecked sentinel");
            if let Some(&j) = by_key.get(&k64) {
                let prev = &population[j];
                assert_eq!(
                    maps[j], *map,
                    "types {j} and {i} collide on key64 with different maps"
                );
                assert_eq!(prev.extent(), t.extent(), "extent is committed by the key");
            } else {
                by_key.insert(k64, i);
            }
        }
        for (i, a) in population.iter().enumerate() {
            for (j, b) in population.iter().enumerate().skip(i + 1) {
                let same = maps[i] == maps[j] && a.extent() == b.extent() && a.lb() == b.lb();
                assert_eq!(keys[i] == keys[j], same, "types {i} and {j}");
            }
        }
        assert!(by_key.len() > 100, "generator must produce diverse layouts");
    }

    #[test]
    fn map_matches_walk_totals() {
        let t = Datatype::structure(vec![
            (2, 0, Datatype::vector(2, 1, 2, int())),
            (1, 64, dbl()),
        ]);
        let map = type_map(&t);
        let bytes: usize = map.iter().map(|(p, _)| p.size()).sum();
        assert_eq!(bytes, t.size());
    }
}
