//! Derived datatype constructors and layout rules (MPI 4.1 §5.1).
//!
//! A [`Datatype`] is a tree whose leaves are [`Primitive`] types and whose
//! inner nodes are the standard MPI type constructors. Each type defines:
//!
//! * a **type map** — the ordered sequence of `(primitive, displacement)`
//!   pairs describing which bytes of memory participate, in pack order;
//! * a **size** — the number of data bytes (sum of primitive sizes);
//! * an **extent** — the span from lower to upper bound, including the
//!   struct alignment epsilon, used to place consecutive elements.

use crate::error::{DatatypeError, DatatypeResult};
use crate::primitive::Primitive;
use std::sync::Arc;

/// A (derived) MPI datatype.
#[derive(Debug, Clone)]
pub enum Datatype {
    /// A predefined type.
    Predefined(Primitive),
    /// `MPI_Type_contiguous`: `count` consecutive elements of `child`.
    Contiguous {
        /// Number of consecutive elements.
        count: usize,
        /// Element type.
        child: Arc<Datatype>,
    },
    /// `MPI_Type_vector`: `count` blocks of `blocklength` children, with a
    /// stride of `stride` *child extents* between block starts.
    Vector {
        /// Number of blocks.
        count: usize,
        /// Elements per block.
        blocklength: usize,
        /// Block-start spacing, in child extents.
        stride: isize,
        /// Element type.
        child: Arc<Datatype>,
    },
    /// `MPI_Type_create_hvector`: like `Vector` but the stride is in bytes.
    Hvector {
        /// Number of blocks.
        count: usize,
        /// Elements per block.
        blocklength: usize,
        /// Block-start spacing, in bytes.
        stride_bytes: isize,
        /// Element type.
        child: Arc<Datatype>,
    },
    /// `MPI_Type_indexed`: blocks of `(blocklength, displacement)` where the
    /// displacement is in child extents.
    Indexed {
        /// `(blocklength, displacement-in-child-extents)` per block.
        blocks: Vec<(usize, isize)>,
        /// Element type.
        child: Arc<Datatype>,
    },
    /// `MPI_Type_create_hindexed`: displacements in bytes.
    Hindexed {
        /// `(blocklength, byte displacement)` per block.
        blocks: Vec<(usize, isize)>,
        /// Element type.
        child: Arc<Datatype>,
    },
    /// `MPI_Type_create_struct`: fields of `(blocklength, byte displacement,
    /// field type)`.
    Struct {
        /// `(blocklength, byte displacement, field type)` per field.
        fields: Vec<(usize, isize, Arc<Datatype>)>,
    },
    /// `MPI_Type_create_resized`: override lower bound and extent.
    Resized {
        /// Overridden lower bound, in bytes.
        lb: isize,
        /// Overridden extent, in bytes.
        extent: usize,
        /// The underlying type.
        child: Arc<Datatype>,
    },
}

impl Datatype {
    // ---- constructors ----------------------------------------------------

    /// A predefined type.
    pub fn predefined(p: Primitive) -> Self {
        Self::Predefined(p)
    }

    /// `MPI_Type_contiguous`.
    pub fn contiguous(count: usize, child: Datatype) -> Self {
        Self::Contiguous {
            count,
            child: Arc::new(child),
        }
    }

    /// `MPI_Type_vector` (stride in elements of `child`).
    pub fn vector(count: usize, blocklength: usize, stride: isize, child: Datatype) -> Self {
        Self::Vector {
            count,
            blocklength,
            stride,
            child: Arc::new(child),
        }
    }

    /// `MPI_Type_create_hvector` (stride in bytes).
    pub fn hvector(count: usize, blocklength: usize, stride_bytes: isize, child: Datatype) -> Self {
        Self::Hvector {
            count,
            blocklength,
            stride_bytes,
            child: Arc::new(child),
        }
    }

    /// `MPI_Type_indexed` (displacements in elements of `child`).
    pub fn indexed(blocks: Vec<(usize, isize)>, child: Datatype) -> Self {
        Self::Indexed {
            blocks,
            child: Arc::new(child),
        }
    }

    /// `MPI_Type_create_hindexed` (displacements in bytes).
    pub fn hindexed(blocks: Vec<(usize, isize)>, child: Datatype) -> Self {
        Self::Hindexed {
            blocks,
            child: Arc::new(child),
        }
    }

    /// `MPI_Type_create_indexed_block` (uniform block length, displacements
    /// in elements of `child`).
    pub fn indexed_block(blocklength: usize, displs: Vec<isize>, child: Datatype) -> Self {
        Self::Indexed {
            blocks: displs.into_iter().map(|d| (blocklength, d)).collect(),
            child: Arc::new(child),
        }
    }

    /// `MPI_Type_create_struct`.
    pub fn structure(fields: Vec<(usize, isize, Datatype)>) -> Self {
        Self::Struct {
            fields: fields
                .into_iter()
                .map(|(bl, d, t)| (bl, d, Arc::new(t)))
                .collect(),
        }
    }

    /// `MPI_Type_create_resized`.
    pub fn resized(lb: isize, extent: usize, child: Datatype) -> Self {
        Self::Resized {
            lb,
            extent,
            child: Arc::new(child),
        }
    }

    // ---- layout queries ---------------------------------------------------

    /// Size, bounds and alignment, checked over the whole tree: every
    /// node's size, bounds and extent must fit `isize`, or the type is
    /// rejected with [`DatatypeError::LayoutOverflow`] (commit reports
    /// it; [`Self::size`], [`Self::extent`] and [`Self::lb`] panic with
    /// it). The cost is that of the type's description, not of its type
    /// map: an `(h)vector`'s hull is that of its first and last blocks.
    ///
    /// For `Struct`, the upper bound is padded to the type's alignment (the
    /// MPI "epsilon"), matching what a C compiler does for the
    /// corresponding struct — this is what makes `struct-simple` have
    /// extent 24 with a trailing gap-free layout of 20 data bytes.
    pub fn layout(&self) -> DatatypeResult<Layout> {
        let mut h = None;
        let (size, align) = match self {
            Self::Predefined(p) => {
                h = Some((0, p.size() as isize));
                (p.size(), p.alignment())
            }
            Self::Contiguous { count, child } => {
                let c = child.layout()?;
                hull(&mut h, &c, 0, *count)?;
                (times(*count, c.size)?, c.align)
            }
            Self::Vector {
                count,
                blocklength: bl,
                child,
                ..
            }
            | Self::Hvector {
                count,
                blocklength: bl,
                child,
                ..
            } => {
                let c = child.layout()?;
                if *count > 0 && *bl > 0 {
                    let last = match count - 1 {
                        0 => Some(0),
                        n => isize::try_from(n)
                            .ok()
                            .zip(self.unit(c.extent() as isize))
                            .and_then(|(n, u)| u.checked_mul(n)),
                    };
                    let last = last.ok_or(OVERFLOW)?;
                    hull(&mut h, &c, last.min(0), *bl)?;
                    hull(&mut h, &c, last.max(0), *bl)?;
                }
                (times(*count, *bl).and_then(|n| times(n, c.size))?, c.align)
            }
            Self::Indexed { blocks, child } | Self::Hindexed { blocks, child } => {
                let c = child.layout()?;
                let mut size = 0usize;
                for &(bl, displ) in blocks.iter().filter(|(bl, _)| *bl > 0) {
                    let start = self
                        .unit(c.extent() as isize)
                        .and_then(|u| u.checked_mul(displ));
                    hull(&mut h, &c, start.ok_or(OVERFLOW)?, bl)?;
                    size = size.checked_add(times(bl, c.size)?).ok_or(OVERFLOW)?;
                }
                (size, c.align)
            }
            Self::Struct { fields } => {
                let (mut size, mut align) = (0usize, 1usize);
                for (bl, displ, t) in fields {
                    let c = t.layout()?;
                    hull(&mut h, &c, *displ, *bl)?;
                    size = size.checked_add(times(*bl, c.size)?).ok_or(OVERFLOW)?;
                    align = align.max(c.align);
                }
                if let Some((lb, ub)) = &mut h {
                    // Alignment epsilon.
                    let span = ub.checked_sub(*lb);
                    let padded = span.and_then(|s| (s as usize).checked_next_multiple_of(align));
                    *ub = shift(*lb, padded.and_then(|s| isize::try_from(s).ok()))?;
                }
                (size, align)
            }
            Self::Resized { lb, extent, child } => {
                let c = child.layout()?;
                let extent = isize::try_from(*extent).ok();
                h = Some((*lb, shift(*lb, extent)?));
                (c.size, c.align)
            }
        };
        let (lb, ub) = h.unwrap_or((0, 0));
        if isize::try_from(size).is_err() || ub.checked_sub(lb).is_none() {
            return Err(OVERFLOW);
        }
        Ok(Layout {
            size,
            lb,
            ub,
            align,
        })
    }

    /// Bytes per unit of block displacement: block `i` of an `(h)vector`
    /// starts `i` units, block `(bl, d)` of an `(h)indexed` `d` units
    /// after the type's origin, given the child's extent `ext`.
    fn unit(&self, ext: isize) -> Option<isize> {
        match self {
            Self::Vector { stride, .. } => stride.checked_mul(ext),
            Self::Hvector { stride_bytes, .. } => Some(*stride_bytes),
            Self::Indexed { .. } => Some(ext),
            _ => Some(1),
        }
    }

    /// [`Self::layout`], which must not fail.
    fn fitted(&self) -> Layout {
        self.layout().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of data bytes (`MPI_Type_size`).
    pub fn size(&self) -> usize {
        self.fitted().size
    }

    /// `MPI_Type_get_extent`'s extent: `ub - lb`.
    pub fn extent(&self) -> usize {
        self.fitted().extent()
    }

    /// Lower bound in bytes.
    pub fn lb(&self) -> isize {
        self.fitted().lb
    }

    /// Walk the type map in pack order as runs `(primitive, byte
    /// displacement, count)`, based at `base`: `count ≥ 1` primitives at
    /// `displacement`, `displacement + size`, …. Concatenated, the runs
    /// expand to exactly [`crate::type_map`]; `grain` decides how many
    /// primitives one run covers, and consecutive runs may continue each
    /// other. Every displacement is checked as it is formed
    /// ([`DatatypeError::LayoutOverflow`]); the caller checks
    /// [`Self::layout`] first, so that no walk starts on a type whose
    /// size overflows.
    pub(crate) fn walk(
        &self,
        base: isize,
        grain: Grain,
        f: &mut impl FnMut(Primitive, isize, usize),
    ) -> DatatypeResult<()> {
        match self {
            Self::Predefined(p) => emit(f, *p, base, 1),
            Self::Contiguous { count, child } => Child::new(child, grain)?.block(base, *count, f),
            Self::Vector {
                count,
                blocklength: bl,
                child,
                ..
            }
            | Self::Hvector {
                count,
                blocklength: bl,
                child,
                ..
            } => {
                let (c, mut at) = (Child::new(child, grain)?, base);
                let unit = self.unit(c.ext);
                // Empty blocks emit nothing, however many there are.
                for i in 0..if c.empty || *bl == 0 { 0 } else { *count } {
                    if i > 0 {
                        at = shift(at, unit)?;
                    }
                    c.block(at, *bl, f)?;
                }
                Ok(())
            }
            Self::Indexed { blocks, child } | Self::Hindexed { blocks, child } => {
                let c = Child::new(child, grain)?;
                for &(bl, displ) in blocks.iter().filter(|(bl, _)| *bl > 0) {
                    let start = self.unit(c.ext).and_then(|u| u.checked_mul(displ));
                    c.block(shift(base, start)?, bl, f)?;
                }
                Ok(())
            }
            Self::Struct { fields } => {
                for (bl, displ, t) in fields.iter().filter(|(bl, ..)| *bl > 0) {
                    Child::new(t, grain)?.block(shift(base, Some(*displ))?, *bl, f)?;
                }
                Ok(())
            }
            Self::Resized { child, .. } => child.walk(base, grain, f),
        }
    }

    /// `Some((p, n))` when one element is `n ≥ 1` consecutive `p`s from
    /// offset 0, with lower bound 0 and extent `n * p.size()`, and `grain`
    /// lets a walk emit a block of such elements as one run: at
    /// [`Grain::Runs`] any such type, at [`Grain::Described`] a primitive
    /// or a dense resize of one. Reads the description, not the type map.
    fn dense_run(&self, grain: Grain) -> Option<(Primitive, usize)> {
        let mut run = None;
        match (self, grain) {
            (_, Grain::Primitive) => return None,
            (Self::Predefined(p), _) => chain(&mut run, *p, 0, 1),
            (Self::Resized { lb, extent, child }, _) => {
                let (p, n) = child.dense_run(grain)?;
                (*lb == 0 && Some(*extent) == n.checked_mul(p.size())).then_some(())?;
                chain(&mut run, p, 0, n)
            }
            (_, Grain::Described) => return None,
            (Self::Contiguous { count, child }, _) => {
                let (p, n) = child.dense_run(grain)?;
                chain(&mut run, p, 0, n.checked_mul(*count)?)
            }
            (
                Self::Vector {
                    count,
                    blocklength: bl,
                    child,
                    ..
                }
                | Self::Hvector {
                    count,
                    blocklength: bl,
                    child,
                    ..
                },
                _,
            ) => {
                // Block i + 1 starts where block i ends: block 1 at one
                // unit is the whole test.
                let (p, n) = child.dense_run(grain)?;
                let ext = isize::try_from(n.checked_mul(p.size())?).ok()?;
                let block = n.checked_mul(*bl)?;
                if *count > 0 {
                    chain(&mut run, p, 0, block)?;
                }
                if *count > 1 {
                    chain(&mut run, p, self.unit(ext)?, block.checked_mul(count - 1)?)?;
                }
                Some(())
            }
            (Self::Indexed { blocks, child } | Self::Hindexed { blocks, child }, _) => {
                let (p, n) = child.dense_run(grain)?;
                let unit = self.unit(isize::try_from(n.checked_mul(p.size())?).ok()?)?;
                blocks.iter().try_for_each(|&(bl, d)| {
                    chain(&mut run, p, unit.checked_mul(d)?, n.checked_mul(bl)?)
                })
            }
            (Self::Struct { fields }, _) => {
                for (bl, displ, t) in fields {
                    if *bl > 0 {
                        let (p, n) = t.dense_run(grain)?;
                        chain(&mut run, p, *displ, n.checked_mul(*bl)?)?;
                    }
                }
                // The epsilon must not pad the run.
                let (p, n) = run?;
                (n.checked_mul(p.size())?)
                    .is_multiple_of(self.layout().ok()?.align)
                    .then_some(())
            }
        }?;
        run
    }

    /// Commit the type: flatten it into merged blocks in one walk over
    /// its runs, and compile a strided-kernel pack plan (see
    /// [`crate::Committed`] and [`mod@crate::plan`]). This is what
    /// `MPI_Type_commit` maps to.
    ///
    /// ```
    /// use mpicd_datatype::Datatype;
    ///
    /// // A 4×2 column slice of an 8-wide matrix of i32s.
    /// let column = Datatype::vector(4, 2, 8, Datatype::of::<i32>());
    /// let committed = column.commit()?;
    /// assert_eq!(committed.size(), 32);    // packed bytes per element
    /// assert_eq!(committed.extent(), 104); // memory span per element
    ///
    /// // Pack one element out of a matrix of 26 ints (104 bytes).
    /// let matrix: Vec<i32> = (0..26).collect();
    /// let bytes: Vec<u8> = matrix.iter().flat_map(|v| v.to_ne_bytes()).collect();
    /// let packed = committed.pack_slice(&bytes, 1)?;
    /// assert_eq!(&packed[..8], &bytes[..8]);    // row 0: ints 0, 1
    /// assert_eq!(&packed[8..16], &bytes[32..40]); // row 1: ints 8, 9
    /// # Ok::<(), mpicd_datatype::DatatypeError>(())
    /// ```
    pub fn commit(&self) -> DatatypeResult<crate::Committed> {
        crate::Committed::new(self)
    }

    /// Commit without block merging — the generalized-convertor view that
    /// models Open MPI's engine (see [`crate::Committed::new_convertor`]).
    pub fn commit_convertor(&self) -> DatatypeResult<crate::Committed> {
        crate::Committed::new_convertor(self)
    }

    /// Commit with merging but without pack-plan compilation — the
    /// interpreted engine (see [`crate::Committed::new_interpreted`]),
    /// kept for the interpreted-vs-compiled ablation and equivalence tests.
    pub fn commit_interpreted(&self) -> DatatypeResult<crate::Committed> {
        crate::Committed::new_interpreted(self)
    }

    /// Helper: the predefined type for a Rust scalar.
    pub fn of<T: crate::primitive::Scalar>() -> Self {
        Self::Predefined(T::PRIMITIVE)
    }
}

/// Size, bounds and alignment of a type ([`Datatype::layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Data bytes (`MPI_Type_size`), at most `isize::MAX`.
    pub size: usize,
    /// Lower bound in bytes.
    pub lb: isize,
    /// Upper bound in bytes; `ub - lb`, the extent, fits `isize`.
    pub ub: isize,
    /// Maximum alignment of any constituent primitive (the struct epsilon).
    pub align: usize,
}

impl Layout {
    /// `MPI_Type_get_extent`'s extent: `ub - lb`.
    pub fn extent(&self) -> usize {
        (self.ub - self.lb) as usize
    }
}

/// Granularity of a [`Datatype::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Grain {
    /// One run per primitive: the type map itself, the reference the
    /// other grains are tested against ([`crate::type_map`]).
    Primitive,
    /// One run per described `(primitive, blocklength)` entry: what a
    /// generalized convertor (Open MPI) interprets.
    Described,
    /// A block of children that are each one dense run of a primitive,
    /// whatever describes them, is one run: a walk costs the type's runs,
    /// not its primitives. Commit walks at this grain.
    Runs,
}

/// The one error of layout arithmetic.
const OVERFLOW: DatatypeError = DatatypeError::LayoutOverflow;

/// `n * size`, checked.
fn times(n: usize, size: usize) -> DatatypeResult<usize> {
    n.checked_mul(size).ok_or(OVERFLOW)
}

/// `base + rel`, checked (`rel` is `None` when forming it overflowed).
fn shift(base: isize, rel: Option<isize>) -> DatatypeResult<isize> {
    rel.and_then(|r| base.checked_add(r)).ok_or(OVERFLOW)
}

/// Hand `count` `p`s at `disp` to `f`, once their end is known to fit.
fn emit(
    f: &mut impl FnMut(Primitive, isize, usize),
    p: Primitive,
    disp: isize,
    count: usize,
) -> DatatypeResult<()> {
    shift(disp, isize::try_from(times(count, p.size())?).ok())?;
    f(p, disp, count);
    Ok(())
}

/// Widen the `[lb, ub)` hull of a constructor's blocks (`None` while
/// empty) by `bl` elements of a child laid out as `c`, the first at `start`.
fn hull(h: &mut Option<(isize, isize)>, c: &Layout, start: isize, bl: usize) -> DatatypeResult<()> {
    if bl > 0 {
        let lb = shift(start, Some(c.lb))?;
        let span = isize::try_from(bl)
            .ok()
            .and_then(|n| n.checked_mul(c.extent() as isize));
        let ub = shift(lb, span)?;
        *h = Some(h.map_or((lb, ub), |(l, u)| (l.min(lb), u.max(ub))));
    }
    Ok(())
}

/// A constructor's child, with what its block loop needs hoisted out.
struct Child<'a> {
    t: &'a Datatype,
    grain: Grain,
    /// Extent in bytes.
    ext: isize,
    /// No data: a block emits nothing, however many elements it holds.
    empty: bool,
    /// See [`Datatype::dense_run`]: a block of `bl` elements is one run
    /// of `bl * n` `p`s.
    dense: Option<(Primitive, usize)>,
}

impl<'a> Child<'a> {
    fn new(t: &'a Datatype, grain: Grain) -> DatatypeResult<Self> {
        let l = t.layout()?;
        Ok(Self {
            t,
            grain,
            ext: l.extent() as isize,
            empty: l.size == 0,
            dense: t.dense_run(grain),
        })
    }

    /// Walk `bl` consecutive elements, the first at `start`.
    fn block(
        &self,
        start: isize,
        bl: usize,
        f: &mut impl FnMut(Primitive, isize, usize),
    ) -> DatatypeResult<()> {
        if let (Some((p, n)), false) = (self.dense, bl == 0) {
            return emit(f, p, start, times(n, bl)?);
        }
        let mut at = start;
        for j in 0..if self.empty { 0 } else { bl } {
            if j > 0 {
                at = shift(at, Some(self.ext))?;
            }
            self.t.walk(at, self.grain, f)?;
        }
        Ok(())
    }
}

/// Append `n` `p`s at byte `at` to `run`, a run of a primitive from
/// offset 0 (see [`Datatype::dense_run`]); `None` when they do not
/// continue it.
fn chain(run: &mut Option<(Primitive, usize)>, p: Primitive, at: isize, n: usize) -> Option<()> {
    if n > 0 {
        let (q, len) = run.unwrap_or((p, 0));
        (q == p && usize::try_from(at).ok()? == len.checked_mul(p.size())?).then_some(())?;
        *run = Some((p, len.checked_add(n)?));
    }
    Some(())
}

/// Reject constructors whose arguments cannot describe a type.
pub fn validate_vector(count: usize, blocklength: usize, stride: isize) -> DatatypeResult<()> {
    if blocklength > 0 && count > 1 && stride.unsigned_abs() < blocklength {
        return Err(DatatypeError::InvalidArgument(
            "vector stride smaller than blocklength would overlap blocks",
        ));
    }
    Ok(())
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

    #[test]
    fn predefined_layout() {
        assert_eq!(int().size(), 4);
        assert_eq!(int().extent(), 4);
        assert_eq!(int().lb(), 0);
    }

    #[test]
    fn contiguous_layout() {
        let t = Datatype::contiguous(5, int());
        assert_eq!(t.size(), 20);
        assert_eq!(t.extent(), 20);
    }

    #[test]
    fn vector_layout() {
        // 3 blocks of 2 ints, stride 4 ints: |xx..|xx..|xx|
        let t = Datatype::vector(3, 2, 4, int());
        assert_eq!(t.size(), 24);
        assert_eq!(t.extent(), (2 * 4 + 2) * 4); // last block start 8 elems in, +2 elems
    }

    #[test]
    fn struct_simple_matches_paper_listing7() {
        // struct { i32 a, b, c; f64 d; } — repr(C): gap at bytes 12..16.
        let t = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        assert_eq!(t.size(), 20, "20 data bytes");
        assert_eq!(t.extent(), 24, "extent includes the gap + epsilon");
    }

    #[test]
    fn struct_simple_no_gap_matches_paper_listing8() {
        // struct { i32 a, b; f64 c; } — contiguous 16 bytes.
        let t = Datatype::structure(vec![(2, 0, int()), (1, 8, dbl())]);
        assert_eq!(t.size(), 16);
        assert_eq!(t.extent(), 16);
    }

    #[test]
    fn struct_epsilon_padding() {
        // One i32 then one f64 at byte 8 → span 16, already aligned.
        // One f64 then one i32 at byte 8 → span 12, padded to 16.
        let t = Datatype::structure(vec![(1, 0, dbl()), (1, 8, int())]);
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 16, "epsilon pads to f64 alignment");
    }

    #[test]
    fn indexed_layout_with_negative_displacement() {
        let t = Datatype::indexed(vec![(1, -2), (2, 3)], int());
        let l = t.layout().unwrap();
        assert_eq!((l.lb, l.ub), (-8, 20));
        assert_eq!(t.size(), 12);
    }

    #[test]
    fn resized_overrides_extent() {
        let t = Datatype::resized(0, 32, Datatype::contiguous(3, int()));
        assert_eq!(t.extent(), 32);
        assert_eq!(t.size(), 12);
    }

    /// `t`'s runs at `grain`.
    fn runs(t: &Datatype, grain: Grain) -> Vec<(Primitive, isize, usize)> {
        let mut out = Vec::new();
        t.layout().unwrap();
        t.walk(0, grain, &mut |p, disp, n| out.push((p, disp, n)))
            .unwrap();
        out
    }

    const I: Primitive = Primitive::Int32;
    const D: Primitive = Primitive::Double;

    #[test]
    fn walk_emits_pack_order() {
        // struct-simple: the three ints are one described entry and one
        // run; the type map has one entry per primitive.
        let t = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        assert_eq!(runs(&t, Grain::Runs), [(I, 0, 3), (D, 16, 1)]);
        assert_eq!(runs(&t, Grain::Described), [(I, 0, 3), (D, 16, 1)]);
        assert_eq!(
            runs(&t, Grain::Primitive),
            [(I, 0, 1), (I, 4, 1), (I, 8, 1), (D, 16, 1)]
        );
    }

    #[test]
    fn hvector_strides_in_bytes() {
        let t = Datatype::hvector(2, 1, 100, int());
        assert_eq!(runs(&t, Grain::Runs), [(I, 0, 1), (I, 100, 1)]);
        assert_eq!(t.extent(), 104);
    }

    #[test]
    fn nested_vector_of_struct() {
        // Two struct elements, stride 2 extents (48 bytes) apart: the
        // gapped struct is walked element by element at every grain.
        let elem = Datatype::structure(vec![(3, 0, int()), (1, 16, dbl())]);
        let t = Datatype::vector(2, 1, 2, elem);
        let expect = [(I, 0, 3), (D, 16, 1), (I, 48, 3), (D, 64, 1)];
        assert_eq!(runs(&t, Grain::Runs), expect);
        assert_eq!(runs(&t, Grain::Described), expect);
        // A dense struct child (three ints, extent 12) is one run per
        // block of two elements; the convertor still sees its entries.
        let dense = Datatype::structure(vec![(2, 0, int()), (1, 8, int())]);
        let t = Datatype::vector(2, 2, 3, dense);
        assert_eq!(runs(&t, Grain::Runs), [(I, 0, 6), (I, 36, 6)]);
        assert_eq!(
            runs(&t, Grain::Described),
            [
                (I, 0, 2),
                (I, 8, 1),
                (I, 12, 2),
                (I, 20, 1),
                (I, 36, 2),
                (I, 44, 1),
                (I, 48, 2),
                (I, 56, 1)
            ]
        );
    }

    #[test]
    fn dense_children_collapse_whatever_describes_them() {
        // Every constructor that lays a dense child back to back is one
        // run; a gap, a padded struct or a resize breaks it.
        let dense = [
            Datatype::contiguous(4, Datatype::contiguous(3, dbl())),
            Datatype::vector(3, 2, 2, dbl()),
            Datatype::hvector(3, 2, 16, dbl()),
            Datatype::indexed(vec![(2, 0), (0, 9), (1, 2)], dbl()),
            Datatype::hindexed(vec![(1, 0), (2, 8)], dbl()),
            Datatype::resized(0, 8, dbl()),
        ];
        for t in &dense {
            let n = t.size() / 8;
            assert_eq!(t.dense_run(Grain::Runs), Some((D, n)), "{t:?}");
            let two = Datatype::contiguous(2, t.clone());
            assert_eq!(runs(&two, Grain::Runs), [(D, 0, 2 * n)], "{t:?}");
        }
        let broken = [
            Datatype::vector(3, 2, 3, dbl()),
            Datatype::hindexed(vec![(1, 8), (1, 0)], dbl()),
            Datatype::structure(vec![(1, 0, dbl()), (1, 8, int())]),
            Datatype::structure(vec![(1, 0, int()), (0, 0, dbl())]),
            Datatype::resized(0, 16, dbl()),
            Datatype::resized(-8, 8, dbl()),
            Datatype::contiguous(0, dbl()),
            Datatype::vector(0, 2, 2, dbl()),
            Datatype::hvector(2, 0, 0, dbl()),
        ];
        for t in &broken {
            assert_eq!(t.dense_run(Grain::Runs), None, "{t:?}");
        }
        // The convertor collapses only leaves (and dense resizes of them).
        assert_eq!(dense[0].dense_run(Grain::Described), None);
        assert_eq!(dense[5].dense_run(Grain::Described), Some((D, 1)));
    }

    #[test]
    fn vector_bounds_closed_form_matches_blocks() {
        // The closed form against the same blocks listed one by one.
        for stride in [-7isize, -2, 0, 2, 5] {
            for count in [0usize, 1, 2, 5] {
                let v = Datatype::vector(count, 2, stride, dbl());
                let listed = (0..count).map(|i| (2, stride * i as isize)).collect();
                let ix = Datatype::indexed(listed, dbl());
                assert_eq!(v.layout(), ix.layout(), "vector({count}, 2, {stride})");
                let hv = Datatype::hvector(count, 2, stride * 8, dbl());
                assert_eq!(hv.layout(), ix.layout(), "hvector({count}, 2, {stride})");
            }
        }
    }

    #[test]
    fn layout_overflow_is_a_typed_error() {
        let overflow = DatatypeError::LayoutOverflow;
        // Size, bounds and extent that leave isize.
        for t in [
            Datatype::vector(2, 1, isize::MAX / 4, dbl()),
            Datatype::hvector(3, 1, isize::MAX / 2, dbl()),
            Datatype::contiguous(usize::MAX / 4, dbl()),
            Datatype::resized(0, usize::MAX, dbl()),
            Datatype::structure(vec![(1, isize::MIN, dbl()), (1, isize::MAX - 8, dbl())]),
        ] {
            assert_eq!(t.layout(), Err(overflow.clone()), "{t:?}");
        }
        // Every node fits, but the data of a resize lies past its bounds
        // and its displacement leaves isize: the walk reports it.
        let past = Datatype::resized(0, 8, Datatype::hindexed(vec![(1, 64)], dbl()));
        let t = Datatype::hindexed(vec![(1, isize::MAX - 16)], past);
        assert!(t.layout().is_ok());
        assert_eq!(t.walk(0, Grain::Runs, &mut |_, _, _| {}), Err(overflow));
    }

    #[test]
    fn zero_count_types_are_empty() {
        let t = Datatype::contiguous(0, int());
        assert_eq!(t.size(), 0);
        assert_eq!(t.extent(), 0);
        // However many empty elements: the walk does not visit them.
        let t = Datatype::vector(usize::MAX / 4, 2, 2, Datatype::contiguous(0, int()));
        assert_eq!(runs(&t, Grain::Runs), []);
        assert_eq!(t.commit().unwrap().block_count(), 0);
        let t = Datatype::hvector(usize::MAX, 0, 8, int());
        assert_eq!(t.commit().unwrap().block_count(), 0);
    }

    #[test]
    fn validate_vector_rejects_overlap() {
        assert!(validate_vector(4, 3, 2).is_err());
        assert!(validate_vector(4, 3, 3).is_ok());
        assert!(validate_vector(1, 3, 0).is_ok());
    }
}
