//! Native (host-executed) micro-kernels: the one kernel family behind
//! both the library strategies' Goto engine and the §IV reference path.
//!
//! A kernel call updates a column-major `mr × nr` block of `C` with
//! leading dimension `ldc`, computing `C = alpha · Ã · B̃ + beta · C`
//! as Algorithm 1 (GEBP) of the paper: accumulate into a register
//! tile, then merge into `C`. The merge scales `C` on the way: it is
//! `(c·beta) + alpha·acc`, and `beta = 1` skips the multiply, so a
//! caller that scaled `C` beforehand and one that passes `beta` get
//! the same bits, and no call makes a separate pass over `C`. The
//! operands follow the GotoBLAS format of Fig. 2, relaxed as §IV's
//! packing-optional execution needs:
//!
//! * `A` is read as `a[p*a_stride + i] = Ã(i, p)`. `a_stride = mr` is
//!   the packed k-major panel; `a_stride = lda` streams a column-major
//!   `A` unpacked, because its columns are contiguous.
//! * `B` is a [`BOperand`]: the packed k-major sliver, or the caller's
//!   column-major storage gathered per element — profitable exactly
//!   when the gather is cheaper than a packing pass.
//!
//! A tile runs on one of three implementations ([`KernelImpl`]), chosen
//! once when the [`Kernel`] is made:
//!
//! * the scalar loops, multiplying and adding through
//!   [`Scalar::madd`]. Shapes in [`STATIC_SHAPES`] are const-generic
//!   instantiations the compiler fully unrolls; any other shape up to
//!   [`MAX_TILE`] square runs on one dynamic fallback. Both accumulate
//!   every element in the same order, so that dispatch never changes a
//!   result. They are the fallback of every host and element type, and
//!   the oracle the SIMD tiles are checked against;
//! * the AVX2 and AVX-512 tiles of `crate::simd` (x86-64, `f32` only),
//!   which fuse every multiply-add, the merge included:
//!   `fma(alpha, acc, c·beta)`. [`Kernel::for_shape`] picks the widest
//!   one the host runs, detected at run time; on AVX-512 a tile of at
//!   most 8 rows runs the AVX2 nest, which fills one `ymm` register
//!   where a `zmm` would be half masked.
//!
//! Each implementation is bit-identical to its matching reference:
//! [`microkernel_reference`] for the scalar loops,
//! [`microkernel_reference_fused`] for the SIMD tiles.

use std::marker::PhantomData;
use std::sync::OnceLock;

use crate::direct::BOperand;
use crate::scalar::Scalar;

/// Largest tile edge. Wide-vector plans (SVE-512, AVX-512) choose
/// tiles up to 32 rows; the fallback's stack accumulator is sized to
/// admit them (32×32 f32 = 4 KiB).
pub const MAX_TILE: usize = 32;

/// The instruction set a [`Kernel`]'s loop nest runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelImpl {
    /// Portable scalar loops through [`Scalar::madd`]: every host and
    /// element type.
    Scalar,
    /// x86-64 AVX2 + FMA, 8 `f32` lanes per register.
    Avx2,
    /// x86-64 AVX-512F beside AVX2 + FMA, 16 `f32` lanes per register;
    /// tiles of at most 8 rows run the AVX2 nest.
    Avx512,
}

impl KernelImpl {
    /// Every implementation, narrowest first.
    pub const ALL: [KernelImpl; 3] = [KernelImpl::Scalar, KernelImpl::Avx2, KernelImpl::Avx512];

    /// The widest implementation this host runs: the one named by
    /// [`VectorIsa::host`](smm_model::VectorIsa::host), detected once
    /// per process.
    pub fn host() -> KernelImpl {
        static HOST: OnceLock<KernelImpl> = OnceLock::new();
        *HOST.get_or_init(|| {
            let isa = smm_model::VectorIsa::host();
            if isa == smm_model::VectorIsa::avx512() {
                KernelImpl::Avx512
            } else if isa == smm_model::VectorIsa::avx2() {
                KernelImpl::Avx2
            } else {
                KernelImpl::Scalar
            }
        })
    }

    /// Can this host run the implementation? Detected at run time.
    pub fn is_available(self) -> bool {
        match self {
            KernelImpl::Scalar => true,
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            KernelImpl::Avx2 => {
                std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
            }
            // Narrow tiles of an AVX-512 kernel run the AVX2 nest, so
            // AVX-512 counts only beside AVX2 and FMA.
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            KernelImpl::Avx512 => {
                std::is_x86_feature_detected!("avx512f") && KernelImpl::Avx2.is_available()
            }
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            _ => false,
        }
    }

    /// The implementations this host runs, narrowest first.
    pub fn available() -> Vec<KernelImpl> {
        Self::ALL.into_iter().filter(|i| i.is_available()).collect()
    }

    /// Does the implementation fuse its multiply-adds (one rounding per
    /// `acc + a·b` and per `c + alpha·acc`)?
    pub(crate) fn fused(self) -> bool {
        self != KernelImpl::Scalar
    }
}

// Two loop nests, unrolled for a static `MR × NR` shape or bounded at
// run time (the fallback). Both read `B(p, j)` as `b[p*b_row + j*b_col]`,
// so one nest serves both `B` layouts, and keep the accumulator column
// by column, so the compiler vectorizes along `m`, as `C` is laid out.
// Kept by rows, the 8×8 nest was vectorized across its rows with a
// transpose per step and ran 3-4× slower (x86-64, SSE2 build).

/// Unrolled kernel for one static `MR × NR` shape.
///
/// # Safety
/// As [`Kernel::run_ptr`] for an `MR × NR` tile.
// SAFETY: an `unsafe fn` declaration — callers discharge the tile-
// footprint contract in `# Safety` above; the body asserts operand
// lengths before any raw write.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn tile<S: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    alpha: S,
    a: &[S],
    a_stride: usize,
    b: &[S],
    (b_row, b_col): (usize, usize),
    beta: S,
    c: *mut S,
    ldc: usize,
) {
    check_operands(MR, NR, kc, a, a_stride, b, (b_row, b_col), ldc);
    let mut acc = [[S::ZERO; MR]; NR];
    for p in 0..kc {
        let av = &a[p * a_stride..p * a_stride + MR];
        for j in 0..NR {
            let bj = b[p * b_row + j * b_col];
            for i in 0..MR {
                acc[j][i] = acc[j][i].madd(av[i], bj);
            }
        }
    }
    // SAFETY: the caller owns the MR x NR footprint of `c`.
    unsafe { merge(&acc, MR, alpha, beta, c, ldc) }
}

/// Fallback kernel for any `mr × nr` up to [`MAX_TILE`] square.
///
/// # Safety
/// As [`Kernel::run_ptr`] for an `mr × nr` tile.
// SAFETY: an `unsafe fn` declaration — callers discharge the tile-
// footprint contract in `# Safety` above; the body asserts the shape
// and operand lengths before any raw write.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn tile_dyn<S: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    a_stride: usize,
    b: &[S],
    (b_row, b_col): (usize, usize),
    beta: S,
    c: *mut S,
    ldc: usize,
) {
    check_shape(mr, nr);
    check_operands(mr, nr, kc, a, a_stride, b, (b_row, b_col), ldc);
    let mut acc = [[S::ZERO; MAX_TILE]; MAX_TILE];
    for p in 0..kc {
        let av = &a[p * a_stride..p * a_stride + mr];
        for j in 0..nr {
            let bj = b[p * b_row + j * b_col];
            for i in 0..mr {
                acc[j][i] = acc[j][i].madd(av[i], bj);
            }
        }
    }
    // SAFETY: the caller owns the mr x nr footprint of `c`.
    unsafe { merge(&acc[..nr], mr, alpha, beta, c, ldc) }
}

/// The scalar loops' merge of an accumulator tile (`acc[j][i]` for
/// `j < acc.len()`, `i < mr`) into `C`: `c = (c·beta) + alpha·acc`
/// through [`Scalar::madd`]. `beta = 1` skips the multiply, branching
/// once outside the loops.
///
/// # Safety
/// `c` must be valid for exclusive reads and writes of the elements
/// `c + j*ldc + i` for `i < mr`, `j < acc.len()`.
// SAFETY: an `unsafe fn` declaration — callers discharge the footprint
// contract in `# Safety` above.
#[inline(always)]
unsafe fn merge<S: Scalar, const M: usize>(
    acc: &[[S; M]],
    mr: usize,
    alpha: S,
    beta: S,
    c: *mut S,
    ldc: usize,
) {
    // SAFETY: forwarding the caller's footprint contract.
    unsafe {
        if beta == S::ONE {
            merge_scaled(acc, mr, alpha, |x| x, c, ldc)
        } else {
            merge_scaled(acc, mr, alpha, |x| x * beta, c, ldc)
        }
    }
}

/// [`merge`] with the scaling of `C` as a parameter.
///
/// # Safety
/// As [`merge`].
// SAFETY: an `unsafe fn` declaration — callers discharge the footprint
// contract of `merge`.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn merge_scaled<S: Scalar, const M: usize>(
    acc: &[[S; M]],
    mr: usize,
    alpha: S,
    scale: impl Fn(S) -> S,
    c: *mut S,
    ldc: usize,
) {
    for (j, col) in acc.iter().enumerate() {
        for i in 0..mr {
            // SAFETY: (i, j) stays inside the tile footprint the caller
            // contractually owns through `c`.
            unsafe {
                let p = c.add(j * ldc + i);
                *p = scale(*p).madd(alpha, col[i]);
            }
        }
    }
}

/// The shape check of every kernel without a static shape: both edges
/// in `1..=MAX_TILE`.
#[inline(always)]
pub(crate) fn check_shape(mr: usize, nr: usize) {
    assert!(
        (1..=MAX_TILE).contains(&mr) && (1..=MAX_TILE).contains(&nr),
        "dynamic tile {mr}x{nr} out of range"
    );
}

/// The operand checks every kernel makes: `A`, `B` and `C` cover the
/// `mr × nr × kc` tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_operands<S>(
    mr: usize,
    nr: usize,
    kc: usize,
    a: &[S],
    a_stride: usize,
    b: &[S],
    (b_row, b_col): (usize, usize),
    ldc: usize,
) {
    assert!(a_stride >= mr, "A stride must cover the tile rows");
    assert!(
        kc == 0 || a.len() >= (kc - 1) * a_stride + mr,
        "A operand too short"
    );
    assert!(
        kc == 0 || b.len() > (kc - 1) * b_row + (nr - 1) * b_col,
        "B operand too short"
    );
    assert!(ldc >= mr, "ldc must cover the tile rows");
}

/// A runnable kernel: a SIMD tile on the host's widest FMA unit when
/// the element type has one, otherwise the scalar loops — unrolled when
/// the shape is in [`STATIC_SHAPES`], the dynamic fallback otherwise.
#[derive(Clone, Copy)]
pub struct Kernel<S: Scalar> {
    mr: usize,
    nr: usize,
    imp: KernelImpl,
    /// Run the unrolled scalar instantiation when the shape has one
    /// (false only for [`Kernel::fallback`]).
    unrolled: bool,
    _elem: PhantomData<S>,
}

impl<S: Scalar> std::fmt::Debug for Kernel<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.imp {
            KernelImpl::Scalar if self.is_static() => "static",
            KernelImpl::Scalar => "dynamic",
            KernelImpl::Avx2 => "avx2",
            KernelImpl::Avx512 => "avx512",
        };
        write!(f, "Kernel({}x{}, {kind})", self.mr, self.nr)
    }
}

impl<S: Scalar> Kernel<S> {
    /// Kernel for a shape on the widest implementation this host runs
    /// for `S` ([`KernelImpl::host`] when `S` has SIMD tiles, the
    /// scalar loops otherwise), detected once per process.
    pub fn for_shape(mr: usize, nr: usize) -> Self {
        let imp = if S::SIMD_TILES {
            KernelImpl::host()
        } else {
            KernelImpl::Scalar
        };
        Kernel {
            mr,
            nr,
            imp,
            unrolled: true,
            _elem: PhantomData,
        }
    }

    /// Kernel for a shape on an explicit implementation; `None` when
    /// this host cannot run it or `S` has no tiles for it. Each
    /// implementation is checked and benchmarked through this.
    pub fn on(mr: usize, nr: usize, imp: KernelImpl) -> Option<Self> {
        let runs = imp == KernelImpl::Scalar || (S::SIMD_TILES && imp.is_available());
        runs.then_some(Kernel {
            mr,
            nr,
            imp,
            unrolled: true,
            _elem: PhantomData,
        })
    }

    /// The scalar dynamic fallback for a shape even when an unrolled
    /// kernel exists — the baseline that static dispatch is measured
    /// and checked against.
    pub fn fallback(mr: usize, nr: usize) -> Self {
        Kernel {
            mr,
            nr,
            imp: KernelImpl::Scalar,
            unrolled: false,
            _elem: PhantomData,
        }
    }

    /// Tile rows.
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// Tile columns.
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// The implementation the tile runs on.
    pub fn implementation(&self) -> KernelImpl {
        self.imp
    }

    /// Does the tile fuse its multiply-adds? Selects the matching
    /// reference: [`microkernel_reference_fused`] when true,
    /// [`microkernel_reference`] otherwise.
    pub fn is_fused(&self) -> bool {
        self.imp.fused()
    }

    /// Does the scalar implementation run this shape as a statically
    /// instantiated (compiler-unrolled) kernel? The SIMD nests cover
    /// every shape without a table, so this concerns the scalar loops.
    pub fn is_static(&self) -> bool {
        self.unrolled && STATIC_SHAPES.contains(&(self.mr, self.nr))
    }

    /// `C = alpha·A·B + beta·C` on a raw `C` tile pointer — the
    /// in-place split-tile path, where a covering `&mut [S]` cannot
    /// exist. `A` is read as `a[p*a_stride + i]` for `p < kc`. `beta`
    /// scales `C` in the merge (see the module docs); with `kc = 0`
    /// the tile still merges, adding `alpha·0`.
    ///
    /// # Safety
    /// `c` must be valid for exclusive reads and writes of the elements
    /// `c + j*ldc + i` for `i < self.mr()`, `j < self.nr()`.
    // SAFETY: an `unsafe fn` declaration — callers discharge the
    // tile-footprint contract in `# Safety` above.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn run_ptr(
        &self,
        kc: usize,
        alpha: S,
        a: &[S],
        a_stride: usize,
        b: BOperand<'_, S>,
        beta: S,
        c: *mut S,
        ldc: usize,
    ) {
        let (mr, nr) = (self.mr, self.nr);
        let (b, b_strides) = match b {
            BOperand::Packed(b) => (b, (nr, 1)),
            BOperand::ColMajor(b, ldb) => {
                assert!(ldb >= kc, "ldb must cover the tile depth");
                (b, (1, ldb))
            }
        };
        // SAFETY: forwarding the caller's tile-footprint contract; a
        // SIMD `imp` was checked to run here when the kernel was made.
        unsafe {
            if self.imp != KernelImpl::Scalar {
                S::simd_tile(
                    self.imp, mr, nr, kc, alpha, a, a_stride, b, b_strides, beta, c, ldc,
                );
                return;
            }
            let ran = self.unrolled
                && run_unrolled(mr, nr, kc, alpha, a, a_stride, b, b_strides, beta, c, ldc);
            if !ran {
                tile_dyn(mr, nr, kc, alpha, a, a_stride, b, b_strides, beta, c, ldc);
            }
        }
    }

    /// Run against a `C` slice holding the column-major tile at its
    /// start (see [`Kernel::run_ptr`] for the operands).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        kc: usize,
        alpha: S,
        a: &[S],
        a_stride: usize,
        b: BOperand<'_, S>,
        beta: S,
        c: &mut [S],
        ldc: usize,
    ) {
        assert!(
            self.nr >= 1 && ldc >= self.mr && c.len() >= (self.nr - 1) * ldc + self.mr,
            "C block out of bounds"
        );
        // SAFETY: the assert above proves the slice covers the full
        // column-major tile footprint, and `&mut` makes it exclusive.
        unsafe { self.run_ptr(kc, alpha, a, a_stride, b, beta, c.as_mut_ptr(), ldc) }
    }
}

macro_rules! static_shapes {
    ($( ($mr:literal, $nr:literal) ),+ $(,)?) => {
        /// Run the unrolled kernel of a static shape; `false` (and
        /// nothing run) for any other shape. A `match`, not a table of
        /// function pointers, so the compiler can inline a kernel into
        /// its caller.
        ///
        /// # Safety
        /// As [`Kernel::run_ptr`] for an `mr × nr` tile.
        // SAFETY: an `unsafe fn` declaration — forwards the caller's
        // tile-footprint contract to the kernel it dispatches to.
        #[allow(clippy::too_many_arguments)]
        unsafe fn run_unrolled<S: Scalar>(
            mr: usize,
            nr: usize,
            kc: usize,
            alpha: S,
            a: &[S],
            a_stride: usize,
            b: &[S],
            b_strides: (usize, usize),
            beta: S,
            c: *mut S,
            ldc: usize,
        ) -> bool {
            // SAFETY: forwarding the caller's tile-footprint contract.
            unsafe {
                match (mr, nr) {
                    $( ($mr, $nr) => tile::<S, $mr, $nr>(kc, alpha, a, a_stride, b, b_strides, beta, c, ldc), )+
                    _ => return false,
                }
            }
            true
        }

        /// Shapes with static instantiations.
        pub const STATIC_SHAPES: &[(usize, usize)] = &[ $( ($mr, $nr) ),+ ];
    };
}

// Main kernels of Table I plus every edge shape the greedy
// power-of-two decomposition of those kernels emits.
static_shapes![
    (16, 4),
    (8, 8),
    (4, 4),
    (8, 12),
    (12, 4),
    (16, 2),
    (16, 1),
    (8, 4),
    (8, 2),
    (8, 1),
    (4, 8),
    (4, 12),
    (4, 2),
    (4, 1),
    (2, 4),
    (2, 8),
    (2, 12),
    (2, 2),
    (2, 1),
    (1, 4),
    (1, 8),
    (1, 12),
    (1, 2),
    (1, 1),
    (12, 2),
    (12, 1),
    (6, 4),
];

/// Why [`KernelRegistry::lookup`] refused a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLookupError {
    /// The accumulator tile breaks the registry ISA's Eq. 4 budget.
    RegisterBudget(smm_model::RegisterBudgetError),
    /// An edge exceeds [`MAX_TILE`]: no kernel runs the tile, however
    /// few registers its accumulator needs (64×1 fits Eq. 4 at 512 bits).
    TooLarge {
        /// Requested tile rows.
        mr: usize,
        /// Requested tile columns.
        nr: usize,
        /// The largest edge a kernel runs ([`MAX_TILE`]).
        max: usize,
    },
}

impl std::fmt::Display for KernelLookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelLookupError::RegisterBudget(e) => e.fmt(f),
            KernelLookupError::TooLarge { mr, nr, max } => {
                write!(f, "{mr}x{nr} exceeds the largest kernel tile, {max}x{max}")
            }
        }
    }
}

impl std::error::Error for KernelLookupError {}

impl From<smm_model::RegisterBudgetError> for KernelLookupError {
    fn from(e: smm_model::RegisterBudgetError) -> Self {
        KernelLookupError::RegisterBudget(e)
    }
}

/// A typed registry handle: one `KernelRef` per `(shape, isa)` lookup.
///
/// Replaces the bare `(mr, nr)` tuple keys callers used to pass around
/// alongside a loose `Option<fn>`: a `KernelRef` can only be obtained
/// through [`KernelRegistry::lookup`], which has already proven the
/// shape against [`MAX_TILE`] and the registry ISA's Eq. 4 budget.
#[derive(Clone, Copy)]
pub struct KernelRef<S: Scalar> {
    shape: smm_model::KernelShape,
    isa: smm_model::VectorIsa,
    kernel: Kernel<S>,
}

impl<S: Scalar> std::fmt::Debug for KernelRef<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KernelRef({:?} @ {})", self.kernel, self.isa)
    }
}

impl<S: Scalar> KernelRef<S> {
    /// The validated register-tile shape.
    pub fn shape(&self) -> smm_model::KernelShape {
        self.shape
    }

    /// The ISA the shape was validated against.
    pub fn isa(&self) -> smm_model::VectorIsa {
        self.isa
    }

    /// The runnable kernel.
    pub fn kernel(&self) -> Kernel<S> {
        self.kernel
    }

    /// Is the underlying kernel statically instantiated?
    pub fn is_static(&self) -> bool {
        self.kernel.is_static()
    }

    /// `C += alpha·A·B` on packed slivers: `a` is the k-major
    /// `mr × kc` panel, `b` the k-major `kc × nr` sliver (see
    /// [`Kernel::run`], here with `beta = 1`).
    #[inline]
    pub fn run(&self, kc: usize, alpha: S, a: &[S], b: &[S], c: &mut [S], ldc: usize) {
        let mr = self.kernel.mr();
        self.kernel
            .run(kc, alpha, a, mr, BOperand::Packed(b), S::ONE, c, ldc)
    }
}

/// Kernel lookups keyed by `(shape, isa)`.
///
/// A native kernel runs on the host's own implementation
/// ([`Kernel::for_shape`]) whatever the registry's ISA, so the ISA does
/// not change *what* a kernel computes — it changes which shapes are
/// legal (Eq. 4 counts accumulators in vector registers of the ISA's
/// width) and how the shape is characterized by the model layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelRegistry {
    isa: smm_model::VectorIsa,
}

impl KernelRegistry {
    /// Registry for the default NEON-128 configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry validating shapes against an explicit ISA.
    pub fn for_isa(isa: smm_model::VectorIsa) -> Self {
        KernelRegistry { isa }
    }

    /// The ISA lookups are validated against.
    pub fn isa(&self) -> smm_model::VectorIsa {
        self.isa
    }

    /// Look up a kernel for `mr × nr`, proving first that a kernel runs
    /// the shape (both edges at most [`MAX_TILE`]) and that it fits
    /// this registry's Eq. 4 budget.
    pub fn lookup<S: Scalar>(
        &self,
        mr: usize,
        nr: usize,
    ) -> Result<KernelRef<S>, KernelLookupError> {
        if mr > MAX_TILE || nr > MAX_TILE {
            return Err(KernelLookupError::TooLarge {
                mr,
                nr,
                max: MAX_TILE,
            });
        }
        self.isa
            .check_register_budget(mr, nr, std::mem::size_of::<S>())?;
        Ok(KernelRef {
            shape: smm_model::KernelShape::new(mr, nr),
            isa: self.isa,
            kernel: Kernel::for_shape(mr, nr),
        })
    }

    /// Statically instantiated shapes that satisfy this ISA's budget.
    pub fn feasible_static_shapes(&self) -> Vec<(usize, usize)> {
        STATIC_SHAPES
            .iter()
            .copied()
            .filter(|&(mr, nr)| self.isa.check_register_budget(mr, nr, 4).is_ok())
            .collect()
    }
}

/// Reference implementation of the same contract, used to validate the
/// scalar kernels: plain triple loop over the packed slivers, through
/// [`Scalar::madd`], then `c·beta` and the merge.
#[allow(clippy::too_many_arguments)]
pub fn microkernel_reference<S: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    b: &[S],
    beta: S,
    c: &mut [S],
    ldc: usize,
) {
    reference_with(S::madd, mr, nr, kc, alpha, a, b, beta, c, ldc);
}

/// The fused twin of [`microkernel_reference`], used to validate the
/// SIMD tiles: the same loop, through [`Scalar::fused_madd`].
#[allow(clippy::too_many_arguments)]
pub fn microkernel_reference_fused<S: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    b: &[S],
    beta: S,
    c: &mut [S],
    ldc: usize,
) {
    reference_with(S::fused_madd, mr, nr, kc, alpha, a, b, beta, c, ldc);
}

/// The reference triple loop with the multiply-add `madd(acc, x, y) =
/// acc + x·y` as a parameter. It scales `C` by `beta` unconditionally,
/// so a kernel's `beta = 1` shortcut is checked against a real multiply.
#[allow(clippy::too_many_arguments)]
fn reference_with<S: Scalar>(
    madd: fn(S, S, S) -> S,
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    b: &[S],
    beta: S,
    c: &mut [S],
    ldc: usize,
) {
    for j in 0..nr {
        for i in 0..mr {
            let mut acc = S::ZERO;
            for p in 0..kc {
                acc = madd(acc, a[p * mr + i], b[p * nr + j]);
            }
            c[j * ldc + i] = madd(c[j * ldc + i] * beta, alpha, acc);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Deterministic pseudo-random values in `[-2, 2)` with full
    /// 53-bit mantissas, rounded to `S`: their products and partial
    /// sums round, so a fused kernel and an unfused one disagree (see
    /// `fill_rounds_so_fused_and_unfused_differ`). Never `-0.0`, so a
    /// `kc = 0` call must leave every bit of `C` alone.
    pub(crate) fn fill<S: Scalar>(n: usize, seed: u64) -> Vec<S> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                S::from_f64((unit - 0.5) * 4.0)
            })
            .collect()
    }

    /// The reference with the kernel's own multiply-add.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reference_for<S: Scalar>(
        kernel: &Kernel<S>,
        kc: usize,
        alpha: S,
        a: &[S],
        b: &[S],
        beta: S,
        c: &mut [S],
        ldc: usize,
    ) {
        let (mr, nr) = (kernel.mr(), kernel.nr());
        if kernel.is_fused() {
            microkernel_reference_fused(mr, nr, kc, alpha, a, b, beta, c, ldc);
        } else {
            microkernel_reference(mr, nr, kc, alpha, a, b, beta, c, ldc);
        }
    }

    fn assert_bits_eq<S: Scalar>(got: &[S], want: &[S], ctx: &str) {
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                x.to_f64().to_bits(),
                y.to_f64().to_bits(),
                "{ctx}: c[{i}] = {x} vs {y}"
            );
        }
    }

    /// One kernel call with `A` at stride `mr + a_pad`, `B` packed or
    /// column-major and a gapped `ldc`, against the packed reference
    /// with the kernel's own multiply-add.
    pub(crate) fn check_case<S: Scalar>(
        kernel: Kernel<S>,
        kc: usize,
        alpha: S,
        beta: S,
        a_pad: usize,
        col_major_b: bool,
        seed: u64,
    ) {
        run_case(kernel, kc, alpha, beta, a_pad, col_major_b, seed, false);
    }

    /// [`check_case`], optionally with a NaN planted in every third
    /// element of `C` (the gaps between columns included).
    #[allow(clippy::too_many_arguments)]
    fn run_case<S: Scalar>(
        kernel: Kernel<S>,
        kc: usize,
        alpha: S,
        beta: S,
        a_pad: usize,
        col_major_b: bool,
        seed: u64,
        nan_c: bool,
    ) {
        let (mr, nr) = (kernel.mr(), kernel.nr());
        let (a_stride, ldb, ldc) = (mr + a_pad, kc + 3, mr + 2);
        let a = fill::<S>(a_stride * kc, seed);
        let b = fill::<S>(ldb * nr, seed + 1);
        let mut c0 = fill::<S>(ldc * nr, seed + 2);
        if nan_c {
            c0.iter_mut()
                .step_by(3)
                .for_each(|x| *x = S::from_f64(f64::NAN));
        }
        let mut a_packed = Vec::with_capacity(mr * kc);
        let mut b_packed = Vec::with_capacity(kc * nr);
        for p in 0..kc {
            a_packed.extend((0..mr).map(|i| a[p * a_stride + i]));
            b_packed.extend((0..nr).map(|j| b[j * ldb + p]));
        }
        let b_op = if col_major_b {
            BOperand::ColMajor(&b, ldb)
        } else {
            BOperand::Packed(&b_packed)
        };
        let mut c = c0.clone();
        kernel.run(kc, alpha, &a, a_stride, b_op, beta, &mut c, ldc);
        let mut want = c0.clone();
        reference_for(
            &kernel, kc, alpha, &a_packed, &b_packed, beta, &mut want, ldc,
        );
        let ctx = format!(
            "{kernel:?} kc={kc} beta={beta} a_pad={a_pad} col_major_b={col_major_b} nan_c={nan_c}"
        );
        assert_bits_eq(&c, &want, &ctx);
        if kc == 0 && beta == S::ONE {
            assert_bits_eq(&c, &c0, &ctx);
        }
        if nan_c {
            // NaN·0 is NaN: beta = 0 scales C, it does not overwrite it.
            assert!(c[0].to_f64().is_nan(), "{ctx}");
        }
    }

    /// The kernel contract, table-driven, on every implementation this
    /// host runs (scalar, AVX2, AVX-512): every shape up to `MAX_TILE`
    /// square (scalar: static shapes unrolled, the rest on the
    /// fallback), both `B` layouts, packed and strided `A`, `kc` 0, 5
    /// and 37, `beta` 0, 1 and -0.75, f32 and f64 — each output
    /// bit-identical to the reference with the implementation's
    /// multiply-add, which scales `C` by `beta` before the merge. Each
    /// shape also merges into a `C` holding NaNs with `beta = 0`.
    #[test]
    fn every_shape_layout_and_stride_matches_reference() {
        fn sweep<S: Scalar>(imp: KernelImpl) {
            let alphas = [1.0, -2.5, 0.5, 2.0];
            let mut seed = 1u64;
            for mr in 1..=MAX_TILE {
                for nr in 1..=MAX_TILE {
                    let kernel = Kernel::<S>::on(mr, nr, imp).expect("available");
                    assert_eq!(kernel.implementation(), imp);
                    for kc in [0, 5, 37] {
                        for beta in [0.0, 1.0, -0.75] {
                            for a_pad in [0, 5] {
                                for col_major_b in [false, true] {
                                    let alpha = S::from_f64(alphas[seed as usize % alphas.len()]);
                                    let beta = S::from_f64(beta);
                                    check_case(kernel, kc, alpha, beta, a_pad, col_major_b, seed);
                                    seed += 3;
                                }
                            }
                        }
                    }
                    run_case(kernel, 5, S::ONE, S::ZERO, 0, false, seed, true);
                }
            }
        }
        for imp in KernelImpl::available() {
            sweep::<f32>(imp);
        }
        sweep::<f64>(KernelImpl::Scalar);
    }

    /// The contract test's operands tell a fused kernel from an
    /// unfused one: with exactly representable products and sums (the
    /// multiples of 1/4 drawn before) the two references agree bit for
    /// bit, and a SIMD tile would pass the unfused check unnoticed.
    #[test]
    fn fill_rounds_so_fused_and_unfused_differ() {
        let (mr, nr, kc) = (16, 16, 37);
        let a = fill::<f32>(mr * kc, 1);
        let b = fill::<f32>(kc * nr, 2);
        let c0 = fill::<f32>(mr * nr, 3);
        let (mut plain, mut fused) = (c0.clone(), c0);
        microkernel_reference(mr, nr, kc, 1.5, &a, &b, 1.0, &mut plain, mr);
        microkernel_reference_fused(mr, nr, kc, 1.5, &a, &b, 1.0, &mut fused, mr);
        let differ = plain.iter().zip(&fused).filter(|(x, y)| x != y).count();
        assert!(differ > mr * nr / 4, "only {differ} elements differ");
    }

    /// The SIMD implementations exist exactly where the host has them,
    /// and `for_shape` picks the widest for f32, the scalar loops for
    /// f64.
    #[test]
    fn implementations_follow_the_host() {
        let host = KernelImpl::host();
        assert!(host.is_available());
        let avail = KernelImpl::available();
        assert_eq!(avail[0], KernelImpl::Scalar);
        assert_eq!(avail.last(), Some(&host));
        let isa = smm_model::VectorIsa::host();
        let want = match isa.name {
            "avx512" => KernelImpl::Avx512,
            "avx2" => KernelImpl::Avx2,
            _ => KernelImpl::Scalar,
        };
        assert_eq!(host, want, "{isa}");
        assert_eq!(Kernel::<f32>::for_shape(8, 8).implementation(), host);
        assert!(!Kernel::<f64>::for_shape(8, 8).is_fused());
        for imp in KernelImpl::ALL {
            assert_eq!(Kernel::<f32>::on(4, 4, imp).is_some(), imp.is_available());
            let f64_runs = Kernel::<f64>::on(4, 4, imp).is_some();
            assert_eq!(f64_runs, imp == KernelImpl::Scalar);
        }
    }

    /// Every shape a registry accepts runs and matches the reference;
    /// every shape it refuses gets the typed error naming why — a tile
    /// past `MAX_TILE` is too large even where Eq. 4 admits it (64×1
    /// and 48×10 at 512 bits).
    #[test]
    fn every_accepted_lookup_runs_on_every_isa() {
        const EDGE: usize = 4 * MAX_TILE;
        for isa in smm_model::VectorIsa::all() {
            let reg = KernelRegistry::for_isa(isa);
            let mut accepted = 0;
            for mr in 1..=EDGE {
                for nr in 1..=EDGE {
                    let k = match reg.lookup::<f32>(mr, nr) {
                        Ok(k) => k,
                        Err(KernelLookupError::TooLarge { max, .. }) => {
                            assert!(mr.max(nr) > max, "{mr}x{nr} on {isa}");
                            assert_eq!(max, MAX_TILE);
                            continue;
                        }
                        Err(KernelLookupError::RegisterBudget(e)) => {
                            assert!(mr.max(nr) <= MAX_TILE, "{mr}x{nr} on {isa}");
                            assert!(e.accumulators > e.limit, "{mr}x{nr} on {isa}");
                            assert!(isa.check_register_budget(mr, nr, 4).is_err());
                            continue;
                        }
                    };
                    accepted += 1;
                    let kc = 3;
                    let a = fill::<f32>(mr * kc, 1);
                    let b = fill::<f32>(kc * nr, 2);
                    let mut c = fill::<f32>(mr * nr, 3);
                    let mut want = c.clone();
                    k.run(kc, 1.5, &a, &b, &mut c, mr);
                    reference_for(&k.kernel(), kc, 1.5, &a, &b, 1.0, &mut want, mr);
                    assert_bits_eq(&c, &want, &format!("{k:?}"));
                }
            }
            assert!(accepted > 0, "{isa} accepts nothing");
        }
        let wide = KernelRegistry::for_isa(smm_model::VectorIsa::avx512());
        for (mr, nr) in [(64, 1), (48, 10)] {
            assert!(smm_model::VectorIsa::avx512()
                .check_register_budget(mr, nr, 4)
                .is_ok());
            assert_eq!(
                wide.lookup::<f32>(mr, nr).unwrap_err(),
                KernelLookupError::TooLarge {
                    mr,
                    nr,
                    max: MAX_TILE
                }
            );
        }
    }

    #[test]
    fn all_static_shapes_match_reference() {
        for &(mr, nr) in STATIC_SHAPES {
            check_case(Kernel::<f32>::for_shape(mr, nr), 37, 1.0, 1.0, 0, false, 1);
        }
    }

    #[test]
    fn alpha_scaling_applies() {
        check_case(Kernel::<f32>::for_shape(8, 8), 16, -2.5, 1.0, 0, false, 1);
        check_case(Kernel::<f32>::for_shape(16, 4), 5, 0.5, 1.0, 0, false, 2);
    }

    #[test]
    fn kc_zero_leaves_c_untouched_modulo_alpha_times_zero() {
        let mut c = vec![7.0f32; 16];
        Kernel::<f32>::for_shape(4, 4).run(0, 3.0, &[], 4, BOperand::Packed(&[]), 1.0, &mut c, 4);
        assert!(c.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn f64_kernels_work() {
        let a: Vec<f64> = (0..8 * 4).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..8 * 4).map(|i| (i % 7) as f64).collect();
        let mut c = vec![0.0f64; 4 * 4];
        let mut c_ref = c.clone();
        Kernel::<f64>::for_shape(4, 4).run(8, 1.0, &a, 4, BOperand::Packed(&b), 1.0, &mut c, 4);
        microkernel_reference(4, 4, 8, 1.0, &a, &b, 1.0, &mut c_ref, 4);
        assert_eq!(c, c_ref);
    }

    #[test]
    fn accumulation_adds_to_existing_c() {
        let a = vec![1.0f32; 4]; // 4x1 of ones, kc=1
        let b = vec![2.0f32; 1];
        let mut c = vec![10.0f32; 4];
        Kernel::<f32>::for_shape(4, 1).run(1, 1.0, &a, 4, BOperand::Packed(&b), 1.0, &mut c, 4);
        assert_eq!(c, vec![12.0; 4]);
    }

    #[test]
    fn dynamic_fallback_engages_for_odd_shapes() {
        assert!(!Kernel::<f32>::for_shape(7, 5).is_static());
        assert!(!Kernel::<f32>::for_shape(32, 12).is_static());
        assert!(!Kernel::<f32>::fallback(8, 8).is_static());
        check_case(Kernel::<f32>::fallback(8, 8), 9, 1.5, 1.0, 0, false, 7);
    }

    #[test]
    fn static_lookup_covers_table_i_kernels() {
        for &(mr, nr) in &[(16, 4), (8, 8), (4, 4), (8, 12), (12, 4)] {
            assert!(Kernel::<f32>::for_shape(mr, nr).is_static(), "{mr}x{nr}");
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_operands_panic() {
        let mut c = vec![0.0f32; 16];
        Kernel::<f32>::for_shape(4, 4).run(
            10,
            1.0,
            &[0.0; 8],
            4,
            BOperand::Packed(&[0.0; 64]),
            1.0,
            &mut c,
            4,
        );
    }

    #[test]
    fn registry_lookup_returns_typed_refs() {
        let reg = KernelRegistry::new();
        let k = reg.lookup::<f32>(8, 8).expect("8x8 fits NEON");
        assert_eq!(k.shape().mr, 8);
        assert_eq!(k.isa().name, "neon128");
        assert!(k.is_static());
        // Running through the ref matches the reference kernel.
        let a = fill(8 * 4, 1);
        let b = fill(8 * 4, 2);
        let mut c = fill(8 * 8, 3);
        let mut c_ref = c.clone();
        k.run(4, 1.0, &a, &b, &mut c, 8);
        reference_for(&k.kernel(), 4, 1.0, &a, &b, 1.0, &mut c_ref, 8);
        assert_eq!(c, c_ref);
    }

    #[test]
    fn lookup_errors_display_their_cause() {
        let reg = KernelRegistry::new();
        let e = reg.lookup::<f32>(16, 8).unwrap_err();
        assert!(matches!(e, KernelLookupError::RegisterBudget(_)));
        assert!(e.to_string().contains("Eq. 4"), "{e}");
        let e = reg.lookup::<f32>(33, 1).unwrap_err();
        assert_eq!(e.to_string(), "33x1 exceeds the largest kernel tile, 32x32");
    }

    #[test]
    fn registry_enforces_its_isas_budget() {
        // 16x8 is over budget at 128-bit but legal at 256-bit.
        assert!(KernelRegistry::new().lookup::<f32>(16, 8).is_err());
        let wide = KernelRegistry::for_isa(smm_model::VectorIsa::sve256());
        assert!(wide.lookup::<f32>(16, 8).is_ok());
        // f64 halves the lanes: 16x8 needs 2x registers at 256-bit too.
        assert!(wide.lookup::<f64>(16, 8).is_err());
    }

    #[test]
    fn feasible_static_shapes_grow_with_width() {
        let narrow = KernelRegistry::new().feasible_static_shapes();
        let wide = KernelRegistry::for_isa(smm_model::VectorIsa::sve512()).feasible_static_shapes();
        assert!(narrow.len() == STATIC_SHAPES.len());
        assert!(wide.len() >= narrow.len());
    }
}
