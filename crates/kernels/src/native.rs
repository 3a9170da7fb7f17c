//! Native (host-executed) micro-kernels: the one kernel family behind
//! both the library strategies' Goto engine and the §IV reference path.
//!
//! A kernel call updates a column-major `mr × nr` block of `C` with
//! leading dimension `ldc`, computing `C += alpha · Ã · B̃` exactly as
//! Algorithm 1 (GEBP) of the paper: accumulate into a register tile,
//! then merge into `C`. The operands follow the GotoBLAS format of
//! Fig. 2, relaxed as §IV's packing-optional execution needs:
//!
//! * `A` is read as `a[p*a_stride + i] = Ã(i, p)`. `a_stride = mr` is
//!   the packed k-major panel; `a_stride = lda` streams a column-major
//!   `A` unpacked, because its columns are contiguous.
//! * `B` is a [`BOperand`]: the packed k-major sliver, or the caller's
//!   column-major storage gathered per element — profitable exactly
//!   when the gather is cheaper than a packing pass.
//!
//! Shapes in [`STATIC_SHAPES`] are const-generic instantiations the
//! compiler fully unrolls; any other shape up to [`MAX_TILE`] square
//! runs on one dynamic fallback. Both accumulate every element in the
//! same order, so the dispatch never changes a result.

use std::marker::PhantomData;

use crate::direct::BOperand;
use crate::scalar::Scalar;

/// Largest tile edge. Wide-vector plans (SVE-512) choose tiles up to
/// 32 rows; the fallback's stack accumulator is sized to admit them
/// (32×32 f32 = 4 KiB).
pub const MAX_TILE: usize = 32;

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
    for j in 0..NR {
        for i in 0..MR {
            // SAFETY: (i, j) stays inside the MR x NR tile footprint
            // the caller contractually owns through `c`.
            unsafe {
                let p = c.add(j * ldc + i);
                *p = (*p).madd(alpha, acc[j][i]);
            }
        }
    }
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
    c: *mut S,
    ldc: usize,
) {
    assert!(
        (1..=MAX_TILE).contains(&mr) && (1..=MAX_TILE).contains(&nr),
        "dynamic tile {mr}x{nr} out of range"
    );
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
    for j in 0..nr {
        for i in 0..mr {
            // SAFETY: (i, j) stays inside the mr x nr tile footprint
            // the caller contractually owns through `c`.
            unsafe {
                let p = c.add(j * ldc + i);
                *p = (*p).madd(alpha, acc[j][i]);
            }
        }
    }
}

/// The operand checks every kernel makes: `A`, `B` and `C` cover the
/// `mr × nr × kc` tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn check_operands<S>(
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

/// A runnable kernel: the unrolled instantiation when the shape is in
/// [`STATIC_SHAPES`], otherwise the dynamic fallback.
#[derive(Clone, Copy)]
pub struct Kernel<S: Scalar> {
    mr: usize,
    nr: usize,
    /// Run the unrolled instantiation when the shape has one (false
    /// only for [`Kernel::fallback`]).
    unrolled: bool,
    _elem: PhantomData<S>,
}

impl<S: Scalar> std::fmt::Debug for Kernel<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_static() {
            "static"
        } else {
            "dynamic"
        };
        write!(f, "Kernel({}x{}, {kind})", self.mr, self.nr)
    }
}

impl<S: Scalar> Kernel<S> {
    /// Kernel for a shape; unrolled when the shape is static.
    pub fn for_shape(mr: usize, nr: usize) -> Self {
        Kernel {
            mr,
            nr,
            unrolled: true,
            _elem: PhantomData,
        }
    }

    /// The dynamic fallback for a shape even when an unrolled kernel
    /// exists — the baseline that static dispatch is measured and
    /// checked against.
    pub fn fallback(mr: usize, nr: usize) -> Self {
        Kernel {
            mr,
            nr,
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

    /// Is this a statically instantiated (compiler-unrolled) kernel?
    pub fn is_static(&self) -> bool {
        self.unrolled && STATIC_SHAPES.contains(&(self.mr, self.nr))
    }

    /// Run against a raw `C` tile pointer — the in-place split-tile
    /// path, where a covering `&mut [S]` cannot exist. `A` is read as
    /// `a[p*a_stride + i]` for `p < kc`.
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
        // SAFETY: forwarding the caller's tile-footprint contract.
        unsafe {
            let ran =
                self.unrolled && run_unrolled(mr, nr, kc, alpha, a, a_stride, b, b_strides, c, ldc);
            if !ran {
                tile_dyn(mr, nr, kc, alpha, a, a_stride, b, b_strides, c, ldc);
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
        c: &mut [S],
        ldc: usize,
    ) {
        assert!(
            self.nr >= 1 && ldc >= self.mr && c.len() >= (self.nr - 1) * ldc + self.mr,
            "C block out of bounds"
        );
        // SAFETY: the assert above proves the slice covers the full
        // column-major tile footprint, and `&mut` makes it exclusive.
        unsafe { self.run_ptr(kc, alpha, a, a_stride, b, c.as_mut_ptr(), ldc) }
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
            c: *mut S,
            ldc: usize,
        ) -> bool {
            // SAFETY: forwarding the caller's tile-footprint contract.
            unsafe {
                match (mr, nr) {
                    $( ($mr, $nr) => tile::<S, $mr, $nr>(kc, alpha, a, a_stride, b, b_strides, c, ldc), )+
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

/// A typed registry handle: one `KernelRef` per `(shape, isa)` lookup.
///
/// Replaces the bare `(mr, nr)` tuple keys callers used to pass around
/// alongside a loose `Option<fn>`: a `KernelRef` can only be obtained
/// through [`KernelRegistry::lookup`], which has already proven the
/// shape against the registry ISA's Eq. 4 budget.
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

    /// Run on packed slivers: `a` is the k-major `mr × kc` panel, `b`
    /// the k-major `kc × nr` sliver (see [`Kernel::run`]).
    #[inline]
    pub fn run(&self, kc: usize, alpha: S, a: &[S], b: &[S], c: &mut [S], ldc: usize) {
        let mr = self.kernel.mr();
        self.kernel
            .run(kc, alpha, a, mr, BOperand::Packed(b), c, ldc)
    }
}

/// Kernel lookups keyed by `(shape, isa)`.
///
/// The native kernels compute with host scalar arithmetic, so the ISA
/// does not change *what* a kernel computes — it changes which shapes
/// are legal (Eq. 4 counts accumulators in vector registers of the
/// ISA's width) and how the shape is characterized by the model layer.
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

    /// Look up a kernel for `mr × nr`, proving it against this
    /// registry's Eq. 4 budget first.
    pub fn lookup<S: Scalar>(
        &self,
        mr: usize,
        nr: usize,
    ) -> Result<KernelRef<S>, smm_model::RegisterBudgetError> {
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
/// unrolled kernels: plain triple loop over the packed slivers.
#[allow(clippy::too_many_arguments)]
pub fn microkernel_reference<S: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    b: &[S],
    c: &mut [S],
    ldc: usize,
) {
    for j in 0..nr {
        for i in 0..mr {
            let mut acc = S::ZERO;
            for p in 0..kc {
                acc = acc.madd(a[p * mr + i], b[p * nr + j]);
            }
            c[j * ldc + i] = c[j * ldc + i].madd(alpha, acc);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn fill<S: Scalar>(n: usize, seed: u64) -> Vec<S> {
        // Small deterministic pseudo-random values (multiples of 1/4).
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                S::from_f64(((state >> 33) as i64 % 17 - 8) as f64 * 0.25)
            })
            .collect()
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
    /// column-major and a gapped `ldc`, against the packed reference.
    pub(crate) fn check_case<S: Scalar>(
        kernel: Kernel<S>,
        kc: usize,
        alpha: S,
        a_pad: usize,
        col_major_b: bool,
        seed: u64,
    ) {
        let (mr, nr) = (kernel.mr(), kernel.nr());
        let (a_stride, ldb, ldc) = (mr + a_pad, kc + 3, mr + 2);
        let a = fill::<S>(a_stride * kc, seed);
        let b = fill::<S>(ldb * nr, seed + 1);
        let c0 = fill::<S>(ldc * nr, seed + 2);
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
        kernel.run(kc, alpha, &a, a_stride, b_op, &mut c, ldc);
        let mut want = c0.clone();
        microkernel_reference(mr, nr, kc, alpha, &a_packed, &b_packed, &mut want, ldc);
        let ctx = format!("{kernel:?} kc={kc} a_pad={a_pad} col_major_b={col_major_b}");
        assert_bits_eq(&c, &want, &ctx);
        if kc == 0 {
            assert_bits_eq(&c, &c0, &ctx);
        }
    }

    /// The kernel contract, table-driven: every shape up to
    /// `MAX_TILE` square (static shapes unrolled, the rest on the
    /// fallback), both `B` layouts, packed and strided `A`, `kc = 0`,
    /// f32 and f64 — each output bit-identical to the reference.
    #[test]
    fn every_shape_layout_and_stride_matches_reference() {
        fn sweep<S: Scalar>() {
            let alphas = [1.0, -2.5, 0.5, 2.0];
            let mut seed = 1u64;
            for mr in 1..=MAX_TILE {
                for nr in 1..=MAX_TILE {
                    let kernel = Kernel::<S>::for_shape(mr, nr);
                    let kcs: &[usize] = if kernel.is_static() {
                        &[0, 5, 37]
                    } else {
                        &[0, 5]
                    };
                    for &kc in kcs {
                        for a_pad in [0, 5] {
                            for col_major_b in [false, true] {
                                let alpha = S::from_f64(alphas[seed as usize % alphas.len()]);
                                check_case(kernel, kc, alpha, a_pad, col_major_b, seed);
                                seed += 3;
                            }
                        }
                    }
                }
            }
        }
        sweep::<f32>();
        sweep::<f64>();
    }

    /// Every shape a registry accepts runs: the fallback covers the
    /// widest tiles any shipped ISA admits.
    #[test]
    fn every_accepted_lookup_runs_on_every_isa() {
        for isa in smm_model::VectorIsa::all() {
            let reg = KernelRegistry::for_isa(isa);
            for mr in 1..=MAX_TILE {
                for nr in 1..=MAX_TILE {
                    let Ok(k) = reg.lookup::<f32>(mr, nr) else {
                        continue;
                    };
                    let kc = 3;
                    let a = fill::<f32>(mr * kc, 1);
                    let b = fill::<f32>(kc * nr, 2);
                    let mut c = fill::<f32>(mr * nr, 3);
                    let mut want = c.clone();
                    k.run(kc, 1.5, &a, &b, &mut c, mr);
                    microkernel_reference(mr, nr, kc, 1.5, &a, &b, &mut want, mr);
                    assert_bits_eq(&c, &want, &format!("{k:?}"));
                }
            }
        }
    }

    #[test]
    fn all_static_shapes_match_reference() {
        for &(mr, nr) in STATIC_SHAPES {
            check_case(Kernel::<f32>::for_shape(mr, nr), 37, 1.0, 0, false, 1);
        }
    }

    #[test]
    fn alpha_scaling_applies() {
        check_case(Kernel::<f32>::for_shape(8, 8), 16, -2.5, 0, false, 1);
        check_case(Kernel::<f32>::for_shape(16, 4), 5, 0.5, 0, false, 2);
    }

    #[test]
    fn kc_zero_leaves_c_untouched_modulo_alpha_times_zero() {
        let mut c = vec![7.0f32; 16];
        Kernel::<f32>::for_shape(4, 4).run(0, 3.0, &[], 4, BOperand::Packed(&[]), &mut c, 4);
        assert!(c.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn f64_kernels_work() {
        let a: Vec<f64> = (0..8 * 4).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..8 * 4).map(|i| (i % 7) as f64).collect();
        let mut c = vec![0.0f64; 4 * 4];
        let mut c_ref = c.clone();
        Kernel::<f64>::for_shape(4, 4).run(8, 1.0, &a, 4, BOperand::Packed(&b), &mut c, 4);
        microkernel_reference(4, 4, 8, 1.0, &a, &b, &mut c_ref, 4);
        assert_eq!(c, c_ref);
    }

    #[test]
    fn accumulation_adds_to_existing_c() {
        let a = vec![1.0f32; 4]; // 4x1 of ones, kc=1
        let b = vec![2.0f32; 1];
        let mut c = vec![10.0f32; 4];
        Kernel::<f32>::for_shape(4, 1).run(1, 1.0, &a, 4, BOperand::Packed(&b), &mut c, 4);
        assert_eq!(c, vec![12.0; 4]);
    }

    #[test]
    fn dynamic_fallback_engages_for_odd_shapes() {
        assert!(!Kernel::<f32>::for_shape(7, 5).is_static());
        assert!(!Kernel::<f32>::for_shape(32, 12).is_static());
        assert!(!Kernel::<f32>::fallback(8, 8).is_static());
        check_case(Kernel::<f32>::fallback(8, 8), 9, 1.5, 0, false, 7);
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
        microkernel_reference(8, 8, 4, 1.0, &a, &b, &mut c_ref, 8);
        assert_eq!(c, c_ref);
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
