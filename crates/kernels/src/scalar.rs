//! The element-type abstraction.
//!
//! Everything numeric in this repository is generic over [`Scalar`],
//! instantiated for `f32` (the paper's primary precision — its formulas
//! use `sizeof(float)`) and `f64`.

use std::fmt::{Debug, Display};
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::native::KernelImpl;

/// A floating-point element type usable in GEMM kernels.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Element size in bytes.
    const BYTES: usize;
    /// Unit roundoff `u` (half the machine epsilon): every rounding
    /// of a result `x` lies within `u·|x|`.
    const UNIT_ROUNDOFF: f64;

    /// `self + a * b`, the scalar loops' multiply-accumulate: unfused,
    /// so the product and the sum round separately (baseline x86-64
    /// has no FMA instruction). The SIMD tiles fuse it instead; see
    /// [`Scalar::fused_madd`].
    #[inline(always)]
    fn madd(self, a: Self, b: Self) -> Self {
        self + a * b
    }

    /// `self + a * b` with a single rounding: the multiply-add of the
    /// SIMD tiles, and of the fused reference they are checked against.
    fn fused_madd(self, a: Self, b: Self) -> Self;

    /// Does this type have SIMD tiles? When true,
    /// [`Kernel::for_shape`](crate::Kernel::for_shape) runs its tiles on
    /// [`KernelImpl::host`] through [`Scalar::simd_tile`]; when false
    /// (the default) always on the scalar loops.
    const SIMD_TILES: bool = false;

    /// The SIMD hook: run an `mr × nr` tile on `imp`, reading `B(p, j)`
    /// as `b[p*b_strides.0 + j*b_strides.1]` and merging as
    /// `fma(alpha, acc, c·beta)` (see
    /// [`Kernel::run_ptr`](crate::Kernel::run_ptr) for the other
    /// operands). Only called when [`Scalar::SIMD_TILES`] is set; the
    /// default panics. `f32` overrides it with the AVX2 and AVX-512
    /// tiles.
    ///
    /// # Safety
    /// As [`Kernel::run_ptr`](crate::Kernel::run_ptr) for an `mr × nr`
    /// tile, and `imp` must run on this host
    /// ([`KernelImpl::is_available`]).
    // SAFETY: an `unsafe fn` declaration — implementations rely on the
    // tile-footprint and host-feature contract in `# Safety` above.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn simd_tile(
        imp: KernelImpl,
        _mr: usize,
        _nr: usize,
        _kc: usize,
        _alpha: Self,
        _a: &[Self],
        _a_stride: usize,
        _b: &[Self],
        _b_strides: (usize, usize),
        _beta: Self,
        _c: *mut Self,
        _ldc: usize,
    ) {
        unreachable!("{} has no {imp:?} tiles", std::any::type_name::<Self>())
    }

    /// Convert from `f64` (for test data and tolerances).
    fn from_f64(v: f64) -> Self;
    /// Convert to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;

    /// SIMD lanes in a 128-bit vector register.
    fn lanes() -> usize {
        16 / Self::BYTES
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;
    const UNIT_ROUNDOFF: f64 = f32::EPSILON as f64 / 2.0;
    const SIMD_TILES: bool = true;

    #[inline(always)]
    fn fused_madd(self, a: Self, b: Self) -> Self {
        a.mul_add(b, self)
    }

    // SAFETY: an `unsafe fn` declaration — forwards the caller's
    // contract (see the trait method) to the SIMD tiles.
    #[inline]
    unsafe fn simd_tile(
        imp: KernelImpl,
        mr: usize,
        nr: usize,
        kc: usize,
        alpha: Self,
        a: &[Self],
        a_stride: usize,
        b: &[Self],
        b_strides: (usize, usize),
        beta: Self,
        c: *mut Self,
        ldc: usize,
    ) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: forwarding the caller's contract unchanged.
        unsafe {
            crate::simd::run(
                imp, mr, nr, kc, alpha, a, a_stride, b, b_strides, beta, c, ldc,
            )
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        {
            let _ = (mr, nr, kc, alpha, a, a_stride, b, b_strides, beta, c, ldc);
            unreachable!("no {imp:?} tiles on this target")
        }
    }

    fn from_f64(v: f64) -> Self {
        v as f32
    }

    fn to_f64(self) -> f64 {
        self as f64
    }

    fn abs(self) -> Self {
        f32::abs(self)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;
    const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

    #[inline(always)]
    fn fused_madd(self, a: Self, b: Self) -> Self {
        a.mul_add(b, self)
    }

    fn from_f64(v: f64) -> Self {
        v
    }

    fn to_f64(self) -> f64 {
        self
    }

    fn abs(self) -> Self {
        f64::abs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_per_register() {
        assert_eq!(<f32 as Scalar>::lanes(), 4);
        assert_eq!(<f64 as Scalar>::lanes(), 2);
    }

    #[test]
    fn madd_matches_mul_add() {
        let acc: f32 = 1.5;
        assert_eq!(acc.madd(2.0, 3.0), 7.5);
        let acc64: f64 = -1.0;
        assert_eq!(acc64.madd(0.5, 4.0), 1.0);
    }

    #[test]
    fn fused_madd_rounds_once() {
        // (1 + e)(1 - e) = 1 - e², which rounds to 1 when the product
        // rounds on its own; fused, -1 + (1 + e)(1 - e) keeps the -e².
        let e = f32::EPSILON;
        assert_eq!((-1.0f32).madd(1.0 + e, 1.0 - e), 0.0);
        assert_eq!((-1.0f32).fused_madd(1.0 + e, 1.0 - e), -e * e);
        let e = f64::EPSILON;
        assert_eq!((-1.0f64).fused_madd(1.0 + e, 1.0 - e), -e * e);
        assert_eq!(f32::UNIT_ROUNDOFF, 2f64.powi(-24));
        assert_eq!(f64::UNIT_ROUNDOFF, 2f64.powi(-53));
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(f32::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(f64::from_f64(-3.25), -3.25);
    }
}
