//! Host SIMD tiles: the `f32` register tile of [`crate::native`] on the
//! x86-64 FMA units — AVX2 (8 lanes, 16 `ymm` registers) and AVX-512F
//! (16 lanes, 32 `zmm` registers).
//!
//! One loop nest per instruction set, const-generic over the column
//! count `NR` and the vectors per column `NV = ⌈mr/lanes⌉`, covers every
//! shape up to [`MAX_TILE`] square, so no per-shape table exists. The
//! nest vectorizes along `m`, as `C` is laid out. For each `p` it loads
//! the `NV` vectors of the `A` column, masking the rows past `mr`
//! (opmask on AVX-512, `maskload`/`maskstore` on AVX2), then broadcasts
//! `B(p, j)` and does one FMA per accumulator: the broadcast scalar
//! times a vector of `vfmacc.vf`. The merge is `c = fma(alpha, acc, c)`.
//!
//! Every multiply-add is fused and each element accumulates in the
//! scalar loops' order, so a tile is bit-identical to
//! [`crate::native::microkernel_reference_fused`]. Masked lanes are
//! never read or written: a tile touches exactly the elements the
//! operand asserts of [`crate::native`] cover.

use std::arch::x86_64::*;

use crate::native::{check_operands, check_shape, KernelImpl, MAX_TILE};

/// `f32` lanes of a `zmm` register.
const ZMM_LANES: usize = 16;
/// `f32` lanes of a `ymm` register.
const YMM_LANES: usize = 8;

// The column list of `by_columns!` spells out 1..=MAX_TILE.
const _: () = assert!(MAX_TILE == 32);

/// Call `$tile::<$nv, NR>$args` for the run-time column count `$nr`.
macro_rules! by_columns {
    ($tile:ident::<$nv:literal>, $nr:expr, $args:tt) => {
        by_columns!(@arms $tile, $nv, $nr, $args;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
    };
    (@arms $tile:ident, $nv:literal, $nr:expr, $args:tt; $($n:literal)+) => {
        match $nr {
            $( $n => $tile::<$nv, $n> $args, )+
            _ => unreachable!("tile columns are checked against MAX_TILE"),
        }
    };
}

/// Run an `mr × nr` `f32` tile on `imp` (see
/// [`Kernel::run_ptr`](crate::native::Kernel::run_ptr) for the
/// operands; `B(p, j)` is `b[p*b_row + j*b_col]`).
///
/// # Safety
/// As [`Kernel::run_ptr`](crate::native::Kernel::run_ptr) for an
/// `mr × nr` tile, and `imp` must run on this host
/// ([`KernelImpl::is_available`]).
// SAFETY: an `unsafe fn` declaration — callers discharge the tile-
// footprint and host-feature contract in `# Safety` above; the body
// asserts the shape and operand extents before any raw access.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn run(
    imp: KernelImpl,
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: f32,
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_strides: (usize, usize),
    c: *mut f32,
    ldc: usize,
) {
    check_shape(mr, nr);
    check_operands(mr, nr, kc, a, a_stride, b, b_strides, ldc);
    let (a, b) = (a.as_ptr(), b.as_ptr());
    macro_rules! nest {
        ($tile:ident::<$nv:literal>) => {
            by_columns!(
                $tile::<$nv>,
                nr,
                (mr, kc, alpha, a, a_stride, b, b_strides, c, ldc)
            )
        };
    }
    let lanes = match imp {
        KernelImpl::Avx512 => ZMM_LANES,
        KernelImpl::Avx2 => YMM_LANES,
        KernelImpl::Scalar => unreachable!("the scalar loops have no SIMD tile"),
    };
    // SAFETY: the asserts above bound every A and B read of the nests
    // to the slices; the caller owns the C footprint and vouches that
    // `imp` runs here.
    unsafe {
        match (imp, mr.div_ceil(lanes)) {
            (KernelImpl::Avx512, 1) => nest!(tile_avx512::<1>),
            (KernelImpl::Avx512, 2) => nest!(tile_avx512::<2>),
            (KernelImpl::Avx2, 1) => nest!(tile_avx2::<1>),
            (KernelImpl::Avx2, 2) => nest!(tile_avx2::<2>),
            (KernelImpl::Avx2, 3) => nest!(tile_avx2::<3>),
            (KernelImpl::Avx2, 4) => nest!(tile_avx2::<4>),
            (imp, nv) => unreachable!("{imp:?} has no {nv}-vector tile"),
        }
    }
}

/// AVX-512F nest: `NV` vectors of 16 rows per column, `NR` columns; the
/// last vector holds the `mr - 16·(NV-1)` rows its opmask admits.
///
/// # Safety
/// AVX-512F must be present. `a` must be readable at `p*a_stride + i`,
/// `b` at `p*b_row + j*b_col`, and `c` readable and writable at
/// `j*ldc + i`, for `p < kc`, `i < mr`, `j < NR`.
// SAFETY: an `unsafe fn` declaration — `run` discharges the contract in
// `# Safety` above through its asserts and its caller's.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx512<const NV: usize, const NR: usize>(
    mr: usize,
    kc: usize,
    alpha: f32,
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    (b_row, b_col): (usize, usize),
    c: *mut f32,
    ldc: usize,
) {
    let tail = mr - (NV - 1) * ZMM_LANES;
    let mask = ((1u32 << tail) - 1) as __mmask16;
    let mut acc = [[_mm512_setzero_ps(); NV]; NR];
    for p in 0..kc {
        let mut av = [_mm512_setzero_ps(); NV];
        for (v, x) in av.iter_mut().enumerate() {
            // SAFETY: rows v*16.. of A column p; the opmask stops the
            // last vector at row mr, so only rows < mr are read.
            *x = unsafe {
                let col = a.add(p * a_stride + v * ZMM_LANES);
                if v + 1 < NV {
                    _mm512_loadu_ps(col)
                } else {
                    _mm512_maskz_loadu_ps(mask, col)
                }
            };
        }
        for (j, accj) in acc.iter_mut().enumerate() {
            // SAFETY: B(p, j) with p < kc, j < NR.
            let bj = _mm512_set1_ps(unsafe { *b.add(p * b_row + j * b_col) });
            for (x, &ai) in accj.iter_mut().zip(&av) {
                *x = _mm512_fmadd_ps(ai, bj, *x);
            }
        }
    }
    let alpha = _mm512_set1_ps(alpha);
    for (j, accj) in acc.iter().enumerate() {
        for (v, &x) in accj.iter().enumerate() {
            // SAFETY: rows v*16.. of C column j; the last vector's
            // opmask confines both the load and the store to rows < mr.
            unsafe {
                let cp = c.add(j * ldc + v * ZMM_LANES);
                if v + 1 < NV {
                    _mm512_storeu_ps(cp, _mm512_fmadd_ps(alpha, x, _mm512_loadu_ps(cp)));
                } else {
                    let cv = _mm512_maskz_loadu_ps(mask, cp);
                    _mm512_mask_storeu_ps(cp, mask, _mm512_fmadd_ps(alpha, x, cv));
                }
            }
        }
    }
}

/// AVX2 + FMA nest: `NV` vectors of 8 rows per column, `NR` columns;
/// the last vector holds the `mr - 8·(NV-1)` rows its lane mask admits.
///
/// # Safety
/// AVX2 and FMA must be present. `a` must be readable at
/// `p*a_stride + i`, `b` at `p*b_row + j*b_col`, and `c` readable and
/// writable at `j*ldc + i`, for `p < kc`, `i < mr`, `j < NR`.
// SAFETY: an `unsafe fn` declaration — `run` discharges the contract in
// `# Safety` above through its asserts and its caller's.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx2<const NV: usize, const NR: usize>(
    mr: usize,
    kc: usize,
    alpha: f32,
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    (b_row, b_col): (usize, usize),
    c: *mut f32,
    ldc: usize,
) {
    let tail = (mr - (NV - 1) * YMM_LANES) as i32;
    // Lane i is active (sign bit set) when i < tail.
    let mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(tail),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let mut acc = [[_mm256_setzero_ps(); NV]; NR];
    for p in 0..kc {
        let mut av = [_mm256_setzero_ps(); NV];
        for (v, x) in av.iter_mut().enumerate() {
            // SAFETY: rows v*8.. of A column p; the lane mask stops the
            // last vector at row mr, so only rows < mr are read.
            *x = unsafe {
                let col = a.add(p * a_stride + v * YMM_LANES);
                if v + 1 < NV {
                    _mm256_loadu_ps(col)
                } else {
                    _mm256_maskload_ps(col, mask)
                }
            };
        }
        for (j, accj) in acc.iter_mut().enumerate() {
            // SAFETY: B(p, j) with p < kc, j < NR.
            let bj = _mm256_set1_ps(unsafe { *b.add(p * b_row + j * b_col) });
            for (x, &ai) in accj.iter_mut().zip(&av) {
                *x = _mm256_fmadd_ps(ai, bj, *x);
            }
        }
    }
    let alpha = _mm256_set1_ps(alpha);
    for (j, accj) in acc.iter().enumerate() {
        for (v, &x) in accj.iter().enumerate() {
            // SAFETY: rows v*8.. of C column j; the last vector's lane
            // mask confines both the load and the store to rows < mr.
            unsafe {
                let cp = c.add(j * ldc + v * YMM_LANES);
                if v + 1 < NV {
                    _mm256_storeu_ps(cp, _mm256_fmadd_ps(alpha, x, _mm256_loadu_ps(cp)));
                } else {
                    let cv = _mm256_maskload_ps(cp, mask);
                    _mm256_maskstore_ps(cp, mask, _mm256_fmadd_ps(alpha, x, cv));
                }
            }
        }
    }
}
