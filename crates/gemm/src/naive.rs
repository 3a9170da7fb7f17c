//! Reference GEMM: the straightforward three-nested loop, and the
//! derived forward-error bound an optimized result is held to against
//! it.
//!
//! Used as the correctness oracle for every optimized strategy.

use smm_kernels::Scalar;

use crate::matrix::{Mat, MatMut, MatRef};

/// `C = alpha * A * B + beta * C` with a plain triple loop.
pub fn gemm_naive<S: Scalar>(
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    mut c: MatMut<'_, S>,
) {
    let (m, k, n) = check_dims(&a, &b, &c.rb());
    c.scale(beta);
    for j in 0..n {
        for p in 0..k {
            let bpj = alpha * b.at(p, j);
            for i in 0..m {
                let v = c.at(i, j).madd(a.at(i, p), bpj);
                c.set(i, j, v);
            }
        }
    }
}

/// `γ_n = n·u / (1 − n·u)` for unit roundoff `u`: a product of `n`
/// rounding factors `(1 + δ_i)^{±1}`, `|δ_i| ≤ u`, equals `1 + θ_n` with
/// `|θ_n| ≤ γ_n` (Higham, *Accuracy and Stability of Numerical
/// Algorithms*, Lemma 3.1).
fn gamma(n: usize, u: f64) -> f64 {
    let nu = n as f64 * u;
    assert!(nu < 1.0, "γ_{n} is undefined at unit roundoff {u}");
    nu / (1.0 - nu)
}

/// The most roundings any one term of `alpha·A·B + beta·C` passes
/// through in a GEMM of depth `k`, whichever path computes it.
///
/// A product `A(i,p)·B(p,j)` is rounded once as a product (unfused
/// only) and once by every accumulation step from its own to the end of
/// its k block; the merge `c + alpha·acc` rounds it twice more (once
/// fused), and every later k block's merge once. With blocks of
/// `L_1, …, L_b` steps that is at most `1 + L_1 + 2 + (b − 1) ≤ k + 3`,
/// since every block holds a step. The `beta·C` term is rounded by the
/// scaling and by each of the `b ≤ k` merges. The naive loop rounds a
/// term at most `k + 2` times: `alpha·B(p,j)`, the product, and `k`
/// additions. So `k + 3` bounds the scalar loops, the fused SIMD tiles
/// and the oracle alike.
fn gemm_roundings(k: usize) -> usize {
    k + 3
}

/// The componentwise bound of [`check_gemm_bound`], in units of
/// `|alpha|·(|A||B|)_ij + |beta|·|C_ij|`: how far a correct `S` result
/// may lie from the `f64` oracle, barring underflow and overflow.
///
/// The result lies within `γ_r(u_S)` of the exact value and the oracle
/// within `γ_r(u_f64)`, `r = gemm_roundings(k) = k + 3`, both in units of
/// the exact magnitude. The magnitude itself is computed in `f64` with
/// at most `r` roundings of non-negative terms, so it is at least
/// `1 − γ_r(u_f64)` times the exact one — the divisor.
pub fn gemm_error_bound<S: Scalar>(k: usize) -> f64 {
    let r = gemm_roundings(k);
    let g64 = gamma(r, f64::UNIT_ROUNDOFF);
    (gamma(r, S::UNIT_ROUNDOFF) + g64) / (1.0 - g64)
}

/// The oracle of a GEMM `alpha·A·B + beta·C0` and each element's bound
/// width: the naive loop in `f64` on the same operands, and
/// [`gemm_error_bound`]`(k)·(|alpha|·|A||B| + |beta|·|C0|)`, also in
/// `f64`.
fn gemm_oracle_with_bound<S: Scalar>(
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c0: MatRef<'_, S>,
) -> (Mat<f64>, Mat<f64>) {
    let (m, k, n) = check_dims(&a, &b, &c0);
    let wide = |x: MatRef<'_, S>, abs: bool| {
        Mat::from_fn(x.rows(), x.cols(), |i, j| {
            let v = x.at(i, j).to_f64();
            if abs {
                v.abs()
            } else {
                v
            }
        })
    };
    let mut oracle = wide(c0, false);
    gemm_naive(
        alpha.to_f64(),
        wide(a, false).as_ref(),
        wide(b, false).as_ref(),
        beta.to_f64(),
        oracle.as_mut(),
    );
    let mut width = wide(c0, true);
    gemm_naive(
        alpha.to_f64().abs(),
        wide(a, true).as_ref(),
        wide(b, true).as_ref(),
        beta.to_f64().abs(),
        width.as_mut(),
    );
    let g = gemm_error_bound::<S>(k);
    for j in 0..n {
        for i in 0..m {
            width[(i, j)] *= g;
        }
    }
    (oracle, width)
}

/// An element of a GEMM result outside its derived bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundViolation {
    /// Row of the element.
    pub row: usize,
    /// Column of the element.
    pub col: usize,
    /// The computed value.
    pub got: f64,
    /// The `f64` oracle's value.
    pub oracle: f64,
    /// The bound width `|got − oracle|` had to stay within.
    pub width: f64,
}

impl std::fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "c[{},{}] = {} lies {:e} from the oracle's {}, beyond the derived bound {:e}",
            self.row,
            self.col,
            self.got,
            (self.got - self.oracle).abs(),
            self.oracle,
            self.width
        )
    }
}

/// Componentwise forward-error check of a computed GEMM
/// `got = alpha·A·B + beta·C0` against the naive oracle run in `f64` on
/// the same operands: every correct result lies within
/// [`gemm_error_bound`]`(k)·(|alpha|·|A||B| + |beta|·|C0|)_ij` of it.
/// Returns the first element outside that width (a NaN counts), in
/// column-major order.
pub fn check_gemm_bound<S: Scalar>(
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c0: MatRef<'_, S>,
    got: MatRef<'_, S>,
) -> Result<(), BoundViolation> {
    assert_eq!(
        (got.rows(), got.cols()),
        (c0.rows(), c0.cols()),
        "result and C0 differ in shape"
    );
    let (oracle, width) = gemm_oracle_with_bound(alpha, a, b, beta, c0);
    for j in 0..got.cols() {
        for i in 0..got.rows() {
            let (g, o, w) = (got.at(i, j).to_f64(), oracle[(i, j)], width[(i, j)]);
            let err = (g - o).abs();
            if err.is_nan() || err > w {
                return Err(BoundViolation {
                    row: i,
                    col: j,
                    got: g,
                    oracle: o,
                    width: w,
                });
            }
        }
    }
    Ok(())
}

/// Validate GEMM operand shapes; returns `(m, k, n)`.
pub fn check_dims<S: Scalar>(
    a: &MatRef<'_, S>,
    b: &MatRef<'_, S>,
    c: &MatRef<'_, S>,
) -> (usize, usize, usize) {
    check_dims_of(a, b, c.rows(), c.cols())
}

/// [`check_dims`] against C dimensions given directly — usable when C
/// is a split tile that cannot expose a `MatRef`.
pub fn check_dims_of<S: Scalar>(
    a: &MatRef<'_, S>,
    b: &MatRef<'_, S>,
    c_rows: usize,
    c_cols: usize,
) -> (usize, usize, usize) {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(
        k, kb,
        "inner dimensions disagree: A is {m}x{k}, B is {kb}x{n}"
    );
    assert_eq!(c_rows, m, "C has {c_rows} rows, expected {m}");
    assert_eq!(c_cols, n, "C has {c_cols} cols, expected {n}");
    (m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;

    #[test]
    fn two_by_two_by_hand() {
        let a = Mat::<f32>::from_fn(2, 2, |i, j| (i * 2 + j + 1) as f32); // [[1,2],[3,4]]
        let b = Mat::<f32>::from_fn(2, 2, |i, j| (i * 2 + j + 5) as f32); // [[5,6],[7,8]]
        let mut c = Mat::<f32>::zeros(2, 2);
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = Mat::<f32>::from_fn(1, 1, |_, _| 3.0);
        let b = Mat::<f32>::from_fn(1, 1, |_, _| 4.0);
        let mut c = Mat::<f32>::from_fn(1, 1, |_, _| 10.0);
        gemm_naive(2.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
        // 2*12 + 0.5*10 = 29.
        assert_eq!(c[(0, 0)], 29.0);
    }

    #[test]
    fn identity_preserves() {
        let a = Mat::<f64>::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        let b = Mat::<f64>::random(4, 6, 3);
        let mut c = Mat::<f64>::zeros(4, 6);
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert_eq!(c.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn degenerate_k_zero_only_scales_c() {
        let a = Mat::<f32>::zeros(3, 0);
        let b = Mat::<f32>::zeros(0, 2);
        let mut c = Mat::<f32>::from_fn(3, 2, |_, _| 4.0);
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.25, c.as_mut());
        assert_eq!(c[(2, 1)], 1.0);
    }

    /// Operands whose products and sums round in `f32`: full
    /// mantissas in `[-2, 2)`.
    fn rounding(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Mat::from_fn(rows, cols, |_, _| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0) as f32
        })
    }

    #[test]
    fn gamma_matches_its_definition() {
        let u = f32::UNIT_ROUNDOFF;
        assert_eq!(gamma(0, u), 0.0);
        assert!((gamma(10, u) - 10.0 * u / (1.0 - 10.0 * u)).abs() < 1e-24);
        assert_eq!(gemm_roundings(64), 67);
        // The f32 term dominates; the oracle's own is ~2^-29 of it.
        let g = gemm_error_bound::<f32>(64);
        assert!(g > gamma(67, u) && g < gamma(67, u) * (1.0 + 1e-8));
    }

    /// The naive loop in `f32` — the evaluation with the most
    /// roundings per term — stays inside the bound on rounding data,
    /// with scaling `alpha` and merging `beta`.
    #[test]
    fn f32_naive_result_lies_within_the_bound() {
        for (m, n, k, alpha, beta) in [
            (13, 9, 64, 1.5f32, 0.5f32),
            (7, 11, 300, -0.75, 1.0),
            (4, 4, 1, 1.0, 0.0),
            (5, 3, 0, 2.0, -1.25),
        ] {
            let a = rounding(m, k, 1);
            let b = rounding(k, n, 2);
            let c0 = rounding(m, n, 3);
            let mut c = c0.clone();
            gemm_naive(alpha, a.as_ref(), b.as_ref(), beta, c.as_mut());
            check_gemm_bound(alpha, a.as_ref(), b.as_ref(), beta, c0.as_ref(), c.as_ref())
                .unwrap_or_else(|v| panic!("{m}x{n}x{k}: {v}"));
        }
    }

    /// A result one bound-width off the oracle is caught, one just
    /// inside it is not: the check is exactly as wide as the derived
    /// bound, and NaN never passes.
    #[test]
    fn a_result_one_bound_width_off_is_caught() {
        let (m, n, k, alpha, beta) = (6, 5, 64, -1.5f32, 0.75f32);
        let a = rounding(m, k, 4);
        let b = rounding(k, n, 5);
        let c0 = rounding(m, n, 6);
        let (oracle, width) =
            gemm_oracle_with_bound(alpha, a.as_ref(), b.as_ref(), beta, c0.as_ref());
        let check = |got: &Mat<f32>| {
            check_gemm_bound(
                alpha,
                a.as_ref(),
                b.as_ref(),
                beta,
                c0.as_ref(),
                got.as_ref(),
            )
        };
        let near = Mat::from_fn(m, n, |i, j| oracle[(i, j)] as f32);
        assert_eq!(check(&near), Ok(()));
        for (i, j) in [(0, 0), (3, 2), (m - 1, n - 1)] {
            let (o, w) = (oracle[(i, j)], width[(i, j)]);
            // The width spans dozens of f32 ulps, so rounding the
            // perturbed value moves it by under 2% of the width.
            let ulp = f32::EPSILON as f64 * o.abs().max(f32::MIN_POSITIVE as f64);
            assert!(w > 50.0 * ulp, "width {w:e} vs ulp {ulp:e}");
            for sign in [1.0, -1.0] {
                let mut got = near.clone();
                got[(i, j)] = (o + sign * 0.97 * w) as f32;
                assert_eq!(check(&got), Ok(()), "inside at ({i},{j})");
                got[(i, j)] = (o + sign * 1.03 * w) as f32;
                let v = check(&got).expect_err("one bound-width off");
                assert_eq!((v.row, v.col), (i, j));
                assert!(v.to_string().contains("beyond the derived bound"));
            }
        }
        let mut got = near.clone();
        got[(2, 1)] = f32::NAN;
        assert_eq!(check(&got).map_err(|v| (v.row, v.col)), Err((2, 1)));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Mat::<f32>::zeros(2, 3);
        let b = Mat::<f32>::zeros(4, 2);
        let mut c = Mat::<f32>::zeros(2, 2);
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    }
}
