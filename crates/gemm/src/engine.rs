//! The native Goto-algorithm GEMM engine.
//!
//! Implements the six-loop blocking structure of Fig. 4 — `nc`/`kc`/`mc`
//! blocking with packed `Ã`/`B̃` operands, a GEBP inner kernel walking
//! `nr`-slivers and `mr`-panels — parameterized by a
//! [`LibraryProfile`]: kernel shape, edge strategy (dedicated edge
//! kernels vs. zero padding) and the dimension steps each library
//! supports. The four library strategies share this engine with
//! different profiles.

use smm_kernels::registry::{tile_dimension_into, LibraryProfile, TileSpan};
use smm_kernels::{BOperand, Kernel, Scalar};
use smm_model::{derive_blocking, BlockingParams, CacheSizes};

use crate::arena;
use crate::matrix::{MatMut, MatRef};
use crate::naive::check_dims_of;

/// A configured Goto engine.
#[derive(Debug, Clone)]
pub struct GotoEngine {
    /// Library strategy parameters.
    pub profile: LibraryProfile,
    /// Cache blocking parameters (before per-problem clipping).
    pub blocking: BlockingParams,
}

impl GotoEngine {
    /// Engine for a profile with blocking derived from the Phytium
    /// 2000+ cache sizes (the reproduction target).
    pub fn with_profile(profile: LibraryProfile) -> Self {
        let blocking = derive_blocking(
            CacheSizes::phytium_2000_plus(),
            profile.main.mr(),
            profile.main.nr(),
            4,
        );
        GotoEngine { profile, blocking }
    }

    /// `C = alpha·A·B + beta·C`, single threaded.
    pub fn gemm<S: Scalar>(
        &self,
        alpha: S,
        a: MatRef<'_, S>,
        b: MatRef<'_, S>,
        beta: S,
        mut c: MatMut<'_, S>,
    ) {
        let (m, k, n) = check_dims_of(&a, &b, c.rows(), c.cols());
        c.scale(beta);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let bp = self.blocking.clipped(m, n, k);
        let mr = self.profile.main.mr();
        let nr = self.profile.main.nr();
        let edge = self.profile.edge;

        // All working storage comes from the thread-local arena, so a
        // warmed-up steady state allocates nothing per call.
        let kc_max = bp.kc.min(k);
        let step_max = self
            .profile
            .m_steps
            .iter()
            .chain(self.profile.n_steps.iter())
            .copied()
            .max()
            .unwrap_or(0)
            .max(mr)
            .max(nr);
        let mut packed_b = arena::checkout::<S>(kc_max * (bp.nc.min(n) + nr));
        let mut packed_a = arena::checkout::<S>(kc_max * (bp.mc.min(m) + mr));
        let mut tmp = arena::checkout::<S>(kc_max * step_max);
        let mut scratch = arena::checkout::<S>(mr * nr.max(16));
        scratch.resize(mr * nr.max(16), S::ZERO);
        let mut n_tiles =
            arena::checkout::<TileSpan>(bp.nc.min(n) / nr + self.profile.n_steps.len() + 1);
        let mut m_tiles =
            arena::checkout::<TileSpan>(bp.mc.min(m) / mr + self.profile.m_steps.len() + 1);
        let mut a_offsets = arena::checkout::<usize>(8);
        let mut b_offsets = arena::checkout::<usize>(8);

        let mut jj = 0;
        while jj < n {
            let nc_cur = bp.nc.min(n - jj);
            tile_dimension_into(nc_cur, nr, edge, &self.profile.n_steps, &mut n_tiles);
            let mut kk = 0;
            while kk < k {
                let kc_cur = bp.kc.min(k - kk);
                pack_b_tiles(
                    b,
                    kk,
                    jj,
                    kc_cur,
                    &n_tiles,
                    &mut packed_b,
                    &mut tmp,
                    &mut b_offsets,
                );
                let mut ii = 0;
                while ii < m {
                    let mc_cur = bp.mc.min(m - ii);
                    tile_dimension_into(mc_cur, mr, edge, &self.profile.m_steps, &mut m_tiles);
                    pack_a_tiles(
                        a,
                        ii,
                        kk,
                        kc_cur,
                        &m_tiles,
                        &mut packed_a,
                        &mut tmp,
                        &mut a_offsets,
                    );
                    // GEBP: all (sliver, panel) pairs.
                    for (jt_idx, jt) in n_tiles.iter().enumerate() {
                        for (it_idx, it) in m_tiles.iter().enumerate() {
                            let a_sl = &packed_a[a_offsets[it_idx]..][..it.kernel * kc_cur];
                            let b_sl = &packed_b[b_offsets[jt_idx]..][..jt.kernel * kc_cur];
                            let kernel = Kernel::<S>::for_shape(it.kernel, jt.kernel);
                            run_tile(
                                kernel,
                                kc_cur,
                                alpha,
                                a_sl,
                                b_sl,
                                it,
                                jt,
                                ii,
                                jj,
                                &mut c,
                                &mut scratch,
                            );
                        }
                    }
                    ii += mc_cur;
                }
                kk += kc_cur;
            }
            jj += nc_cur;
        }
    }
}

/// Pack the A panels for a list of M tiles; per-tile offsets into
/// `out` land in `offsets` (cleared first).
#[allow(clippy::too_many_arguments)]
fn pack_a_tiles<S: Scalar>(
    a: MatRef<'_, S>,
    ii: usize,
    kk: usize,
    kc: usize,
    tiles: &[TileSpan],
    out: &mut Vec<S>,
    tmp: &mut Vec<S>,
    offsets: &mut Vec<usize>,
) {
    out.clear();
    offsets.clear();
    for t in tiles {
        offsets.push(out.len());
        crate::pack::pack_a(a, ii + t.offset, kk, t.logical, kc, t.kernel, tmp);
        out.extend_from_slice(tmp);
    }
}

/// Pack the B slivers for a list of N tiles; per-tile offsets into
/// `out` land in `offsets` (cleared first).
#[allow(clippy::too_many_arguments)]
fn pack_b_tiles<S: Scalar>(
    b: MatRef<'_, S>,
    kk: usize,
    jj: usize,
    kc: usize,
    tiles: &[TileSpan],
    out: &mut Vec<S>,
    tmp: &mut Vec<S>,
    offsets: &mut Vec<usize>,
) {
    out.clear();
    offsets.clear();
    for t in tiles {
        offsets.push(out.len());
        crate::pack::pack_b(b, kk, jj + t.offset, kc, t.logical, t.kernel, tmp);
        out.extend_from_slice(tmp);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_tile<S: Scalar>(
    kernel: Kernel<S>,
    kc: usize,
    alpha: S,
    a_sl: &[S],
    b_sl: &[S],
    it: &TileSpan,
    jt: &TileSpan,
    ii: usize,
    jj: usize,
    c: &mut MatMut<'_, S>,
    scratch: &mut Vec<S>,
) {
    let exact = it.kernel == it.logical && jt.kernel == jt.logical;
    let ldc = c.ld();
    let b_sl = BOperand::Packed(b_sl);
    if exact {
        let ptr = c.tile_ptr(ii + it.offset, jj + jt.offset, it.kernel, jt.kernel);
        // SAFETY: `tile_ptr` just asserted that (ii+it.offset,
        // jj+jt.offset) heads a `kernel x kernel` window inside `c`,
        // whose elements `&mut c` owns exclusively; the kernel writes
        // exactly that footprint with stride `ldc = c.ld()`.
        unsafe { kernel.run_ptr(kc, alpha, a_sl, it.kernel, b_sl, S::ONE, ptr, ldc) };
    } else {
        // Padded tile (BLIS/BLASFEO): compute the full register tile
        // into scratch, then merge only the logical part into C.
        let need = it.kernel * jt.kernel;
        scratch.clear();
        scratch.resize(need, S::ZERO);
        kernel.run(kc, alpha, a_sl, it.kernel, b_sl, S::ONE, scratch, it.kernel);
        for j in 0..jt.logical {
            for i in 0..it.logical {
                let gi = ii + it.offset + i;
                let gj = jj + jt.offset + j;
                let v = c.at(gi, gj) + scratch[j * it.kernel + i];
                c.set(gi, gj, v);
            }
        }
    }
}

/// Convenience constructors matching the four libraries.
pub fn openblas_engine() -> GotoEngine {
    GotoEngine::with_profile(LibraryProfile::openblas())
}

/// BLIS-profile engine.
pub fn blis_engine() -> GotoEngine {
    GotoEngine::with_profile(LibraryProfile::blis())
}

/// Eigen-profile engine.
pub fn eigen_engine() -> GotoEngine {
    GotoEngine::with_profile(LibraryProfile::eigen())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;
    use crate::naive::gemm_naive;

    fn check(engine: &GotoEngine, m: usize, n: usize, k: usize, alpha: f32, beta: f32) {
        let a = Mat::<f32>::random(m, k, 11);
        let b = Mat::<f32>::random(k, n, 22);
        let mut c = Mat::<f32>::random(m, n, 33);
        let mut c_ref = c.clone();
        engine.gemm(alpha, a.as_ref(), b.as_ref(), beta, c.as_mut());
        gemm_naive(alpha, a.as_ref(), b.as_ref(), beta, c_ref.as_mut());
        let diff = c.max_abs_diff(&c_ref);
        assert!(
            diff < 1e-3,
            "{} {m}x{n}x{k} alpha={alpha} beta={beta}: diff {diff}",
            engine.profile.name
        );
    }

    #[test]
    fn openblas_profile_matches_naive_on_aligned_sizes() {
        let e = openblas_engine();
        check(&e, 16, 4, 8, 1.0, 0.0);
        check(&e, 64, 64, 64, 1.0, 1.0);
        check(&e, 32, 8, 16, 2.0, 0.5);
    }

    #[test]
    fn openblas_profile_handles_edges() {
        let e = openblas_engine();
        // The paper's §III-B example: M=75 forces 8+2+1 edge kernels.
        check(&e, 75, 60, 60, 1.0, 0.0);
        check(&e, 11, 3, 7, 1.0, 1.0);
        check(&e, 17, 5, 9, -1.0, 2.0);
        check(&e, 1, 1, 1, 3.0, 0.0);
    }

    #[test]
    fn blis_profile_pads_edges_correctly() {
        let e = blis_engine();
        check(&e, 75, 60, 60, 1.0, 0.0);
        check(&e, 7, 11, 5, 1.0, 0.5);
        check(&e, 8, 12, 16, 1.0, 0.0);
        check(&e, 9, 13, 17, 2.0, 1.0);
    }

    #[test]
    fn eigen_profile_is_correct() {
        let e = eigen_engine();
        check(&e, 12, 4, 8, 1.0, 0.0);
        check(&e, 50, 50, 50, 1.5, 0.25);
        check(&e, 13, 5, 3, 1.0, 0.0);
    }

    #[test]
    fn sizes_crossing_blocking_boundaries() {
        // Force multiple kc/mc/nc iterations with a tiny blocking.
        let mut e = openblas_engine();
        e.blocking = BlockingParams {
            kc: 8,
            mc: 32,
            nc: 12,
        };
        check(&e, 70, 30, 33, 1.0, 1.0);
        check(&e, 100, 25, 17, 0.5, -1.0);
    }

    #[test]
    fn degenerate_dimensions() {
        let e = blis_engine();
        let a = Mat::<f32>::zeros(4, 0);
        let b = Mat::<f32>::zeros(0, 4);
        let mut c = Mat::<f32>::from_fn(4, 4, |_, _| 2.0);
        e.gemm(1.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
        assert_eq!(c[(3, 3)], 1.0);
    }

    #[test]
    fn f64_engine_works() {
        let e = blis_engine();
        let a = Mat::<f64>::random(20, 14, 5);
        let b = Mat::<f64>::random(14, 9, 6);
        let mut c = Mat::<f64>::zeros(20, 9);
        let mut c_ref = c.clone();
        e.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-10);
    }
}
