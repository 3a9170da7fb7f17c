//! Native multi-threaded GEMM execution.
//!
//! Two decompositions, matching §III-D of the paper:
//!
//! * [`gemm_parallel_2d`] — the OpenBLAS/Eigen style: the task matrix
//!   `C` is cut into an `m_ways × n_ways` grid and each thread runs the
//!   full Goto engine on its block.
//! * [`gemm_parallel_grid`] — the BLIS style: a multi-dimensional
//!   [`ThreadGrid`] chosen at run time (small dimensions are not
//!   parallelized); natively the `(jc·jr)` and `(ic·ir)` ways collapse
//!   onto the N/M splits while the simulator models the full loop-level
//!   behaviour.
//!
//! Each worker writes its `C` block **in place** through a disjoint
//! tile handed out by [`MatMut::split_grid`]: no private block is
//! allocated and no post-join merge pass runs, so `C` is touched once
//! (§III-D of the paper charges exactly this second sweep — plus the
//! barrier it serializes behind — to parallelization overhead). The
//! aliasing argument lives in `split_grid`'s single audited `unsafe`;
//! the other `unsafe` in the parallel path is [`crate::pool`]'s
//! scoped-submission argument (tasks borrow the caller's stack;
//! `run_scoped` cannot return until every task has completed), which is
//! what lets the closures built here borrow operand views, the engine
//! and the tiles without `'static` bounds or reference counting.
//!
//! Both entry points execute on a persistent [`TaskPool`] — the
//! spawn-per-call mechanism the paper's §III-D indicts is gone. The
//! `_in` variants accept an explicit pool handle; the plain variants
//! use the process-wide [`TaskPool::global`] pool.

use smm_kernels::Scalar;
use smm_model::parallel::ThreadGrid;

use crate::engine::GotoEngine;
use crate::matrix::{MatMut, MatRef};
use crate::naive::check_dims_of;
use crate::pool::TaskPool;

/// Split `len` into `ways` near-equal contiguous chunks (first chunks
/// get the remainder). Empty chunks are allowed when `ways > len`.
pub fn split_ranges(len: usize, ways: usize) -> Vec<(usize, usize)> {
    assert!(ways >= 1);
    let base = len / ways;
    let extra = len % ways;
    let mut out = Vec::with_capacity(ways);
    let mut start = 0;
    for t in 0..ways {
        let size = base + usize::from(t < extra);
        out.push((start, size));
        start += size;
    }
    out
}

/// [`split_ranges`] with empty chunks dropped. Task-spawning consumers
/// use this so over-decomposition (`ways > len`) does not push no-op
/// tasks onto the pool — each of those costs a queue slot and a worker
/// wakeup (visible in `PoolStats::worker_wakeups`) for zero work.
pub fn split_ranges_nonempty(len: usize, ways: usize) -> Vec<(usize, usize)> {
    let mut out = split_ranges(len, ways);
    out.retain(|&(_, size)| size > 0);
    out
}

/// `C = alpha·A·B + beta·C` over an `m_ways × n_ways` grid, executed
/// on the process-wide persistent pool.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel_2d<S: Scalar>(
    engine: &GotoEngine,
    m_ways: usize,
    n_ways: usize,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
) {
    gemm_parallel_2d_in(
        TaskPool::global(),
        engine,
        m_ways,
        n_ways,
        alpha,
        a,
        b,
        beta,
        c,
    );
}

/// [`gemm_parallel_2d`] on an explicit pool handle.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel_2d_in<S: Scalar>(
    pool: &TaskPool,
    engine: &GotoEngine,
    m_ways: usize,
    n_ways: usize,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    mut c: MatMut<'_, S>,
) {
    let (m, k, n) = check_dims_of(&a, &b, c.rows(), c.cols());
    if m_ways * n_ways <= 1 || m == 0 || n == 0 {
        engine.gemm(alpha, a, b, beta, c);
        return;
    }
    // Apply beta once up front, then hand each worker a disjoint tile
    // of C to update in place with beta = 1 (a no-op rescale): no
    // private block, no merge pass, C is written exactly once past
    // this point.
    c.scale(beta);
    if k == 0 {
        return;
    }
    let rows = split_ranges_nonempty(m, m_ways);
    let cols = split_ranges_nonempty(n, n_ways);
    let tiles = c.split_grid(&rows, &cols);

    let mut tasks = Vec::with_capacity(tiles.len());
    for (i0, j0, tile) in tiles {
        let a_blk = a.block(i0, 0, tile.rows(), k);
        let b_blk = b.block(0, j0, k, tile.cols());
        tasks.push(move || engine.gemm(alpha, a_blk, b_blk, S::ONE, tile));
    }
    pool.run_scoped(tasks);
}

/// BLIS-style execution of a multi-dimensional [`ThreadGrid`] on the
/// process-wide persistent pool.
pub fn gemm_parallel_grid<S: Scalar>(
    engine: &GotoEngine,
    grid: ThreadGrid,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
) {
    gemm_parallel_2d(engine, grid.m_ways(), grid.n_ways(), alpha, a, b, beta, c);
}

/// [`gemm_parallel_grid`] on an explicit pool handle.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel_grid_in<S: Scalar>(
    pool: &TaskPool,
    engine: &GotoEngine,
    grid: ThreadGrid,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
) {
    gemm_parallel_2d_in(
        pool,
        engine,
        grid.m_ways(),
        grid.n_ways(),
        alpha,
        a,
        b,
        beta,
        c,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{blis_engine, openblas_engine};
    use crate::matrix::Mat;
    use crate::naive::gemm_naive;

    /// The pre-split_grid implementation, kept as a parity oracle:
    /// each cell computes into a private block and a merge pass adds
    /// the blocks into C after the fact.
    #[allow(clippy::too_many_arguments)]
    fn gemm_merge_oracle<S: Scalar>(
        engine: &GotoEngine,
        m_ways: usize,
        n_ways: usize,
        alpha: S,
        a: MatRef<'_, S>,
        b: MatRef<'_, S>,
        beta: S,
        mut c: MatMut<'_, S>,
    ) {
        let (m, k, n) = check_dims_of(&a, &b, c.rows(), c.cols());
        if m_ways * n_ways <= 1 || m == 0 || n == 0 {
            engine.gemm(alpha, a, b, beta, c);
            return;
        }
        c.scale(beta);
        if k == 0 {
            return;
        }
        for &(i0, mt) in &split_ranges(m, m_ways) {
            for &(j0, nt) in &split_ranges(n, n_ways) {
                if mt == 0 || nt == 0 {
                    continue;
                }
                let mut local = Mat::<S>::zeros(mt, nt);
                engine.gemm(
                    alpha,
                    a.block(i0, 0, mt, k),
                    b.block(0, j0, k, nt),
                    S::ZERO,
                    local.as_mut(),
                );
                for j in 0..nt {
                    for i in 0..mt {
                        let v = c.at(i0 + i, j0 + j) + local[(i, j)];
                        c.set(i0 + i, j0 + j, v);
                    }
                }
            }
        }
    }

    fn check_2d(m_ways: usize, n_ways: usize, m: usize, n: usize, k: usize) {
        let e = openblas_engine();
        let a = Mat::<f32>::random(m, k, 7);
        let b = Mat::<f32>::random(k, n, 8);
        let mut c = Mat::<f32>::random(m, n, 9);
        let mut c_ref = c.clone();
        gemm_parallel_2d(
            &e,
            m_ways,
            n_ways,
            1.5,
            a.as_ref(),
            b.as_ref(),
            0.5,
            c.as_mut(),
        );
        gemm_naive(1.5, a.as_ref(), b.as_ref(), 0.5, c_ref.as_mut());
        let d = c.max_abs_diff(&c_ref);
        assert!(d < 1e-3, "{m_ways}x{n_ways} grid on {m}x{n}x{k}: diff {d}");
    }

    #[test]
    fn split_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 64, 100] {
            for ways in [1usize, 2, 3, 8] {
                let r = split_ranges(len, ways);
                assert_eq!(r.len(), ways);
                let total: usize = r.iter().map(|&(_, s)| s).sum();
                assert_eq!(total, len);
                let mut pos = 0;
                for &(start, size) in &r {
                    assert_eq!(start, pos);
                    pos += size;
                }
            }
        }
    }

    #[test]
    fn split_is_near_balanced() {
        let r = split_ranges(10, 4);
        let sizes: Vec<usize> = r.iter().map(|&(_, s)| s).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn parallel_matches_naive_square() {
        check_2d(2, 2, 40, 40, 40);
        check_2d(4, 1, 64, 16, 32);
        check_2d(1, 4, 16, 64, 32);
    }

    #[test]
    fn parallel_handles_irregular_and_overdecomposed() {
        check_2d(3, 2, 17, 13, 9);
        // More ways than rows: some threads get empty chunks.
        check_2d(8, 1, 5, 20, 10);
    }

    #[test]
    fn single_way_falls_back_to_engine() {
        check_2d(1, 1, 30, 30, 30);
    }

    #[test]
    fn grid_wrapper_uses_m_and_n_ways() {
        let e = blis_engine();
        let grid = ThreadGrid {
            jc: 2,
            ic: 2,
            jr: 1,
            ir: 1,
        };
        let a = Mat::<f32>::random(24, 12, 1);
        let b = Mat::<f32>::random(12, 36, 2);
        let mut c = Mat::<f32>::zeros(24, 36);
        let mut c_ref = c.clone();
        gemm_parallel_grid(&e, grid, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3);
    }

    #[test]
    fn k_zero_scales_only() {
        let e = openblas_engine();
        let a = Mat::<f32>::zeros(8, 0);
        let b = Mat::<f32>::zeros(0, 8);
        let mut c = Mat::<f32>::from_fn(8, 8, |_, _| 4.0);
        gemm_parallel_2d(&e, 2, 2, 1.0, a.as_ref(), b.as_ref(), 0.25, c.as_mut());
        assert_eq!(c[(7, 7)], 1.0);
    }

    #[test]
    fn split_ranges_nonempty_drops_empty_chunks() {
        // ways > len: 8 chunks over 5 elements leaves 3 empties.
        let r = split_ranges_nonempty(5, 8);
        assert_eq!(r, vec![(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]);
        assert_eq!(split_ranges_nonempty(0, 4), vec![]);
        assert_eq!(split_ranges_nonempty(10, 3), split_ranges(10, 3));
    }

    /// In-place disjoint writes must be *bit-for-bit* identical to the
    /// old private-block + merge path. With one k block the old path
    /// computed `c + (0 + alpha·acc)` and the new computes
    /// `c + alpha·acc` — identical on the scalar loops, since IEEE
    /// `0.0 + x` preserves the bits of every x the accumulator can
    /// produce. A fused SIMD tile rounds `alpha·acc + c` once in place
    /// but `alpha·acc` and the sum separately through the merge, so
    /// there the paths agree when `alpha·acc` is exact, as it is on
    /// these operands (multiples of 1/8 over a short k).
    #[test]
    fn in_place_is_bit_identical_to_merge_path() {
        let e = openblas_engine();
        for &(m_ways, n_ways, m, n, k, seed) in &[
            (2usize, 2usize, 40usize, 40usize, 24usize, 7u64),
            (3, 2, 17, 13, 9, 8),
            (8, 1, 5, 20, 10, 9),
            (1, 4, 1, 33, 16, 10),  // m = 1
            (4, 2, 29, 1, 12, 11),  // n = 1
            (2, 2, 16, 16, 0, 12),  // k = 0: beta-scale only
            (4, 4, 64, 64, 32, 13), // all cells full tiles
        ] {
            let a = Mat::<f32>::random(m, k, seed);
            let b = Mat::<f32>::random(k, n, seed + 100);
            let c0 = Mat::<f32>::random(m, n, seed + 200);
            let mut c_new = c0.clone();
            let mut c_old = c0.clone();
            gemm_parallel_2d(
                &e,
                m_ways,
                n_ways,
                1.5,
                a.as_ref(),
                b.as_ref(),
                0.25,
                c_new.as_mut(),
            );
            gemm_merge_oracle(
                &e,
                m_ways,
                n_ways,
                1.5,
                a.as_ref(),
                b.as_ref(),
                0.25,
                c_old.as_mut(),
            );
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(
                        c_new[(i, j)].to_bits(),
                        c_old[(i, j)].to_bits(),
                        "{m_ways}x{n_ways} on {m}x{n}x{k} at ({i},{j})"
                    );
                }
            }
        }
    }

    /// Same parity through a gapped-`ldc` view (C embedded in a larger
    /// buffer); the gap rows must come through untouched.
    #[test]
    fn in_place_parity_with_gapped_ldc() {
        let e = blis_engine();
        let (m, n, k, ldc) = (13usize, 11usize, 8usize, 19usize);
        let a = Mat::<f32>::random(m, k, 21);
        let b = Mat::<f32>::random(k, n, 22);
        let backing0: Vec<f32> = (0..ldc * n).map(|i| (i % 23) as f32 - 11.0).collect();
        let mut back_new = backing0.clone();
        let mut back_old = backing0.clone();
        gemm_parallel_2d(
            &e,
            2,
            3,
            1.5,
            a.as_ref(),
            b.as_ref(),
            -0.5,
            MatMut::from_slice(&mut back_new, m, n, ldc),
        );
        gemm_merge_oracle(
            &e,
            2,
            3,
            1.5,
            a.as_ref(),
            b.as_ref(),
            -0.5,
            MatMut::from_slice(&mut back_old, m, n, ldc),
        );
        for (i, (&x, &y)) in back_new.iter().zip(back_old.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "flat index {i}");
        }
        for j in 0..n {
            for g in m..ldc {
                assert_eq!(
                    back_new[j * ldc + g],
                    backing0[j * ldc + g],
                    "gap row {g} col {j} must be untouched"
                );
            }
        }
    }
}
