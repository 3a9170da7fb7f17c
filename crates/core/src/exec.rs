//! Native execution of an [`SmmPlan`] — the one §IV tile walker.
//!
//! The walker does only the work the plan asks for. Single-threaded
//! execution writes micro-tiles straight into `C` (tiles are exact,
//! never padded), and `beta` is applied by the kernels' merge on the
//! first k block, so no pass over `C` precedes them. Multi-threaded
//! execution splits the plan's tile lists across the thread grid's
//! `m_ways × n_ways`; each grid cell receives a disjoint tile of `C`
//! from [`MatMut::split_grid`] and updates it **in place** — no private
//! block, no post-join merge pass, `C` is swept once. An operand is
//! packed only when the plan packs it (the P2C rule), into a buffer
//! from the thread-local [`smm_gemm::arena`], so a warmed-up steady
//! state allocates nothing per call and a plan that packs nothing
//! checks nothing out: a single-tile shape is a dimension check and one
//! kernel call.
//!
//! Multi-threaded plans run on a persistent [`TaskPool`] instead of
//! spawning threads per call — thread startup is the §III-D overhead
//! that makes naive parallel SMM slower than sequential. The cell
//! decomposition is identical to the historical spawn-per-call
//! executor, so results are bit-for-bit unchanged (see
//! `pooled_execution_is_bit_identical_to_spawn_per_call`; on a fused
//! SIMD tile, whenever `alpha·acc` is exact, as the historical path
//! rounded it before its merge).

use smm_gemm::arena;
use smm_gemm::matrix::{MatMut, MatRef};
use smm_gemm::naive::check_dims_of;
use smm_gemm::pack::{pack_a_exact, pack_b_exact_append};
use smm_gemm::parallel::split_ranges;
use smm_gemm::pool::TaskPool;
use smm_kernels::registry::TileSpan;
use smm_kernels::{BOperand, Kernel, Scalar};

use crate::plan::SmmPlan;
use crate::telemetry::{now_if, Phase, Recorder};
use crate::trace::{SpanName, Tracer};

/// Execute `C = alpha·A·B + beta·C` under a plan, splitting its thread
/// grid across `pool`.
pub fn execute_in<S: Scalar>(
    pool: &TaskPool,
    plan: &SmmPlan,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
) {
    let split = Some((pool, &Tracer::disabled()));
    execute_with(split, plan, Recorder::none(), alpha, a, b, beta, c);
}

/// [`execute_in`] under a telemetry [`Recorder`]. `split` is the pool
/// the plan's thread grid is split across, with the request [`Tracer`]
/// its worker spans go to; `None` runs the whole plan on the calling
/// thread whatever its grid (a batch entry).
///
/// An active recorder gets this call's pack/compute spans and, for a
/// split grid, the dispatch and synchronization spans; an inactive one
/// never reads the clock. With tracing enabled each pool-worker cell
/// emits a `worker` span parented under the caller's current span.
/// Neither changes the cell decomposition or the execution order, so
/// results stay bit-for-bit identical to the untraced path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_with<S: Scalar>(
    split: Option<(&TaskPool, &Tracer)>,
    plan: &SmmPlan,
    rec: Recorder<'_>,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    mut c: MatMut<'_, S>,
) {
    let (m, k, n) = check_dims_of(&a, &b, c.rows(), c.cols());
    assert_eq!(
        (m, n, k),
        (plan.m, plan.n, plan.k),
        "plan was built for {}x{}x{}",
        plan.m,
        plan.n,
        plan.k
    );
    let timed = rec.active();
    let Some((pool, tracer)) = split.filter(|_| plan.threads() > 1) else {
        let t0 = rec.now();
        let (m_tiles, n_tiles) = (&plan.m_tiles, &plan.n_tiles);
        let cost = run_tiles(
            plan, timed, alpha, a, b, beta, &mut c, m_tiles, n_tiles, 0, 0,
        );
        if let Some(t0) = t0 {
            record_cost(&rec, &cost, t0.elapsed().as_nanos() as u64);
        }
        return;
    };

    // Non-empty grid cells. Plan tiles cover each dimension
    // contiguously, so chunk row/col spans partition C exactly.
    let m_chunks = split_ranges(plan.m_tiles.len(), plan.grid.m_ways());
    let n_chunks = split_ranges(plan.n_tiles.len(), plan.grid.n_ways());
    let row_bands: Vec<(usize, usize, &[TileSpan])> = m_chunks
        .iter()
        .filter(|&&(_, mc)| mc > 0)
        .map(|&(ms, mc)| {
            let tiles = &plan.m_tiles[ms..ms + mc];
            let rows: usize = tiles.iter().map(|t| t.logical).sum();
            (tiles[0].offset, rows, tiles)
        })
        .collect();
    let col_bands: Vec<(usize, usize, &[TileSpan])> = n_chunks
        .iter()
        .filter(|&&(_, nc)| nc > 0)
        .map(|&(ns, nc)| {
            let tiles = &plan.n_tiles[ns..ns + nc];
            let cols: usize = tiles.iter().map(|t| t.logical).sum();
            (tiles[0].offset, cols, tiles)
        })
        .collect();
    let row_splits: Vec<(usize, usize)> = row_bands.iter().map(|&(i0, r, _)| (i0, r)).collect();
    let col_splits: Vec<(usize, usize)> = col_bands.iter().map(|&(j0, cl, _)| (j0, cl)).collect();
    // split_grid yields row band outer, column band inner — the same
    // order the nested loops below consume.
    let mut tiles_iter = c.split_grid(&row_splits, &col_splits).into_iter();
    let mut tasks = Vec::with_capacity(row_bands.len() * col_bands.len());
    for &(i_base, _, m_tiles) in &row_bands {
        for &(j_base, _, n_tiles) in &col_bands {
            let (ti, tj, mut tile) = tiles_iter.next().expect("one tile per band pair");
            debug_assert_eq!((ti, tj), (i_base, j_base));
            tasks.push(move || {
                run_tiles(
                    plan, timed, alpha, a, b, beta, &mut tile, m_tiles, n_tiles, i_base, j_base,
                )
            });
        }
    }
    for (cost, busy_ns) in run_pooled(pool, &rec, tracer, tasks) {
        record_cost(&rec, &cost, busy_ns);
    }
}

/// Run `tasks` as one scoped batch on `pool`. Each task runs under a
/// `worker` span parented to the caller's current span — captured here,
/// since the tasks run on pool threads — and is timed when `rec`
/// records. Records the Dispatch span and the Sync span (the caller's
/// wait beyond the slowest task) and returns each task's output with
/// its busy nanoseconds.
pub(crate) fn run_pooled<T: Send>(
    pool: &TaskPool,
    rec: &Recorder<'_>,
    tracer: &Tracer,
    tasks: impl IntoIterator<Item = impl FnOnce() -> T + Send>,
) -> Vec<(T, u64)> {
    let timed = rec.active();
    let ctx = tracer.current_ctx();
    let tasks: Vec<_> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, task)| {
            move || {
                let _w = tracer.span_in(ctx, SpanName::Worker, i as u64);
                let t0 = now_if(timed);
                let out = task();
                (out, t0.map_or(0, |t| t.elapsed().as_nanos() as u64))
            }
        })
        .collect();
    let t_dispatch = rec.now();
    let results = pool.run_scoped(tasks);
    if let Some(t) = t_dispatch {
        let dispatch_ns = t.elapsed().as_nanos() as u64;
        let max_busy = results.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
        let slack_ns = dispatch_ns.saturating_sub(max_busy);
        rec.span_ns(Phase::Dispatch, dispatch_ns);
        rec.span_ns(Phase::Sync, slack_ns);
    }
    results
}

/// Packing cost observed by one [`run_tiles`] invocation; all zeros
/// when untimed.
#[derive(Debug, Clone, Copy, Default)]
struct PackCost {
    a_ns: u64,
    b_ns: u64,
    bytes: u64,
    a_packed: bool,
    b_packed: bool,
}

/// Record one tile-run's spans: pack phases as measured, compute as
/// the remainder of the run's wall time.
fn record_cost(rec: &Recorder<'_>, cost: &PackCost, total_ns: u64) {
    if cost.a_packed {
        rec.span_ns(Phase::PackA, cost.a_ns);
    }
    if cost.b_packed {
        rec.span_ns(Phase::PackB, cost.b_ns);
    }
    if cost.bytes > 0 {
        rec.packed_bytes(cost.bytes);
    }
    rec.span_ns(
        Phase::Compute,
        total_ns.saturating_sub(cost.a_ns + cost.b_ns),
    );
}

/// Run a set of tiles; tile offsets are global, `i_base`/`j_base`
/// translate them into the target `C` view. The first k block's merge
/// scales `C` by `beta`; later blocks accumulate onto it.
///
/// With `timed` set, each packing pass is individually clocked and the
/// accumulated cost returned; packing is coarse enough (one pass per
/// k block for B, one per panel per k block for A, never per
/// micro-kernel) that the extra clock reads stay amortized. Untimed
/// runs return a zero [`PackCost`] and never read the clock.
#[allow(clippy::too_many_arguments)]
fn run_tiles<S: Scalar>(
    plan: &SmmPlan,
    timed: bool,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    mut beta: S,
    c: &mut MatMut<'_, S>,
    m_tiles: &[TileSpan],
    n_tiles: &[TileSpan],
    i_base: usize,
    j_base: usize,
) -> PackCost {
    let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
    let elem = std::mem::size_of::<S>() as u64;
    let mut cost = PackCost::default();

    // Arena buffers for the packed operands only: one holds every B
    // sliver of a k block, back to back, one the current A panel.
    let kc_max = plan.kc.min(plan.k);
    let n_total: usize = n_tiles.iter().map(|t| t.logical).sum();
    let m_max = m_tiles.iter().map(|t| t.logical).max().unwrap_or(0);
    let mut bpack = plan.pack_b.then(|| arena::checkout::<S>(kc_max * n_total));
    let mut apack = plan.pack_a.then(|| arena::checkout::<S>(kc_max * m_max));

    let mut kk = 0;
    while kk < plan.k {
        let kc = plan.kc.min(plan.k - kk);
        if let Some(bpack) = bpack.as_mut() {
            let t0 = now_if(timed);
            bpack.clear();
            for jt in n_tiles {
                pack_b_exact_append(b, kk, jt.offset, kc, jt.logical, bpack);
            }
            if let Some(t0) = t0 {
                cost.b_ns += t0.elapsed().as_nanos() as u64;
                cost.bytes += (kc * n_total) as u64 * elem;
                cost.b_packed = true;
            }
        }
        for it in m_tiles {
            // A source: packed panel or the raw column-major block.
            let (a_src, a_stride): (&[S], usize) = match apack.as_mut() {
                Some(apack) => {
                    let t0 = now_if(timed);
                    pack_a_exact(a, it.offset, kk, it.logical, kc, apack);
                    if let Some(t0) = t0 {
                        cost.a_ns += t0.elapsed().as_nanos() as u64;
                        cost.bytes += (it.logical * kc) as u64 * elem;
                        cost.a_packed = true;
                    }
                    (apack.as_slice(), it.logical)
                }
                None => (&a.data()[kk * lda + it.offset..], lda),
            };
            // A packed sliver starts where the previous one ends.
            let mut b_off = 0;
            for jt in n_tiles {
                let kernel = Kernel::<S>::for_shape(it.logical, jt.logical);
                let cptr = c.tile_ptr(
                    it.offset - i_base,
                    jt.offset - j_base,
                    it.logical,
                    jt.logical,
                );
                let b_src = match &bpack {
                    Some(bpack) => BOperand::Packed(&bpack[b_off..b_off + kc * jt.logical]),
                    None => BOperand::ColMajor(&b.data()[jt.offset * ldb + kk..], ldb),
                };
                b_off += kc * jt.logical;
                // SAFETY: `tile_ptr` just asserted the tile's
                // `logical x logical` window lies inside `c`, whose
                // elements `&mut c` owns exclusively; the kernel writes
                // exactly that footprint with stride `ldc = c.ld()`.
                unsafe { kernel.run_ptr(kc, alpha, a_src, a_stride, b_src, beta, cptr, ldc) };
            }
        }
        beta = S::ONE;
        kk += kc;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use smm_gemm::check_gemm_bound;
    use smm_gemm::matrix::Mat;

    /// [`execute_in`] on the process-wide pool.
    fn execute<S: Scalar>(
        plan: &SmmPlan,
        alpha: S,
        a: MatRef<'_, S>,
        b: MatRef<'_, S>,
        beta: S,
        c: MatMut<'_, S>,
    ) {
        execute_in(TaskPool::global(), plan, alpha, a, b, beta, c);
    }

    /// Execute a plan and hold the result to the oracle within the
    /// derived componentwise bound.
    fn check(m: usize, n: usize, k: usize, cfg: &PlanConfig, alpha: f32, beta: f32) {
        let plan = &SmmPlan::build(m, n, k, cfg);
        let a = Mat::<f32>::random(m, k, 21);
        let b = Mat::<f32>::random(k, n, 22);
        let c0 = Mat::<f32>::random(m, n, 23);
        let mut c = c0.clone();
        execute(plan, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut());
        check_gemm_bound(alpha, a.as_ref(), b.as_ref(), beta, c0.as_ref(), c.as_ref())
            .unwrap_or_else(|v| panic!("{m}x{n}x{k} plan {plan:?}: {v}"));
    }

    #[test]
    fn default_plan_matches_naive() {
        let cfg = PlanConfig::default();
        check(8, 8, 8, &cfg, 1.0, 0.0);
        check(64, 64, 64, &cfg, 1.0, 1.0);
        check(75, 60, 60, &cfg, 2.0, 0.5);
        check(5, 200, 30, &cfg, 1.0, 0.0);
        check(200, 5, 30, &cfg, 1.0, 0.0);
        check(30, 30, 2, &cfg, -1.0, 1.0);
        check(1, 1, 1, &cfg, 1.0, 3.0);
    }

    #[test]
    fn all_packing_combinations_are_correct() {
        for pa in [Some(false), Some(true)] {
            for pb in [Some(false), Some(true)] {
                let cfg = PlanConfig {
                    pack_a: pa,
                    pack_b: pb,
                    ..Default::default()
                };
                check(33, 27, 19, &cfg, 1.5, 0.25);
                check(13, 3, 41, &cfg, 1.0, 0.0);
            }
        }
    }

    #[test]
    fn multithreaded_plans_match_naive() {
        for threads in [2, 4, 8] {
            let cfg = PlanConfig {
                max_threads: threads,
                ..Default::default()
            };
            check(48, 96, 24, &cfg, 1.0, 1.0);
            check(96, 16, 32, &cfg, 2.0, 0.0);
        }
    }

    #[test]
    fn multithreaded_tiny_problem_degrades_gracefully() {
        let cfg = PlanConfig {
            max_threads: 64,
            ..Default::default()
        };
        check(4, 4, 4, &cfg, 1.0, 0.0);
        check(2, 50, 10, &cfg, 1.0, 1.0);
    }

    #[test]
    fn k_blocking_boundaries_are_exact() {
        // Force multiple kc blocks.
        let cfg = PlanConfig::default();
        let plan = SmmPlan::build(16, 16, 2100, &cfg);
        assert!(plan.kc < 2100);
        check(16, 16, 2100, &cfg, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "plan was built for")]
    fn mismatched_shape_rejected() {
        let plan = SmmPlan::build(8, 8, 8, &PlanConfig::default());
        let a = Mat::<f32>::zeros(9, 8);
        let b = Mat::<f32>::zeros(8, 8);
        let mut c = Mat::<f32>::zeros(9, 8);
        execute(&plan, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    }

    #[test]
    fn explicit_pool_matches_global_pool() {
        let pool = TaskPool::new(3);
        let cfg = PlanConfig {
            max_threads: 4,
            ..Default::default()
        };
        let plan = SmmPlan::build(48, 40, 24, &cfg);
        let a = Mat::<f32>::random(48, 24, 31);
        let b = Mat::<f32>::random(24, 40, 32);
        let mut c1 = Mat::<f32>::random(48, 40, 33);
        let mut c2 = c1.clone();
        execute(&plan, 1.25, a.as_ref(), b.as_ref(), 0.5, c1.as_mut());
        execute_in(&pool, &plan, 1.25, a.as_ref(), b.as_ref(), 0.5, c2.as_mut());
        assert_eq!(c1.data(), c2.data());
    }

    /// The historical executor the pooled walker replaced: `beta`
    /// applied by a separate pass over `C`, then one `thread::scope`
    /// spawn per grid cell, joined in submission order, each cell
    /// merging its private block afterwards. Kept as the oracle for the
    /// bit-for-bit parity guarantee.
    fn execute_spawn_per_call<S: Scalar>(
        plan: &SmmPlan,
        alpha: S,
        a: MatRef<'_, S>,
        b: MatRef<'_, S>,
        beta: S,
        mut c: MatMut<'_, S>,
    ) {
        let (m, k, n) = check_dims_of(&a, &b, c.rows(), c.cols());
        assert_eq!((m, n, k), (plan.m, plan.n, plan.k));
        c.scale(beta);
        if plan.threads() <= 1 {
            let (m_tiles, n_tiles) = (&plan.m_tiles, &plan.n_tiles);
            run_tiles(
                plan,
                false,
                alpha,
                a,
                b,
                S::ONE,
                &mut c,
                m_tiles,
                n_tiles,
                0,
                0,
            );
            return;
        }
        let m_chunks = split_ranges(plan.m_tiles.len(), plan.grid.m_ways());
        let n_chunks = split_ranges(plan.n_tiles.len(), plan.grid.n_ways());
        let mut cells: Vec<(usize, usize, usize, usize, Mat<S>)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for &(ms, mc) in &m_chunks {
                for &(ns, nc) in &n_chunks {
                    if mc == 0 || nc == 0 {
                        continue;
                    }
                    let m_tiles = &plan.m_tiles[ms..ms + mc];
                    let n_tiles = &plan.n_tiles[ns..ns + nc];
                    let i_base = m_tiles[0].offset;
                    let j_base = n_tiles[0].offset;
                    let rows: usize = m_tiles.iter().map(|t| t.logical).sum();
                    let cols: usize = n_tiles.iter().map(|t| t.logical).sum();
                    handles.push(scope.spawn(move || {
                        let mut local = Mat::<S>::zeros(rows, cols);
                        {
                            let mut lm = local.as_mut();
                            run_tiles(
                                plan,
                                false,
                                alpha,
                                a,
                                b,
                                S::ONE,
                                &mut lm,
                                m_tiles,
                                n_tiles,
                                i_base,
                                j_base,
                            );
                        }
                        (i_base, j_base, rows, cols, local)
                    }));
                }
            }
            for h in handles {
                cells.push(h.join().expect("SMM worker panicked"));
            }
        });
        for (i_base, j_base, rows, cols, local) in cells {
            for j in 0..cols {
                for i in 0..rows {
                    let v = c.at(i_base + i, j_base + j) + local[(i, j)];
                    c.set(i_base + i, j_base + j, v);
                }
            }
        }
    }

    /// The walker against its oracle, bit for bit: one-thread and
    /// split plans, packing and non-packing plans, several k blocks,
    /// and `beta` 0, 1 and 0.5 (which the walker applies in the first
    /// block's merge and the oracle in a pass of its own).
    #[test]
    fn pooled_execution_is_bit_identical_to_spawn_per_call() {
        let (mut split, mut packing, mut deep) = (false, false, false);
        for &(m, n, k, threads, pack) in &[
            (48usize, 96usize, 24usize, 4usize, None),
            (96, 16, 32, 8, None),
            (33, 27, 19, 2, None),
            (64, 64, 64, 16, None),
            (33, 27, 19, 1, None),
            (13, 7, 11, 1, None),
            (200, 40, 24, 1, None),
            (40, 36, 600, 1, Some(true)),
            (40, 36, 600, 4, Some(true)),
            (40, 36, 600, 4, Some(false)),
            (17, 29, 1100, 1, Some(false)),
        ] {
            let cfg = PlanConfig {
                max_threads: threads,
                pack_a: pack,
                pack_b: pack,
                ..Default::default()
            };
            let plan = SmmPlan::build(m, n, k, &cfg);
            split |= plan.threads() > 1;
            packing |= plan.pack_a || plan.pack_b;
            deep |= plan.kc < k;
            let a = Mat::<f32>::random(m, k, 41);
            let b = Mat::<f32>::random(k, n, 42);
            for beta in [0.0, 1.0, 0.5] {
                let mut c_pool = Mat::<f32>::random(m, n, 43);
                let mut c_spawn = c_pool.clone();
                execute(&plan, 1.5, a.as_ref(), b.as_ref(), beta, c_pool.as_mut());
                execute_spawn_per_call(&plan, 1.5, a.as_ref(), b.as_ref(), beta, c_spawn.as_mut());
                for (x, y) in c_pool.data().iter().zip(c_spawn.data()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{m}x{n}x{k} t{threads} beta {beta}"
                    );
                }
            }
        }
        assert!(
            split && packing && deep,
            "the cases cover split, packing and k > kc plans"
        );
    }
}
