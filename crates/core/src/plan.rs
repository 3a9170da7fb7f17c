//! Adaptive SMM plan generation — the "JIT" of §IV.
//!
//! LIBXSMM generates a bespoke kernel per input shape at run time; the
//! equivalent in safe Rust is a *plan*: for a given `(m, n, k, threads)`
//! we select the micro-kernel shape, decide per-operand whether packing
//! pays (the packing-optional property, driven by the §III-A P2C
//! model), precompute the exact tile decomposition with offsets, and
//! choose the thread grid (§III-D: never parallelize a small
//! dimension). Plans are cheap to build and cached by shape in
//! [`crate::smm::Smm`], so repeated SMMs — the DNN/block-sparse/ABFT
//! pattern that motivates the paper — pay planning once.

use smm_kernels::registry::{decompose_greedy, TileSpan};
use smm_model::parallel::{select_grid, ThreadGrid};
use smm_model::{p2c, CacheSizes, KernelShape, VectorIsa};

/// Tunables for plan generation: the caller's thread budget, the
/// target register file, and the overrides the tuner searches over.
/// Everything else a plan holds is derived from the shape.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Maximum threads the plan may use.
    pub max_threads: usize,
    /// Force the `A`-packing decision (None = model-driven).
    pub pack_a: Option<bool>,
    /// Force the `B`-packing decision (None = model-driven).
    pub pack_b: Option<bool>,
    /// Force a micro-kernel shape (None = adaptive selection).
    pub kernel: Option<KernelShape>,
    /// Vector ISA the plan targets: drives kernel selection, the
    /// chain-bound efficiency model, edge-tile decomposition (greedy
    /// power-of-two on NEON, a single predicated remainder tile on
    /// SVE-style ISAs) and simulated trace generation.
    pub isa: VectorIsa,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            max_threads: 1,
            pack_a: None,
            pack_b: None,
            kernel: None,
            isa: VectorIsa::neon128(),
        }
    }
}

/// Minimum reuse count (m-panels per B sliver) for B packing to pay.
const PACK_B_REUSE: usize = 8;

/// Minimum reuse count (n-slivers per A panel) for A packing to pay.
const PACK_A_REUSE: usize = 8;

/// Candidate register tiles for adaptive selection, all Eq. 4 feasible
/// on NEON-128 (and therefore on every wider ISA).
pub const KERNEL_CANDIDATES: &[(usize, usize)] =
    &[(16, 4), (12, 4), (8, 12), (8, 8), (8, 4), (4, 8), (4, 4)];

/// Additional candidates that only fit wider register files; each is
/// admitted per-ISA by the Eq. 4 check in [`choose_kernel_for`].
pub const WIDE_KERNEL_CANDIDATES: &[(usize, usize)] = &[(32, 12), (32, 8), (16, 12), (16, 8)];

/// Estimated kernel-phase efficiency of covering a dimension of `len`
/// with main step `step` and ISA-appropriate edge decomposition: each
/// tile's contribution is weighted by its share of the work and bounded
/// by its accumulator-chain parallelism and SIMD lane utilization.
fn dim_efficiency(len: usize, step: usize, other: usize, is_m: bool, isa: &VectorIsa) -> f64 {
    let vlanes = isa.lanes_f32();
    let mut eff = 0.0;
    let full = len / step;
    let mut parts: Vec<usize> = vec![step; full];
    if !len.is_multiple_of(step) {
        if isa.predication {
            // Predicated ISAs cover the whole residue with one tile.
            parts.push(len % step);
        } else {
            parts.extend(decompose_greedy(len % step, &edge_steps(step)));
        }
    }
    for &s in &parts {
        let (mr, nr) = if is_m { (s, other) } else { (other, s) };
        let shape = KernelShape::new(mr, nr);
        let chain = shape.chain_bound_efficiency(vlanes, isa.fma_latency);
        // Lane waste for unaligned row counts.
        let lanes = if is_m {
            (mr as f64) / ((mr.div_ceil(vlanes) * vlanes) as f64)
        } else {
            1.0
        };
        eff += (s as f64 / len as f64) * chain * lanes;
    }
    eff
}

/// Edge decomposition steps below a main step (powers of two down to 1).
pub fn edge_steps(step: usize) -> Vec<usize> {
    let mut steps = vec![step];
    let mut s = 1usize;
    while s * 2 < step {
        s *= 2;
    }
    while s >= 1 {
        if s < step {
            steps.push(s);
        }
        if s == 1 {
            break;
        }
        s /= 2;
    }
    steps
}

/// Select the best micro-kernel for a shape on NEON-128 (the paper's
/// configuration). See [`choose_kernel_for`] for other vector widths.
pub fn choose_kernel(m: usize, n: usize, k: usize) -> KernelShape {
    choose_kernel_for(m, n, k, &VectorIsa::neon128())
}

/// Select the best micro-kernel for a shape on an explicit [`VectorIsa`].
///
/// Candidates are the NEON-feasible set plus [`WIDE_KERNEL_CANDIDATES`],
/// filtered by the *target ISA's* Eq. 4 budget: a 256-bit register file
/// admits 16×8 (16 accumulators), a 512-bit one admits 32×12.
pub fn choose_kernel_for(m: usize, n: usize, k: usize, isa: &VectorIsa) -> KernelShape {
    let _ = k;
    let mut best = KernelShape::new(8, 8);
    let mut best_score = f64::MIN;
    let candidates = WIDE_KERNEL_CANDIDATES
        .iter()
        .chain(KERNEL_CANDIDATES)
        .filter(|&&(mr, nr)| isa.check_register_budget(mr, nr, 4).is_ok());
    for &(mr, nr) in candidates {
        let em = dim_efficiency(m, mr, nr, true, isa);
        let en = dim_efficiency(n, nr, mr, false, isa);
        // Prefer kernels that divide the problem exactly (the main
        // tile actually runs), then higher CMR.
        let fit_m = if mr <= m && m.is_multiple_of(mr) {
            1.05
        } else {
            1.0
        };
        let fit_n = if nr <= n && n.is_multiple_of(nr) {
            1.05
        } else {
            1.0
        };
        let score = em * en * fit_m * fit_n * (1.0 + 0.01 * KernelShape::new(mr, nr).cmr());
        if score > best_score {
            best_score = score;
            best = KernelShape::new(mr, nr);
        }
    }
    best
}

/// A fully resolved execution plan for one GEMM shape.
#[derive(Debug, Clone)]
pub struct SmmPlan {
    /// Rows of `A`/`C`.
    pub m: usize,
    /// Columns of `B`/`C`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Selected register tile.
    pub kernel: KernelShape,
    /// Pack `A` into `mr`-panels?
    pub pack_a: bool,
    /// Pack `B` into `nr`-slivers?
    pub pack_b: bool,
    /// Pack N-edge slivers even when `B` is unpacked (Fig. 8).
    pub pack_edge_b: bool,
    /// k-blocking depth.
    pub kc: usize,
    /// Exact M tiles (offset/logical == kernel; no padding).
    pub m_tiles: Vec<TileSpan>,
    /// Exact N tiles.
    pub n_tiles: Vec<TileSpan>,
    /// Thread grid (collapses to 1×1×1×1 single-threaded).
    pub grid: ThreadGrid,
    /// The paper's Eq. 3 P2C value for this shape.
    pub p2c: f64,
    /// Vector ISA the plan was built for (tiling + trace generation).
    pub isa: VectorIsa,
}

impl SmmPlan {
    /// Build a plan for a shape under a configuration.
    pub fn build(m: usize, n: usize, k: usize, cfg: &PlanConfig) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "empty GEMM has no plan");
        let kernel = cfg
            .kernel
            .unwrap_or_else(|| choose_kernel_for(m, n, k, &cfg.isa));
        let (mr, nr) = (kernel.mr, kernel.nr);
        let l1 = CacheSizes::phytium_2000_plus().l1d;

        // kc: keep the working sliver set L1-resident.
        let kc = (l1 / (2 * nr * 4)).clamp(32, 1024).min(k).max(1);

        let m_tiles = exact_tiles_for(m, mr, &cfg.isa);
        let n_tiles = exact_tiles_for(n, nr, &cfg.isa);

        // Thread grid: clamp to available tile parallelism, then apply
        // the §III-D selection.
        let tiles_total = m_tiles.len() * n_tiles.len();
        let threads = cfg.max_threads.clamp(1, tiles_total.max(1));
        let grid = select_grid(m, n, k, threads, kernel);

        // Packing decisions: pack an operand only when *each thread*
        // reuses it often enough to amortize the O(elements) pass
        // (§III-A). Threads pack privately (no barriers), so per-thread
        // reuse — panels per m-way, slivers per n-way — is what counts.
        let panels_per_thread = m_tiles.len().div_ceil(grid.m_ways());
        let slivers_per_thread = n_tiles.len().div_ceil(grid.n_ways());
        let pack_b = cfg.pack_b.unwrap_or(panels_per_thread >= PACK_B_REUSE);
        let pack_a = cfg
            .pack_a
            .unwrap_or(slivers_per_thread >= PACK_A_REUSE && m * k * 4 > l1);

        SmmPlan {
            m,
            n,
            k,
            kernel,
            pack_a,
            pack_b,
            // Fig. 8: edge slivers are packed even when B is not.
            pack_edge_b: true,
            kc,
            m_tiles,
            n_tiles,
            grid,
            p2c: p2c::p2c_as_published(m, n),
            isa: cfg.isa,
        }
    }

    /// Threads the plan will use.
    pub fn threads(&self) -> usize {
        self.grid.threads()
    }

    /// Useful flops of the planned GEMM.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }
}

/// Tile a dimension exactly: full `step` tiles plus greedy power-of-two
/// edges (no padding — edges run smaller kernels on real data).
///
/// Equivalent to decomposing with [`edge_steps`]/`decompose_greedy`,
/// but allocation-free apart from the exactly-sized result: plan
/// construction runs on the serving cold path, where the intermediate
/// step vectors and tile-vector regrowth were measurable.
pub fn exact_tiles(len: usize, step: usize) -> Vec<TileSpan> {
    // The greedy edge cascade emits one tile per set bit of the
    // residue (every power of two below `step` is available).
    let rest = len % step;
    let mut tiles = Vec::with_capacity(len / step + rest.count_ones() as usize);
    let mut off = 0;
    for _ in 0..len / step {
        tiles.push(TileSpan {
            offset: off,
            logical: step,
            kernel: step,
        });
        off += step;
    }
    // Largest power of two below `step`, as in `edge_steps`.
    let mut s = 1usize;
    while s * 2 < step {
        s *= 2;
    }
    let mut rest = rest;
    while rest > 0 {
        while s > rest {
            s /= 2;
        }
        tiles.push(TileSpan {
            offset: off,
            logical: s,
            kernel: s,
        });
        off += s;
        rest -= s;
    }
    tiles
}

/// ISA-aware exact tiling. On a predicated ISA the whole residue is one
/// tile — the main kernel masks off inactive lanes, so the greedy
/// power-of-two cascade (and its chain-starved sub-kernels, Fig. 7) is
/// unnecessary. On NEON this is exactly [`exact_tiles`].
pub fn exact_tiles_for(len: usize, step: usize, isa: &VectorIsa) -> Vec<TileSpan> {
    if !isa.predication {
        return exact_tiles(len, step);
    }
    let mut tiles = Vec::with_capacity(len.div_ceil(step));
    let mut off = 0;
    for _ in 0..len / step {
        tiles.push(TileSpan {
            offset: off,
            logical: step,
            kernel: step,
        });
        off += step;
    }
    if !len.is_multiple_of(step) {
        tiles.push(TileSpan {
            offset: off,
            logical: len % step,
            kernel: len % step,
        });
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_steps_descend_to_one() {
        assert_eq!(edge_steps(16), vec![16, 8, 4, 2, 1]);
        assert_eq!(edge_steps(12), vec![12, 8, 4, 2, 1]);
        assert_eq!(edge_steps(8), vec![8, 4, 2, 1]);
        assert_eq!(edge_steps(1), vec![1]);
    }

    #[test]
    fn exact_tiles_cover_without_padding() {
        for len in [1, 7, 16, 75, 200] {
            let tiles = exact_tiles(len, 8);
            let total: usize = tiles.iter().map(|t| t.logical).sum();
            assert_eq!(total, len);
            assert!(tiles.iter().all(|t| t.kernel == t.logical));
        }
    }

    #[test]
    fn exact_tiles_match_greedy_reference() {
        // The allocation-free cascade must emit exactly what the
        // edge_steps/decompose_greedy reference pipeline emits, with
        // no spare tile-vector capacity.
        for step in [1, 4, 8, 12, 16] {
            for len in 1..=100 {
                let tiles = exact_tiles(len, step);
                let steps = edge_steps(step);
                let want: Vec<usize> = std::iter::repeat_n(step, len / step)
                    .chain(decompose_greedy(len % step, &steps))
                    .collect();
                let got: Vec<usize> = tiles.iter().map(|t| t.logical).collect();
                assert_eq!(got, want, "len {len} step {step}");
                let mut off = 0;
                for t in &tiles {
                    assert_eq!(t.offset, off, "len {len} step {step}");
                    off += t.logical;
                }
                assert_eq!(tiles.capacity(), tiles.len(), "len {len} step {step}");
            }
        }
    }

    #[test]
    fn kernel_choice_prefers_fitting_shapes() {
        // 8x8 problems should pick the 8x8 tile (perfect fit, max chains).
        assert_eq!(choose_kernel(8, 8, 64), KernelShape::new(8, 8));
        // Tall-skinny C with nr-of-4 fit.
        let k = choose_kernel(64, 4, 64);
        assert_eq!(k.nr, 4);
        assert!(k.mr >= 8);
        // 12-row fit prefers 12x4 over splitting 8+4.
        assert_eq!(choose_kernel(12, 4, 64), KernelShape::new(12, 4));
    }

    #[test]
    fn chosen_kernels_are_always_feasible() {
        for m in [1usize, 3, 8, 17, 40, 100] {
            for n in [1usize, 5, 12, 33, 96] {
                let k = choose_kernel(m, n, 32);
                assert!(
                    k.satisfies_register_constraint(4, 32, 2),
                    "{m}x{n} -> {k:?}"
                );
            }
        }
    }

    #[test]
    fn small_shapes_skip_packing() {
        // m = 8: one or two panels -> B packing cannot amortize.
        let p = SmmPlan::build(8, 64, 32, &PlanConfig::default());
        assert!(!p.pack_b, "tiny M must not pack B");
        assert!(!p.pack_a);
    }

    #[test]
    fn large_reuse_enables_packing() {
        let p = SmmPlan::build(192, 192, 192, &PlanConfig::default());
        assert!(p.pack_b, "M=192 gives >= 4 panel reuses of each B sliver");
    }

    #[test]
    fn overrides_win() {
        let cfg = PlanConfig {
            pack_b: Some(true),
            pack_a: Some(true),
            ..Default::default()
        };
        let p = SmmPlan::build(4, 4, 4, &cfg);
        assert!(p.pack_a && p.pack_b);
        let cfg2 = PlanConfig {
            kernel: Some(KernelShape::new(4, 4)),
            ..Default::default()
        };
        assert_eq!(
            SmmPlan::build(64, 64, 64, &cfg2).kernel,
            KernelShape::new(4, 4)
        );
    }

    #[test]
    fn grid_respects_small_dimensions() {
        let cfg = PlanConfig {
            max_threads: 64,
            ..Default::default()
        };
        let p = SmmPlan::build(16, 2048, 256, &cfg);
        assert!(p.grid.m_ways() <= 2, "{:?}", p.grid);
        assert!(p.threads() >= 16);
    }

    #[test]
    fn thread_count_clamped_to_tiles() {
        let cfg = PlanConfig {
            max_threads: 64,
            ..Default::default()
        };
        let p = SmmPlan::build(8, 8, 8, &cfg);
        assert!(p.threads() <= p.m_tiles.len() * p.n_tiles.len());
    }

    #[test]
    fn kc_tracks_l1_and_k() {
        let p = SmmPlan::build(64, 64, 2000, &PlanConfig::default());
        assert!(p.kc * p.kernel.nr * 4 * 2 <= 32 * 1024 + 4096);
        let small_k = SmmPlan::build(64, 64, 7, &PlanConfig::default());
        assert_eq!(small_k.kc, 7);
    }

    #[test]
    fn p2c_recorded_matches_model() {
        let p = SmmPlan::build(10, 20, 30, &PlanConfig::default());
        assert!((p.p2c - smm_model::p2c_as_published(10, 20)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty GEMM")]
    fn zero_dim_rejected() {
        SmmPlan::build(0, 4, 4, &PlanConfig::default());
    }

    #[test]
    fn predicated_isa_tiles_residue_in_one_piece() {
        // 75 = 4x16 + 11: NEON decomposes the 11 into 8 + 2 + 1 edge
        // kernels; a predicated ISA masks one 11-row tile.
        let neon = exact_tiles_for(75, 16, &VectorIsa::neon128());
        let sve = exact_tiles_for(75, 16, &VectorIsa::sve512());
        assert_eq!(neon.len(), 4 + 3);
        assert_eq!(sve.len(), 4 + 1);
        assert_eq!(sve.last().unwrap().logical, 11);
        assert_eq!(
            sve.iter().map(|t| t.logical).sum::<usize>(),
            neon.iter().map(|t| t.logical).sum::<usize>()
        );
        // Aligned lengths are identical across ISAs.
        assert_eq!(exact_tiles_for(64, 16, &VectorIsa::sve256()).len(), 4);
    }

    #[test]
    fn wide_isa_unlocks_wide_kernels() {
        // 32x12 needs a 512-bit file (2 * 12 = 24 accumulators); the
        // NEON chooser must never return it, the SVE-512 one should
        // prefer it for a perfectly fitting 32x12 problem.
        let neon = choose_kernel_for(32, 12, 64, &VectorIsa::neon128());
        assert!(neon.satisfies_register_constraint(4, 32, 2));
        let wide = choose_kernel_for(32, 12, 64, &VectorIsa::sve512());
        assert_eq!(wide, KernelShape::new(32, 12));
    }

    #[test]
    fn chosen_kernels_feasible_on_every_isa() {
        for isa in VectorIsa::all() {
            for m in [1usize, 3, 8, 17, 40, 100] {
                for n in [1usize, 5, 12, 33, 96] {
                    let k = choose_kernel_for(m, n, 32, &isa);
                    assert!(
                        isa.check_register_budget(k.mr, k.nr, 4).is_ok(),
                        "{m}x{n} on {isa} -> {k:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_records_and_uses_its_isa() {
        let cfg = PlanConfig {
            isa: VectorIsa::sve256(),
            ..Default::default()
        };
        let p = SmmPlan::build(75, 33, 64, &cfg);
        assert_eq!(p.isa, VectorIsa::sve256());
        // One residue tile per dimension, not a greedy cascade.
        assert_eq!(p.m_tiles.last().unwrap().logical, 75 % p.kernel.mr);
        let neon_p = SmmPlan::build(75, 33, 64, &PlanConfig::default());
        assert_eq!(neon_p.isa, VectorIsa::neon128());
    }
}
