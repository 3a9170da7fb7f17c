//! Simulation programs for the reference SMM implementation.
//!
//! Builds the macro-op program an [`SmmPlan`] executes, so the §IV
//! design can be compared against the four libraries on the simulated
//! Phytium 2000+ in the figure harness and the ablation benches.

use smm_gemm::parallel::split_ranges;
use smm_gemm::sim::{GemmLayout, MacroOp, PackAPanelOp, PackBSliverOp, SimJob, ELEM};
use smm_kernels::descriptor::{BLoadStyle, MicroKernelDesc, SchedulePolicy};
use smm_kernels::trace_gen::KernelTraceParams;
use smm_simarch::phase::Phase;

use crate::plan::SmmPlan;

/// Build the simulation job for a plan.
pub fn build_sim(plan: &SmmPlan) -> SimJob {
    let (m, n, k) = (plan.m, plan.n, plan.k);
    let mut lay = GemmLayout::for_threads(m, n, k, plan.threads());
    let threads = plan.threads();
    let (mr, nr) = (plan.kernel.mr, plan.kernel.nr);

    let m_chunks = split_ranges(plan.m_tiles.len(), plan.grid.m_ways());
    let n_chunks = split_ranges(plan.n_tiles.len(), plan.grid.n_ways());

    // Per-thread private packing buffers on the local NUMA panel.
    let bufsize = ((n + nr) * plan.kc + (mr + 16) * plan.kc) as u64 * ELEM;
    let bufs: Vec<u64> = (0..threads).map(|t| lay.alloc_local(bufsize, t)).collect();

    let mut progs: Vec<Vec<MacroOp>> = vec![Vec::new(); threads];
    let mut t = 0;
    for &(ms, mc) in &m_chunks {
        for &(ns, nc) in &n_chunks {
            if t >= threads {
                break;
            }
            let prog = &mut progs[t];
            // Plan-dispatch overhead: the cached-plan lookup plus tile
            // table walk (the cost LIBXSMM pays as JIT dispatch).
            prog.push(MacroOp::Iops {
                n: 50,
                phase: Phase::Overhead,
            });
            if mc == 0 || nc == 0 {
                t += 1;
                continue;
            }
            let m_tiles = &plan.m_tiles[ms..ms + mc];
            let n_tiles = &plan.n_tiles[ns..ns + nc];
            let bpack_base = bufs[t];
            let apack_base = bufs[t] + ((n + nr) * plan.kc) as u64 * ELEM;

            let mut kk = 0;
            while kk < k {
                let kc = plan.kc.min(k - kk);
                // B packing decisions per sliver. Edge slivers are
                // packed even when B is not: the Fig. 8 remedy for the
                // simulated scalar edge kernels. (Native SIMD nests
                // read strided B, so the native walker packs only
                // under `plan.pack_b`.)
                let mut b_off = Vec::with_capacity(n_tiles.len());
                let mut packed = Vec::with_capacity(n_tiles.len());
                let mut off = 0u64;
                for jt in n_tiles {
                    let edge = jt.logical < nr;
                    let do_pack = plan.pack_b || edge;
                    packed.push(do_pack);
                    b_off.push(off);
                    if do_pack {
                        prog.push(MacroOp::PackB(PackBSliverOp {
                            src: lay.b_addr(kk, jt.offset),
                            ldb: lay.ldb,
                            kc,
                            cols: jt.logical,
                            pad_to: jt.logical,
                            dst: bpack_base + off,
                            phase: Phase::PackB,
                            src_row_major: false,
                        }));
                        off += (jt.logical * kc) as u64 * ELEM;
                    }
                }
                for it in m_tiles {
                    // Packed A panels round rows up to a full vector.
                    let lanes = plan.isa.lanes_f32();
                    let padded = it.logical.div_ceil(lanes) * lanes;
                    let (a_base, a_kstep) = if plan.pack_a {
                        prog.push(MacroOp::PackA(PackAPanelOp {
                            src: lay.a_addr(it.offset, kk),
                            lda: lay.lda,
                            rows: it.logical,
                            kc,
                            pad_to: padded,
                            dst: apack_base,
                            phase: Phase::PackA,
                            src_row_major: false,
                        }));
                        (apack_base, padded as u64 * ELEM)
                    } else {
                        (lay.a_addr(it.offset, kk), lay.lda)
                    };
                    for (s, jt) in n_tiles.iter().enumerate() {
                        let is_main = it.logical == mr && jt.logical == nr;
                        let desc = MicroKernelDesc::for_isa(
                            plan.isa,
                            it.logical,
                            jt.logical,
                            4,
                            SchedulePolicy::Interleaved,
                            BLoadStyle::ScalarPairs,
                        );
                        let (b_base, b_kstep, b_jstride) = if packed[s] {
                            (bpack_base + b_off[s], (jt.logical as u64) * ELEM, ELEM)
                        } else {
                            (lay.b_addr(kk, jt.offset), ELEM, lay.ldb)
                        };
                        prog.push(MacroOp::Kernel(KernelTraceParams {
                            desc,
                            kc,
                            a_base,
                            a_kstep,
                            b_base,
                            b_kstep,
                            b_jstride,
                            c_base: lay.c_addr(it.offset, jt.offset),
                            c_col_stride: lay.ldc,
                            elem: ELEM,
                            phase: if is_main { Phase::Kernel } else { Phase::Edge },
                        }));
                    }
                }
                kk += kc;
            }
            t += 1;
        }
    }

    SimJob {
        programs: progs,
        useful_flops: plan.flops(),
        label: format!(
            "SMM-Ref {m}x{n}x{k} t{threads} packA={} packB={}",
            plan.pack_a, plan.pack_b
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanConfig, SmmPlan};

    #[test]
    fn sim_runs_and_counts_flops() {
        let plan = SmmPlan::build(32, 32, 32, &PlanConfig::default());
        let report = build_sim(&plan).run();
        assert!(report.total_fmas() > 0);
        assert!(report.cycles > 0);
    }

    #[test]
    fn packing_optional_small_m_has_no_pack_phase() {
        let plan = SmmPlan::build(8, 64, 32, &PlanConfig::default());
        assert!(!plan.pack_b);
        let report = build_sim(&plan).run();
        let b = report.total_breakdown();
        assert_eq!(b.get(Phase::PackA), 0);
        // Only edge slivers may be packed; N=64 with nr | 64 has none.
        if plan.n.is_multiple_of(plan.kernel.nr) {
            assert_eq!(b.get(Phase::PackB), 0);
        }
    }

    #[test]
    fn reference_beats_openblas_on_small_m() {
        use smm_gemm::{OpenBlasStrategy, Strategy};
        // Small M: packing dominates OpenBLAS (§III-A); the reference
        // implementation skips it.
        let plan = SmmPlan::build(6, 96, 96, &PlanConfig::default());
        let ours = build_sim(&plan).run();
        let ob = Strategy::<f32>::sim(&OpenBlasStrategy::new(), 6, 96, 96, 1).run();
        assert!(
            ours.cycles < ob.cycles,
            "SMM-Ref {} cycles vs OpenBLAS {}",
            ours.cycles,
            ob.cycles
        );
    }

    #[test]
    fn multithreaded_sim_has_no_barriers() {
        let cfg = PlanConfig {
            max_threads: 8,
            ..Default::default()
        };
        let plan = SmmPlan::build(64, 96, 32, &cfg);
        assert!(plan.threads() > 1);
        let job = build_sim(&plan);
        for prog in &job.programs {
            assert!(!prog.iter().any(|op| matches!(op, MacroOp::Barrier { .. })));
        }
        let report = job.run();
        assert_eq!(report.total_breakdown().get(Phase::Sync), 0);
    }

    #[test]
    fn sve_plan_simulates_predicated_edges_end_to_end() {
        use smm_kernels::trace_gen::kernel_trace;
        use smm_model::VectorIsa;
        use smm_simarch::isa::Op;
        let cfg = PlanConfig {
            isa: VectorIsa::sve256(),
            ..Default::default()
        };
        // 75 % mr != 0 for every candidate mr, so the program must
        // contain masked-edge kernels rather than a greedy cascade.
        let plan = SmmPlan::build(75, 33, 64, &cfg);
        let job = build_sim(&plan);
        let predicated = job.programs[0].iter().any(|op| match op {
            MacroOp::Kernel(p) => kernel_trace(p).0.iter().any(|i| i.op == Op::LdVecPred),
            _ => false,
        });
        assert!(predicated, "SVE plan should emit predicated edge loads");
        let report = job.run();
        assert!(report.total_fmas() > 0);
        assert!(report.cycles > 0);
    }

    #[test]
    fn edge_slivers_are_packed_when_enabled() {
        let cfg = PlanConfig {
            pack_b: Some(false),
            ..Default::default()
        };
        let plan = SmmPlan::build(16, 13, 16, &cfg);
        let job = build_sim(&plan);
        let packs = job.programs[0]
            .iter()
            .filter(|op| matches!(op, MacroOp::PackB(_)))
            .count();
        assert!(
            packs > 0,
            "the 13 % nr edge sliver should be packed (Fig. 8)"
        );
    }
}
