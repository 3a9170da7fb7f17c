//! The walker checks a packing buffer out of the arena only for an
//! operand its plan packs, so arena checkouts are counted exactly: none
//! for a plan that packs nothing, one per packed operand per grid cell
//! otherwise.
//!
//! This test has a binary of its own, and one test function: the arena
//! counters are process-global, so a GEMM that another test ran at the
//! same time would be counted too.

use smm_core::{execute_in, PlanConfig, Smm, SmmPlan, StridedBatch};
use smm_gemm::arena;
use smm_gemm::matrix::Mat;
use smm_gemm::TaskPool;

/// Arena checkouts made by `f`, and the bytes it allocated through the
/// arena.
fn checkouts(f: impl FnOnce()) -> (u64, u64) {
    arena::reset_stats();
    f();
    let s = arena::stats();
    (s.hits + s.misses, s.alloc_bytes)
}

#[test]
fn checkouts_follow_the_plans_packing() {
    const CALLS: u64 = 50;

    // Shapes whose plans pack nothing (fewer than eight panels or
    // slivers to reuse a packed operand), k > kc included, on one and
    // on two threads: no call checks anything out.
    for threads in [1, 2] {
        let smm = Smm::<f32>::builder().threads(threads).build();
        for (m, n, k) in [(8, 8, 8), (13, 7, 11), (24, 24, 24), (5, 12, 700)] {
            let plan = smm.plan(m, n, k);
            assert!(!plan.pack_a && !plan.pack_b, "{m}x{n}x{k}: {plan:?}");
            let a = Mat::<f32>::random(m, k, 1);
            let b = Mat::<f32>::random(k, n, 2);
            let mut c = Mat::<f32>::random(m, n, 3);
            let desc = StridedBatch::dense(m, n, k, 4);
            let a_flat = vec![0.5f32; 4 * m * k];
            let b_flat = vec![0.25f32; 4 * k * n];
            let mut c_flat = vec![1.0f32; 4 * m * n];
            let made = checkouts(|| {
                for _ in 0..CALLS {
                    smm.gemm(1.5, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
                    smm.gemm_batch(&desc, 1.5, &a_flat, &b_flat, 0.5, &mut c_flat)
                        .unwrap();
                }
            });
            assert_eq!(made, (0, 0), "{m}x{n}x{k} t{threads}");
        }
    }

    // A one-thread plan that packs makes one checkout per packed
    // operand per call, and a warm arena serves them without
    // allocating.
    let pool = TaskPool::global();
    for (m, n, k, pack) in [
        (256, 8, 16, None),
        (40, 36, 600, Some(true)),
        (40, 36, 600, Some(false)),
    ] {
        let cfg = PlanConfig {
            pack_a: pack,
            pack_b: pack,
            ..Default::default()
        };
        let plan = SmmPlan::build(m, n, k, &cfg);
        assert_eq!(plan.threads(), 1);
        let packed = plan.pack_a as u64 + plan.pack_b as u64;
        if pack.is_none() {
            assert!(plan.pack_b, "{m}x{n}x{k}: 8+ panels reuse each B sliver");
        }
        let a = Mat::<f32>::random(m, k, 4);
        let b = Mat::<f32>::random(k, n, 5);
        let mut c = Mat::<f32>::random(m, n, 6);
        let mut run = || execute_in(pool, &plan, 1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut());
        run();
        let made = checkouts(|| (0..CALLS).for_each(|_| run()));
        assert_eq!(made, (CALLS * packed, 0), "{m}x{n}x{k} pack {pack:?}");
    }
}
