//! End-to-end integration tests: the reference implementation and all
//! four library strategies against the naive oracle, across the SMM
//! shape space of the paper's evaluation.

use smm_core::{PlanConfig, Smm, SmmPlan};
use smm_gemm::matrix::Mat;
use smm_gemm::{all_strategies, gemm_naive};

fn oracle(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    beta: f32,
    seed: u64,
) -> (Mat<f32>, Mat<f32>, Mat<f32>, Mat<f32>) {
    let a = Mat::<f32>::random(m, k, seed);
    let b = Mat::<f32>::random(k, n, seed + 1);
    let c0 = Mat::<f32>::random(m, n, seed + 2);
    let mut c_ref = c0.clone();
    gemm_naive(alpha, a.as_ref(), b.as_ref(), beta, c_ref.as_mut());
    (a, b, c0, c_ref)
}

/// Shapes from the paper's evaluation: squares of Fig. 5(a), the
/// irregular small-dimension shapes of Fig. 5(b-d) and Fig. 10, and
/// the §III-B edge example.
fn paper_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (5, 5, 5),
        (20, 20, 20),
        (75, 75, 75),
        (80, 80, 80),
        (200, 200, 200),
        (2, 192, 192),
        (40, 192, 192),
        (192, 2, 192),
        (192, 192, 2),
        (75, 60, 60),
        (64, 256, 256),
        (11, 4, 100),
        (1, 1, 1),
    ]
}

#[test]
fn every_strategy_matches_naive_on_paper_shapes() {
    for (m, n, k) in paper_shapes() {
        let (a, b, c0, c_ref) = oracle(m, n, k, 1.0, 1.0, 42);
        for s in all_strategies::<f32>() {
            let mut c = c0.clone();
            s.gemm(1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut(), 1);
            let d = c.max_abs_diff(&c_ref);
            assert!(d < 2e-2, "{} {m}x{n}x{k}: diff {d}", s.name());
        }
    }
}

#[test]
fn reference_impl_matches_naive_on_paper_shapes() {
    let smm = Smm::<f32>::new();
    for (m, n, k) in paper_shapes() {
        let (a, b, c0, _) = oracle(m, n, k, 2.0, 0.5, 17);
        let mut c = c0.clone();
        let mut c_ref = c0.clone();
        gemm_naive(2.0, a.as_ref(), b.as_ref(), 0.5, c_ref.as_mut());
        smm.gemm(2.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
        let d = c.max_abs_diff(&c_ref);
        assert!(d < 2e-2, "SMM-Ref {m}x{n}x{k}: diff {d}");
    }
}

#[test]
fn multithreaded_strategies_match_naive() {
    for threads in [2, 4, 8] {
        for (m, n, k) in [(64, 96, 32), (16, 200, 64), (100, 10, 50)] {
            let (a, b, c0, c_ref) = oracle(m, n, k, 1.0, 1.0, 7);
            for s in all_strategies::<f32>() {
                if !s.supports_threads() {
                    continue;
                }
                let mut c = c0.clone();
                s.gemm(1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut(), threads);
                let d = c.max_abs_diff(&c_ref);
                assert!(d < 2e-2, "{} t{threads} {m}x{n}x{k}: diff {d}", s.name());
            }
            let smm = Smm::<f32>::builder().threads(threads).build();
            let mut c = c0.clone();
            smm.gemm(1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut());
            assert!(
                c.max_abs_diff(&c_ref) < 2e-2,
                "SMM-Ref t{threads} {m}x{n}x{k}"
            );
        }
    }
}

#[test]
fn f64_precision_agrees_tightly() {
    let smm = Smm::<f64>::new();
    for (m, n, k) in [(33, 27, 19), (8, 8, 8), (75, 60, 60)] {
        let a = Mat::<f64>::random(m, k, 3);
        let b = Mat::<f64>::random(k, n, 4);
        let mut c = Mat::<f64>::zeros(m, n);
        let mut c_ref = Mat::<f64>::zeros(m, n);
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-9, "{m}x{n}x{k}");
    }
}

#[test]
fn plan_adaptivity_follows_the_p2c_model() {
    // Small M: packing cannot amortize -> packing-optional path.
    for (m, n) in [(2usize, 192usize), (8, 64), (4, 4)] {
        let p = SmmPlan::build(m, n, 64, &PlanConfig::default());
        assert!(!p.pack_b, "M={m}: B packing cannot amortize");
    }
    // Large M: B slivers are reused by many panels -> pack.
    let p = SmmPlan::build(192, 192, 64, &PlanConfig::default());
    assert!(p.pack_b);
    // P2C ordering matches the plan decisions.
    let small = SmmPlan::build(4, 4, 64, &PlanConfig::default());
    let large = SmmPlan::build(192, 192, 64, &PlanConfig::default());
    assert!(small.p2c > large.p2c);
}

#[test]
fn plan_grid_never_splits_small_dimensions() {
    let cfg = PlanConfig {
        max_threads: 64,
        ..Default::default()
    };
    let p = SmmPlan::build(16, 2048, 128, &cfg);
    assert!(p.grid.m_ways() <= 2, "{:?}", p.grid);
    let p2 = SmmPlan::build(2048, 16, 128, &cfg);
    assert!(p2.grid.n_ways() <= 2, "{:?}", p2.grid);
}

#[test]
fn strategies_agree_with_each_other() {
    let (m, n, k) = (53, 41, 29);
    let a = Mat::<f32>::random(m, k, 100);
    let b = Mat::<f32>::random(k, n, 101);
    let mut results = Vec::new();
    for s in all_strategies::<f32>() {
        let mut c = Mat::<f32>::zeros(m, n);
        s.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), 1);
        results.push((s.name(), c));
    }
    for w in results.windows(2) {
        let d = w[0].1.max_abs_diff(&w[1].1);
        assert!(d < 2e-2, "{} vs {}: diff {d}", w[0].0, w[1].0);
    }
}

#[test]
fn beta_zero_with_alpha_variants() {
    let (m, n, k) = (17, 13, 9);
    let a = Mat::<f32>::random(m, k, 1);
    let b = Mat::<f32>::random(k, n, 2);
    let smm = Smm::<f32>::new();
    for alpha in [0.0f32, 1.0, -2.5] {
        let mut expected = Mat::<f32>::from_fn(m, n, |_, _| 3.0);
        gemm_naive(alpha, a.as_ref(), b.as_ref(), 0.0, expected.as_mut());
        let mut c = Mat::<f32>::from_fn(m, n, |_, _| 3.0);
        smm.gemm(alpha, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert!(c.max_abs_diff(&expected) < 1e-2, "alpha={alpha}");
    }
}
