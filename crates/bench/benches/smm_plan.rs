//! Plan-generation cost — the "JIT dispatch" overhead of the §IV
//! reference implementation: building a plan from scratch vs hitting
//! the shape cache, and the end-to-end win of caching for repeated
//! tiny GEMMs.

use smm_bench::timing::Group;
use smm_core::{PlanConfig, Smm, SmmPlan};
use smm_gemm::matrix::Mat;

fn main() {
    let mut group = Group::new("smm_plan");
    let cfg = PlanConfig::default();
    group.bench("build_8x8x8", || {
        std::hint::black_box(SmmPlan::build(8, 8, 8, &cfg));
    });
    group.bench("build_200x200x200", || {
        std::hint::black_box(SmmPlan::build(200, 200, 200, &cfg));
    });
    let cfg64 = PlanConfig {
        max_threads: 64,
        ..Default::default()
    };
    group.bench("build_64thread_grid", || {
        std::hint::black_box(SmmPlan::build(128, 1024, 256, &cfg64));
    });

    // Cached lookup path (the steady state of repeated SMMs).
    let smm = Smm::<f32>::new();
    smm.plan(8, 8, 8);
    group.bench("cached_lookup", || {
        std::hint::black_box(smm.plan(8, 8, 8));
    });

    // End-to-end tiny GEMM through the cached path.
    let a = Mat::<f32>::random(8, 8, 1);
    let b = Mat::<f32>::random(8, 8, 2);
    let mut cm = Mat::<f32>::zeros(8, 8);
    group.bench("gemm_8x8x8_cached", || {
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, cm.as_mut())
    });
}
