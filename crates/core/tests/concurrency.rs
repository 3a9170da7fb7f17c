//! Hammer one shared `Smm` from many threads at once.
//!
//! The runtime claims the sharded plan cache and the persistent pool
//! make a single instance safely shareable; this test drives 8+
//! threads over a mixed shape set and checks every result against the
//! naive reference, plus the cache-residency bound.

use std::sync::Arc;

use smm_core::{CallSite, Phase, Smm};
use smm_gemm::gemm_naive;
use smm_gemm::matrix::Mat;

/// xorshift64* — deterministic shape/seed selection per thread.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo + 1)
    }
}

const SHAPES: &[(usize, usize, usize)] = &[
    (4, 4, 4),
    (8, 8, 8),
    (13, 7, 21),
    (32, 32, 32),
    (2, 48, 16),
    (48, 2, 16),
    (24, 24, 3),
    (17, 29, 11),
];

fn hammer(smm: Arc<Smm<f32>>, threads: usize, iters: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let smm = Arc::clone(&smm);
            s.spawn(move || {
                let mut rng = Rng::new(0xC0FFEE + t as u64);
                for it in 0..iters {
                    let (m, n, k) = SHAPES[rng.range(0, SHAPES.len() - 1)];
                    let seed = (t * 1000 + it) as u64;
                    let a = Mat::<f32>::random(m, k, seed);
                    let b = Mat::<f32>::random(k, n, seed + 1);
                    let mut c = Mat::<f32>::random(m, n, seed + 2);
                    let mut c_ref = c.clone();
                    smm.gemm(1.5, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
                    gemm_naive(1.5, a.as_ref(), b.as_ref(), 0.5, c_ref.as_mut());
                    let d = c.max_abs_diff(&c_ref);
                    assert!(d < 1e-3, "thread {t} iter {it}: {m}x{n}x{k} diff {d}");
                }
            });
        }
    });
}

#[test]
fn shared_instance_survives_8_thread_hammer() {
    let smm = Arc::new(Smm::<f32>::new());
    hammer(Arc::clone(&smm), 8, 40);
    // Every thread draws from the same shape set, so residency is
    // bounded by the set size regardless of contention.
    assert!(smm.cached_plans() <= SHAPES.len());
    let s = smm.stats();
    assert_eq!(s.plan_hits + s.plan_misses, 8 * 40);
    assert!(s.plan_misses as usize <= SHAPES.len());
}

#[test]
fn telemetry_is_consistent_under_parallel_load() {
    // The sharded span recorders must not lose or double-count events
    // when 8 threads hammer one instance: every `gemm` call records
    // exactly one plan-lookup span and (single-threaded plans) exactly
    // one compute span, and the per-site call counter matches.
    let calls = 8 * 40;
    let smm = Arc::new(Smm::<f32>::new());
    hammer(Arc::clone(&smm), 8, 40);

    let r = smm.stats_report();
    assert!(r.enabled);
    assert_eq!(r.runtime.plan_hits + r.runtime.plan_misses, calls);
    assert_eq!(r.phase_count(Phase::PlanLookup), calls);
    assert_eq!(r.phase_count(Phase::Compute), calls);
    assert_eq!(r.site(CallSite::Gemm).calls, calls);
    // Shape table: 8 distinct shapes, each call attributed to exactly
    // one of them.
    assert_eq!(r.shapes.len(), SHAPES.len());
    assert_eq!(r.shapes.iter().map(|s| s.calls).sum::<u64>(), calls);
    assert_eq!(r.dropped_shapes, 0);
    assert!(r.flops > 0);

    // Counters are monotonic: more load only ever increases them.
    hammer(Arc::clone(&smm), 4, 10);
    let r2 = smm.stats_report();
    assert_eq!(r2.site(CallSite::Gemm).calls, calls + 4 * 10);
    assert_eq!(r2.phase_count(Phase::Compute), calls + 4 * 10);
    assert!(r2.flops > r.flops);
    for p in Phase::ALL {
        assert!(r2.phase_count(p) >= r.phase_count(p), "{} shrank", p.name());
        assert!(r2.phase_ns(p) >= r.phase_ns(p), "{} ns shrank", p.name());
    }
}

#[test]
fn shared_threaded_instance_is_correct_under_contention() {
    // Multi-threaded plans → concurrent callers also contend on the
    // pool's injection queue.
    let smm = Arc::new(Smm::<f32>::builder().threads(4).build());
    hammer(Arc::clone(&smm), 8, 20);
    assert!(smm.cached_plans() <= SHAPES.len());
    // Threaded plans may record one compute span per pool task, so the
    // exact-count invariant relaxes to "at least one per call"; the
    // per-call counters stay exact.
    let r = smm.stats_report();
    assert_eq!(r.site(CallSite::Gemm).calls, 8 * 20);
    assert_eq!(r.phase_count(Phase::PlanLookup), 8 * 20);
    assert!(r.phase_count(Phase::Compute) >= 8 * 20);
    assert_eq!(r.shapes.iter().map(|s| s.calls).sum::<u64>(), 8 * 20);
}

#[test]
fn bounded_cache_stays_bounded_under_contention() {
    let smm = Arc::new(Smm::<f32>::builder().cache_capacity(4 * 16).build());
    std::thread::scope(|s| {
        for t in 0..8 {
            let smm = Arc::clone(&smm);
            s.spawn(move || {
                for m in 1..=32 {
                    smm.plan(m, 3 + t % 3, 5);
                }
            });
        }
    });
    assert!(
        smm.cached_plans() <= 4 * 16,
        "resident {}",
        smm.cached_plans()
    );
}
