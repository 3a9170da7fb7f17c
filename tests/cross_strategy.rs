//! Cross-strategy property tests, driven by a deterministic xorshift
//! sweep: for arbitrary small shapes and scalars, every implementation
//! must agree with the naive oracle.

use smm_core::{PlanConfig, Smm, SmmPlan};
use smm_gemm::matrix::Mat;
use smm_gemm::{all_strategies, gemm_naive};

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
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn scalar(&mut self) -> f32 {
        (self.range(0, 17) as f32 - 8.0) * 0.25
    }
}

fn tolerance(k: usize) -> f64 {
    // Accumulation-order differences grow with K; inputs are bounded
    // by ~1.2 in magnitude.
    1e-4 * (k as f64 + 10.0)
}

/// All four library strategies match naive on arbitrary shapes.
#[test]
fn strategies_match_naive() {
    let mut rng = Rng::new(41);
    for _ in 0..48 {
        let m = rng.range(1, 48);
        let n = rng.range(1, 48);
        let k = rng.range(1, 48);
        let alpha = rng.scalar();
        let beta = rng.scalar();
        let seed = rng.range(0, 1000) as u64;
        let a = Mat::<f32>::random(m, k, seed);
        let b = Mat::<f32>::random(k, n, seed + 1);
        let c0 = Mat::<f32>::random(m, n, seed + 2);
        let mut c_ref = c0.clone();
        gemm_naive(alpha, a.as_ref(), b.as_ref(), beta, c_ref.as_mut());
        for s in all_strategies::<f32>() {
            let mut c = c0.clone();
            s.gemm(alpha, a.as_ref(), b.as_ref(), beta, c.as_mut(), 1);
            let d = c.max_abs_diff(&c_ref);
            assert!(d < tolerance(k), "{} {m}x{n}x{k}: diff {d}", s.name());
        }
    }
}

/// The reference implementation matches naive for every packing
/// configuration.
#[test]
fn reference_matches_naive_all_configs() {
    let mut rng = Rng::new(42);
    for _ in 0..48 {
        let m = rng.range(1, 40);
        let n = rng.range(1, 40);
        let k = rng.range(1, 40);
        let pack_a = rng.range(0, 2) == 1;
        let pack_b = rng.range(0, 2) == 1;
        let seed = rng.range(0, 1000) as u64;
        let cfg = PlanConfig {
            pack_a: Some(pack_a),
            pack_b: Some(pack_b),
            ..Default::default()
        };
        let plan = SmmPlan::build(m, n, k, &cfg);
        let a = Mat::<f32>::random(m, k, seed);
        let b = Mat::<f32>::random(k, n, seed + 1);
        let mut c = Mat::<f32>::random(m, n, seed + 2);
        let mut c_ref = c.clone();
        let pool = smm_gemm::TaskPool::global();
        smm_core::execute_in(pool, &plan, 1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut());
        gemm_naive(1.0, a.as_ref(), b.as_ref(), 1.0, c_ref.as_mut());
        let d = c.max_abs_diff(&c_ref);
        assert!(
            d < tolerance(k),
            "{m}x{n}x{k} pa={pack_a} pb={pack_b}: diff {d}"
        );
    }
}

/// Threaded execution is equivalent to single-threaded, bit for bit:
/// splitting the thread grid never changes an element's accumulation.
#[test]
fn threads_do_not_change_results() {
    let mut rng = Rng::new(43);
    for _ in 0..48 {
        let m = rng.range(1, 64);
        let n = rng.range(1, 64);
        let k = rng.range(1, 32);
        let threads = rng.range(2, 9);
        let seed = rng.range(0, 1000) as u64;
        let a = Mat::<f32>::random(m, k, seed);
        let b = Mat::<f32>::random(k, n, seed + 1);
        let single = Smm::<f32>::new();
        let multi = Smm::<f32>::builder().threads(threads).build();
        let mut c1 = Mat::<f32>::zeros(m, n);
        let mut c2 = Mat::<f32>::zeros(m, n);
        single.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c1.as_mut());
        multi.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c2.as_mut());
        let bits = |c: &Mat<f32>| c.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c1), bits(&c2), "{m}x{n}x{k} t{threads}");
    }
}

/// Plans are internally consistent for arbitrary shapes.
#[test]
fn plans_are_well_formed() {
    let mut rng = Rng::new(44);
    for _ in 0..48 {
        let m = rng.range(1, 300);
        let n = rng.range(1, 300);
        let k = rng.range(1, 300);
        let threads = rng.range(1, 65);
        let cfg = PlanConfig {
            max_threads: threads,
            ..Default::default()
        };
        let p = SmmPlan::build(m, n, k, &cfg);
        // Tiles cover the dimensions exactly.
        assert_eq!(p.m_tiles.iter().map(|t| t.logical).sum::<usize>(), m);
        assert_eq!(p.n_tiles.iter().map(|t| t.logical).sum::<usize>(), n);
        // Exact tiling: no padding anywhere.
        assert!(p.m_tiles.iter().all(|t| t.kernel == t.logical));
        // The kernel satisfies Eq. 4.
        assert!(p.kernel.satisfies_register_constraint(4, 32, 2));
        // Thread budget respected and kc within bounds.
        assert!(p.threads() <= threads);
        assert!(p.kc >= 1 && p.kc <= k.max(32));
    }
}
