//! Host roofline probes: the peak FMA rate of one core (independent
//! chains), the latency-bound rate of one dependent chain, and the
//! single-thread streaming bandwidth (STREAM triad). Every other layer
//! is stated as a fraction of these, measured on the same host in the
//! same run — never against the simulated Phytium model.

use std::hint::black_box;

use crate::harness::now;

pub struct Roofline {
    /// Which FMA probe ran: `avx2+fma`, `neon` or `portable`.
    pub isa: &'static str,
    pub fma_peak_gflops: f64,
    pub fma_chain_gflops: f64,
    pub triad_gbps: f64,
    pub triad_array_bytes: usize,
    pub llc_bytes: usize,
}

/// Independent accumulators: enough to cover FMA latency × issue width
/// on current cores (4 cycles × 2 pipes on x86, 4 × 2–4 on Arm).
const CHAINS: usize = 12;

/// `acc ← acc·x + y` keeps values bounded (x < 1), so no chain ever
/// reaches infinity or a denormal. The probes pass these through
/// `black_box`: `1·x + y` rounds to exactly 1 in `f32`, so constant
/// inputs would let the compiler fold every chain away.
const X: f32 = 0.999_999;
const Y: f32 = 1e-6;

#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    use std::hint::black_box;

    pub const NAME: &str = "avx2+fma";
    pub const LANES: usize = 8;

    pub fn available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    #[target_feature(enable = "avx2,fma")]
    fn sum(v: __m256) -> f32 {
        let mut out = [0.0f32; LANES];
        // SAFETY: `out` holds exactly LANES = 8 f32s, the width of one
        // unaligned 256-bit store.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) };
        out.iter().sum()
    }

    /// `iters` rounds of [`super::CHAINS`] independent 8-lane FMAs.
    #[target_feature(enable = "avx2,fma")]
    pub fn independent(iters: u64) -> f32 {
        let (x, y) = (
            _mm256_set1_ps(black_box(super::X)),
            _mm256_set1_ps(black_box(super::Y)),
        );
        let mut acc = [_mm256_set1_ps(black_box(1.0)); super::CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm256_fmadd_ps(*a, x, y);
            }
        }
        let total = acc
            .iter()
            .fold(_mm256_set1_ps(0.0), |s, &a| _mm256_add_ps(s, a));
        sum(total)
    }

    /// `iters` FMAs on one dependent 8-lane chain.
    #[target_feature(enable = "avx2,fma")]
    pub fn chain(iters: u64) -> f32 {
        let (x, y) = (
            _mm256_set1_ps(black_box(super::X)),
            _mm256_set1_ps(black_box(super::Y)),
        );
        let mut acc = _mm256_set1_ps(black_box(1.0));
        for _ in 0..iters {
            acc = _mm256_fmadd_ps(acc, x, y);
        }
        sum(acc)
    }
}

#[cfg(target_arch = "aarch64")]
mod simd {
    use std::arch::aarch64::{float32x4_t, vaddvq_f32, vdupq_n_f32, vfmaq_f32};
    use std::hint::black_box;

    pub const NAME: &str = "neon";
    pub const LANES: usize = 4;

    pub fn available() -> bool {
        std::arch::is_aarch64_feature_detected!("neon")
    }

    fn sum(v: float32x4_t) -> f32 {
        vaddvq_f32(v)
    }

    #[target_feature(enable = "neon")]
    pub fn independent(iters: u64) -> f32 {
        let (x, y) = (
            vdupq_n_f32(black_box(super::X)),
            vdupq_n_f32(black_box(super::Y)),
        );
        let mut acc = [vdupq_n_f32(black_box(1.0)); super::CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = vfmaq_f32(y, *a, x);
            }
        }
        acc.iter().map(|&a| sum(a)).sum()
    }

    #[target_feature(enable = "neon")]
    pub fn chain(iters: u64) -> f32 {
        let (x, y) = (
            vdupq_n_f32(black_box(super::X)),
            vdupq_n_f32(black_box(super::Y)),
        );
        let mut acc = vdupq_n_f32(black_box(1.0));
        for _ in 0..iters {
            acc = vfmaq_f32(y, acc, x);
        }
        sum(acc)
    }
}

/// Scalar chains for hosts without a vector probe.
mod portable {
    pub const NAME: &str = "portable";
    pub const LANES: usize = 1;

    use std::hint::black_box;

    pub fn independent(iters: u64) -> f32 {
        let (x, y) = (black_box(super::X), black_box(super::Y));
        let mut acc = [black_box(1.0f32); super::CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = *a * x + y;
            }
        }
        acc.iter().sum()
    }

    pub fn chain(iters: u64) -> f32 {
        let (x, y) = (black_box(super::X), black_box(super::Y));
        let mut acc = black_box(1.0f32);
        for _ in 0..iters {
            acc = acc * x + y;
        }
        acc
    }
}

/// The FMA probes this host can run.
struct FmaProbes {
    name: &'static str,
    lanes: usize,
    independent: fn(u64) -> f32,
    chain: fn(u64) -> f32,
}

fn fma_probes() -> FmaProbes {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if simd::available() {
        fn independent(iters: u64) -> f32 {
            // SAFETY: `fma_probes` hands out this wrapper only after
            // `simd::available()` confirmed the target features.
            unsafe { simd::independent(iters) }
        }
        fn chain(iters: u64) -> f32 {
            // SAFETY: as above — the features were detected at run time.
            unsafe { simd::chain(iters) }
        }
        return FmaProbes {
            name: simd::NAME,
            lanes: simd::LANES,
            independent,
            chain,
        };
    }
    FmaProbes {
        name: portable::NAME,
        lanes: portable::LANES,
        independent: portable::independent,
        chain: portable::chain,
    }
}

/// Best-of-`reps` Gflop/s of `probe`, sized to take ~`target_s` a run.
fn gflops(probe: fn(u64) -> f32, flops_per_iter: f64, target_s: f64, reps: usize) -> f64 {
    let t = now();
    black_box(probe(black_box(100_000)));
    let per_iter = t.elapsed().as_secs_f64() / 100_000.0;
    let iters = ((target_s / per_iter.max(1e-12)) as u64).max(1000);
    (0..reps)
        .map(|_| {
            let t = now();
            black_box(probe(black_box(iters)));
            flops_per_iter * iters as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// Last-level cache size from sysfs (largest cache level of cpu0), or
/// 32 MiB when the host does not say.
fn llc_bytes() -> usize {
    let parse = |s: &str| {
        let s = s.trim();
        let (num, mult) = match s.as_bytes().last() {
            Some(b'K') => (&s[..s.len() - 1], 1 << 10),
            Some(b'M') => (&s[..s.len() - 1], 1 << 20),
            _ => (s, 1),
        };
        num.parse::<usize>().ok().map(|n| n * mult)
    };
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .filter_map(|s| parse(&s))
        .max()
        .unwrap_or(32 << 20)
}

/// Working set of the triad: the three arrays together span at least
/// four times the last-level cache, capped to keep the probe small.
const TRIAD_CAP_BYTES: usize = 512 << 20;

/// Single-thread STREAM triad `a = b + s·c` over `f32` arrays; bytes
/// are computed as three arrays per pass (write-allocate traffic not
/// counted). Best of three passes after a first-touch pass.
fn triad(llc: usize) -> (f64, usize) {
    let array_bytes = (4 * llc).min(TRIAD_CAP_BYTES) / 3;
    let n = array_bytes / 4;
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let s = black_box(0.5f32);
    let mut best = 0.0f64;
    for _ in 0..4 {
        let t = now();
        for ((a, &b), &c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        best = best.max(3.0 * array_bytes as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    (best, array_bytes)
}

pub fn measure() -> Roofline {
    let probes = fma_probes();
    let lanes = probes.lanes as f64;
    let fma_peak_gflops = gflops(probes.independent, 2.0 * lanes * CHAINS as f64, 0.05, 3);
    let fma_chain_gflops = gflops(probes.chain, 2.0 * lanes, 0.03, 3);
    let llc = llc_bytes();
    let (triad_gbps, triad_array_bytes) = triad(llc);
    Roofline {
        isa: probes.name,
        fma_peak_gflops,
        fma_chain_gflops,
        triad_gbps,
        triad_array_bytes,
        llc_bytes: llc,
    }
}
