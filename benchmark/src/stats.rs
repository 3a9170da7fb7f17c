//! Statistics, seeded input generation, and the numerical oracle bound.
//!
//! Everything the workloads draw from the seed goes through [`Rng`], so
//! one seed always yields the same shapes, data, batch sizes and
//! arrival schedules.

/// SplitMix64: small, fast, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream derived from this seed and a label.
    pub fn fork(&self, label: u64) -> Rng {
        let mut r = Rng(self.0 ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform `f32` in [-1, 1): not dyadic, so GEMMs really round.
    pub fn value(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }

    pub fn values(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.value()).collect()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// Exponential inter-arrival time, in seconds, at `rate` per second.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// Integer strata splitting `lo..=hi` into `cells` consecutive ranges
/// whose boundaries are evenly spaced in log space (inclusive bounds).
pub fn log_strata(lo: usize, hi: usize, cells: usize) -> Vec<(usize, usize)> {
    strata(lo, hi, cells, |t| {
        lo as f64 * (hi as f64 / lo as f64).powf(t)
    })
}

/// Like [`log_strata`], with boundaries evenly spaced in linear space.
pub fn linear_strata(lo: usize, hi: usize, cells: usize) -> Vec<(usize, usize)> {
    strata(lo, hi, cells, |t| lo as f64 + (hi + 1 - lo) as f64 * t)
}

fn strata(lo: usize, hi: usize, cells: usize, at: impl Fn(f64) -> f64) -> Vec<(usize, usize)> {
    let mut bounds: Vec<usize> = (0..cells)
        .map(|i| (at(i as f64 / cells as f64).round() as usize).clamp(lo, hi))
        .collect();
    bounds.push(hi + 1);
    bounds.dedup();
    bounds.windows(2).map(|w| (w[0], w[1] - 1)).collect()
}

/// One shape per cell of the `strata³` grid, drawn uniformly inside its
/// cell, returned in seeded order. Every seed covers the same cells, so
/// a seed changes the exact shapes and their order, not the size mix.
pub fn jittered_grid(rng: &mut Rng, strata: &[(usize, usize)]) -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::with_capacity(strata.len().pow(3));
    for &(m0, m1) in strata {
        for &(n0, n1) in strata {
            for &(k0, k1) in strata {
                shapes.push((rng.range(m0, m1), rng.range(n0, n1), rng.range(k0, k1)));
            }
        }
    }
    rng.shuffle(&mut shapes);
    shapes
}

/// Zipf(`s`) popularity over `n` ranks (rank 0 most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One scheduled request of an open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, ns after the phase starts.
    pub at_ns: u64,
    /// Popularity rank of the request's shape.
    pub rank: u32,
    /// Which data variant of that shape.
    pub variant: u32,
}

/// Poisson arrivals at `rate` per second for `seconds`, each request's
/// shape drawn from `zipf` and its data variant uniformly.
pub fn poisson_schedule(
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    zipf: &Zipf,
    variants: usize,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = rng.exp(rate);
    while t < seconds {
        out.push(Arrival {
            at_ns: (t * 1e9) as u64,
            rank: zipf.sample(rng) as u32,
            variant: rng.range(0, variants - 1) as u32,
        });
        t += rng.exp(rate);
    }
    out
}

/// Sort a sample in place and return it (NaN-free input assumed).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Exact nearest-rank quantile of sorted data: the smallest sample with
/// at least `q·n` samples at or below it. NaN on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// The three quartile cut points of sorted data by the "exclusive"
/// method (the default of Python's `statistics.quantiles(data, n=4)`),
/// which the run-to-run spread is defined with.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 98.0, 95.0, 90.0];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n`; `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Latency histogram buckets grow by 0.1%, from 1 ns to 100 s.
const BUCKET_GROWTH: f64 = 1.001;
const BUCKETS: usize = 25_400;

fn bucket(ns: u64) -> usize {
    (((ns.max(1) as f64).ln() / BUCKET_GROWTH.ln()) as usize).min(BUCKETS - 1)
}

/// Midpoint of a bucket, in µs.
fn bucket_us(idx: usize) -> f64 {
    BUCKET_GROWTH.powf(idx as f64 + 0.5) / 1e3
}

/// Nearest-rank quantile of a histogram with `count` samples.
fn hist_quantile(hist: &[u32], count: u64, q: f64) -> f64 {
    let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in hist.iter().enumerate() {
        seen += u64::from(c);
        if seen >= target {
            return bucket_us(i);
        }
    }
    f64::NAN
}

/// Fewest samples a window needs before its latency quantiles count:
/// ten beyond its p99.
const MIN_WINDOW_SAMPLES: u64 = 1000;
/// The window quantile a run reports: its best tenth of windows (the
/// 90th-percentile window for rates, the 10th for latencies).
const BEST_WINDOWS: f64 = 0.1;

/// A run's operations, accumulated per window as they complete: the
/// operation credit of each window (each operation `(start, end)`
/// split over the windows it overlaps, so long operations do not
/// quantize the rate) and a latency histogram (0.1% buckets) of the
/// operations ending in it. Memory stays fixed however many operations
/// run, so the process's peak memory measures the workload, not its
/// bookkeeping.
///
/// Why windows: the benchmark's host shares its cores with other
/// tenants whose load slows one core or both, by up to half, for
/// seconds at a time, while a code change slows every stretch of a run
/// alike. Each metric is therefore computed per window and the run
/// reports its best tenth of windows — see [`Windows::best`].
pub struct Windows {
    window_ns: u64,
    credit: Vec<f64>,
    hist: Vec<Vec<u32>>,
    counts: Vec<u64>,
}

/// What [`Windows::best`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Best {
    /// Operations per second.
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Samples in the smallest window counted for latency (or in the
    /// whole run, when no window holds enough).
    pub samples: u64,
}

impl Windows {
    pub fn new(window_ns: u64) -> Self {
        Windows {
            window_ns,
            credit: Vec::new(),
            hist: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn grow(&mut self, windows: usize) {
        if self.credit.len() < windows {
            self.credit.resize(windows, 0.0);
            self.hist.resize_with(windows, Vec::new);
            self.counts.resize(windows, 0);
        }
    }

    /// One operation, on the run's clock.
    pub fn record(&mut self, start_ns: u64, end_ns: u64) {
        let w = self.window_ns;
        let last = (end_ns / w) as usize;
        self.grow(last + 1);
        if end_ns <= start_ns {
            self.credit[last] += 1.0;
        } else {
            let len = (end_ns - start_ns) as f64;
            for win in (start_ns / w) as usize..=last {
                let (lo, hi) = (win as u64 * w, (win as u64 + 1) * w);
                self.credit[win] += (end_ns.min(hi) - start_ns.max(lo)) as f64 / len;
            }
        }
        let hist = &mut self.hist[last];
        if hist.is_empty() {
            hist.resize(BUCKETS, 0);
        }
        hist[bucket(end_ns - start_ns.min(end_ns))] += 1;
        self.counts[last] += 1;
    }

    /// Operations recorded.
    pub fn ops(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The run's best tenth of windows over a measured span of
    /// `span_ns`: the 90th-percentile window rate and the
    /// 10th-percentile window p50 and p99, among windows holding at
    /// least [`MIN_WINDOW_SAMPLES`] operations (the whole run's
    /// quantiles when none does). A trailing partial window shorter
    /// than half a window is left out.
    pub fn best(&self, span_ns: u64) -> Best {
        let w = self.window_ns;
        let full = (span_ns / w) as usize;
        let tail = span_ns % w;
        let windows = full + usize::from(tail * 2 >= w);
        let rates: Vec<f64> = (0..windows)
            .map(|i| {
                let len = if i == full { tail } else { w };
                self.credit.get(i).copied().unwrap_or(0.0) / (len as f64 / 1e9)
            })
            .collect();
        let rate = if rates.is_empty() {
            self.ops() as f64 / (span_ns.max(1) as f64 / 1e9)
        } else {
            quantile(&sorted(rates), 1.0 - BEST_WINDOWS)
        };
        let counted: Vec<usize> = (0..self.counts.len())
            .filter(|&i| self.counts[i] >= MIN_WINDOW_SAMPLES)
            .collect();
        if counted.is_empty() {
            let mut all = vec![0u32; BUCKETS];
            for h in self.hist.iter().filter(|h| !h.is_empty()) {
                for (a, b) in all.iter_mut().zip(h) {
                    *a += b;
                }
            }
            let n = self.ops();
            return Best {
                rate,
                p50_us: hist_quantile(&all, n, 0.5),
                p99_us: hist_quantile(&all, n, 0.99),
                samples: n,
            };
        }
        let best = |q: f64| {
            let per_window = counted
                .iter()
                .map(|&i| hist_quantile(&self.hist[i], self.counts[i], q))
                .collect();
            quantile(&sorted(per_window), BEST_WINDOWS)
        };
        Best {
            rate,
            p50_us: best(0.5),
            p99_us: best(0.99),
            samples: counted.iter().map(|&i| self.counts[i]).min().unwrap_or(0),
        }
    }
}

/// `γ_k = k·u / (1 − k·u)` for unit roundoff `u`: the componentwise
/// forward-error constant of a length-`k` inner product.
fn gamma_u(k: usize, u: f64) -> f64 {
    let ku = k as f64 * u;
    ku / (1.0 - ku)
}

/// `γ_k` of `f32` arithmetic.
pub fn gamma(k: usize) -> f64 {
    gamma_u(k, f32::EPSILON as f64 / 2.0)
}

/// How far, in units of `(|A||B|)_ij`, a correct `f32` GEMM result may
/// lie from the `f64` oracle: its own `γ_k` plus the oracle's, so the
/// check stays sound even for a result at the edge of its bound.
pub fn tolerance(k: usize) -> f64 {
    gamma(k) + gamma_u(k, f64::EPSILON / 2.0)
}

/// Componentwise forward-error check of an `f32` GEMM result
/// `got = A·B` (column-major, dense, `alpha = 1`, `beta = 0`) against
/// the naive oracle run in `f64` on the same operands: every correct
/// result lies within [`tolerance`]`(k)·(|A||B|)_ij` of it. Returns the
/// number of elements outside the bound.
pub fn bound_violations(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], got: &[f32]) -> usize {
    let (reference, abs) = oracle(m, n, k, a, b);
    let g = tolerance(k);
    got[..m * n]
        .iter()
        .zip(reference.iter().zip(&abs))
        .filter(|&(&c, (&r, &ab))| {
            // A NaN result is a violation too.
            let err = (c as f64 - r).abs();
            err.is_nan() || err > g * ab
        })
        .count()
}

/// The naive triple loop in `f64`: `(A·B, |A|·|B|)`.
pub fn oracle(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> (Vec<f64>, Vec<f64>) {
    use smm_gemm::matrix::{MatMut, MatRef};
    let a64: Vec<f64> = a[..m * k].iter().map(|&x| x as f64).collect();
    let b64: Vec<f64> = b[..k * n].iter().map(|&x| x as f64).collect();
    let mut c = vec![0.0f64; m * n];
    smm_gemm::gemm_naive(
        1.0,
        MatRef::from_slice(&a64, m, k, m),
        MatRef::from_slice(&b64, k, n, k),
        0.0,
        MatMut::from_slice(&mut c, m, n, m),
    );
    let abs_a: Vec<f64> = a64.iter().map(|x| x.abs()).collect();
    let abs_b: Vec<f64> = b64.iter().map(|x| x.abs()).collect();
    let mut abs = vec![0.0f64; m * n];
    smm_gemm::gemm_naive(
        1.0,
        MatRef::from_slice(&abs_a, m, k, m),
        MatRef::from_slice(&abs_b, k, n, k),
        0.0,
        MatMut::from_slice(&mut abs, m, n, m),
    );
    (c, abs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let v = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(499), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn windows_credit_operations_by_overlap() {
        let w = 1_000_000_000u64;
        let mut win = Windows::new(w);
        for i in 0..10 {
            win.record(i, i + 1);
        }
        for i in 0..20 {
            win.record(w + i, w + i + 1);
        }
        // Straddles windows 1 and 2 evenly.
        win.record(w + w / 2, 2 * w + w / 2);
        assert_eq!(win.credit, [10.0, 20.5, 0.5]);
        assert_eq!(win.counts, [10, 20, 1]);
        assert_eq!(win.ops(), 31);
        // A trailing window shorter than half a window is left out.
        assert_eq!(win.best(2 * w + w / 4).rate, 20.5);
    }

    #[test]
    fn best_windows_skip_the_disturbed_stretch() {
        let w = 1_000_000_000u64;
        // 2000 ops of 1 µs per window, except windows 1..9, where a
        // neighbour halves the rate and doubles the latency.
        let mut win = Windows::new(w);
        for k in 0..10u64 {
            let (n, lat) = if (1..9).contains(&k) {
                (1000, 2000)
            } else {
                (2000, 1000)
            };
            for i in 0..n {
                let end = k * w + (i + 1) * (w / n);
                win.record(end - lat, end);
            }
        }
        let b = win.best(10 * w);
        assert!((b.rate - 2000.0).abs() < 1e-6, "{}", b.rate);
        assert!(
            (b.p50_us - 1.0).abs() < 0.001 && (b.p99_us - 1.0).abs() < 0.001,
            "{b:?}"
        );
        assert_eq!(b.samples, 1000);
        // Too few operations per window: the run's own quantiles.
        let mut few = Windows::new(w);
        for i in 0..50 {
            few.record(i * 1000, i * 1000 + 3000);
        }
        let f = few.best(w);
        assert_eq!(f.samples, 50);
        assert!((f.p99_us - 3.0).abs() < 0.003, "{f:?}");
    }

    #[test]
    fn schedule_repeats_per_seed_and_differs_across_seeds() {
        let zipf = Zipf::new(27, 1.1);
        let make = |seed| poisson_schedule(&mut Rng::new(seed), 2000.0, 1.0, &zipf, 4);
        let (a, b, c) = (make(1), make(1), make(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Poisson at 2000/s for 1 s: within 5 sigma of 2000 arrivals.
        assert!(
            (a.len() as f64 - 2000.0).abs() < 5.0 * 2000f64.sqrt(),
            "{}",
            a.len()
        );
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // Zipf(1.1): rank 0 is the most popular by a wide margin.
        let head = a.iter().filter(|r| r.rank == 0).count();
        let second = a.iter().filter(|r| r.rank == 1).count();
        assert!(
            head > second && head * 10 > a.len() * 2,
            "{head} of {}",
            a.len()
        );
    }

    #[test]
    fn strata_cover_the_range_without_gaps() {
        for s in [
            log_strata(4, 64, 16),
            log_strata(4, 64, 8),
            linear_strata(2, 24, 8),
        ] {
            assert!(s.windows(2).all(|w| w[0].1 + 1 == w[1].0), "{s:?}");
            assert!(s.iter().all(|&(lo, hi)| lo <= hi));
        }
        assert_eq!(log_strata(4, 64, 16).len(), 16);
        assert_eq!(log_strata(4, 64, 16)[0].0, 4);
        assert_eq!(log_strata(4, 64, 16).last().unwrap().1, 64);
        let grid = jittered_grid(&mut Rng::new(3), &log_strata(4, 64, 16));
        let mut distinct = grid.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4096);
    }

    #[test]
    fn gamma_bound_accepts_naive_and_rejects_twice_the_bound() {
        let mut rng = Rng::new(9);
        let (m, n, k) = (7, 5, 300);
        let a = rng.values(m * k);
        let b = rng.values(k * n);
        // The repository's naive oracle in f32 is a correct GEMM.
        let mut c = vec![0.0f32; m * n];
        {
            use smm_gemm::matrix::{MatMut, MatRef};
            smm_gemm::gemm_naive(
                1.0,
                MatRef::from_slice(&a, m, k, m),
                MatRef::from_slice(&b, k, n, k),
                0.0,
                MatMut::from_slice(&mut c, m, n, m),
            );
        }
        assert_eq!(bound_violations(m, n, k, &a, &b, &c), 0);
        // Push one element twice the bound away from the exact value.
        let (reference, abs) = oracle(m, n, k, &a, &b);
        let i = 11;
        let mut bad = c.clone();
        bad[i] = (reference[i] + 2.0 * gamma(k) * abs[i]) as f32;
        assert_eq!(bound_violations(m, n, k, &a, &b, &bad), 1);
    }
}
