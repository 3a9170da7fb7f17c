//! The three closed-loop library workloads: `mlp_infer`, `tiny_batch`
//! and `shape_churn`. One caller thread drives an `Smm` built with one
//! thread. On the shared two-core host these numbers come from, runs
//! that keep both cores busy land at either their full rate or about
//! 70% of it, for minutes at a time, as neighbours come and go; runs on
//! one thread do not. The pool is measured in the layer ledger instead
//! (see `probes.rs`).

use std::sync::Arc;

use smm_core::{Smm, StridedBatch};
use smm_gemm::matrix::{MatMut, MatRef};

use crate::harness::{
    closed_loop, layer_counters, merged_telemetry, metric, repeated_setup, ActiveClock, Op,
    Outcome, RunCfg, Snapshot,
};
use crate::stats::{bound_violations, jittered_grid, linear_strata, log_strata, Rng};
use crate::trace::{Kind, SpanLog};

/// Set up `build`'s runtime `cfg.setup_reps` times, warming each with
/// `warm_ops` checked operations (checks off the set-up clock), then run
/// the timed closed loop in windows of `window_ns` (see
/// [`crate::stats::Windows`]; each workload's window holds over a
/// thousand operations, enough for a p99) and collect everything it
/// measured.
fn run_closed<O: Op>(
    cfg: &RunCfg,
    (warm_ops, window_ns): (u64, u64),
    mut build: impl FnMut(Arc<Smm<f32>>) -> O,
) -> Outcome {
    let (mut warm_attempted, mut warm_failed) = (0u64, 0u64);
    let ((mut op, smm), setup_s) = repeated_setup(cfg.setup_reps, || {
        let mut clock = ActiveClock::start();
        let smm = Arc::new(
            Smm::builder()
                .telemetry(cfg.traced)
                .tracing(cfg.traced)
                .build(),
        );
        let mut op = build(smm.clone());
        for i in 0..warm_ops {
            let ran = op.run(WARM_BASE + i, &mut SpanLog::disabled());
            let ok = clock.excluding(|| op.check(WARM_BASE + i));
            warm_attempted += 1;
            warm_failed += u64::from(!(ran && ok));
        }
        ((op, smm), clock.ns() as f64 / 1e9)
    });
    let smms = [smm];
    let mut log = if cfg.traced {
        SpanLog::new(crate::harness::now(), 0, 1 << 20)
    } else {
        SpanLog::disabled()
    };
    let before = Snapshot::take(&smms, Default::default());
    let stats = closed_loop(cfg.seconds, window_ns, &mut op, &mut log);
    let after = Snapshot::take(&smms, Default::default());
    let span_s = stats.span_ns as f64 / 1e9;
    let telemetry = merged_telemetry(&smms);
    let flops: f64 = (0..stats.ops).map(|i| op.flops(i)).sum();
    let best = stats.windows.best(stats.span_ns);
    Outcome {
        setup_s,
        ops_per_s: best.rate,
        latency_p50_us: best.p50_us,
        latency_p99_us: best.p99_us,
        latency_samples: best.samples,
        attempted: warm_attempted + stats.ops,
        failed: warm_failed + stats.failed,
        extra: vec![
            metric("gflops", flops / span_s / 1e9, "Gflop/s"),
            metric("ops", stats.ops as f64, "count"),
            metric("ops_per_s_whole_run", stats.ops as f64 / span_s, "op/s"),
        ],
        counters: layer_counters(&before, &after, stats.ops, span_s, telemetry.as_ref()),
        telemetry,
        spans: cfg.traced.then_some(log),
        cost: 1.0 / best.rate,
    }
}

/// Warm-up operations get ids far from the timed ones, so the two
/// never share a seeded input draw.
const WARM_BASE: u64 = 1 << 40;

// ---------------------------------------------------------------- mlp_infer

/// The 784-128-64-10 MLP of `examples/dnn_inference.rs`.
const MLP_DIMS: [(usize, usize); 3] = [(128, 784), (64, 128), (10, 64)];
const MLP_MAX_BATCH: usize = 32;
const MLP_INPUTS: usize = 8;

struct MlpData {
    weights: Vec<Vec<f32>>,
    biases: Vec<Vec<f32>>,
    /// Input batches, 784 × [`MLP_MAX_BATCH`] each.
    inputs: Vec<Vec<f32>>,
    /// Batch-size stream: every block of 32 passes is a seeded
    /// permutation of 1..=32, so any run covers the sizes evenly.
    batches: Vec<u8>,
}

impl MlpData {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed).fork(1);
        let weights = MLP_DIMS.iter().map(|&(o, i)| rng.values(o * i)).collect();
        let biases = MLP_DIMS
            .iter()
            .map(|&(o, _)| (0..o).map(|_| rng.value() * 0.1).collect())
            .collect();
        let inputs = (0..MLP_INPUTS)
            .map(|_| rng.values(MLP_DIMS[0].1 * MLP_MAX_BATCH))
            .collect();
        let mut batches = Vec::with_capacity(1 << 16);
        while batches.len() < 1 << 16 {
            let mut block: Vec<u8> = (1..=MLP_MAX_BATCH as u8).collect();
            rng.shuffle(&mut block);
            batches.extend(block);
        }
        MlpData {
            weights,
            biases,
            inputs,
            batches,
        }
    }

    fn batch(&self, i: u64) -> usize {
        if i >= WARM_BASE {
            // Warm-up walks every batch size in order.
            1 + ((i - WARM_BASE) as usize % MLP_MAX_BATCH)
        } else {
            self.batches[i as usize % self.batches.len()] as usize
        }
    }
}

struct Mlp<'a> {
    data: &'a MlpData,
    smm: Arc<Smm<f32>>,
    /// Per layer: the GEMM output, then the activation after bias+ReLU.
    out: Vec<Vec<f32>>,
    act: Vec<Vec<f32>>,
}

impl<'a> Mlp<'a> {
    fn new(data: &'a MlpData, smm: Arc<Smm<f32>>) -> Self {
        let buf = || {
            MLP_DIMS
                .iter()
                .map(|&(o, _)| vec![0.0f32; o * MLP_MAX_BATCH])
                .collect()
        };
        Mlp {
            data,
            smm,
            out: buf(),
            act: buf(),
        }
    }
}

fn bias_relu(act: &mut [f32], out: &[f32], bias: &[f32]) {
    for (a_col, o_col) in act.chunks_mut(bias.len()).zip(out.chunks(bias.len())) {
        for ((a, &o), &b) in a_col.iter_mut().zip(o_col).zip(bias) {
            *a = (o + b).max(0.0);
        }
    }
}

impl Op for Mlp<'_> {
    fn run(&mut self, i: u64, log: &mut SpanLog) -> bool {
        let b = self.data.batch(i);
        let input = &self.data.inputs[i as usize % MLP_INPUTS];
        for (l, &(o, k)) in MLP_DIMS.iter().enumerate() {
            let (prev, rest) = self.act.split_at_mut(l);
            let x = if l == 0 { &input[..] } else { &prev[l - 1][..] };
            let a = MatRef::from_slice(&self.data.weights[l], o, k, o);
            let xb = MatRef::from_slice(&x[..k * b], k, b, k);
            let y = MatMut::from_slice(&mut self.out[l][..o * b], o, b, o);
            log.span(Kind::CoreGemm, i, || self.smm.gemm(1.0, a, xb, 0.0, y));
            let (act, out, bias) = (
                &mut rest[0][..o * b],
                &self.out[l][..o * b],
                &self.data.biases[l],
            );
            log.span(Kind::BiasRelu, i, || bias_relu(act, out, bias));
        }
        true
    }

    fn check(&mut self, i: u64) -> bool {
        let b = self.data.batch(i);
        let input = &self.data.inputs[i as usize % MLP_INPUTS];
        MLP_DIMS.iter().enumerate().all(|(l, &(o, k))| {
            let x = if l == 0 {
                &input[..]
            } else {
                &self.act[l - 1][..]
            };
            bound_violations(o, b, k, &self.data.weights[l], &x[..k * b], &self.out[l]) == 0
        })
    }

    fn flops(&self, i: u64) -> f64 {
        let b = self.data.batch(i) as f64;
        MLP_DIMS
            .iter()
            .map(|&(o, k)| 2.0 * (o * k) as f64 * b)
            .sum()
    }
}

pub fn mlp_infer(cfg: &RunCfg) -> Outcome {
    let data = MlpData::new(cfg.seed);
    run_closed(cfg, (2 * MLP_MAX_BATCH as u64, 1_000_000_000), |smm| {
        Mlp::new(&data, smm)
    })
}

// --------------------------------------------------------------- tiny_batch

const TINY_BATCH: usize = 64;
const TINY_MAX: usize = 24;
const TINY_VARIANTS: usize = 4;
/// Batch entries verified per checked operation, spread over the batch.
const TINY_CHECKED_ENTRIES: usize = 8;

struct TinyData {
    /// One shape per cell of an 8³ grid over [2, 24]³, in seeded order.
    shapes: Vec<(usize, usize, usize)>,
    a: Vec<Vec<f32>>,
    b: Vec<Vec<f32>>,
}

impl TinyData {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed).fork(2);
        let shapes = jittered_grid(&mut rng, &linear_strata(2, TINY_MAX, 8));
        let len = TINY_BATCH * TINY_MAX * TINY_MAX;
        let a = (0..TINY_VARIANTS).map(|_| rng.values(len)).collect();
        let b = (0..TINY_VARIANTS).map(|_| rng.values(len)).collect();
        TinyData { shapes, a, b }
    }

    fn pick(&self, i: u64) -> ((usize, usize, usize), usize) {
        (
            self.shapes[i as usize % self.shapes.len()],
            (i / self.shapes.len() as u64) as usize % TINY_VARIANTS,
        )
    }
}

struct Tiny<'a> {
    data: &'a TinyData,
    smm: Arc<Smm<f32>>,
    c: Vec<f32>,
}

impl Op for Tiny<'_> {
    fn run(&mut self, i: u64, log: &mut SpanLog) -> bool {
        let ((m, n, k), v) = self.data.pick(i);
        let desc = StridedBatch::dense(m, n, k, TINY_BATCH);
        let (a, b) = (&self.data.a[v], &self.data.b[v]);
        let c = &mut self.c[..TINY_BATCH * m * n];
        log.span(Kind::CoreGemmBatch, i, || {
            self.smm.gemm_batch(&desc, 1.0, a, b, 0.0, c).is_ok()
        })
    }

    fn check(&mut self, i: u64) -> bool {
        let ((m, n, k), v) = self.data.pick(i);
        (0..TINY_BATCH)
            .step_by(TINY_BATCH / TINY_CHECKED_ENTRIES)
            .all(|e| {
                let a = &self.data.a[v][e * m * k..];
                let b = &self.data.b[v][e * k * n..];
                bound_violations(m, n, k, a, b, &self.c[e * m * n..]) == 0
            })
    }

    fn flops(&self, i: u64) -> f64 {
        let ((m, n, k), _) = self.data.pick(i);
        2.0 * (m * n * k * TINY_BATCH) as f64
    }
}

pub fn tiny_batch(cfg: &RunCfg) -> Outcome {
    let data = TinyData::new(cfg.seed);
    run_closed(cfg, (data.shapes.len() as u64, 250_000_000), |smm| Tiny {
        data: &data,
        smm,
        c: vec![0.0; TINY_BATCH * TINY_MAX * TINY_MAX],
    })
}

// -------------------------------------------------------------- shape_churn

const CHURN_MAX: usize = 64;
const CHURN_VARIANTS: usize = 4;
/// Calls warming the plan cache during set-up.
const CHURN_WARM: u64 = 2048;

struct ChurnData {
    /// One shape per cell of a 16³ log-spaced grid over [4, 64]³: 4096
    /// distinct shapes, four times the default 1024-plan cache.
    shapes: Vec<(usize, usize, usize)>,
    /// Uniform draws of a shape index per call.
    picks: Vec<u16>,
    a: Vec<Vec<f32>>,
    b: Vec<Vec<f32>>,
}

impl ChurnData {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed).fork(3);
        let shapes = jittered_grid(&mut rng, &log_strata(4, CHURN_MAX, 16));
        let picks = (0..1 << 20)
            .map(|_| rng.range(0, shapes.len() - 1) as u16)
            .collect();
        let len = CHURN_MAX * CHURN_MAX;
        let a = (0..CHURN_VARIANTS).map(|_| rng.values(len)).collect();
        let b = (0..CHURN_VARIANTS).map(|_| rng.values(len)).collect();
        ChurnData {
            shapes,
            picks,
            a,
            b,
        }
    }

    fn pick(&self, i: u64) -> ((usize, usize, usize), usize) {
        let n = self.picks.len();
        // Warm-up ids draw from the far end of the pick stream.
        let slot = if i >= WARM_BASE {
            n - 1 - (i - WARM_BASE) as usize % n
        } else {
            i as usize % n
        };
        (
            self.shapes[self.picks[slot] as usize],
            i as usize % CHURN_VARIANTS,
        )
    }
}

struct Churn<'a> {
    data: &'a ChurnData,
    smm: Arc<Smm<f32>>,
    c: Vec<f32>,
}

impl Op for Churn<'_> {
    fn run(&mut self, i: u64, log: &mut SpanLog) -> bool {
        let ((m, n, k), v) = self.data.pick(i);
        let a = MatRef::from_slice(&self.data.a[v], m, k, m);
        let b = MatRef::from_slice(&self.data.b[v], k, n, k);
        let c = MatMut::from_slice(&mut self.c, m, n, m);
        log.span(Kind::CoreGemm, i, || self.smm.gemm(1.0, a, b, 0.0, c));
        true
    }

    fn check(&mut self, i: u64) -> bool {
        let ((m, n, k), v) = self.data.pick(i);
        bound_violations(m, n, k, &self.data.a[v], &self.data.b[v], &self.c) == 0
    }

    fn flops(&self, i: u64) -> f64 {
        let ((m, n, k), _) = self.data.pick(i);
        2.0 * (m * n * k) as f64
    }
}

pub fn shape_churn(cfg: &RunCfg) -> Outcome {
    let data = ChurnData::new(cfg.seed);
    run_closed(cfg, (CHURN_WARM, 100_000_000), |smm| Churn {
        data: &data,
        smm,
        c: vec![0.0; CHURN_MAX * CHURN_MAX],
    })
}
