//! `tune_sweep`: the offline tuning stage (`smm-tune sweep`) over its
//! geometric grid on [4, 64] with four sizes per axis (64 shapes), in
//! seeded order on one thread, cycling until the time is up. It runs only the
//! model, the simulator, trace generation and plan building — no native
//! arithmetic, no pool, no serving — so a simulator change shows here
//! alone and a native-path change must leave it flat.
//!
//! The shape set is the sweep's own and the same for every seed, so the
//! cost mix of a run does not depend on the seed; the seed orders the
//! shapes and draws the operands the winners are checked on.
//!
//! Tuning a shape is deterministic work and a run tunes each shape about
//! five times, so the metrics are taken over the shapes, each at its
//! fastest tuning of the run: a neighbour slowing the core for a while
//! then shifts no shape whose other tunings ran undisturbed. The rate is
//! the grid's shapes over the sum of their fastest tunings — one sweep
//! of the grid — so it does not depend on the order a seed draws.

use std::collections::BTreeMap;

use smm_core::{
    execute_in, tune_shape, PlanConfig, PlanDb, PlanEntry, SmmPlan, SweepGrid, VectorIsa,
};
use smm_gemm::matrix::{MatMut, MatRef};
use smm_gemm::TaskPool;

use crate::harness::{
    layer_counters, metric, repeated_setup, ActiveClock, Outcome, RunCfg, Snapshot,
};
use crate::stats::{bound_violations, quantile, sorted, Rng};
use crate::trace::{Kind, SpanLog};

/// The `smm-tune sweep` grid range, four sizes per axis (64 shapes):
/// a run on one thread tunes each shape about five times.
const MIN_DIM: usize = 4;
const MAX_DIM: usize = 64;
const POINTS: usize = 4;
/// Shapes tuned during each set-up: fixed, so set-up does the same
/// work for every seed.
const WARM_SHAPES: [(usize, usize, usize); 4] = [(9, 9, 9), (15, 9, 27), (27, 15, 9), (24, 24, 24)];

/// A shape's tuning outcome and its fastest tuning in the run.
struct Tuned {
    entry: PlanEntry,
    plan: SmmPlan,
    best_ns: u64,
}

pub fn tune_sweep(cfg: &RunCfg) -> Outcome {
    let mut rng = Rng::new(cfg.seed).fork(4);
    let mut shapes = SweepGrid::geometric(MIN_DIM, MAX_DIM, POINTS).shapes();
    rng.shuffle(&mut shapes);
    let a = rng.values(MAX_DIM * MAX_DIM);
    let b = rng.values(MAX_DIM * MAX_DIM);
    let check = |plan: &SmmPlan| {
        let (m, n, k) = (plan.m, plan.n, plan.k);
        let mut c = vec![0.0f32; m * n];
        execute_in(
            TaskPool::global(),
            plan,
            1.0,
            MatRef::from_slice(&a, m, k, m),
            MatRef::from_slice(&b, k, n, k),
            0.0,
            MatMut::from_slice(&mut c, m, n, m),
        );
        bound_violations(m, n, k, &a, &b, &c) == 0
    };

    // The sweep's configuration: the paper's NEON-128 ISA, one thread
    // per plan (as `smm-tune sweep` builds it).
    let (mut warm_attempted, mut warm_failed) = (0u64, 0u64);
    let (plan_cfg, setup_s) = repeated_setup(cfg.setup_reps, || {
        let mut clock = ActiveClock::start();
        let plan_cfg = PlanConfig::default();
        for &(m, n, k) in &WARM_SHAPES {
            let tuned = tune_shape(m, n, k, &plan_cfg);
            warm_attempted += 1;
            warm_failed += u64::from(!clock.excluding(|| check(&tuned.plan)));
        }
        (plan_cfg, clock.ns() as f64 / 1e9)
    });

    let budget = (cfg.seconds * 1e9) as u64;
    let mut log = if cfg.traced {
        SpanLog::new(crate::harness::now(), 0, 1 << 12)
    } else {
        SpanLog::disabled()
    };
    let mut winners: BTreeMap<(usize, usize, usize), Tuned> = BTreeMap::new();
    let before = Snapshot::take(&[], Default::default());
    let clock = ActiveClock::start();
    let mut op = 0u64;
    while clock.ns() < budget {
        let (m, n, k) = shapes[op as usize % shapes.len()];
        let t0 = clock.ns();
        let s0 = log.mark();
        let tuned = log.span(Kind::TuneShape, op, || tune_shape(m, n, k, &plan_cfg));
        log.close(Kind::Op, op, s0);
        let t1 = clock.ns();
        // The first outcome per shape, and its fastest tuning.
        winners
            .entry((m, n, k))
            .and_modify(|t| t.best_ns = t.best_ns.min(t1 - t0))
            .or_insert_with(|| Tuned {
                entry: tuned.to_entry(4, false),
                plan: tuned.plan,
                best_ns: t1 - t0,
            });
        op += 1;
    }
    let span_ns = clock.ns();
    let after = Snapshot::take(&[], Default::default());

    let ops = op;
    // Every distinct winner runs once natively against the oracle, and
    // the winners must form a valid plan database.
    let wrong = winners.values().filter(|t| !check(&t.plan)).count() as u64;
    let entries: Vec<PlanEntry> = winners.values().map(|t| t.entry.clone()).collect();
    let db_ok = PlanDb::from_entries(VectorIsa::neon128(), entries).is_ok();

    let span_s = span_ns as f64 / 1e9;
    let per_shape_us = sorted(winners.values().map(|t| t.best_ns as f64 / 1e3).collect());
    let rate = per_shape_us.len() as f64 / (per_shape_us.iter().sum::<f64>() / 1e6);
    Outcome {
        setup_s,
        ops_per_s: rate,
        latency_p50_us: quantile(&per_shape_us, 0.5),
        latency_p99_us: quantile(&per_shape_us, 0.99),
        latency_samples: per_shape_us.len() as u64,
        attempted: warm_attempted + ops + 1,
        failed: warm_failed + wrong + u64::from(!db_ok),
        extra: vec![
            metric("ops", ops as f64, "count"),
            metric("distinct_shapes_tuned", winners.len() as f64, "count"),
            metric("ops_per_s_whole_run", ops as f64 / span_s, "op/s"),
        ],
        counters: layer_counters(&before, &after, ops, span_s, None),
        telemetry: None,
        spans: cfg.traced.then_some(log),
        cost: 1.0 / rate,
    }
}
