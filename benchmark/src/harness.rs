//! The measurement harness shared by the workloads: the clock, the
//! closed loop, repeated set-up, process memory, and the layer counters
//! read around a timed phase.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smm_core::telemetry::NUM_PHASES;
use smm_core::{CallSite, Phase, Smm, TelemetryReport};
use smm_gemm::arena::ArenaStats;

use crate::stats::Windows;
use crate::trace::{Kind, SpanLog};

/// The benchmark's one clock read: every timing goes through here.
pub fn now() -> Instant {
    // lint:allow(instant-now) -- the benchmark times calls into the library from outside; this is its single clock
    Instant::now()
}

/// A named value with its unit, as printed and as stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// Settings of one workload run, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Measured time of the run, in seconds.
    pub seconds: f64,
    /// Telemetry, library tracing and benchmark spans on.
    pub traced: bool,
    /// Times the runtime is set up; the median is `setup_s`.
    pub setup_reps: usize,
}

/// What one workload run measured.
pub struct Outcome {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    /// Samples behind each latency quantile (per window, when windowed).
    pub latency_samples: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Extra lines printed for this workload (not part of the result
    /// object): per-phase detail, Gflop/s, sample counts.
    pub extra: Vec<Metric>,
    /// Per-layer counters of the timed phase.
    pub counters: Vec<Metric>,
    /// The library's own phase telemetry (traced runs).
    pub telemetry: Option<TelemetryReport>,
    pub spans: Option<SpanLog>,
    /// Lower-is-better cost of the workload's main metric, used for the
    /// cost of tracing: seconds per op, or the latency median.
    pub cost: f64,
}

/// A clock that stops while outputs are checked, so checking costs
/// wall time but never measured time.
pub struct ActiveClock {
    start: Instant,
    paused: Duration,
}

impl ActiveClock {
    pub fn start() -> Self {
        ActiveClock {
            start: now(),
            paused: Duration::ZERO,
        }
    }

    /// Measured nanoseconds since start, check time excluded.
    pub fn ns(&self) -> u64 {
        (self.start.elapsed() - self.paused).as_nanos() as u64
    }

    pub fn excluding<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = now();
        let r = f();
        self.paused += t.elapsed();
        r
    }
}

/// One closed-loop workload: an operation run back to back.
pub trait Op {
    /// Run operation `i` (timed), recording its layer spans; false when
    /// the library refused it.
    fn run(&mut self, i: u64, log: &mut SpanLog) -> bool;
    /// Check operation `i`'s outputs (untimed); true when all correct.
    fn check(&mut self, i: u64) -> bool;
    /// Useful flops of operation `i`.
    fn flops(&self, i: u64) -> f64;
}

/// Operations between two checked ones in the timed phase.
pub const CHECK_EVERY: u64 = 64;

pub struct LoopStats {
    pub windows: Windows,
    /// Measured time of the loop.
    pub span_ns: u64,
    pub ops: u64,
    pub failed: u64,
}

/// Run `op` back to back for `seconds` of measured time, one caller,
/// checking one operation in [`CHECK_EVERY`] outside the clock. Each
/// operation lands in a window of `window_ns`.
pub fn closed_loop(seconds: f64, window_ns: u64, op: &mut impl Op, log: &mut SpanLog) -> LoopStats {
    let budget = (seconds * 1e9) as u64;
    let mut windows = Windows::new(window_ns);
    let mut failed = 0;
    let mut clock = ActiveClock::start();
    let mut i = 0;
    loop {
        let t0 = clock.ns();
        if t0 >= budget {
            break;
        }
        let s0 = log.mark();
        let ran = op.run(i, log);
        log.close(Kind::Op, i, s0);
        windows.record(t0, clock.ns());
        let checked = i % CHECK_EVERY == CHECK_EVERY - 1;
        if !ran || (checked && !clock.excluding(|| op.check(i))) {
            failed += 1;
        }
        i += 1;
    }
    LoopStats {
        windows,
        span_ns: clock.ns(),
        ops: i,
        failed,
    }
}

/// Build a runtime `reps` times and return the last one with the median
/// build time in seconds. `build` reports its own measured seconds so
/// it can leave input checks out of the set-up time.
pub fn repeated_setup<T>(reps: usize, mut build: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // The previous runtime shuts down before the next is built.
        drop(last.take());
        let (rt, secs) = build();
        times.push(secs);
        last = Some(rt);
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Layer counters read before and after a timed phase.
#[derive(Clone, Copy)]
pub struct Snapshot {
    arena: ArenaStats,
    hits: u64,
    misses: u64,
    evictions: u64,
    serve: smm_serve::ServeStats,
}

impl Snapshot {
    pub fn take(smms: &[Arc<Smm<f32>>], serve: smm_serve::ServeStats) -> Self {
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        for s in smms.iter().map(|smm| smm.stats()) {
            hits += s.plan_hits;
            misses += s.plan_misses;
            evictions += s.plan_evictions;
        }
        Snapshot {
            arena: smm_gemm::arena::stats(),
            hits,
            misses,
            evictions,
            serve,
        }
    }
}

/// The per-layer counters of a timed phase of `ops` operations over
/// `seconds` of measured time; packing figures come from the library
/// telemetry when it was recording.
pub fn layer_counters(
    before: &Snapshot,
    after: &Snapshot,
    ops: u64,
    seconds: f64,
    telemetry: Option<&TelemetryReport>,
) -> Vec<Metric> {
    let per_op = |x: u64| x as f64 / ops.max(1) as f64;
    let per_s = |x: u64| x as f64 / seconds.max(1e-9);
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let arena_hits = after.arena.hits - before.arena.hits;
    let arena_all = arena_hits + after.arena.misses - before.arena.misses;
    let (s0, s1) = (&before.serve, &after.serve);
    let pack_share = telemetry.map_or(0.0, |r| shares(r, &[CallSite::Gemm, CallSite::GemmBatch]).0);
    vec![
        metric("core.pack_share_pct", pack_share, "%"),
        metric(
            "core.observed_p2c",
            telemetry.map_or(0.0, |r| r.observed_p2c),
            "ratio",
        ),
        metric(
            "core.plan_hit_ratio",
            ratio(after.hits - before.hits, lookups),
            "ratio",
        ),
        metric(
            "core.plan_evictions_per_op",
            per_op(after.evictions - before.evictions),
            "count/op",
        ),
        metric(
            "gemm.arena_hit_ratio",
            ratio(arena_hits, arena_all),
            "ratio",
        ),
        metric(
            "gemm.arena_alloc_bytes_per_op",
            per_op(after.arena.alloc_bytes - before.arena.alloc_bytes),
            "B/op",
        ),
        metric(
            "serve.coalescing_factor",
            ratio(s1.completed - s0.completed, s1.batches - s0.batches),
            "ratio",
        ),
        metric("serve.batches_per_s", per_s(s1.batches - s0.batches), "1/s"),
        metric("serve.stolen_per_s", per_s(s1.stolen - s0.stolen), "1/s"),
        metric("serve.spilled_per_s", per_s(s1.spilled - s0.spilled), "1/s"),
    ]
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The Table-II split of the library's phase time at `sites`, in
/// percent: `(pack, dispatch, sync)`. Pack and sync are shares of
/// pack + compute + sync; dispatch is a share of all phase time.
pub fn shares(report: &TelemetryReport, sites: &[CallSite]) -> (f64, f64, f64) {
    let mut ns = [0u64; NUM_PHASES];
    for &site in sites {
        for (acc, v) in ns.iter_mut().zip(report.site(site).phase_ns) {
            *acc += v;
        }
    }
    let at = |p: Phase| ns[Phase::ALL.iter().position(|&q| q == p).expect("phase")];
    let pack = at(Phase::PackA) + at(Phase::PackB);
    let table2 = pack + at(Phase::Compute) + at(Phase::Sync);
    let all = table2 + at(Phase::Dispatch) + at(Phase::PlanLookup);
    (
        100.0 * ratio(pack, table2),
        100.0 * ratio(at(Phase::Dispatch), all),
        100.0 * ratio(at(Phase::Sync), table2),
    )
}

/// Merged telemetry of a set of runtimes (when they recorded any).
pub fn merged_telemetry(smms: &[Arc<Smm<f32>>]) -> Option<TelemetryReport> {
    let mut reports = smms.iter().map(|s| s.stats_report()).filter(|r| r.enabled);
    let mut first = reports.next()?;
    for r in reports {
        first.absorb(&r);
    }
    Some(first)
}
