//! Golden files pin every report rendering: text, JSON and Prometheus
//! for a fixed `TelemetryReport` (and a variant with no shapes and no
//! exemplars), the fleet report at 1 and 3 shards, and `ServeStats`.
//!
//! The reports are built from fixed values (no clock reads, no live
//! runtime), so a diff here is always a format or merge change. Text
//! and JSON must match byte for byte. Prometheus is compared as a set
//! of family blocks: each block (its `# HELP`/`# TYPE` header and its
//! samples) must match byte for byte, in any block order.
//!
//! On a mismatch the test writes what it rendered to
//! `target/tmp/golden/<name>`: a deliberate format change is adopted by
//! copying that file over the golden, and the diff of
//! `crates/serve/tests/golden/` then shows the change.

use std::path::PathBuf;

use smm_core::telemetry::NUM_PHASES;
use smm_core::{
    AssembledSpan, CallSite, LatencyHistogram, Phase, PhaseReport, PoolStats, RateReport,
    RuntimeStats, ShapeReport, SiteBreakdown, SpanName, TelemetryReport, TraceExemplar, TunerStats,
};
use smm_gemm::arena::ArenaStats;
use smm_serve::{FleetReport, ServeStats, ShardSection};

/// Compare `got` with the golden file `name`; `normalize` maps both to
/// the compared units. A mismatch leaves the rendering beside the test's
/// scratch files (see the module docs).
fn check(name: &str, got: &str, normalize: fn(&str) -> Vec<String>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let (g, w) = (normalize(got), normalize(&want));
    if g == w {
        return;
    }
    let actual = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&actual).expect("scratch dir");
    std::fs::write(actual.join(name), got).expect("write rendering");
    let at = g.iter().zip(&w).take_while(|(a, b)| a == b).count();
    panic!(
        "{name} differs from its golden at unit {at}:\n  got:  {:?}\n  want: {:?}\n\
         rendering written to {}",
        g.get(at),
        w.get(at),
        actual.join(name).display()
    );
}

/// Byte-exact comparison, line by line (trailing newline included).
fn exact(s: &str) -> Vec<String> {
    s.split_inclusive('\n').map(str::to_string).collect()
}

/// The family blocks of a Prometheus exposition, sorted: a block starts
/// at a `# HELP` line, or at a `# TYPE` line not preceded by its
/// family's `# HELP`.
fn prom_blocks(s: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    let mut after_help = false;
    for line in s.split_inclusive('\n') {
        let starts = line.starts_with("# HELP ") || (line.starts_with("# TYPE ") && !after_help);
        if starts || blocks.is_empty() {
            blocks.push(String::new());
        }
        blocks.last_mut().expect("a block").push_str(line);
        after_help = line.starts_with("# HELP ");
    }
    blocks.sort();
    blocks
}

fn hist(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &ns in samples {
        h.record(ns);
    }
    h
}

fn phases(samples: [&[u64]; NUM_PHASES]) -> Vec<PhaseReport> {
    Phase::ALL
        .iter()
        .zip(samples)
        .map(|(&phase, s)| PhaseReport {
            phase,
            histogram: hist(s),
        })
        .collect()
}

/// A site row whose shares follow from its phase totals, as a live
/// snapshot computes them.
fn site(site: CallSite, calls: u64, phase_ns: [u64; NUM_PHASES]) -> SiteBreakdown {
    let at = |p: Phase| phase_ns[Phase::ALL.iter().position(|&q| q == p).unwrap()];
    let pack = at(Phase::PackA) + at(Phase::PackB);
    let total = (pack + at(Phase::Compute) + at(Phase::Sync)) as f64;
    let pct = |x: u64| {
        if total > 0.0 {
            x as f64 / total * 100.0
        } else {
            0.0
        }
    };
    SiteBreakdown {
        site,
        calls,
        phase_ns,
        pack_pct: pct(pack),
        compute_pct: pct(at(Phase::Compute)),
        sync_pct: pct(at(Phase::Sync)),
    }
}

/// A shape row whose rates follow from its counts; the model figures
/// are fixed per shape.
fn shape(m: usize, n: usize, k: usize, calls: u64, total_ns: u64, predicted: f64) -> ShapeReport {
    let achieved = 2.0 * m as f64 * n as f64 * k as f64 * calls as f64 / total_ns as f64;
    ShapeReport {
        m,
        n,
        k,
        elem_bytes: 4,
        calls,
        total_ns,
        achieved_gflops: achieved,
        predicted_gflops: predicted,
        model_fraction: achieved / predicted,
        p2c: 2.0 / (m.min(n) as f64),
    }
}

fn span(name: SpanName, trace: u64, id: u64, parent: u64, start: u64, dur: u64) -> AssembledSpan {
    AssembledSpan {
        trace,
        span: id,
        parent,
        name,
        start_ns: start,
        dur_ns: dur,
        tid: (id % 3) as u32,
        arg: id * 10,
    }
}

/// A served request's span tree: the member and reply spans parent
/// under a coalesced-batch span of another trace (`batch`), the rest
/// nest inside the request.
fn exemplar(trace: u64, total_ns: u64, label: &str, batch: u64) -> TraceExemplar {
    let s = trace * 100;
    TraceExemplar {
        trace,
        total_ns,
        label: label.to_string(),
        spans: vec![
            span(SpanName::Request, trace, s + 1, 0, 0, total_ns),
            span(SpanName::Admission, trace, s + 2, s + 1, 100, 900),
            span(SpanName::Member, trace, s + 3, batch, 40_000, 9_000),
            span(SpanName::GemmBatch, trace, s + 4, s + 3, 41_000, 6_000),
            span(SpanName::Worker, trace, s + 5, s + 4, 41_500, 4_800),
            span(SpanName::Reply, trace, s + 6, batch, 49_000, 1_000),
        ],
    }
}

/// Every phase (dispatch and coalesce empty), every site, three shapes,
/// two exemplars, and non-zero rate and tuner sections.
fn report() -> TelemetryReport {
    TelemetryReport {
        enabled: true,
        runtime: RuntimeStats {
            plan_hits: 1_180,
            plan_misses: 12,
            plan_evictions: 1,
            cached_plans: 11,
            pool_workers: 2,
        },
        pool: PoolStats {
            workers: 2,
            queue_highwater: 5,
            worker_wakeups: 310,
            worker_tasks: 1_204,
            inline_drained: 96,
            park_ns: 81_250_000,
            scoped_calls: 402,
        },
        arena: ArenaStats {
            hits: 4,
            misses: 20,
            alloc_bytes: 11_824,
        },
        phases: phases([
            &[80, 95, 120, 2_300],
            &[400, 650],
            &[900, 910, 4_000],
            &[250, 3_000, 3_500, 12_000],
            &[],
            &[150, 160],
            &[20_000, 45_000, 1_000_000],
            &[],
            &[700, 1_400],
        ]),
        sites: vec![
            site(
                CallSite::Gemm,
                40,
                [2_595, 1_050, 5_810, 18_750, 0, 0, 0, 0, 0],
            ),
            site(CallSite::GemmBatch, 9, [0, 0, 0, 4_000, 0, 310, 0, 0, 0]),
            site(CallSite::Direct, 2, [0, 0, 0, 900, 0, 0, 0, 0, 0]),
            site(CallSite::Serve, 3, [0, 0, 0, 0, 0, 0, 1_065_000, 0, 2_100]),
        ],
        shapes: vec![
            shape(8, 8, 8, 96, 240_000, 12.8),
            shape(16, 4, 64, 30, 1_500_000, 9.6),
            shape(3, 17, 5, 7, 70_000, 4.0),
        ],
        packed_bytes: 12_288,
        flops: 49_152,
        observed_p2c: 0.25,
        rate: RateReport {
            window_secs: 8.0,
            covered_secs: 6.5,
            req_per_sec: 1_234.5,
            gflops_per_sec: 0.75,
            mean_ns: 41_000,
            p99_now_ns: 131_071,
            p99_trend_ns_per_sec: -12.5,
            live_slots: 7,
        },
        slow: vec![
            exemplar(7, 1_250_000, "serve 8x8x8", 50),
            exemplar(9, 640_000, "serve \"16x4x64\" \\ pinned", 51),
        ],
        dropped_shapes: 3,
        tuner: TunerStats {
            db_entries: 216,
            db_hits: 40,
            nn_matches: 5,
            online_refines: 2,
            untuned_builds: 1,
            pending_deltas: 2,
            persisted_deltas: 3,
        },
    }
}

/// [`report`] with no shape rows and no exemplars.
fn report_without_rows() -> TelemetryReport {
    let mut r = report();
    r.shapes.clear();
    r.slow.clear();
    r
}

/// A second shard: one shape shared with [`report`], one of its own,
/// different counters, and the same process-wide arena reading.
fn report_b() -> TelemetryReport {
    let mut r = report();
    r.runtime.plan_hits = 610;
    r.runtime.plan_misses = 4;
    r.runtime.cached_plans = 4;
    r.pool.queue_highwater = 9;
    r.pool.worker_wakeups = 120;
    r.phases = phases([
        &[60, 70],
        &[300],
        &[],
        &[2_000, 2_500],
        &[5_000],
        &[90],
        &[30_000],
        &[100_000],
        &[500],
    ]);
    r.sites = vec![
        site(CallSite::Gemm, 12, [130, 300, 0, 4_500, 0, 0, 0, 0, 0]),
        site(CallSite::GemmBatch, 0, [0; NUM_PHASES]),
        site(CallSite::Direct, 0, [0; NUM_PHASES]),
        site(
            CallSite::Serve,
            2,
            [0, 0, 0, 0, 5_000, 90, 30_000, 100_000, 500],
        ),
    ];
    r.shapes = vec![
        shape(8, 8, 8, 40, 180_000, 12.8),
        shape(32, 12, 16, 5, 90_000, 20.0),
    ];
    r.packed_bytes = 4_096;
    r.flops = 32_768;
    r.observed_p2c = 0.125;
    r.rate = RateReport {
        window_secs: 8.0,
        covered_secs: 7.25,
        req_per_sec: 500.0,
        gflops_per_sec: 0.25,
        mean_ns: 60_000,
        p99_now_ns: 262_143,
        p99_trend_ns_per_sec: 4.0,
        live_slots: 8,
    };
    r.slow = vec![
        exemplar(3, 2_000_000, "serve 32x12x16", 60),
        exemplar(5, 700_000, "serve 8x8x8", 61),
    ];
    r.dropped_shapes = 0;
    r.tuner.db_hits = 7;
    r
}

/// A third, nearly idle shard.
fn report_c() -> TelemetryReport {
    let mut r = report_without_rows();
    r.runtime.plan_hits = 3;
    r.runtime.plan_misses = 1;
    r.phases = phases([&[], &[], &[], &[1_000], &[], &[], &[], &[], &[]]);
    r.sites = vec![
        site(CallSite::Gemm, 1, [0, 0, 0, 1_000, 0, 0, 0, 0, 0]),
        site(CallSite::GemmBatch, 0, [0; NUM_PHASES]),
        site(CallSite::Direct, 0, [0; NUM_PHASES]),
        site(CallSite::Serve, 0, [0; NUM_PHASES]),
    ];
    r.shapes = vec![shape(4, 4, 4, 1, 1_000, 3.2)];
    r.packed_bytes = 0;
    r.flops = 16_384;
    r.observed_p2c = 0.0;
    r.rate = RateReport {
        window_secs: 8.0,
        ..RateReport::default()
    };
    r.slow = vec![
        exemplar(11, 900_000, "serve 4x4x4", 70),
        exemplar(13, 300_000, "serve 4x4x4", 71),
    ];
    r.dropped_shapes = 1;
    r
}

fn serve_stats(seed: u64) -> ServeStats {
    ServeStats {
        submitted: 100 + seed,
        completed: 96 + seed,
        rejected_queue_full: seed,
        rejected_shutdown: 1,
        expired: 2,
        batches: 40 + seed,
        coalesced_max: 6 + seed,
        queue_depth: 2 + seed as usize,
        prewarmed: 8,
        stolen: 3 * seed,
        spilled: 2 * seed,
    }
}

/// The fleet view of these shards, merged the way `gather_fleet`
/// merges live ones.
fn fleet(telemetry: Vec<TelemetryReport>) -> FleetReport {
    let shards: Vec<ShardSection> = telemetry
        .into_iter()
        .enumerate()
        .map(|(i, t)| ShardSection {
            shard: i,
            panel: smm_serve::shard_panel(i),
            serve: serve_stats(i as u64),
            telemetry: t,
        })
        .collect();
    let mut serve = ServeStats::default();
    for s in &shards {
        serve.absorb(&s.serve);
    }
    let mut merged = shards[0].telemetry.clone();
    for s in &shards[1..] {
        merged.absorb(&s.telemetry);
    }
    FleetReport {
        shards,
        serve,
        telemetry: merged,
    }
}

#[test]
fn telemetry_report_renderings_match_goldens() {
    let r = report();
    check("telemetry.txt", &r.to_string(), exact);
    check("telemetry.json", &r.to_json(), exact);
    check("telemetry.prom", &r.to_prometheus(), prom_blocks);
}

#[test]
fn telemetry_report_without_rows_matches_goldens() {
    let r = report_without_rows();
    check("telemetry_without_rows.txt", &r.to_string(), exact);
    check("telemetry_without_rows.json", &r.to_json(), exact);
    check(
        "telemetry_without_rows.prom",
        &r.to_prometheus(),
        prom_blocks,
    );
}

#[test]
fn one_shard_fleet_matches_goldens() {
    let f = fleet(vec![report()]);
    check("fleet1.txt", &f.to_string(), exact);
    check("fleet1.json", &f.to_json(), exact);
    check("fleet1.prom", &f.to_prometheus(), prom_blocks);
}

#[test]
fn three_shard_fleet_matches_goldens() {
    let f = fleet(vec![report(), report_b(), report_c()]);
    check("fleet3.txt", &f.to_string(), exact);
    check("fleet3.json", &f.to_json(), exact);
    check("fleet3.prom", &f.to_prometheus(), prom_blocks);
}

#[test]
fn serve_stats_display_matches_golden() {
    check("serve_stats.txt", &format!("{}\n", serve_stats(3)), exact);
}
