//! Runtime throughput: pooled dispatch vs spawn-per-call.
//!
//! The §III-D finding is that thread startup dominates small-shape
//! parallel GEMM. This bin quantifies the fix: the persistent-pool
//! runtime is driven with many small GEMMs — batched, single-call
//! multi-threaded, and from concurrent caller threads — against a
//! spawn-per-call baseline doing the identical arithmetic with fresh
//! `std::thread::scope` threads (and a private-block merge pass) on
//! every call.
//!
//! Results land in `BENCH_throughput.json`: per-shape Gflops with
//! p50/p99 call latency, the pooled-vs-spawn speedups, and the
//! steady-state arena counters. The arena gates run at the end: calls
//! whose plans pack nothing check no buffer out, and over a window
//! that includes a packing GEMM the arena hit rate is ≥ 99% with zero
//! bytes allocated after warm-up — so a packing-path regression fails
//! the bench (and the CI perf-smoke job) rather than silently eating
//! the win back.

use std::sync::Arc;
use std::time::Instant;

use smm_core::{PlanConfig, Smm, SmmPlan};
use smm_gemm::arena;
use smm_gemm::matrix::{Mat, MatMut, MatRef};
use smm_gemm::parallel::split_ranges;

const THREADS: usize = 4;

/// One benched workload for the JSON report.
struct ShapeRecord {
    label: String,
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    gflops: f64,
    p50_us: f64,
    p99_us: f64,
    speedup_vs_spawn: f64,
}

/// Per-call latency samples of `f` (seconds), after a short warmup.
fn sample_calls(iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// (p50, p99) of a sample set, by sorting.
fn quantiles(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    (at(0.50), at(0.99))
}

/// Wall-time one closure: short warmup, then the best of 5 timed
/// blocks of `iters` runs (minimum rejects scheduler noise).
fn time_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

fn report(label: &str, per_call: f64, flops_per_call: f64) {
    println!(
        "  {label:<44} {:>10.2} us/call {:>9.2} GFLOP/s",
        per_call * 1e6,
        flops_per_call / per_call / 1e9
    );
}

/// Spawn-per-call baseline for a batch: the same round-robin entry
/// distribution `gemm_batch` uses, but on threads created per call.
type Entry<'x> = (&'x Mat<f32>, &'x Mat<f32>, &'x mut Mat<f32>);

fn batch_spawn_per_call(plan: &SmmPlan, a: &[Mat<f32>], b: &[Mat<f32>], c: &mut [Mat<f32>]) {
    let mut groups: Vec<Vec<Entry<'_>>> = (0..THREADS).map(|_| Vec::new()).collect();
    for (i, ci) in c.iter_mut().enumerate() {
        groups[i % THREADS].push((&a[i], &b[i], ci));
    }
    std::thread::scope(|s| {
        for group in groups {
            s.spawn(move || {
                for (ai, bi, ci) in group {
                    let pool = smm_gemm::TaskPool::global();
                    smm_core::execute_in(
                        pool,
                        plan,
                        1.0,
                        ai.as_ref(),
                        bi.as_ref(),
                        0.0,
                        ci.as_mut(),
                    );
                }
            });
        }
    });
}

/// Spawn-per-call baseline for one multi-threaded GEMM: the historical
/// executor shape — an `m_ways x n_ways` block grid, one fresh thread
/// per cell, private accumulators merged after the join.
fn gemm_spawn_per_call(
    chunk_plans: &[Vec<Arc<SmmPlan>>],
    rows: &[(usize, usize)],
    cols: &[(usize, usize)],
    a: MatRef<'_, f32>,
    b: MatRef<'_, f32>,
    mut c: MatMut<'_, f32>,
) {
    let k = a.cols();
    let mut cells = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (ri, &(i0, mt)) in rows.iter().enumerate() {
            for (ci, &(j0, nt)) in cols.iter().enumerate() {
                if mt == 0 || nt == 0 {
                    continue;
                }
                let plan = Arc::clone(&chunk_plans[ri][ci]);
                let a_blk = a.block(i0, 0, mt, k);
                let b_blk = b.block(0, j0, k, nt);
                handles.push(s.spawn(move || {
                    let mut local = Mat::<f32>::zeros(mt, nt);
                    let pool = smm_gemm::TaskPool::global();
                    smm_core::execute_in(pool, &plan, 1.0, a_blk, b_blk, 0.0, local.as_mut());
                    (i0, j0, local)
                }));
            }
        }
        for h in handles {
            cells.push(h.join().unwrap());
        }
    });
    for (i0, j0, local) in cells {
        for j in 0..local.cols() {
            for i in 0..local.rows() {
                let v = c.at(i0 + i, j0 + j) + local[(i, j)];
                c.set(i0 + i, j0 + j, v);
            }
        }
    }
}

fn batch_section(records: &mut Vec<ShapeRecord>) {
    println!("batched small GEMMs ({THREADS} threads, batch of 64):");
    for &(m, n, k) in &[(8usize, 8usize, 8usize), (16, 16, 16), (24, 24, 24)] {
        let batch = 64;
        let flops = (2.0 * m as f64 * n as f64 * k as f64) * batch as f64;
        let a: Vec<Mat<f32>> = (0..batch).map(|i| Mat::random(m, k, i as u64)).collect();
        let b: Vec<Mat<f32>> = (0..batch)
            .map(|i| Mat::random(k, n, 100 + i as u64))
            .collect();

        let smm = Smm::<f32>::builder().threads(THREADS).build();
        let desc = smm_core::StridedBatch::dense(m, n, k, batch);
        let a_flat: Vec<f32> = a.iter().flat_map(|x| x.data().to_vec()).collect();
        let b_flat: Vec<f32> = b.iter().flat_map(|x| x.data().to_vec()).collect();
        let mut c_flat = vec![0.0f32; batch * desc.stride_c];
        let pooled = time_per_call(300, || {
            smm.gemm_batch(&desc, 1.0, &a_flat, &b_flat, 0.0, &mut c_flat)
                .unwrap();
        });

        let plan = Arc::new(SmmPlan::build(m, n, k, &PlanConfig::default()));
        let mut c_mats: Vec<Mat<f32>> = (0..batch).map(|_| Mat::zeros(m, n)).collect();
        let spawned = time_per_call(300, || {
            batch_spawn_per_call(&plan, &a, &b, &mut c_mats);
        });

        report(
            &format!("{m}x{n}x{k} x{batch}  pooled (gemm_batch)"),
            pooled,
            flops,
        );
        report(
            &format!("{m}x{n}x{k} x{batch}  spawn-per-call"),
            spawned,
            flops,
        );
        println!("    -> pool speedup {:.2}x", spawned / pooled);

        let mut samples = sample_calls(300, || {
            smm.gemm_batch(&desc, 1.0, &a_flat, &b_flat, 0.0, &mut c_flat)
                .unwrap();
        });
        let (p50, p99) = quantiles(&mut samples);
        records.push(ShapeRecord {
            label: format!("batch_{m}x{n}x{k}x{batch}"),
            m,
            n,
            k,
            batch,
            gflops: flops / p50 / 1e9,
            p50_us: p50 * 1e6,
            p99_us: p99 * 1e6,
            speedup_vs_spawn: spawned / pooled,
        });
    }
}

fn single_gemm_section(records: &mut Vec<ShapeRecord>) {
    println!("\nsingle multi-threaded GEMM ({THREADS} threads):");
    for &(m, n, k) in &[(64usize, 64usize, 64usize), (96, 96, 48)] {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let a = Mat::<f32>::random(m, k, 7);
        let b = Mat::<f32>::random(k, n, 8);
        let mut c = Mat::<f32>::zeros(m, n);

        let smm = Smm::<f32>::builder().threads(THREADS).build();
        let pooled = time_per_call(2000, || {
            smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        });

        // Pre-plan every grid cell so the baseline pays only for the
        // thread spawns, not for planning.
        let grid = {
            let p = SmmPlan::build(
                m,
                n,
                k,
                &PlanConfig {
                    max_threads: THREADS,
                    ..Default::default()
                },
            );
            (p.grid.m_ways(), p.grid.n_ways())
        };
        let rows = split_ranges(m, grid.0);
        let cols = split_ranges(n, grid.1);
        let cfg1 = PlanConfig::default();
        let chunk_plans: Vec<Vec<Arc<SmmPlan>>> = rows
            .iter()
            .map(|&(_, mt)| {
                cols.iter()
                    .map(|&(_, nt)| Arc::new(SmmPlan::build(mt, nt, k, &cfg1)))
                    .collect()
            })
            .collect();
        let spawned = time_per_call(2000, || {
            gemm_spawn_per_call(
                &chunk_plans,
                &rows,
                &cols,
                a.as_ref(),
                b.as_ref(),
                c.as_mut(),
            );
        });

        report(&format!("{m}x{n}x{k}  pooled (Smm::gemm)"), pooled, flops);
        report(&format!("{m}x{n}x{k}  spawn-per-call"), spawned, flops);
        println!("    -> pool speedup {:.2}x", spawned / pooled);

        let mut samples = sample_calls(1000, || {
            smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        });
        let (p50, p99) = quantiles(&mut samples);
        records.push(ShapeRecord {
            label: format!("gemm_{m}x{n}x{k}"),
            m,
            n,
            k,
            batch: 1,
            gflops: flops / p50 / 1e9,
            p50_us: p50 * 1e6,
            p99_us: p99 * 1e6,
            speedup_vs_spawn: spawned / pooled,
        });
    }
}

fn concurrent_callers_section() {
    println!("\nconcurrent callers (8 caller threads, shared Smm, 13x7x21):");
    let (m, n, k) = (13usize, 7usize, 21usize);
    let callers = 8;
    let per_caller = 2000;
    let flops = 2.0 * (m * n * k) as f64 * (callers * per_caller) as f64;

    let smm = Arc::new(Smm::<f32>::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..callers {
            let smm = Arc::clone(&smm);
            s.spawn(move || {
                let a = Mat::<f32>::random(m, k, t as u64);
                let b = Mat::<f32>::random(k, n, 50 + t as u64);
                let mut c = Mat::<f32>::zeros(m, n);
                for _ in 0..per_caller {
                    smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
                }
            });
        }
    });
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "  {:<44} {:>10.2} ns/gemm {:>9.2} GFLOP/s aggregate",
        "sharded cache, shared-lock hit path",
        dt * 1e9 / (callers * per_caller) as f64,
        flops / dt / 1e9
    );
    let stats = smm.stats();
    println!(
        "  runtime stats: {} hits / {} misses / {} evictions, {} resident, {} pool workers",
        stats.plan_hits,
        stats.plan_misses,
        stats.plan_evictions,
        stats.cached_plans,
        stats.pool_workers
    );
}

/// Telemetry cost and payoff: the identical batched workload on two
/// runtimes differing only in the `SmmBuilder::telemetry` toggle. The
/// enabled path must stay within the ISSUE's <5% throughput budget;
/// the report it buys is printed so every `BENCH_*` run carries the
/// paper-style pack/compute/sync breakdown.
fn telemetry_section() {
    println!("\ntelemetry overhead (gemm_batch 8x8x8 x64, {THREADS} threads):");
    let (m, n, k, batch) = (8usize, 8usize, 8usize, 64usize);
    let desc = smm_core::StridedBatch::dense(m, n, k, batch);
    let a: Vec<f32> = Mat::<f32>::random(m * batch, k, 5).data().to_vec();
    let b: Vec<f32> = Mat::<f32>::random(k * batch, n, 6).data().to_vec();
    let mut c = vec![0.0f32; batch * desc.stride_c];

    let enabled = Smm::<f32>::builder().threads(THREADS).build();
    let disabled = Smm::<f32>::builder()
        .threads(THREADS)
        .telemetry(false)
        .build();
    // Interleave the two configurations in short alternating blocks so
    // machine noise (neighbors, frequency shifts) hits both equally;
    // the per-config minimum over all blocks rejects what remains.
    let mut measure = |enabled_smm: &Smm<f32>, disabled_smm: &Smm<f32>| {
        let iters = 100;
        let (mut t_on, mut t_off) = (f64::INFINITY, f64::INFINITY);
        for round in 0..24 {
            for half in 0..2 {
                let on_turn = (round + half) % 2 == 0;
                let smm = if on_turn { enabled_smm } else { disabled_smm };
                for _ in 0..iters / 10 {
                    smm.gemm_batch(&desc, 1.0, &a, &b, 0.0, &mut c).unwrap();
                }
                let t0 = Instant::now();
                for _ in 0..iters {
                    smm.gemm_batch(&desc, 1.0, &a, &b, 0.0, &mut c).unwrap();
                }
                let per = t0.elapsed().as_secs_f64() / iters as f64;
                if on_turn {
                    t_on = t_on.min(per);
                } else {
                    t_off = t_off.min(per);
                }
            }
        }
        (t_on, t_off)
    };
    // A shared machine can still produce a one-sided burst; re-measure
    // before declaring the budget blown.
    let mut verdict = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for attempt in 0..3 {
        let (t_on, t_off) = measure(&enabled, &disabled);
        let overhead_pct = (t_on - t_off) / t_off * 100.0;
        println!(
            "  enabled {:.2} us/call, disabled {:.2} us/call -> overhead {:+.2}%{}",
            t_on * 1e6,
            t_off * 1e6,
            overhead_pct,
            if overhead_pct >= 5.0 && attempt < 2 {
                "  (over budget, re-measuring)"
            } else {
                ""
            }
        );
        if overhead_pct < verdict.2 {
            verdict = (t_on, t_off, overhead_pct);
        }
        if verdict.2 < 5.0 {
            break;
        }
    }
    assert!(
        verdict.2 < 5.0,
        "telemetry overhead {:.2}% exceeds the 5% budget in 3 attempts",
        verdict.2
    );

    // Tracing rides on top of telemetry: every call also emits span
    // events into the flight recorder. Same protocol against the same
    // dark baseline, with a 7% budget for the extra clock reads and
    // ring writes.
    let traced = Smm::<f32>::builder().threads(THREADS).tracing(true).build();
    let mut verdict_tr = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for attempt in 0..3 {
        let (t_on, t_off) = measure(&traced, &disabled);
        let overhead_pct = (t_on - t_off) / t_off * 100.0;
        println!(
            "  traced  {:.2} us/call, disabled {:.2} us/call -> overhead {:+.2}%{}",
            t_on * 1e6,
            t_off * 1e6,
            overhead_pct,
            if overhead_pct >= 7.0 && attempt < 2 {
                "  (over budget, re-measuring)"
            } else {
                ""
            }
        );
        if overhead_pct < verdict_tr.2 {
            verdict_tr = (t_on, t_off, overhead_pct);
        }
        if verdict_tr.2 < 7.0 {
            break;
        }
    }
    assert!(
        verdict_tr.2 < 7.0,
        "tracing overhead {:.2}% exceeds the 7% budget in 3 attempts",
        verdict_tr.2
    );

    // Mix in single multi-threaded GEMMs so the report shows the
    // dispatch/sync phases and a second call site.
    let am = Mat::<f32>::random(64, 64, 7);
    let bm = Mat::<f32>::random(64, 64, 8);
    let mut cm = Mat::<f32>::zeros(64, 64);
    for _ in 0..200 {
        enabled.gemm(1.0, am.as_ref(), bm.as_ref(), 0.0, cm.as_mut());
    }

    println!("\n{}", enabled.stats_report());
    println!(
        "  (report serializes via stats_report().to_json() / .to_prometheus(); \
         prometheus exposition is {} lines)",
        enabled.stats_report().to_prometheus().lines().count()
    );
}

/// The arena gates. A fresh runtime runs the two hot-path workload
/// kinds (a single multi-threaded GEMM and a dense batch), whose plans
/// pack nothing, so they must check no buffer out at all. Then a GEMM
/// whose plan packs B joins them: the runtime is warmed, the global
/// arena counters are zeroed at the warm-up boundary, and a
/// steady-state window runs. After warm-up every pool worker's
/// thread-local free list holds buffers for every size class the
/// packing shape touches, so the window must be all hits: a miss both
/// drops the hit rate and books fresh capacity into `alloc_bytes`. The
/// window must make checkouts, or the hit rate would pass vacuously.
/// Returns the window's counters and the non-packing calls' checkouts.
fn arena_steady_state_section() -> (arena::ArenaStats, u64) {
    println!(
        "\narena steady state ({THREADS} threads, gates: 0 checkouts without packing; \
         with a packing GEMM: checkouts > 0, hit rate >= 99%, 0 bytes):"
    );
    let smm = Smm::<f32>::builder().threads(THREADS).build();

    let (m, n, k) = (64usize, 64usize, 64usize);
    let a = Mat::<f32>::random(m, k, 11);
    let b = Mat::<f32>::random(k, n, 12);
    let mut c = Mat::<f32>::zeros(m, n);

    let (bm, bn, bk, batch) = (8usize, 8usize, 8usize, 64usize);
    let desc = smm_core::StridedBatch::dense(bm, bn, bk, batch);
    let a_flat: Vec<f32> = Mat::<f32>::random(bm * batch, bk, 13).data().to_vec();
    let b_flat: Vec<f32> = Mat::<f32>::random(bk * batch, bn, 14).data().to_vec();
    let mut c_flat = vec![0.0f32; batch * desc.stride_c];

    // A shape whose B slivers each serve at least eight panels per
    // thread, so its plan packs B.
    let (pm, pn, pk) = (512usize, 16usize, 32usize);
    let packing = smm.plan(pm, pn, pk);
    assert!(
        packing.pack_a || packing.pack_b,
        "the window's {pm}x{pn}x{pk} plan must pack: {packing:?}"
    );
    let pa = Mat::<f32>::random(pm, pk, 15);
    let pb = Mat::<f32>::random(pk, pn, 16);
    let mut pc = Mat::<f32>::zeros(pm, pn);

    for (label, (sm, sn, sk)) in [("gemm", (m, n, k)), ("gemm_batch", (bm, bn, bk))] {
        let plan = smm.plan(sm, sn, sk);
        assert!(
            !plan.pack_a && !plan.pack_b,
            "the {label} {sm}x{sn}x{sk} plan packs: {plan:?}"
        );
    }
    let mut run_unpacked = |iters: usize| {
        for _ in 0..iters {
            smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
            smm.gemm_batch(&desc, 1.0, &a_flat, &b_flat, 0.0, &mut c_flat)
                .unwrap();
        }
    };
    run_unpacked(50);
    arena::reset_stats();
    run_unpacked(500);
    let idle = arena::stats();
    let unpacked_checkouts = idle.hits + idle.misses;
    println!("  500 non-packing gemm + gemm_batch calls: {unpacked_checkouts} checkouts");
    assert_eq!(
        unpacked_checkouts, 0,
        "plans that pack nothing checked {unpacked_checkouts} arena buffers out"
    );

    let mut run_all = |iters: usize| {
        run_unpacked(iters);
        for _ in 0..iters {
            smm.gemm(1.0, pa.as_ref(), pb.as_ref(), 0.0, pc.as_mut());
        }
    };
    run_all(400); // warm every worker's free lists
    arena::reset_stats();
    run_all(500); // measured steady-state window

    let stats = arena::stats();
    println!(
        "  with {pm}x{pn}x{pk}: {} hits / {} misses ({:.3}% hit rate), {} bytes allocated",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.alloc_bytes
    );
    assert!(
        stats.hits + stats.misses > 0,
        "the steady-state window made no arena checkouts; its gates would pass vacuously"
    );
    assert!(
        stats.hit_rate() >= 0.99,
        "arena hit rate {:.4} below the 0.99 gate ({} hits / {} misses)",
        stats.hit_rate(),
        stats.hits,
        stats.misses
    );
    assert!(
        stats.alloc_bytes == 0,
        "steady state allocated {} bytes through the arena; expected 0",
        stats.alloc_bytes
    );
    println!(
        "  gates passed: no checkouts without packing, hit rate >= 99%, \
         zero steady-state allocation"
    );
    (stats, unpacked_checkouts)
}

/// Hand-rolled JSON (std-only workspace) mirroring the keys the
/// telemetry report uses, one object per benched workload.
fn write_json(records: &[ShapeRecord], steady: arena::ArenaStats, unpacked_checkouts: u64) {
    use std::fmt::Write as _;
    let min_speedup = records
        .iter()
        .map(|r| r.speedup_vs_spawn)
        .fold(f64::INFINITY, f64::min);
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"threads\": {THREADS},");
    s.push_str("  \"shapes\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"label\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \"batch\": {}, \
             \"gflops\": {:.3}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
             \"speedup_vs_spawn\": {:.3}}}",
            r.label, r.m, r.n, r.k, r.batch, r.gflops, r.p50_us, r.p99_us, r.speedup_vs_spawn
        );
        s.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"arena_steady_state\": {{\"hits\": {}, \"misses\": {}, \"alloc_bytes\": {}, \
         \"hit_rate\": {:.6}, \"unpacked_checkouts\": {unpacked_checkouts}}},",
        steady.hits,
        steady.misses,
        steady.alloc_bytes,
        steady.hit_rate()
    );
    let _ = writeln!(
        s,
        "  \"gates\": {{\"arena_hit_rate_min\": 0.99, \"arena_alloc_bytes_steady\": 0, \
         \"arena_checkouts_min\": 1, \"arena_unpacked_checkouts\": 0, \
         \"min_speedup_vs_spawn\": {min_speedup:.3}, \"passed\": true}}"
    );
    s.push_str("}\n");
    std::fs::write("BENCH_throughput.json", &s).expect("write BENCH_throughput.json");
    println!("\nwrote BENCH_throughput.json ({} shapes)", records.len());
}

fn main() {
    println!("SMM runtime throughput — pooled dispatch vs spawn-per-call\n");
    let mut records = Vec::new();
    batch_section(&mut records);
    single_gemm_section(&mut records);
    concurrent_callers_section();
    telemetry_section();
    let (steady, unpacked_checkouts) = arena_steady_state_section();
    write_json(&records, steady, unpacked_checkouts);
}
