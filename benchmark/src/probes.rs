//! The layer ledger: fixed reference measurements of each layer, run
//! after the timed phase of every traced run. Each row is stated
//! against this host's roofline (L0) or as overhead over the layer
//! below it:
//!
//! * L0 host — FMA peak, dependent-chain rate, triad bandwidth;
//! * L1 kernels — register tiles on L1-resident packed slivers;
//! * L2 packing — `pack_b` of the `mlp_infer` layer-1 sliver;
//! * L3 execution — single-thread `execute_in` against the pooled
//!   `Smm::gemm`, plan lookup and plan construction;
//! * L4 the pool (§III-D) — a tiny `gemm_batch` spread over the pool
//!   against the same batch inline, with the pool's counters and the
//!   Table-II split of the pooled calls (the workloads run on one
//!   thread, see `library.rs`);
//! * the simulator and tuner;
//! * L5/L6 serving — an 8³ request through `Smm::gemm`, the in-process
//!   `Client`, and `TcpClient`, with the server's phase means and the
//!   client-side wire codec.

use std::hint::black_box;
use std::sync::Arc;

use smm_core::{
    build_sim, execute_in, tune_shape, CallSite, Phase, PlanConfig, Smm, SmmPlan, StridedBatch,
};
use smm_gemm::matrix::{MatMut, MatRef};
use smm_gemm::TaskPool;
use smm_kernels::KernelRegistry;
use smm_serve::{wire, GemmRequest, Server, TcpClient, TcpServer};

use crate::harness::{metric, now, ratio, shares, Metric};
use crate::stats::{bound_violations, median, Rng};

/// Median seconds per call of `f`, over `samples` batches of `batch`.
fn per_call_s(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&times)
}

/// Kernel tiles measured: the main tiles of the plan's candidate set.
const TILES: [(usize, usize); 3] = [(8, 8), (8, 12), (16, 4)];
const TILE_KC: usize = 256;

/// The `mlp_infer` layer-1 GEMM at batch 16.
const REF_SHAPE: (usize, usize, usize) = (128, 16, 784);

/// Fixed shapes for the simulator probe, so its counts repeat exactly
/// on every run and seed.
const SIM_SHAPES: [(usize, usize, usize); 6] = [
    (8, 8, 8),
    (16, 16, 16),
    (24, 8, 40),
    (32, 32, 32),
    (48, 12, 64),
    (64, 64, 64),
];

/// The serving floor's request size.
const FLOOR_DIM: usize = 8;

/// Run every probe; returns the ledger rows and the number of probe
/// outputs that failed their check.
pub fn ledger(seed: u64) -> (Vec<Metric>, u64) {
    let mut rng = Rng::new(seed).fork(99);
    let mut out = Vec::new();
    let mut failed = 0u64;

    // L0: the host.
    let roof = crate::roofline::measure();
    out.push(metric(
        "host.fma_peak_gflops",
        roof.fma_peak_gflops,
        "Gflop/s",
    ));
    out.push(metric(
        "host.fma_chain_gflops",
        roof.fma_chain_gflops,
        "Gflop/s",
    ));
    out.push(metric("host.triad_gbps", roof.triad_gbps, "GB/s"));
    println!(
        "probe host fma={} llc={:.1}MiB triad_array={:.1}MiB (x3 arrays)",
        roof.isa,
        roof.llc_bytes as f64 / (1 << 20) as f64,
        roof.triad_array_bytes as f64 / (1 << 20) as f64
    );

    // L1: kernels on L1-resident packed slivers.
    let reg = KernelRegistry::new();
    let mut tile_8x8 = 0.0;
    for (mr, nr) in TILES {
        let kernel = reg
            .lookup::<f32>(mr, nr)
            .expect("candidate tile fits the register budget");
        let a = rng.values(mr * TILE_KC);
        let b = rng.values(TILE_KC * nr);
        let mut c = vec![0.0f32; mr * nr];
        kernel.run(TILE_KC, 1.0, &a, &b, &mut c, mr);
        // The packed B sliver is k-major (row-major B); the oracle
        // takes it column-major.
        let b_cm: Vec<f32> = (0..nr)
            .flat_map(|j| (0..TILE_KC).map(move |p| (p, j)))
            .map(|(p, j)| b[p * nr + j])
            .collect();
        failed += u64::from(bound_violations(mr, nr, TILE_KC, &a, &b_cm, &c) != 0);
        let s = per_call_s(7, 2000, || {
            kernel.run(TILE_KC, 1.0, black_box(&a), black_box(&b), &mut c, mr)
        });
        let gflops = 2.0 * (mr * nr * TILE_KC) as f64 / s / 1e9;
        if (mr, nr) == (8, 8) {
            tile_8x8 = gflops;
        }
        out.push(metric(
            &format!("kernels.tile_{mr}x{nr}_gflops"),
            gflops,
            "Gflop/s",
        ));
    }
    out.push(metric(
        "kernels.tile_8x8_frac_peak",
        tile_8x8 / roof.fma_peak_gflops,
        "ratio",
    ));

    // L2: packing the mlp layer-1 B sliver (kc 512, nr 8).
    let (m, n, k) = REF_SHAPE;
    let x = rng.values(k * n);
    let mut packed = Vec::new();
    let xb = MatRef::from_slice(&x, k, n, k);
    let s = per_call_s(7, 200, || {
        smm_gemm::pack::pack_b(black_box(xb), 0, 0, 512, n, 8, &mut packed)
    });
    out.push(metric(
        "gemm.pack_b_gbps",
        2.0 * (512 * n * 4) as f64 / s / 1e9,
        "GB/s",
    ));

    // L3: single-thread execution vs the pooled runtime call.
    let w = rng.values(m * k);
    let mut c = vec![0.0f32; m * n];
    let plan = SmmPlan::build(m, n, k, &PlanConfig::default());
    let a_ref = MatRef::from_slice(&w, m, k, m);
    let exec_s = per_call_s(9, 20, || {
        execute_in(
            TaskPool::global(),
            &plan,
            1.0,
            a_ref,
            xb,
            0.0,
            MatMut::from_slice(&mut c, m, n, m),
        )
    });
    failed += u64::from(bound_violations(m, n, k, &w, &x, &c) != 0);
    let smm = Smm::<f32>::builder().threads(2).telemetry(false).build();
    let smm_s = per_call_s(9, 20, || {
        smm.gemm(1.0, a_ref, xb, 0.0, MatMut::from_slice(&mut c, m, n, m))
    });
    failed += u64::from(bound_violations(m, n, k, &w, &x, &c) != 0);
    out.push(metric("core.exec_1t_us", exec_s * 1e6, "us"));
    out.push(metric("core.smm_over_exec", smm_s / exec_s, "ratio"));
    let hit_s = per_call_s(7, 10_000, || {
        black_box(smm.plan(m, n, k));
    });
    out.push(metric("core.plan_hit_ns", hit_s * 1e9, "ns"));
    let build_shapes: Vec<_> = (0..64)
        .map(|_| (rng.range(4, 64), rng.range(4, 64), rng.range(4, 64)))
        .collect();
    let cfg = PlanConfig::default();
    let build_s = per_call_s(7, 1, || {
        for &(m, n, k) in &build_shapes {
            black_box(SmmPlan::build(m, n, k, &cfg));
        }
    }) / build_shapes.len() as f64;
    out.push(metric("core.plan_build_us", build_s * 1e6, "us"));

    let (pool, pool_failed) = pool_probe(&mut rng);
    out.extend(pool);
    failed += pool_failed;

    // The simulator and the tuner.
    let plans: Vec<SmmPlan> = SIM_SHAPES
        .iter()
        .map(|&(m, n, k)| SmmPlan::build(m, n, k, &PlanConfig::default()))
        .collect();
    let cycles: u64 = plans.iter().map(|p| build_sim(p).run().cycles).sum();
    let sim_s = per_call_s(3, 1, || {
        for p in &plans {
            black_box(build_sim(p).run());
        }
    });
    out.push(metric(
        "simarch.sims_per_s",
        plans.len() as f64 / sim_s,
        "1/s",
    ));
    out.push(metric(
        "simarch.sim_mcycles_per_s",
        cycles as f64 / sim_s / 1e6,
        "Mcycle/s",
    ));
    out.push(metric("simarch.cycles_simulated", cycles as f64, "count"));
    let tuned = tune_shape(24, 24, 24, &PlanConfig::default());
    out.push(metric(
        "tune.candidates_per_shape",
        tuned.candidates as f64,
        "count",
    ));

    let (serve, serve_failed) = serve_floors(&mut rng);
    out.extend(serve);
    failed += serve_failed;
    (out, failed)
}

/// The pool probe's batch: 64 GEMMs of 12³, well under a microsecond
/// each, so dispatch and synchronization dominate.
const POOL_BATCH: (usize, usize) = (12, 64);

/// §III-D on this host: the same tiny `gemm_batch` on two threads (the
/// shared pool) and inline on one, the pool's counters over the pooled
/// calls, and the Table-II split of those calls.
fn pool_probe(rng: &mut Rng) -> (Vec<Metric>, u64) {
    let (d, batch) = POOL_BATCH;
    let desc = StridedBatch::dense(d, d, d, batch);
    let a = rng.values(batch * d * d);
    let b = rng.values(batch * d * d);
    let mut c = vec![0.0f32; batch * d * d];
    let inline = Smm::<f32>::builder().telemetry(false).build();
    let pooled = Smm::<f32>::builder().threads(2).telemetry(true).build();
    let inline_s = per_call_s(7, 200, || {
        inline
            .gemm_batch(&desc, 1.0, &a, &b, 0.0, &mut c)
            .expect("valid batch");
    });
    // Keep the workers busy first: a worker counts its parked time when
    // it wakes, so a first wake-up in the window would bill the idle time
    // before it.
    for _ in 0..100 {
        pooled
            .gemm_batch(&desc, 1.0, &a, &b, 0.0, &mut c)
            .expect("valid batch");
    }
    let before = pooled.pool().stats();
    let t = now();
    let mut calls = 0u64;
    let pooled_s = per_call_s(7, 200, || {
        pooled
            .gemm_batch(&desc, 1.0, &a, &b, 0.0, &mut c)
            .expect("valid batch");
        calls += 1;
    });
    let wall_s = t.elapsed().as_secs_f64();
    let after = pooled.pool().stats();
    let failed = [0, batch - 1]
        .iter()
        .filter(|&&e| {
            let (ae, be) = (&a[e * d * d..], &b[e * d * d..]);
            bound_violations(d, d, d, ae, be, &c[e * d * d..]) != 0
        })
        .count() as u64;
    let jobs =
        (after.worker_tasks + after.inline_drained) - (before.worker_tasks + before.inline_drained);
    let (_, dispatch, sync) = shares(&pooled.stats_report(), &[CallSite::GemmBatch]);
    (
        vec![
            metric(
                "core.batch_pooled_over_inline",
                pooled_s / inline_s,
                "ratio",
            ),
            metric(
                "gemm.pool_wakeups_per_op",
                ratio(after.worker_wakeups - before.worker_wakeups, calls),
                "count/op",
            ),
            metric(
                "gemm.pool_park_pct",
                100.0 * (after.park_ns - before.park_ns) as f64
                    / (after.workers.max(1) as f64 * wall_s * 1e9),
                "%",
            ),
            metric(
                "gemm.pool_inline_frac",
                ratio(after.inline_drained - before.inline_drained, jobs),
                "ratio",
            ),
            metric("core.dispatch_share_pct", dispatch, "%"),
            metric("core.sync_share_pct", sync, "%"),
        ],
        failed,
    )
}

/// L3/L5/L6 floors for one 8³ request, closed loop, on the
/// `serve_mix` server configuration (two shards, one thread each) with
/// telemetry on so the server's phases can be read back.
fn serve_floors(rng: &mut Rng) -> (Vec<Metric>, u64) {
    let d = FLOOR_DIM;
    let req = GemmRequest::new(d, d, d, rng.values(d * d), rng.values(d * d));
    let mut failed = 0u64;
    let wrong = |c: &[f32]| u64::from(bound_violations(d, d, d, &req.a, &req.b, c) != 0);

    let smm = Smm::<f32>::builder().threads(1).telemetry(false).build();
    let mut c = vec![0.0f32; d * d];
    let a = MatRef::from_slice(&req.a, d, d, d);
    let b = MatRef::from_slice(&req.b, d, d, d);
    let gemm_s = per_call_s(9, 2000, || {
        smm.gemm(1.0, a, b, 0.0, MatMut::from_slice(&mut c, d, d, d))
    });
    failed += wrong(&c);

    let smms: Vec<Arc<Smm<f32>>> = (0..2)
        .map(|_| Arc::new(Smm::builder().threads(1).telemetry(true).build()))
        .collect();
    let server = Server::builder().smms(smms.clone()).build();
    let client = server.client();
    let mut inproc = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = now();
        match client.submit(req.clone()).map(|t| t.wait()) {
            Ok(Ok(c)) => failed += wrong(&c),
            _ => failed += 1,
        }
        inproc.push(t.elapsed().as_secs_f64());
    }
    let inproc_s = median(&inproc);
    let inproc_mean_s = inproc.iter().sum::<f64>() / inproc.len() as f64;
    let mut report = smms[0].stats_report();
    report.absorb(&smms[1].stats_report());
    let phase_mean_s = |p: Phase| {
        let count = report.phase_count(p);
        report.phase_ns(p) as f64 / count.max(1) as f64 / 1e9
    };
    let (enqueue, coalesce, dispatch, reply) = (
        phase_mean_s(Phase::EnqueueWait),
        phase_mean_s(Phase::Coalesce),
        phase_mean_s(Phase::Dispatch),
        phase_mean_s(Phase::Reply),
    );

    let tcp = TcpServer::bind(server, "127.0.0.1:0").expect("loopback bind");
    let mut tcp_s = f64::NAN;
    match TcpClient::connect(tcp.local_addr()) {
        Ok(mut conn) => {
            let mut times = Vec::with_capacity(1000);
            for _ in 0..1000 {
                let t = now();
                match conn.call(&req) {
                    Ok(c) => failed += wrong(&c),
                    Err(_) => failed += 1,
                }
                times.push(t.elapsed().as_secs_f64());
            }
            tcp_s = median(&times);
        }
        Err(_) => failed += 1,
    }
    drop(tcp);

    let payload = wire::encode_request(&req);
    let encode_s = per_call_s(7, 2000, || {
        black_box(wire::encode_request(black_box(&req)));
    });
    let reply_payload = wire::encode_reply_ok(d, d, &req.a);
    let decode_s = per_call_s(7, 2000, || {
        black_box(wire::decode_payload(black_box(&reply_payload)).is_ok());
    });
    failed += u64::from(wire::decode_payload(&payload).is_err());

    let us = |s: f64| s * 1e6;
    (
        vec![
            metric("serve.gemm_floor_us", us(gemm_s), "us"),
            metric("serve.inproc_floor_us", us(inproc_s), "us"),
            metric("serve.tcp_floor_us", us(tcp_s), "us"),
            metric("serve.server_overhead_us", us(inproc_s - gemm_s), "us"),
            metric("serve.tcp_overhead_us", us(tcp_s - inproc_s), "us"),
            metric("serve.enqueue_wait_mean_us", us(enqueue), "us"),
            metric("serve.coalesce_mean_us", us(coalesce), "us"),
            metric("serve.reply_mean_us", us(reply), "us"),
            // The enqueue wait already contains the coalescing window.
            metric(
                "serve.unattributed_mean_us",
                us(inproc_mean_s - (enqueue + dispatch + reply)),
                "us",
            ),
            metric("serve.wire_encode_ns", encode_s * 1e9, "ns"),
            metric("serve.wire_decode_ns", decode_s * 1e9, "ns"),
        ],
        failed,
    )
}
