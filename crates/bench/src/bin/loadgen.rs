//! Closed-loop load generator for the `smm-serve` serving layer.
//!
//! Spawns N concurrent clients, each submitting requests back-to-back
//! (closed loop: one in flight per client) against an in-process
//! [`Server`] or, with `--tcp`, against a loopback [`TcpServer`] over
//! the wire protocol. Reports per-shape p50/p99 latency and achieved
//! Gflops, and **gates** on serving correctness:
//!
//! * every issued request is answered exactly once (a result or a
//!   typed rejection — never a drop, never a double reply);
//! * the server drains cleanly (zero queued requests after shutdown);
//! * with `--gate-throughput`, the coalescing batcher must beat the
//!   same workload served one-request-per-call.
//!
//! Exit status is non-zero on any gate failure, so CI can run this
//! binary directly.
//!
//! `--shards N` serves the workload through N runtime shards (one
//! `Smm` + dispatcher per shard, shape-hash routing, work stealing);
//! `--idle-conns M` holds M extra idle TCP connections open for the
//! whole run, exercising the multiplexed front end's parked-connection
//! path. `--gate-scaling` runs the dedicated shard-scaling comparison:
//! the same uniform multi-shape workload through 1 shard and through
//! `--shards` (default 4) shards, best-of-3 each, gating aggregate
//! throughput ≥ 3.0× and p99 within 1.25× of the 1-shard baseline —
//! both sides under the idle-connection flood.
//!
//! `--cold-start` switches to the two-stage autotuning benchmark: a
//! many-shape workload (deterministic log-uniform shapes) driven once
//! cold and then for `--cold-windows` warm windows, measuring
//! time-to-steady-state p99. With `--plan-db` the runtime answers cold
//! lookups from the offline database; `--gate-cold-start` then asserts
//! the cold window's p99 lands within 10% of steady state and that the
//! database covered at least 95% of plan lookups.
//!
//! ```sh
//! cargo run --release -p smm-bench --bin loadgen -- \
//!     --clients 8 --requests 200 --tcp --report latency.txt
//! ```

use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smm_core::{LatencyHistogram, PlanDb, Smm, TelemetryReport, DEFAULT_RATE_WINDOW};
use smm_gemm::matrix::{MatMut, MatRef};
use smm_model::VectorIsa;
use smm_serve::{GemmRequest, Rejected, Server, TcpClient, TcpServer};

/// The workload mix: the paper's small-GEMM regime, deliberately
/// batch-heavy (few distinct shapes, many requests per shape).
const SHAPES: [(usize, usize, usize); 3] = [(8, 8, 8), (16, 16, 16), (4, 32, 8)];

/// Dimension range for the `--cold-start` many-shape workload. Matches
/// the default `smm-tune sweep` grid so a swept database covers it.
const COLD_DIM_MIN: usize = 4;
const COLD_DIM_MAX: usize = 64;

#[derive(Clone)]
struct Options {
    clients: usize,
    requests: usize,
    threads: usize,
    window: Duration,
    queue_capacity: usize,
    max_batch: usize,
    tcp: bool,
    gate_throughput: bool,
    report: Option<String>,
    rate_window: Duration,
    bench_json: Option<String>,
    cold_start: bool,
    shapes: usize,
    plan_db: Option<String>,
    cold_windows: usize,
    gate_cold_start: bool,
    isa: VectorIsa,
    shards: usize,
    idle_conns: usize,
    gate_scaling: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            clients: 8,
            requests: 200,
            threads: 4,
            window: Duration::from_micros(200),
            queue_capacity: 512,
            max_batch: 64,
            tcp: false,
            gate_throughput: false,
            report: None,
            rate_window: DEFAULT_RATE_WINDOW,
            bench_json: None,
            cold_start: false,
            shapes: 1000,
            plan_db: None,
            cold_windows: 6,
            gate_cold_start: false,
            isa: VectorIsa::neon128(),
            shards: 1,
            idle_conns: 0,
            gate_scaling: false,
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} expects a value"))
        };
        match arg.as_str() {
            "--clients" => opts.clients = value("--clients").parse().expect("client count"),
            "--requests" => opts.requests = value("--requests").parse().expect("request count"),
            "--threads" => opts.threads = value("--threads").parse().expect("thread count"),
            "--window-us" => {
                opts.window = Duration::from_micros(value("--window-us").parse().expect("micros"))
            }
            "--queue" => opts.queue_capacity = value("--queue").parse().expect("capacity"),
            "--max-batch" => opts.max_batch = value("--max-batch").parse().expect("batch size"),
            "--tcp" => opts.tcp = true,
            "--gate-throughput" => opts.gate_throughput = true,
            "--report" => opts.report = Some(value("--report")),
            "--rate-window" => {
                let secs: f64 = value("--rate-window").parse().expect("seconds");
                assert!(secs > 0.0, "--rate-window must be positive");
                opts.rate_window = Duration::from_secs_f64(secs);
            }
            "--bench-json" => opts.bench_json = Some(value("--bench-json")),
            "--cold-start" => opts.cold_start = true,
            "--shapes" => opts.shapes = value("--shapes").parse().expect("shape count"),
            "--plan-db" => opts.plan_db = Some(value("--plan-db")),
            "--cold-windows" => {
                opts.cold_windows = value("--cold-windows").parse().expect("window count")
            }
            "--gate-cold-start" => opts.gate_cold_start = true,
            "--shards" => opts.shards = value("--shards").parse().expect("shard count"),
            "--idle-conns" => {
                opts.idle_conns = value("--idle-conns").parse().expect("connection count")
            }
            "--gate-scaling" => opts.gate_scaling = true,
            "--isa" => {
                let name = value("--isa");
                opts.isa =
                    VectorIsa::by_name(&name).unwrap_or_else(|| panic!("unknown ISA {name:?}"));
            }
            "--help" | "-h" => {
                println!(
                    "loadgen [--clients N] [--requests N] [--threads N] [--window-us N]\n\
                     \x20       [--queue N] [--max-batch N] [--tcp] [--gate-throughput]\n\
                     \x20       [--report FILE] [--rate-window SECS] [--bench-json FILE]\n\
                     \x20       [--cold-start] [--shapes N] [--plan-db FILE] [--cold-windows N]\n\
                     \x20       [--gate-cold-start] [--isa NAME]\n\
                     \x20       [--shards N] [--idle-conns N] [--gate-scaling]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    opts
}

/// Per-client tally, merged after the run.
#[derive(Default)]
struct ClientOutcome {
    /// `(shape index, latency ns)` per completed request.
    latencies: Vec<(usize, u64)>,
    ok: u64,
    rejected: u64,
}

/// What one run of the workload produced.
struct RunOutcome {
    issued: u64,
    ok: u64,
    rejected: u64,
    wall: Duration,
    latencies: Vec<(usize, u64)>,
    stats: smm_serve::ServeStats,
    /// Telemetry snapshot taken right after the drive finished, while
    /// the rate window still covers the run.
    telemetry: TelemetryReport,
}

fn request_for(shape: usize, seed: u64) -> GemmRequest<f32> {
    let (m, n, k) = SHAPES[shape];
    // Deterministic but varied content; correctness is spot-checked
    // against the analytic value of an all-ones x scaled product.
    let scale = 1.0 + (seed % 7) as f32;
    GemmRequest::new(m, n, k, vec![scale; m * k], vec![1.0; k * n])
}

fn check_result(shape: usize, seed: u64, c: &[f32]) {
    let (_, _, k) = SHAPES[shape];
    let scale = 1.0 + (seed % 7) as f32;
    let want = scale * k as f32;
    assert!(
        c.iter().all(|&v| (v - want).abs() < 1e-3),
        "wrong result for shape {shape} seed {seed}: got {}, want {want}",
        c[0]
    );
}

/// Drive the closed-loop clients against a server and account every
/// request. `call` is the per-client transport (in-proc or TCP).
fn drive<T: Send>(
    opts: &Options,
    mut make_transport: impl FnMut() -> T + Send,
    call: impl Fn(&mut T, GemmRequest<f32>) -> Result<Vec<f32>, Rejected> + Send + Sync,
) -> (Vec<(usize, u64)>, u64, u64, Duration) {
    let outcomes = Mutex::new(Vec::new());
    let transports: Vec<T> = (0..opts.clients).map(|_| make_transport()).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (id, mut transport) in transports.into_iter().enumerate() {
            let outcomes = &outcomes;
            let call = &call;
            s.spawn(move || {
                let mut out = ClientOutcome::default();
                for i in 0..opts.requests {
                    let shape = (id + i) % SHAPES.len();
                    let seed = (id * 10_007 + i) as u64;
                    let req = request_for(shape, seed);
                    let t = Instant::now();
                    match call(&mut transport, req) {
                        Ok(c) => {
                            out.latencies.push((shape, t.elapsed().as_nanos() as u64));
                            check_result(shape, seed, &c);
                            out.ok += 1;
                        }
                        Err(
                            Rejected::QueueFull { .. }
                            | Rejected::DeadlineExceeded
                            | Rejected::ShuttingDown,
                        ) => out.rejected += 1,
                        Err(other) => panic!("client {id}: unexpected rejection: {other}"),
                    }
                }
                outcomes.lock().unwrap().push(out);
            });
        }
    });
    let wall = t0.elapsed();
    let merged = outcomes.into_inner().unwrap();
    let ok = merged.iter().map(|o| o.ok).sum();
    let rejected = merged.iter().map(|o| o.rejected).sum();
    let latencies = merged.into_iter().flat_map(|o| o.latencies).collect();
    (latencies, ok, rejected, wall)
}

fn run_workload(opts: &Options) -> RunOutcome {
    // Loadgen owns the runtimes (one per shard) so the serving layer
    // records into telemetry registries whose rate window matches
    // `--rate-window`.
    let smms: Vec<Arc<Smm<f32>>> = (0..opts.shards.max(1))
        .map(|_| {
            Arc::new(
                Smm::<f32>::builder()
                    .threads(opts.threads)
                    .telemetry(true)
                    .rate_window(opts.rate_window)
                    .build(),
            )
        })
        .collect();
    // Fleet telemetry: every shard's report absorbed into one, exactly
    // what the STATS opcode serves for a sharded server.
    let fleet_telemetry = |smms: &[Arc<Smm<f32>>]| {
        let mut merged = smms[0].stats_report();
        for smm in &smms[1..] {
            merged.absorb(&smm.stats_report());
        }
        merged
    };
    let server = Server::<f32>::builder()
        .smms(smms.clone())
        .queue_capacity(opts.queue_capacity)
        .coalesce_window(opts.window)
        .max_batch(opts.max_batch)
        .build();
    let issued = (opts.clients * opts.requests) as u64;
    if opts.tcp {
        let tcp = TcpServer::bind(server, ("127.0.0.1", 0)).expect("bind loopback");
        let addr = tcp.local_addr();
        // Held open and silent for the whole run: exercises the
        // multiplexed front end's parked-connection path.
        let flood: Vec<std::net::TcpStream> = (0..opts.idle_conns)
            .map(|_| std::net::TcpStream::connect(addr).expect("idle connection"))
            .collect();
        let (latencies, ok, rejected, wall) = drive(
            opts,
            || TcpClient::connect(addr).expect("connect"),
            |client, req| client.call(&req),
        );
        let telemetry = fleet_telemetry(&smms);
        drop(flood);
        let stats = tcp.shutdown();
        RunOutcome {
            issued,
            ok,
            rejected,
            wall,
            latencies,
            stats,
            telemetry,
        }
    } else {
        let client = server.client();
        let (latencies, ok, rejected, wall) = drive(
            opts,
            || client.clone(),
            |client, req| client.submit(req).and_then(|t| t.wait()),
        );
        let telemetry = fleet_telemetry(&smms);
        let stats = server.shutdown();
        RunOutcome {
            issued,
            ok,
            rejected,
            wall,
            latencies,
            stats,
            telemetry,
        }
    }
}

/// Uniform multi-shape workload for `--gate-scaling`: eight small
/// shapes whose shape hashes spread two-per-shard at four shards, so
/// each shard coalesces its own shapes' windows concurrently while the
/// single-shard baseline serializes all eight behind one dispatcher.
const SCALING_SHAPES: [(usize, usize, usize); 8] = [
    (8, 8, 8),
    (16, 16, 16),
    (20, 20, 20),
    (32, 32, 4),
    (4, 32, 8),
    (16, 8, 4),
    (6, 6, 6),
    (12, 12, 12),
];

/// One side of the `--gate-scaling` comparison.
struct ScalingRun {
    req_per_sec: f64,
    p99_ns: u64,
    stolen: u64,
    spilled: u64,
}

/// Serve the uniform [`SCALING_SHAPES`] workload over TCP through
/// `shards` runtime shards, under the `--idle-conns` flood, and
/// measure aggregate throughput and exact p99 latency.
fn scaling_run(opts: &Options, shards: usize) -> ScalingRun {
    let smms: Vec<Arc<Smm<f32>>> = (0..shards)
        .map(|_| Arc::new(Smm::<f32>::builder().threads(opts.threads).build()))
        .collect();
    let server = Server::<f32>::builder()
        .smms(smms)
        .queue_capacity(opts.queue_capacity)
        .coalesce_window(opts.window)
        .max_batch(opts.max_batch)
        .build();
    let tcp = TcpServer::bind(server, ("127.0.0.1", 0)).expect("bind loopback");
    let addr = tcp.local_addr();
    // Both sides of the comparison run under the same idle-connection
    // flood, so the gate measures sharding, not sweep overhead.
    let flood: Vec<std::net::TcpStream> = (0..opts.idle_conns)
        .map(|_| std::net::TcpStream::connect(addr).expect("idle connection"))
        .collect();

    let latencies = Mutex::new(Vec::with_capacity(opts.clients * opts.requests));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for id in 0..opts.clients {
            let latencies = &latencies;
            s.spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                let mut local = Vec::with_capacity(opts.requests);
                // Each client is pinned to one shape: a closed loop
                // holds one request in flight per client, so every
                // shape has at most `clients / 8` outstanding requests
                // and coalesced groups stay the same size on both
                // sides of the comparison — the gate then measures the
                // dispatchers' window rate, not batching luck.
                for _ in 0..opts.requests {
                    let (m, n, k) = SCALING_SHAPES[id % SCALING_SHAPES.len()];
                    let req = GemmRequest::new(m, n, k, vec![1.0f32; m * k], vec![1.0f32; k * n]);
                    let t = Instant::now();
                    let c = client.call(&req).expect("scaling request");
                    local.push(t.elapsed().as_nanos() as u64);
                    assert!(
                        (c[0] - k as f32).abs() < 1e-3,
                        "wrong result for {m}x{n}x{k}: got {}, want {k}",
                        c[0]
                    );
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall = t0.elapsed();
    drop(flood);
    let stats = tcp.shutdown();
    let latencies = latencies.into_inner().unwrap();
    assert_eq!(
        latencies.len(),
        opts.clients * opts.requests,
        "scaling run dropped replies"
    );
    ScalingRun {
        req_per_sec: latencies.len() as f64 / wall.as_secs_f64(),
        p99_ns: p99_ns(&latencies),
        stolen: stats.stolen,
        spilled: stats.spilled,
    }
}

/// The `"scaling"` bench JSON written by `--gate-scaling --bench-json`.
fn scaling_json(opts: &Options, sharded: usize, base: &ScalingRun, multi: &ScalingRun) -> String {
    let side = |label: &str, shards: usize, run: &ScalingRun| {
        format!(
            "  \"{label}\": {{\"shards\": {shards}, \"req_per_sec\": {:.3}, \
             \"p99_ns\": {}, \"stolen\": {}, \"spilled\": {}}},\n",
            run.req_per_sec, run.p99_ns, run.stolen, run.spilled
        )
    };
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"loadgen\",\n");
    s.push_str("  \"mode\": \"scaling\",\n");
    s.push_str(&format!("  \"clients\": {},\n", opts.clients));
    s.push_str(&format!("  \"requests_per_client\": {},\n", opts.requests));
    s.push_str(&format!("  \"idle_conns\": {},\n", opts.idle_conns));
    s.push_str(&side("baseline", 1, base));
    s.push_str(&side("sharded", sharded, multi));
    s.push_str(&format!(
        "  \"speedup\": {:.6},\n",
        multi.req_per_sec / base.req_per_sec
    ));
    s.push_str(&format!(
        "  \"p99_ratio\": {:.6}\n",
        multi.p99_ns as f64 / base.p99_ns.max(1) as f64
    ));
    s.push_str("}\n");
    s
}

/// `--gate-scaling` entry point: the same uniform workload through one
/// shard and through `--shards` shards, best-of-3 each, gated on
/// near-linear aggregate throughput and p99 stability.
fn scaling_main(opts: &Options) {
    let sharded = if opts.shards > 1 { opts.shards } else { 4 };
    let best = |shards: usize| {
        (0..3)
            .map(|_| scaling_run(opts, shards))
            .max_by(|a, b| a.req_per_sec.total_cmp(&b.req_per_sec))
            .expect("three runs")
    };
    let base = best(1);
    let multi = best(sharded);
    let speedup = multi.req_per_sec / base.req_per_sec;
    let p99_ratio = multi.p99_ns as f64 / base.p99_ns.max(1) as f64;

    let mut report = format!(
        "loadgen --gate-scaling: {} clients x {} requests over {} shapes, \
         window {:?}, {} idle connections\n",
        opts.clients,
        opts.requests,
        SCALING_SHAPES.len(),
        opts.window,
        opts.idle_conns,
    );
    report.push_str(&format!(
        "  1 shard   : {:>9.0} req/s, p99 {:>9.1} us\n",
        base.req_per_sec,
        base.p99_ns as f64 / 1e3
    ));
    report.push_str(&format!(
        "  {sharded} shards  : {:>9.0} req/s, p99 {:>9.1} us ({} stolen, {} spilled)\n",
        multi.req_per_sec,
        multi.p99_ns as f64 / 1e3,
        multi.stolen,
        multi.spilled,
    ));
    report.push_str(&format!(
        "  speedup {speedup:.2}x (gate >= 3.00x), p99 ratio {p99_ratio:.3} (gate <= 1.25)\n"
    ));
    print!("{report}");

    assert!(
        speedup >= 3.0,
        "scaling gate: {sharded} shards reached {:.0} req/s, only {speedup:.2}x the \
         1-shard {:.0} req/s (gate >= 3.0x)",
        multi.req_per_sec,
        base.req_per_sec,
    );
    assert!(
        p99_ratio <= 1.25,
        "scaling gate: sharded p99 {:.1} us is {p99_ratio:.3}x the 1-shard p99 {:.1} us \
         (gate <= 1.25x)",
        multi.p99_ns as f64 / 1e3,
        base.p99_ns as f64 / 1e3,
    );
    println!("loadgen: scaling gates passed");

    if let Some(path) = &opts.report {
        let mut f = std::fs::File::create(path).expect("create report file");
        f.write_all(report.as_bytes()).expect("write report");
        println!("loadgen: report written to {path}");
    }
    if let Some(path) = &opts.bench_json {
        let mut f = std::fs::File::create(path).expect("create bench json");
        f.write_all(scaling_json(opts, sharded, &base, &multi).as_bytes())
            .expect("write bench json");
        println!("loadgen: bench json written to {path}");
    }
}

/// xorshift64* — deterministic shape generator for `--cold-start`
/// (same generator the plan-database fuzz harness uses).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` distinct log-uniform shapes in `[COLD_DIM_MIN, COLD_DIM_MAX]³`,
/// fixed seed so every run (and both sides of a CI comparison) sees the
/// identical workload.
fn cold_start_shapes(count: usize) -> Vec<(usize, usize, usize)> {
    let mut rng = XorShift::new(42);
    let (lo, hi) = ((COLD_DIM_MIN as f64).ln(), (COLD_DIM_MAX as f64).ln());
    let mut seen = std::collections::HashSet::new();
    let mut shapes = Vec::with_capacity(count);
    while shapes.len() < count {
        let dim = |rng: &mut XorShift| {
            let d = (lo + rng.unit() * (hi - lo)).exp().round() as usize;
            d.clamp(COLD_DIM_MIN, COLD_DIM_MAX)
        };
        let shape = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        if seen.insert(shape) {
            shapes.push(shape);
        }
    }
    shapes
}

/// What one `--cold-start` run produced: the per-window p99 ladder
/// (window 0 is the cold pass) plus the tuner's lookup accounting.
struct ColdStartOutcome {
    shapes: usize,
    window_p99_ns: Vec<u64>,
    steady_p99_ns: u64,
    cold_over_steady: f64,
    time_to_steady_secs: f64,
    tuner: smm_core::TunerStats,
}

/// Independent cold runtimes combined per shape: a cold pass is 1000
/// one-shot measurements, and a single scheduler preemption or
/// page-fault burst in the top percentile would decide the gate. Each
/// replica is a fresh [`Smm`], genuinely cold for every shape, so the
/// per-shape *minimum* across replicas keeps the plan-path cost (paid
/// in all of them) while shedding uncorrelated spikes (paid in one).
/// Five replicas roughly match the trimming the steady side gets from
/// its warm windows; a cold pass costs milliseconds.
const COLD_REPLICAS: usize = 5;

/// Exact p99 of a sample set (the shared `LatencyHistogram` is
/// log2-bucketed, far too coarse for a 10% cold-vs-steady comparison).
fn p99_ns(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() * 99).div_ceil(100).max(1) - 1]
}

/// Build the cold-start runtime: plan cache empty, two-stage source
/// attached. The cache is bounded well above the working set — ample
/// enough that warm windows measure pure cache hits (no capacity
/// evictions), bounded so the shards pre-allocate and never rehash
/// mid-pass. Single worker: the workload is a closed loop of small
/// GEMMs measured one call at a time, and pool dispatch jitter would
/// drown the plan-path cost this mode exists to expose.
fn cold_start_smm(opts: &Options) -> Smm<f32> {
    let builder = Smm::<f32>::builder()
        .threads(1)
        .telemetry(true)
        .isa(opts.isa)
        .cache_capacity(4 * opts.shapes)
        .persist_on_drop(false);
    match &opts.plan_db {
        Some(path) => builder
            .plan_db(path)
            .unwrap_or_else(|e| panic!("--plan-db {path}: {e}"))
            .build(),
        // Cold baseline: an empty database forces every shape through
        // online refinement, the worst case the offline sweep removes.
        None => builder
            .plan_db_handle(PlanDb::new(opts.isa))
            .expect("empty db matches the configured ISA")
            .build(),
    }
}

/// Drive the many-shape workload directly against the [`Smm`] runtime:
/// one cold pass over every shape (every lookup walks the two-stage
/// ladder) followed by `--cold-windows` warm passes over the same
/// shapes. Both sides of the gate use noise-trimmed estimators: the
/// cold window's per-shape latency is the minimum across
/// [`COLD_REPLICAS`] fresh runtimes, steady state's is the minimum
/// across the warm windows, and p99 is taken over those per-shape
/// minima.
fn run_cold_start(opts: &Options) -> ColdStartOutcome {
    let shapes = cold_start_shapes(opts.shapes);

    let max_elems = COLD_DIM_MAX * COLD_DIM_MAX;
    let a = vec![1.0f32; max_elems];
    let b = vec![1.0f32; max_elems];
    let mut c = vec![0.0f32; max_elems];

    // One measured pass over every shape; samples stay aligned with
    // `shapes` so passes can be combined per shape.
    let pass = |smm: &Smm<f32>, c: &mut Vec<f32>| {
        let mut samples = Vec::with_capacity(shapes.len());
        let t0 = Instant::now();
        for &(m, n, k) in &shapes {
            let t = Instant::now();
            smm.gemm(
                1.0,
                MatRef::from_slice(&a[..m * k], m, k, m),
                MatRef::from_slice(&b[..k * n], k, n, k),
                0.0,
                MatMut::from_slice(&mut c[..m * n], m, n, m),
            );
            samples.push(t.elapsed().as_nanos() as u64);
            assert!(
                (c[0] - k as f32).abs() < 1e-3,
                "wrong result for {m}x{n}x{k}: got {}, want {k}",
                c[0]
            );
        }
        (samples, t0.elapsed().as_secs_f64())
    };

    let mut cold_min = vec![u64::MAX; shapes.len()];
    let mut cold_wall = 0.0;
    let mut smm = None;
    for _rep in 0..COLD_REPLICAS {
        let fresh = cold_start_smm(opts);
        // Throwaway call outside the measured workload: warms the
        // worker and packing arenas, so the cold window measures
        // plan-path cold start, not process start-up.
        fresh.gemm(
            1.0,
            MatRef::from_slice(&a[..9], 3, 3, 3),
            MatRef::from_slice(&b[..9], 3, 3, 3),
            0.0,
            MatMut::from_slice(&mut c[..9], 3, 3, 3),
        );
        let (samples, wall) = pass(&fresh, &mut c);
        for (acc, s) in cold_min.iter_mut().zip(&samples) {
            *acc = (*acc).min(*s);
        }
        cold_wall = wall;
        smm = Some(fresh);
    }
    let smm = smm.expect("at least one cold replica");

    let mut window_p99_ns = vec![p99_ns(&cold_min)];
    let mut window_wall = vec![cold_wall];
    let mut warm_min = vec![u64::MAX; shapes.len()];
    for _window in 0..opts.cold_windows {
        let (samples, wall) = pass(&smm, &mut c);
        for (acc, s) in warm_min.iter_mut().zip(&samples) {
            *acc = (*acc).min(*s);
        }
        window_p99_ns.push(p99_ns(&samples));
        window_wall.push(wall);
    }

    let steady_p99_ns = p99_ns(&warm_min).max(1);
    let cold_over_steady = window_p99_ns[0] as f64 / steady_p99_ns as f64;
    // Wall time until the end of the first window whose p99 is within
    // 10% of steady state. The cold window itself may already qualify;
    // raw warm windows can stay above the trimmed steady estimate all
    // run, in which case the whole run counts.
    let mut time_to_steady_secs = window_wall.iter().sum();
    let mut acc = 0.0;
    for (i, &wall) in window_wall.iter().enumerate() {
        acc += wall;
        if window_p99_ns[i] as f64 <= 1.10 * steady_p99_ns as f64 {
            time_to_steady_secs = acc;
            break;
        }
    }

    ColdStartOutcome {
        shapes: shapes.len(),
        window_p99_ns,
        steady_p99_ns,
        cold_over_steady,
        time_to_steady_secs,
        tuner: smm.tuner_stats(),
    }
}

fn render_cold_start_report(opts: &Options, run: &ColdStartOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "loadgen --cold-start: {} distinct shapes in [{COLD_DIM_MIN}, {COLD_DIM_MAX}]³ on {} \
         ({}), {} warm windows\n",
        run.shapes,
        opts.isa.name,
        match &opts.plan_db {
            Some(path) => format!("plan db {path}"),
            None => "no plan db, online refinement".to_string(),
        },
        opts.cold_windows,
    ));
    for (i, &p99) in run.window_p99_ns.iter().enumerate() {
        let label = if i == 0 {
            "cold, min of replicas"
        } else {
            "warm"
        };
        out.push_str(&format!(
            "  window {i} ({label}): p99 {:>9.1} us\n",
            p99 as f64 / 1e3
        ));
    }
    let t = &run.tuner;
    out.push_str(&format!(
        "  steady p99 {:.1} us (min across warm windows); cold/steady {:.3}x, \
         time to steady {:.3} s\n",
        run.steady_p99_ns as f64 / 1e3,
        run.cold_over_steady,
        run.time_to_steady_secs
    ));
    out.push_str(&format!(
        "  tuner: {} db hits, {} nn matches, {} online refines, {} untuned \
         ({:.1}% db coverage)\n",
        t.db_hits,
        t.nn_matches,
        t.online_refines,
        t.untuned_builds,
        100.0 * t.db_coverage(),
    ));
    out
}

/// The `"cold_start"` block recorded in the bench JSON (`BENCH_serve.json`
/// in CI), alongside the tuner's lookup accounting.
fn cold_start_json(opts: &Options, run: &ColdStartOutcome) -> String {
    let t = &run.tuner;
    let windows: Vec<String> = run.window_p99_ns.iter().map(u64::to_string).collect();
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"loadgen\",\n");
    s.push_str("  \"mode\": \"cold-start\",\n");
    s.push_str(&format!("  \"isa\": \"{}\",\n", opts.isa.name));
    s.push_str("  \"cold_start\": {\n");
    s.push_str(&format!("    \"shapes\": {},\n", run.shapes));
    s.push_str(&format!(
        "    \"plan_db\": {},\n",
        match &opts.plan_db {
            Some(path) => format!("\"{path}\""),
            None => "null".to_string(),
        }
    ));
    s.push_str(&format!(
        "    \"window_p99_ns\": [{}],\n",
        windows.join(", ")
    ));
    s.push_str(&format!(
        "    \"first_window_p99_ns\": {},\n",
        run.window_p99_ns[0]
    ));
    s.push_str(&format!("    \"steady_p99_ns\": {},\n", run.steady_p99_ns));
    s.push_str(&format!(
        "    \"cold_over_steady\": {:.6},\n",
        run.cold_over_steady
    ));
    s.push_str(&format!(
        "    \"time_to_steady_secs\": {:.6},\n",
        run.time_to_steady_secs
    ));
    s.push_str(&format!("    \"db_hits\": {},\n", t.db_hits));
    s.push_str(&format!("    \"nn_matches\": {},\n", t.nn_matches));
    s.push_str(&format!("    \"online_refines\": {},\n", t.online_refines));
    s.push_str(&format!("    \"untuned_builds\": {},\n", t.untuned_builds));
    s.push_str(&format!("    \"db_coverage\": {:.6}\n", t.db_coverage()));
    s.push_str("  }\n}\n");
    s
}

/// `--cold-start` entry point: run, report, gate, write artifacts.
fn cold_start_main(opts: &Options) {
    let run = run_cold_start(opts);
    let report = render_cold_start_report(opts, &run);
    print!("{report}");

    if opts.gate_cold_start {
        assert!(
            opts.plan_db.is_some(),
            "--gate-cold-start needs --plan-db: the gate certifies the offline database, \
             not the online-refinement baseline"
        );
        // Gate A: the first (cold) window's p99 lands within 10% of
        // steady state — the plan database absorbs the cold start.
        assert!(
            run.cold_over_steady <= 1.10,
            "cold-start gate: cold p99 {:.1} us is {:.3}x steady {:.1} us (limit 1.10x)",
            run.window_p99_ns[0] as f64 / 1e3,
            run.cold_over_steady,
            run.steady_p99_ns as f64 / 1e3,
        );
        // Gate B: the database (exact hits + nearest-neighbour matches)
        // answered at least 95% of plan lookups.
        let t = &run.tuner;
        assert!(
            t.db_coverage() >= 0.95,
            "cold-start gate: db coverage {:.3} < 0.95 ({} hits + {} nn of {} lookups)",
            t.db_coverage(),
            t.db_hits,
            t.nn_matches,
            t.lookups(),
        );
        println!("loadgen: cold-start gates passed");
    }

    if let Some(path) = &opts.report {
        let mut f = std::fs::File::create(path).expect("create report file");
        f.write_all(report.as_bytes()).expect("write report");
        println!("loadgen: report written to {path}");
    }
    if let Some(path) = &opts.bench_json {
        let mut f = std::fs::File::create(path).expect("create bench json");
        f.write_all(cold_start_json(opts, &run).as_bytes())
            .expect("write bench json");
        println!("loadgen: bench json written to {path}");
    }
}

fn gflops(latencies: &[(usize, u64)], wall: Duration) -> f64 {
    let flops: f64 = latencies
        .iter()
        .map(|&(s, _)| {
            let (m, n, k) = SHAPES[s];
            2.0 * m as f64 * n as f64 * k as f64
        })
        .sum();
    flops / wall.as_secs_f64() / 1e9
}

fn render_report(opts: &Options, run: &RunOutcome) -> String {
    let mut out = String::new();
    let mode = if opts.tcp { "tcp" } else { "in-process" };
    out.push_str(&format!(
        "loadgen: {} clients x {} requests ({mode}), window {:?}, {} worker threads, \
         {} shard(s)\n",
        opts.clients,
        opts.requests,
        opts.window,
        opts.threads,
        opts.shards.max(1)
    ));
    out.push_str(&format!(
        "  issued {}, completed {}, rejected {} in {:.3} s -> {:.2} Gflops achieved\n",
        run.issued,
        run.ok,
        run.rejected,
        run.wall.as_secs_f64(),
        gflops(&run.latencies, run.wall),
    ));
    out.push_str(&format!("  {}\n", run.stats));
    let r = &run.telemetry.rate;
    out.push_str(&format!(
        "  windowed rate ({:.1} s window, {:.1} s covered): {:.0} req/s, {:.2} Gflops/s, \
         p99 now {:.1} us, p99 trend {:+.1} us/s\n",
        r.window_secs,
        r.covered_secs,
        r.req_per_sec,
        r.gflops_per_sec,
        r.p99_now_ns as f64 / 1e3,
        r.p99_trend_ns_per_sec / 1e3,
    ));
    out.push_str("  per-shape latency (closed loop, includes queueing):\n");
    for (idx, &(m, n, k)) in SHAPES.iter().enumerate() {
        let mut hist = LatencyHistogram::new();
        let mut count = 0u64;
        for &(s, ns) in &run.latencies {
            if s == idx {
                hist.record(ns);
                count += 1;
            }
        }
        if count == 0 {
            continue;
        }
        out.push_str(&format!(
            "    {m:>3}x{n:<3}x{k:<3} n={count:<6} p50 {:>8.1} us   p99 {:>8.1} us\n",
            hist.quantile(0.50) as f64 / 1e3,
            hist.quantile(0.99) as f64 / 1e3,
        ));
    }
    out
}

/// Machine-readable run summary (`--bench-json`), consumed by the CI
/// serve job. Hand-rolled JSON, same as the rest of the workspace.
fn bench_json(opts: &Options, run: &RunOutcome) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"loadgen\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if opts.tcp { "tcp" } else { "in-process" }
    ));
    s.push_str(&format!("  \"clients\": {},\n", opts.clients));
    s.push_str(&format!("  \"shards\": {},\n", opts.shards.max(1)));
    s.push_str(&format!("  \"requests_per_client\": {},\n", opts.requests));
    s.push_str(&format!("  \"issued\": {},\n", run.issued));
    s.push_str(&format!("  \"completed\": {},\n", run.ok));
    s.push_str(&format!("  \"rejected\": {},\n", run.rejected));
    s.push_str(&format!(
        "  \"wall_secs\": {:.6},\n",
        run.wall.as_secs_f64()
    ));
    s.push_str(&format!(
        "  \"achieved_gflops\": {:.6},\n",
        gflops(&run.latencies, run.wall)
    ));
    let r = &run.telemetry.rate;
    s.push_str(&format!(
        "  \"rate\": {{\"window_secs\": {:.6}, \"covered_secs\": {:.6}, \
         \"req_per_sec\": {:.3}, \"gflops_per_sec\": {:.6}, \"mean_ns\": {}, \
         \"p99_now_ns\": {}, \"p99_trend_ns_per_sec\": {:.3}, \"live_slots\": {}}},\n",
        r.window_secs,
        r.covered_secs,
        r.req_per_sec,
        r.gflops_per_sec,
        r.mean_ns,
        r.p99_now_ns,
        r.p99_trend_ns_per_sec,
        r.live_slots,
    ));
    s.push_str("  \"shapes\": [\n");
    let mut rows = Vec::new();
    for (idx, &(m, n, k)) in SHAPES.iter().enumerate() {
        let mut hist = LatencyHistogram::new();
        let mut count = 0u64;
        for &(sh, ns) in &run.latencies {
            if sh == idx {
                hist.record(ns);
                count += 1;
            }
        }
        if count == 0 {
            continue;
        }
        rows.push(format!(
            "    {{\"m\": {m}, \"n\": {n}, \"k\": {k}, \"count\": {count}, \
             \"p50_ns\": {}, \"p99_ns\": {}}}",
            hist.quantile(0.50),
            hist.quantile(0.99)
        ));
    }
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

fn main() {
    let opts = parse_args();
    if opts.gate_scaling {
        assert!(opts.clients > 0 && opts.requests > 0, "empty workload");
        scaling_main(&opts);
        return;
    }
    if opts.cold_start {
        assert!(opts.shapes > 0 && opts.cold_windows > 0, "empty workload");
        cold_start_main(&opts);
        return;
    }
    assert!(opts.clients > 0 && opts.requests > 0, "empty workload");

    let run = run_workload(&opts);
    let mut report = render_report(&opts, &run);

    // Gate 1: exactly-once accounting. Every issued request came back
    // as a result or a typed rejection; the server's own counters must
    // agree (nothing dropped, nothing double-counted).
    assert_eq!(
        run.ok + run.rejected,
        run.issued,
        "dropped or duplicated replies"
    );
    assert_eq!(
        run.stats.completed, run.ok,
        "server/client completion split"
    );
    assert_eq!(run.stats.submitted, run.stats.completed + run.stats.expired);

    // Gate 2: clean drain.
    assert_eq!(run.stats.queue_depth, 0, "requests stranded after drain");

    // Gate 3 (opt-in; timing-sensitive, so off in CI smoke): the
    // coalescing batcher beats one-request-per-call on this
    // batch-heavy workload. Both sides run with a zero window — in a
    // closed loop, waiting can only lose; what is gated is the
    // batching itself, i.e. grouping already-queued same-shape
    // requests into one `gemm_batch` dispatch versus dispatching each
    // request alone. Best-of-3 each to reject scheduler noise.
    if opts.gate_throughput {
        let best = |o: &Options| {
            (0..3)
                .map(|_| {
                    let r = run_workload(o);
                    r.ok as f64 / r.wall.as_secs_f64()
                })
                .fold(0.0f64, f64::max)
        };
        let coalesced = best(&Options {
            window: Duration::ZERO,
            ..opts.clone()
        });
        let uncoalesced = best(&Options {
            window: Duration::ZERO,
            max_batch: 1,
            ..opts.clone()
        });
        report.push_str(&format!(
            "  throughput: coalesced {coalesced:.0} req/s vs one-per-call {uncoalesced:.0} req/s \
             ({:.2}x)\n",
            coalesced / uncoalesced
        ));
        assert!(
            coalesced > uncoalesced,
            "coalescing lost: {coalesced:.0} req/s vs {uncoalesced:.0} req/s one-per-call"
        );
    }

    print!("{report}");
    println!("loadgen: all gates passed");
    if let Some(path) = &opts.report {
        let mut f = std::fs::File::create(path).expect("create report file");
        f.write_all(report.as_bytes()).expect("write report");
        println!("loadgen: report written to {path}");
    }
    if let Some(path) = &opts.bench_json {
        let mut f = std::fs::File::create(path).expect("create bench json");
        f.write_all(bench_json(&opts, &run).as_bytes())
            .expect("write bench json");
        println!("loadgen: bench json written to {path}");
    }
}
