//! `serve_mix`: open-loop Poisson traffic over loopback TCP against a
//! two-shard server (`Server::builder().shards(2)`, one thread each, all
//! other settings default) behind `TcpServer`.
//!
//! One pipelined connection is driven by a writer thread sending on a
//! precomputed schedule and a reader thread matching replies in FIFO
//! order, so the load generator is one process with two threads and
//! one connection. Latency is timed from each request's *scheduled*
//! send time, so a stalled generator or server charges every request
//! queued behind the stall.
//!
//! Phases: light (2k req/s) and heavy (16k req/s) open-loop traffic
//! give the latency metrics; a saturation phase keeps a fixed window of
//! requests in flight and gives the throughput (all three judged by
//! their best windows, see [`crate::stats::Windows`]); a geometric
//! bisection between the heavy rate and that throughput then finds the
//! highest rate that meets the latency limit, reported alongside.
//!
//! The throughput metric is the saturation rate, not the bisection's
//! answer: on this server p99 rises slowly with load between 25k and
//! 45k req/s, so where it crosses a fixed limit moves by a sixth with a
//! tenth of noise in p99.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use smm_core::Smm;
use smm_serve::wire::{self, FrameRead, WireMsg};
use smm_serve::{GemmRequest, Server, TcpServer};

use crate::harness::{
    layer_counters, merged_telemetry, metric, now, repeated_setup, Metric, Outcome, RunCfg,
    Snapshot,
};
use crate::stats::{
    log_strata, oracle, poisson_schedule, quantile, sorted, tolerance, Arrival, Best, Rng, Windows,
    Zipf,
};
use crate::trace::{Kind, SpanLog};

/// Shape grid: 3³ = 27 shapes over [4, 48]³.
const MAX_DIM: usize = 48;
const CELLS: usize = 3;
const VARIANTS: usize = 4;
const ZIPF_S: f64 = 1.1;
const LIGHT_RPS: f64 = 2_000.0;
const HEAVY_RPS: f64 = 16_000.0;
const PROBES: usize = 4;
/// Requests kept in flight while saturating the server.
const SATURATION_WINDOW: usize = 64;
/// Windows the heavy and saturation phases are judged in: a quarter
/// second holds 4000 requests at the heavy rate. The light phase uses
/// whole seconds (2000 requests).
const WINDOW_NS: u64 = 250_000_000;
const LIGHT_WINDOW_NS: u64 = 1_000_000_000;
/// The latency limit on p99 that a sustained rate must meet.
const SLO_P99_US: f64 = 3_000.0;
/// Beyond this generator lateness (p99), a probe measures the
/// generator, not the server, and does not count as sustained.
const MAX_LATE_P99_US: f64 = 250.0;
/// Warm-up sends every (shape, variant) pair this many times.
const WARM_ROUNDS: usize = 8;
/// Shares of the measured time given to each phase.
const LIGHT_SHARE: f64 = 0.15;
const HEAVY_SHARE: f64 = 0.45;
const SATURATION_SHARE: f64 = 0.2;
const PROBE_SHARE: f64 = 0.05;
/// Lead time before a phase's first scheduled request.
const LEAD_NS: u64 = 2_000_000;
const IO_TIMEOUT: Duration = Duration::from_secs(5);

struct Inputs {
    /// Shapes by popularity rank.
    shapes: Vec<(usize, usize, usize)>,
    /// `[rank][variant]` requests, their encoded frames (length prefix
    /// included), the oracle result and its per-element error bound.
    requests: Vec<Vec<GemmRequest<f32>>>,
    frames: Vec<Vec<Vec<u8>>>,
    expected: Vec<Vec<(Vec<f64>, Vec<f64>)>>,
    zipf: Zipf,
}

impl Inputs {
    fn new(rng: &mut Rng) -> Self {
        // Popularity falls with the size class of the shape's cell, so a
        // seed redraws the shapes inside their cells and the traffic, but
        // keeps the cost profile of the mix.
        let strata = log_strata(4, MAX_DIM, CELLS);
        let mid = |c: usize| ((strata[c].0 * strata[c].1) as f64).sqrt();
        let mut cells: Vec<(usize, usize, usize)> = (0..CELLS)
            .flat_map(|i| (0..CELLS).flat_map(move |j| (0..CELLS).map(move |l| (i, j, l))))
            .collect();
        cells.sort_by(|x, y| {
            let vol = |c: &(usize, usize, usize)| mid(c.0) * mid(c.1) * mid(c.2);
            vol(x).total_cmp(&vol(y))
        });
        let draw = |rng: &mut Rng, c: usize| rng.range(strata[c].0, strata[c].1);
        let shapes: Vec<_> = cells
            .iter()
            .map(|&(i, j, l)| (draw(rng, i), draw(rng, j), draw(rng, l)))
            .collect();
        let mut requests = Vec::new();
        let mut frames = Vec::new();
        let mut expected = Vec::new();
        for &(m, n, k) in &shapes {
            let reqs: Vec<_> = (0..VARIANTS)
                .map(|_| GemmRequest::new(m, n, k, rng.values(m * k), rng.values(k * n)))
                .collect();
            frames.push(reqs.iter().map(frame).collect());
            expected.push(
                reqs.iter()
                    .map(|r| {
                        let (c, abs) = oracle(m, n, k, &r.a, &r.b);
                        let g = tolerance(k);
                        (c, abs.iter().map(|x| g * x).collect())
                    })
                    .collect(),
            );
            requests.push(reqs);
        }
        Inputs {
            shapes,
            requests,
            frames,
            expected,
            zipf: Zipf::new(cells.len(), ZIPF_S),
        }
    }

    fn correct(&self, a: &Arrival, c: &[f32]) -> bool {
        let (reference, tol) = &self.expected[a.rank as usize][a.variant as usize];
        c.len() == reference.len()
            && c.iter()
                .zip(reference.iter().zip(tol))
                .all(|(&x, (&r, &t))| (x as f64 - r).abs() <= t)
    }

    fn flops(&self, a: &Arrival) -> f64 {
        let (m, n, k) = self.shapes[a.rank as usize];
        2.0 * (m * n * k) as f64
    }
}

/// One length-prefixed request frame.
fn frame(req: &GemmRequest<f32>) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame(&mut out, &wire::encode_request(req)).expect("writing to a Vec cannot fail");
    out
}

struct Runtime {
    // Declared first so the connection closes before the server stops.
    conn: TcpStream,
    reader: TcpStream,
    tcp: TcpServer,
    smms: Vec<Arc<Smm<f32>>>,
}

fn build_runtime(traced: bool) -> std::io::Result<Runtime> {
    let smms: Vec<Arc<Smm<f32>>> = (0..2)
        .map(|_| {
            Arc::new(
                Smm::builder()
                    .threads(1)
                    .telemetry(traced)
                    .tracing(traced)
                    .build(),
            )
        })
        .collect();
    let server = Server::builder().smms(smms.clone()).build();
    let tcp = TcpServer::bind(server, "127.0.0.1:0")?;
    let conn = TcpStream::connect(tcp.local_addr())?;
    conn.set_nodelay(true)?;
    conn.set_write_timeout(Some(IO_TIMEOUT))?;
    let reader = conn.try_clone()?;
    reader.set_read_timeout(Some(IO_TIMEOUT))?;
    Ok(Runtime {
        conn,
        reader,
        tcp,
        smms,
    })
}

/// What one phase of traffic measured.
struct Phase {
    rate: f64,
    /// Requests scheduled.
    requests: u64,
    /// p99 latency over the whole phase.
    p99_us: f64,
    /// Latency by the phase's best windows.
    best: Best,
    /// p99 of how late the generator sent.
    late_p99_us: f64,
    failed: u64,
    backlog_growing: bool,
    flops: f64,
}

impl Phase {
    /// Sustained: within the latency limit, nothing failed, no growing
    /// backlog, and the generator kept its schedule.
    fn sustained(&self) -> bool {
        self.latency_bound() && self.p99_us <= SLO_P99_US
    }

    /// Everything but the latency limit holds (so the rate can be
    /// interpolated against it).
    fn latency_bound(&self) -> bool {
        self.failed == 0 && !self.backlog_growing && self.late_p99_us <= MAX_LATE_P99_US
    }
}

/// Requests in flight (sent, unanswered) at time `t`.
fn outstanding(sent: &[u64], done: &[u64], t: u64) -> usize {
    sent.iter().filter(|&&s| s <= t).count() - done.iter().filter(|&&d| d <= t).count()
}

/// Drive one schedule over the connection, judging latency in windows
/// of `window_ns`. Request ids start at `seq0`.
fn run_phase(
    rt: &Runtime,
    inputs: &Inputs,
    schedule: &[Arrival],
    (rate, window_ns): (f64, u64),
    seq0: u64,
    logs: &mut [SpanLog; 2],
) -> Phase {
    let n = schedule.len();
    let base = now();
    // Where this phase starts on the trace timeline.
    let base_mark = logs[1].mark();
    let due = |j: usize| LEAD_NS + schedule[j].at_ns;
    let [wlog, rlog] = logs;
    let (sent, (done, failed)) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut sent = vec![u64::MAX; n];
            let mut buf = Vec::with_capacity(1 << 16);
            let mut conn = &rt.conn;
            let mut j = 0;
            while j < n {
                let t = base.elapsed().as_nanos() as u64;
                if due(j) > t {
                    std::thread::sleep(Duration::from_nanos(due(j) - t));
                    continue;
                }
                // Send every request already due in one write; traced
                // runs encode and write each request in its own spans.
                buf.clear();
                let first = j;
                while j < n && due(j) <= t {
                    let a = &schedule[j];
                    if wlog.enabled() {
                        let req = &inputs.requests[a.rank as usize][a.variant as usize];
                        let bytes = wlog.span(Kind::WireEncode, seq0 + j as u64, || frame(req));
                        let ok =
                            wlog.span(Kind::IoWrite, seq0 + j as u64, || conn.write_all(&bytes));
                        if ok.is_err() {
                            return sent;
                        }
                    } else {
                        buf.extend_from_slice(&inputs.frames[a.rank as usize][a.variant as usize]);
                    }
                    j += 1;
                }
                if !buf.is_empty() && conn.write_all(&buf).is_err() {
                    return sent;
                }
                let t = base.elapsed().as_nanos() as u64;
                sent[first..j].fill(t);
            }
            sent
        });
        let reader = s.spawn(|| {
            let mut done = vec![u64::MAX; n];
            let mut failed = 0u64;
            let mut stream = &rt.reader;
            for j in 0..n {
                let id = seq0 + j as u64;
                let r0 = rlog.mark();
                let payload = match wire::read_frame(&mut stream) {
                    Ok(FrameRead::Frame(p)) => p,
                    // Transport failure: nothing further can be matched.
                    _ => {
                        failed += (n - j) as u64;
                        break;
                    }
                };
                rlog.close(Kind::IoRead, id, r0);
                let msg = rlog.span(Kind::WireDecode, id, || wire::decode_payload(&payload));
                let t = base.elapsed().as_nanos() as u64;
                done[j] = t;
                let ok = matches!(msg, Ok(WireMsg::ReplyOk { ref c, .. }) if inputs.correct(&schedule[j], c));
                failed += u64::from(!ok);
                rlog.push(Kind::Request, id, base_mark + due(j), base_mark + t);
            }
            (done, failed)
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    // Both measured from the due time; unset entries never happened.
    let p99_after = |times: &[u64]| {
        let us = times
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != u64::MAX)
            .map(|(j, &t)| t.saturating_sub(due(j)) as f64 / 1e3)
            .collect();
        quantile(&sorted(us), 0.99)
    };
    // Backlog: in flight halfway through sending vs at the last send.
    let backlog_growing = n >= 2 && {
        let mid = outstanding(&sent, &done, sent[n / 2]);
        let end = outstanding(&sent, &done, sent[n - 1]);
        end as f64 > 1.5 * mid as f64 + 16.0
    };
    let mut windows = Windows::new(window_ns);
    for j in (0..n).filter(|&j| done[j] != u64::MAX) {
        windows.record(due(j), done[j].max(due(j)));
    }
    Phase {
        rate,
        requests: n as u64,
        p99_us: p99_after(&done),
        best: windows.best(LEAD_NS + schedule.last().map_or(0, |a| a.at_ns)),
        late_p99_us: p99_after(&sent),
        failed,
        backlog_growing,
        flops: schedule.iter().map(|a| inputs.flops(a)).sum(),
    }
}

/// Keep [`SATURATION_WINDOW`] requests in flight for `seconds`: the
/// writer sends one request per reply, then a `STATS` frame whose reply
/// (answered in order) tells the reader every request is back. Returns
/// the best-window throughput, the requests completed, and failures.
fn saturate(rt: &Runtime, inputs: &Inputs, picks: &[Arrival], seconds: f64) -> (f64, u64, u64) {
    let budget = (seconds * 1e9) as u64;
    let base = now();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let (windows, failed) = std::thread::scope(|s| {
        s.spawn(move || {
            let mut conn = &rt.conn;
            let mut sent = 0usize;
            let mut send = |sent: &mut usize| {
                let a = &picks[*sent % picks.len()];
                *sent += 1;
                conn.write_all(&inputs.frames[a.rank as usize][a.variant as usize])
            };
            for _ in 0..SATURATION_WINDOW {
                if send(&mut sent).is_err() {
                    return;
                }
            }
            // A closed reader (error) drops the sender and ends the loop.
            while credit_rx.recv().is_ok() {
                if (base.elapsed().as_nanos() as u64) >= budget {
                    let _ = wire::write_frame(&mut conn, &wire::encode_stats(wire::STATS_TEXT));
                    return;
                }
                if send(&mut sent).is_err() {
                    return;
                }
            }
        });
        let reader = s.spawn(move || {
            let mut stream = &rt.reader;
            let mut windows = Windows::new(WINDOW_NS);
            let mut failed = 0u64;
            let mut j = 0usize;
            loop {
                let msg = match wire::read_frame(&mut stream) {
                    Ok(FrameRead::Frame(p)) => wire::decode_payload(&p),
                    _ => {
                        failed += 1;
                        break;
                    }
                };
                match msg {
                    Ok(WireMsg::ReplyOk { ref c, .. }) => {
                        failed += u64::from(!inputs.correct(&picks[j % picks.len()], c));
                        let t = base.elapsed().as_nanos() as u64;
                        windows.record(t, t);
                        let _ = credit_tx.send(());
                    }
                    Ok(WireMsg::StatsReply { .. }) => break,
                    _ => failed += 1,
                }
                j += 1;
            }
            (windows, failed)
        });
        reader.join().expect("reader thread panicked")
    });
    let span = base.elapsed().as_nanos() as u64;
    (windows.best(span.min(budget)).rate, windows.ops(), failed)
}

/// Pipelined closed-window warm-up: every (shape, variant) pair, each
/// round sent in one write and all replies read and checked.
fn warm_up(rt: &Runtime, inputs: &Inputs) -> (u64, u64) {
    let pairs: Vec<Arrival> = (0..inputs.shapes.len() as u32)
        .flat_map(|rank| {
            (0..VARIANTS as u32).map(move |variant| Arrival {
                at_ns: 0,
                rank,
                variant,
            })
        })
        .collect();
    let burst: Vec<u8> = pairs
        .iter()
        .flat_map(|a| {
            inputs.frames[a.rank as usize][a.variant as usize]
                .iter()
                .copied()
        })
        .collect();
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..WARM_ROUNDS {
        if (&rt.conn).write_all(&burst).is_err() {
            return (attempted + pairs.len() as u64, failed + pairs.len() as u64);
        }
        let mut stream = &rt.reader;
        for a in &pairs {
            attempted += 1;
            let ok = match wire::read_frame(&mut stream) {
                Ok(FrameRead::Frame(p)) => {
                    matches!(wire::decode_payload(&p), Ok(WireMsg::ReplyOk { ref c, .. }) if inputs.correct(a, c))
                }
                _ => false,
            };
            failed += u64::from(!ok);
        }
    }
    (attempted, failed)
}

/// The highest sustained rate: the last passing probe, moved toward the
/// first failing one where p99 crosses the limit (log-log
/// interpolation) when that probe failed on latency alone.
fn max_rate(lo: &Phase, hi: Option<&Phase>) -> f64 {
    match hi {
        Some(hi) if hi.latency_bound() && lo.p99_us > 0.0 => {
            let (p_lo, p_hi) = (lo.p99_us.ln(), hi.p99_us.ln());
            let t = if p_hi > p_lo {
                ((SLO_P99_US.ln() - p_lo) / (p_hi - p_lo)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            lo.rate * (hi.rate / lo.rate).powf(t)
        }
        _ => lo.rate,
    }
}

pub fn serve_mix(cfg: &RunCfg) -> Outcome {
    let mut rng = Rng::new(cfg.seed).fork(5);
    let inputs = Inputs::new(&mut rng);
    let (mut warm_attempted, mut warm_failed) = (0u64, 0u64);
    let (rt, setup_s) = repeated_setup(cfg.setup_reps, || {
        let t0 = now();
        let rt = build_runtime(cfg.traced).expect("loopback server set-up failed");
        let (a, f) = warm_up(&rt, &inputs);
        warm_attempted += a;
        warm_failed += f;
        (rt, t0.elapsed().as_secs_f64())
    });

    let mut logs = [0u8, 1].map(|tid| {
        if cfg.traced {
            SpanLog::new(now(), tid, 1 << 20)
        } else {
            SpanLog::disabled()
        }
    });
    let mut seq = 0u64;
    let mut phase = |rate: f64, share: f64, label: u64, window_ns: u64, logs: &mut [SpanLog; 2]| {
        let schedule = poisson_schedule(
            &mut rng.fork(label),
            rate,
            cfg.seconds * share,
            &inputs.zipf,
            VARIANTS,
        );
        let p = run_phase(&rt, &inputs, &schedule, (rate, window_ns), seq, logs);
        seq += schedule.len() as u64;
        p
    };

    let before = Snapshot::take(&rt.smms, rt.tcp.stats());
    let t_start = now();
    let light = phase(LIGHT_RPS, LIGHT_SHARE, 10, LIGHT_WINDOW_NS, &mut logs);
    let heavy = phase(HEAVY_RPS, HEAVY_SHARE, 11, WINDOW_NS, &mut logs);
    let mut pick_rng = rng.fork(12);
    let picks: Vec<Arrival> = (0..1 << 16)
        .map(|_| Arrival {
            at_ns: 0,
            rank: inputs.zipf.sample(&mut pick_rng) as u32,
            variant: pick_rng.range(0, VARIANTS - 1) as u32,
        })
        .collect();
    let (saturation, saturation_ops, saturation_failed) =
        saturate(&rt, &inputs, &picks, cfg.seconds * SATURATION_SHARE);
    // Bisect geometrically between the fastest sustained phase so far
    // and the saturation throughput.
    let mut probes: Vec<Phase> = Vec::new();
    let (mut lo_rate, mut hi_rate) = if heavy.sustained() {
        (HEAVY_RPS, saturation.max(HEAVY_RPS))
    } else if light.sustained() {
        (LIGHT_RPS, HEAVY_RPS)
    } else {
        (LIGHT_RPS / 8.0, LIGHT_RPS)
    };
    for p in 0..PROBES {
        let rate = (lo_rate * hi_rate).sqrt();
        let probe = phase(rate, PROBE_SHARE, 20 + p as u64, WINDOW_NS, &mut logs);
        if probe.sustained() {
            lo_rate = rate;
        } else {
            hi_rate = rate;
        }
        probes.push(probe);
    }
    let timed_s = t_start.elapsed().as_secs_f64();
    let after = Snapshot::take(&rt.smms, rt.tcp.stats());

    let mut phases: Vec<&Phase> = vec![&light, &heavy];
    phases.extend(&probes);
    let lo = phases
        .iter()
        .filter(|p| p.sustained())
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .copied();
    let hi = lo.and_then(|lo| {
        phases
            .iter()
            .filter(|p| !p.sustained() && p.rate > lo.rate)
            .min_by(|a, b| a.rate.total_cmp(&b.rate))
            .copied()
    });
    // With nothing sustained, the search floor is reported.
    let rate = lo.map_or(lo_rate, |lo| max_rate(lo, hi));
    let mean_flops = heavy.flops / heavy.requests.max(1) as f64;

    let requests: u64 = saturation_ops + phases.iter().map(|p| p.requests).sum::<u64>();
    let mut extra: Vec<Metric> = vec![
        metric("max_rate_rps", rate, "req/s"),
        metric("light_p50_us", light.best.p50_us, "us"),
        metric("light_p99_us", light.best.p99_us, "us"),
        metric("light_gen_late_p99_us", light.late_p99_us, "us"),
        metric("heavy_gen_late_p99_us", heavy.late_p99_us, "us"),
        metric("heavy_requests", heavy.requests as f64, "count"),
        metric("gflops_at_max_rate", rate * mean_flops / 1e9, "Gflop/s"),
    ];
    for (i, p) in probes.iter().enumerate() {
        extra.push(metric(&format!("probe{i}_rate_rps"), p.rate, "req/s"));
        extra.push(metric(&format!("probe{i}_p99_us"), p.p99_us, "us"));
        extra.push(metric(
            &format!("probe{i}_sustained"),
            f64::from(u8::from(p.sustained())),
            "bool",
        ));
    }
    let telemetry = merged_telemetry(&rt.smms);
    let counters = layer_counters(&before, &after, requests, timed_s, telemetry.as_ref());
    let failed: u64 = saturation_failed + phases.iter().map(|p| p.failed).sum::<u64>();
    Outcome {
        setup_s,
        ops_per_s: saturation,
        latency_p50_us: heavy.best.p50_us,
        latency_p99_us: heavy.best.p99_us,
        latency_samples: heavy.best.samples,
        attempted: warm_attempted + requests,
        failed: warm_failed + failed,
        extra,
        counters,
        telemetry,
        spans: cfg.traced.then(|| {
            let [mut w, r] = logs;
            w.absorb(r);
            w
        }),
        cost: heavy.best.p50_us,
    }
}
