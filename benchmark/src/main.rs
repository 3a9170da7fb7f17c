//! `benchmark` — the seeded end-to-end benchmark of the SMM workspace.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out DIR]
//! benchmark compare <parent-dir> <change-dir>
//! ```
//!
//! One run sets the workload up several times (the median is
//! `setup_s`), measures it for `--seconds`, checks its outputs against
//! the naive oracle, prints one `workload metric value unit` line per
//! metric, writes a result file under `--out`, and prints the result
//! object as its last line. `--trace 1` repeats the workload with the
//! library's telemetry and tracing and the benchmark's own spans on,
//! runs the layer ledger, and prints the per-layer metrics instead.
//! The exit code is non-zero when any output was wrong.
//!
//! See `README.md` beside this package for the workloads and metrics.

mod compare;
mod harness;
mod json;
mod library;
mod probes;
mod roofline;
mod serve_mix;
mod stats;
mod trace;
mod tune_sweep;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{metric, Metric, Outcome, RunCfg};

type Workload = fn(&RunCfg) -> Outcome;

const WORKLOADS: [(&str, Workload); 5] = [
    ("mlp_infer", library::mlp_infer),
    ("tiny_batch", library::tiny_batch),
    ("shape_churn", library::shape_churn),
    ("serve_mix", serve_mix::serve_mix),
    ("tune_sweep", tune_sweep::tune_sweep),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out DIR]",
        WORKLOADS.map(|w| w.0).join("|")
    );
    eprintln!("       benchmark compare <parent-dir> <change-dir>");
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        out: PathBuf::from(".bench_results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => parsed.workload = it.next()?.clone(),
            "--seed" => parsed.seed = it.next()?.parse().ok()?,
            "--seconds" => parsed.seconds = it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                parsed.traced = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = PathBuf::from(it.next()?),
            _ => return None,
        }
    }
    (!parsed.workload.is_empty()).then_some(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [parent, change] = &args[1..] else {
            return usage();
        };
        return match compare::compare(
            Path::new(parent),
            Path::new(change),
            Path::new("BENCHMARK.json"),
        ) {
            Ok((report, regressed)) => {
                print!("{report}");
                if regressed {
                    ExitCode::from(3)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(parsed) = parse_args(&args) else {
        return usage();
    };
    if parsed.workload == "all" {
        return run_all(&args);
    }
    let Some(&(name, workload)) = WORKLOADS.iter().find(|w| w.0 == parsed.workload) else {
        return usage();
    };
    let result = if parsed.traced {
        run_traced(name, workload, &parsed)
    } else {
        run_plain(name, workload, &parsed)
    };
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The printed and stored outcome of one run.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result object: the run's last line of output.
    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`, non-finite values as null.
fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{}{}: {{\"value\": {value}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json::quote(&m.name),
            json::quote(&m.unit)
        );
    }
    s.push('}');
    s
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    vec![
        metric("setup_s", o.setup_s, "s"),
        metric("ops_per_s", o.ops_per_s, "op/s"),
        metric("latency_p50_us", o.latency_p50_us, "us"),
        metric("latency_p99_us", o.latency_p99_us, "us"),
        metric("peak_rss_mb", harness::peak_rss_mb(), "MB"),
    ]
}

fn run_plain(name: &str, workload: Workload, args: &Args) -> RunResult {
    let o = workload(&RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        setup_reps: SETUP_REPS,
    });
    let metrics = end_to_end(&o);
    print_metrics(name, &metrics);
    let n = o.latency_samples as usize;
    let mut extra = o.extra;
    extra.push(metric("latency_samples", n as f64, "count"));
    extra.push(metric(
        "latency_tail_supported_pct",
        stats::tail_percentile(n).unwrap_or(f64::NAN),
        "%",
    ));
    print_metrics(name, &extra);
    let result = RunResult {
        attempted: o.attempted,
        failed: o.failed,
        metrics,
    };
    write_result(args, name, &result, &extra);
    println!("{}", result.json());
    result
}

fn run_traced(name: &str, workload: Workload, args: &Args) -> RunResult {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        setup_reps: 1,
    };
    let plain = workload(&cfg);
    let traced = workload(&RunCfg {
        traced: true,
        ..cfg
    });
    let (ledger, probe_failed) = probes::ledger(args.seed);

    let spans = traced.spans.as_ref().expect("traced runs record spans");
    let times = trace::self_times(spans.spans());
    println!(
        "trace {name}: self time per layer ({} spans, {} dropped)",
        spans.spans().len(),
        spans.dropped()
    );
    println!(
        "  {:<18} {:>9} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "self_mean_us"
    );
    for (layer, count, total, own) in &times.rows {
        println!(
            "  {layer:<18} {count:>9} {:>12.3} {:>12.3} {:>12.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6,
            *own as f64 / 1e3 / (*count).max(1) as f64
        );
    }
    println!(
        "  {:<18} {:>9} {:>12} {:>12.3} ({:.2}% of root span time)",
        "unattributed",
        "",
        "",
        times.unattributed_ns as f64 / 1e6,
        times.unattributed_pct()
    );
    if let Some(report) = &traced.telemetry {
        println!("trace {name}: library phase totals (telemetry)");
        for p in smm_core::Phase::ALL {
            println!(
                "  {:<18} {:>9} {:>12.3}",
                p.name(),
                report.phase_count(p),
                report.phase_ns(p) as f64 / 1e6
            );
        }
    }
    let overhead = (traced.cost / plain.cost - 1.0) * 100.0;
    let mut metrics = ledger;
    metrics.extend(traced.counters.iter().cloned());
    metrics.push(metric(
        "bench.unattributed_pct",
        times.unattributed_pct(),
        "%",
    ));
    metrics.push(metric("bench.trace_overhead_pct", overhead, "%"));
    print_metrics(name, &metrics);

    let result = RunResult {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed + probe_failed,
        metrics,
    };
    let stamp = write_result(args, name, &result, &traced.extra);
    if let Some(stamp) = stamp {
        let path = args
            .out
            .join(format!("{name}-seed{}-{stamp}.trace.json", args.seed));
        match std::fs::write(&path, trace::chrome_trace(name, spans.spans())) {
            Ok(()) => println!("trace {name}: wrote {}", path.display()),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result.json());
    result
}

/// Store the run under `--out`; returns the file's time stamp.
fn write_result(args: &Args, name: &str, result: &RunResult, extra: &[Metric]) -> Option<u128> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let mode = if args.traced { "traced" } else { "plain" };
    let path = args
        .out
        .join(format!("{name}-seed{}-{mode}-{stamp}.json", args.seed));
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"threads\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"extra\": {}}}\n",
        json::quote(name),
        args.seed,
        args.seconds,
        args.traced,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        result.correct(),
        result.attempted,
        result.failed,
        metrics_json(&result.metrics),
        metrics_json(extra)
    );
    let written = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, body));
    match written {
        Ok(()) => Some(stamp),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// `--workload all`: each workload in its own process (so each gets
/// its own `peak_rss_mb`), then one combined result object.
fn run_all(args: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("benchmark: cannot locate the running executable");
        return ExitCode::FAILURE;
    };
    let mut pass_through: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            pass_through.push(a.clone());
        }
    }
    let mut combined = RunResult {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut all_ok = true;
    for (name, _) in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(name)
            .args(&pass_through)
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(output) = output else {
            eprintln!("benchmark: cannot run {name}");
            all_ok = false;
            continue;
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        all_ok &= output.status.success();
        let last = text.lines().last().and_then(|l| json::parse(l).ok());
        let Some(last) = last else {
            all_ok = false;
            continue;
        };
        combined.attempted += last
            .get("attempted")
            .and_then(json::Json::num)
            .unwrap_or(0.0) as u64;
        combined.failed += last.get("failed").and_then(json::Json::num).unwrap_or(1.0) as u64;
        for (metric_name, m) in last
            .get("metrics")
            .and_then(json::Json::obj)
            .into_iter()
            .flatten()
        {
            combined.metrics.push(Metric {
                name: format!("{name}.{metric_name}"),
                value: m.get("value").and_then(json::Json::num).unwrap_or(f64::NAN),
                unit: m
                    .get("unit")
                    .and_then(json::Json::str)
                    .unwrap_or("")
                    .to_string(),
            });
        }
    }
    println!("{}", combined.json());
    if all_ok && combined.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload runs end to end on a short budget: all end-to-end
    /// metrics present and finite, and no wrong output.
    #[test]
    fn every_workload_runs_clean() {
        for (name, workload) in WORKLOADS {
            let o = workload(&RunCfg {
                seed: 1,
                seconds: 0.5,
                traced: false,
                setup_reps: 1,
            });
            let metrics = end_to_end(&o);
            assert_eq!(metrics.len(), 5);
            for m in &metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{name} {}: {}",
                    m.name,
                    m.value
                );
            }
            assert_eq!(
                o.failed, 0,
                "{name}: {} of {} failed",
                o.failed, o.attempted
            );
            assert!(o.attempted > 0, "{name}");
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("setup_s", 0.25, "s"), metric("x", f64::NAN, "us")],
        };
        let v = json::parse(&r.json()).unwrap();
        let keys: Vec<&String> = v.obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        // A non-finite metric makes the run incorrect.
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(false)));
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .str(),
            Some("s")
        );
    }

    #[test]
    fn arguments_parse_the_command_line_interface() {
        let args: Vec<String> = "--workload mlp_infer --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&args).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("mlp_infer", 7, 3.0, true)
        );
        assert!(parse_args(&["--trace".into(), "2".into()]).is_none());
        assert!(parse_args(&["--seed".into(), "1".into()]).is_none());
    }
}
