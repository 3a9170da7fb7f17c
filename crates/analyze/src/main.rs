//! The `smm-analyze` CLI: run the kernel-contract verifier and the
//! source invariant linter over the workspace and exit non-zero on
//! findings.
//!
//! ```text
//! smm-analyze [--json] [--deny-warnings] [--only kernels|lint]
//!             [--root PATH] [--kc N] [--min-chain-frac F]
//!             [--isa neon128|sve256|sve512|avx2|avx512] [--self-check]
//! smm-analyze concurrency [--json] [--deny-warnings] [--root PATH]
//!             [--model-check] [--bound N] [--self-check]
//! ```
//!
//! The `concurrency` subcommand runs the cross-file atomic-ordering
//! dataflow pass (`AN-C*`); `--model-check` additionally runs the
//! exhaustive-schedule explorer over the real runtime protocols when
//! the binary was built with `RUSTFLAGS='--cfg smm_model_check'`.
//!
//! Exit codes: `0` clean, `1` warnings under `--deny-warnings`,
//! `2` errors (or bad usage).

use std::path::PathBuf;
use std::process::ExitCode;

use smm_analyze::fixtures::{concurrency_self_check, self_check};
use smm_analyze::lint::lint_workspace;
use smm_analyze::report::Severity;
use smm_analyze::{ordering, verify_all, Report, VerifyConfig};

struct Options {
    concurrency: bool,
    json: bool,
    deny_warnings: bool,
    kernels: bool,
    lint: bool,
    self_check: bool,
    model_check: bool,
    bound: usize,
    root: Option<PathBuf>,
    cfg: VerifyConfig,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            concurrency: false,
            json: false,
            deny_warnings: false,
            kernels: true,
            lint: true,
            self_check: false,
            model_check: false,
            bound: 3,
            root: None,
            cfg: VerifyConfig::default(),
        }
    }
}

const USAGE: &str = "usage: smm-analyze [--json] [--deny-warnings] [--only kernels|lint] \
                     [--root PATH] [--kc N] [--min-chain-frac F] \
                     [--isa neon128|sve256|sve512|avx2|avx512] [--self-check]\n\
                     \x20      smm-analyze concurrency [--json] [--deny-warnings] [--root PATH] \
                     [--model-check] [--bound N] [--self-check]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("concurrency") {
        opts.concurrency = true;
        args.next();
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--self-check" => opts.self_check = true,
            "--model-check" if opts.concurrency => opts.model_check = true,
            "--bound" if opts.concurrency => {
                let v = args.next().ok_or("--bound expects a number")?;
                opts.bound = v.parse().map_err(|e| format!("bad --bound {v:?}: {e}"))?;
            }
            "--only" => match args.next().as_deref() {
                Some("kernels") => opts.lint = false,
                Some("lint") => opts.kernels = false,
                other => return Err(format!("--only expects kernels|lint, got {other:?}")),
            },
            "--root" => {
                let p = args.next().ok_or("--root expects a path")?;
                opts.root = Some(PathBuf::from(p));
            }
            "--kc" => {
                let v = args.next().ok_or("--kc expects a number")?;
                opts.cfg.kc = v.parse().map_err(|e| format!("bad --kc {v:?}: {e}"))?;
            }
            "--min-chain-frac" => {
                let v = args.next().ok_or("--min-chain-frac expects a number")?;
                opts.cfg.min_chain_fraction = v
                    .parse()
                    .map_err(|e| format!("bad --min-chain-frac {v:?}: {e}"))?;
            }
            "--isa" => {
                let v = args
                    .next()
                    .ok_or("--isa expects neon128|sve256|sve512|avx2|avx512")?;
                opts.cfg.isa = smm_model::VectorIsa::by_name(&v).ok_or_else(|| {
                    format!("unknown ISA {v:?} (neon128|sve256|sve512|avx2|avx512)")
                })?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Walk up from the current directory to the workspace root (the
/// first ancestor whose `Cargo.toml` declares `[workspace]`).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Run the exhaustive-schedule explorer, or explain how to get it.
#[cfg(smm_model_check)]
fn model_check(bound: usize) -> Report {
    smm_analyze::mc::run_all(bound)
}

/// In an uninstrumented binary the explorer has nothing to hook, so
/// `--model-check` reports how to build one instead of silently
/// skipping the dynamic half.
#[cfg(not(smm_model_check))]
fn model_check(_bound: usize) -> Report {
    let mut report = Report::new();
    report.push(smm_analyze::Finding::info(
        "AN-MC",
        "model-check",
        "this binary uses the real std facade; rebuild with \
         RUSTFLAGS='--cfg smm_model_check' to run the exhaustive-schedule explorer",
    ));
    report
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("smm-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    let mut report = Report::new();
    if opts.concurrency {
        if opts.self_check {
            report.merge(concurrency_self_check());
        } else {
            let root = opts.root.clone().or_else(find_workspace_root);
            match root {
                Some(root) => report.merge(ordering::analyze_workspace(&root)),
                None => {
                    eprintln!("smm-analyze: no workspace root found (pass --root)");
                    return ExitCode::from(2);
                }
            }
            if opts.model_check {
                report.merge(model_check(opts.bound));
            }
        }
    } else if opts.self_check {
        report.merge(self_check(&opts.cfg));
    } else {
        if opts.kernels {
            report.merge(verify_all(&opts.cfg));
        }
        if opts.lint {
            let root = opts.root.clone().or_else(find_workspace_root);
            match root {
                Some(root) => report.merge(lint_workspace(&root)),
                None => {
                    eprintln!("smm-analyze: no workspace root found (pass --root)");
                    return ExitCode::from(2);
                }
            }
        }
    }

    if opts.json {
        print!("{}", report.to_json());
    } else {
        print!("{report}");
    }

    if report.count(Severity::Error) > 0 {
        ExitCode::from(2)
    } else if opts.deny_warnings && report.count(Severity::Warning) > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
