//! `benchmark compare <parent-dir> <change-dir>`: for every workload and
//! end-to-end metric, the median and quartiles of each side's runs, the
//! share of run pairs the change wins, and a verdict against the bounds
//! in `BENCHMARK.json`:
//!
//! * `improved` — every change run beats every parent run, or the change
//!   wins at least nine tenths of the pairs and the medians differ by
//!   more than the parent's quartile spread;
//! * `unresolved` — otherwise, when the parent's own spread is wider
//!   than the bound;
//! * `regressed` — the change's median is worse than the parent's by
//!   more than the bound;
//! * `within bound` — everything else.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{quartiles, sorted};

/// Absolute floor under the `setup_s` bound: set-up differences below
/// 20 ms are not regressions whatever their share.
const SETUP_FLOOR_S: f64 = 0.02;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .arr()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Untraced result files of one directory: workload → metric → values,
/// ordered by (seed, file name) so runs pair up across directories.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<(u64, String, Json)> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if name.is_none_or(|n| !n.ends_with(".json") || n.ends_with(".trace.json")) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(v) = json::parse(&text) else {
            continue;
        };
        if v.get("traced") != Some(&Json::Bool(false)) || v.get("workload").is_none() {
            continue;
        }
        let seed = v.get("seed").and_then(Json::num).unwrap_or(0.0) as u64;
        files.push((seed, path.display().to_string(), v));
    }
    files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut runs = Runs::new();
    for (_, _, v) in files {
        let workload = v
            .get("workload")
            .and_then(Json::str)
            .unwrap_or("?")
            .to_string();
        let metrics = v.get("metrics").and_then(Json::obj).into_iter().flatten();
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::num) {
                runs.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(runs)
}

pub struct Row {
    pub verdict: &'static str,
    pub line: String,
}

fn verdict(b: &Bound, parent: &[f64], change: &[f64]) -> Row {
    let (ps, cs) = (sorted(parent.to_vec()), sorted(change.to_vec()));
    let ([p1, pm, p3], [c1, cm, c3]) = (quartiles(&ps), quartiles(&cs));
    let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let share = wins as f64 / pairs.max(1) as f64;
    let every = cs.iter().all(|&c| ps.iter().all(|&p| better(c, p)));
    let spread = (p3 - p1) / pm.abs();
    let worse = if b.lower_is_better { cm - pm } else { pm - cm };
    let floor = if b.name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    let verdict = if every || (share >= 0.9 && (cm - pm).abs() > p3 - p1) {
        "improved"
    } else if spread > b.bound {
        "unresolved"
    } else if worse > b.bound * pm.abs() && worse > floor {
        "regressed"
    } else {
        "within bound"
    };
    Row {
        verdict,
        line: format!(
            "{:<16} {:>12.4} {:<25} {:>12.4} {:<25} {:>+8.2}% {:>5.2} {:>6.1}% {}",
            b.name,
            pm,
            format!("[{p1:.4}, {p3:.4}]"),
            cm,
            format!("[{c1:.4}, {c3:.4}]"),
            (cm - pm) / pm.abs() * 100.0,
            share,
            b.bound * 100.0,
            verdict
        ),
    }
}

/// Compare two directories of result files; the text report and
/// whether anything regressed.
pub fn compare(parent: &Path, change: &Path, spec_path: &Path) -> Result<(String, bool), String> {
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let bounds = bounds(&json::parse(&spec_text)?)?;
    let (p, c) = (load(parent)?, load(change)?);
    let mut out = String::new();
    let mut regressed = false;
    for (workload, pm) in &p {
        let Some(cm) = c.get(workload) else {
            out.push_str(&format!("{workload}: no runs in {}\n", change.display()));
            continue;
        };
        out.push_str(&format!(
            "== {workload} ({} parent runs, {} change runs)\n{:<16} {:>12} {:<25} {:>12} {:<25} {:>9} {:>5} {:>7} verdict\n",
            pm.values().next().map_or(0, Vec::len),
            cm.values().next().map_or(0, Vec::len),
            "metric",
            "parent",
            "[q1, q3]",
            "change",
            "[q1, q3]",
            "delta",
            "wins",
            "bound"
        ));
        for b in &bounds {
            match (pm.get(&b.name), cm.get(&b.name)) {
                (Some(pv), Some(cv)) if !pv.is_empty() && !cv.is_empty() => {
                    let row = verdict(b, pv, cv);
                    regressed |= row.verdict == "regressed";
                    out.push_str(&row.line);
                    out.push('\n');
                }
                _ => out.push_str(&format!("{:<16} missing\n", b.name)),
            }
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 99.8, 100.1, 99.9, 100.0];
        assert_eq!(
            verdict(&bound(true, 0.1), &parent, &same).verdict,
            "within bound"
        );
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&bound(true, 0.1), &parent, &slower).verdict,
            "regressed"
        );
        // Higher is better: the same numbers are an improvement.
        assert_eq!(
            verdict(&bound(false, 0.1), &parent, &slower).verdict,
            "improved"
        );
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&bound(true, 0.1), &noisy, &slower).verdict,
            "unresolved"
        );
    }
}
