//! The whole benchmark in one command, and the comparison of two such runs.
//!
//! `suite` runs every workload `reps` times untraced and once traced, each
//! run in its own single-threaded child process, one after another (so
//! `peak_rss_mb` is per workload and nothing contends), prints every metric
//! by name with its unit and sample count, and writes
//! `benchmark/results/<stamp>.json`. `compare` applies each end-to-end
//! metric's bound and direction to two such files.

use crate::runner::is_exact;
use crate::spec::{Metric, Spec};
use crate::stats::{median, min_max, spread};
use ct_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What `suite` is given.
#[derive(Debug, Clone)]
pub struct Args {
    /// Input seed for every run.
    pub seed: u64,
    /// Seconds each run measures; `BENCHMARK.json`'s `run_seconds` if unset.
    pub seconds: Option<f64>,
    /// Untraced runs per workload.
    pub reps: usize,
    /// The checkout root.
    pub root: PathBuf,
}

/// One child run's result line.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Parse the contract's result line. The workspace's JSON subset has no
/// booleans, and `correct` is the line's only one.
fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let correct = line.contains("\"correct\": true");
    let line = line
        .replacen("\"correct\": true", "\"correct\": 1", 1)
        .replacen("\"correct\": false", "\"correct\": 0", 1);
    let v = json::parse(&line).map_err(|e| format!("result line: {e}"))?;
    let JsonValue::Obj(fields) = v.get("metrics").ok_or("result line: no metrics")? else {
        return Err("result line: metrics is not an object".into());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("result line: {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult { correct, metrics })
}

fn run_child(
    args: &Args,
    seconds: f64,
    workload: &str,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--root")
        .arg(&args.root)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if line.is_empty() {
        return Err(format!("{workload}: no result ({})", out.status));
    }
    let mut result = parse_result_line(line)?;
    result.correct &= out.status.success();
    Ok(result)
}

/// Run the suite. `Ok(false)` when any run failed a check.
pub fn run(args: &Args) -> Result<bool, String> {
    let spec = Spec::load(&args.root)?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let mut all_correct = true;
    // workload → metric → one value per rep (per-layer: one value).
    let mut end_to_end: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut per_layer: BTreeMap<&str, BTreeMap<String, f64>> = BTreeMap::new();

    for w in &spec.workloads {
        for _ in 0..args.reps {
            let r = run_child(args, seconds, w, false)?;
            all_correct &= r.correct;
            for (name, v) in r.metrics {
                end_to_end
                    .entry(w)
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(v);
            }
        }
        let r = run_child(args, seconds, w, true)?;
        all_correct &= r.correct;
        per_layer.insert(w, r.metrics);
    }

    println!(
        "== end-to-end: median of {} untraced runs (min .. max), seed {}, {seconds} s each ==",
        args.reps, args.seed
    );
    for m in &spec.end_to_end {
        for w in &spec.workloads {
            let Some(v) = end_to_end.get(w.as_str()).and_then(|e| e.get(&m.name)) else {
                continue;
            };
            let (lo, hi) = min_max(v);
            println!(
                "{:<16} {:<14} {:>16.4} {:<6} ({lo:.4} .. {hi:.4}; n={})",
                m.name,
                w,
                median(v),
                m.unit,
                v.len()
            );
        }
    }
    println!("== per-layer: one traced run each (n=1) ==");
    print!("{:<48} {:<6}", "metric", "unit");
    for w in &spec.workloads {
        print!(" {w:>14}");
    }
    println!();
    for m in &spec.per_layer {
        print!("{:<48} {:<6}", m.name, m.unit);
        for w in &spec.workloads {
            match per_layer.get(w.as_str()).and_then(|p| p.get(&m.name)) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }

    let mut doc = format!(
        "{{\"seed\": {}, \"seconds\": {seconds}, \"reps\": {}, \"correct\": {}, \"workloads\": {{",
        args.seed,
        args.reps,
        u8::from(all_correct)
    );
    for (i, w) in spec.workloads.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(doc, "{sep}\n  \"{w}\": {{\"end_to_end\": {{");
        let e2e = end_to_end.get(w.as_str()).cloned().unwrap_or_default();
        for (j, (name, v)) in e2e.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let list: Vec<String> = v.iter().map(f64::to_string).collect();
            let _ = write!(doc, "{sep}\"{name}\": [{}]", list.join(", "));
        }
        doc.push_str("}, \"per_layer\": {");
        let layers = per_layer.get(w.as_str()).cloned().unwrap_or_default();
        for (j, (name, v)) in layers.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(doc, "{sep}\"{name}\": {v}");
        }
        doc.push_str("}}");
    }
    doc.push_str("\n}}\n");
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_err(|e| e.to_string())?
        .as_secs();
    let dir = args.root.join("benchmark/results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{stamp}.json"));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn load_results(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn rep_values(doc: &JsonValue, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .as_arr()?
        .iter()
        .map(JsonValue::as_f64)
        .collect()
}

/// The verdict on one (metric, workload) row: `b` against base `a`.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> (&'static str, f64, f64) {
    let bound = m.bound.unwrap_or(0.0);
    let (base, new) = (median(a), median(b));
    // Positive = worse, as a share of the base.
    let worse = if m.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    };
    let noise = spread(a).max(spread(b));
    let word = if noise > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else {
        "ok"
    };
    (word, worse, noise)
}

/// Compare suite results `b` against base `a`. `Ok(false)` when any row is
/// `regressed` or `unresolved`.
pub fn compare(root: &Path, a: &str, b: &str) -> Result<bool, String> {
    let spec = Spec::load(root)?;
    let (doc_a, doc_b) = (load_results(a)?, load_results(b)?);
    let mut clean = true;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "metric", "workload", "base median", "new median", "worse by", "spread", "bound"
    );
    for m in &spec.end_to_end {
        for w in &spec.workloads {
            let (Some(va), Some(vb)) = (
                rep_values(&doc_a, w, &m.name),
                rep_values(&doc_b, w, &m.name),
            ) else {
                println!("{:<16} {:<14} missing in one of the files", m.name, w);
                clean = false;
                continue;
            };
            let (word, worse, noise) = verdict(m, &va, &vb);
            clean &= word == "ok";
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.1}%  {word}",
                m.name,
                w,
                median(&va),
                median(&vb),
                100.0 * worse,
                100.0 * noise,
                100.0 * m.bound.unwrap_or(0.0),
            );
        }
    }
    // Simulated metrics and layer counts repeat exactly for one seed: any
    // difference is a behaviour change, whatever the clock says.
    let mut differing = 0;
    for w in &spec.workloads {
        for m in spec.per_layer.iter().filter(|m| is_exact(&m.name)) {
            let get = |doc: &JsonValue| {
                doc.get("workloads")?
                    .get(w)?
                    .get("per_layer")?
                    .get(&m.name)?
                    .as_f64()
            };
            let (x, y) = (get(&doc_a), get(&doc_b));
            if x != y {
                differing += 1;
                println!("exact count differs: {} on {w}: {x:?} -> {y:?}", m.name);
            }
        }
    }
    println!("{differing} simulator-exact per-layer values differ");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdict_applies_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0];
        // Throughput down 2 %: inside a 5 % bound.
        assert_eq!(
            verdict(&metric(true, 0.05), &base, &[98.0, 98.5, 97.5]).0,
            "ok"
        );
        // Down 10 %.
        assert_eq!(
            verdict(&metric(true, 0.05), &base, &[90.0, 90.5, 89.5]).0,
            "regressed"
        );
        // Up 10 % is not a regression for throughput, and is one for latency.
        assert_eq!(
            verdict(&metric(true, 0.05), &base, &[110.0, 110.5, 109.5]).0,
            "ok"
        );
        assert_eq!(
            verdict(&metric(false, 0.05), &base, &[110.0, 110.5, 109.5]).0,
            "regressed"
        );
        // Spread wider than the bound: cannot say.
        assert_eq!(
            verdict(&metric(true, 0.05), &base, &[80.0, 100.0, 120.0]).0,
            "unresolved"
        );
    }

    #[test]
    fn result_line_round_trips() {
        let r = parse_result_line(
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "x": {"value": 3, "unit": "count"}}}"#,
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!(r.metrics["setup_s"], 0.25);
        assert_eq!(r.metrics["x"], 3.0);
        assert!(
            !parse_result_line(r#"{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}"#)
                .unwrap()
                .correct
        );
    }
}
