//! One run of one workload: rounds until the measured phases add up to
//! `--seconds`, the output checks, and the metrics.
//!
//! An untraced run yields the end-to-end metrics, each the median over the
//! run's rounds. A traced run repeats the rounds with spans on (after one
//! untraced reference round) and yields the per-layer metrics; end-to-end
//! metrics are never taken from it.

use crate::probes;
use crate::spec::Spec;
use crate::stats::{highest_supported_percentile, median, min_max, percentile};
use crate::trace::{Span, Tracer};
use crate::workloads::{self, count, Counts, Params, Round, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Share of the measured phase the load generator may take (`bench.gen` +
/// `bench.verify` + the drive loop's self time) before a traced run fails.
pub const GENERATOR_SHARE_MAX: f64 = 0.15;
/// Share of the measured phase the recorded boundary calls must cover.
pub const ACCOUNTED_RATIO_MIN: f64 = 0.85;
/// How far the recorder's calibrated price per span may be off: between two
/// calibrations of one run it moves by ~±20 %, and in a loop that misses the
/// caches it costs more than in the calibration's tight one. The two shares
/// above are only known to within `spans × price × this`, and a traced run
/// fails only when a share is out of bounds by more than that.
pub const PRICE_UNCERTAINTY: f64 = 0.3;

/// Every count a workload may read from a layer's public stats. A workload
/// without that layer reports 0.
const LAYER_COUNTS: &[&str] = &[
    "alf-core.tus_sent",
    "alf-core.control_sent",
    "alf-core.adus_retransmitted",
    "alf-core.tus_retransmitted_selective",
    "alf-core.retx_ratio",
    "alf-core.adus_delivered_out_of_order",
    "alf-core.bad_messages",
    "alf-core.assembler.duplicate_tus",
    "alf-core.assembler.zero_copy_releases",
    "alf-core.assembler.gathered_bytes",
    "alf-core.timer.inserts",
    "alf-core.timer.fired",
    "alf-core.timer.entries_examined",
    "alf-core.reassembly_peak_bytes",
    "alf-core.retransmit_buffer_peak_bytes",
    "ct-netsim.frames_sent",
    "ct-netsim.fault_drops",
    "ct-netsim.congestion_drops",
    "ct-netsim.inbox_depth_max",
    "ct-server.batches",
    "ct-server.frames_per_batch",
    "ct-server.ingress_backlog_max",
    "ct-server.mem_bytes_per_assoc",
    "ct-transport.segments_out",
    "ct-transport.rto_retransmits",
    "ct-transport.ooo_bytes_peak",
];

/// Metrics computed on the simulator's clock.
const SIM_METRICS: &[&str] = &[
    "sim.latency_us_p50",
    "sim.latency_us_p99",
    "sim.goodput_mbps",
    "sim.wire_bytes_per_app_byte",
];

/// Whether a per-layer metric is simulator-deterministic: it must repeat
/// exactly for one seed, between rounds and between runs.
pub fn is_exact(name: &str) -> bool {
    LAYER_COUNTS.contains(&name) || SIM_METRICS.contains(&name)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Multiplies every op count; 1.0 except in tests.
    pub scale: f64,
    /// The checkout root (holds `BENCHMARK.json`).
    pub root: PathBuf,
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops offered over all measured rounds.
    pub attempted: u64,
    /// Ops not delivered-and-verified.
    pub failed: u64,
    /// `name → (value, unit)`, exactly the declared end-to-end metrics
    /// (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Human-readable report.
    pub report: String,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The contract's result line.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// A wall-clock figure of one round.
type RoundMetric = (&'static str, fn(&Reduced) -> f64);

/// The end-to-end metrics that are medians over a run's rounds.
const ROUND_METRICS: [RoundMetric; 4] = [
    ("setup_s", |r| r.setup_s),
    ("ops_per_s", |r| r.ops_per_s),
    ("goodput_MBps", |r| r.goodput_mbytes),
    ("op_wall_ns_p50", |r| r.wall_p50),
];
/// Printed beside them by untraced runs; a per-layer metric in traced ones.
const P99_ROW: RoundMetric = ("op_wall_ns_p99", |r| r.wall_p99);

/// What is kept of a round once its samples are reduced.
struct Reduced {
    setup_s: f64,
    wall_s: f64,
    ops_per_s: f64,
    goodput_mbytes: f64,
    wall_p50: f64,
    wall_p99: f64,
    wall_top: (f64, f64),
    /// Everything that must repeat exactly for one seed. Names starting
    /// with `_` are checked like the rest but are not metrics.
    exact: Counts,
    offered: u64,
    verified: u64,
    allocs_per_op: f64,
    alloc_bytes_per_op: f64,
}

fn reduce(mut r: Round) -> Reduced {
    r.wall_latency_ns.sort_unstable();
    r.sim_latency_ns.sort_unstable();
    let wall = |p| {
        if r.wall_latency_ns.is_empty() {
            0.0
        } else {
            f64::from(percentile(&r.wall_latency_ns, p))
        }
    };
    let sim_us = |p| {
        if r.sim_latency_ns.is_empty() {
            0.0
        } else {
            percentile(&r.sim_latency_ns, p) as f64 / 1e3
        }
    };
    let top = highest_supported_percentile(r.wall_latency_ns.len()).unwrap_or(50.0);
    let sim_s = r.sim_elapsed_ns as f64 / 1e9;
    let mut exact = r.counts;
    exact.extend([
        ("_ops_offered", r.offered as f64),
        ("_ops_verified", r.verified as f64),
        ("_app_bytes", r.app_bytes as f64),
        ("sim.latency_us_p50", sim_us(50.0)),
        ("sim.latency_us_p99", sim_us(99.0)),
        (
            "sim.goodput_mbps",
            r.app_bytes as f64 * 8.0 / 1e6 / sim_s.max(1e-12),
        ),
        (
            "sim.wire_bytes_per_app_byte",
            r.wire_bytes as f64 / (r.app_bytes as f64).max(1.0),
        ),
    ]);
    let ops = r.verified.max(1) as f64;
    Reduced {
        setup_s: r.setup_s,
        wall_s: r.wall_s,
        ops_per_s: r.verified as f64 / r.wall_s,
        goodput_mbytes: r.app_bytes as f64 / 1e6 / r.wall_s,
        wall_p50: wall(50.0),
        wall_p99: wall(99.0),
        wall_top: (top, wall(top)),
        exact,
        offered: r.offered,
        verified: r.verified,
        allocs_per_op: r.allocs as f64 / ops,
        alloc_bytes_per_op: r.alloc_bytes as f64 / ops,
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn per_round(rounds: &[Reduced], f: impl Fn(&Reduced) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

fn med(rounds: &[Reduced], f: impl Fn(&Reduced) -> f64) -> f64 {
    median(&per_round(rounds, f))
}

/// Run rounds until their measured phases add up to `seconds`.
fn run_rounds(
    w: &Workload,
    params: &Params,
    seconds: f64,
    tr: &mut Tracer,
    problems: &mut Vec<String>,
) -> Vec<Reduced> {
    let mut rounds: Vec<Reduced> = Vec::new();
    let mut measured = 0.0;
    loop {
        let r = reduce((w.round)(params, tr));
        measured += r.wall_s;
        if let Some(first) = rounds.first() {
            // Simulated metrics and layer counts are simulator-deterministic:
            // a round that disagrees with the first is a bug worth stopping for.
            for (a, b) in first.exact.iter().zip(&r.exact) {
                if a != b {
                    problems.push(format!(
                        "nondeterminism: {} was {} in round 1 and {} in round {}",
                        a.0,
                        a.1,
                        b.1,
                        rounds.len() + 1
                    ));
                }
            }
        }
        rounds.push(r);
        if measured >= seconds || !problems.is_empty() {
            break;
        }
    }
    rounds
}

fn check_outputs(w: &Workload, rounds: &[Reduced], problems: &mut Vec<String>) -> (u64, u64) {
    let attempted: u64 = rounds.iter().map(|r| r.offered).sum();
    let verified: u64 = rounds.iter().map(|r| r.verified).sum();
    if verified != attempted {
        problems.push(format!(
            "{} of {attempted} ops were not delivered and byte-verified",
            attempted - verified
        ));
    }
    let drops: f64 = rounds
        .iter()
        .map(|r| count(&r.exact, "ct-netsim.congestion_drops"))
        .sum();
    if w.paced && drops > 0.0 {
        problems.push(format!(
            "{drops} congestion drops on a paced link: the run measured queue overflow"
        ));
    }
    (attempted, attempted - verified)
}

/// Keep exactly the declared metrics, each with its declared unit; say so if
/// a declared metric was not measured.
fn declared(
    declared: &[crate::spec::Metric],
    mut measured: BTreeMap<String, f64>,
    problems: &mut Vec<String>,
) -> BTreeMap<String, (f64, String)> {
    let mut out = BTreeMap::new();
    for m in declared {
        match measured.remove(&m.name) {
            Some(v) => {
                out.insert(m.name.clone(), (v, m.unit.clone()));
            }
            None => problems.push(format!("declared metric {} was not measured", m.name)),
        }
    }
    for name in measured.keys() {
        problems.push(format!(
            "measured metric {name} is not declared in BENCHMARK.json"
        ));
    }
    out
}

/// Run one workload once.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = Spec::load(&args.root)?;
    crate::spec::check_release_profiles(&args.root)?;
    let w = workloads::find(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?}; one of {names:?}", args.workload)
    })?;
    if !spec.workloads.iter().any(|n| n == w.name) {
        return Err(format!("workload {} is not in BENCHMARK.json", w.name));
    }
    if args.trace {
        run_traced(args, &spec, w)
    } else {
        run_untraced(args, &spec, w)
    }
}

fn run_untraced(args: &Args, spec: &Spec, w: &Workload) -> Result<Outcome, String> {
    let params = Params {
        seed: args.seed,
        scale: args.scale,
        telemetry: None,
    };
    let mut problems = Vec::new();
    let rounds = run_rounds(w, &params, args.seconds, &mut Tracer::off(), &mut problems);
    let (attempted, failed) = check_outputs(w, &rounds, &mut problems);

    let mut measured: BTreeMap<String, f64> = ROUND_METRICS
        .iter()
        .map(|&(name, f)| (name.to_string(), med(&rounds, f)))
        .collect();
    measured.insert("peak_rss_mb".into(), peak_rss_mib()?);

    let mut report = format!(
        "{}: seed {}, {} rounds of {} ops, {:.2} s measured (median of rounds; min..max)\n",
        w.name,
        args.seed,
        rounds.len(),
        rounds[0].offered,
        rounds.iter().map(|r| r.wall_s).sum::<f64>(),
    );
    for (name, f) in ROUND_METRICS.into_iter().chain([P99_ROW]) {
        let values = per_round(&rounds, f);
        let (lo, hi) = min_max(&values);
        let _ = writeln!(
            report,
            "  {name:<18} {:>14.4}   ({lo:.4} .. {hi:.4})",
            median(&values)
        );
    }
    let (top, _) = rounds[0].wall_top;
    let _ = writeln!(
        report,
        "  op_wall_ns_p{top:<6} {:>14.1}   (highest percentile with >= 10 samples beyond it; {} samples per round)\n  (the two tail rows are printed, not end-to-end metrics: p99 moves 10-25 % from run to run on this host)",
        med(&rounds, |r| r.wall_top.1),
        rounds[0].verified,
    );
    for name in SIM_METRICS {
        let _ = writeln!(
            report,
            "  {name:<28} {:>14.4}   (exact per seed; a per-layer metric)",
            count(&rounds[0].exact, name)
        );
    }

    let metrics = declared(&spec.end_to_end, measured, &mut problems);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        report,
        problems,
    })
}

/// "Who did the work": one row per span that ran, busiest first.
/// (`ct-server.add_association` runs in set-up, outside the run: its "share"
/// is only a size relative to the run.)
fn span_table(tr: &Tracer, rounds: f64, run_ns: f64) -> String {
    let mut table = format!(
        "  {:<36} {:>7} {:>12} {:>10} {:>11} {:>10}\n",
        "span", "share", "calls/round", "ns/call", "allocs/call", "p99 ns <",
    );
    let mut spans: Vec<Span> = Span::ALL
        .iter()
        .copied()
        .filter(|&s| s != Span::Run && tr.agg(s).calls > 0)
        .collect();
    spans.sort_by_key(|&s| std::cmp::Reverse(tr.agg(s).busy));
    for s in spans {
        let a = tr.agg(s);
        let _ = writeln!(
            table,
            "  {:<36} {:>6.1}% {:>12.0} {:>10.1} {:>11.2} {:>10}",
            s.name(),
            100.0 * tr.busy_ns(s) / run_ns,
            a.calls as f64 / rounds,
            tr.busy_ns(s) / a.calls as f64,
            a.allocs as f64 / a.calls as f64,
            tr.duration_bound_ns(s, 99.0),
        );
    }
    table
}

fn run_traced(args: &Args, spec: &Spec, w: &Workload) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let telemetry = ct_telemetry::Telemetry::new();
    let params = Params {
        seed: args.seed,
        scale: args.scale,
        telemetry: Some(telemetry.clone()),
    };
    let mut tr = Tracer::on(args.seed);
    let rounds = run_rounds(w, &params, args.seconds, &mut tr, &mut problems);
    // Reference for the tracing overhead: one untraced round, run last so
    // that it is as warm as the traced rounds were.
    let plain = Params {
        telemetry: None,
        ..params
    };
    let reference = reduce((w.round)(&plain, &mut Tracer::off()));
    let (attempted, failed) = check_outputs(w, &rounds, &mut problems);
    let delivered: f64 = rounds.iter().map(|r| count(&r.exact, "_app_bytes")).sum();
    telemetry.ledger().deliver(delivered as u64);

    let mut measured: BTreeMap<String, f64> = BTreeMap::new();
    let n = rounds.len() as f64;
    for &span in Span::ALL.iter().filter(|&&s| s != Span::Run) {
        let agg = tr.agg(span);
        // Per round, so a longer run does not read as a busier layer.
        measured.insert(format!("{}.busy_ns", span.name()), tr.busy_ns(span) / n);
        measured.insert(format!("{}.calls", span.name()), agg.calls as f64 / n);
        if span.on_frame_path() {
            measured.insert(format!("{}.allocs", span.name()), agg.allocs as f64 / n);
        }
    }
    // Layer counts: exact per seed, identical in every round — the first's.
    for &(name, v) in rounds[0].exact.iter().filter(|(n, _)| !n.starts_with('_')) {
        measured.insert(name.to_string(), v);
    }
    // A layer this workload does not use reports 0, not nothing.
    for name in LAYER_COUNTS {
        measured.entry(name.to_string()).or_insert(0.0);
    }
    measured.insert(
        "ct-telemetry.passes_per_byte".into(),
        telemetry.ledger().passes_per_delivered_byte(),
    );
    measured.insert("allocs_per_op".into(), med(&rounds, |r| r.allocs_per_op));
    measured.insert(
        "alloc_bytes_per_op".into(),
        med(&rounds, |r| r.alloc_bytes_per_op),
    );

    // Shares are of the run with the recorder's own (calibrated) cost taken
    // out; the overhead ratio is of the run as it was.
    let (children_ns, self_ns) = tr.breakdown_ns();
    let run_ns = (children_ns + self_ns).max(1.0);
    let accounted = children_ns / run_ns;
    let generator = (self_ns + tr.busy_ns(Span::Gen) + tr.busy_ns(Span::Verify)) / run_ns;
    let traced_ns_per_op = tr.agg(Span::Run).busy as f64
        / rounds.iter().map(|r| r.verified).sum::<u64>().max(1) as f64;
    let plain_ns_per_op = reference.wall_s * 1e9 / reference.verified.max(1) as f64;
    let (cost_in, cost_out) = tr.span_cost_ns();
    let nested: u64 = Span::ALL
        .iter()
        .filter(|&&s| s != Span::Run && s != Span::AddAssociation)
        .map(|&s| tr.agg(s).calls)
        .sum();
    let slack = nested as f64 * (cost_in + cost_out) * PRICE_UNCERTAINTY / run_ns;
    // The tail of the per-op wall latency, from the untraced reference round:
    // too unsteady on this host to carry an end-to-end bound.
    measured.insert("op_wall_ns_p99".into(), reference.wall_p99);
    measured.insert("trace.span_cost_ns".into(), cost_in + cost_out);
    measured.insert("trace.loop_self_ns".into(), self_ns / n);
    measured.insert("trace.accounted_ratio".into(), accounted);
    measured.insert(
        "trace.overhead_ratio".into(),
        traced_ns_per_op / plain_ns_per_op,
    );
    // The design checks hold for the real op counts; a scaled-down smoke run
    // is all set-up and no steady state.
    if args.scale >= 1.0 {
        if accounted + slack < ACCOUNTED_RATIO_MIN {
            problems.push(format!(
                "trace.accounted_ratio {accounted:.3} ± {slack:.3} < {ACCOUNTED_RATIO_MIN}: the boundary calls do not cover the run"
            ));
        }
        if generator - slack > GENERATOR_SHARE_MAX {
            problems.push(format!(
                "load generator (bench.gen + bench.verify + loop self) is {generator:.3} ± {slack:.3} of the run, over {GENERATOR_SHARE_MAX}"
            ));
        }
    }

    let window = Duration::from_secs_f64(0.04 * args.scale.min(1.0));
    for (name, v) in probes::run(args.seed, window) {
        measured.insert(name.to_string(), v);
    }

    let dir = args.root.join("benchmark/results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.trace.jsonl", w.name));
    std::fs::write(&path, tr.records_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut report = format!(
        "{}: traced, seed {}, {} rounds; {} sampled span records in {}\n{}",
        w.name,
        args.seed,
        rounds.len(),
        tr.records().len(),
        path.display(),
        span_table(&tr, n, run_ns),
    );
    let _ = writeln!(
        report,
        "  {:<36} {:>6.1}%\n  accounted {accounted:.3}, generator share {generator:.3}, both ± {slack:.3}: the recorder's {cost_in:.0}+{cost_out:.0} ns/span is taken out of every share above and is known to ±{:.0} %\n  traced run {:.3}x the untraced ({traced_ns_per_op:.0} vs {plain_ns_per_op:.0} ns/op)",
        "(drive loop: run self time)",
        100.0 * self_ns / run_ns,
        100.0 * PRICE_UNCERTAINTY,
        traced_ns_per_op / plain_ns_per_op,
    );

    let metrics = declared(&spec.per_layer, measured, &mut problems);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        report,
        problems,
    })
}
