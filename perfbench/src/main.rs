//! The gmfnet benchmark: four closed-loop workloads, one client each, with
//! every result checked against the repository's oracles.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <metro_admission|holistic_cold|survivability_sweep|sim_ring|all> \
//!     [--seed N] [--workload-seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--workload-seed` draws the network a workload runs on (defaults: the
//! E14 metro seed 1408 and the E16 ring seed 1608); `--seed` draws what a
//! client sends over it (candidates, corpus members, traffic phases,
//! scenario order).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
//! once untraced and once with spans around every call into the library,
//! and prints the per-layer metrics plus the tracing overhead.  The last
//! line of stdout is one JSON object; deterministic counters go to stderr
//! and never mix with timings.  End-to-end timings are scaled to a
//! reference host speed by an interleaved yardstick (`stats::HostSpeed`).
//! The exit code is non-zero when any oracle check fails or a counter
//! differs between the two counter passes.
//!
//! See `DESIGN.md` next to this file for why each workload exists, which
//! layer it exercises and which it bypasses.

mod holistic;
mod metro;
mod sim;
mod stats;
mod survive;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("pass_s", "s"),
];

/// Per-layer metrics of the traced run.  A layer a workload bypasses
/// reports 0 there (see DESIGN.md for the workload each one belongs to).
const PER_LAYER: [(&str, &str); 57] = [
    ("model.demand_table_build_ns", "ns"),
    ("model.tables", "count"),
    ("model.table_windows", "count"),
    ("context.build_us", "us"),
    ("context.trial_build_us", "us"),
    ("context.terms", "count"),
    ("fixed_point.iterate_us", "us"),
    ("fixed_point.rounds", "count"),
    ("fixed_point.flow_analyses", "count"),
    ("fixed_point.ns_per_flow_analysis", "ns"),
    ("admission.flow_analyses_per_decision", "count"),
    ("admission.rounds_per_decision", "count"),
    ("admission.trial_flows_p50", "count"),
    ("admission.warm_share", "ratio"),
    ("admission.ns_per_flow_analysis", "ns"),
    ("admission.bookkeeping_share_est", "ratio"),
    ("admission.release_us", "us"),
    ("admission.preload_flow_analyses", "count"),
    ("admission.preload_shards", "count"),
    ("net.subset_us", "us"),
    ("deps.graph_build_us", "us"),
    ("net.survivor_us", "us"),
    ("net.reroute_us", "us"),
    ("resilience.cold_verdict_ms", "ms"),
    ("resilience.incremental_over_cold", "ratio"),
    ("resilience.reverified_per_scenario", "count"),
    ("resilience.flow_analyses_per_scenario", "count"),
    ("sim.ns_per_event", "ns"),
    ("event.hold_ns", "ns"),
    ("sim.handler_ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.packets", "count"),
    ("sim.max_pending", "count"),
    ("sim.buckets_opened", "count"),
    ("sim.pool_reuses", "count"),
    ("self.admission_ms_per_op", "ms"),
    ("self.analysis_ms_per_op", "ms"),
    ("self.context_ms_per_op", "ms"),
    ("self.model_ms_per_op", "ms"),
    ("self.fixed_point_ms_per_op", "ms"),
    ("self.net_ms_per_op", "ms"),
    ("self.deps_ms_per_op", "ms"),
    ("self.resilience_ms_per_op", "ms"),
    ("self.sim_ms_per_op", "ms"),
    ("self.event_ms_per_op", "ms"),
    ("trace.spans_per_op", "count"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.traced_op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("host.yardstick_ms", "ms"),
    ("host.speed_factor", "ratio"),
    ("host.raw_op_p50_ms", "ms"),
    ("counters.checked", "count"),
    ("oracle.checked", "count"),
    ("ops.untraced", "count"),
    ("ops.traced", "count"),
];

/// The layers whose self time the traced run reports: span layer name and
/// the per-layer metric it feeds.
const SELF_TIME: [(&str, &str); 10] = [
    ("admission", "self.admission_ms_per_op"),
    ("analysis", "self.analysis_ms_per_op"),
    ("context", "self.context_ms_per_op"),
    ("model", "self.model_ms_per_op"),
    ("fixed_point", "self.fixed_point_ms_per_op"),
    ("net", "self.net_ms_per_op"),
    ("deps", "self.deps_ms_per_op"),
    ("resilience", "self.resilience_ms_per_op"),
    ("sim", "self.sim_ms_per_op"),
    ("event", "self.event_ms_per_op"),
];

const WORKLOADS: [&str; 4] = [
    "metro_admission",
    "holistic_cold",
    "survivability_sweep",
    "sim_ring",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    /// Seed of the client's inputs.
    pub seed: u64,
    /// Seed of the network, when not the workload's default.
    pub workload_seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        workload_seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload-seed" => {
                args.workload_seed = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--workload-seed: {e}"))?,
                )
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the timed calls).
    pub attempted: u64,
    /// Operations that failed or disagreed with their oracle, plus any
    /// counter mismatch between passes.
    pub failed: u64,
    /// Why each failure happened (printed to stderr).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Host speed, sampled alongside the timed calls.
    pub speed: stats::HostSpeed,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record one oracle check; `problem` is `Some` on a mismatch.
    pub fn check(&mut self, problem: Option<String>) {
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(problem);
            }
        }
    }

    /// Record timed operations that all succeeded.
    pub fn succeeded(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Compare two passes of deterministic counters; any difference is a
    /// failure.
    pub fn compare_counters(&mut self, label: &str, a: &Counters, b: &Counters) {
        let problem = (a != b).then(|| format!("{label}: counters differ: {a:?} vs {b:?}"));
        self.check(problem);
        self.set("counters.checked", a.len() as f64);
        for (name, value) in a {
            eprintln!("counter {name} {value}");
        }
    }

    /// The end-to-end timings of the untraced phase, from each timed
    /// call's measured (`raw`) and host-speed-scaled seconds; `tail` is the
    /// reported quantile and `passes` the scaled seconds per pass.
    pub fn timings(&mut self, raw: &[f64], scaled: &[f64], tail: f64, passes: &[f64]) {
        self.set("host.raw_op_p50_ms", stats::median(raw) * 1e3);
        self.set("op_p50_ms", stats::median(scaled) * 1e3);
        self.set("op_tail_ms", stats::quantile(scaled, tail) * 1e3);
        self.set(
            "ops_per_s",
            scaled.len() as f64 / scaled.iter().sum::<f64>(),
        );
        self.set("pass_s", stats::median(passes));
        self.set("ops.untraced", scaled.len() as f64);
    }

    /// Per-layer self times and tracing overhead of the traced phase, whose
    /// timed calls took `scaled` seconds (host-speed-scaled).
    pub fn layer_summary(&mut self, summary: &trace::Summary, scaled: &[f64]) {
        let ops = scaled.len().max(1) as f64;
        for (layer, metric) in SELF_TIME {
            let self_ns = summary.self_ns.get(layer).copied().unwrap_or(0);
            self.set(metric, self_ns as f64 / 1e6 / ops);
        }
        let spans: usize = summary.by_name.values().map(Vec::len).sum();
        self.set("trace.spans_per_op", spans as f64 / ops);
        let untraced = self.metrics.get("op_p50_ms").copied().unwrap_or(0.0);
        let traced = stats::median(scaled) * 1e3;
        self.set("trace.untraced_op_p50_ms", untraced);
        self.set("trace.traced_op_p50_ms", traced);
        self.set("trace.overhead_ms", traced - untraced);
        self.set("trace.overhead_share", (traced - untraced) / untraced);
        self.set("ops.traced", scaled.len() as f64);
    }
}

/// Deterministic counters, compared exactly across passes.
pub type Counters = BTreeMap<&'static str, u64>;

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("trace")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    for _ in 0..3 {
        outcome.speed.sample();
    }
    match name {
        "metro_admission" => metro::run(args, &mut outcome),
        "holistic_cold" => holistic::run(args, &mut outcome),
        "survivability_sweep" => survive::run(args, &mut outcome),
        _ => sim::run(args, &mut outcome),
    }
    outcome.set("host.yardstick_ms", outcome.speed.median_ms());
    outcome.set("host.speed_factor", outcome.speed.factor());
    eprintln!(
        "host: yardstick {} ms (speed factor {}), unscaled op p50 {} ms",
        outcome.speed.median_ms(),
        outcome.speed.factor(),
        outcome
            .metrics
            .get("host.raw_op_p50_ms")
            .copied()
            .unwrap_or(0.0)
    );
    outcome.set("peak_rss_mb", stats::peak_rss_mb());
    outcome
}

/// The metrics a run prints: every end-to-end metric with `--trace 0`,
/// every per-layer metric with `--trace 1`.
fn selected(
    outcome: &Outcome,
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(&v) => v,
                // Layers the workload bypasses did no work.
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() || (!trace && value <= 0.0) {
                return Err(format!("metric {name} = {value} is not a positive number"));
            }
            Ok((name, value, unit))
        })
        .collect()
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut printed: Vec<(String, f64, &str)> = Vec::new();
    let mut broken = false;
    for name in &names {
        let outcome = run_workload(name, &args);
        attempted += outcome.attempted;
        failed += outcome.failed;
        for failure in &outcome.failures {
            eprintln!("FAILED [{name}]: {failure}");
        }
        println!(
            "{name}: attempted {} failed {} error_rate {}",
            outcome.attempted,
            outcome.failed,
            outcome.failed as f64 / outcome.attempted.max(1) as f64
        );
        match selected(&outcome, args.trace) {
            Ok(metrics) => {
                for (metric, value, unit) in metrics {
                    println!("{name}: {metric} = {value} {unit}");
                    let key = if names.len() > 1 {
                        format!("{name}/{metric}")
                    } else {
                        metric.to_string()
                    };
                    printed.push((key, value, unit));
                }
            }
            Err(e) => {
                eprintln!("error [{name}]: {e}");
                broken = true;
            }
        }
    }
    let correct = failed == 0 && attempted > 0 && !broken;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&printed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
