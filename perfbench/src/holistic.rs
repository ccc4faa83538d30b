//! `holistic_cold`: cold `analyze` over a fixed seeded corpus of deep
//! lines, synthetic stars and fuzz networks.  Almost all of the time is
//! the jitter fixed point and its per-frame kernel; admission is bypassed.

use crate::stats::{mean, median, timed};
use crate::{trace, Args, Counters, Outcome};
use gmf_analysis::{
    analyze, analyze_reference, iterate_from, AnalysisConfig, AnalysisContext, AnalysisReport,
    JitterMap,
};
use gmf_bench::{long_tail_line_scenario, mixed_depth_line_scenario, multi_sink_star_set};
use gmf_model::DemandTable;
use gmf_net::{FlowSet, Topology};
use gmf_par::derive_seed;
use gmf_workloads::{random_sweep_set, valid_scenario, FuzzConfig, SweepConfig};

/// Line depths (switches) of the deep-line instances.
const DEPTHS: std::ops::RangeInclusive<usize> = 6..=16;
/// Voice pairs per line.
const LINE_PAIRS: usize = 4;
/// Star instances per generator, at 16–64 flows.
const STARS: usize = 60;
/// Fuzz networks.
const FUZZ: usize = 80;
/// Timed corpus builds behind `setup_s` (median reported).
const SETUP_REPS: usize = 3;

type Instance = (Topology, FlowSet);

/// The corpus: deterministic lines plus seeded stars and fuzz networks.
fn corpus(seed: u64) -> Vec<Instance> {
    let mut instances = Vec::new();
    for depth in DEPTHS {
        instances.push(long_tail_line_scenario(depth, LINE_PAIRS));
        instances.push(mixed_depth_line_scenario(depth, LINE_PAIRS));
    }
    let sweep = SweepConfig::default();
    for i in 0..STARS {
        let n_flows = 16 + i * 48 / (STARS - 1);
        let star_seed = derive_seed(seed, i as u64);
        instances.push(multi_sink_star_set(star_seed, n_flows, 2 + i % 3));
        instances.push(random_sweep_set(star_seed ^ 1, n_flows, 0.4, &sweep));
    }
    let fuzz = FuzzConfig::default();
    for i in 0..FUZZ {
        let (scenario, _) = valid_scenario(derive_seed(seed, (STARS + i) as u64), &fuzz);
        instances.push((scenario.topology, scenario.flows));
    }
    instances
}

fn count_report(counters: &mut Counters, report: &AnalysisReport) {
    *counters.entry("analyses").or_default() += 1;
    *counters.entry("schedulable").or_default() += u64::from(report.schedulable);
    *counters.entry("converged").or_default() += u64::from(report.converged);
    *counters.entry("rounds").or_default() += report.iterations as u64;
    *counters.entry("flows").or_default() += report.flows.len() as u64;
}

pub fn run(args: &Args, out: &mut Outcome) {
    let seed = args.seed;
    let config = AnalysisConfig::paper().with_threads(1);

    // Set-up: building the corpus networks and routing their flows.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut instances = Vec::new();
    for _ in 0..SETUP_REPS {
        let (built, secs) = timed(|| corpus(seed));
        instances = built;
        setup.push(out.speed.scale(secs));
    }
    out.set("setup_s", median(&setup));

    // Oracle: every instance against the keyed reference, byte for byte.
    let mut expected: Vec<Option<AnalysisReport>> = Vec::with_capacity(instances.len());
    for (i, (topology, flows)) in instances.iter().enumerate() {
        match analyze_reference(topology, flows, &config) {
            Ok(report) => expected.push(Some(report)),
            Err(e) => {
                out.check(Some(format!("instance {i}: reference failed: {e}")));
                expected.push(None);
            }
        }
    }
    out.set("oracle.checked", instances.len() as f64);

    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut pass_counters: Vec<Counters> = Vec::new();
    for &traced in phases {
        trace::set_enabled(traced);
        let mut times = Vec::new();
        let mut scaled_times = Vec::new();
        let mut passes = Vec::new();
        let mut busy = 0.0;
        let (mut tables, mut windows, mut terms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut rounds, mut analyses) = (Vec::new(), Vec::new());
        // Whole passes only, and at least two untraced ones (the counter
        // passes).
        while busy < budget || (!traced && passes.len() < 2) {
            let mut pass = 0.0;
            let mut counters = Counters::new();
            for (i, (topology, flows)) in instances.iter().enumerate() {
                trace::set_request(times.len() as u64);
                let (result, cause, secs) =
                    trace::timed_span("analysis", "analyze", || analyze(topology, flows, &config));
                let scaled = out.speed.scale(secs);
                busy += secs;
                pass += scaled;
                times.push(secs);
                scaled_times.push(scaled);
                match result {
                    Ok(report) => {
                        count_report(&mut counters, &report);
                        if expected[i].as_ref() != Some(&report) {
                            out.check(Some(format!("instance {i}: report differs from reference")));
                        }
                    }
                    Err(e) => out.check(Some(format!("instance {i}: analyze failed: {e}"))),
                }
                if traced {
                    let ctx = {
                        let _span = trace::replay("context", "build", cause);
                        AnalysisContext::new(topology, flows).expect("corpus instances build")
                    };
                    let (t, w, m) = ctx.kernel_stats();
                    tables.push(t as f64);
                    windows.push(w as f64);
                    terms.push(m as f64);
                    {
                        let _span = trace::replay("model", "demand_tables", cause);
                        for binding in flows.bindings() {
                            for hop in binding.route.hops() {
                                std::hint::black_box(DemandTable::new(
                                    ctx.demand(binding.id, hop.from, hop.to),
                                ));
                            }
                        }
                    }
                    let run = {
                        let _span = trace::replay("fixed_point", "iterate_from", cause);
                        iterate_from(&ctx, &config, JitterMap::initial(flows))
                    };
                    if let Ok(run) = run {
                        rounds.push(run.report.iterations as f64);
                        analyses.push(run.flow_analyses as f64);
                    }
                }
            }
            passes.push(pass);
            if !traced {
                pass_counters.push(counters);
            }
        }
        out.succeeded(times.len());
        if !traced {
            out.timings(&times, &scaled_times, 0.95, &passes);
            continue;
        }
        let summary = trace::finish(&crate::trace_path("holistic_cold", seed));
        out.layer_summary(&summary, &scaled_times);
        let total_tables: f64 = tables.iter().sum();
        out.set(
            "model.demand_table_build_ns",
            summary.total_ns("demand_tables") / total_tables.max(1.0),
        );
        out.set("model.tables", mean(&tables));
        out.set("model.table_windows", mean(&windows));
        out.set("context.build_us", summary.median_us("build"));
        out.set("context.terms", mean(&terms));
        out.set("fixed_point.iterate_us", summary.median_us("iterate_from"));
        out.set("fixed_point.rounds", mean(&rounds));
        out.set("fixed_point.flow_analyses", mean(&analyses));
        out.set(
            "fixed_point.ns_per_flow_analysis",
            summary.total_ns("iterate_from") / analyses.iter().sum::<f64>().max(1.0),
        );
    }
    trace::set_enabled(false);
    out.compare_counters(
        "holistic passes 1 and 2",
        &pass_counters[0],
        &pass_counters[1],
    );
}
