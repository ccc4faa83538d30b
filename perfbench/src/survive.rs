//! `survivability_sweep`: every single-failure scenario of a resilience
//! ring, assessed incrementally (release the affected shards, rebase onto
//! the survivor, re-admit a ring-wide shard) and checked against the cold
//! oracle.

use crate::stats::{mean, median, timed};
use crate::{trace, Args, Counters, Outcome};
use gmf_analysis::{
    divergence, single_failure_scenarios, AnalysisConfig, FailureScenario, FailureVerdict,
    SurvivabilityAnalysis,
};
use gmf_bench::{RESILIENCE_BENCH_SEED, RESILIENCE_DEGRADE_FACTORS};
use gmf_net::reroute_severed;
use gmf_par::derive_seed;
use gmf_workloads::{resilience_scenario, ResilienceConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Ring cells: ≥ 17 so that the sweep has ≥ 100 scenarios behind p90.
const CELLS: usize = 18;
/// Timed `SurvivabilityAnalysis::new` calls behind `setup_s`.
const SETUP_REPS: usize = 9;

fn count_verdict(counters: &mut Counters, verdict: &FailureVerdict) {
    *counters.entry("scenarios").or_default() += 1;
    *counters.entry("survivable").or_default() += u64::from(verdict.survivable);
    *counters.entry("stranding").or_default() += u64::from(!verdict.stranded.is_empty());
    *counters.entry("rejected").or_default() += verdict.rejected.len() as u64;
    *counters.entry("reverified").or_default() += verdict.reverified as u64;
    *counters.entry("rounds").or_default() += verdict.rounds as u64;
    *counters.entry("flow_analyses").or_default() += verdict.flow_analyses as u64;
}

fn replay_net(analysis: &SurvivabilityAnalysis, scenario: &FailureScenario, cause: Option<usize>) {
    let mut faulty = analysis.controller().topology().clone();
    scenario
        .apply(&mut faulty)
        .expect("enumerated scenarios apply");
    let survivor = {
        let _span = trace::replay("net", "survivor", cause);
        faulty.survivor()
    };
    let _span = trace::replay("net", "reroute", cause);
    std::hint::black_box(reroute_severed(&survivor, analysis.controller().accepted()));
}

pub fn run(args: &Args, out: &mut Outcome) {
    let seed = args.seed;
    let network_seed = args.workload_seed.unwrap_or(RESILIENCE_BENCH_SEED);
    let config = AnalysisConfig::paper().with_threads(1);
    let ring = ResilienceConfig {
        n_cells: CELLS,
        ..ResilienceConfig::default()
    };
    let scenario = resilience_scenario(derive_seed(network_seed, 0), &ring);
    // Every scenario, in an order drawn from the run seed.
    let mut scenarios = single_failure_scenarios(&scenario.topology, &RESILIENCE_DEGRADE_FACTORS);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..scenarios.len()).rev() {
        scenarios.swap(i, rng.gen_range(0..=i));
    }

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let (result, secs) = timed(|| {
            SurvivabilityAnalysis::new(scenario.topology.clone(), scenario.flows.clone(), config)
        });
        built = Some(result.expect("the ring's pre-admitted set verifies"));
        setup.push(out.speed.scale(secs));
    }
    out.set("setup_s", median(&setup));
    let (analysis, _) = built.expect("at least one set-up ran");

    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut sweep_counters: Vec<Counters> = Vec::new();
    for &traced in phases {
        trace::set_enabled(traced);
        let mut times = Vec::new();
        let mut scaled_times = Vec::new();
        let mut sweeps = Vec::new();
        let mut busy = 0.0;
        let (mut reverified, mut analyses, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        while busy < budget || (!traced && sweeps.len() < 2) {
            let mut sweep = 0.0;
            let mut counters = Counters::new();
            for scenario in &scenarios {
                trace::set_request(times.len() as u64);
                let (result, cause, secs) =
                    trace::timed_span("resilience", "assess", || analysis.assess(scenario));
                let scaled = out.speed.scale(secs);
                busy += secs;
                sweep += scaled;
                times.push(secs);
                scaled_times.push(scaled);
                let verdict = match result {
                    Ok(verdict) => verdict,
                    Err(e) => {
                        out.check(Some(format!("{}: assess failed: {e}", scenario.label())));
                        continue;
                    }
                };
                count_verdict(&mut counters, &verdict);
                // The cold oracle runs once per scenario, outside the
                // timed call; in the traced phase it is also the replay.
                if sweeps.is_empty() || traced {
                    let (cold, cold_secs) = {
                        let _span = trace::replay("resilience", "cold_verdict", cause);
                        timed(|| analysis.cold_verdict(scenario))
                    };
                    let problem = match cold {
                        Ok(cold) => divergence(&verdict, &cold),
                        Err(e) => Some(format!("{}: cold verdict failed: {e}", scenario.label())),
                    };
                    out.check(problem);
                    if traced {
                        replay_net(&analysis, scenario, cause);
                        ratios.push(secs / cold_secs);
                        reverified.push(verdict.reverified as f64);
                        analyses.push(verdict.flow_analyses as f64);
                    }
                }
            }
            sweeps.push(sweep);
            if !traced {
                sweep_counters.push(counters);
            }
        }
        out.succeeded(times.len());
        if !traced {
            out.timings(&times, &scaled_times, 0.9, &sweeps);
            out.set("oracle.checked", scenarios.len() as f64);
            continue;
        }
        let summary = trace::finish(&crate::trace_path("survivability_sweep", seed));
        out.layer_summary(&summary, &scaled_times);
        out.set("net.survivor_us", summary.median_us("survivor"));
        out.set("net.reroute_us", summary.median_us("reroute"));
        out.set(
            "resilience.cold_verdict_ms",
            summary.median_us("cold_verdict") / 1e3,
        );
        out.set("resilience.incremental_over_cold", median(&ratios));
        out.set("resilience.reverified_per_scenario", mean(&reverified));
        out.set("resilience.flow_analyses_per_scenario", mean(&analyses));
    }
    trace::set_enabled(false);
    out.compare_counters("sweeps 1 and 2", &sweep_counters[0], &sweep_counters[1]);
}
