//! E11 — admission control under churn.
//!
//! Replays the shared churn script (arrivals and departures on the
//! sweep's converging star) through an admission controller and reports
//! what every decision cost.  Each trial is one cold solve of the
//! candidate's shard (the flows it shares links with, transitively), so
//! the per-flow analyses per decision track the shard size, not the
//! accepted set.
//!
//! Everything on stdout is deterministic (CI diffs repeated runs and
//! `--threads 1` vs `4`); the wall-clock admissions/sec measurement goes
//! to stderr.

use gmf_analysis::AnalysisConfig;
use gmf_bench::{churn_bench_config, print_header, print_table, threads_flag, CHURN_BENCH_SEED};
use gmf_workloads::run_churn;
use std::time::Instant;

fn main() {
    print_header("E11", "Admission churn: one cold solve per candidate shard");
    let threads = threads_flag();
    let analysis = AnalysisConfig::paper().with_threads(threads);
    let config = churn_bench_config();

    let start = Instant::now();
    let o = run_churn(CHURN_BENCH_SEED, &config, &analysis);
    let elapsed = start.elapsed().as_secs_f64();

    println!();
    println!(
        "script: {} events (seed {}), star with {} sources, departures {:.0}%",
        config.n_events,
        CHURN_BENCH_SEED,
        config.sweep.n_sources,
        config.departure_fraction * 100.0
    );
    println!();
    print_table(
        &[
            "requests",
            "accepted",
            "rejected",
            "departures",
            "live",
            "rounds",
            "rounds/dec",
            "flow analyses",
            "analyses/dec",
        ],
        &[vec![
            o.arrivals.to_string(),
            o.accepted.to_string(),
            o.rejected.to_string(),
            o.departures.to_string(),
            o.live.to_string(),
            o.rounds.to_string(),
            format!("{:.2}", o.rounds_per_decision()),
            o.flow_analyses.to_string(),
            format!("{:.2}", o.analyses_per_decision()),
        ]],
    );

    println!();
    println!(
        "final accepted set: {} flows, worst bound {}, schedulable {}",
        o.live, o.final_worst_bound, o.final_schedulable
    );
    println!();
    println!(
        "expected shape: each trial solves only the candidate's shard, not every accepted flow\n\
         (admissions/sec on stderr)."
    );

    // Wall clock is nondeterministic, so it stays off stdout.
    eprintln!(
        "{} admission requests in {:.3} s = {:.1} admissions/sec",
        o.arrivals,
        elapsed,
        o.arrivals as f64 / elapsed.max(1e-9)
    );
}
