//! E11 — admission control under churn: global cold restarts vs the
//! sharded engine.
//!
//! Replays the shared churn script (arrivals and departures on the
//! sweep's converging star) through two admission controllers that differ
//! only in [`AdmissionMode`], and reports what every decision cost.  The
//! two engines take byte-identical decisions and produce byte-identical
//! bounds — the table asserts it — but the sharded engine solves only the
//! candidate's shard (the flows it shares links with, transitively), so
//! its per-flow analyses per decision are a fraction of the cold
//! engine's.
//!
//! Everything on stdout is deterministic (CI diffs repeated runs and
//! `--threads 1` vs `4`); the wall-clock admissions/sec measurement goes
//! to stderr.

use gmf_analysis::{AdmissionMode, AnalysisConfig};
use gmf_bench::{churn_bench_config, print_header, print_table, threads_flag, CHURN_BENCH_SEED};
use gmf_workloads::{run_churn, ChurnOutcome};
use std::time::Instant;

fn main() {
    print_header(
        "E11",
        "Admission churn: global cold restart vs per-shard cold solve",
    );
    let threads = threads_flag();
    let analysis = AnalysisConfig::paper().with_threads(threads);
    let config = churn_bench_config();

    let mut outcomes: Vec<(ChurnOutcome, f64)> = Vec::new();
    for mode in [AdmissionMode::Cold, AdmissionMode::Sharded] {
        let start = Instant::now();
        let outcome = run_churn(CHURN_BENCH_SEED, &config, &analysis, mode);
        let elapsed = start.elapsed().as_secs_f64();
        outcomes.push((outcome, elapsed));
    }

    println!();
    println!(
        "script: {} events (seed {}), star with {} sources, departures {:.0}%",
        config.n_events,
        CHURN_BENCH_SEED,
        config.sweep.n_sources,
        config.departure_fraction * 100.0
    );
    println!();
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(o, _)| {
            vec![
                o.mode.to_string(),
                o.arrivals.to_string(),
                o.accepted.to_string(),
                o.rejected.to_string(),
                o.departures.to_string(),
                o.live.to_string(),
                o.rounds.to_string(),
                format!("{:.2}", o.rounds_per_decision()),
                o.flow_analyses.to_string(),
                format!("{:.2}", o.analyses_per_decision()),
            ]
        })
        .collect();
    print_table(
        &[
            "engine",
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
        &rows,
    );

    let (cold, sharded) = (&outcomes[0].0, &outcomes[1].0);
    println!();
    println!(
        "decisions identical (accept/reject, live set, final bounds): {}",
        cold.accepted == sharded.accepted
            && cold.rejected == sharded.rejected
            && cold.live == sharded.live
            && cold.final_worst_bound == sharded.final_worst_bound
            && cold.final_schedulable == sharded.final_schedulable
    );
    println!(
        "final accepted set: {} flows, worst bound {}, schedulable {}",
        sharded.live, sharded.final_worst_bound, sharded.final_schedulable
    );
    println!(
        "per-flow analyses per decision: cold {:.2} vs sharded {:.2} ({:.1}x less work)",
        cold.analyses_per_decision(),
        sharded.analyses_per_decision(),
        cold.analyses_per_decision() / sharded.analyses_per_decision().max(1e-9)
    );
    println!();
    println!(
        "expected shape: identical decisions; the sharded engine needs a fraction of the per-flow\n\
         analyses per decision because each trial solves only the candidate's shard, not every\n\
         accepted flow (admissions/sec on stderr)."
    );

    // Wall clock is nondeterministic, so it stays off stdout.
    for (outcome, elapsed) in &outcomes {
        eprintln!(
            "{}: {} admission requests in {:.3} s = {:.1} admissions/sec",
            outcome.mode,
            outcome.arrivals,
            elapsed,
            outcome.arrivals as f64 / elapsed.max(1e-9)
        );
    }
}
