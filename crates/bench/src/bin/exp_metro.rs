//! E14 — metro-scale sharded admission: 100k+ pre-admitted flows across
//! thousands of independent access cells, batched admission decisions.
//!
//! Replays the shared metro workload at full scale: verify the
//! pre-admitted set shard-parallel (`AdmissionController::with_accepted`),
//! push batches of candidates through `request_batch`, then release
//! everything the batches admitted.  The point of the table is the
//! *locality* claim of the sharded admission plane: with 100,000+ flows
//! live, every trial is one cold solve over at most one cell's worth of
//! flows, and the release phase restores the preloaded partition exactly.
//!
//! Everything on stdout is deterministic (CI diffs repeated runs and
//! `--threads 1` vs `4`); the wall-clock decisions/sec measurements go to
//! stderr.

use gmf_analysis::AnalysisConfig;
use gmf_bench::{
    print_header, print_table, run_metro_admission, threads_flag, METRO_BATCHES, METRO_BATCH_SIZE,
    METRO_BENCH_SEED, METRO_TIGHT_FRACTION,
};
use gmf_workloads::MetroConfig;

fn main() {
    print_header(
        "E14",
        "Metro-scale sharded admission: 100k+ flows, batched decisions",
    );
    let threads = threads_flag();
    let analysis = AnalysisConfig::paper().with_threads(threads);
    let config = MetroConfig::default();
    let outcome = run_metro_admission(
        METRO_BENCH_SEED,
        &config,
        &analysis,
        METRO_BATCHES,
        METRO_BATCH_SIZE,
        METRO_TIGHT_FRACTION,
    );

    println!();
    println!(
        "scenario: {} cells x {} flows = {} pre-admitted flows (seed {}), {:.0}% impossible candidates",
        config.n_cells,
        config.flows_per_cell,
        outcome.n_flows,
        METRO_BENCH_SEED,
        METRO_TIGHT_FRACTION * 100.0
    );
    println!(
        "preload: {} shards verified in parallel (largest {} flows), {} rounds, {} flow analyses",
        outcome.preload.shards,
        outcome.preload.largest_shard,
        outcome.preload.rounds,
        outcome.preload.flow_analyses
    );
    println!();

    let rows: Vec<Vec<String>> = outcome
        .batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            vec![
                i.to_string(),
                (b.accepted + b.rejected).to_string(),
                b.accepted.to_string(),
                b.rejected.to_string(),
                b.rounds.to_string(),
                b.flow_analyses.to_string(),
                b.largest_trial.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "batch",
            "requests",
            "accepted",
            "rejected",
            "rounds",
            "flow analyses",
            "largest trial",
        ],
        &rows,
    );

    let decisions = outcome.decisions();
    println!();
    println!(
        "decisions: {} total, {} accepted, {} rejected",
        decisions,
        outcome.accepted(),
        outcome.rejected()
    );
    println!(
        "per decision: {:.2} rounds, {:.2} flow analyses; largest trial {} flows (of {} live)",
        outcome.rounds() as f64 / decisions.max(1) as f64,
        outcome.flow_analyses() as f64 / decisions.max(1) as f64,
        outcome.largest_trial(),
        outcome.n_flows
    );
    println!(
        "release: {} admitted candidates departed; {} flows and {} shards remain (preload had {})",
        outcome.released, outcome.final_flows, outcome.final_shards, outcome.preload.shards
    );
    println!();
    println!(
        "expected shape: trials never grow past one cell's worth of flows no matter how many\n\
         cells the metro runs, so per-decision work is flat in the live-set size; the releases\n\
         restore the preloaded flow count and shard count exactly (decisions/sec on stderr)."
    );

    // Wall clock is nondeterministic, so it stays off stdout.
    eprintln!(
        "preload: {} flows verified in {:.3} s ({:.0} flows/sec)",
        outcome.n_flows,
        outcome.preload_elapsed.as_secs_f64(),
        outcome.n_flows as f64 / outcome.preload_elapsed.as_secs_f64().max(1e-9)
    );
    let admission = outcome.admission_elapsed().as_secs_f64();
    eprintln!(
        "admission: {} decisions in {:.3} s = {:.0} decisions/sec",
        decisions,
        admission,
        decisions as f64 / admission.max(1e-9)
    );
    eprintln!(
        "release: {} departures in {:.3} s = {:.0} releases/sec",
        outcome.released,
        outcome.release_elapsed.as_secs_f64(),
        outcome.released as f64 / outcome.release_elapsed.as_secs_f64().max(1e-9)
    );
}
