//! E12 — cost per round of the dense-index analysis core.
//!
//! The dense core cuts the *cost per round* (interned interference tables,
//! arena jitter reads, per-stage fixed-point reuse) and, on top, the number
//! of per-flow analyses per round (dirty-flow skipping: a flow whose input
//! jitter slots are exactly unchanged from the round that produced its
//! cached report is not re-analysed).  This experiment pins both effects on
//! the canonical workloads:
//!
//! * per-workload rounds and per-flow analyses without skipping — the
//!   classic Jacobi cost `rounds × flows`, derived, since every round of a
//!   converged run analyses every flow — vs the engine's measured count;
//! * a byte-identity check of every engine run against the keyed reference
//!   oracle (`analyze_reference`), which never skips.
//!
//! Everything on stdout is deterministic (CI diffs repeated runs and
//! `--threads 1` vs `4`); wall-clock measurements go to stderr.

use gmf_analysis::{
    analyze_reference, iterate_from, AnalysisConfig, AnalysisContext, FixedPointRun, JitterMap,
};
use gmf_bench::{
    long_tail_bench_scenario, mixed_depth_line_scenario, multi_sink_star_set, print_header,
    print_table, synthetic_converging_set, threads_flag,
};
use gmf_net::{FlowSet, Topology};
use gmf_workloads::paper_scenario;
use std::time::Instant;

fn run(topology: &Topology, flows: &FlowSet, config: &AnalysisConfig) -> (FixedPointRun, f64) {
    let ctx = AnalysisContext::new(topology, flows).expect("context builds");
    let start = Instant::now();
    let run = iterate_from(&ctx, config, JitterMap::initial(flows)).expect("analysis runs");
    (run, start.elapsed().as_secs_f64())
}

fn main() {
    print_header("E12", "Dense-index analysis core: cost per round");
    let threads = threads_flag();
    let config = AnalysisConfig::paper().with_threads(threads);

    let (paper, _) = paper_scenario();
    let (synth_topology, synth_flows) = synthetic_converging_set(16);
    let (multi_topology, multi_flows) = multi_sink_star_set(2008, 24, 6);
    let (tail_topology, tail_flows) = long_tail_bench_scenario();
    let (mixed_topology, mixed_flows) = mixed_depth_line_scenario(10, 4);
    let workloads: Vec<(&str, &Topology, &FlowSet)> = vec![
        ("paper-figure1", &paper.topology, &paper.flows),
        ("synthetic-star-16", &synth_topology, &synth_flows),
        ("multi-sink-star-24", &multi_topology, &multi_flows),
        ("long-tail-line", &tail_topology, &tail_flows),
        ("mixed-depth-line", &mixed_topology, &mixed_flows),
    ];

    let mut rows = Vec::new();
    for (name, topology, flows) in workloads {
        let (engine, secs) = run(topology, flows, &config);
        let reference = analyze_reference(topology, flows, &AnalysisConfig::paper())
            .expect("reference analysis runs");

        // The whole point: identical reports, fewer analyses.
        assert_eq!(engine.report, reference, "{name}: engine vs reference");
        // `rounds × flows` is the no-skip cost only when no round aborted.
        assert!(engine.report.converged, "{name}: every round completes");
        let full = engine.report.iterations * flows.len();

        let saved = 100.0 * (1.0 - engine.flow_analyses as f64 / full as f64);
        rows.push(vec![
            name.to_string(),
            flows.len().to_string(),
            engine.report.iterations.to_string(),
            full.to_string(),
            engine.flow_analyses.to_string(),
            format!("{saved:.1}%"),
            "yes".to_string(),
        ]);
        eprintln!("{name}: analyze {:.3} ms, threads {threads}", secs * 1e3);
    }

    println!();
    println!("per-flow pipeline analyses per cold analyze (skipping off vs on),");
    println!("with every report byte-identical to the keyed reference engine:");
    println!();
    print_table(
        &[
            "workload",
            "flows",
            "rounds",
            "analyses",
            "analyses(skip)",
            "saved",
            "reports==reference",
        ],
        &rows,
    );
}
