//! `bench_export` — machine-readable benchmark medians and analysis cost
//! counters for the CI perf trajectory.
//!
//! Runs the workspace's benchmark bodies (B1–B7: request-bound functions,
//! per-resource analyses, holistic analysis, simulator, admission churn,
//! metro admission and the tightness atlas) a handful of times each and
//! writes `BENCH.json`:
//!
//! ```json
//! { "schema": 4,
//!   "timings_ns": { "<bench>": <median ns per iteration>, ... },
//!   "calibrated": { "<bench>": <median ratio to the calibration body>, ... },
//!   "counters":   { "<counter>": <deterministic count>, ... } }
//! ```
//!
//! `timings_ns` carries the wall-clock medians (machine-dependent);
//! `calibrated` the same bodies as ratios to a calibration body timed in
//! alternation with them; `counters` carries the engine's *deterministic*
//! cost metrics — holistic rounds, per-flow and per-stage analyses per
//! workload (`rounds/<workload>/skip`, `flow_analyses/<workload>/skip`,
//! `stage_analyses/<workload>/skip`: the engine re-solves only the stages
//! whose inputs moved; the cost without reuse is `rounds × flows` and
//! `rounds × stages`), the demand-kernel shape, the simulator's event and
//! calendar-queue shape counters, and the tightness-atlas percentile
//! counters — which must be bit-identical on every machine.  Schema 3
//! added the `sim/*` and `atlas/*` counters; with the event count pinned
//! exactly, the gate on the simulator timing is an events/sec gate.
//! Schema 4 added `calibrated`.
//!
//! **Baseline check** (`--baseline <path>`): compares the fresh run
//! against a committed baseline and exits non-zero on regression.
//! Counters must match exactly.  Timings are compared as `calibrated`
//! ratios: every sample of a body is taken right after a sample of the
//! `link_demand_build_paper_flow` body — a pure-CPU yardstick — and the
//! median of the per-sample ratios cancels host speed *and* load drift
//! out of the comparison.  A ratio exceeding the baseline's by more than
//! `GMF_BENCH_TOLERANCE` (default 1.5; generous, for runner noise) is
//! re-measured after a pause, and fails only if it exceeds the bound in
//! all three measurements.
//!
//! Usage: `bench_export [OUTPUT_PATH] [--baseline PATH]` (default output
//! `BENCH.json`).  Sample count: `GMF_BENCH_EXPORT_SAMPLES` (default 7).

use gmf_analysis::{
    analyze, egress_response, first_hop_response, ingress_response, iterate_from, AnalysisConfig,
    AnalysisContext, JitterMap,
};
use gmf_bench::atlas::{tightness_atlas, AtlasConfig};
use gmf_bench::{
    churn_bench_config, long_tail_bench_scenario, median_ns, median_ns_calibrated,
    metro_bench_config, mixed_depth_line_scenario, print_header, print_table, run_metro_admission,
    synthetic_converging_set, CHURN_BENCH_SEED, HOLISTIC_SYNTHETIC_AXIS, HOLISTIC_THREAD_AXIS,
    METRO_BENCH_SEED, METRO_SMALL_BATCHES, METRO_SMALL_BATCH_SIZE, METRO_TIGHT_FRACTION,
};
use gmf_model::{
    paper_figure3_flow, BitRate, DemandTable, EncapsulationConfig, FlowId, GmfFlow, LinkDemand,
    Time,
};
use gmf_net::NodeId;
use gmf_workloads::{paper_scenario, run_churn};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use switch_sim::{SimConfig, Simulator};

/// The calibration entry: its body is timed in alternation with every
/// other body to normalise away host speed and load.
const CALIBRATION: &str = "link_demand_build_paper_flow";

/// The `BENCH.json` schema (see module docs).
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: u32,
    timings_ns: BTreeMap<String, u64>,
    calibrated: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

/// The calibration body: one `LinkDemand` build of the paper's video flow
/// on a 10 Mbit/s link — pure CPU, no allocation-heavy state.
fn calibration_body() {
    static INPUT: OnceLock<(GmfFlow, EncapsulationConfig)> = OnceLock::new();
    let (flow, encapsulation) = INPUT.get_or_init(|| {
        (
            paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0)),
            EncapsulationConfig::paper(),
        )
    });
    black_box(LinkDemand::new(
        black_box(flow),
        encapsulation,
        BitRate::from_mbps(10.0),
    ));
}

/// Time `f` in alternation with [`calibration_body`]: the median ns per
/// iteration and the median per-sample ratio to the calibration body.
fn timed<F: FnMut()>(samples: usize, f: F) -> (u64, f64) {
    median_ns_calibrated(samples, f, calibration_body)
}

fn main() {
    let mut output = "BENCH.json".to_string();
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--baseline" {
            baseline = args.next();
            if baseline.is_none() {
                eprintln!("--baseline requires a path");
                std::process::exit(2);
            }
        } else {
            output = arg;
        }
    }
    let samples = std::env::var("GMF_BENCH_EXPORT_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(7);

    print_header("BENCH", "Benchmark medians for the CI perf trajectory");
    let report = measure(samples);

    // Human-readable tables plus the machine-readable artifact.
    let rows: Vec<Vec<String>> = report
        .timings_ns
        .iter()
        .map(|(name, ns)| vec![name.clone(), format!("{ns}")])
        .collect();
    print_table(&["bench", "median ns"], &rows);
    println!();
    let rows: Vec<Vec<String>> = report
        .counters
        .iter()
        .map(|(name, count)| vec![name.clone(), format!("{count}")])
        .collect();
    print_table(&["counter", "value"], &rows);

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&output, json + "\n").expect("write BENCH.json");
    println!();
    println!(
        "wrote {} timings and {} counters to {output}",
        report.timings_ns.len(),
        report.counters.len()
    );

    if let Some(baseline_path) = baseline {
        let failures = check_against_baseline(&report, &baseline_path, samples);
        if !failures.is_empty() {
            eprintln!();
            eprintln!("perf-smoke FAILED against baseline {baseline_path}:");
            for failure in &failures {
                eprintln!("  {failure}");
            }
            std::process::exit(1);
        }
        println!("perf-smoke OK against baseline {baseline_path}");
    }
}

/// Run every benchmark body and collect its timings and the deterministic
/// counters.
fn measure(samples: usize) -> BenchReport {
    let mut results: BTreeMap<String, u64> = BTreeMap::new();
    let mut ratios: BTreeMap<String, f64> = BTreeMap::new();
    let mut record = |name: &str, (ns, ratio): (u64, f64)| {
        results.insert(name.to_string(), ns);
        ratios.insert(name.to_string(), ratio);
    };

    // B1 — request-bound functions.  The first entry is the calibration
    // body itself, so its ratio is 1 by definition.
    record(CALIBRATION, (median_ns(samples, calibration_body), 1.0));
    let flow = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
    let encapsulation = EncapsulationConfig::paper();
    let speed = BitRate::from_mbps(10.0);
    let demand = LinkDemand::new(&flow, &encapsulation, speed);
    record(
        "mx_sub_cycle_window",
        timed(samples, || {
            black_box(demand.mx(black_box(Time::from_millis(95.0))));
        }),
    );
    record(
        "mx_multi_cycle_window",
        timed(samples, || {
            black_box(demand.mx(black_box(Time::from_secs(3.0))));
        }),
    );
    record(
        "nx_multi_cycle_window",
        timed(samples, || {
            black_box(demand.nx(black_box(Time::from_secs(3.0))));
        }),
    );
    record(
        "demand_table_build",
        timed(samples, || {
            black_box(DemandTable::new(black_box(&demand)));
        }),
    );

    // B2 — one per-resource analysis of each kind (the video's first IP
    // frame at its source, then at switch N4's ingress and egress).
    let (scenario, ids) = paper_scenario();
    let ctx = AnalysisContext::new(&scenario.topology, &scenario.flows).unwrap();
    let jitters = JitterMap::initial(&scenario.flows);
    let paper_config = AnalysisConfig::paper();
    let video = FlowId(ids.video);
    record(
        "first_hop_ip_frame",
        timed(samples, || {
            black_box(
                first_hop_response(&ctx, &jitters, &paper_config, black_box(video), 0).unwrap(),
            );
        }),
    );
    record(
        "switch_ingress_ip_frame",
        timed(samples, || {
            black_box(
                ingress_response(
                    &ctx,
                    &jitters,
                    &paper_config,
                    black_box(video),
                    0,
                    NodeId(4),
                )
                .unwrap(),
            );
        }),
    );
    record(
        "egress_link_ip_frame",
        timed(samples, || {
            black_box(
                egress_response(
                    &ctx,
                    &jitters,
                    &paper_config,
                    black_box(video),
                    0,
                    NodeId(4),
                )
                .unwrap(),
            );
        }),
    );

    // B3 — full holistic analysis: paper scenario, synthetic size axis,
    // worker-thread axis, and the long-tail workload.
    record(
        "holistic_paper_scenario",
        timed(samples, || {
            black_box(
                analyze(
                    black_box(&scenario.topology),
                    &scenario.flows,
                    &paper_config,
                )
                .unwrap(),
            );
        }),
    );

    for n_flows in HOLISTIC_SYNTHETIC_AXIS {
        let (topology, set) = synthetic_converging_set(n_flows);
        record(
            &format!("holistic_synthetic/{n_flows}"),
            timed(samples, || {
                black_box(analyze(black_box(&topology), &set, &paper_config).unwrap());
            }),
        );
        if n_flows == *HOLISTIC_SYNTHETIC_AXIS.last().unwrap() {
            for threads in HOLISTIC_THREAD_AXIS {
                let config = AnalysisConfig::paper().with_threads(threads);
                record(
                    &format!("holistic_threads/{threads}"),
                    timed(samples, || {
                        black_box(analyze(black_box(&topology), &set, &config).unwrap());
                    }),
                );
            }
        }
    }

    let (topology, flows) = long_tail_bench_scenario();
    record(
        "holistic_longtail/picard",
        timed(samples, || {
            black_box(analyze(black_box(&topology), &flows, &paper_config).unwrap());
        }),
    );

    // B3b — the dense core's cost counters: holistic rounds and per-flow
    // analyses per cold analyze.
    // These are deterministic (identical on every machine and at every
    // thread count) — the hard half of the perf-smoke gate.
    let (mixed_topology, mixed_flows) = mixed_depth_line_scenario(10, 4);
    record(
        "analyze_cold/mixed_depth",
        timed(samples, || {
            black_box(analyze(black_box(&mixed_topology), &mixed_flows, &paper_config).unwrap());
        }),
    );
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    {
        let (synth_topology, synth_flows) = synthetic_converging_set(16);
        let cost_workloads = [
            ("paper", &scenario.topology, &scenario.flows),
            ("synthetic16", &synth_topology, &synth_flows),
            ("longtail", &topology, &flows),
            ("mixed_depth", &mixed_topology, &mixed_flows),
        ];
        for (name, workload_topology, workload_flows) in cost_workloads {
            // The demand-kernel shape of the workload: how many
            // precompiled tables the interner holds, how many window spans
            // they store in total, and how many interference terms the
            // dense plan walks.  Deterministic like the round counters — a
            // change means the plan changed.
            let ctx = AnalysisContext::new(workload_topology, workload_flows).unwrap();
            let (tables, windows, terms) = ctx.kernel_stats();
            counters.insert(format!("kernel/tables/{name}"), tables);
            counters.insert(format!("kernel/windows/{name}"), windows);
            counters.insert(format!("kernel/terms/{name}"), terms);
            let run =
                iterate_from(&ctx, &paper_config, JitterMap::initial(workload_flows)).unwrap();
            counters.insert(
                format!("flow_analyses/{name}/skip"),
                run.flow_analyses as u64,
            );
            counters.insert(
                format!("stage_analyses/{name}/skip"),
                run.stage_analyses as u64,
            );
            counters.insert(format!("rounds/{name}/skip"), run.report.iterations as u64);
        }
    }

    // B5 — admission churn: one cold solve per candidate shard on the
    // shared churn script (the workload of E11).
    let churn = churn_bench_config();
    record(
        "churn_admission/sharded",
        timed(samples, || {
            black_box(run_churn(
                black_box(CHURN_BENCH_SEED),
                &churn,
                &paper_config,
            ));
        }),
    );

    // B6 — metro-scale sharded admission on the small instance (same
    // definition as E14's full-scale run): one timing for the whole
    // preload + batch + release cycle, plus the deterministic shard and
    // cost counters that must be bit-identical on every machine.
    let metro_config = metro_bench_config();
    record(
        "metro_admission/small",
        timed(samples, || {
            black_box(run_metro_admission(
                black_box(METRO_BENCH_SEED),
                &metro_config,
                &paper_config,
                METRO_SMALL_BATCHES,
                METRO_SMALL_BATCH_SIZE,
                METRO_TIGHT_FRACTION,
            ));
        }),
    );
    {
        let metro = run_metro_admission(
            METRO_BENCH_SEED,
            &metro_config,
            &paper_config,
            METRO_SMALL_BATCHES,
            METRO_SMALL_BATCH_SIZE,
            METRO_TIGHT_FRACTION,
        );
        let entries = [
            ("metro/preload_shards", metro.preload.shards),
            ("metro/preload_largest_shard", metro.preload.largest_shard),
            ("metro/preload_rounds", metro.preload.rounds),
            ("metro/preload_flow_analyses", metro.preload.flow_analyses),
            ("metro/batch_accepted", metro.accepted()),
            ("metro/batch_rejected", metro.rejected()),
            ("metro/batch_rounds", metro.rounds()),
            ("metro/batch_flow_analyses", metro.flow_analyses()),
            ("metro/largest_trial", metro.largest_trial()),
            ("metro/final_shards", metro.final_shards),
        ];
        for (name, value) in entries {
            counters.insert(name.to_string(), value as u64);
        }
    }

    // B4 — simulator throughput.  The event count is deterministic and
    // pinned by the `sim/*` counters below, so the timing gate on this
    // entry *is* an events/sec gate: ns-per-event regressing past the
    // calibrated tolerance fails the perf smoke even though raw wall time
    // varies by machine.
    let sim_config = SimConfig {
        horizon: Time::from_millis(300.0),
        ..SimConfig::default()
    };
    record(
        "simulate_paper_scenario_300ms",
        timed(samples, || {
            black_box(
                Simulator::new(black_box(&scenario.topology), &scenario.flows, sim_config)
                    .unwrap()
                    .run()
                    .unwrap(),
            );
        }),
    );
    {
        // Event-core shape counters: the work the simulator performs and
        // how the calendar queue held it.  Any drift means the event core
        // changed behaviour, not just speed.
        let result = Simulator::new(&scenario.topology, &scenario.flows, sim_config)
            .unwrap()
            .run()
            .unwrap();
        counters.insert("sim/paper_300ms/events".into(), result.events_processed);
        counters.insert(
            "sim/paper_300ms/packets".into(),
            result.stats.packets_completed,
        );
        counters.insert(
            "sim/paper_300ms/max_pending".into(),
            result.queue.max_pending as u64,
        );
        counters.insert(
            "sim/paper_300ms/max_bucket".into(),
            result.queue.max_bucket as u64,
        );
        counters.insert(
            "sim/paper_300ms/buckets_opened".into(),
            result.queue.buckets_opened,
        );
        counters.insert(
            "sim/paper_300ms/pool_reuses".into(),
            result.queue.pool_reuses,
        );
    }

    // B7 — the tightness atlas (E17) on a small corpus: one timing for the
    // analysis + long-horizon simulation sweep, plus deterministic
    // percentile counters.  The permille columns are integer ratios of
    // integer histogram edges, so they are bit-identical everywhere; the
    // worst row moving is a tightness change worth noticing in review.
    let atlas_config = AtlasConfig {
        scenarios: 3,
        horizon_factor: 4,
        ..AtlasConfig::default()
    };
    record(
        "tightness_atlas/small",
        timed(samples, || {
            black_box(tightness_atlas(black_box(&atlas_config)));
        }),
    );
    {
        let atlas = tightness_atlas(&atlas_config);
        counters.insert("atlas/rows".into(), atlas.rows.len() as u64);
        counters.insert("atlas/scenarios_ok".into(), atlas.scenarios_ok as u64);
        counters.insert("atlas/events".into(), atlas.events_processed);
        counters.insert("atlas/packets".into(), atlas.packets_completed);
        counters.insert("atlas/max_pending".into(), atlas.queue.max_pending as u64);
        counters.insert(
            "atlas/worst_max_permille".into(),
            atlas.tightest().map_or(0, |row| row.max_permille),
        );
        if let Some((_, median, _)) = atlas.spread(|row| row.p99_permille) {
            counters.insert("atlas/median_p99_permille".into(), median);
        }
    }

    BenchReport {
        schema: 4,
        timings_ns: results,
        calibrated: ratios,
        counters,
    }
}

/// Measurements a timing regression must reproduce in before the gate
/// fails on it (the first run plus re-measurements).
const CONFIRM_RUNS: usize = 3;

/// Pause before each re-measurement.
const CONFIRM_PAUSE: std::time::Duration = std::time::Duration::from_secs(3);

/// Compare a fresh report against a committed baseline: counters must
/// match exactly; calibrated timing ratios (see [`CALIBRATION`]) may not
/// regress by more than `GMF_BENCH_TOLERANCE` (default 1.5).  A timing
/// over the bound is re-measured, and fails only if it is over the bound
/// in each of [`CONFIRM_RUNS`] measurements: a real regression reproduces,
/// a burst of host contention — which a multi-threaded body on a shared
/// box cannot cancel against a single-threaded calibration body — does
/// not.
fn check_against_baseline(
    report: &BenchReport,
    baseline_path: &str,
    samples: usize,
) -> Vec<String> {
    let tolerance = std::env::var("GMF_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.5);
    let baseline_json = match std::fs::read_to_string(baseline_path) {
        Ok(json) => json,
        Err(err) => return vec![format!("cannot read baseline {baseline_path}: {err}")],
    };
    let baseline: BenchReport = match serde_json::from_str(&baseline_json) {
        Ok(baseline) => baseline,
        Err(err) => return vec![format!("cannot parse baseline {baseline_path}: {err}")],
    };

    let mut failures = Vec::new();
    // Deterministic counters: any difference is a real behaviour change
    // (more rounds, more per-flow analyses) and fails regardless of noise.
    for (name, expected) in &baseline.counters {
        match report.counters.get(name) {
            Some(actual) if actual == expected => {}
            Some(actual) => {
                failures.push(format!("counter {name}: {actual} != baseline {expected}"))
            }
            None => failures.push(format!("counter {name}: missing from this run")),
        }
    }
    for name in baseline.calibrated.keys() {
        if !report.calibrated.contains_key(name) {
            failures.push(format!("timing {name}: missing from this run"));
        }
    }

    // Machine-dependent timings: compare each body's ratio to the
    // calibration body it was sampled in alternation with, so a uniformly
    // slower runner — or a load change mid-run — cancels out.
    let mut slow = slow_timings(report, &baseline, tolerance);
    for _ in 1..CONFIRM_RUNS {
        if slow.is_empty() {
            break;
        }
        eprintln!(
            "re-measuring to confirm {} timing(s) over the bound",
            slow.len()
        );
        // Contention on a shared host comes in bursts of seconds; let one
        // pass before measuring again.
        std::thread::sleep(CONFIRM_PAUSE);
        let again = slow_timings(&measure(samples), &baseline, tolerance);
        slow.retain(|name, _| again.contains_key(name));
    }
    failures.extend(slow.into_values());
    failures
}

/// The timings of `report` whose calibrated ratio exceeds the baseline's
/// by more than `tolerance`, with their failure messages.
fn slow_timings(
    report: &BenchReport,
    baseline: &BenchReport,
    tolerance: f64,
) -> BTreeMap<String, String> {
    let mut slow = BTreeMap::new();
    for (name, &expected) in &baseline.calibrated {
        let Some(&actual) = report.calibrated.get(name) else {
            continue;
        };
        let normalised = actual / expected;
        if normalised > tolerance {
            slow.insert(
                name.clone(),
                format!(
                    "timing {name}: {actual:.4}x the calibration body is {normalised:.2}x the \
                     baseline's {expected:.4}x (> {tolerance:.2}x in {CONFIRM_RUNS} runs)"
                ),
            );
        }
    }
    slow
}
