//! `sim_ring`: the discrete-event simulator on a resilience ring of a few
//! hundred cells, whose transit flows cross several switches and whose
//! pending event set outgrows the calendar wheel.  Only `switch-sim` works
//! here; every observed response is checked against its conservative
//! bound.

use crate::stats::{median, timed};
use crate::{trace, Args, Counters, Outcome};
use gmf_analysis::{analyze, AnalysisConfig, AnalysisReport};
use gmf_bench::RESILIENCE_BENCH_SEED;
use gmf_model::Time;
use gmf_net::{FlowSet, NodeId};
use gmf_par::derive_seed;
use gmf_workloads::{resilience_scenario, ResilienceConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use switch_sim::{EventKind, EventQueue, SimConfig, SimulationResult, Simulator};

/// Ring cells.
const CELLS: usize = 200;
/// Simulated horizon of one run: 7–30 periods of every flow.  Shorter runs
/// than the default 2 s interleave more finely with the host-speed
/// yardstick; on five alternating runs the 2 s horizon's p50 ranged over
/// 21 %, this one's over 9.5 %.
const HORIZON_MS: f64 = 300.0;
/// Untraced runs at least (p90 needs ≥ 10 samples beyond it).
const MIN_RUNS: usize = 100;
/// Runs per pass (`pass_s`).
const BLOCK: usize = 8;
/// Timed `Simulator::new` calls behind `setup_s`.
const SETUP_REPS: usize = 101;
/// Hold-model operations per probe, and probes (median reported).
const HOLD_OPS: usize = 200_000;
const HOLD_PROBES: usize = 5;

fn count_run(result: &SimulationResult) -> Counters {
    Counters::from([
        ("events", result.events_processed),
        ("packets", result.stats.packets_completed),
        ("frames", result.stats.frames_transmitted),
        ("max_pending", result.queue.max_pending as u64),
        ("buckets_opened", result.queue.buckets_opened),
        ("pool_reuses", result.queue.pool_reuses),
    ])
}

/// Every observed maximum must be at most its bound, compared exactly.
fn check_bounds(
    flows: &FlowSet,
    bounds: &AnalysisReport,
    result: &SimulationResult,
) -> Option<String> {
    for binding in flows.bindings() {
        let Some(report) = bounds.flow(binding.id) else {
            return Some(format!("{}: no conservative bound", binding.id));
        };
        for (frame, bound) in report.frames.iter().enumerate() {
            if let Some(stats) = result.stats.frame_stats(binding.id, frame) {
                if stats.max > bound.bound {
                    return Some(format!(
                        "{} frame {frame}: observed {} exceeds bound {}",
                        binding.id, stats.max, bound.bound
                    ));
                }
            }
        }
    }
    None
}

/// The classic hold model on the public `EventQueue`: keep `pending`
/// events queued and repeatedly pop the earliest and schedule one a random
/// increment later.  Returns nanoseconds per pop+schedule pair.
fn hold_ns(pending: usize, mean_increment_ns: f64, seed: u64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let increments: Vec<Time> = (0..HOLD_OPS)
        .map(|_| Time::from_nanos(rng.gen_range(0.0..2.0 * mean_increment_ns)))
        .collect();
    let kind = EventKind::CpuDispatch { switch: NodeId(0) };
    let mut queue = EventQueue::new();
    for _ in 0..pending {
        let at = Time::from_nanos(rng.gen_range(0.0..2.0 * mean_increment_ns));
        queue
            .schedule(at, kind.clone())
            .expect("initial events are in the future");
    }
    let ((), secs) = timed(|| {
        for &increment in &increments {
            let event = queue.pop().expect("the hold model keeps events pending");
            queue
                .schedule(event.time + increment, kind.clone())
                .expect("holds schedule into the future");
        }
    });
    secs * 1e9 / HOLD_OPS as f64
}

pub fn run(args: &Args, out: &mut Outcome) {
    let seed = args.seed;
    let network_seed = args.workload_seed.unwrap_or(RESILIENCE_BENCH_SEED);
    let ring = ResilienceConfig {
        n_cells: CELLS,
        ..ResilienceConfig::default()
    };
    let scenario = resilience_scenario(derive_seed(network_seed, 1), &ring);
    let (topology, flows) = (&scenario.topology, &scenario.flows);
    let sim_config = SimConfig::default()
        .with_seed(derive_seed(seed, 2))
        .with_horizon(Time::from_millis(HORIZON_MS));

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut sim = None;
    for _ in 0..SETUP_REPS {
        let (built, secs) = timed(|| Simulator::new(topology, flows, sim_config));
        sim = Some(built.expect("the ring simulates"));
        setup.push(out.speed.scale(secs));
    }
    out.set("setup_s", median(&setup));
    let sim = sim.expect("at least one set-up ran");

    let bounds = analyze(
        topology,
        flows,
        &AnalysisConfig::conservative().with_threads(1),
    )
    .expect("the ring analyses");
    if !bounds.schedulable {
        out.check(Some(
            "the ring is not schedulable under the conservative analysis".into(),
        ));
    }

    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut first: Option<Counters> = None;
    let mut second: Option<Counters> = None;
    let mut last: Option<SimulationResult> = None;
    for &traced in phases {
        trace::set_enabled(traced);
        let mut times = Vec::new();
        let mut scaled_times = Vec::new();
        let mut busy = 0.0;
        let min_runs = if traced { 2 } else { MIN_RUNS };
        while busy < budget || times.len() < min_runs || !times.len().is_multiple_of(BLOCK) {
            trace::set_request(times.len() as u64);
            let (result, _, secs) = trace::timed_span("sim", "run", || sim.run());
            busy += secs;
            times.push(secs);
            scaled_times.push(out.speed.scale(secs));
            let result = match result {
                Ok(result) => result,
                Err(e) => {
                    out.check(Some(format!("simulation failed: {e}")));
                    continue;
                }
            };
            out.check(check_bounds(flows, &bounds, &result));
            let counters = count_run(&result);
            match (&first, &second) {
                (None, _) => first = Some(counters),
                (Some(_), None) => second = Some(counters),
                (Some(a), Some(_)) if *a != counters => {
                    out.check(Some("a repeated run produced different counters".into()))
                }
                _ => {}
            }
            last = Some(result);
        }
        out.succeeded(times.len());
        if !traced {
            let passes: Vec<f64> = scaled_times.chunks(BLOCK).map(|c| c.iter().sum()).collect();
            out.timings(&times, &scaled_times, 0.9, &passes);
            continue;
        }
        let p50_ms = median(&times) * 1e3;
        let result = last.as_ref().expect("the traced phase ran");
        let events = result.events_processed as f64;
        let ns_per_event = p50_ms * 1e6 / events;
        // Hold probes at the run's own queue depth and event density.
        let mean_increment_ns =
            result.final_time.as_nanos() / events * result.queue.max_pending as f64;
        let holds: Vec<f64> = (0..HOLD_PROBES)
            .map(|probe| {
                let _span = trace::span("event", "hold");
                hold_ns(
                    result.queue.max_pending,
                    mean_increment_ns,
                    derive_seed(seed, 10 + probe as u64),
                )
            })
            .collect();
        let hold = median(&holds);
        let summary = trace::finish(&crate::trace_path("sim_ring", seed));
        out.layer_summary(&summary, &scaled_times);
        out.set("sim.ns_per_event", ns_per_event);
        out.set("event.hold_ns", hold);
        out.set("sim.handler_ns_per_event", ns_per_event - hold);
        out.set("sim.events", events);
        out.set("sim.packets", result.stats.packets_completed as f64);
        out.set("sim.max_pending", result.queue.max_pending as f64);
        out.set("sim.buckets_opened", result.queue.buckets_opened as f64);
        out.set("sim.pool_reuses", result.queue.pool_reuses as f64);
    }
    trace::set_enabled(false);
    out.set("oracle.checked", flows.len() as f64);
    let (first, second) = (first.unwrap_or_default(), second.unwrap_or_default());
    out.compare_counters("runs 1 and 2", &first, &second);
}
