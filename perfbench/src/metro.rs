//! `metro_admission`: single-request admission decisions on the E14 metro
//! (disjoint star cells), interleaved with releases of earlier admitted
//! flows.  Trials never exceed one cell, so the engine does little work per
//! decision and the controller's bookkeeping dominates.

use crate::stats::{mean, median, timed};
use crate::{trace, Args, Counters, Outcome};
use gmf_analysis::{
    analyze, iterate_from, AdmissionController, AdmissionDecision, AdmissionRequest,
    AnalysisConfig, AnalysisContext, DependencyGraph, JitterMap, PreloadStats,
};
use gmf_bench::{METRO_BENCH_SEED, METRO_TIGHT_FRACTION};
use gmf_model::{DemandTable, FlowId};
use gmf_net::{FlowBinding, FlowSet, NodeId};
use gmf_par::derive_seed;
use gmf_workloads::{metro_candidates, metro_scenario, MetroConfig};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Access cells of the metro (20 pre-admitted flows each).
const CELLS: usize = 1000;
/// Timed preloads behind `setup_s` (median reported).
const SETUP_REPS: usize = 5;
/// Candidates drawn per run; the stream cycles through them.
const POOL: usize = 4096;
/// Admitted candidates kept live; each further acceptance releases the
/// oldest one, so releases interleave with decisions.
const LIVE: usize = 64;
/// Decisions per pass (`pass_s`).
const BLOCK: usize = 256;
/// Every this-many-th decision is checked against a cold analysis.
const ORACLE_EVERY: usize = 16;
/// Decisions in the deterministic counter pass.
const COUNTER_OPS: usize = 512;
/// A run makes at least this many decisions (p99 needs ≥ 10 beyond it).
const MIN_DECISIONS: usize = 1000;

/// The closed-loop client: one request at a time.
struct Client<'a> {
    ctl: AdmissionController,
    candidates: &'a [AdmissionRequest],
    cell_of: &'a BTreeMap<NodeId, usize>,
    next: usize,
    live: VecDeque<(FlowId, usize)>,
    /// Flow ids per cell, kept in step with the controller (oracle input).
    members: Vec<BTreeSet<FlowId>>,
}

/// One decision.
struct Step {
    candidate: usize,
    cell: usize,
    decision: AdmissionDecision,
    decision_s: f64,
    /// The decision's span, when tracing.
    span_id: Option<usize>,
}

fn cell_of_route(cell_of: &BTreeMap<NodeId, usize>, nodes: &[NodeId]) -> usize {
    // Every metro route is host → cell switch → host.
    cell_of[&nodes[1]]
}

impl<'a> Client<'a> {
    fn new(
        ctl: AdmissionController,
        candidates: &'a [AdmissionRequest],
        cell_of: &'a BTreeMap<NodeId, usize>,
        cells: usize,
    ) -> Self {
        let mut members = vec![BTreeSet::new(); cells];
        for binding in ctl.accepted().bindings() {
            members[cell_of_route(cell_of, binding.route.nodes())].insert(binding.id);
        }
        Client {
            ctl,
            candidates,
            cell_of,
            next: 0,
            live: VecDeque::new(),
            members,
        }
    }

    /// The flows of the shards the next candidate's route touches — the
    /// trial set the controller will analyse, minus the candidate.
    fn next_trial_members(&self) -> Vec<FlowId> {
        let request = &self.candidates[self.next % self.candidates.len()];
        let partition = self.ctl.partition();
        partition
            .shards_touching_route(request.route())
            .into_iter()
            .flat_map(|shard| partition.shard_flows(shard).unwrap_or(&[]).to_vec())
            .collect()
    }

    /// Send the next candidate and wait for its decision.
    fn decide(&mut self) -> Step {
        let candidate = self.next % self.candidates.len();
        self.next += 1;
        let request = self.candidates[candidate].clone();
        let cell = cell_of_route(self.cell_of, request.route().nodes());
        let (result, span_id, decision_s) = trace::timed_span("admission", "request_batch", || {
            self.ctl.request_batch([request])
        });
        let decision = result
            .expect("metro candidate routes are valid")
            .pop()
            .expect("one request yields one decision");
        if decision.is_accepted() {
            self.members[cell].insert(decision.id());
            self.live.push_back((decision.id(), cell));
        }
        Step {
            candidate,
            cell,
            decision,
            decision_s,
            span_id,
        }
    }

    /// Release the oldest admitted candidate once more than `LIVE` are
    /// live; returns the release time.
    fn release_oldest(&mut self) -> Option<f64> {
        if self.live.len() <= LIVE {
            return None;
        }
        let (old, old_cell) = self.live.pop_front()?;
        let (released, _, secs) =
            trace::timed_span("admission", "release", || self.ctl.release(old));
        released.expect("live candidates are admitted");
        self.members[old_cell].remove(&old);
        Some(secs)
    }

    /// The candidate as it was bound in its trial.
    fn binding(&self, step: &Step) -> FlowBinding {
        let request = &self.candidates[step.candidate];
        FlowBinding {
            id: step.decision.id(),
            flow: request.flow().clone(),
            route: request.route().clone(),
            priority: request.priority(),
            encapsulation: request.encapsulation(),
        }
    }

    /// Cold oracle: the candidate's cell plus the candidate, analysed from
    /// scratch.  Cells are disjoint, so the verdict must match exactly, and
    /// an admitted candidate's bounds must match byte for byte.
    fn oracle(&self, step: &Step, config: &AnalysisConfig) -> Option<String> {
        let accepted = step.decision.is_accepted();
        let mut trial = self
            .ctl
            .accepted()
            .subset(self.members[step.cell].iter().copied());
        if !accepted {
            if let Err(e) = trial.insert(self.binding(step)) {
                return Some(format!("candidate {}: {e}", step.candidate));
            }
        }
        let cold = match analyze(self.ctl.topology(), &trial, config) {
            Ok(report) => report,
            Err(e) => {
                return Some(format!(
                    "candidate {}: cold analysis failed: {e}",
                    step.candidate
                ))
            }
        };
        if cold.schedulable != accepted {
            return Some(format!(
                "candidate {}: admission says {accepted}, cold analysis says {}",
                step.candidate, cold.schedulable
            ));
        }
        if accepted && cold.flow(step.decision.id()) != step.decision.candidate_report() {
            return Some(format!(
                "candidate {}: bounds differ from cold analysis",
                step.candidate
            ));
        }
        None
    }
}

fn count_step(counters: &mut Counters, step: &Step, released: bool) {
    let cost = step.decision.cost();
    let accepted = step.decision.is_accepted();
    *counters.entry("decisions.accepted").or_default() += u64::from(accepted);
    *counters.entry("decisions.rejected").or_default() += u64::from(!accepted);
    *counters.entry("decisions.warm").or_default() += u64::from(cost.warm);
    *counters.entry("decisions.rounds").or_default() += cost.rounds as u64;
    *counters.entry("decisions.flow_analyses").or_default() += cost.flow_analyses as u64;
    *counters.entry("decisions.trial_flows").or_default() += cost.shard_flows as u64;
    *counters.entry("releases").or_default() += u64::from(released);
}

fn preload_counters(stats: &PreloadStats) -> Counters {
    Counters::from([
        ("preload.shards", stats.shards as u64),
        ("preload.largest_shard", stats.largest_shard as u64),
        ("preload.rounds", stats.rounds as u64),
        ("preload.flow_analyses", stats.flow_analyses as u64),
    ])
}

/// Replayed trial work, recorded as spans linked to the decision.
#[derive(Default)]
struct Replay {
    tables: Vec<f64>,
    windows: Vec<f64>,
    terms: Vec<f64>,
    rounds: Vec<f64>,
    flow_analyses: Vec<f64>,
}

fn replay_trial(
    client: &Client<'_>,
    step: &Step,
    members: &[FlowId],
    cause: Option<usize>,
    config: &AnalysisConfig,
    replay: &mut Replay,
) {
    let trial: FlowSet = {
        let _span = trace::replay("net", "subset", cause);
        let mut trial = client.ctl.accepted().subset(members.iter().copied());
        if !trial.contains(step.decision.id()) {
            trial
                .insert(client.binding(step))
                .expect("the candidate id is fresh in its trial");
        }
        trial
    };
    {
        let _span = trace::replay("deps", "graph_build", cause);
        std::hint::black_box(DependencyGraph::new(&trial));
    }
    let topology = client.ctl.topology();
    let ctx = {
        let _span = trace::replay("context", "trial_build", cause);
        AnalysisContext::new(topology, &trial).expect("an analysed trial builds a context")
    };
    let (tables, windows, terms) = ctx.kernel_stats();
    replay.tables.push(tables as f64);
    replay.windows.push(windows as f64);
    replay.terms.push(terms as f64);
    {
        let _span = trace::replay("model", "demand_tables", cause);
        for binding in trial.bindings() {
            for hop in binding.route.hops() {
                std::hint::black_box(DemandTable::new(ctx.demand(binding.id, hop.from, hop.to)));
            }
        }
    }
    let run = {
        let _span = trace::replay("fixed_point", "iterate_from", cause);
        iterate_from(&ctx, config, JitterMap::initial(&trial))
    };
    if let Ok(run) = run {
        replay.rounds.push(run.report.iterations as f64);
        replay.flow_analyses.push(run.flow_analyses as f64);
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let seed = args.seed;
    let network_seed = args.workload_seed.unwrap_or(METRO_BENCH_SEED);
    let metro = MetroConfig {
        n_cells: CELLS,
        ..MetroConfig::default()
    };
    let one = AnalysisConfig::paper().with_threads(1);
    let scenario = metro_scenario(derive_seed(network_seed, 0), &metro);
    let candidates = metro_candidates(
        derive_seed(seed, 1),
        &scenario,
        &metro,
        POOL,
        METRO_TIGHT_FRACTION,
    );
    let cell_of: BTreeMap<NodeId, usize> = scenario
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| (cell.switch, i))
        .collect();

    // Set-up: the shard-parallel preload at two threads.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut preloaded = None;
    for _ in 0..SETUP_REPS {
        drop(preloaded.take());
        let (result, secs) = timed(|| {
            AdmissionController::with_accepted(
                scenario.topology.clone(),
                scenario.flows.clone(),
                AnalysisConfig::paper().with_threads(2),
            )
        });
        preloaded = Some(result.expect("the metro preload verifies"));
        setup.push(out.speed.scale(secs));
    }
    out.set("setup_s", median(&setup));
    let (two_threads, stats_two) = preloaded.expect("at least one preload ran");

    // Counter pass A: the two-thread controller.
    let mut counters_a = preload_counters(&stats_two);
    let mut client = Client::new(two_threads, &candidates, &cell_of, CELLS);
    for _ in 0..COUNTER_OPS {
        let step = client.decide();
        let released = client.release_oldest().is_some();
        count_step(&mut counters_a, &step, released);
    }
    drop(client);

    // The measured client: a one-thread preload (counter pass B is the
    // first COUNTER_OPS decisions of its timed loop).
    let (ctl, stats_one) =
        AdmissionController::with_accepted(scenario.topology.clone(), scenario.flows.clone(), one)
            .expect("the metro preload verifies");
    let mut counters_b = preload_counters(&stats_one);
    out.set(
        "admission.preload_flow_analyses",
        stats_one.flow_analyses as f64,
    );
    out.set("admission.preload_shards", stats_one.shards as f64);
    let mut client = Client::new(ctl, &candidates, &cell_of, CELLS);

    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut oracle_checked = 0usize;
    for &traced in phases {
        trace::set_enabled(traced);
        let mut decision_s = Vec::new();
        let mut scaled_s = Vec::new();
        let mut release_s = Vec::new();
        let mut passes = Vec::new();
        let mut pass = 0.0;
        let mut costs = Vec::new();
        let mut busy = 0.0;
        let mut replay = Replay::default();
        let mut n = 0usize;
        while busy < budget || n < MIN_DECISIONS || !n.is_multiple_of(BLOCK) {
            trace::set_request(n as u64);
            let members = if traced {
                client.next_trial_members()
            } else {
                Vec::new()
            };
            let step = client.decide();
            if !traced && n.is_multiple_of(ORACLE_EVERY) {
                out.check(client.oracle(&step, &one));
                oracle_checked += 1;
            }
            if traced {
                replay_trial(&client, &step, &members, step.span_id, &one, &mut replay);
            }
            let released = client.release_oldest();
            if !traced && client.next <= COUNTER_OPS {
                count_step(&mut counters_b, &step, released.is_some());
            }
            busy += step.decision_s;
            let scaled = out.speed.scale(step.decision_s);
            pass += scaled + released.map_or(0.0, |r| out.speed.scale(r));
            scaled_s.push(scaled);
            decision_s.push(step.decision_s);
            release_s.extend(released);
            costs.push(step.decision.cost());
            n += 1;
            if n.is_multiple_of(BLOCK) {
                passes.push(pass);
                pass = 0.0;
            }
        }
        out.succeeded(n);
        if !traced {
            out.timings(&decision_s, &scaled_s, 0.99, &passes);
            continue;
        }
        let summary = trace::finish(&crate::trace_path("metro_admission", seed));
        out.layer_summary(&summary, &scaled_s);
        let decisions_ns: f64 = decision_s.iter().sum::<f64>() * 1e9;
        let cost_fa: f64 = costs.iter().map(|c| c.flow_analyses as f64).sum();
        let replay_fa: f64 = replay.flow_analyses.iter().sum();
        let replay_ns_per_fa = summary.total_ns("iterate_from") / replay_fa.max(1.0);
        let trial_build_ns = summary.total_ns("trial_build");
        let tables: f64 = replay.tables.iter().sum();
        out.set(
            "model.demand_table_build_ns",
            summary.total_ns("demand_tables") / tables.max(1.0),
        );
        out.set("model.tables", mean(&replay.tables));
        out.set("model.table_windows", mean(&replay.windows));
        out.set("context.trial_build_us", summary.median_us("trial_build"));
        out.set("context.terms", mean(&replay.terms));
        out.set("fixed_point.iterate_us", summary.median_us("iterate_from"));
        out.set("fixed_point.rounds", mean(&replay.rounds));
        out.set("fixed_point.flow_analyses", mean(&replay.flow_analyses));
        out.set("fixed_point.ns_per_flow_analysis", replay_ns_per_fa);
        out.set("admission.flow_analyses_per_decision", cost_fa / n as f64);
        out.set(
            "admission.rounds_per_decision",
            costs.iter().map(|c| c.rounds as f64).sum::<f64>() / n as f64,
        );
        out.set(
            "admission.trial_flows_p50",
            median(
                &costs
                    .iter()
                    .map(|c| c.shard_flows as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "admission.warm_share",
            costs.iter().filter(|c| c.warm).count() as f64 / n as f64,
        );
        out.set(
            "admission.ns_per_flow_analysis",
            decisions_ns / cost_fa.max(1.0),
        );
        // An estimate: the engine share is rebuilt from replays, not
        // measured inside the decision.
        out.set(
            "admission.bookkeeping_share_est",
            1.0 - (trial_build_ns + cost_fa * replay_ns_per_fa) / decisions_ns,
        );
        out.set("admission.release_us", median(&release_s) * 1e6);
        out.set("net.subset_us", summary.median_us("subset"));
        out.set("deps.graph_build_us", summary.median_us("graph_build"));
    }
    trace::set_enabled(false);
    out.set("oracle.checked", oracle_checked as f64);
    out.compare_counters(
        "metro preload/decisions at 2 vs 1 threads",
        &counters_a,
        &counters_b,
    );
}
