//! The holistic fixed-point engine: parallel Jacobi rounds of the jitter
//! iteration, re-solving only the stages whose inputs moved.
//!
//! The holistic analysis ([`crate::holistic`]) resolves the circular
//! dependency between response times and generalized jitters by iterating
//! the map `G : JitterMap → JitterMap` that analyses every flow against the
//! previous round's jitters and records the jitters the frames accumulate.
//! This module owns that iteration: plain Picard `x_{k+1} = G(x_k)`, the
//! paper's scheme, started from the paper's initial map or from a seed.
//!
//! **Why Picard lands exactly.**  Interfering jitters enter the
//! response-time equations only through the staircase request-bound
//! functions (`MX`/`NX` inside the busy-period iterations), so `G` is
//! piecewise constant in its input and its outputs live on a discrete
//! lattice (sums of frame transmission/service times).  `G` is monotone and
//! the initial map sits below every fixed point, so the Picard iterates
//! increase componentwise and reach the least fixed point `x*` *exactly*
//! in finitely many rounds — or grow until a per-resource analysis reports
//! overload / horizon excess.  Convergence is reported only when `G(x)`
//! reproduces `x`, so the final report is the evaluation `G(x*)`; the
//! [`ConvergenceTrace`] records the residual of every round.
//!
//! **Parallel Jacobi rounds.**  Within one round every flow is analysed
//! against the *same* immutable previous-round map, so the per-flow
//! analyses are embarrassingly parallel.  [`evaluate_round`] maps them over
//! a [`gmf_par::par_map_interleaved_with`] fork-join pool; results come
//! back in flow-index order, the next map is assembled in that order,
//! and error precedence scans in that order too — the output is
//! byte-identical to the sequential loop at any thread count.
//!
//! **Exact-equality stage reuse.**  A stage's per-frame responses depend
//! on the iterate only through the `extra_j` of the pairs in its
//! `all_terms` slice — all that [`crate::kernel::KernelScratch::resolve_terms`]
//! reads.  The engine keeps, per stage, the extras its last solve read and
//! the responses it produced, in run-long flat arrays parallel to the
//! plan's terms and to the jitter arena (split into one disjoint
//! [`FlowMemo`] per flow, so workers update them in place and no round
//! allocates them).  A stage whose extras are *exactly* unchanged reuses
//! its responses instead of being re-solved; a flow whose stages all reuse
//! keeps its `Arc<FlowReport>` and assignments verbatim.  Exact equality
//! — not the convergence tolerance — is what makes the reuse invisible:
//! re-solving would reproduce the memoised responses bit for bit, so only
//! the cost counters shrink.  `flow_analyses` counts flows with at least
//! one re-solved stage (never above `rounds × flows`), `stage_analyses`
//! the re-solved stages (never above `rounds × stages`).  The round loop
//! itself is plain Picard: every round evaluates `G` at the previous
//! iterate, so `iterations` and the residual `trace` are those of the
//! keyed oracle.
//!
//! **Seeds.**  [`iterate_from`] starts the iteration from an arbitrary
//! [`JitterMap`] instead of the paper's initial map.  Each jitter node
//! depends only on the nodes upstream of it in the jitter dependency
//! graph, and source jitters are constants.  When that graph is acyclic,
//! a node of depth `d` therefore holds its final value after `d` rounds
//! from *any* seed: `G^{depth+1}` is a constant map and the holistic
//! equations have a unique fixed point.  When the graph has a cycle
//! (mutually chasing flows on a ring), larger self-consistent solutions
//! can exist above `x*` and a seed above it could latch onto one.  Every
//! analysis and admission path of this crate therefore starts from the
//! paper's initial map ([`iterate`]).

use crate::config::AnalysisConfig;
use crate::context::{AnalysisContext, JitterMap};
use crate::dense::DenseJitters;
use crate::error::AnalysisError;
use crate::kernel::KernelScratch;
use crate::pipeline::{analyze_flow_dense, FlowMemo};
use crate::report::{AnalysisReport, FlowReport};
use gmf_model::Time;
use gmf_par::{par_map_interleaved_with, Threads};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One round of the holistic iteration, as recorded in the
/// [`ConvergenceTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// 1-based outer iteration number.
    pub iteration: usize,
    /// Largest absolute change of any jitter component in this round
    /// (`‖G(x) − x‖_∞`); zero for a round aborted because a flow could not
    /// be bounded (overload / horizon excess).
    pub residual: Time,
}

/// Per-round residuals of one holistic analysis run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// One entry per outer iteration, in order.
    pub rounds: Vec<RoundTrace>,
}

impl ConvergenceTrace {
    /// Number of recorded rounds (equals the report's `iterations`).
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if no round was recorded (empty flow set).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The residual of the last round, if any.
    pub fn final_residual(&self) -> Option<Time> {
        self.rounds.last().map(|r| r.residual)
    }
}

/// Everything one `G` evaluation produces.  Reports are `Arc`-shared: a
/// flow whose stages all reuse their solves hands the same allocation to
/// every round instead of deep-copying `R × F` report clones across the
/// run.
enum RoundOutcome {
    /// Every flow analysed: the per-flow reports and the next jitter map.
    Evaluated {
        reports: Vec<Arc<FlowReport>>,
        next: DenseJitters,
    },
    /// A flow could not be bounded (overload / horizon excess): the reports
    /// of the flows *before* it in flow order, and why.
    Unschedulable {
        partial: Vec<Arc<FlowReport>>,
        failure: String,
    },
}

/// Turn the engine's shared reports into the owned vector an
/// [`AnalysisReport`] carries — one unwrap per flow at the end of the run
/// (a clone only if a report is still shared).
fn unwrap_reports(reports: Vec<Arc<FlowReport>>) -> Vec<FlowReport> {
    reports
        .into_iter()
        .map(|report| Arc::try_unwrap(report).unwrap_or_else(|shared| (*shared).clone()))
        .collect()
}

/// Evaluate `G` at `jitters`: analyse every flow of the context's flow
/// set against the given arena, in parallel over `threads` workers,
/// re-solving only the stages whose inputs moved since their memoised
/// solve (see [`analyze_flow_dense`]), and assemble the next round's
/// arena from every flow's assignments.  Returns the outcome, the number
/// of flows with at least one re-solved stage and the number of re-solved
/// stages.
///
/// Flows are analysed in flow-index order semantics: results are collected
/// in that order and the first erroring flow in that order decides the
/// outcome — so the result is byte-identical to the sequential loop at any
/// thread count.  Reuse is equally invisible: a reused stage's inputs are
/// *exactly* equal to those of its memoised solve, so re-solving it would
/// reproduce its responses bit for bit — and it can never be the round's
/// first error, because its memoised solve succeeded on the same inputs.
fn evaluate_round(
    ctx: &AnalysisContext<'_>,
    jitters: &DenseJitters,
    config: &AnalysisConfig,
    memos: &mut [FlowMemo<'_>],
    scratch: &mut KernelScratch,
) -> Result<(RoundOutcome, usize, usize), AnalysisError> {
    let threads = Threads::new(config.threads);
    let n_flows = memos.len();

    // With one worker the results come from a lazy iterator, so the scan
    // below short-circuits on the first erroring flow without analysing the
    // rest of the round (rejecting admission trials hit this every call);
    // with several workers everything is evaluated eagerly up front.  Error
    // precedence is first-in-flow-order either way, so the outcome is
    // byte-identical at any thread count.
    type FlowResult = (usize, Result<Arc<FlowReport>, AnalysisError>);
    let analyze = |scratch: &mut KernelScratch, index: usize, memo: &mut FlowMemo<'_>| {
        let mut solved = 0;
        let result = analyze_flow_dense(ctx, jitters, config, index, memo, scratch, &mut solved);
        (solved, result)
    };
    let results: Box<dyn Iterator<Item = FlowResult> + '_> = if threads.get() == 1 {
        Box::new(
            memos
                .iter_mut()
                .enumerate()
                .map(move |(index, memo)| analyze(scratch, index, memo)),
        )
    } else {
        Box::new(
            par_map_interleaved_with(threads, memos, KernelScratch::default, analyze).into_iter(),
        )
    };

    let mut flows_solved = 0usize;
    let mut stages_solved = 0usize;
    let mut reports: Vec<Arc<FlowReport>> = Vec::with_capacity(n_flows);
    for (stages, result) in results {
        stages_solved += stages;
        flows_solved += usize::from(stages > 0);
        match result {
            Ok(report) => reports.push(report),
            Err(err) if err.is_unschedulable() => {
                return Ok((
                    RoundOutcome::Unschedulable {
                        partial: reports,
                        failure: err.to_string(),
                    },
                    flows_solved,
                    stages_solved,
                ));
            }
            Err(err) => return Err(err),
        }
    }

    // Every flow's memo holds its assignments at this iterate — fresh or
    // reused — and the flows' slices tile the arena in order.
    let mut values = Vec::with_capacity(ctx.plan().arena_len);
    for memo in memos.iter() {
        values.extend_from_slice(memo.assigned);
    }
    let next = DenseJitters::from_values(ctx.plan(), values);
    Ok((
        RoundOutcome::Evaluated { reports, next },
        flows_solved,
        stages_solved,
    ))
}

/// Everything one holistic fixed-point run produces: the report and the
/// run's cost.
#[derive(Debug, Clone)]
pub struct FixedPointRun {
    /// The analysis report (what [`crate::holistic::analyze`] returns).
    pub report: AnalysisReport,
    /// Number of per-flow pipeline analyses performed — flows with at
    /// least one re-solved stage, summed over rounds: at most rounds ×
    /// flows, fewer when every stage of a flow reuses its memoised solve
    /// or a round aborts early.  This is the admission-control cost
    /// metric the churn experiment tracks.
    pub flow_analyses: usize,
    /// Number of per-stage solves performed, summed over rounds: at most
    /// rounds × stages, fewer when a stage's inputs are exactly unchanged
    /// since its memoised solve.
    pub stage_analyses: usize,
}

/// Run the holistic jitter iteration from the paper's initial map (source
/// jitter on first links, zero elsewhere).
///
/// This is the engine behind [`crate::holistic::analyze`]; analysis
/// callers should use that entry point.  `ctx` must wrap a non-empty flow
/// set.
pub(crate) fn iterate(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
) -> Result<FixedPointRun, AnalysisError> {
    iterate_from(ctx, config, JitterMap::initial(ctx.flows()))
}

/// Run the holistic jitter iteration seeded with `initial`.
///
/// Started from [`JitterMap::initial`] this is exactly [`iterate`].  On an
/// *acyclic* jitter dependency graph (see the module docs) the fixed point
/// is unique, so any seed converges to byte-identical bounds.  Two caveats
/// the caller owns for other seeds:
///
/// * on a **cyclic** instance a seed above the least fixed point can latch
///   onto a larger self-consistent solution;
/// * a seed *above* the fixed point can make an intermediate busy-period
///   iteration exceed the horizon even though the instance is
///   schedulable, so a non-converged run from such a seed says nothing
///   about schedulability.
pub fn iterate_from(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    initial: JitterMap,
) -> Result<FixedPointRun, AnalysisError> {
    let plan = ctx.plan();
    let mut x = DenseJitters::from_keyed(plan, ctx.flows(), &initial);
    let mut flow_analyses = 0usize;
    let mut stage_analyses = 0usize;
    let mut last_reports: Vec<Arc<FlowReport>> = Vec::new();
    let mut trace = ConvergenceTrace::default();
    // The run's stage memo, one disjoint slice per flow (see
    // `FlowMemo`): allocated once, updated in place every round.
    let mut extras = vec![Time::ZERO; plan.terms.len()];
    let mut responses = vec![Time::ZERO; plan.arena_len];
    let mut assigned = vec![Time::ZERO; plan.arena_len];
    let mut memos = FlowMemo::split(plan, &mut extras, &mut responses, &mut assigned);
    let mut scratch = KernelScratch::default();

    for iteration in 1..=config.max_holistic_iterations {
        let (outcome, flows, stages) = evaluate_round(ctx, &x, config, &mut memos, &mut scratch)?;
        flow_analyses += flows;
        stage_analyses += stages;
        let (reports, gx) = match outcome {
            RoundOutcome::Evaluated { reports, next } => (reports, next),
            RoundOutcome::Unschedulable { partial, failure } => {
                // The aborted round still counts as an iteration, so it
                // also gets a trace entry (`trace.len() == iterations`
                // always holds); no next map was folded, hence no residual.
                trace.rounds.push(RoundTrace {
                    iteration,
                    residual: Time::ZERO,
                });
                drop(memos);
                return Ok(FixedPointRun {
                    report: AnalysisReport {
                        flows: unwrap_reports(partial),
                        converged: false,
                        iterations: iteration,
                        schedulable: false,
                        failure: Some(failure),
                        trace,
                    },
                    flow_analyses,
                    stage_analyses,
                });
            }
        };
        trace.rounds.push(RoundTrace {
            iteration,
            residual: gx.max_abs_diff(&x),
        });

        if gx.approx_eq(&x) {
            let schedulable = reports.iter().all(|r| r.meets_all_deadlines());
            let failure = if schedulable {
                None
            } else {
                let miss = reports
                    .iter()
                    .filter(|r| !r.meets_all_deadlines())
                    .map(|r| r.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ");
                Some(format!("deadline missed by: {miss}"))
            };
            // The memos hold the last references to the reports, so the
            // unwrap below moves them instead of cloning.
            drop(memos);
            return Ok(FixedPointRun {
                report: AnalysisReport {
                    flows: unwrap_reports(reports),
                    converged: true,
                    iterations: iteration,
                    schedulable,
                    failure,
                    trace,
                },
                flow_analyses,
                stage_analyses,
            });
        }

        last_reports = reports;
        x = gx;
    }

    // The jitter iteration did not stabilise within the budget.
    drop(memos);
    Ok(FixedPointRun {
        report: AnalysisReport {
            flows: unwrap_reports(last_reports),
            converged: false,
            iterations: config.max_holistic_iterations,
            schedulable: false,
            failure: Some(
                AnalysisError::HolisticNoConvergence {
                    iterations: config.max_holistic_iterations,
                }
                .to_string(),
            ),
            trace,
        },
        flow_analyses,
        stage_analyses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holistic::analyze;
    use gmf_model::{paper_figure3_flow, voip_flow, Time, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, FlowSet, Priority};

    fn paper_like_flows() -> (gmf_net::Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(5),
        );
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        (t, fs)
    }

    #[test]
    fn trace_records_one_round_per_iteration() {
        let (t, fs) = paper_like_flows();
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(report.converged);
        assert_eq!(report.trace.len(), report.iterations);
        assert!(!report.trace.is_empty());
        // Residuals are recorded and the final round's residual is within
        // the convergence tolerance (≈ zero).
        let last = report.trace.final_residual().unwrap();
        assert!(last.approx_eq(Time::ZERO), "final residual {last}");
        // The first round moves jitter, so its residual is positive.
        assert!(report.trace.rounds[0].residual > Time::ZERO);
    }

    #[test]
    fn parallel_rounds_match_sequential_bytes() {
        let (t, fs) = paper_like_flows();
        let sequential = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel =
                analyze(&t, &fs, &AnalysisConfig::paper().with_threads(threads)).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn unschedulable_outcomes_are_identical_across_engines() {
        // An impossible deadline: partial reports + failure text must match
        // across thread counts.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(5.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let base = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(!base.schedulable);
        // The aborted round is still traced: one entry per iteration.
        assert_eq!(base.trace.len(), base.iterations);
        for threads in [2usize, 8] {
            let par = analyze(&t, &fs, &AnalysisConfig::paper().with_threads(threads)).unwrap();
            assert_eq!(base, par);
        }
    }

    /// A star: one switch, `n` hosts, voice flow `i` from host `i` to host
    /// `i + 1` — an acyclic jitter dependency graph whose first hops never
    /// move (every first-link jitter is a constant source jitter).
    fn voice_star(n: usize) -> (gmf_net::Topology, FlowSet) {
        use gmf_net::{LinkProfile, Route, SwitchConfig};
        let mut t = gmf_net::Topology::new();
        let switch = t.add_switch(SwitchConfig::paper(), "s");
        let hosts: Vec<_> = (0..n).map(|i| t.add_end_host(format!("h{i}"))).collect();
        for &host in &hosts {
            t.add_duplex_link(host, switch, LinkProfile::ethernet_100m())
                .unwrap();
        }
        let mut fs = FlowSet::new();
        for i in 0..n {
            let voice = voip_flow(
                &format!("voice{i}"),
                VoiceCodec::G711,
                Time::from_millis(20.0),
                Time::from_millis(0.5),
            );
            let route = Route::new(&t, vec![hosts[i], switch, hosts[(i + 1) % n]]).unwrap();
            fs.add(voice, route, Priority(7));
        }
        (t, fs)
    }

    #[test]
    fn first_hop_stages_are_solved_once_per_run_on_an_acyclic_star() {
        let (t, fs) = voice_star(4);
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let plan = ctx.plan();
        let config = AnalysisConfig::paper();
        let mut x = DenseJitters::from_keyed(plan, &fs, &JitterMap::initial(&fs));
        let mut extras = vec![Time::ZERO; plan.terms.len()];
        let mut responses = vec![Time::ZERO; plan.arena_len];
        let mut assigned = vec![Time::ZERO; plan.arena_len];
        let mut memos = FlowMemo::split(plan, &mut extras, &mut responses, &mut assigned);
        let mut scratch = KernelScratch::default();
        let mut rounds = 0;
        let mut stage_analyses = 0;
        loop {
            rounds += 1;
            // After the first round every first hop reuses its solve.
            for (memo, flow_plan) in memos.iter().zip(&plan.flows) {
                let first_hop = &flow_plan.stages[0];
                assert_eq!(
                    memo.stage_hits(plan, flow_plan, &x, first_hop),
                    rounds > 1,
                    "round {rounds}"
                );
            }
            let (outcome, _, stages) =
                evaluate_round(&ctx, &x, &config, &mut memos, &mut scratch).unwrap();
            stage_analyses += stages;
            let RoundOutcome::Evaluated { next, .. } = outcome else {
                panic!("the star is schedulable");
            };
            if next.approx_eq(&x) {
                break;
            }
            x = next;
        }
        let n_stages: usize = plan.flows.iter().map(|f| f.stages.len()).sum();
        assert!(rounds >= 2);
        assert!(stage_analyses < rounds * n_stages);
        // The engine's own counter and round count agree.
        let run = iterate(&ctx, &config).unwrap();
        assert_eq!(run.report.iterations, rounds);
        assert_eq!(run.stage_analyses, stage_analyses);
        assert_eq!(
            run.report,
            crate::reference::analyze_reference(&t, &fs, &config).unwrap()
        );
    }

    #[test]
    fn aborted_trial_keeps_its_failure_and_partial_reports() {
        use gmf_model::cbr_flow;
        // A light voice flow on its own access link, then three bulk flows
        // that together overload host 0's access link: the round aborts at
        // the first bulk flow, after the voice flow's report.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        for i in 0..3 {
            let bulk = cbr_flow(
                &format!("bulk{i}"),
                55_000,
                Time::from_millis(100.0),
                Time::from_millis(400.0),
                Time::from_millis(1.0),
            );
            fs.add(bulk, route.clone(), Priority(4));
        }
        let reference =
            crate::reference::analyze_reference(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(reference.failure.as_ref().unwrap().contains("overloaded"));
        assert_eq!(reference.flows.len(), 1);
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        for threads in [1usize, 4] {
            let run = iterate(&ctx, &AnalysisConfig::paper().with_threads(threads)).unwrap();
            assert_eq!(run.report, reference, "threads = {threads}");
            assert!(!run.report.converged);
        }
    }

    #[test]
    fn aborted_round_is_traced() {
        use gmf_model::cbr_flow;
        // Three flows that each need ~45% of the 10 Mbit/s access link:
        // the round aborts with an overload error instead of folding a
        // next jitter map, but still counts as a traced iteration.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        for i in 0..3 {
            let f = cbr_flow(
                &format!("bulk{i}"),
                55_000,
                Time::from_millis(100.0),
                Time::from_millis(400.0),
                Time::from_millis(1.0),
            );
            fs.add(f, route.clone(), Priority(4));
        }
        let report = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        assert!(!report.schedulable);
        assert!(!report.converged);
        assert!(report.failure.as_ref().unwrap().contains("overloaded"));
        assert_eq!(report.trace.len(), report.iterations);
        assert_eq!(report.iterations, 1);
        // Parallel rounds abort identically.
        let parallel = analyze(&t, &fs, &AnalysisConfig::paper().with_threads(4)).unwrap();
        assert_eq!(report, parallel);
    }
}
