//! The holistic fixed-point engine: parallel Jacobi rounds of the jitter
//! iteration, with exact-equality round skipping.
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
//! a [`gmf_par::par_map`] fork-join pool; results come back in flow-index
//! order, the next map is folded sequentially in that order, and error
//! precedence scans in that order too — the output is byte-identical to
//! the sequential loop at any thread count.
//!
//! **Exact-equality round skipping.**  A flow whose every input jitter
//! slot (see [`crate::dense::FlowPlan::input_pairs`]) is *exactly* equal
//! to the arena its cached analysis read is not re-analysed: re-analysing
//! it would reproduce the cached report and assignments bit for bit.
//! Exact equality — not the convergence tolerance — is what makes the skip
//! invisible; only the `flow_analyses` cost counter shrinks, and it never
//! exceeds `rounds × flows`.
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
use crate::pipeline::analyze_flow_dense;
use crate::report::{AnalysisReport, FlowReport, FrameBound};
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

/// Everything one `G` evaluation produces.  Reports are `Arc`-shared:
/// round-skipped flows hand the same allocation to every round instead of
/// deep-copying `R × F` report clones across the run.
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

/// What the engine remembers about one flow's last analysis: its report
/// and its per-stage jitter assignments, both reusable verbatim while the
/// flow's inputs (see [`crate::dense::FlowPlan::input_pairs`]) are
/// unchanged.
struct FlowCache {
    report: Arc<FlowReport>,
    /// Frame-major, stage-minor accumulated jitters (the dense form of
    /// [`crate::pipeline::JitterAssignments`]).
    assignments: Vec<Vec<Time>>,
}

/// Evaluate `G` at `jitters`: analyse every *dirty* flow of the context's
/// flow set against the given arena, in parallel over `threads` workers,
/// and fold the assignments (fresh or cached) into the next round's arena.
/// Returns the outcome and the number of per-flow analyses actually
/// performed.
///
/// A flow is *skipped* — its cached report and assignments reused without
/// re-analysing (Jacobi memoization) — when its input slots are exactly
/// unchanged since its last analysis; every other flow is dirty.
///
/// Flows are analysed in flow-index order semantics: results are collected
/// in that order, the next map is folded in that order, and the first
/// erroring flow in that order decides the outcome — so the result is
/// byte-identical to the sequential loop at any thread count.  Skipping is
/// equally invisible: a skipped flow's inputs are *exactly* equal to those
/// of its cached analysis, so re-analysing it would reproduce the cached
/// report and assignments bit for bit — and a skipped flow can never be
/// the round's first error, because its cached analysis succeeded on the
/// same inputs.
fn evaluate_round(
    ctx: &AnalysisContext<'_>,
    jitters: &DenseJitters,
    config: &AnalysisConfig,
    cache: &mut [Option<FlowCache>],
    last_input: Option<&DenseJitters>,
) -> Result<(RoundOutcome, usize), AnalysisError> {
    let plan = ctx.plan();
    let bindings = ctx.flows().bindings();

    let skipped: Vec<bool> = (0..bindings.len())
        .map(|index| {
            cache[index].is_some()
                && last_input.is_some_and(|previous| {
                    jitters.pairs_equal(plan, previous, &plan.flows[index].input_pairs)
                })
        })
        .collect();
    let dirty: Vec<usize> = (0..bindings.len())
        .filter(|&index| !skipped[index])
        .collect();
    let threads = Threads::new(config.threads);

    // With one worker the results come from a lazy iterator, so the scan
    // below short-circuits on the first erroring flow without analysing the
    // rest of the round (rejecting admission trials hit this every call);
    // with several workers everything is evaluated eagerly up front.  Error
    // precedence is first-in-flow-order either way, so the outcome is
    // byte-identical at any thread count.
    type FlowResult = Result<(Vec<FrameBound>, Vec<Vec<Time>>), AnalysisError>;
    let mut results: Box<dyn Iterator<Item = FlowResult> + '_> = if threads.get() == 1 {
        let mut scratch = KernelScratch::default();
        Box::new(
            dirty
                .iter()
                .map(move |&index| analyze_flow_dense(ctx, jitters, config, index, &mut scratch)),
        )
    } else {
        Box::new(
            par_map_interleaved_with(threads, &dirty, KernelScratch::default, {
                |scratch, _, &index| analyze_flow_dense(ctx, jitters, config, index, scratch)
            })
            .into_iter(),
        )
    };

    let mut analyzed = 0usize;
    let mut reports: Vec<Arc<FlowReport>> = Vec::with_capacity(bindings.len());
    for (index, binding) in bindings.iter().enumerate() {
        if skipped[index] {
            let cached = cache[index]
                .as_ref()
                // tidy-allow: unwrap invariant: skipped flows have a cached analysis
                .expect("skipped flows have a cached analysis");
            reports.push(Arc::clone(&cached.report));
            continue;
        }
        // tidy-allow: unwrap invariant: one result per dirty flow
        let result = results.next().expect("one result per dirty flow");
        analyzed += 1;
        match result {
            Ok((bounds, assignments)) => {
                let report = Arc::new(FlowReport {
                    flow: binding.id,
                    name: binding.flow.name().to_string(),
                    frames: bounds,
                });
                reports.push(Arc::clone(&report));
                cache[index] = Some(FlowCache {
                    report,
                    assignments,
                });
            }
            Err(err) if err.is_unschedulable() => {
                return Ok((
                    RoundOutcome::Unschedulable {
                        partial: reports,
                        failure: err.to_string(),
                    },
                    analyzed,
                ));
            }
            Err(err) => return Err(err),
        }
    }
    drop(results);

    // Every flow (fresh or skipped) folds its assignments — a skipped
    // flow's cached assignments are exactly what re-analysing it would
    // have produced.
    let mut next = DenseJitters::initial(plan, ctx.flows());
    for (flow_plan, cached) in plan.flows.iter().zip(cache.iter()) {
        let cached = cached
            .as_ref()
            // tidy-allow: unwrap invariant: every flow has a cached analysis after the scan
            .expect("every flow has a cached analysis after the scan");
        for (frame, frame_assignments) in cached.assignments.iter().enumerate() {
            for (stage, &jitter) in frame_assignments.iter().enumerate() {
                next.set(plan, flow_plan.stages[stage].pair, frame, jitter);
            }
        }
    }
    Ok((RoundOutcome::Evaluated { reports, next }, analyzed))
}

/// Everything one holistic fixed-point run produces: the report and the
/// run's cost.
#[derive(Debug, Clone)]
pub struct FixedPointRun {
    /// The analysis report (what [`crate::holistic::analyze`] returns).
    pub report: AnalysisReport,
    /// Number of per-flow pipeline analyses performed: at most rounds ×
    /// flows analysed per round, fewer when round skipping reuses a
    /// cached analysis or a round aborts early.  This is the
    /// admission-control cost metric the churn experiment tracks.
    pub flow_analyses: usize,
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
    let mut last_reports: Vec<Arc<FlowReport>> = Vec::new();
    let mut trace = ConvergenceTrace::default();
    // Per-flow memo backing the round skipping: each flow's last analysis,
    // valid while its input slots match `last_input` (the arena the memo
    // entries were computed against).
    let mut cache: Vec<Option<FlowCache>> = (0..plan.flows.len()).map(|_| None).collect();
    let mut last_input: Option<DenseJitters> = None;

    for iteration in 1..=config.max_holistic_iterations {
        let (outcome, analyzed) = evaluate_round(ctx, &x, config, &mut cache, last_input.as_ref())?;
        flow_analyses += analyzed;
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
                drop(cache);
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
            drop(cache);
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
            });
        }

        // After a completed round every cache entry is valid against the
        // arena it just read: refreshed entries were computed at `x`, kept
        // entries had inputs exactly equal to their own reference arena.
        last_reports = reports;
        last_input = Some(std::mem::replace(&mut x, gx));
    }

    // The jitter iteration did not stabilise within the budget.
    drop(cache);
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
