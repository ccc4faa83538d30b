//! The holistic fixed-point engine: parallel Jacobi rounds plus optional
//! safeguarded Anderson(1) acceleration of the jitter iteration.
//!
//! The holistic analysis ([`crate::holistic`]) resolves the circular
//! dependency between response times and generalized jitters by iterating
//! the map `G : JitterMap → JitterMap` that analyses every flow against the
//! previous round's jitters and records the jitters the frames accumulate.
//! This module owns that iteration.  It provides two independent levers on
//! top of the plain Picard scheme `x_{k+1} = G(x_k)` the paper implies:
//!
//! **Parallel Jacobi rounds.**  Within one round every flow is analysed
//! against the *same* immutable previous-round map, so the per-flow
//! analyses are embarrassingly parallel.  [`evaluate_round`] maps them over
//! a [`gmf_par::par_map`] fork-join pool; results come back in flow-index
//! order, the next map is folded sequentially in that order, and error
//! precedence scans in that order too — the output is byte-identical to
//! the sequential loop at any thread count.
//!
//! **Safeguarded Anderson(1)-style acceleration.**  The jitter iteration
//! is monotone: Picard iterates increase componentwise towards the least
//! fixed point `x*` (or diverge past the horizon).  Residual extrapolation
//! in the Anderson(1) family (see Bian & Chen 2022, Barré et al. 2020 for
//! the nonsmooth/constrained convergence theory) can skip part of a long
//! tail.  This engine uses *diagonal* (per-component) damped secant mixing
//! rather than the classic single global coefficient: components of the
//! jitter map converge at very different speeds — most lock onto their
//! exact lattice value within a round or two while a few coupled ones tail
//! off over many rounds — and a global coefficient systematically hurls the
//! already-locked components past their fixed point.  From three
//! consecutive Picard-chained iterates `s0 → s1 = G(s0) → s2 = G(s1)`,
//! each strictly contracting component (`0 < d2 < d1` for `d1 = s1−s0`,
//! `d2 = s2−s1`) is lifted by a damped fraction of its Aitken-Δ² estimate
//! of the remaining distance:
//!
//! ```text
//! x_acc = s2 + η · min(r/(1−r), β_max) · d2,   r = d2/d1
//! ```
//!
//! Safeguards keep the result exactly equal to Picard's:
//!
//! 1. *Acyclic gating* — acceleration only runs when the jitter dependency
//!    graph is acyclic (see [`dependency_is_acyclic`]); then the holistic
//!    equations have a unique fixed point and `G^(depth+1)` is a constant
//!    map, so *any* iterate sequence lands on exactly the Picard lattice
//!    point.  On cyclic instances (mutually chasing flows on a ring),
//!    larger self-consistent solutions exist above `x*` and an overshoot
//!    could latch onto one, so the engine runs plain Picard there.
//! 2. *Monotone safeguard* — a candidate is rejected outright (the round
//!    falls back to Picard) if any component falls below the plain Picard
//!    step `G(x)` or would jump past the divergence horizon.
//! 3. *Mid-tail gate* — extrapolation fires only while the round residual
//!    is shrinking and still a sizeable fraction of its peak.  Transport
//!    tails end with components making one final quantum move and stopping
//!    dead; lifting such a last move always overshoots.
//! 4. *Overshoot absorption* — a from-below iterate satisfies `G(x) ≥ x`
//!    componentwise; the next round's `G` evaluation checks this for free.
//!    A violation means the candidate overshot `x*` in that component; the
//!    engine continues from the image `G(x)` (safe by safeguard 1) and
//!    disables acceleration after [`MAX_ABSORBS`] violations.  If the
//!    evaluation *at the candidate* fails outright (a busy period computed
//!    from the inflated jitters exceeds the horizon), the failure is an
//!    artefact of the extrapolation, not a verdict: the engine reverts to
//!    the image it extrapolated from and finishes with plain Picard, so an
//!    overshoot can never turn a schedulable instance unschedulable.
//! 5. *Exact landing* — convergence (`G(x) ≈ x`) is only reported when the
//!    current iterate is itself an image of `G` (or the initial map).  An
//!    extrapolated iterate that happens to satisfy the tolerance is run
//!    through one more Picard round first, so the final report is always
//!    an evaluation of `G` at the converged lattice point itself.
//!
//! Why the converged report is byte-identical across strategies:
//! interfering jitters enter the response-time equations only through the
//! staircase request-bound functions (`MX`/`NX` inside the busy-period
//! iterations), so `G` is piecewise constant in its input and its outputs
//! live on a discrete lattice (sums of frame transmission/service times).
//! Picard therefore reaches `x*` *exactly* in finitely many rounds, and on
//! an acyclic instance every other convergent sequence — including one
//! with absorbed overshoots — settles on the same unique lattice point,
//! after which safeguard 5 makes the final report `G(x*)` under either
//! strategy.  An accelerated step helps when it lands components inside
//! the terminal plateau below their fixed point early, short-circuiting
//! the round-per-dependency-level transport of plain Picard; the
//! [`ConvergenceTrace`] records what happened each round (residual and
//! step kind), which is also how the benches measure the iteration
//! savings.
//!
//! **Warm starts and incremental re-verification.**  [`iterate_from`]
//! seeds the iteration with an arbitrary [`JitterMap`] instead of the
//! paper's initial map.  On acyclic instances the fixed point is unique
//! and `G^{depth+1}` is a constant map, so a seed taken from the converged
//! map of a closely related flow set (the previous admission decision)
//! lands on byte-identical bounds in far fewer rounds.  On top of that,
//! [`affected_flows`] computes which flows a candidate can influence at
//! all — everything unreachable from it in the dependency graph keeps its
//! cached converged [`FlowReport`] verbatim and is never re-analysed
//! ([`Scope`]).  [`crate::admission::AdmissionController`] combines both
//! into its incremental admission engine, with a cold restart whenever the
//! dependency graph is cyclic or a warm run fails to converge.

use crate::config::AnalysisConfig;
use crate::context::{AnalysisContext, JitterMap};
use crate::dense::{DenseJitters, DensePlan};
use crate::error::AnalysisError;
use crate::kernel::KernelScratch;
use crate::pipeline::analyze_flow_dense;
use crate::report::{AnalysisReport, FlowReport, FrameBound};
use gmf_model::Time;
use gmf_par::{par_map_interleaved_with, Threads};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How the holistic engine advances the jitter iterate between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FixedPointStrategy {
    /// Plain Picard iteration `x_{k+1} = G(x_k)` — the paper's scheme.
    #[default]
    Picard,
    /// Depth-1 Anderson acceleration with the monotone safeguard; falls
    /// back to Picard whenever a candidate is unsafe.
    Anderson1,
}

impl fmt::Display for FixedPointStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixedPointStrategy::Picard => write!(f, "picard"),
            FixedPointStrategy::Anderson1 => write!(f, "anderson1"),
        }
    }
}

/// What produced the iterate a round handed to the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepKind {
    /// The plain Picard step `G(x)` was used.
    Picard,
    /// A safeguarded Anderson(1) candidate was accepted.
    Anderson,
    /// An Anderson candidate was computed but failed the monotone / horizon
    /// safeguard; the round fell back to Picard.
    AndersonRejected,
    /// The previous round's accepted candidate overshot the fixed point:
    /// either `G(x) < x` in some component (the engine absorbed the
    /// overshoot by continuing from the image `G(x)`), or evaluating `G`
    /// at the candidate failed outright and the engine reverted to the
    /// image it extrapolated from.  Either way further acceleration is
    /// throttled.
    AndersonAbsorbed,
}

impl fmt::Display for StepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepKind::Picard => write!(f, "picard"),
            StepKind::Anderson => write!(f, "anderson"),
            StepKind::AndersonRejected => write!(f, "anderson-rejected"),
            StepKind::AndersonAbsorbed => write!(f, "anderson-absorbed"),
        }
    }
}

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
    /// How the next iterate was produced at the end of this round.
    pub step: StepKind,
}

/// Per-round residuals and step decisions of one holistic analysis run.
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

    /// Number of rounds advanced by an accepted Anderson step.
    pub fn n_accelerated(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.step == StepKind::Anderson)
            .count()
    }
}

/// Cap on the per-component extrapolation factor `β = r/(1−r)`: a
/// component may jump at most this many times its last Picard gain ahead.
/// Larger values accelerate slow geometric tails harder but risk
/// overshooting past the fixed point, which costs a reverted round.
const BETA_MAX: f64 = 0.6; // tidy-allow: float dimensionless extrapolation factor, not a bound

/// Damping of the extrapolation: components jump this fraction of their
/// estimated remaining distance.  Below 1 biases towards undershoot, which
/// is free (the next Picard round mops up), where overshoot costs a
/// reverted round.
const ETA: f64 = 0.9; // tidy-allow: float dimensionless damping factor, not a bound

/// After this many post-hoc invariant violations (absorbed overshoots),
/// acceleration is disabled for the rest of the run (the workload's tail is
/// evidently not extrapolable).
const MAX_ABSORBS: usize = 2;

/// Extrapolation only fires while the round residual is at least this
/// fraction of the largest residual seen so far.  Transport-style tails end
/// with components making one last move and stopping dead; lifting such a
/// final move always overshoots, so the engine holds fire once the tail is
/// nearly drained.
const MID_TAIL_FRACTION: f64 = 0.35; // tidy-allow: float dimensionless residual fraction, not a bound

/// A node of the jitter dependency graph: the jitter of one flow at one
/// resource of its route.
type DepNode = (gmf_model::FlowId, crate::context::ResourceId);

/// The Figure 6 pipeline walk of one flow: its resources in route order,
/// each paired with the underlying directed link whose flow set interferes
/// at that resource.  `None` if the route is structurally broken (a
/// condition the analysis itself reports as an error).
fn flow_stages(
    binding: &gmf_net::FlowBinding,
) -> Option<
    Vec<(
        crate::context::ResourceId,
        (gmf_net::NodeId, gmf_net::NodeId),
    )>,
> {
    use crate::context::ResourceId;
    let route = &binding.route;
    let source = route.source();
    let first_succ = route.successor(source).ok()?;
    let mut stages = vec![(
        ResourceId::Link {
            from: source,
            to: first_succ,
        },
        (source, first_succ),
    )];
    for &switch in route.switches() {
        let succ = route.successor(switch).ok()?;
        let prec = route.predecessor(switch).ok()?;
        stages.push((ResourceId::SwitchIngress { node: switch }, (prec, switch)));
        stages.push((
            ResourceId::Link {
                from: switch,
                to: succ,
            },
            (switch, succ),
        ));
    }
    Some(stages)
}

/// The edges of the jitter dependency graph of `flows`.
///
/// Nodes are `(flow, resource)` pairs.  The jitter a flow accumulates at
/// resource `r_{i+1}` of its route is its jitter at `r_i` plus its response
/// at `r_i`, and that response reads the jitter of every interfering flow
/// at `r_i` — so there is an edge `(A, r_i) → (A, r_{i+1})` and an edge
/// `(B, r_i) → (A, r_{i+1})` for every `B` sharing `r_i`'s underlying link
/// with `A`.  `None` if any route is structurally broken.
fn dependency_edges(
    flows: &gmf_net::FlowSet,
) -> Option<std::collections::BTreeMap<DepNode, Vec<DepNode>>> {
    let link_index = flows.link_index();
    let mut edges: std::collections::BTreeMap<DepNode, Vec<DepNode>> =
        std::collections::BTreeMap::new();
    for binding in flows.bindings() {
        let stages = flow_stages(binding)?;
        for window in stages.windows(2) {
            let (resource, (from, to)) = window[0];
            let (next_resource, _) = window[1];
            let target = (binding.id, next_resource);
            edges
                .entry((binding.id, resource))
                .or_default()
                .push(target);
            for &other in link_index.flows_on_link(from, to) {
                if other != binding.id {
                    edges.entry((other, resource)).or_default().push(target);
                }
            }
        }
    }
    Some(edges)
}

/// `true` if the jitter dependency graph of the flow set is acyclic.
///
/// When the graph is acyclic, `G^depth` is a constant map: the holistic
/// equations have a *unique* fixed point and any convergent iteration —
/// accelerated, warm-started from a cached map, or plain Picard — lands on
/// exactly the same lattice point.  When it has a cycle (mutually chasing
/// flows on a ring), larger self-consistent solutions exist above the
/// least fixed point and an extrapolation overshoot (or a stale warm-start
/// seed) could latch onto one; the engine therefore disables acceleration
/// — and the admission controller disables warm starts — for cyclic
/// instances.
///
/// Every workload in the paper (converging stars, unidirectional lines,
/// the Figure 1 network) is acyclic: opposite link directions are distinct
/// resources and never interfere.
pub(crate) fn dependency_is_acyclic(flows: &gmf_net::FlowSet) -> bool {
    match dependency_edges(flows) {
        Some(edges) => !edges_have_cycle(&edges),
        None => false,
    }
}

/// Iterative three-colour DFS cycle check over a prepared edge map.
fn edges_have_cycle(edges: &std::collections::BTreeMap<DepNode, Vec<DepNode>>) -> bool {
    use std::collections::BTreeMap;
    type Node = DepNode;

    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        InProgress,
        Done,
    }
    let mut colour: BTreeMap<Node, Colour> = BTreeMap::new();
    let nodes: Vec<Node> = edges.keys().copied().collect();
    for start in nodes {
        if colour.contains_key(&start) {
            continue;
        }
        // Stack of (node, next child index).
        let mut stack: Vec<(Node, usize)> = vec![(start, 0)];
        colour.insert(start, Colour::InProgress);
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            let empty = Vec::new();
            let targets = edges.get(&node).unwrap_or(&empty);
            if *child < targets.len() {
                let next = targets[*child];
                *child += 1;
                match colour.get(&next) {
                    Some(Colour::InProgress) => return true,
                    Some(Colour::Done) => {}
                    None => {
                        colour.insert(next, Colour::InProgress);
                        stack.push((next, 0));
                    }
                }
            } else {
                colour.insert(node, Colour::Done);
                stack.pop();
            }
        }
    }
    false
}

/// The flows whose analysis can change when `seed` is added to (or removed
/// from) `flows` — the scope of re-verification for an incremental
/// admission decision.
///
/// A flow `F` is *affected* iff the response bound of `F` at some resource
/// `r` of its route can change, which happens exactly when a flow sharing
/// `r`'s underlying interference link either is `seed` itself (its demand
/// appears or disappears from the interference sum) or has a changed
/// generalized jitter at `r`.  Changed jitters are the closure of `seed`'s
/// own nodes under the dependency edges: `jitter(A, r_{i+1})` is a function
/// of the jitters at `r_i` of every flow interfering with `A` there.
///
/// Flows *not* in the returned set keep byte-identical bounds: every input
/// of every one of their per-resource analyses is untouched by `seed`, so a
/// cached converged [`crate::report::FlowReport`] stays valid verbatim.
///
/// Several seeds at once yield the union of their single-seed sets (the
/// jitter closure distributes over the union of the seeds' nodes), from
/// one dependency-graph construction.
///
/// Returns `None` when a route is structurally broken (the caller falls
/// back to re-verifying everything).
pub(crate) fn affected_flows(
    flows: &gmf_net::FlowSet,
    seeds: &[gmf_model::FlowId],
) -> Option<std::collections::BTreeSet<gmf_model::FlowId>> {
    let edges = dependency_edges(flows)?;
    affected_flows_in(flows, seeds, &edges)
}

/// [`affected_flows`] + acyclicity in one dependency-graph construction —
/// the per-request combination the warm admission path needs.  `None` when
/// the graph is cyclic (warm starts are unsound there) or a route is
/// structurally broken.
pub(crate) fn acyclic_affected_flows(
    flows: &gmf_net::FlowSet,
    seed: gmf_model::FlowId,
) -> Option<std::collections::BTreeSet<gmf_model::FlowId>> {
    let edges = dependency_edges(flows)?;
    if edges_have_cycle(&edges) {
        return None;
    }
    affected_flows_in(flows, &[seed], &edges)
}

/// The [`affected_flows`] closure over a prepared edge map.
fn affected_flows_in(
    flows: &gmf_net::FlowSet,
    seeds: &[gmf_model::FlowId],
    edges: &std::collections::BTreeMap<DepNode, Vec<DepNode>>,
) -> Option<std::collections::BTreeSet<gmf_model::FlowId>> {
    use std::collections::{BTreeMap, BTreeSet};

    let link_index = flows.link_index();
    let stages: BTreeMap<gmf_model::FlowId, _> = flows
        .bindings()
        .iter()
        .map(|b| Some((b.id, flow_stages(b)?)))
        .collect::<Option<_>>()?;

    // Closure of the seed flows' own nodes under the dependency edges:
    // every (flow, resource) whose jitter value can differ between the
    // with-seed and without-seed fixed points.
    let mut changed: BTreeSet<DepNode> = seeds
        .iter()
        .flat_map(|&seed| {
            stages[&seed]
                .iter()
                .map(move |&(resource, _)| (seed, resource))
        })
        .collect();
    let mut worklist: Vec<DepNode> = changed.iter().copied().collect();
    while let Some(node) = worklist.pop() {
        for &next in edges.get(&node).into_iter().flatten() {
            if changed.insert(next) {
                worklist.push(next);
            }
        }
    }

    let seeds: BTreeSet<gmf_model::FlowId> = seeds.iter().copied().collect();
    let mut affected = seeds.clone();
    for binding in flows.bindings() {
        if affected.contains(&binding.id) {
            continue;
        }
        let touched = stages[&binding.id].iter().any(|&(resource, (from, to))| {
            link_index
                .flows_on_link(from, to)
                .iter()
                .any(|&other| seeds.contains(&other) || changed.contains(&(other, resource)))
        });
        if touched {
            affected.insert(binding.id);
        }
    }
    Some(affected)
}

/// Everything one `G` evaluation produces.  Reports are `Arc`-shared:
/// frozen and round-skipped flows hand the same allocation to every round
/// instead of deep-copying `R × F` report clones across the run.
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
/// [`AnalysisReport`] carries — one unwrap (or clone, for reports still
/// shared with a caller's cache) per flow at the end of the run.
fn unwrap_reports(reports: Vec<Arc<FlowReport>>) -> Vec<FlowReport> {
    reports
        .into_iter()
        .map(|report| Arc::try_unwrap(report).unwrap_or_else(|shared| (*shared).clone()))
        .collect()
}

/// A dependency-derived re-verification scope for an incremental
/// (warm-started) run: only `active` flows are re-analysed each round;
/// every other flow's converged [`FlowReport`] is carried verbatim and its
/// jitter entries are copied through from the current iterate.
///
/// Correctness rests on [`affected_flows`]: a flow outside `active` has no
/// analysis input that can differ from the cached converged run, so both
/// its report and its jitters are already at their (unique, acyclic-case)
/// fixed-point values.  Scoping therefore implies an *acyclic* dependency
/// graph — callers must have checked it (see [`acyclic_affected_flows`]);
/// the engine trusts the scope and skips rebuilding the graph for the
/// Anderson gate.
pub(crate) struct Scope<'s> {
    /// Flows to re-analyse every round (the candidate plus everything
    /// reachable from it in the dependency graph, plus any flow whose
    /// cached report was invalidated by an earlier departure).
    pub active: &'s std::collections::BTreeSet<gmf_model::FlowId>,
    /// Converged reports of the inactive flows, shared into every round's
    /// report vector.  Must cover exactly the flows of the context that
    /// are not in `active`.
    pub frozen: &'s std::collections::BTreeMap<gmf_model::FlowId, Arc<FlowReport>>,
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

/// How [`evaluate_round`] treats each flow of the context.
#[derive(Clone, Copy, PartialEq)]
enum FlowRole {
    /// Outside the scope: frozen report, jitters copied through.
    Inactive,
    /// In scope, but its input slots are exactly unchanged since its last
    /// analysis: the cached report and assignments are reused without
    /// re-analysing (Jacobi memoization — correct by construction).
    Skipped,
    /// In scope with changed inputs (or no cached analysis): re-analysed.
    Dirty,
}

/// Evaluate `G` at `jitters`: analyse every *dirty* flow of the context's
/// flow set against the given arena, in parallel over `threads` workers,
/// and fold the assignments (fresh or cached) into the next round's arena.
/// Returns the outcome and the number of per-flow analyses actually
/// performed.
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
    scope: Option<&Scope<'_>>,
    cache: &mut [Option<FlowCache>],
    last_input: Option<&DenseJitters>,
) -> Result<(RoundOutcome, usize), AnalysisError> {
    let plan = ctx.plan();
    let bindings = ctx.flows().bindings();

    let roles: Vec<FlowRole> = bindings
        .iter()
        .enumerate()
        .map(|(index, binding)| {
            if !scope.is_none_or(|s| s.active.contains(&binding.id)) {
                FlowRole::Inactive
            } else if config.skip_unchanged_flows
                && cache[index].is_some()
                && last_input.is_some_and(|previous| {
                    jitters.pairs_equal(plan, previous, &plan.flows[index].input_pairs)
                })
            {
                FlowRole::Skipped
            } else {
                FlowRole::Dirty
            }
        })
        .collect();
    let dirty: Vec<usize> = (0..bindings.len())
        .filter(|&index| roles[index] == FlowRole::Dirty)
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
        match roles[index] {
            FlowRole::Inactive => {
                let frozen = scope
                    // tidy-allow: unwrap invariant: inactive flows only exist under a scope
                    .expect("inactive flows only exist under a scope")
                    .frozen
                    .get(&binding.id)
                    // tidy-allow: unwrap invariant: scoped rounds carry a frozen report for every inactive flow
                    .expect("scoped rounds carry a frozen report for every inactive flow");
                reports.push(Arc::clone(frozen));
            }
            FlowRole::Skipped => {
                let cached = cache[index]
                    .as_ref()
                    // tidy-allow: unwrap invariant: skipped flows have a cached analysis
                    .expect("skipped flows have a cached analysis");
                reports.push(Arc::clone(&cached.report));
            }
            FlowRole::Dirty => {
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
        }
    }
    drop(results);

    let mut next = DenseJitters::initial(plan, ctx.flows());
    for (index, role) in roles.iter().enumerate() {
        let flow_plan = &plan.flows[index];
        match role {
            // Frozen flows' jitters are already at their fixed-point
            // values; carry them through unchanged so the fold below only
            // moves the active components.
            FlowRole::Inactive => {
                for stage in &flow_plan.stages {
                    next.copy_pair_from(plan, jitters, stage.pair);
                }
            }
            // Active flows (fresh or skipped) fold their assignments —
            // a skipped flow's cached assignments are exactly what
            // re-analysing it would have produced.
            FlowRole::Skipped | FlowRole::Dirty => {
                let cached = cache[index]
                    .as_ref()
                    // tidy-allow: unwrap invariant: active flows have a cached analysis after the scan
                    .expect("active flows have a cached analysis after the scan");
                for (frame, frame_assignments) in cached.assignments.iter().enumerate() {
                    for (stage, &jitter) in frame_assignments.iter().enumerate() {
                        next.set(plan, flow_plan.stages[stage].pair, frame, jitter);
                    }
                }
            }
        }
    }
    Ok((RoundOutcome::Evaluated { reports, next }, analyzed))
}

/// What [`anderson_candidate`] produced, distinguished so the
/// [`ConvergenceTrace`] reports what actually happened.
enum Candidate {
    /// A candidate passed every safeguard and should become the next
    /// iterate.
    Extrapolated(DenseJitters),
    /// A candidate was computed but tripped the monotone / horizon
    /// safeguard.
    SafeguardRejected,
    /// No component was strictly contracting: there was nothing to
    /// extrapolate and the round is a plain Picard round.
    NothingToExtrapolate,
}

/// What the diagonal extrapolation decides for one jitter component.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SlotStep {
    /// Not strictly contracting: keep the plain Picard value `s2`.
    Keep,
    /// Strictly contracting: lift to the damped Aitken-Δ² estimate.
    Lift(Time),
    /// The lift would pass the horizon, lose finiteness or fall below the
    /// Picard step: the whole candidate must be rejected.
    Reject,
}

/// The per-component secant step of the Anderson(1) candidate, from three
/// consecutive Picard-chained values `s0 → s1 = G(s0) → s2 = G(s1)` of one
/// slot.
fn extrapolate_slot(s0: Time, s1: Time, s2: Time, horizon: Time) -> SlotStep {
    let d1 = (s1 - s0).as_secs();
    let d2 = (s2 - s1).as_secs();
    // Extrapolate only strictly contracting monotone components
    // (0 < d2 < d1); everything else keeps the Picard value.
    if d2 > 0.0 && d2 < d1 {
        let ratio = d2 / d1;
        let beta = (ratio / (1.0 - ratio)).min(BETA_MAX);
        let accelerated = Time::from_secs(s2.as_secs() + ETA * beta * d2);
        if !accelerated.is_finite() || accelerated > horizon {
            return SlotStep::Reject;
        }
        // Monotone safeguard: never fall below the Picard step.
        if accelerated < s2 {
            return SlotStep::Reject;
        }
        SlotStep::Lift(accelerated)
    } else {
        SlotStep::Keep
    }
}

/// The Anderson(1) candidate built from three consecutive Picard-chained
/// iterates `prev_x → x (= G(prev_x)) → gx (= G(x))`.
///
/// Mixing is *diagonal* (one secant coefficient per jitter component, the
/// Aitken-Δ² estimate of that component's limit) rather than the classic
/// single global coefficient: the holistic iteration converges at very
/// different speeds per component (most lock onto their exact lattice value
/// within a round or two while a few coupled ones tail off slowly), and a
/// global coefficient systematically hurls the already-converged components
/// past their fixed point, which the post-hoc invariant check then has to
/// revert.  Components that are not contracting keep the plain Picard value;
/// contracting ones jump a damped fraction [`ETA`] of their estimated
/// remaining distance, which biases the candidate towards *undershoot* —
/// an undershot candidate stays in the monotone from-below region and costs
/// nothing, while an overshot one costs a reverted round.
fn anderson_candidate(
    plan: &DensePlan,
    x: &DenseJitters,
    gx: &DenseJitters,
    prev_x: &DenseJitters,
    horizon: Time,
) -> Candidate {
    let mut candidate = DenseJitters::zeroed(plan);
    let mut extrapolated_any = false;
    for pair in 0..crate::index::cx(plan.n_pairs()) {
        for idx in plan.range(pair) {
            let s0 = prev_x.slots()[idx];
            let s1 = x.slots()[idx];
            let s2 = gx.slots()[idx];
            let value = match extrapolate_slot(s0, s1, s2, horizon) {
                SlotStep::Keep => s2,
                SlotStep::Lift(accelerated) => {
                    extrapolated_any = true;
                    accelerated
                }
                SlotStep::Reject => return Candidate::SafeguardRejected,
            };
            candidate.set_slot(pair, idx, value);
        }
    }
    if extrapolated_any {
        Candidate::Extrapolated(candidate)
    } else {
        Candidate::NothingToExtrapolate
    }
}

/// State the Anderson strategy carries between rounds.
struct AndersonState {
    /// The iterate *before* the current one, when the chain
    /// `prev_x → x → gx` is three consecutive Picard steps.
    prev_x: Option<DenseJitters>,
    /// The previous round's residual — extrapolation is gated on the
    /// residual actually shrinking (the first rounds of a run often *grow*
    /// it while jitter fronts still propagate downstream).
    last_residual: Option<Time>,
    /// The largest residual seen so far.  Extrapolation only fires while
    /// the residual is still a sizeable fraction of this peak (mid-tail):
    /// near the end of a transport tail, components make one final move
    /// and stop, and any lift of that last move overshoots.
    peak_residual: Time,
    /// The Picard image the last accepted candidate extrapolated from.
    /// If evaluating `G` *at the candidate* fails outright (a busy period
    /// computed from the inflated jitters exceeds the horizon, say), the
    /// failure is an artefact of the extrapolation, not a property of the
    /// flow set — the engine reverts here and re-runs the round plainly.
    fallback: Option<DenseJitters>,
    /// Post-hoc invariant violations (absorbed overshoots) so far.
    absorbs: usize,
    /// Acceleration still allowed?
    enabled: bool,
}

/// Everything one holistic fixed-point run produces: the report, the
/// converged jitter map (for warm-start caching) and the run's cost.
#[derive(Debug, Clone)]
pub struct FixedPointRun {
    /// The analysis report (what [`crate::holistic::analyze`] returns).
    pub report: AnalysisReport,
    /// The converged jitter iterate `x*` — present iff the run converged.
    /// The report's bounds are exactly the evaluation `G(x*)`, so seeding a
    /// later warm-started run with this map reproduces them byte for byte.
    pub jitters: Option<JitterMap>,
    /// Number of per-flow pipeline analyses performed (≈ rounds × flows
    /// analysed per round; fewer when a round aborts early).  This is the
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
    iterate_inner(ctx, config, JitterMap::initial(ctx.flows()), None)
}

/// Run the holistic jitter iteration warm-started from `initial`.
///
/// On an *acyclic* jitter dependency graph (see the module docs) the fixed
/// point is unique and `G^{depth+1}` is a constant map, so the run
/// converges to byte-identical bounds from **any** initial map — a cached
/// converged map of a closely related flow set lands in far fewer rounds
/// than the cold start.  Two caveats the caller owns:
///
/// * on a **cyclic** instance a seed above the least fixed point can latch
///   onto a larger self-consistent solution — warm-start only when
///   the dependency graph is acyclic (the admission controller gates on
///   exactly that and falls back to a cold restart otherwise);
/// * a seed *above* the fixed point (e.g. cached jitters after a flow
///   departure) can make an intermediate busy-period iteration exceed the
///   horizon even though the instance is schedulable — treat a
///   non-converged warm run as "unknown" and restart cold rather than
///   taking its verdict.
pub fn iterate_from(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    initial: JitterMap,
) -> Result<FixedPointRun, AnalysisError> {
    iterate_inner(ctx, config, initial, None)
}

/// [`iterate_from`] restricted to a re-verification scope: only
/// `scope.active` flows are re-analysed; the rest keep their frozen
/// converged reports and jitters.  See [`Scope`] for the correctness
/// argument.
pub(crate) fn iterate_scoped(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    initial: JitterMap,
    scope: &Scope<'_>,
) -> Result<FixedPointRun, AnalysisError> {
    iterate_inner(ctx, config, initial, Some(scope))
}

fn iterate_inner(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    initial: JitterMap,
    scope: Option<&Scope<'_>>,
) -> Result<FixedPointRun, AnalysisError> {
    let plan = ctx.plan();
    let mut x = DenseJitters::from_keyed(plan, ctx.flows(), &initial);
    let mut flow_analyses = 0usize;
    let mut last_reports: Vec<Arc<FlowReport>> = Vec::new();
    let mut trace = ConvergenceTrace::default();
    // Per-flow memo backing the dirty-flow round skipping: each flow's last
    // analysis, valid while its input slots match `last_input` (the arena
    // the memo entries were computed against).
    let mut cache: Vec<Option<FlowCache>> = (0..plan.flows.len()).map(|_| None).collect();
    let mut last_input: Option<DenseJitters> = None;
    // `x` starts as the initial map and is otherwise an image of `G` except
    // right after an accepted Anderson step.
    let mut input_is_image = true;
    // Acceleration is only sound when the holistic equations have a unique
    // fixed point, i.e. when the jitter dependency graph is acyclic (see
    // `dependency_is_acyclic`); cyclic instances run plain Picard.
    let mut anderson = AndersonState {
        prev_x: None,
        last_residual: None,
        peak_residual: Time::ZERO,
        fallback: None,
        absorbs: 0,
        // A scope certifies acyclicity already (freezing is only sound
        // there, and the admission controller gates on it), so the graph
        // is not rebuilt for the Anderson gate on scoped runs.
        enabled: config.strategy == FixedPointStrategy::Anderson1
            && (scope.is_some() || dependency_is_acyclic(ctx.flows())),
    };

    for iteration in 1..=config.max_holistic_iterations {
        let round = evaluate_round(ctx, &x, config, scope, &mut cache, last_input.as_ref());
        if let Ok((_, analyzed)) = &round {
            flow_analyses += analyzed;
        }
        // After a *completed* round every cache entry is valid against the
        // arena it just read: refreshed entries were computed at `x`, kept
        // entries had inputs exactly equal to their own reference arena.
        // (When skipping is off the memo is never consulted — skip the
        // per-round arena clone.)
        last_input = if config.skip_unchanged_flows {
            Some(x.clone())
        } else {
            None
        };

        // A failure while evaluating `G` at an *extrapolated* iterate
        // (unschedulable outcome or hard error) may be an artefact of the
        // candidate's inflated jitters rather than a property of the flow
        // set: a Picard run of the same instance could converge fine.
        // Discard the candidate, resume from the image it extrapolated
        // from, and run plain Picard for the rest of the analysis.
        if !input_is_image && !matches!(round, Ok((RoundOutcome::Evaluated { .. }, _))) {
            trace.rounds.push(RoundTrace {
                iteration,
                residual: Time::ZERO,
                step: StepKind::AndersonAbsorbed,
            });
            x = anderson
                .fallback
                .take()
                // tidy-allow: unwrap invariant: a non-image iterate always has a revert target
                .expect("a non-image iterate always has a revert target");
            // The aborted round left the memo MIXED: flows it re-analysed
            // before failing are cached against the discarded candidate,
            // flows after the failure point still against the older image
            // — and the candidate agrees with the revert target on every
            // unlifted slot, so an input-equality check against it could
            // wrongly reuse those older entries.  Drop the reference arena
            // so the next round re-analyses everything.
            last_input = None;
            input_is_image = true;
            anderson.prev_x = None;
            anderson.last_residual = None;
            anderson.enabled = false;
            continue;
        }

        let (reports, gx) = match round?.0 {
            RoundOutcome::Evaluated { reports, next } => (reports, next),
            RoundOutcome::Unschedulable { partial, failure } => {
                // The aborted round still counts as an iteration, so it
                // also gets a trace entry (`trace.len() == iterations`
                // always holds); no next map was folded, hence no residual.
                trace.rounds.push(RoundTrace {
                    iteration,
                    residual: Time::ZERO,
                    step: StepKind::Picard,
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
                    jitters: None,
                    flow_analyses,
                });
            }
        };
        let residual = gx.max_abs_diff(&x);

        // Post-hoc invariant check of the previous round's accepted
        // candidate: a from-below iterate satisfies G(x) ≥ x.  A violation
        // means the candidate overshot the fixed point in that component.
        // Acceleration only runs on acyclic instances, where *any* iterate
        // reaches the unique fixed point on the dependency-depth schedule,
        // so the overshoot is absorbed — the engine simply continues from
        // the image G(x) — but further acceleration is throttled.
        let mut absorbed = false;
        if !input_is_image {
            let invariant_broken = gx
                .slots()
                .iter()
                .zip(x.slots())
                .any(|(&value, &assumed)| value < assumed && !value.approx_eq(assumed));
            if invariant_broken {
                absorbed = true;
                anderson.absorbs += 1;
                if anderson.absorbs >= MAX_ABSORBS {
                    anderson.enabled = false;
                }
            }
        }

        let converged = gx.approx_eq(&x);
        if converged && input_is_image {
            trace.rounds.push(RoundTrace {
                iteration,
                residual,
                step: StepKind::Picard,
            });
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
            // The reports are exactly the evaluation `G(x)`, so `x` (not
            // `gx`) is the map to cache: re-evaluating `G` at it
            // reproduces them byte for byte.
            let jitters = Some(x.to_keyed(plan));
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
                jitters,
                flow_analyses,
            });
        }

        // Choose the next iterate.  Extrapolation needs three consecutive
        // Picard-chained iterates (prev_x → x → gx) and a shrinking
        // residual; the first rounds of a run typically *grow* the residual
        // while jitter fronts still propagate and are never extrapolated.
        let mut step = if absorbed {
            StepKind::AndersonAbsorbed
        } else {
            StepKind::Picard
        };
        let mut next = None;
        anderson.peak_residual = anderson.peak_residual.max(residual);
        if anderson.enabled && input_is_image {
            if let Some(prev_x) = &anderson.prev_x {
                let shrinking = anderson
                    .last_residual
                    .is_some_and(|previous| residual < previous);
                let mid_tail =
                    residual.as_secs() >= MID_TAIL_FRACTION * anderson.peak_residual.as_secs();
                if shrinking && mid_tail {
                    match anderson_candidate(plan, &x, &gx, prev_x, config.horizon) {
                        Candidate::Extrapolated(candidate) => {
                            step = StepKind::Anderson;
                            next = Some(candidate);
                        }
                        Candidate::SafeguardRejected => step = StepKind::AndersonRejected,
                        Candidate::NothingToExtrapolate => {}
                    }
                }
            }
        }
        trace.rounds.push(RoundTrace {
            iteration,
            residual,
            step,
        });

        last_reports = reports;
        match next {
            Some(candidate) => {
                // Accepted Anderson step: keep the image we extrapolated
                // from as the revert target for a failed evaluation; the
                // Picard chain restarts from the landing point, so the
                // following round is always plain Picard.
                anderson.fallback = Some(gx);
                anderson.prev_x = None;
                anderson.last_residual = None;
                x = candidate;
                input_is_image = false;
            }
            None => {
                anderson.prev_x = Some(x);
                anderson.last_residual = Some(residual);
                x = gx;
                input_is_image = true;
            }
        }
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
        jitters: None,
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
    fn strategy_and_step_kind_display() {
        assert_eq!(FixedPointStrategy::Picard.to_string(), "picard");
        assert_eq!(FixedPointStrategy::Anderson1.to_string(), "anderson1");
        assert_eq!(StepKind::Picard.to_string(), "picard");
        assert_eq!(StepKind::Anderson.to_string(), "anderson");
        assert_eq!(StepKind::AndersonRejected.to_string(), "anderson-rejected");
        assert_eq!(StepKind::AndersonAbsorbed.to_string(), "anderson-absorbed");
        assert_eq!(FixedPointStrategy::default(), FixedPointStrategy::Picard);
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
        // Picard never accelerates.
        assert_eq!(report.trace.n_accelerated(), 0);
        assert!(report
            .trace
            .rounds
            .iter()
            .all(|r| r.step == StepKind::Picard));
    }

    #[test]
    fn anderson_flow_reports_equal_picard_at_convergence() {
        let (t, fs) = paper_like_flows();
        let picard = analyze(&t, &fs, &AnalysisConfig::paper()).unwrap();
        let anderson = analyze(
            &t,
            &fs,
            &AnalysisConfig::paper().with_strategy(FixedPointStrategy::Anderson1),
        )
        .unwrap();
        assert!(picard.converged && anderson.converged);
        assert_eq!(picard.flows, anderson.flows);
        assert_eq!(picard.schedulable, anderson.schedulable);
        assert_eq!(picard.failure, anderson.failure);
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
        // across thread counts and strategies.
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
        let anderson = analyze(
            &t,
            &fs,
            &AnalysisConfig::paper().with_strategy(FixedPointStrategy::Anderson1),
        )
        .unwrap();
        assert_eq!(base.flows, anderson.flows);
        assert_eq!(base.failure, anderson.failure);
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

    #[test]
    fn slot_extrapolation_lifts_a_linear_recursion() {
        // Scalar linear iteration x ← a + b·x with fixed point a/(1−b):
        // the damped Aitken step must land η of the remaining distance
        // past the Picard step, i.e. just short of the fixed point.
        let (a, b) = (1.0f64, 0.5f64);
        let g = |v: f64| a + b * v;
        let x0 = 0.0;
        let x1 = g(x0);
        let x2 = g(x1);
        let SlotStep::Lift(got) = extrapolate_slot(
            Time::from_secs(x0),
            Time::from_secs(x1),
            Time::from_secs(x2),
            Time::from_secs(1e6),
        ) else {
            panic!("a contracting linear chain is extrapolated");
        };
        let got = got.as_secs();
        let fixed_point = a / (1.0 - b);
        let (d1, d2) = (x1 - x0, x2 - x1);
        let ratio = d2 / d1;
        let expected = x2 + ETA * (ratio / (1.0 - ratio)).min(BETA_MAX) * d2;
        assert!(
            (got - expected).abs() < 1e-12,
            "candidate {got} vs expected {expected} (fixed point {fixed_point})"
        );
        assert!(
            got < fixed_point,
            "the damped, capped jump must bias towards undershoot"
        );
        assert!(got > x2, "the candidate must advance past the Picard step");
    }

    #[test]
    fn slot_extrapolation_rejects_non_contracting_history() {
        let t = Time::from_secs;
        // A stalled component (x == gx): nothing to extrapolate — the slot
        // keeps its Picard value, not a safeguard rejection.
        assert_eq!(
            extrapolate_slot(t(1.0), t(2.0), t(2.0), t(1e6)),
            SlotStep::Keep
        );
        // Expanding gains (1 → 2 → 4): not contracting, nothing to do.
        assert_eq!(
            extrapolate_slot(t(1.0), t(2.0), t(4.0), t(1e6)),
            SlotStep::Keep
        );
        // A lift that would jump past the horizon trips the safeguard.
        // Gains 1.0 then 0.99: even the capped jump exceeds a horizon of 2.
        assert_eq!(
            extrapolate_slot(t(0.0), t(1.0), t(1.99), t(2.0)),
            SlotStep::Reject
        );
    }

    #[test]
    fn anderson_candidate_moves_only_contracting_components() {
        // A real single-flow context gives the candidate builder a plan
        // whose arena has one pair per walk resource; seed a two-slot
        // history where only the first-link slot contracts.
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
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let ctx = crate::context::AnalysisContext::new(&t, &fs).unwrap();
        let plan = ctx.plan();
        let first = plan.flows[0].first_link_pair;
        let second = plan.flows[0].stages[1].pair;
        let mk = |v0: f64, v1: f64| {
            let mut m = crate::dense::DenseJitters::zeroed(plan);
            m.set(plan, first, 0, Time::from_secs(v0));
            m.set(plan, second, 0, Time::from_secs(v1));
            m
        };
        // First-link slot contracts (0 → 1 → 1.5); the other slot has
        // locked onto its exact value (2 → 2 → 2) and must not move.
        let Candidate::Extrapolated(candidate) = anderson_candidate(
            plan,
            &mk(1.0, 2.0),
            &mk(1.5, 2.0),
            &mk(0.0, 2.0),
            Time::from_secs(1e6),
        ) else {
            panic!("the contracting component is extrapolated");
        };
        assert_eq!(
            candidate.get(plan, second, 0),
            Time::from_secs(2.0),
            "a locked component keeps its exact value"
        );
        assert!(candidate.get(plan, first, 0) > Time::from_secs(1.5));
        assert!(candidate.max_jitter(first) > Time::from_secs(1.5));
    }
}
