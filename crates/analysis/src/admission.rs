//! Admission control built on top of the holistic analysis.
//!
//! The paper's closing argument is that the holistic analysis "forms an
//! admission controller": a network operator keeps the set of already
//! accepted flows, and a new flow is accepted only if the holistic analysis
//! of *accepted ∪ {candidate}* shows every frame of every flow (old and
//! new) still meeting its deadline.  [`AdmissionController`] implements
//! exactly that protocol — plus flow departures ([`AdmissionController::release`])
//! and a **sharded** engine that makes the per-request cost depend on the
//! candidate's shard rather than on how many flows are admitted
//! network-wide.
//!
//! # The sharded admission plane
//!
//! The jitter fixed point couples two flows only through shared directed
//! links, so the accepted set partitions into [`crate::deps`] *shards*
//! (weakly-connected components of the jitter-dependency graph) whose
//! analyses are completely independent.  The controller maintains that
//! partition incrementally and the batched entry point
//! ([`AdmissionController::request_batch`]) exploits it:
//!
//! 1. requests are grouped into **lanes** — two requests share a lane iff
//!    their routes touch a common shard or directed link — and lanes run
//!    **concurrently** via `gmf-par` (deterministically: the lane
//!    assignment and every result are pure functions of the inputs, never
//!    of scheduling);
//! 2. each trial is **one cold holistic solve** over the candidate's shard
//!    (the union of the shards its route touches) plus the candidate.
//!    Disjoint shards cannot influence each other's bounds, so every
//!    decision, bound, failure string and victim attribution is
//!    byte-identical to a global cold analysis of the same trial set,
//!    restricted to the candidate's shard;
//! 3. a lane rolls its accepted subset and partition forward across its
//!    requests, so each trial sees the lane's earlier acceptances exactly
//!    as a sequential submission would;
//! 4. an accepted trial refreshes the controller's **report cache**
//!    ([`AdmissionController::cached_reports`]) for every flow of the
//!    merged shard — the converged bounds the survivability sweep reads
//!    for the flows a failure does not touch.
//!
//! A decision's report therefore covers the **candidate's shard**, not
//! the whole accepted set; its every entry equals the entry of
//! [`crate::analyze`] over *accepted ∪ {candidate}* for the same flow.
//!
//! Departures keep the report cache exact: [`AdmissionController::release`]
//! drops the cached reports of every flow in the departed flow's
//! (pre-removal) shard — the next trial on that shard re-solves all of it
//! anyway — and leaves every other shard's reports untouched.
//! [`AdmissionController::release_batch`] does the same for many flows
//! with one partition rebuild per touched shard.
//!
//! # All-or-nothing admission
//!
//! The survivability sweep re-admits a failure's released shards at once
//! and only needs per-request decisions when they do not all fit.
//! `AdmissionController::admit_all` (crate-internal) serves it with **one
//! cold holistic solve** over the closed trial set — the union of the
//! shards any request's route touches, plus every request.  A schedulable
//! trial commits every request under the ids `request_batch` would have
//! reserved and refreshes the report cache; anything else leaves the
//! controller untouched and consumes no id, so the caller can replay the
//! same requests through `request_batch` to learn which are rejected.

use crate::config::AnalysisConfig;
use crate::context::AnalysisContext;
use crate::deps::{DependencyGraph, ShardId};
use crate::error::AnalysisError;
use crate::fixed_point::{iterate, ConvergenceTrace, FixedPointRun};
use crate::report::{AnalysisReport, FlowReport};
use gmf_model::{EncapsulationConfig, FlowId, GmfFlow};
use gmf_net::{FlowBinding, FlowSet, NodeId, Priority, Route, Topology};
use gmf_par::{par_map_weighted, Threads};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What (or rather whom) a rejection protects, derived from the trial
/// report's deadline misses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionVictim {
    /// Only the candidate itself misses its deadline; the accepted flows
    /// are unharmed by it.
    Candidate,
    /// The candidate meets its own deadlines but would make these
    /// already-accepted flows miss theirs.
    Existing {
        /// The accepted flows that would miss deadlines, in id order.
        flows: Vec<FlowId>,
    },
    /// Both the candidate and these already-accepted flows would miss
    /// deadlines.
    Both {
        /// The accepted flows that would miss deadlines, in id order.
        flows: Vec<FlowId>,
    },
}

/// What one admission decision cost: the one holistic solve behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionCost {
    /// Holistic rounds of the trial's solve.
    pub rounds: usize,
    /// Per-flow pipeline analyses of the trial's solve (≈ rounds × trial
    /// flows, fewer when round skipping reuses an analysis) — the metric
    /// that shrinks when sharding limits the trial set.
    pub flow_analyses: usize,
    /// Always `false`: trials are cold solves.  The field stays so
    /// serialized decisions and the benchmark harness that reads it keep
    /// their shape.
    pub warm: bool,
    /// The shard the trial analysed: the smallest flow id of the trial
    /// set.
    pub shard: ShardId,
    /// How many flows that shard held, candidate included — the size of
    /// the set the trial re-verified.
    pub shard_flows: usize,
}

/// One admission candidate for [`AdmissionController::request_batch`]:
/// the flow, its pre-specified route and 802.1p priority, plus an
/// optional packetization override (builder style).
///
/// ```
/// use gmf_analysis::AdmissionRequest;
/// use gmf_model::{voip_flow, Time, VoiceCodec};
/// use gmf_net::{paper_figure1, shortest_path, Priority};
///
/// let (topology, net) = paper_figure1();
/// let route = shortest_path(&topology, net.hosts[1], net.hosts[3]).unwrap();
/// let flow = voip_flow("call", VoiceCodec::G711, Time::from_millis(20.0), Time::ZERO);
/// let request = AdmissionRequest::new(flow, route, Priority(7));
/// assert_eq!(request.priority(), Priority(7));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionRequest {
    flow: GmfFlow,
    route: Route,
    priority: Priority,
    encapsulation: EncapsulationConfig,
}

impl AdmissionRequest {
    /// A request with the default (plain UDP) packetization.
    pub fn new(flow: GmfFlow, route: Route, priority: Priority) -> Self {
        AdmissionRequest {
            flow,
            route,
            priority,
            encapsulation: EncapsulationConfig::paper(),
        }
    }

    /// Override the packetization configuration.
    pub fn with_encapsulation(mut self, encapsulation: EncapsulationConfig) -> Self {
        self.encapsulation = encapsulation;
        self
    }

    /// The traffic specification.
    pub fn flow(&self) -> &GmfFlow {
        &self.flow
    }

    /// The pre-specified route.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The 802.1p priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The packetization configuration.
    pub fn encapsulation(&self) -> EncapsulationConfig {
        self.encapsulation
    }

    /// Bind the request to a concrete flow id.
    fn into_binding(self, id: FlowId) -> FlowBinding {
        FlowBinding {
            id,
            flow: self.flow,
            route: self.route,
            priority: self.priority,
            encapsulation: self.encapsulation,
        }
    }
}

/// The verdict of an admission request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// The flow was admitted; it now has the given id in the accepted set.
    Accepted {
        /// Identifier of the admitted flow within the controller's flow set.
        id: FlowId,
        /// The analysis report of the trial: the candidate's shard,
        /// including the new flow.
        report: AnalysisReport,
        /// What the decision cost.
        cost: DecisionCost,
    },
    /// The flow was rejected; the accepted set is unchanged.
    Rejected {
        /// The id the candidate carried in the trial set — the key of its
        /// [`FlowReport`] inside `report`.  The id is *not* registered in
        /// the accepted set and is never handed out again: every request
        /// consumes one id, accepted or not, so a batch's ids are known
        /// up front.
        id: FlowId,
        /// Why the flow was rejected.
        reason: String,
        /// Who misses deadlines in the trial, when the analysis got far
        /// enough to attribute the failure (`None` for aborts such as
        /// overload or divergence, where `reason` carries the detail).
        victim: Option<AdmissionVictim>,
        /// The analysis report of the trial (the candidate's shard).
        report: AnalysisReport,
        /// What the decision cost.
        cost: DecisionCost,
    },
}

impl AdmissionDecision {
    /// `true` if the flow was admitted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, AdmissionDecision::Accepted { .. })
    }

    /// The candidate's flow id in the analysed trial set (registered in
    /// the accepted set only if the decision is an acceptance).
    pub fn id(&self) -> FlowId {
        match self {
            AdmissionDecision::Accepted { id, .. } => *id,
            AdmissionDecision::Rejected { id, .. } => *id,
        }
    }

    /// The report of the analysed (trial) flow set.
    pub fn report(&self) -> &AnalysisReport {
        match self {
            AdmissionDecision::Accepted { report, .. } => report,
            AdmissionDecision::Rejected { report, .. } => report,
        }
    }

    /// The candidate's per-frame bounds inside the trial report, when the
    /// analysis got far enough to produce them.
    pub fn candidate_report(&self) -> Option<&FlowReport> {
        self.report().flow(self.id())
    }

    /// What the decision cost across every analysis run behind it.
    pub fn cost(&self) -> DecisionCost {
        match self {
            AdmissionDecision::Accepted { cost, .. } => *cost,
            AdmissionDecision::Rejected { cost, .. } => *cost,
        }
    }

    /// How many holistic rounds the analyses behind this decision took —
    /// the per-request cost an operator dashboard would track.
    pub fn iterations(&self) -> usize {
        self.cost().rounds
    }

    /// The per-round convergence trace of the trial analysis that produced
    /// the final report.
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.report().trace
    }
}

/// Derive the structured victim of a rejection from the trial report.
fn victim_of(report: &AnalysisReport, candidate: FlowId) -> Option<AdmissionVictim> {
    let missed = report.missed_flows();
    let candidate_misses = missed.contains(&candidate);
    let existing: Vec<FlowId> = missed.into_iter().filter(|&f| f != candidate).collect();
    match (candidate_misses, existing.is_empty()) {
        (true, true) => Some(AdmissionVictim::Candidate),
        (true, false) => Some(AdmissionVictim::Both { flows: existing }),
        (false, false) => Some(AdmissionVictim::Existing { flows: existing }),
        (false, true) => None,
    }
}

/// What verifying a pre-admitted flow set cost
/// ([`AdmissionController::with_accepted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreloadStats {
    /// Number of shards the preloaded set partitions into.
    pub shards: usize,
    /// Flow count of the largest shard.
    pub largest_shard: usize,
    /// Total holistic rounds across all per-shard verifications.
    pub rounds: usize,
    /// Total per-flow pipeline analyses across all shards.
    pub flow_analyses: usize,
}

/// Converged per-flow reports of the accepted set, keyed by flow id.
/// Reports are shared by `Arc`, so cloning a controller (the survivability
/// sweep does once per scenario) does not deep-copy them.
type ReportCache = BTreeMap<FlowId, Arc<FlowReport>>;

/// The conflict-footprint tokens of one batched request: two requests
/// sharing any token must run in the same lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LaneToken {
    /// The request's route touches this existing shard.
    Shard(ShardId),
    /// The request's route transmits on this directed link (couples two
    /// candidates even when no accepted flow uses the link yet).
    Link(NodeId, NodeId),
}

/// One lane of a batched request: the request indices it processes (in
/// submission order) and the accepted flows its shards span.
#[derive(Debug)]
struct LaneInput {
    indices: Vec<usize>,
    members: BTreeSet<FlowId>,
}

/// What one lane produced: per-request decisions, the bindings it
/// accepted, the reports of its accepted trials (in trial order, so a
/// later trial's report of a flow supersedes an earlier one) and the first
/// hard error (the lane stops there).
struct LaneOutput {
    decisions: Vec<(usize, AdmissionDecision)>,
    commits: Vec<(usize, FlowBinding)>,
    reports: Vec<FlowReport>,
    error: Option<(usize, AnalysisError)>,
}

/// An admission controller for one operator-managed network.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    topology: Topology,
    accepted: FlowSet,
    config: AnalysisConfig,
    /// Cleared by a hard error; refilled by later accepted trials.
    cache: ReportCache,
    /// The shard partition of `accepted`, maintained incrementally under
    /// every accept and release (releases scope their invalidation with
    /// it).
    partition: DependencyGraph,
}

impl AdmissionController {
    /// Create a controller with no accepted flows.
    pub fn new(topology: Topology, config: AnalysisConfig) -> Self {
        AdmissionController {
            topology,
            accepted: FlowSet::new(),
            config,
            cache: ReportCache::new(),
            partition: DependencyGraph::default(),
        }
    }

    /// Create a controller over an already-admitted flow set (an operator
    /// restoring state), verifying it shard by shard — concurrently, with
    /// `config.threads` workers — and seeding the report cache from the
    /// per-shard converged analyses.
    ///
    /// Fails with [`AnalysisError::PreloadUnschedulable`] (naming the
    /// first failing shard in shard order) if any shard is not
    /// schedulable as given, and with the underlying error for
    /// structural problems (invalid routes, unknown nodes).
    pub fn with_accepted(
        topology: Topology,
        accepted: FlowSet,
        config: AnalysisConfig,
    ) -> Result<(Self, PreloadStats), AnalysisError> {
        accepted
            .validate_against(&topology)
            .map_err(AnalysisError::Net)?;
        let partition = DependencyGraph::new(&accepted);
        let shard_sets: Vec<(ShardId, FlowSet)> = partition
            .shards()
            .into_iter()
            .map(|shard| {
                let members = partition
                    .shard_flows(shard)
                    // tidy-allow: unwrap invariant: ids come from partition.shards()
                    .expect("shard id comes from the partition");
                (shard, accepted.subset(members.iter().copied()))
            })
            .collect();
        // Shards verify concurrently; the per-shard engine then runs
        // single-threaded (reports are thread-count invariant, so this
        // only shapes performance, never results).
        let inner = if config.threads > 1 && shard_sets.len() > 1 {
            config.with_threads(1)
        } else {
            config
        };
        let runs = par_map_weighted(
            Threads::new(config.threads),
            &shard_sets,
            |(_, set)| u64::try_from(set.len()).unwrap_or(u64::MAX),
            |_, (shard, set)| -> Result<FixedPointRun, AnalysisError> {
                let ctx = AnalysisContext::new(&topology, set)?;
                let run = iterate(&ctx, &inner)?;
                if run.report.schedulable {
                    Ok(run)
                } else {
                    Err(AnalysisError::PreloadUnschedulable {
                        shard: shard.0,
                        failure: run
                            .report
                            .failure
                            .clone()
                            .unwrap_or_else(|| "deadline miss".to_string()),
                    })
                }
            },
        );
        let mut stats = PreloadStats {
            shards: shard_sets.len(),
            largest_shard: shard_sets.iter().map(|(_, s)| s.len()).max().unwrap_or(0),
            rounds: 0,
            flow_analyses: 0,
        };
        let mut cache = ReportCache::new();
        for run in runs {
            let run = run?;
            stats.rounds += run.report.iterations;
            stats.flow_analyses += run.flow_analyses;
            for flow in run.report.flows {
                cache.insert(flow.flow, Arc::new(flow));
            }
        }
        Ok((
            AdmissionController {
                topology,
                accepted,
                config,
                cache,
                partition,
            },
            stats,
        ))
    }

    /// The analysis configuration the controller runs trials with.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The currently accepted flow set.
    pub fn accepted(&self) -> &FlowSet {
        &self.accepted
    }

    /// The shard partition of the accepted set (one entry per
    /// weakly-connected component of the jitter-dependency graph).
    pub fn partition(&self) -> &DependencyGraph {
        &self.partition
    }

    /// The network the controller manages.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of accepted flows.
    pub fn n_accepted(&self) -> usize {
        self.accepted.len()
    }

    /// Ask to admit a batch of candidates, returning one decision per
    /// request in submission order.
    ///
    /// The batch is equivalent to submitting the requests one at a time
    /// in order: each trial runs against the accepted set plus every
    /// *earlier accepted* request of the same batch.  Requests whose
    /// routes touch disjoint shards (and share no directed link) cannot
    /// influence each other, so the controller runs them concurrently —
    /// grouped into lanes with `config.threads` workers — with
    /// byte-identical decisions at any thread count.
    ///
    /// Every request consumes exactly one flow id, accepted or rejected:
    /// request `i` of a batch is analysed (and, on acceptance,
    /// registered) under id `base + i`, so callers can correlate
    /// decisions before the batch returns.
    ///
    /// # Errors
    ///
    /// All routes are validated up front; an invalid route fails the
    /// whole batch before any id is consumed or any trial runs.  A hard
    /// analysis error (not a rejection — those are decisions) at request
    /// `i` commits the acceptances of requests `0..i`, clears the report
    /// cache and returns the error; decisions of the earlier requests
    /// are discarded with it.
    pub fn request_batch(
        &mut self,
        requests: impl IntoIterator<Item = AdmissionRequest>,
    ) -> Result<Vec<AdmissionDecision>, AnalysisError> {
        let requests: Vec<AdmissionRequest> = requests.into_iter().collect();
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // Validate up front, before any flow id is consumed.
        self.validate_routes(&requests)?;
        let base = self.accepted.reserve_ids(requests.len());
        let bindings: Vec<FlowBinding> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| request.into_binding(FlowId(base.0 + i)))
            .collect();
        let n = bindings.len();
        // Group the requests into lanes with a union-find over request
        // indices: two requests conflict iff they touch a common accepted
        // shard or share a directed link.
        let touched_shards: Vec<Vec<ShardId>> = bindings
            .iter()
            .map(|b| self.partition.shards_touching_route(&b.route))
            .collect();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]]; // path halving
                i = parent[i];
            }
            i
        }
        let mut token_owner: BTreeMap<LaneToken, usize> = BTreeMap::new();
        for (i, binding) in bindings.iter().enumerate() {
            let tokens = binding
                .route
                .hops()
                .map(|hop| LaneToken::Link(hop.from, hop.to))
                .chain(touched_shards[i].iter().map(|&s| LaneToken::Shard(s)));
            for token in tokens {
                match token_owner.entry(token) {
                    std::collections::btree_map::Entry::Occupied(owner) => {
                        let (a, b) = (find(&mut parent, i), find(&mut parent, *owner.get()));
                        // Either root works; pick the smaller index so the
                        // result is independent of token order.
                        parent[a.max(b)] = a.min(b);
                    }
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(i);
                    }
                }
            }
        }
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(i);
        }
        let lanes: Vec<LaneInput> = groups
            .into_values()
            .map(|indices| {
                let mut members = BTreeSet::new();
                for &i in &indices {
                    members.extend(self.partition.members_of(&touched_shards[i]));
                }
                LaneInput { indices, members }
            })
            .collect();
        // `groups` is keyed by the union-find root, which is each lane's
        // smallest index — so `lanes` is already ordered by first request.

        // Lanes run concurrently; inside a lane the engine then runs
        // single-threaded (its reports are thread-count invariant, so
        // this only shapes performance, never results).
        let inner = if self.config.threads > 1 && lanes.len() > 1 {
            self.config.with_threads(1)
        } else {
            self.config
        };
        let outputs: Vec<LaneOutput> = {
            let ctl: &AdmissionController = &*self;
            par_map_weighted(
                Threads::new(ctl.config.threads),
                &lanes,
                |lane| u64::try_from(lane.members.len() + lane.indices.len()).unwrap_or(u64::MAX),
                |_, lane| ctl.run_lane(lane, &bindings, &inner),
            )
        };

        // Merge, in request order.  On a hard error at request `e`, keep
        // the acceptances before `e` (the sequential-equivalent state)
        // and clear the cache.
        let cutoff = outputs
            .iter()
            .filter_map(|o| o.error.as_ref().map(|&(i, _)| i))
            .min()
            .unwrap_or(n);
        let mut commits: Vec<&(usize, FlowBinding)> =
            outputs.iter().flat_map(|o| &o.commits).collect();
        commits.sort_by_key(|&&(i, _)| i);
        for &(i, ref binding) in commits {
            if i >= cutoff {
                continue;
            }
            self.accepted
                .insert(binding.clone())
                // tidy-allow: unwrap invariant: batch ids are reserved and unique
                .expect("batch ids are reserved and unique");
            self.partition.insert(binding);
        }
        if let Some((_, error)) = outputs
            .iter()
            .filter_map(|o| o.error.clone())
            .min_by_key(|e| e.0)
        {
            self.cache.clear();
            return Err(error);
        }

        // No errors: refresh the cached reports of every accepted trial's
        // flows (lanes are disjoint, so their reports never overlap) and
        // assemble the decisions in submission order.
        let mut decisions: Vec<Option<AdmissionDecision>> = (0..n).map(|_| None).collect();
        for output in outputs {
            for report in output.reports {
                self.cache.insert(report.flow, Arc::new(report));
            }
            for (index, decision) in output.decisions {
                decisions[index] = Some(decision);
            }
        }
        Ok(decisions
            .into_iter()
            // tidy-allow: unwrap invariant: error-free lanes decide every request
            .map(|d| d.expect("error-free lanes decide every request"))
            .collect())
    }

    /// Check every request's route against the topology, so structural
    /// errors surface as errors, not rejections.
    fn validate_routes(&self, requests: &[AdmissionRequest]) -> Result<(), AnalysisError> {
        for request in requests {
            Route::new(&self.topology, request.route.nodes().to_vec())
                .map_err(AnalysisError::Net)?;
        }
        Ok(())
    }

    /// Process one lane: its requests in submission order, against a
    /// lane-local accepted subset and partition that roll forward across
    /// the lane's acceptances.
    fn run_lane(
        &self,
        lane: &LaneInput,
        bindings: &[FlowBinding],
        config: &AnalysisConfig,
    ) -> LaneOutput {
        let mut lane_set = self.accepted.subset(lane.members.iter().copied());
        let mut lane_partition = DependencyGraph::new(&lane_set);
        let mut out = LaneOutput {
            decisions: Vec::with_capacity(lane.indices.len()),
            commits: Vec::new(),
            reports: Vec::new(),
            error: None,
        };
        for &index in &lane.indices {
            let binding = &bindings[index];
            // The candidate's trial set: the union of the shards its
            // route touches (within the lane's rolled-forward state),
            // plus the candidate itself.
            let touched = lane_partition.shards_touching_route(&binding.route);
            let mut trial = lane_set.subset(lane_partition.members_of(&touched));
            let decision = trial
                .insert(binding.clone())
                .map_err(AnalysisError::Net)
                .and_then(|_| decide(&self.topology, &trial, binding.id, config));
            let decision = match decision {
                Ok(decision) => decision,
                Err(e) => {
                    out.error = Some((index, e));
                    break;
                }
            };
            if decision.is_accepted() {
                out.reports.extend(decision.report().flows.iter().cloned());
                lane_partition.insert(binding);
                lane_set
                    .insert(binding.clone())
                    // tidy-allow: unwrap invariant: batch ids are reserved and unique
                    .expect("batch ids are reserved and unique");
                out.commits.push((index, binding.clone()));
            }
            out.decisions.push((index, decision));
        }
        out
    }

    /// Admit every request at once, or none: one cold holistic solve over
    /// the *closed* trial set — the union of the shards any request's
    /// route touches, plus every request — instead of one trial per
    /// request.  The survivability sweep's re-admission path.
    ///
    /// Routes are validated like [`AdmissionController::request_batch`]
    /// (an invalid route is an error, before anything else happens).  If
    /// the trial is schedulable, request `i` is registered under id
    /// `base + i` — exactly the ids `request_batch` would reserve — the
    /// run's reports refresh the trial flows' cached reports, and the
    /// result carries `Some(base)`.  Otherwise (a miss, an abort or an
    /// analysis error) it carries `None`, the controller is untouched and
    /// no id is consumed, so a following `request_batch` of the same
    /// requests decides them one by one under the same ids.
    ///
    /// The trial set is closed under link sharing, so its cold analysis
    /// restricted to any member equals the analysis of that member's
    /// final shard: when every request fits, the outcome is byte-identical
    /// to `request_batch` accepting them all.  The returned cost is the
    /// one solve's (`shard` is the trial's smallest id — `base` when the
    /// batch is empty — and `shard_flows` its size).
    pub(crate) fn admit_all(
        &mut self,
        requests: &[AdmissionRequest],
    ) -> Result<(Option<FlowId>, DecisionCost), AnalysisError> {
        self.validate_routes(requests)?;
        let mut members = BTreeSet::new();
        for request in requests {
            let touched = self.partition.shards_touching_route(&request.route);
            members.extend(self.partition.members_of(&touched));
        }
        // The trial inherits the id counter, so reserving on it names the
        // ids the controller would hand out without consuming them.
        let mut trial = self.accepted.subset(members);
        let base = trial.reserve_ids(requests.len());
        let bindings: Vec<FlowBinding> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| request.clone().into_binding(FlowId(base.0 + i)))
            .collect();
        for binding in &bindings {
            trial.insert(binding.clone()).map_err(AnalysisError::Net)?;
        }
        let mut cost = DecisionCost {
            rounds: 0,
            flow_analyses: 0,
            warm: false,
            shard: ShardId(trial.ids().next().unwrap_or(base)),
            shard_flows: trial.len(),
        };
        if trial.is_empty() {
            return Ok((Some(base), cost));
        }
        let run = match AnalysisContext::new(&self.topology, &trial)
            .and_then(|ctx| iterate(&ctx, &self.config))
        {
            Ok(run) => run,
            Err(_) => return Ok((None, cost)),
        };
        cost.rounds = run.report.iterations;
        cost.flow_analyses = run.flow_analyses;
        if !run.report.schedulable {
            return Ok((None, cost));
        }

        self.accepted.reserve_ids(requests.len());
        for binding in bindings {
            self.partition.insert(&binding);
            self.accepted
                .insert(binding)
                // tidy-allow: unwrap invariant: the ids were reserved for this batch
                .expect("batch ids are reserved and unique");
        }
        for flow in run.report.flows {
            self.cache.insert(flow.flow, Arc::new(flow));
        }
        Ok((Some(base), cost))
    }

    /// Release (tear down) an accepted flow — the departure half of the
    /// admission protocol.  Returns the removed binding.
    ///
    /// The report cache survives the departure: only the cached reports
    /// of the departed flow's (pre-removal) shard are dropped — they are
    /// re-verified by the next trial on that shard; every other shard's
    /// reports stay exact.  A release costs O(shard), not O(accepted).
    pub fn release(&mut self, id: FlowId) -> Result<FlowBinding, AnalysisError> {
        let mut removed = self.release_batch(&[id])?;
        // tidy-allow: unwrap invariant: a successful one-id batch removes one binding
        Ok(removed.pop().expect("one id releases one binding"))
    }

    /// Release several accepted flows at once — the multi-flow stranding
    /// path of the survivability sweep, where one failed cable tears down
    /// every flow routed over it.
    ///
    /// Equivalent to calling [`AdmissionController::release`] on the ids
    /// one at a time in order, except that the work is done once per
    /// touched shard, not once per id: the cached reports of every
    /// touched pre-removal shard are dropped together (a superset of what
    /// the sequential releases would drop step by step — dropping more
    /// only costs re-verification, never soundness), and the partition
    /// rebuilds each touched shard once.
    ///
    /// The batch is atomic: every id must name a distinct accepted flow,
    /// or the whole call fails with [`gmf_net::NetError::UnknownFlow`]
    /// before anything is removed.  Returns the removed bindings in the
    /// order given.
    pub fn release_batch(&mut self, ids: &[FlowId]) -> Result<Vec<FlowBinding>, AnalysisError> {
        let mut seen = BTreeSet::new();
        for &id in ids {
            if !self.accepted.contains(id) || !seen.insert(id) {
                return Err(AnalysisError::Net(gmf_net::NetError::UnknownFlow(id.0)));
            }
        }
        // Invalidate on the *pre-removal* shards: a departure can change
        // the bounds of any flow it shared a shard with.
        let shards: BTreeSet<ShardId> = ids
            .iter()
            .filter_map(|&id| self.partition.shard_of(id))
            .collect();
        let shards: Vec<ShardId> = shards.into_iter().collect();
        for flow in self.partition.members_of(&shards) {
            self.cache.remove(&flow);
        }
        let bindings = ids
            .iter()
            .map(|&id| self.accepted.remove(id).map_err(AnalysisError::Net))
            .collect::<Result<Vec<FlowBinding>, AnalysisError>>()?;
        self.partition.remove_batch(&bindings, &self.accepted);
        Ok(bindings)
    }

    /// Swap the managed topology for a new one *without* invalidating the
    /// report cache — the survivability sweep's bridge from the pristine
    /// network to a survivor network.
    ///
    /// Sound only when every **retained** flow's analysis inputs are
    /// unchanged between the two topologies, which this method verifies
    /// flow by flow: the route must re-validate on the new topology, and
    /// every node (kind, switch configuration, interface count) and every
    /// traversed link (speed, propagation) must carry identical
    /// parameters.  Any violation fails with
    /// [`AnalysisError::RebaseDirty`] and leaves the controller untouched
    /// — release the affected flows first, then rebase, then re-admit
    /// them over the new topology.
    pub fn rebase(&mut self, topology: Topology) -> Result<(), AnalysisError> {
        for binding in self.accepted.bindings() {
            Route::new(&topology, binding.route.nodes().to_vec()).map_err(|e| {
                AnalysisError::RebaseDirty {
                    flow: binding.id,
                    detail: format!("route no longer valid: {e}"),
                }
            })?;
            for &node in binding.route.nodes() {
                let old = self.topology.node(node).map_err(AnalysisError::Net)?;
                let new = topology.node(node).map_err(AnalysisError::Net)?;
                if old.kind != new.kind {
                    return Err(AnalysisError::RebaseDirty {
                        flow: binding.id,
                        detail: format!("{node} changed kind or switch configuration"),
                    });
                }
                if old.is_switch()
                    && self.topology.n_interfaces(node) != topology.n_interfaces(node)
                {
                    return Err(AnalysisError::RebaseDirty {
                        flow: binding.id,
                        detail: format!("{node} changed interface count"),
                    });
                }
            }
            for hop in binding.route.hops() {
                let old = self
                    .topology
                    .link_between(hop.from, hop.to)
                    .map_err(AnalysisError::Net)?;
                let new = topology
                    .link_between(hop.from, hop.to)
                    .map_err(AnalysisError::Net)?;
                if old.speed != new.speed || old.propagation != new.propagation {
                    return Err(AnalysisError::RebaseDirty {
                        flow: binding.id,
                        detail: format!("link {}->{} changed parameters", hop.from, hop.to),
                    });
                }
            }
        }
        self.topology = topology;
        Ok(())
    }

    /// The report cache's converged per-flow reports, in flow-id order —
    /// empty after a hard error cleared the cache.
    ///
    /// A cached report is exact for the current accepted set: an accepted
    /// trial refreshes the report of every flow in the merged shard, and a
    /// departure drops every report of the departed flow's shard until
    /// the next accepted trial there re-solves it.
    pub fn cached_reports(&self) -> impl Iterator<Item = (FlowId, &FlowReport)> + '_ {
        self.cache.iter().map(|(id, report)| (*id, report.as_ref()))
    }

    /// Re-run the analysis of the currently accepted set (e.g. after the
    /// operator changed the analysis configuration).
    pub fn reanalyze(&self) -> Result<AnalysisReport, AnalysisError> {
        crate::holistic::analyze(&self.topology, &self.accepted, &self.config)
    }
}

/// Decide `candidate` by one cold holistic solve over `trial` (which
/// contains it).
fn decide(
    topology: &Topology,
    trial: &FlowSet,
    candidate: FlowId,
    config: &AnalysisConfig,
) -> Result<AdmissionDecision, AnalysisError> {
    let ctx = AnalysisContext::new(topology, trial)?;
    let run = iterate(&ctx, config)?;
    let cost = DecisionCost {
        rounds: run.report.iterations,
        flow_analyses: run.flow_analyses,
        warm: false,
        shard: ShardId(trial.bindings()[0].id),
        shard_flows: trial.len(),
    };
    Ok(build_decision(candidate, run.report, cost))
}

/// Turn a trial's report into the decision for `candidate`.
fn build_decision(
    candidate: FlowId,
    report: AnalysisReport,
    cost: DecisionCost,
) -> AdmissionDecision {
    if report.schedulable {
        AdmissionDecision::Accepted {
            id: candidate,
            report,
            cost,
        }
    } else {
        let reason = report
            .failure
            .clone()
            .unwrap_or_else(|| "deadline miss".to_string());
        // Attribute the failure only when the analysis converged: an
        // aborted or non-converged trial carries partial / non-final
        // bounds, and a deadline "miss" read off them could name the
        // wrong flow.
        let victim = if report.converged {
            victim_of(&report, candidate)
        } else {
            None
        };
        AdmissionDecision::Rejected {
            id: candidate,
            reason,
            victim,
            report,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{paper_figure3_flow, voip_flow, Time, VoiceCodec};
    use gmf_net::{paper_figure1, random_tree, shortest_path, LinkProfile, SwitchConfig};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn controller() -> (AdmissionController, gmf_net::PaperNetwork) {
        let (t, net) = paper_figure1();
        (AdmissionController::new(t, AnalysisConfig::paper()), net)
    }

    fn voice(deadline_ms: f64) -> GmfFlow {
        voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(deadline_ms),
            Time::from_millis(0.5),
        )
    }

    /// One-candidate batch: the test-side spelling of the old `request`.
    fn one(
        ctl: &mut AdmissionController,
        flow: GmfFlow,
        route: Route,
        priority: Priority,
    ) -> AdmissionDecision {
        ctl.request_batch([AdmissionRequest::new(flow, route, priority)])
            .unwrap()
            .pop()
            .unwrap()
    }

    /// A random network in the style of the churn and metro workloads: a
    /// random tree of six switches with two end hosts each.
    fn random_network(rng: &mut ChaCha8Rng) -> (Topology, Vec<NodeId>) {
        let link = LinkProfile::ethernet_100m();
        let (t, _, hosts) = random_tree(rng, 6, 2, link, link, SwitchConfig::paper());
        (t, hosts)
    }

    /// `n` voice calls between random host pairs at random priorities,
    /// with deadlines drawn from `deadline_ms`.
    fn random_requests(
        rng: &mut ChaCha8Rng,
        t: &Topology,
        hosts: &[NodeId],
        n: usize,
        deadline_ms: std::ops::Range<f64>,
    ) -> Vec<AdmissionRequest> {
        (0..n)
            .map(|i| {
                let src = rng.gen_range(0..hosts.len());
                let dst = (src + rng.gen_range(1..hosts.len())) % hosts.len();
                let deadline = Time::from_millis(rng.gen_range(deadline_ms.clone()));
                AdmissionRequest::new(
                    voip_flow(
                        &format!("call{i}"),
                        VoiceCodec::G711,
                        deadline,
                        Time::from_millis(0.5),
                    ),
                    shortest_path(t, hosts[src], hosts[dst]).unwrap(),
                    Priority(rng.gen_range(1..8)),
                )
            })
            .collect()
    }

    fn cache_snapshot(ctl: &AdmissionController) -> Vec<(FlowId, FlowReport)> {
        ctl.cached_reports()
            .map(|(id, report)| (id, report.clone()))
            .collect()
    }

    /// A report's flows in the shape of [`cache_snapshot`].
    fn keyed(report: &AnalysisReport) -> Vec<(FlowId, FlowReport)> {
        report.flows.iter().map(|f| (f.flow, f.clone())).collect()
    }

    #[test]
    fn admit_all_matches_sequential_admission() {
        let (mut admitted_batches, mut refused_batches) = (0, 0);
        for seed in 0..32u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (t, hosts) = random_network(&mut rng);
            let mut base = AdmissionController::new(t.clone(), AnalysisConfig::paper());
            base.request_batch(random_requests(&mut rng, &t, &hosts, 10, 20.0..60.0))
                .unwrap();
            // Tear one whole shard down first, as a failure sweep does.
            if let Some(&shard) = base.partition().shards().first() {
                let members = base.partition().shard_flows(shard).unwrap().to_vec();
                base.release_batch(&members).unwrap();
            }
            let batch = random_requests(&mut rng, &t, &hosts, 6, 0.6..30.0);
            let mut sequential = base.clone();
            let decisions = sequential.request_batch(batch.clone()).unwrap();
            let mut joint = base.clone();
            let (admitted, cost) = joint.admit_all(&batch).unwrap();
            assert!(cost.rounds >= 1 && cost.flow_analyses >= batch.len());
            if decisions.iter().all(AdmissionDecision::is_accepted) {
                admitted_batches += 1;
                assert_eq!(admitted, Some(decisions[0].id()), "seed {seed}");
                assert_eq!(joint.accepted(), sequential.accepted(), "seed {seed}");
                assert_eq!(joint.partition(), sequential.partition(), "seed {seed}");
                assert_eq!(cache_snapshot(&joint), cache_snapshot(&sequential));
            } else {
                // All or nothing: the controller is untouched and no id
                // was consumed.
                refused_batches += 1;
                assert_eq!(admitted, None, "seed {seed}");
                assert_eq!(joint.accepted(), base.accepted(), "seed {seed}");
                assert_eq!(joint.partition(), base.partition(), "seed {seed}");
                assert_eq!(cache_snapshot(&joint), cache_snapshot(&base));
                let mut untouched = base.clone();
                assert_eq!(
                    joint.request_batch(batch.clone()).unwrap(),
                    untouched.request_batch(batch).unwrap()
                );
            }
        }
        assert!(
            admitted_batches > 0 && refused_batches > 0,
            "{admitted_batches} admitted, {refused_batches} refused"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Release bookkeeping drops exactly the cached reports of every
        /// touched pre-removal shard, keeps every other report exact and
        /// keeps the partition exact.
        #[test]
        fn release_batch_invalidates_every_touched_shard(seed in 0u64..1_000_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (t, hosts) = random_network(&mut rng);
            let mut ctl = AdmissionController::new(t.clone(), AnalysisConfig::paper());
            ctl.request_batch(random_requests(&mut rng, &t, &hosts, 14, 20.0..60.0))
                .unwrap();
            // Release some shards whole, some in part, some not at all,
            // in a shuffled order.
            let mut ids: Vec<FlowId> = Vec::new();
            for shard in ctl.partition().shards() {
                let members = ctl.partition().shard_flows(shard).unwrap();
                match rng.gen_range(0..3) {
                    0 => ids.extend_from_slice(members),
                    1 => ids.extend(members.iter().copied().filter(|_| rng.gen_bool(0.5))),
                    _ => {}
                }
            }
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            // The oracle: every member of each released id's pre-removal
            // shard.
            let mut expected = BTreeSet::new();
            for &id in &ids {
                let shard = ctl.partition().shard_of(id).unwrap();
                expected.extend(ctl.partition().shard_flows(shard).unwrap().iter().copied());
            }
            let before: BTreeSet<FlowId> = ctl.cached_reports().map(|(id, _)| id).collect();
            prop_assert!(expected.is_subset(&before));
            ctl.release_batch(&ids).unwrap();
            let after: BTreeSet<FlowId> = ctl.cached_reports().map(|(id, _)| id).collect();
            let invalidated: BTreeSet<FlowId> = before.difference(&after).copied().collect();
            prop_assert_eq!(invalidated, expected);
            prop_assert_eq!(ctl.partition(), &DependencyGraph::new(ctl.accepted()));
            if !ctl.accepted().is_empty() {
                let cold = ctl.reanalyze().unwrap();
                for (id, report) in ctl.cached_reports() {
                    prop_assert_eq!(Some(report), cold.flow(id));
                }
            }
        }
    }

    #[test]
    fn admits_feasible_flows_and_accumulates_them() {
        let (mut ctl, net) = controller();
        assert_eq!(ctl.n_accepted(), 0);

        let route = shortest_path(ctl.topology(), net.hosts[1], net.hosts[3]).unwrap();
        let d = one(&mut ctl, voice(20.0), route, Priority(7));
        assert!(d.is_accepted());
        assert_eq!(ctl.n_accepted(), 1);
        assert!(d.report().schedulable);
        // The decision exposes the cost of the trial analyses: how many
        // holistic rounds they took, with one trace entry per round of the
        // final run.
        assert!(d.iterations() >= 1);
        assert_eq!(d.trace().len(), d.report().iterations);
        assert!(d.cost().flow_analyses >= 1);
        // The candidate's own report is addressable by its id.
        assert_eq!(d.candidate_report().unwrap().flow, d.id());

        let route = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video, route, Priority(5));
        assert!(d.is_accepted());
        assert_eq!(ctl.n_accepted(), 2);
        // The second trial solved the (single, merged) shard both flows
        // share, and its reports now fill the report cache.
        assert_eq!(d.cost().shard, ShardId(FlowId(0)));
        assert_eq!(d.cost().shard_flows, 2);
        assert_eq!(ctl.partition().n_shards(), 1);
        assert_eq!(cache_snapshot(&ctl), keyed(d.report()));

        // Re-analysing the accepted set is still schedulable.
        assert!(ctl.reanalyze().unwrap().schedulable);
    }

    #[test]
    fn rejects_infeasible_flow_and_keeps_state() {
        let (mut ctl, net) = controller();
        // The voice call enters through host 1 so it does not share the
        // (priority-blind) access link of the video source.
        let voice_route = shortest_path(ctl.topology(), net.hosts[1], net.hosts[3]).unwrap();
        assert!(one(&mut ctl, voice(20.0), voice_route, Priority(7)).is_accepted());

        let route = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        // A video flow with an impossible 2 ms deadline over two 10 Mbit/s
        // access links is rejected...
        let video = paper_figure3_flow("video", Time::from_millis(2.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video, route.clone(), Priority(6));
        assert!(!d.is_accepted());
        match &d {
            AdmissionDecision::Rejected {
                id,
                reason,
                victim,
                report,
                ..
            } => {
                assert!(reason.contains("video") || reason.contains("overload"));
                assert!(!report.schedulable);
                // The rejection names the candidate's trial id, and when
                // the analysis converged, attributes the miss to it.
                assert_eq!(*id, d.id());
                if report.converged {
                    assert_eq!(*victim, Some(AdmissionVictim::Candidate));
                    assert_eq!(report.flow(*id).unwrap().flow, *id);
                }
            }
            _ => unreachable!(),
        }
        // ...and the accepted set is unchanged.
        assert_eq!(ctl.n_accepted(), 1);
        assert!(ctl.reanalyze().unwrap().schedulable);

        // The same video flow with a realistic deadline is admitted under
        // a fresh id: every request consumes one id, accepted or not.
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        let d2 = one(&mut ctl, video, route, Priority(6));
        assert!(d2.is_accepted());
        assert_ne!(d2.id(), d.id());
        assert_eq!(d2.id(), FlowId(2));
        assert_eq!(ctl.n_accepted(), 2);
    }

    #[test]
    fn rejection_protects_already_admitted_flows_and_names_them() {
        let (mut ctl, net) = controller();
        // Admit a voice flow with a tight deadline on the shared 10 Mbit/s
        // access link of host 0.
        let route03 = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        let tight = one(&mut ctl, voice(4.0), route03.clone(), Priority(7));
        assert!(tight.is_accepted());

        // A big low-priority video flow sharing the same source link pushes
        // the voice flow's first-hop (priority-blind) bound past 4 ms, so it
        // must be rejected even though the *new* flow itself has a lax
        // deadline.
        let video = paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video, route03, Priority(1));
        assert!(!d.is_accepted());
        assert_eq!(ctl.n_accepted(), 1);
        match &d {
            AdmissionDecision::Rejected { victim, report, .. } => {
                if report.converged {
                    assert_eq!(
                        *victim,
                        Some(AdmissionVictim::Existing {
                            flows: vec![tight.id()],
                        }),
                    );
                }
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn warm_decisions_match_cold_decisions_bytewise() {
        let requests = |net: &gmf_net::PaperNetwork, t: &Topology| {
            vec![
                AdmissionRequest::new(
                    voice(20.0),
                    shortest_path(t, net.hosts[1], net.hosts[3]).unwrap(),
                    Priority(7),
                ),
                AdmissionRequest::new(
                    paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0)),
                    shortest_path(t, net.hosts[0], net.hosts[3]).unwrap(),
                    Priority(5),
                ),
                AdmissionRequest::new(
                    // An impossible deadline: rejected by both engines.
                    paper_figure3_flow("video2", Time::from_millis(2.0), Time::from_millis(1.0)),
                    shortest_path(t, net.hosts[2], net.hosts[3]).unwrap(),
                    Priority(6),
                ),
                AdmissionRequest::new(
                    voice(25.0),
                    shortest_path(t, net.hosts[2], net.hosts[0]).unwrap(),
                    Priority(7),
                ),
            ]
        };
        let (t, net) = paper_figure1();
        let config = AnalysisConfig::paper();
        let mut ctl = AdmissionController::new(t.clone(), config);
        let mut references = Vec::new();
        for request in requests(&net, &t) {
            // The reference: a global analysis of accepted ∪ {candidate},
            // under the id the controller is about to hand out.
            let mut trial = ctl.accepted().clone();
            let id = trial.reserve_ids(1);
            trial.insert(request.clone().into_binding(id)).unwrap();
            let reference = crate::holistic::analyze(&t, &trial, &config).unwrap();
            let d = ctl.request_batch([request]).unwrap().pop().unwrap();
            assert_eq!(d.id(), id);
            assert_eq!(d.is_accepted(), reference.schedulable);
            // Sharded reports cover the candidate's shard; every bound they
            // carry is byte-identical to the global report's entry for the
            // same flow.
            assert!(!d.report().flows.is_empty());
            for flow in &d.report().flows {
                assert_eq!(Some(flow), reference.flow(flow.flow));
            }
            assert_eq!(d.report().schedulable, reference.schedulable);
            assert_eq!(d.report().failure, reference.failure);
            if let AdmissionDecision::Rejected { reason, victim, .. } = &d {
                let expected = reference.failure.as_deref().unwrap_or("deadline miss");
                assert_eq!(reason, expected);
                if reference.converged {
                    assert_eq!(*victim, victim_of(&reference, id));
                }
            }
            if d.is_accepted() {
                assert_eq!(ctl.accepted(), &trial);
            }
            references.push((d, reference));
        }
        assert_eq!(references.len(), 4);
        assert!(!references[2].0.is_accepted());
        // The last candidate's route is link-disjoint from everything
        // admitted, so its trial analysed a fresh singleton shard while the
        // reference re-ran the world.
        let (last, reference) = &references[3];
        assert!(last.report().flows.len() < reference.flows.len());
        assert_eq!(last.cost().shard_flows, 1);
    }

    #[test]
    fn batched_requests_consume_ids_in_order_and_match_sequential() {
        let (t, net) = paper_figure1();
        let requests = |t: &Topology| {
            vec![
                AdmissionRequest::new(
                    voice(20.0),
                    shortest_path(t, net.hosts[1], net.hosts[3]).unwrap(),
                    Priority(7),
                ),
                AdmissionRequest::new(
                    // Impossible deadline: rejected, but still consumes id 1.
                    paper_figure3_flow("video2", Time::from_millis(2.0), Time::from_millis(1.0)),
                    shortest_path(t, net.hosts[2], net.hosts[3]).unwrap(),
                    Priority(6),
                ),
                AdmissionRequest::new(
                    voice(25.0),
                    shortest_path(t, net.hosts[2], net.hosts[0]).unwrap(),
                    Priority(7),
                ),
                AdmissionRequest::new(
                    // Link-disjoint from every other request: its own lane.
                    voice(25.0),
                    shortest_path(t, net.hosts[3], net.hosts[2]).unwrap(),
                    Priority(7),
                ),
            ]
        };
        // The batched controller runs its lanes on four workers; lanes
        // are deterministic, so the decisions must match a sequential
        // single-threaded submission byte for byte.
        let mut batched =
            AdmissionController::new(t.clone(), AnalysisConfig::paper().with_threads(4));
        let batch = batched.request_batch(requests(&t)).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(
            batch.iter().map(|d| d.id()).collect::<Vec<_>>(),
            vec![FlowId(0), FlowId(1), FlowId(2), FlowId(3)]
        );
        assert!(batch[0].is_accepted());
        assert!(!batch[1].is_accepted());
        assert!(batch[2].is_accepted() && batch[3].is_accepted());
        assert_eq!(batched.n_accepted(), 3);
        assert_eq!(batched.partition().n_shards(), 3);

        let mut seq = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let sequential: Vec<AdmissionDecision> = requests(&t)
            .into_iter()
            .map(|r| seq.request_batch([r]).unwrap().pop().unwrap())
            .collect();
        assert_eq!(batch, sequential);
        assert_eq!(batched.accepted(), seq.accepted());

        // An empty batch is a no-op.
        assert_eq!(batched.request_batch([]).unwrap(), vec![]);
    }

    #[test]
    fn with_accepted_verifies_preload_and_seeds_the_cache() {
        let (t, net) = paper_figure1();
        let voice_route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        let video_route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        let mut preloaded = FlowSet::new();
        preloaded.add(voice(20.0), voice_route.clone(), Priority(7));
        preloaded.add(video.clone(), video_route.clone(), Priority(5));
        let (mut ctl, stats) =
            AdmissionController::with_accepted(t.clone(), preloaded, AnalysisConfig::paper())
                .unwrap();
        assert_eq!(ctl.n_accepted(), 2);
        assert_eq!(stats.shards, ctl.partition().n_shards());
        assert!(stats.largest_shard >= 2);
        assert!(stats.rounds >= 1 && stats.flow_analyses >= 2);
        // The preload seeded the report cache with the cold bounds of
        // every preloaded flow.
        assert_eq!(cache_snapshot(&ctl), keyed(&ctl.reanalyze().unwrap()));

        // The preloaded controller decides the next candidate exactly like
        // a controller that admitted the same flows one by one — cost,
        // bounds and trace included — and leaves the same report cache.
        let mut seq = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        assert!(one(&mut seq, voice(20.0), voice_route, Priority(7)).is_accepted());
        assert!(one(&mut seq, video, video_route.clone(), Priority(5)).is_accepted());
        let d_pre = one(&mut ctl, voice(25.0), video_route.clone(), Priority(7));
        let d_seq = one(&mut seq, voice(25.0), video_route.clone(), Priority(7));
        assert_eq!(d_pre, d_seq);
        assert_eq!(cache_snapshot(&ctl), cache_snapshot(&seq));

        // A preloaded set that is not schedulable is refused up front,
        // naming the failing shard.
        let mut bad = FlowSet::new();
        bad.add(voice(4.0), video_route.clone(), Priority(7));
        bad.add(
            paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0)),
            video_route,
            Priority(1),
        );
        let err = AdmissionController::with_accepted(t, bad, AnalysisConfig::paper()).unwrap_err();
        assert!(matches!(err, AnalysisError::PreloadUnschedulable { .. }));
        assert!(err.is_unschedulable());
        assert!(err.to_string().contains("not schedulable"));
    }

    #[test]
    fn release_departs_a_flow_and_reopens_capacity() {
        let (mut ctl, net) = controller();
        let route03 = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        let first = one(&mut ctl, voice(4.0), route03.clone(), Priority(7));
        assert!(first.is_accepted());

        // The big video flow does not fit next to the tight voice call...
        let video = paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video.clone(), route03.clone(), Priority(1));
        assert!(!d.is_accepted());

        // ...but after the voice call departs, it does.
        let departed = ctl.release(first.id()).unwrap();
        assert_eq!(departed.id, first.id());
        assert_eq!(ctl.n_accepted(), 0);
        assert_eq!(ctl.partition().n_shards(), 0);
        let d = one(&mut ctl, video, route03, Priority(1));
        assert!(d.is_accepted(), "{:?}", d.report().failure);
        assert_eq!(ctl.n_accepted(), 1);
        // Departed ids are never reused.
        assert_ne!(d.id(), first.id());

        // Releasing an unknown id is an error and changes nothing.
        assert!(ctl.release(first.id()).is_err());
        assert_eq!(ctl.n_accepted(), 1);
    }

    #[test]
    fn release_batch_matches_sequential_releases_and_is_atomic() {
        let (t, net) = paper_figure1();
        let requests = |t: &Topology| {
            vec![
                AdmissionRequest::new(
                    voice(20.0),
                    shortest_path(t, net.hosts[1], net.hosts[3]).unwrap(),
                    Priority(7),
                ),
                AdmissionRequest::new(
                    paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0)),
                    shortest_path(t, net.hosts[0], net.hosts[3]).unwrap(),
                    Priority(5),
                ),
                AdmissionRequest::new(
                    voice(25.0),
                    shortest_path(t, net.hosts[2], net.hosts[0]).unwrap(),
                    Priority(7),
                ),
            ]
        };
        let mut batched = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let mut sequential = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let a = batched.request_batch(requests(&t)).unwrap();
        let b = sequential.request_batch(requests(&t)).unwrap();
        assert!(a.iter().all(AdmissionDecision::is_accepted));
        assert_eq!(a, b);

        // Tear down the two flows sharing the video's shard in one batch
        // vs one at a time: same survivors, same partition, and the next
        // decision is byte-identical.
        let removed = batched.release_batch(&[a[0].id(), a[1].id()]).unwrap();
        assert_eq!(
            removed.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![a[0].id(), a[1].id()]
        );
        sequential.release(b[0].id()).unwrap();
        sequential.release(b[1].id()).unwrap();
        assert_eq!(batched.accepted(), sequential.accepted());
        assert_eq!(
            batched.partition().n_shards(),
            sequential.partition().n_shards()
        );
        let candidate = |t: &Topology| {
            AdmissionRequest::new(
                voice(18.0),
                shortest_path(t, net.hosts[1], net.hosts[3]).unwrap(),
                Priority(6),
            )
        };
        let da = batched.request_batch([candidate(&t)]).unwrap();
        let db = sequential.request_batch([candidate(&t)]).unwrap();
        assert_eq!(da, db);

        // Atomicity: an unknown or duplicated id fails the whole batch
        // without removing anything.
        let before = batched.accepted().clone();
        assert!(batched.release_batch(&[FlowId(999)]).is_err());
        let live = a[2].id();
        assert!(batched.release_batch(&[live, live]).is_err());
        assert_eq!(*batched.accepted(), before);

        // An empty batch is a no-op.
        assert_eq!(batched.release_batch(&[]).unwrap(), vec![]);
    }

    #[test]
    fn rebase_swaps_topology_only_when_retained_flows_are_untouched() {
        // h0 - s1 - h3 carries the retained flow; s2 - h4 hang off s1 via
        // s2, far from the flow's route.
        let mut t = Topology::new();
        let h0 = t.add_end_host("h0");
        let s1 = t.add_switch(gmf_net::SwitchConfig::paper(), "s1");
        let h3 = t.add_end_host("h3");
        let s2 = t.add_switch(gmf_net::SwitchConfig::paper(), "s2");
        let h4 = t.add_end_host("h4");
        for (a, b) in [(h0, s1), (s1, h3), (s1, s2), (s2, h4)] {
            t.add_duplex_link(a, b, gmf_net::LinkProfile::ethernet_100m())
                .unwrap();
        }
        let route = shortest_path(&t, h0, h3).unwrap();
        let mut ctl = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let d = one(&mut ctl, voice(20.0), route.clone(), Priority(7));
        assert!(d.is_accepted());

        // Failing the s2-h4 cable touches neither the flow's route nodes
        // nor their interface counts: rebase succeeds and keeps the cache,
        // which still equals a cold analysis on the new topology.
        let mut faulty = t.clone();
        faulty.fail_link(s2, h4).unwrap();
        let cached = cache_snapshot(&ctl);
        ctl.rebase(faulty.survivor().into_topology()).unwrap();
        assert_eq!(ctl.topology().n_links(), t.n_links() - 2);
        assert_eq!(cache_snapshot(&ctl).len(), cached.len());
        assert_eq!(
            cache_snapshot(&ctl),
            keyed(&ctl.reanalyze().unwrap()),
            "cache must survive a clean rebase"
        );
        let d2 = one(&mut ctl, voice(25.0), route.clone(), Priority(6));
        assert!(d2.is_accepted());

        // Failing s1-s2 changes s1's interface count; s1 is on the
        // retained route, so the rebase is refused and nothing changes.
        let mut faulty = t.clone();
        faulty.fail_link(s1, s2).unwrap();
        let err = ctl.rebase(faulty.survivor().into_topology()).unwrap_err();
        assert!(matches!(err, AnalysisError::RebaseDirty { .. }));
        assert!(err.to_string().contains("interface count"));

        // Failing the access link severs the retained route outright.
        let mut faulty = t.clone();
        faulty.fail_link(h0, s1).unwrap();
        let err = ctl.rebase(faulty.survivor().into_topology()).unwrap_err();
        assert!(matches!(err, AnalysisError::RebaseDirty { .. }));
    }

    #[test]
    fn release_and_readmission_restore_identical_bounds() {
        let (t, net) = paper_figure1();
        let mut ctl = AdmissionController::new(t.clone(), AnalysisConfig::paper());
        let voice_route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        let video_route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        let v = one(&mut ctl, voice(20.0), voice_route, Priority(7));
        let before = one(&mut ctl, video.clone(), video_route.clone(), Priority(5));
        assert!(v.is_accepted() && before.is_accepted());

        // Tear the video down and bring it back: every surviving flow's
        // report and the re-admitted flow's bounds are unchanged (only its
        // id is fresh).
        ctl.release(before.id()).unwrap();
        let after = one(&mut ctl, video, video_route, Priority(5));
        assert!(after.is_accepted());
        assert_ne!(after.id(), before.id());
        let b = before.candidate_report().unwrap();
        let a = after.candidate_report().unwrap();
        assert_eq!(a.name, b.name);
        assert_eq!(a.frames.len(), b.frames.len());
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(fa.bound, fb.bound);
            assert_eq!(fa.hops, fb.hops);
        }
        assert_eq!(
            after.report().flow(v.id()).unwrap(),
            before.report().flow(v.id()).unwrap(),
        );
    }

    #[test]
    fn invalid_route_fails_the_whole_batch_without_consuming_ids() {
        let (mut ctl, net) = controller();
        // Build a route on a topology with a different shape; the node ids
        // exist in the paper network but the links do not.
        let (line_topology, a, b, _) = gmf_net::line(
            2,
            gmf_net::LinkProfile::ethernet_100m(),
            gmf_net::LinkProfile::ethernet_100m(),
            gmf_net::SwitchConfig::paper(),
        );
        let bogus = gmf_net::shortest_path(&line_topology, a, b).unwrap();
        let good = shortest_path(ctl.topology(), net.hosts[1], net.hosts[3]).unwrap();
        // One bad route poisons the batch atomically: no trial runs, no
        // id is consumed, nothing is admitted.
        let result = ctl.request_batch([
            AdmissionRequest::new(voice(20.0), good.clone(), Priority(7)),
            AdmissionRequest::new(voice(20.0), bogus, Priority(7)),
        ]);
        assert!(result.is_err());
        assert_eq!(ctl.n_accepted(), 0);
        let d = one(&mut ctl, voice(20.0), good, Priority(7));
        assert!(d.is_accepted());
        assert_eq!(d.id(), FlowId(0));
    }

    #[test]
    fn decision_serde_roundtrip_includes_victim_and_cost() {
        let (mut ctl, net) = controller();
        let route = shortest_path(ctl.topology(), net.hosts[0], net.hosts[3]).unwrap();
        one(&mut ctl, voice(4.0), route.clone(), Priority(7));
        let video = paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0));
        let d = one(&mut ctl, video, route, Priority(1));
        assert!(!d.is_accepted());
        let json = serde_json::to_string(&d).unwrap();
        let back: AdmissionDecision = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    /// Three flows chasing each other around a 3-switch ring, host to
    /// host: A `S0→S1→S2`, B `S1→S2→S0`, C `S2→S0→S1`.  Their jitters form
    /// the dependency cycle (A,L12)→(B,I2)→(B,L20)→(C,I0)→(C,L01)→(A,I1)
    /// →(A,L12): the full set may have fixed points above the least one,
    /// which is the only one a decision may rest on.
    fn chasing_ring() -> (Topology, [AdmissionRequest; 3]) {
        let link = LinkProfile::ethernet_100m();
        let mut t = Topology::new();
        let switches: Vec<NodeId> = (0..3)
            .map(|i| t.add_switch(SwitchConfig::paper(), format!("s{i}")))
            .collect();
        let hosts: Vec<NodeId> = (0..3).map(|i| t.add_end_host(format!("h{i}"))).collect();
        for i in 0..3 {
            t.add_duplex_link(hosts[i], switches[i], link).unwrap();
            t.add_duplex_link(switches[i], switches[(i + 1) % 3], link)
                .unwrap();
        }
        let request = |name: &str, first: usize| {
            let path = (0..3).map(|k| switches[(first + k) % 3]);
            let nodes = std::iter::once(hosts[first])
                .chain(path)
                .chain(std::iter::once(hosts[(first + 2) % 3]))
                .collect();
            let route = Route::new(&t, nodes).unwrap();
            let flow = voip_flow(
                name,
                VoiceCodec::G711,
                Time::from_millis(50.0),
                Time::from_millis(0.5),
            );
            AdmissionRequest::new(flow, route, Priority(5))
        };
        let requests = [request("a", 0), request("b", 1), request("c", 2)];
        (t, requests)
    }

    /// Every trial is a cold solve, so closing the cycle needs no special
    /// path: the decision must equal the reference analysis.
    #[test]
    fn cyclic_dependency_graph_falls_back_to_cold_analysis() {
        let (t, [a, b, c]) = chasing_ring();
        for threads in [1usize, 4] {
            let config = AnalysisConfig::paper().with_threads(threads);
            let mut ctl = AdmissionController::new(t.clone(), config);
            assert!(ctl.request_batch([a.clone()]).unwrap()[0].is_accepted());
            let second = ctl.request_batch([b.clone()]).unwrap().pop().unwrap();
            assert!(second.is_accepted(), "threads {threads}");
            // C closes the cycle; its trial solves the whole ring cold.
            let decision = ctl.request_batch([c.clone()]).unwrap().pop().unwrap();
            assert!(decision.is_accepted(), "threads {threads}");
            assert_eq!(decision.cost().shard_flows, 3, "threads {threads}");
            let reference =
                crate::reference::analyze_reference(&t, ctl.accepted(), &config).unwrap();
            assert_eq!(decision.report(), &reference, "threads {threads}");
        }
    }
}
