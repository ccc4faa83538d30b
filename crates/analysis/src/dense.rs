//! The dense-index data plane of the analysis engine.
//!
//! The keyed view of the analysis state — [`JitterMap`] keyed by
//! `(FlowId, ResourceId)`, [`crate::context::AnalysisContext::demand`]
//! keyed by `(FlowId, NodeId, NodeId)`, `FlowSet::flows_on_link` rescanning
//! every route — is the right interface at the boundary (seeds, reports,
//! serde), but tree-map probes and fresh `Vec` allocations in the
//! busy-period recurrences dominate the cost of a holistic round.  This
//! module interns everything once per analysis, from index arithmetic and
//! one sort — no tree map:
//!
//! * **Flow interner and pair layout** — flows get dense indices (their
//!   position in the id-sorted binding list).  Every stage of a flow's
//!   Figure 6 walk gets a *pair id*: a flow's pairs are contiguous, one per
//!   stage in walk order (`2·hops − 1` of them), each addressing an
//!   `n_frames` range of a flat arena.  An interferer at hop `h` of its
//!   route holds its link jitter at its stage `2h` (`0` for its first hop)
//!   and its ingress jitter at the far switch at stage `2h + 1`, so every
//!   pair lookup is arithmetic.
//! * **Shared demands** — a [`LinkDemand`] depends on its link only
//!   through the link speed, so each flow compiles one demand (and the
//!   context one [`gmf_model::DemandTable`]) per distinct speed on its
//!   route; every hop points at the shared index.  A metro flow crossing
//!   two equal-speed access links compiles one table, not two.
//! * **Link index** — every hop's `(link, flow, hop)` entry sorted by link
//!   then flow index, so each link's interferers are one contiguous group
//!   in id order, the order `flows_on_link` yields.
//! * **[`DenseJitters`]** — the generalized-jitter state as one `Vec<Time>`
//!   arena plus a per-pair max cache, replacing the `BTreeMap` probes of
//!   [`JitterMap::get`] / [`JitterMap::max_jitter`] with slot reads.
//! * **Interference tables** — per flow, per stage: the interferer list of
//!   the stage's underlying link with each interferer's demand index,
//!   jitter pair id and static blocking term, plus the precomputed
//!   utilization of the stage's overload check.  Stage code iterates a
//!   cached slice instead of calling `flows_on_link` / `hep` and probing
//!   demand maps inside fixed-point closures.
//!
//! The build also checks every route on the way (at least two nodes, no
//! revisited or unknown node, existing links, switches in the middle), so
//! no entry point reaches the kernels with a broken route.  The plan is
//! immutable for the lifetime of its
//! [`crate::context::AnalysisContext`]; the engine converts the keyed seed
//! to dense form once per run ([`DenseJitters::from_keyed`]).
//! Every value it stores or computes is obtained by the same arithmetic, in
//! the same order, as the keyed stage implementations, so bounds are
//! byte-identical (property-tested against the keyed reference engine in
//! `tests/dense_engine_properties.rs`).

use crate::context::{JitterMap, ResourceId};
use crate::error::{AnalysisError, StageKind};
use crate::index::{cx, ux};
use gmf_model::{BitRate, FlowId, LinkDemand, Time};
use gmf_net::{FlowSet, NetError, NodeId, Topology};

/// Sentinel pair id for an interferer that never accumulates jitter at the
/// stage's resource (a flow terminating at the switch whose ingress is
/// analysed): its stored jitter is identically zero.
pub(crate) const NO_PAIR: u32 = u32::MAX;

/// One interference term precompiled for the per-frame kernels: the
/// interferer's demand-table index, its jitter pair and the static
/// blocking widening, laid out contiguously in [`DensePlan::terms`] so a
/// stage build resolves its round-dependent `extra_j` values with one
/// branch-free slice walk (see [`crate::kernel`]).
///
/// `blocking_c` is stored as [`Time::ZERO`] for the flow under analysis,
/// so the first-hop blocking refinement can add it unconditionally —
/// `x + 0.0` is exact in IEEE 754, keeping the walk branchless *and*
/// byte-identical to the keyed `is_self` branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TermSpec {
    /// Index of the interferer's demand table (same index space as
    /// demands — the interner stores them side by side).
    pub table: u32,
    /// Pair id of the interferer's jitter at the stage's resource.
    pub pair: u32,
    /// Static first-hop blocking widening (zero for self / non-first-hop).
    pub blocking_c: Time,
}

/// One resource of a flow's Figure 6 pipeline walk, with everything its
/// response-time analysis needs precomputed.
#[derive(Debug, Clone)]
pub(crate) struct StagePlan {
    /// Which of the three per-resource analyses applies.
    pub stage: StageKind,
    /// The resource (for report hops and error messages).
    pub resource: ResourceId,
    /// Pair id of the analysed flow's jitter at this resource (where the
    /// pipeline walk records its accumulated `JSUM`).
    pub pair: u32,
    /// Index of the analysed flow's own demand on the stage's link.
    pub own_demand: u32,
    /// The stage's long-run demand (left-hand side of its overload check),
    /// summed in interferer id order exactly as the keyed analyses do.
    pub utilization: f64, // tidy-allow: float utilization ratio, not a bound
    /// Range into [`DensePlan::terms`] with every interferer of the stage
    /// in id order (all flows on the link for first hop / ingress, the
    /// higher-or-equal-priority flows for egress) — the slice the
    /// busy-period kernels walk.
    pub all_terms: std::ops::Range<u32>,
    /// Range into [`DensePlan::terms`] with the non-self interferers in id
    /// order — the slice the `w(q)` kernels walk.  Equal to `all_terms`
    /// for egress stages, whose interferer set never contains self.
    pub other_terms: std::ops::Range<u32>,
    /// `CIRC(N)` of the switch (ingress / egress stages; zero first hop).
    pub circ: Time,
    /// Propagation delay of the traversed link (first hop / egress stages;
    /// zero for ingress, which eq. 26 does not charge).
    pub propagation: Time,
}

/// The dense walk of one flow.
#[derive(Debug, Clone)]
pub(crate) struct FlowPlan {
    /// The flow's id.
    pub id: FlowId,
    /// Number of frames in the flow's GMF cycle.
    pub n_frames: usize,
    /// The Figure 6 stages in route order: first hop, then per switch the
    /// ingress stage and the egress link.
    pub stages: Vec<StagePlan>,
    /// Index into [`DensePlan::hop_demands`] of the flow's first hop; its
    /// route's hops follow contiguously.
    pub first_hop: u32,
    /// The flow's contiguous range of [`DensePlan::terms`] (every stage's
    /// `all_terms` and `other_terms`).
    pub terms: std::ops::Range<u32>,
}

/// The per-analysis interner and interference tables (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct DensePlan {
    /// One plan per flow, in binding (id) order.
    pub flows: Vec<FlowPlan>,
    /// Pair id → first arena slot of its `n_frames` range.
    pub pair_base: Vec<u32>,
    /// Pair id → number of frames (range length).
    pub pair_frames: Vec<u32>,
    /// Total arena length (sum of all pair ranges).
    pub arena_len: usize,
    /// Flat arena of precompiled interference terms; stage plans address
    /// it through their `all_terms` / `other_terms` ranges.
    pub terms: Vec<TermSpec>,
    /// Demand index of every hop of every route, flow after flow (see
    /// [`FlowPlan::first_hop`]).  Hops of one flow over links of equal
    /// speed share one demand.
    pub hop_demands: Vec<u32>,
}

impl DensePlan {
    /// Intern `flows` against `topology`: compile one demand per (flow,
    /// distinct link speed on its route) into `demands`, lay out the jitter
    /// arena and build every flow's interference tables.
    ///
    /// Every route is checked on the way: a route with fewer than two
    /// nodes, a revisited or unknown node, a missing link or a non-switch
    /// intermediate is an [`AnalysisError::Net`].
    pub fn build(
        topology: &Topology,
        flows: &FlowSet,
        demands: &mut Vec<LinkDemand>,
    ) -> Result<DensePlan, AnalysisError> {
        let bindings = flows.bindings();

        // Pass 1 — the hop walk: validate each route, compile its demands
        // (one per distinct speed) and record every hop's link.  Global hop
        // `g` of flow `f` is `first_hop[f] + h`.
        let mut seen = vec![usize::MAX; topology.n_nodes()];
        let mut first_hop: Vec<u32> = Vec::with_capacity(bindings.len());
        let mut hop_demands: Vec<u32> = Vec::new();
        let mut hop_propagation: Vec<Time> = Vec::new();
        // `(from, to, flow index, hop index)` of every hop.
        let mut links: Vec<(NodeId, NodeId, u32, u32)> = Vec::new();
        let mut speeds: Vec<(BitRate, u32)> = Vec::new();
        for (flow_idx, binding) in bindings.iter().enumerate() {
            let nodes = binding.route.nodes();
            if nodes.len() < 2 {
                return Err(AnalysisError::Net(NetError::RouteTooShort));
            }
            first_hop.push(cx(hop_demands.len()));
            speeds.clear();
            for (position, &node) in nodes.iter().enumerate() {
                let stamp = seen
                    .get_mut(node.0)
                    .ok_or(AnalysisError::Net(NetError::UnknownNode(node)))?;
                if *stamp == flow_idx {
                    return Err(AnalysisError::Net(NetError::RouteRevisitsNode(node)));
                }
                *stamp = flow_idx;
                let Some(hop) = position.checked_sub(1) else {
                    continue;
                };
                let from = nodes[hop];
                let link = topology.link_between(from, node)?;
                let demand = match speeds.iter().find(|&&(speed, _)| speed == link.speed) {
                    Some(&(_, demand)) => demand,
                    None => {
                        let demand = cx(demands.len());
                        demands.push(LinkDemand::new(
                            &binding.flow,
                            &binding.encapsulation,
                            link.speed,
                        ));
                        speeds.push((link.speed, demand));
                        demand
                    }
                };
                hop_demands.push(demand);
                hop_propagation.push(link.propagation);
                links.push((from, node, cx(flow_idx), cx(hop)));
            }
        }

        // The link index: hops sorted by link, then by flow index (= id
        // order, the order `flows_on_link` yields), and for every global hop
        // the range of its link's group.
        links.sort_unstable();
        let mut link_group: Vec<(u32, u32)> = vec![(0, 0); links.len()];
        let mut start = 0;
        while start < links.len() {
            let (from, to, _, _) = links[start];
            let end = start
                + links[start..]
                    .iter()
                    .take_while(|&&(f, t, _, _)| f == from && t == to)
                    .count();
            for &(_, _, flow, hop) in &links[start..end] {
                link_group[ux(first_hop[ux(flow)] + hop)] = (cx(start), cx(end));
            }
            start = end;
        }

        // Pair layout: one pair per stage (`2·hops − 1` per flow), flow
        // after flow, each with an `n_frames` arena range.
        let mut pair_start: Vec<u32> = Vec::with_capacity(bindings.len());
        let mut pair_base = Vec::new();
        let mut pair_frames = Vec::new();
        let mut arena_len = 0u32;
        for binding in bindings {
            pair_start.push(cx(pair_base.len()));
            let n_frames = cx(binding.flow.n_frames());
            for _ in 0..2 * binding.route.n_hops() - 1 {
                pair_base.push(arena_len);
                pair_frames.push(n_frames);
                arena_len += n_frames;
            }
        }
        let hops_of = |flow: u32| cx(bindings[ux(flow)].route.n_hops());

        // Pass 2 — per-flow stage plans with interference tables.
        let mut flow_plans = Vec::with_capacity(bindings.len());
        let mut terms: Vec<TermSpec> = Vec::new();
        for (flow_idx, binding) in bindings.iter().enumerate() {
            let nodes = binding.route.nodes();
            let n_hops = binding.route.n_hops();
            let flow_terms_start = cx(terms.len());
            let mut stages = Vec::with_capacity(2 * n_hops - 1);
            let mut circ = Time::ZERO;
            for position in 0..2 * n_hops - 1 {
                // Stage 0 is the first hop; stage `2h − 1` the ingress of
                // switch `nodes[h]` (fed by hop `h − 1`), stage `2h` its
                // egress onto hop `h`.
                let (stage, hop) = match position {
                    0 => (StageKind::FirstHop, 0),
                    p if p % 2 == 1 => (StageKind::SwitchIngress, (p - 1) / 2),
                    p => (StageKind::EgressLink, p / 2),
                };
                let (from, to) = (nodes[hop], nodes[hop + 1]);
                let global_hop = ux(first_hop[flow_idx]) + hop;
                let (resource, propagation) = match stage {
                    StageKind::SwitchIngress => {
                        circ = topology.circ(to)?;
                        (ResourceId::SwitchIngress { node: to }, Time::ZERO)
                    }
                    _ => (ResourceId::Link { from, to }, hop_propagation[global_hop]),
                };
                let stage_circ = if stage == StageKind::FirstHop {
                    Time::ZERO
                } else {
                    circ
                };

                // Interferers in id order, with the overload-check
                // utilization summed in that order as the keyed stage code
                // does.  An interferer at hop `h_j` of its own route holds
                // its link jitter at stage `2·h_j` (`0` for its first hop)
                // and its ingress jitter at the far switch at `2·h_j + 1`,
                // unless the far end is its destination.
                let (group_start, group_end) = link_group[global_hop];
                let all_start = cx(terms.len());
                let mut self_term = None;
                // tidy-allow: float utilization is a dimensionless ratio compared against 1.0, not a bound
                let mut utilization = 0.0f64;
                for &(_, _, j, h_j) in &links[ux(group_start)..ux(group_end)] {
                    let is_self = ux(j) == flow_idx;
                    if stage == StageKind::EgressLink
                        && (is_self || bindings[ux(j)].priority < binding.priority)
                    {
                        continue;
                    }
                    let demand = hop_demands[ux(first_hop[ux(j)] + h_j)];
                    let d = &demands[ux(demand)];
                    let pair = match stage {
                        StageKind::SwitchIngress if h_j + 1 == hops_of(j) => NO_PAIR,
                        StageKind::SwitchIngress => pair_start[ux(j)] + 2 * h_j + 1,
                        _ => pair_start[ux(j)] + 2 * h_j,
                    };
                    let blocking_c = match stage {
                        StageKind::FirstHop => {
                            utilization += d.utilization();
                            if is_self {
                                Time::ZERO
                            } else {
                                d.max_c()
                            }
                        }
                        StageKind::SwitchIngress => {
                            // tidy-allow: float, cast round-count to ratio conversion for the overload check only
                            utilization += d.nsum() as f64 * circ.as_secs() / d.tsum().as_secs();
                            Time::ZERO
                        }
                        StageKind::EgressLink => {
                            // tidy-allow: float, cast round-count to ratio conversion for the overload check only
                            utilization += (d.csum().as_secs() + d.nsum() as f64 * circ.as_secs())
                                / d.tsum().as_secs();
                            Time::ZERO
                        }
                    };
                    if is_self {
                        self_term = Some(terms.len());
                    }
                    terms.push(TermSpec {
                        table: demand,
                        pair,
                        blocking_c,
                    });
                }
                let all_end = cx(terms.len());
                // The `w(q)` walks drop the flow's own term (first hop and
                // ingress); egress tables never hold it, so one slice serves.
                let other_terms = match self_term {
                    Some(own) => {
                        terms.extend_from_within(ux(all_start)..own);
                        terms.extend_from_within(own + 1..ux(all_end));
                        all_end..cx(terms.len())
                    }
                    None => all_start..all_end,
                };
                stages.push(StagePlan {
                    stage,
                    resource,
                    pair: pair_start[flow_idx] + cx(position),
                    own_demand: hop_demands[global_hop],
                    utilization,
                    all_terms: all_start..all_end,
                    other_terms,
                    circ: stage_circ,
                    propagation,
                });
            }
            flow_plans.push(FlowPlan {
                id: binding.id,
                n_frames: binding.flow.n_frames(),
                stages,
                first_hop: first_hop[flow_idx],
                terms: flow_terms_start..cx(terms.len()),
            });
        }

        Ok(DensePlan {
            flows: flow_plans,
            pair_base,
            pair_frames,
            arena_len: ux(arena_len),
            terms,
            hop_demands,
        })
    }

    /// The term slice of a stage range (kernel walks).
    #[inline]
    pub fn term_slice(&self, range: &std::ops::Range<u32>) -> &[TermSpec] {
        &self.terms[ux(range.start)..ux(range.end)]
    }

    /// Number of pairs in the layout.
    pub fn n_pairs(&self) -> usize {
        self.pair_base.len()
    }

    /// The arena range of a pair.
    #[inline]
    pub fn range(&self, pair: u32) -> std::ops::Range<usize> {
        let base = ux(self.pair_base[ux(pair)]);
        base..base + ux(self.pair_frames[ux(pair)])
    }
}

/// The generalized-jitter state in arena form: one `Time` slot per
/// `(flow, resource-on-its-route, frame)`, plus a per-pair running max
/// cache backing the `extra_j` reads of the stage analyses.
///
/// A map is immutable once built: the engine assembles each round's next
/// iterate as a whole arena ([`DenseJitters::from_values`]), so every
/// per-pair max is computed once, from final values.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseJitters {
    values: Vec<Time>,
    maxes: Vec<Time>,
}

impl DenseJitters {
    /// The all-zero map.
    pub fn zeroed(plan: &DensePlan) -> DenseJitters {
        DenseJitters {
            values: vec![Time::ZERO; plan.arena_len],
            maxes: vec![Time::ZERO; plan.n_pairs()],
        }
    }

    /// The map holding `values`, a whole arena (the next iterate the
    /// fixed-point engine assembles from every flow's assignments).
    pub fn from_values(plan: &DensePlan, values: Vec<Time>) -> DenseJitters {
        debug_assert_eq!(values.len(), plan.arena_len);
        let maxes = plan
            .pair_base
            .iter()
            .zip(&plan.pair_frames)
            .map(|(&base, &frames)| {
                values[ux(base)..ux(base) + ux(frames)]
                    .iter()
                    .copied()
                    .fold(Time::ZERO, Time::max)
            })
            .collect();
        DenseJitters { values, maxes }
    }

    /// The paper's initial map: every flow's specified source jitter on its
    /// first link, zero everywhere else (the engine converts the keyed
    /// [`JitterMap::initial`]; this is its dense cross-check).
    #[cfg(test)]
    pub fn initial(plan: &DensePlan, flows: &FlowSet) -> DenseJitters {
        let mut values = vec![Time::ZERO; plan.arena_len];
        for (flow_plan, binding) in plan.flows.iter().zip(flows.bindings()) {
            let base = ux(plan.pair_base[ux(flow_plan.stages[0].pair)]);
            for (frame, spec) in binding.flow.frames().iter().enumerate() {
                values[base + frame] = spec.jitter;
            }
        }
        DenseJitters::from_values(plan, values)
    }

    /// Convert a keyed seed.  Keys outside the plan (flows or resources
    /// not in this analysis) are ignored — the analysis never reads them,
    /// exactly as the keyed engine's `get` would return zero for slots the
    /// seed does not cover.
    pub fn from_keyed(plan: &DensePlan, flows: &FlowSet, keyed: &JitterMap) -> DenseJitters {
        let mut map = DenseJitters::zeroed(plan);
        let bindings = flows.bindings();
        for (&(flow, resource), values) in keyed.iter() {
            let Ok(flow_idx) = bindings.binary_search_by_key(&flow, |b| b.id) else {
                continue;
            };
            let Some(pair) = plan.flows[flow_idx]
                .stages
                .iter()
                .find(|s| s.resource == resource)
                .map(|s| s.pair)
            else {
                continue;
            };
            let range = plan.range(pair);
            let slots = range.len();
            for (frame, &value) in values.iter().take(slots).enumerate() {
                map.values[range.start + frame] = value;
            }
            map.maxes[ux(pair)] = map.values[range]
                .iter()
                .copied()
                .fold(Time::ZERO, Time::max);
        }
        map
    }

    /// The jitter of `frame` at `pair` (the engine reads whole slices via
    /// [`Self::slots`]; per-slot reads are a test convenience).
    #[cfg(test)]
    pub fn get(&self, plan: &DensePlan, pair: u32, frame: usize) -> Time {
        self.values[ux(plan.pair_base[ux(pair)]) + frame]
    }

    /// `extra_j`: the largest jitter of any frame at `pair`
    /// ([`NO_PAIR`] reads as zero).  This is the cached form of
    /// [`JitterMap::max_jitter`].
    #[inline]
    pub fn max_jitter(&self, pair: u32) -> Time {
        if pair == NO_PAIR {
            Time::ZERO
        } else {
            self.maxes[ux(pair)]
        }
    }

    /// Componentwise approximate equality (the holistic convergence test).
    pub fn approx_eq(&self, other: &DenseJitters) -> bool {
        self.values
            .iter()
            .zip(&other.values)
            .all(|(a, b)| a.approx_eq(*b))
    }

    /// `‖self − other‖_∞` — the per-round residual.
    pub fn max_abs_diff(&self, other: &DenseJitters) -> Time {
        let mut worst = Time::ZERO;
        for (&a, &b) in self.values.iter().zip(&other.values) {
            let diff = if a >= b { a - b } else { b - a };
            worst = worst.max(diff);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use gmf_model::{cbr_flow, paper_figure3_flow};
    use gmf_net::{paper_figure1, shortest_path, Priority};

    fn setup() -> (Topology, FlowSet) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(100.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(6),
        );
        let voice = cbr_flow(
            "voice",
            160,
            Time::from_millis(20.0),
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
    fn plan_interns_every_walk_resource() {
        let (t, fs) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let plan = ctx.plan();
        assert_eq!(plan.flows.len(), 2);
        // Route 0 -> 4 -> 6 -> 3: first hop + 2 × (ingress, egress).
        assert_eq!(plan.flows[0].stages.len(), 5);
        assert_eq!(plan.flows[1].stages.len(), 5);
        // 9-frame video + 1-frame voice, 5 resources each.
        assert_eq!(plan.arena_len, 9 * 5 + 5);
        assert_eq!(plan.n_pairs(), 10);
        // Stage kinds alternate as the Figure 6 walk dictates.
        let kinds: Vec<StageKind> = plan.flows[0].stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            kinds,
            vec![
                StageKind::FirstHop,
                StageKind::SwitchIngress,
                StageKind::EgressLink,
                StageKind::SwitchIngress,
                StageKind::EgressLink,
            ]
        );
        // Both flows converge on the same final link, so the priority-6
        // video's last (egress) stage sees the priority-7 voice flow as a
        // `hep` interferer with a live jitter pair.
        let last = plan.flows[0].stages.last().unwrap();
        let voice_pairs: Vec<u32> = plan.flows[1].stages.iter().map(|s| s.pair).collect();
        let last_terms = plan.term_slice(&last.all_terms);
        assert!(last_terms.iter().any(|t| voice_pairs.contains(&t.pair)));
        // Egress interferer slices carry no self entry (every pair is
        // live), so both kernel walks share one slice; the first hop's
        // `w(q)` slice drops exactly the self term.
        assert!(last_terms.iter().all(|t| t.pair != NO_PAIR));
        assert_eq!(last.all_terms, last.other_terms);
        let first = &plan.flows[0].stages[0];
        assert_eq!(
            plan.term_slice(&first.all_terms).len(),
            plan.term_slice(&first.other_terms).len() + 1
        );
        // Each flow's pairs are contiguous, one per stage in walk order,
        // and its terms tile one contiguous range.
        for flow in &plan.flows {
            let first = flow.stages[0].pair;
            for (position, stage) in flow.stages.iter().enumerate() {
                assert_eq!(stage.pair, first + cx(position));
            }
        }
        assert_eq!(plan.flows[0].terms.end, plan.flows[1].terms.start);
        assert_eq!(ux(plan.flows[1].terms.end), plan.terms.len());
    }

    #[test]
    fn dense_initial_matches_keyed_initial() {
        let (t, fs) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let plan = ctx.plan();
        let keyed = JitterMap::initial(&fs);
        let dense = DenseJitters::initial(plan, &fs);
        // Every pair's slots and max agree with the keyed reads.
        for flow_plan in &plan.flows {
            for stage in &flow_plan.stages {
                for frame in 0..flow_plan.n_frames {
                    assert_eq!(
                        dense.get(plan, stage.pair, frame),
                        keyed.get(flow_plan.id, stage.resource, frame)
                    );
                }
                assert_eq!(
                    dense.max_jitter(stage.pair),
                    keyed.max_jitter(flow_plan.id, stage.resource)
                );
            }
        }
        // Converting the keyed map yields the same arena.
        let converted = DenseJitters::from_keyed(plan, &fs, &keyed);
        assert_eq!(converted, dense);
    }

    #[test]
    fn from_values_caches_each_pairs_max() {
        let (t, fs) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let plan = ctx.plan();
        let a = DenseJitters::initial(plan, &fs);
        let pair = plan.flows[0].stages[0].pair;
        let mut values = a.values.clone();
        values[ux(plan.pair_base[ux(pair)])] = Time::from_millis(9.0);
        let b = DenseJitters::from_values(plan, values);
        assert_eq!(b.get(plan, pair, 0), Time::from_millis(9.0));
        assert_eq!(b.max_jitter(pair), Time::from_millis(9.0));
        // Every other pair's max is untouched.
        for other in (0..plan.n_pairs()).map(cx).filter(|&p| p != pair) {
            assert_eq!(a.max_jitter(other), b.max_jitter(other));
        }
        assert!(a.max_abs_diff(&b) > Time::ZERO);
        assert!(!a.approx_eq(&b));
        assert_eq!(a.max_jitter(NO_PAIR), Time::ZERO);
    }
}
