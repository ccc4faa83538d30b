//! Shared state of an analysis run: cached per-link demands and the
//! generalized-jitter map.
//!
//! The response-time equations repeatedly evaluate the request-bound
//! functions of every flow on every link it traverses, so the per-link
//! [`LinkDemand`]s are computed once per flow and distinct link speed on
//! its route (a demand depends on the link only through its speed) and
//! cached in an [`AnalysisContext`].
//!
//! The *generalized-jitter map* holds `GJ_i^{k,resource}` — the jitter of
//! frame `k` of flow `i` when it reaches `resource` — for every resource of
//! every flow's route.  The map is what the holistic iteration (Section
//! "Putting it all together") updates between rounds:
//!
//! * initially, the jitter on a flow's *first link* is its specified source
//!   jitter and the jitter everywhere else is zero;
//! * after analysing a flow with the Figure 6 algorithm, the map holds the
//!   accumulated `JSUM` values of that flow at every resource;
//! * the process repeats until the map stops changing.

use crate::error::AnalysisError;
use gmf_model::{DemandTable, FlowId, GmfFlow, LinkDemand, Time};
use gmf_net::{FlowSet, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A resource along a flow's route, in the sense of holistic analysis: a
/// place where the flow can be queued and therefore accumulates response
/// time and jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceId {
    /// The prioritized output queue and transmission on the directed link
    /// `from → to` (also used for the source node's first link).
    Link {
        /// Transmitting node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// The ingress processing of a switch: from reception of the Ethernet
    /// frames at `node` to their enqueueing in the output priority queue.
    SwitchIngress {
        /// The switch doing the processing.
        node: NodeId,
    },
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceId::Link { from, to } => write!(f, "link({},{})", from.0, to.0),
            ResourceId::SwitchIngress { node } => write!(f, "in({})", node.0),
        }
    }
}

/// `GJ_i^{k,resource}` for every flow, frame and resource.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JitterMap {
    values: BTreeMap<(FlowId, ResourceId), Vec<Time>>,
}

impl JitterMap {
    /// The initial map of the holistic iteration for `flows`: source jitter
    /// on each flow's first link, zero everywhere else (nothing stored).
    pub fn initial(flows: &FlowSet) -> Self {
        let mut map = JitterMap::default();
        for binding in flows.bindings() {
            map.set_initial(binding);
        }
        map
    }

    /// Set one flow's initial entries (its source jitter on its first
    /// link), replacing any stored entry at that resource.
    pub fn set_initial(&mut self, binding: &gmf_net::FlowBinding) {
        let first_hop = binding
            .route
            .hops()
            .next()
            // tidy-allow: unwrap invariant: routes have at least one hop
            .expect("routes have at least one hop");
        let resource = ResourceId::Link {
            from: first_hop.from,
            to: first_hop.to,
        };
        let jitters = binding.flow.frames().iter().map(|f| f.jitter).collect();
        self.values.insert((binding.id, resource), jitters);
    }

    /// Set the jitter of frame `k` of `flow` at `resource`.
    pub fn set(
        &mut self,
        flow: FlowId,
        resource: ResourceId,
        frame: usize,
        jitter: Time,
        n_frames: usize,
    ) {
        let entry = self
            .values
            .entry((flow, resource))
            .or_insert_with(|| vec![Time::ZERO; n_frames]);
        if entry.len() < n_frames {
            entry.resize(n_frames, Time::ZERO);
        }
        entry[frame] = jitter;
    }

    /// The jitter of frame `k` of `flow` at `resource` (zero if unknown).
    pub fn get(&self, flow: FlowId, resource: ResourceId, frame: usize) -> Time {
        self.values
            .get(&(flow, resource))
            .and_then(|v| v.get(frame).copied())
            .unwrap_or(Time::ZERO)
    }

    /// `extra_j(resource)`: the largest jitter of any frame of `flow` at
    /// `resource` (zero if the flow has no recorded jitter there).  This is
    /// the paper's `extra_j(N, i)` term.
    pub fn max_jitter(&self, flow: FlowId, resource: ResourceId) -> Time {
        self.values
            .get(&(flow, resource))
            .map(|v| v.iter().copied().fold(Time::ZERO, Time::max))
            .unwrap_or(Time::ZERO)
    }

    /// Walk `self` and `other` in one merged key-ordered pass, calling
    /// `visit` with each key's value pair (an empty slice stands in for a
    /// missing entry).  Stops early when `visit` returns `false`.
    ///
    /// Both maps are `BTreeMap`s, so their iterators are already sorted:
    /// the classic two-pointer merge visits every key of the union exactly
    /// once without materialising a key-union set (the previous
    /// implementation collected the full union into a fresh `BTreeSet` —
    /// twice per holistic round).
    fn merged_walk(&self, other: &JitterMap, mut visit: impl FnMut(&[Time], &[Time]) -> bool) {
        let mut a = self.values.iter().peekable();
        let mut b = other.values.iter().peekable();
        loop {
            const EMPTY: &[Time] = &[];
            let (va, vb): (&[Time], &[Time]) = match (a.peek(), b.peek()) {
                (Some(&(ka, va)), Some(&(kb, vb))) => match ka.cmp(kb) {
                    std::cmp::Ordering::Less => {
                        a.next();
                        (va.as_slice(), EMPTY)
                    }
                    std::cmp::Ordering::Greater => {
                        b.next();
                        (EMPTY, vb.as_slice())
                    }
                    std::cmp::Ordering::Equal => {
                        a.next();
                        b.next();
                        (va.as_slice(), vb.as_slice())
                    }
                },
                (Some(&(_, va)), None) => {
                    a.next();
                    (va.as_slice(), EMPTY)
                }
                (None, Some(&(_, vb))) => {
                    b.next();
                    (EMPTY, vb.as_slice())
                }
                (None, None) => return,
            };
            if !visit(va, vb) {
                return;
            }
        }
    }

    /// `true` if every entry of `self` equals the corresponding entry of
    /// `other` within the convergence tolerance.  Entries missing from one
    /// side are treated as zero.
    pub fn approx_eq(&self, other: &JitterMap) -> bool {
        let mut equal = true;
        self.merged_walk(other, |a, b| {
            let len = a.len().max(b.len());
            for idx in 0..len {
                let va = a.get(idx).copied().unwrap_or(Time::ZERO);
                let vb = b.get(idx).copied().unwrap_or(Time::ZERO);
                if !va.approx_eq(vb) {
                    equal = false;
                    return false;
                }
            }
            true
        });
        equal
    }

    /// The largest absolute componentwise difference between `self` and
    /// `other` — the residual the holistic fixed-point engine records per
    /// round.  Entries missing from one side are treated as zero.
    pub fn max_abs_diff(&self, other: &JitterMap) -> Time {
        let mut worst = Time::ZERO;
        self.merged_walk(other, |a, b| {
            let len = a.len().max(b.len());
            for idx in 0..len {
                let va = a.get(idx).copied().unwrap_or(Time::ZERO);
                let vb = b.get(idx).copied().unwrap_or(Time::ZERO);
                let diff = if va >= vb { va - vb } else { vb - va };
                worst = worst.max(diff);
            }
            true
        });
        worst
    }

    /// Iterate over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(FlowId, ResourceId), &Vec<Time>)> {
        self.values.iter()
    }

    /// Drop every entry of `flow` (a departure: the flow no longer exists,
    /// so its jitters must not seed a later run).  A `BTreeMap` range scan
    /// — `(flow, ·)` keys are contiguous, so the cost is the flow's own
    /// entry count, not the map size.
    pub fn remove_flow(&mut self, flow: FlowId) {
        let lo = (
            flow,
            ResourceId::Link {
                from: NodeId(0),
                to: NodeId(0),
            },
        );
        let hi = (
            FlowId(flow.0 + 1),
            ResourceId::Link {
                from: NodeId(0),
                to: NodeId(0),
            },
        );
        let keys: Vec<(FlowId, ResourceId)> =
            self.values.range(lo..hi).map(|(&key, _)| key).collect();
        for key in keys {
            self.values.remove(&key);
        }
    }
}

/// Cached per-link demands, the dense-index plan and references to the
/// topology and flow set.
///
/// The context is read-only during a single holistic round; the jitter map
/// is threaded separately so that rounds are explicit.  Construction
/// interns flows into dense indices, compiles one demand per flow and
/// distinct link speed on its route, and precomputes every flow's
/// per-stage interference tables (see [`crate::dense`]) — the engine's hot
/// loops never touch a tree map or rescan the flow set.
#[derive(Debug, Clone)]
pub struct AnalysisContext<'a> {
    topology: &'a Topology,
    flows: &'a FlowSet,
    /// Demand storage, indexed by the dense plan's demand ids.
    demands: Vec<LinkDemand>,
    /// Precompiled prefix-maximum tables, parallel to `demands` (same
    /// index space) — the only demand view the per-frame kernels touch.
    tables: Vec<DemandTable>,
    /// The interner and interference tables.
    plan: crate::dense::DensePlan,
}

impl<'a> AnalysisContext<'a> {
    /// Build the context: validate every route against the topology,
    /// pre-compute each flow's demand once per distinct link speed on its
    /// route, lay out the jitter arena and build the per-stage
    /// interference tables.
    ///
    /// A route with fewer than two nodes, a revisited or unknown node, a
    /// missing link or a non-switch intermediate node is an
    /// [`AnalysisError::Net`].
    pub fn new(topology: &'a Topology, flows: &'a FlowSet) -> Result<Self, AnalysisError> {
        let mut demands = Vec::new();
        let plan = crate::dense::DensePlan::build(topology, flows, &mut demands)?;
        let tables = demands.iter().map(DemandTable::new).collect();
        Ok(AnalysisContext {
            topology,
            flows,
            demands,
            tables,
            plan,
        })
    }

    /// The dense plan (interner, arena layout, interference tables).
    pub(crate) fn plan(&self) -> &crate::dense::DensePlan {
        &self.plan
    }

    /// A demand by its dense index (hot-loop form of [`Self::demand`]).
    #[inline]
    pub(crate) fn demand_by_index(&self, index: u32) -> &LinkDemand {
        &self.demands[crate::index::ux(index)]
    }

    /// The interned demand tables, parallel to the demand indices (the
    /// kernels index this slice directly).
    #[inline]
    pub(crate) fn tables(&self) -> &[DemandTable] {
        &self.tables
    }

    /// Aggregate table statistics for the `kernel/*` bench counters:
    /// `(number of tables, total stored window spans, plan term count)`.
    pub fn kernel_stats(&self) -> (u64, u64, u64) {
        let windows = self
            .tables
            .iter()
            .map(|t| u64::try_from(t.n_windows()).unwrap_or(u64::MAX))
            .sum();
        (
            u64::try_from(self.tables.len()).unwrap_or(u64::MAX),
            windows,
            u64::try_from(self.plan.terms.len()).unwrap_or(u64::MAX),
        )
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The flow set under analysis.
    pub fn flows(&self) -> &FlowSet {
        self.flows
    }

    /// The traffic specification of a flow.
    pub fn flow(&self, id: FlowId) -> Result<&GmfFlow, AnalysisError> {
        Ok(&self.flows.get(id)?.flow)
    }

    /// The cached demand of `flow` on the directed link `from → to`
    /// (hops over links of equal speed share one demand).
    ///
    /// The demand exists for every hop of every flow's route; asking for a
    /// (flow, link) pair the flow does not traverse is a programming error
    /// and panics.
    pub fn demand(&self, flow: FlowId, from: NodeId, to: NodeId) -> &LinkDemand {
        let bindings = self.flows.bindings();
        bindings
            .binary_search_by_key(&flow, |b| b.id)
            .ok()
            .and_then(|index| {
                let hop = bindings[index]
                    .route
                    .nodes()
                    .windows(2)
                    .position(|link| link[0] == from && link[1] == to)?;
                let first_hop = crate::index::ux(self.plan.flows[index].first_hop);
                Some(self.demand_by_index(self.plan.hop_demands[first_hop + hop]))
            })
            .unwrap_or_else(|| panic!("no cached demand for {flow} on link({},{})", from.0, to.0))
    }

    /// Sum of `CSUM/TSUM` over the given flows on the given link — the
    /// left-hand side of the schedulability conditions (20), (34) and (35).
    // tidy-allow: float utilization is a dimensionless ratio compared against 1.0, not a bound
    pub fn link_utilization(&self, flows: &[FlowId], from: NodeId, to: NodeId) -> f64 {
        flows
            .iter()
            .map(|&j| self.demand(j, from, to).utilization())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{cbr_flow, paper_figure3_flow};
    use gmf_net::{paper_figure1, shortest_path, Priority};

    fn setup() -> (Topology, FlowSet, Vec<NodeId>) {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(100.0), Time::from_millis(1.0));
        let route = shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap();
        fs.add(video, route, Priority(6));
        let voice = cbr_flow(
            "voice",
            160,
            Time::from_millis(20.0),
            Time::from_millis(20.0),
            Time::ZERO,
        );
        let route = shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap();
        fs.add(voice, route, Priority(7));
        let nodes = vec![
            net.hosts[0],
            net.hosts[1],
            net.switches[0],
            net.switches[2],
            net.hosts[3],
        ];
        (t, fs, nodes)
    }

    #[test]
    fn resource_id_display_and_ordering() {
        let a = ResourceId::Link {
            from: NodeId(0),
            to: NodeId(4),
        };
        let b = ResourceId::SwitchIngress { node: NodeId(4) };
        assert_eq!(a.to_string(), "link(0,4)");
        assert_eq!(b.to_string(), "in(4)");
        assert_ne!(a, b);
        // Ord is derived; just check it is usable as a map key.
        let mut m = BTreeMap::new();
        m.insert(a, 1);
        m.insert(b, 2);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn initial_jitter_map_has_source_jitter_on_first_link() {
        let (_, fs, n) = setup();
        let map = JitterMap::initial(&fs);
        let first_link = ResourceId::Link {
            from: n[0],
            to: n[2],
        };
        // The video flow has 1 ms jitter on every frame.
        assert_eq!(
            map.max_jitter(FlowId(0), first_link),
            Time::from_millis(1.0)
        );
        assert_eq!(map.get(FlowId(0), first_link, 3), Time::from_millis(1.0));
        // Downstream resources start at zero.
        let downstream = ResourceId::Link {
            from: n[2],
            to: n[3],
        };
        assert_eq!(map.max_jitter(FlowId(0), downstream), Time::ZERO);
        // The voice flow declared no jitter.
        let voice_first = ResourceId::Link {
            from: n[1],
            to: n[2],
        };
        assert_eq!(map.max_jitter(FlowId(1), voice_first), Time::ZERO);
    }

    #[test]
    fn jitter_map_set_get_and_compare() {
        let (_, fs, n) = setup();
        let mut map = JitterMap::initial(&fs);
        let resource = ResourceId::SwitchIngress { node: n[2] };
        map.set(FlowId(0), resource, 2, Time::from_millis(3.0), 9);
        assert_eq!(map.get(FlowId(0), resource, 2), Time::from_millis(3.0));
        assert_eq!(map.get(FlowId(0), resource, 1), Time::ZERO);
        assert_eq!(map.max_jitter(FlowId(0), resource), Time::from_millis(3.0));
        // Unknown entries read as zero.
        assert_eq!(map.get(FlowId(1), resource, 0), Time::ZERO);

        let map2 = map.clone();
        assert!(map.approx_eq(&map2));
        let mut map3 = map.clone();
        map3.set(FlowId(0), resource, 2, Time::from_millis(4.0), 9);
        assert!(!map.approx_eq(&map3));
        // A map with an extra all-zero entry is still approx-equal.
        let mut map4 = map.clone();
        map4.set(FlowId(1), resource, 0, Time::ZERO, 1);
        assert!(map.approx_eq(&map4));
        assert!(map.iter().count() >= 2);
    }

    #[test]
    fn remove_and_reseed_flow_entries() {
        let (_, fs, n) = setup();
        let mut map = JitterMap::initial(&fs);
        let resource = ResourceId::SwitchIngress { node: n[2] };
        map.set(FlowId(0), resource, 1, Time::from_millis(2.0), 9);

        // Removing a flow drops all of its entries and nothing else.
        let mut pruned = map.clone();
        pruned.remove_flow(FlowId(0));
        assert_eq!(pruned.get(FlowId(0), resource, 1), Time::ZERO);
        assert!(pruned.iter().all(|(&(f, _), _)| f != FlowId(0)));
        assert!(pruned.iter().any(|(&(f, _), _)| f == FlowId(1)));

        // Re-seeding one flow's initial entries matches the full initial
        // map restricted to that flow.
        let fresh = JitterMap::initial(&fs);
        let mut reseeded = JitterMap::default();
        reseeded.set_initial(fs.get(FlowId(1)).unwrap());
        for (&(flow, resource), values) in reseeded.iter() {
            assert_eq!(flow, FlowId(1));
            for (frame, &value) in values.iter().enumerate() {
                assert_eq!(value, fresh.get(flow, resource, frame));
            }
        }
    }

    #[test]
    fn context_caches_demands_for_every_hop() {
        let (t, fs, n) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        // Video flow route: host0 -> switch4 -> switch6 -> host3.
        let d = ctx.demand(FlowId(0), n[0], n[2]);
        assert_eq!(d.nsum(), 94);
        // The backbone link is faster, so the same flow's CSUM is smaller.
        let d_backbone = ctx.demand(FlowId(0), n[2], n[3]);
        assert!(d_backbone.csum() < d.csum());
        // Both flows share the final link towards host3.
        let shared: Vec<FlowId> = fs.flows_on_link(n[3], n[4]);
        assert_eq!(shared.len(), 2);
        let u = ctx.link_utilization(&shared, n[3], n[4]);
        assert!(u > 0.0 && u < 1.0);
        assert_eq!(ctx.flows().len(), 2);
        assert_eq!(ctx.flow(FlowId(0)).unwrap().n_frames(), 9);
        assert_eq!(ctx.topology().n_nodes(), t.n_nodes());
    }

    #[test]
    fn equal_speed_hops_share_one_table() {
        use gmf_net::{LinkProfile, Route, SwitchConfig};
        let mut t = Topology::new();
        let a = t.add_end_host("a");
        let s = t.add_switch(SwitchConfig::paper(), "s");
        let b = t.add_end_host("b");
        t.add_duplex_link(a, s, LinkProfile::ethernet_100m())
            .unwrap();
        t.add_duplex_link(s, b, LinkProfile::ethernet_100m())
            .unwrap();
        let mut fs = FlowSet::new();
        let voice = cbr_flow(
            "voice",
            160,
            Time::from_millis(20.0),
            Time::from_millis(20.0),
            Time::ZERO,
        );
        fs.add(voice, Route::new(&t, vec![a, s, b]).unwrap(), Priority(7));
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        let (tables, _, _) = ctx.kernel_stats();
        assert_eq!(tables, 1);
        assert!(std::ptr::eq(
            ctx.demand(FlowId(0), a, s),
            ctx.demand(FlowId(0), s, b)
        ));
    }

    #[test]
    #[should_panic(expected = "no cached demand")]
    fn demand_for_untraversed_link_panics() {
        let (t, fs, n) = setup();
        let ctx = AnalysisContext::new(&t, &fs).unwrap();
        // The video flow never transmits on the reverse access link.
        let _ = ctx.demand(FlowId(0), n[2], n[0]);
    }
}
