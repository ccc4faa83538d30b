//! The **partition layer** of the admission plane: the jitter-dependency
//! graph's weakly-connected components as first-class *shards*.
//!
//! The holistic fixed point couples the jitters of two flows only through
//! shared resources: every dependency edge `(B, r) → (A, r')` built by the
//! engine requires `B` and `A` to share `r`'s underlying directed link (or
//! `B = A`; see `fixed_point::dependency_edges`).  Consequently the weak
//! components of the per-resource dependency graph, projected onto flows,
//! are exactly the connected components of the *"flows share a directed
//! link"* graph — a flow-level union-find over the
//! [`gmf_net::FlowSet::link_index`] suffices, with no per-resource nodes
//! at all.  That is what [`gmf_net::FlowComponents`] maintains and what
//! this module names:
//!
//! * a **shard** is one weak component, identified by its smallest member
//!   flow id ([`ShardId`]) — stable across arrivals and departures that
//!   do not remove that member;
//! * a candidate whose route touches links used by several shards
//!   **merges** them on acceptance (merge-on-bridge); a rejected candidate
//!   leaves the partition untouched;
//! * a departure rebuilds only the departed flow's shard, splitting it if
//!   the flow was the bridge.
//!
//! The payoff is scoping: the fixed point of a shard's flows is
//! independent of every other shard, so an admission trial needs to
//! re-analyze only the candidate's shard, and trials on disjoint shards
//! can run concurrently with bit-identical results (the
//! `AdmissionController::request_batch` path).

use crate::context::ResourceId;
use gmf_model::FlowId;
use gmf_net::{FlowBinding, FlowComponents, FlowSet, Route};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The stable name of a shard: the smallest [`FlowId`] among its members.
///
/// A shard keeps its id as long as its smallest member stays admitted;
/// merging shards adopts the smallest of the merged ids.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ShardId(pub FlowId);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard({})", self.0 .0)
    }
}

/// The flow-level view of the jitter-dependency graph: which flows are
/// coupled (transitively, through shared directed links) and therefore
/// must be analyzed together.
///
/// Maintained incrementally by the admission controller; also buildable
/// from any [`FlowSet`] for offline inspection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyGraph {
    components: FlowComponents,
}

impl DependencyGraph {
    /// Build the partition of `flows` from scratch.
    pub fn new(flows: &FlowSet) -> Self {
        DependencyGraph {
            components: FlowComponents::build(flows),
        }
    }

    /// Number of flows in the partition.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` if the partition contains no flows.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.components.n_components()
    }

    /// All shard ids, in ascending order.
    pub fn shards(&self) -> Vec<ShardId> {
        self.components
            .components()
            .into_iter()
            .map(|(smallest, _)| ShardId(smallest))
            .collect()
    }

    /// The shard containing `flow`, or `None` if the flow is unknown.
    pub fn shard_of(&self, flow: FlowId) -> Option<ShardId> {
        self.components.component_of(flow).map(ShardId)
    }

    /// The sorted member flows of `shard`, or `None` if no such shard
    /// exists.
    pub fn shard_flows(&self, shard: ShardId) -> Option<&[FlowId]> {
        self.components.members_of(shard.0)
    }

    /// Every member flow of `shards`, shard by shard.
    ///
    /// # Panics
    ///
    /// Panics if a shard id does not name a shard of this partition.
    pub(crate) fn members_of<'a>(
        &'a self,
        shards: &'a [ShardId],
    ) -> impl Iterator<Item = FlowId> + 'a {
        shards.iter().flat_map(move |&shard| {
            self.shard_flows(shard)
                // tidy-allow: unwrap invariant: callers pass shard ids this partition returned
                .expect("shard id comes from this partition")
                .iter()
                .copied()
        })
    }

    /// The shards a candidate taking `route` would merge: every shard
    /// with a flow on one of the route's directed links (ascending,
    /// deduplicated).  Empty means the candidate opens a new shard.
    pub fn shards_touching_route(&self, route: &Route) -> Vec<ShardId> {
        self.components
            .components_touching_route(route)
            .into_iter()
            .map(ShardId)
            .collect()
    }

    /// Record an admitted flow, merging every shard its route touches
    /// (merge-on-bridge).
    pub fn insert(&mut self, binding: &FlowBinding) {
        self.components.insert(binding);
    }

    /// Record a departure, rebuilding (and possibly splitting) the
    /// departed flow's shard.  `remaining` is the flow set *after* the
    /// removal.
    pub fn remove(&mut self, binding: &FlowBinding, remaining: &FlowSet) {
        self.components.remove(binding, remaining);
    }

    /// Record several departures at once, rebuilding each touched shard
    /// once.  `remaining` is the flow set *after* every removal.
    pub fn remove_batch(&mut self, departed: &[FlowBinding], remaining: &FlowSet) {
        self.components.remove_batch(departed, remaining);
    }
}

/// The flows whose bounds can change when `seed` joins or leaves `flows` —
/// the re-verification scope of one incremental admission decision (the
/// closure of `seed`'s resources under the jitter-dependency edges,
/// projected onto flows).
///
/// Always a subset of `seed`'s shard; usually a *strict* subset, because
/// dependency edges are directed while shards are weak components.
/// Returns `None` when a route is structurally broken (callers fall back
/// to re-verifying everything).
pub fn affected_flows(flows: &FlowSet, seed: FlowId) -> Option<BTreeSet<FlowId>> {
    crate::fixed_point::affected_flows(flows, &[seed])
}

/// A node of the jitter-dependency graph, re-exported for documentation
/// and diagnostics: one flow's jitter at one resource of its route.
pub type DependencyNode = (FlowId, ResourceId);

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{cbr_flow, Time};
    use gmf_net::{shortest_path, star, LinkProfile, Priority, SwitchConfig};

    fn probe_flow(name: &str) -> gmf_model::GmfFlow {
        cbr_flow(
            name,
            200,
            Time::from_millis(10.0),
            Time::from_millis(10.0),
            Time::ZERO,
        )
    }

    #[test]
    fn shards_track_merge_and_split() {
        let (t, _, hosts) = star(6, LinkProfile::ethernet_100m(), SwitchConfig::paper());
        let mut fs = FlowSet::new();
        let r01 = shortest_path(&t, hosts[0], hosts[1]).unwrap();
        let r23 = shortest_path(&t, hosts[2], hosts[3]).unwrap();
        let a = fs.add(probe_flow("a"), r01, Priority(3));
        let b = fs.add(probe_flow("b"), r23, Priority(3));

        let mut g = DependencyGraph::new(&fs);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.n_shards(), 2);
        assert_eq!(g.shards(), vec![ShardId(a), ShardId(b)]);
        assert_eq!(g.shard_of(a), Some(ShardId(a)));
        assert_eq!(g.shard_flows(ShardId(b)).unwrap(), &[b]);
        assert_eq!(g.shard_of(FlowId(99)), None);

        // A 0 → 3 candidate bridges both shards.
        let bridge_route = shortest_path(&t, hosts[0], hosts[3]).unwrap();
        assert_eq!(
            g.shards_touching_route(&bridge_route),
            vec![ShardId(a), ShardId(b)]
        );
        let c = fs.add(probe_flow("c"), bridge_route, Priority(3));
        g.insert(fs.get(c).unwrap());
        assert_eq!(g.n_shards(), 1);
        assert_eq!(g.shard_flows(ShardId(a)).unwrap(), &[a, b, c]);

        // Departure of the bridge splits the shard again.
        let binding = fs.remove(c).unwrap();
        g.remove(&binding, &fs);
        assert_eq!(g.shards(), vec![ShardId(a), ShardId(b)]);
        assert_eq!(g, DependencyGraph::new(&fs));
    }

    #[test]
    fn shard_id_display_and_affected_flows_stay_in_shard() {
        assert_eq!(ShardId(FlowId(7)).to_string(), "shard(7)");

        let (t, _, hosts) = star(4, LinkProfile::ethernet_100m(), SwitchConfig::paper());
        let mut fs = FlowSet::new();
        let a = fs.add(
            probe_flow("a"),
            shortest_path(&t, hosts[0], hosts[1]).unwrap(),
            Priority(3),
        );
        let b = fs.add(
            probe_flow("b"),
            shortest_path(&t, hosts[0], hosts[2]).unwrap(),
            Priority(3),
        );
        let c = fs.add(
            probe_flow("c"),
            shortest_path(&t, hosts[2], hosts[3]).unwrap(),
            Priority(3),
        );
        let g = DependencyGraph::new(&fs);
        // a and b share (h0, sw); c is coupled to b only via b's *shard*
        // membership, not via any shared link — they are disjoint.
        assert_eq!(g.shard_of(a), g.shard_of(b));
        assert_ne!(g.shard_of(a), g.shard_of(c));
        let affected = affected_flows(&fs, a).unwrap();
        let shard: BTreeSet<FlowId> = g
            .shard_flows(g.shard_of(a).unwrap())
            .unwrap()
            .iter()
            .copied()
            .collect();
        assert!(affected.is_subset(&shard));
        assert!(affected.contains(&a));
    }
}
