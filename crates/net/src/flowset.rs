//! Flow bindings and flow sets.
//!
//! A *flow binding* attaches a GMF flow to the network: its route, its
//! IEEE 802.1p priority (used by every prioritized output queue along the
//! route) and its packetization configuration.  A *flow set* is the
//! collection of all bindings the operator has admitted (or is being asked
//! to admit); it provides the set-valued helpers of the paper's analysis:
//!
//! * `flows(N1, N2)` — every flow whose route transmits on the directed
//!   link `N1 → N2` ([`FlowSet::flows_on_link`]);
//! * `hep(τ_i, N1, N2)` (eq. 2) — the flows other than `τ_i` on that link
//!   with priority higher than or equal to `τ_i` ([`FlowSet::hep`]);
//! * `lp(τ_i, N1, N2)` (eq. 3) — the remaining (strictly lower priority)
//!   flows on the link ([`FlowSet::lp`]).
//!
//! Priorities can be assigned explicitly or derived with the classic
//! deadline-monotonic / rate-monotonic policies quantized onto the 2–8
//! priority levels that commercial 802.1p switches support.

use crate::error::NetError;
use crate::node::NodeId;
use crate::route::Route;
use crate::topology::Topology;
use gmf_model::{EncapsulationConfig, FlowId, GmfFlow, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An IEEE 802.1p-style priority: larger values are served first.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Priority(pub u8);

impl Priority {
    /// The highest 802.1p priority (7).
    pub const HIGHEST: Priority = Priority(7);
    /// The lowest 802.1p priority (0), i.e. best effort.
    pub const LOWEST: Priority = Priority(0);
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// How to assign priorities to the flows of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PriorityPolicy {
    /// Keep the explicitly configured priorities.
    Explicit,
    /// Deadline-monotonic: flows with shorter minimum relative deadline get
    /// higher priority, quantized onto `levels` priority classes
    /// (2 ≤ levels ≤ 8 on commercial switches).
    DeadlineMonotonic {
        /// Number of distinct priority classes available on the switches.
        levels: u8,
    },
    /// Rate-monotonic: flows with shorter minimum inter-arrival time get
    /// higher priority, quantized onto `levels` priority classes.
    RateMonotonic {
        /// Number of distinct priority classes available on the switches.
        levels: u8,
    },
}

/// One flow attached to the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowBinding {
    /// The flow's identifier within its [`FlowSet`].
    pub id: FlowId,
    /// The traffic specification.
    pub flow: GmfFlow,
    /// The pre-specified route from source to destination.
    pub route: Route,
    /// The 802.1p priority used by every output queue along the route.
    pub priority: Priority,
    /// Packetization configuration (UDP vs RTP/UDP, minimum-frame padding).
    pub encapsulation: EncapsulationConfig,
}

impl FlowBinding {
    /// The source node of the flow.
    pub fn source(&self) -> NodeId {
        self.route.source()
    }

    /// The destination node of the flow.
    pub fn destination(&self) -> NodeId {
        self.route.destination()
    }
}

/// The set of flows offered to (or admitted into) the network.
///
/// Flow identifiers are *stable across removals*: [`FlowSet::add`] hands out
/// ids from a monotone counter, so [`FlowSet::remove`] never causes an id to
/// be reused and a `FlowId` held by an admission controller (or a cached
/// analysis artefact) keeps naming the same flow for the lifetime of the
/// set.  Bindings are kept sorted by id (insertion order), so lookups are a
/// binary search and iteration order is deterministic.
///
/// The serialized form carries the bindings only (scenario files written
/// before removals existed stay loadable); deserialization re-derives the
/// id counter as `max(id) + 1`, and rejects duplicated ids and priorities
/// above [`Priority::HIGHEST`].  Consequently id stability holds within
/// one in-memory set — analysis artefacts keyed by `FlowId` must not be
/// carried across a save/load of a set whose highest-id flow departed.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
#[serde(into = "FlowSetSerde")]
pub struct FlowSet {
    bindings: Vec<FlowBinding>,
    /// The id the next [`FlowSet::add`] will hand out.  Invariant: strictly
    /// greater than every id in `bindings`.
    next_id: usize,
}

/// The wire form of a [`FlowSet`]: the bindings alone.  The id counter is
/// re-derived on load, so files from before the counter existed parse.
#[derive(Serialize, Deserialize)]
struct FlowSetSerde {
    bindings: Vec<FlowBinding>,
}

impl From<FlowSet> for FlowSetSerde {
    fn from(set: FlowSet) -> FlowSetSerde {
        FlowSetSerde {
            bindings: set.bindings,
        }
    }
}

impl<'de> serde::de::Deserialize<'de> for FlowSet {
    fn deserialize<D: serde::de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = FlowSetSerde::deserialize(deserializer)?;
        let mut bindings = wire.bindings;
        bindings.sort_by_key(|b| b.id);
        // A duplicated id would make the binary-search accessors resolve
        // to an arbitrary copy and removal leave a shadowing twin behind;
        // reject the file loudly instead.
        if let Some(window) = bindings.windows(2).find(|w| w[0].id == w[1].id) {
            return Err(<D::Error as serde::de::Error>::custom(format!(
                "duplicate flow id {} in FlowSet",
                window[0].id
            )));
        }
        // The analysis compares raw priorities while the simulator's switch
        // has eight queues, so a priority above 7 would mean different
        // things to the two; reject it.
        if let Some(b) = bindings.iter().find(|b| b.priority > Priority::HIGHEST) {
            return Err(<D::Error as serde::de::Error>::custom(
                NetError::PriorityOutOfRange {
                    flow: b.id.0,
                    priority: b.priority.0,
                },
            ));
        }
        let next_id = bindings.last().map(|b| b.id.0 + 1).unwrap_or(0);
        Ok(FlowSet { bindings, next_id })
    }
}

impl FlowSet {
    /// Create an empty flow set.
    pub fn new() -> Self {
        FlowSet::default()
    }

    /// Add a flow with the default (plain UDP) packetization.
    pub fn add(&mut self, flow: GmfFlow, route: Route, priority: Priority) -> FlowId {
        self.add_with_encapsulation(flow, route, priority, EncapsulationConfig::paper())
    }

    /// Add a flow with an explicit packetization configuration.
    pub fn add_with_encapsulation(
        &mut self,
        flow: GmfFlow,
        route: Route,
        priority: Priority,
        encapsulation: EncapsulationConfig,
    ) -> FlowId {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.bindings.push(FlowBinding {
            id,
            flow,
            route,
            priority,
            encapsulation,
        });
        id
    }

    /// Remove a flow (a departure, in admission-control terms), returning
    /// its binding.  The ids of the remaining flows are unchanged and the
    /// removed id is never reused by a later [`FlowSet::add`].
    pub fn remove(&mut self, id: FlowId) -> Result<FlowBinding, NetError> {
        match self.bindings.binary_search_by_key(&id, |b| b.id) {
            Ok(index) => Ok(self.bindings.remove(index)),
            Err(_) => Err(NetError::UnknownFlow(id.0)),
        }
    }

    /// Insert a pre-built binding with its id intact (the admission
    /// plane's shard-merge path: a trial set's accepted binding is folded
    /// back into the global set without re-numbering).  Fails on a
    /// duplicate id; the id counter advances past the inserted id so the
    /// next [`FlowSet::add`] never collides.
    pub fn insert(&mut self, binding: FlowBinding) -> Result<FlowId, NetError> {
        match self.bindings.binary_search_by_key(&binding.id, |b| b.id) {
            Ok(_) => Err(NetError::DuplicateFlow(binding.id.0)),
            Err(index) => {
                let id = binding.id;
                self.bindings.insert(index, binding);
                self.next_id = self.next_id.max(id.0 + 1);
                Ok(id)
            }
        }
    }

    /// Reserve `n` consecutive flow ids, returning the first.  The ids are
    /// not bound to any flow yet; [`FlowSet::insert`] materialises them.
    /// A batched admission request reserves its ids up front so every
    /// candidate's id is known before any trial runs — accepted or
    /// rejected, each request consumes exactly one id.
    pub fn reserve_ids(&mut self, n: usize) -> FlowId {
        let base = FlowId(self.next_id);
        self.next_id += n;
        base
    }

    /// A new flow set holding clones of the member bindings of `ids`
    /// (ids absent from the set are skipped).  The subset inherits the
    /// parent's id counter, so ids stay aligned between the two — this is
    /// how a shard-scoped admission trial is carved out of the accepted
    /// set.
    pub fn subset<I: IntoIterator<Item = FlowId>>(&self, ids: I) -> FlowSet {
        let mut bindings: Vec<FlowBinding> = ids
            .into_iter()
            .filter_map(|id| self.get(id).ok().cloned())
            .collect();
        bindings.sort_by_key(|b| b.id);
        bindings.dedup_by_key(|b| b.id);
        FlowSet {
            bindings,
            next_id: self.next_id,
        }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// `true` if the set contains no flows.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// All bindings, in id order.
    pub fn bindings(&self) -> &[FlowBinding] {
        &self.bindings
    }

    /// Iterate over all flow ids.
    pub fn ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.bindings.iter().map(|b| b.id)
    }

    /// Look up a binding.
    pub fn get(&self, id: FlowId) -> Result<&FlowBinding, NetError> {
        self.bindings
            .binary_search_by_key(&id, |b| b.id)
            .ok()
            .map(|index| &self.bindings[index])
            .ok_or(NetError::UnknownFlow(id.0))
    }

    /// `true` if the set contains a flow with the given id.
    pub fn contains(&self, id: FlowId) -> bool {
        self.bindings.binary_search_by_key(&id, |b| b.id).is_ok()
    }

    /// Check that every route of the set is valid in `topology`.
    pub fn validate_against(&self, topology: &Topology) -> Result<(), NetError> {
        for binding in &self.bindings {
            Route::new(topology, binding.route.nodes().to_vec())?;
        }
        Ok(())
    }

    /// `flows(N1, N2)`: ids of all flows transmitting on the directed link
    /// `from → to`, in id order.
    pub fn flows_on_link(&self, from: NodeId, to: NodeId) -> Vec<FlowId> {
        self.bindings
            .iter()
            .filter(|b| b.route.uses_link(from, to))
            .map(|b| b.id)
            .collect()
    }

    /// Ids of all flows that traverse (are forwarded by) the switch `node`,
    /// i.e. enter and leave it.
    pub fn flows_through_node(&self, node: NodeId) -> Vec<FlowId> {
        self.bindings
            .iter()
            .filter(|b| b.route.switches().contains(&node))
            .map(|b| b.id)
            .collect()
    }

    /// `hep(τ_i, N1, N2)` (eq. 2): flows other than `i` on the link
    /// `from → to` whose priority is higher than or equal to `i`'s.
    pub fn hep(&self, i: FlowId, from: NodeId, to: NodeId) -> Result<Vec<FlowId>, NetError> {
        let me = self.get(i)?;
        Ok(self
            .bindings
            .iter()
            .filter(|b| b.id != i && b.route.uses_link(from, to) && b.priority >= me.priority)
            .map(|b| b.id)
            .collect())
    }

    /// `lp(τ_i, N1, N2)` (eq. 3): flows other than `i` on the link
    /// `from → to` whose priority is strictly lower than `i`'s.
    pub fn lp(&self, i: FlowId, from: NodeId, to: NodeId) -> Result<Vec<FlowId>, NetError> {
        let me = self.get(i)?;
        Ok(self
            .bindings
            .iter()
            .filter(|b| b.id != i && b.route.uses_link(from, to) && b.priority < me.priority)
            .map(|b| b.id)
            .collect())
    }

    /// Re-assign priorities according to `policy`.
    ///
    /// For the monotone policies the flows are ranked by the policy's key
    /// (ties broken by flow id for determinism) and the ranks are quantized
    /// onto the available priority levels: the most urgent ⌈n/levels⌉ flows
    /// share the highest level, and so on.
    pub fn assign_priorities(&mut self, policy: PriorityPolicy) {
        match policy {
            PriorityPolicy::Explicit => {}
            PriorityPolicy::DeadlineMonotonic { levels } => {
                self.assign_by_key(levels, |flow| flow.min_deadline());
            }
            PriorityPolicy::RateMonotonic { levels } => {
                self.assign_by_key(levels, |flow| flow.min_interarrival());
            }
        }
    }

    fn assign_by_key(&mut self, levels: u8, key: impl Fn(&GmfFlow) -> Time) {
        let levels = levels.clamp(2, 8);
        let n = self.bindings.len();
        if n == 0 {
            return;
        }
        // Rank flows: smallest key = most urgent.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            key(&self.bindings[a].flow)
                .cmp(&key(&self.bindings[b].flow))
                .then_with(|| self.bindings[a].id.cmp(&self.bindings[b].id))
        });
        let per_level = n.div_ceil(levels as usize);
        for (rank, &idx) in order.iter().enumerate() {
            let level_index = rank / per_level; // 0 = most urgent group
            let priority = (levels - 1).saturating_sub(level_index as u8);
            self.bindings[idx].priority = Priority(priority);
        }
    }

    /// The set of distinct directed links used by at least one flow.
    pub fn used_links(&self) -> Vec<(NodeId, NodeId)> {
        let mut links: Vec<(NodeId, NodeId)> = self
            .bindings
            .iter()
            .flat_map(|b| b.route.hops().map(|h| (h.from, h.to)))
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;
    use crate::node::SwitchConfig;
    use gmf_model::{cbr_flow, voip_flow, VoiceCodec};

    /// h0 and h1 both send to h3 through s2; cross flow from h1 to h0.
    fn setup() -> (Topology, FlowSet, Vec<NodeId>) {
        let mut t = Topology::new();
        let h0 = t.add_end_host("h0");
        let h1 = t.add_end_host("h1");
        let s2 = t.add_switch(SwitchConfig::paper(), "s2");
        let h3 = t.add_end_host("h3");
        t.add_duplex_link(h0, s2, LinkProfile::ethernet_100m())
            .unwrap();
        t.add_duplex_link(h1, s2, LinkProfile::ethernet_100m())
            .unwrap();
        t.add_duplex_link(s2, h3, LinkProfile::ethernet_100m())
            .unwrap();

        let mut fs = FlowSet::new();
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(10.0),
            Time::ZERO,
        );
        let video = cbr_flow(
            "video",
            30_000,
            Time::from_millis(40.0),
            Time::from_millis(40.0),
            Time::ZERO,
        );
        let bulk = cbr_flow(
            "bulk",
            60_000,
            Time::from_millis(100.0),
            Time::from_millis(500.0),
            Time::ZERO,
        );
        fs.add(
            voice,
            Route::new(&t, vec![h0, s2, h3]).unwrap(),
            Priority(7),
        );
        fs.add(
            video,
            Route::new(&t, vec![h1, s2, h3]).unwrap(),
            Priority(5),
        );
        fs.add(bulk, Route::new(&t, vec![h1, s2, h3]).unwrap(), Priority(5));
        (t, fs, vec![h0, h1, s2, h3])
    }

    #[test]
    fn basic_accessors() {
        let (t, fs, n) = setup();
        assert_eq!(fs.len(), 3);
        assert!(!fs.is_empty());
        assert_eq!(fs.bindings().len(), 3);
        assert_eq!(fs.ids().count(), 3);
        assert!(fs.get(FlowId(0)).is_ok());
        assert!(matches!(fs.get(FlowId(9)), Err(NetError::UnknownFlow(9))));
        assert_eq!(fs.get(FlowId(0)).unwrap().source(), n[0]);
        assert_eq!(fs.get(FlowId(0)).unwrap().destination(), n[3]);
        fs.validate_against(&t).unwrap();
        assert_eq!(fs.flows_through_node(n[2]).len(), 3);
        assert!(fs.flows_through_node(n[0]).is_empty());
    }

    #[test]
    fn flows_on_link_and_used_links() {
        let (_, fs, n) = setup();
        // All three flows share the s2 -> h3 link.
        assert_eq!(fs.flows_on_link(n[2], n[3]).len(), 3);
        // Only the voice flow uses h0 -> s2.
        assert_eq!(fs.flows_on_link(n[0], n[2]), vec![FlowId(0)]);
        // Nothing flows back towards h0.
        assert!(fs.flows_on_link(n[2], n[0]).is_empty());
        let used = fs.used_links();
        assert!(used.contains(&(n[0], n[2])));
        assert!(used.contains(&(n[1], n[2])));
        assert!(used.contains(&(n[2], n[3])));
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn hep_and_lp_sets() {
        let (_, fs, n) = setup();
        // From the voice flow's (priority 7) point of view on the shared
        // link, nothing has higher-or-equal priority.
        assert!(fs.hep(FlowId(0), n[2], n[3]).unwrap().is_empty());
        assert_eq!(fs.lp(FlowId(0), n[2], n[3]).unwrap().len(), 2);
        // The two priority-5 flows see each other as equal priority and the
        // voice flow as higher.
        let hep1 = fs.hep(FlowId(1), n[2], n[3]).unwrap();
        assert!(hep1.contains(&FlowId(0)));
        assert!(hep1.contains(&FlowId(2)));
        assert!(!hep1.contains(&FlowId(1)));
        assert!(fs.lp(FlowId(1), n[2], n[3]).unwrap().is_empty());
        // On a link the flow does not use, the sets are empty.
        assert!(fs.hep(FlowId(0), n[1], n[2]).unwrap().is_empty());
        assert!(fs.hep(FlowId(9), n[2], n[3]).is_err());
    }

    #[test]
    fn deadline_monotonic_assignment() {
        let (_, mut fs, _) = setup();
        fs.assign_priorities(PriorityPolicy::DeadlineMonotonic { levels: 8 });
        let p: Vec<u8> = fs.bindings().iter().map(|b| b.priority.0).collect();
        // voice (10 ms) > video (40 ms) > bulk (500 ms).
        assert!(p[0] > p[1]);
        assert!(p[1] > p[2]);
    }

    #[test]
    fn rate_monotonic_assignment_with_few_levels() {
        let (_, mut fs, _) = setup();
        fs.assign_priorities(PriorityPolicy::RateMonotonic { levels: 2 });
        let p: Vec<u8> = fs.bindings().iter().map(|b| b.priority.0).collect();
        // voice has the shortest period (20 ms) so it is in the top class;
        // with 3 flows and 2 levels the first two ranks share the top class.
        assert_eq!(p[0], 1);
        assert!(p.iter().all(|&x| x <= 1));
        // Explicit policy leaves priorities untouched.
        let before = p.clone();
        fs.assign_priorities(PriorityPolicy::Explicit);
        let after: Vec<u8> = fs.bindings().iter().map(|b| b.priority.0).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn priority_ordering_and_display() {
        assert!(Priority::HIGHEST > Priority::LOWEST);
        assert!(Priority(3) > Priority(1));
        assert_eq!(Priority(3).to_string(), "prio3");
    }

    #[test]
    fn remove_keeps_ids_stable_and_never_reuses_them() {
        let (t, mut fs, n) = setup();
        assert_eq!(fs.len(), 3);
        assert!(fs.contains(FlowId(1)));

        // Remove the middle flow: the neighbours keep their ids.
        let removed = fs.remove(FlowId(1)).unwrap();
        assert_eq!(removed.id, FlowId(1));
        assert_eq!(removed.flow.name(), "video");
        assert_eq!(fs.len(), 2);
        assert!(!fs.contains(FlowId(1)));
        assert!(fs.get(FlowId(1)).is_err());
        assert_eq!(fs.get(FlowId(0)).unwrap().flow.name(), "voice");
        assert_eq!(fs.get(FlowId(2)).unwrap().flow.name(), "bulk");

        // The freed id is not reused: the next add gets a brand-new id.
        let voice2 = voip_flow(
            "voice2",
            VoiceCodec::G711,
            Time::from_millis(10.0),
            Time::ZERO,
        );
        let route = Route::new(&t, vec![n[0], n[2], n[3]]).unwrap();
        let id = fs.add(voice2, route, Priority(6));
        assert_eq!(id, FlowId(3));
        assert_eq!(fs.get(FlowId(3)).unwrap().flow.name(), "voice2");

        // Set-valued helpers keep working on the sparse id space.
        assert_eq!(fs.flows_on_link(n[2], n[3]).len(), 3);
        assert!(fs.hep(FlowId(2), n[2], n[3]).unwrap().contains(&FlowId(0)));
        assert!(matches!(
            fs.remove(FlowId(1)),
            Err(NetError::UnknownFlow(1))
        ));

        // Removing everything leaves a usable empty set.
        for id in fs.ids().collect::<Vec<_>>() {
            fs.remove(id).unwrap();
        }
        assert!(fs.is_empty());
    }

    #[test]
    fn removal_survives_a_serde_roundtrip() {
        let (_, mut fs, _) = setup();
        fs.remove(FlowId(0)).unwrap();
        let json = serde_json::to_string(&fs).unwrap();
        // The wire form is the bindings alone — files written before the
        // id counter existed parse identically.
        assert!(!json.contains("next_id"));
        let back: FlowSet = serde_json::from_str(&json).unwrap();
        assert_eq!(fs, back);
        // A file carrying the same id twice is rejected, not silently
        // adopted into a set whose binary-search accessors would misfire.
        let twin = {
            let mut fs = fs.clone();
            let duplicate = fs.get(FlowId(2)).unwrap().clone();
            fs.bindings.push(duplicate);
            serde_json::to_string(&fs).unwrap()
        };
        let err = serde_json::from_str::<FlowSet>(&twin).unwrap_err();
        assert!(err.to_string().contains("duplicate flow id"), "{err}");
        // The monotone id counter round-trips too: the next id is fresh.
        let mut back = back;
        let bulk = cbr_flow(
            "later",
            1_000,
            Time::from_millis(50.0),
            Time::from_millis(200.0),
            Time::ZERO,
        );
        let route = back.get(FlowId(1)).unwrap().route.clone();
        assert_eq!(back.add(bulk, route, Priority(3)), FlowId(3));
    }

    #[test]
    fn deserialization_rejects_priorities_above_seven() {
        let (_, fs, _) = setup();
        let with_priority = |priority: u8| {
            let mut fs = fs.clone();
            fs.bindings[1].priority = Priority(priority);
            serde_json::from_str::<FlowSet>(&serde_json::to_string(&fs).unwrap())
        };
        assert!(with_priority(Priority::HIGHEST.0).is_ok());
        let err = with_priority(9).unwrap_err().to_string();
        assert!(err.contains("flow 1 has priority 9"), "{err}");
    }

    #[test]
    fn empty_set_priority_assignment_is_a_noop() {
        let mut fs = FlowSet::new();
        fs.assign_priorities(PriorityPolicy::DeadlineMonotonic { levels: 4 });
        assert!(fs.is_empty());
        assert!(fs.used_links().is_empty());
    }
}
