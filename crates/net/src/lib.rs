//! # gmf-net
//!
//! The **multihop-network substrate** for the GMF schedulability analysis:
//! topologies of IP end hosts, software-implemented Ethernet switches and
//! IP routers; directed links with bit rates and propagation delays;
//! pre-specified routes; and flow sets with IEEE 802.1p priorities.
//!
//! The crate also provides the set-valued helpers the analysis needs —
//! `flows(N1,N2)`, `hep(τ_i, N1, N2)` and `lp(τ_i, N1, N2)` (paper
//! equations 2–3) — and reconstructions of the paper's example network
//! (Figure 1) plus synthetic topology generators for the experiments.
//!
//! ```
//! use gmf_net::prelude::*;
//! use gmf_model::prelude::*;
//!
//! // The paper's Figure 1 network and the Figure 2 route 0 -> 4 -> 6 -> 3.
//! let (topology, net) = paper_figure1();
//! let route = shortest_path(&topology, net.hosts[0], net.hosts[3]).unwrap();
//! assert_eq!(route.n_hops(), 3);
//!
//! // Bind the Figure 3 MPEG flow to that route at the highest priority.
//! let mut flows = FlowSet::new();
//! let video = paper_figure3_flow("video", Time::from_millis(100.0), Time::from_millis(1.0));
//! let id = flows.add(video, route, Priority::HIGHEST);
//! assert_eq!(flows.get(id).unwrap().source(), net.hosts[0]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod builders;
pub mod components;
pub mod error;
pub mod flowset;
pub mod link;
pub mod node;
pub mod route;
pub mod routing;
pub mod survivor;
pub mod topology;

pub use builders::{
    line, paper_figure1, paper_figure1_with, propagation_for_distance, random_tree, star,
    PaperNetwork, PaperNetworkConfig,
};
pub use components::FlowComponents;
pub use error::NetError;
pub use flowset::{FlowBinding, FlowSet, Priority, PriorityPolicy};
pub use link::{Link, LinkId, LinkProfile};
pub use node::{Node, NodeId, NodeKind, SwitchConfig};
pub use route::{Hop, Route};
pub use routing::{fastest_path, reroute_severed, shortest_path, RerouteOutcome};
pub use survivor::SurvivorView;
pub use topology::Topology;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::builders::{
        line, paper_figure1, paper_figure1_with, star, PaperNetwork, PaperNetworkConfig,
    };
    pub use crate::flowset::{FlowBinding, FlowSet, Priority, PriorityPolicy};
    pub use crate::link::{Link, LinkId, LinkProfile};
    pub use crate::node::{Node, NodeId, NodeKind, SwitchConfig};
    pub use crate::route::{Hop, Route};
    pub use crate::routing::{fastest_path, reroute_severed, shortest_path, RerouteOutcome};
    pub use crate::survivor::SurvivorView;
    pub use crate::topology::Topology;
}
