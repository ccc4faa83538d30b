//! Error types for the network-substrate crate.

use crate::node::NodeId;
use std::fmt;

/// Errors raised while building topologies, routes and flow sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A node id was used that does not exist in the topology.
    UnknownNode(NodeId),
    /// No link exists between the two given nodes.
    NoSuchLink(NodeId, NodeId),
    /// A link between the two nodes already exists.
    DuplicateLink(NodeId, NodeId),
    /// A link was declared with the same node at both ends.
    SelfLoop(NodeId),
    /// A link was declared with a speed that is not a positive finite bit
    /// rate, or a propagation delay that is negative or not finite.
    InvalidLinkParameters {
        /// Transmitting node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Which parameter is invalid, and its value.
        detail: String,
    },
    /// A route is shorter than two nodes.
    RouteTooShort,
    /// A route visits the same node twice.
    RouteRevisitsNode(NodeId),
    /// A route traverses a node that cannot forward traffic (an end host or
    /// IP router in the middle of the route).
    RouteThroughNonSwitch(NodeId),
    /// A route references a hop with no link in the topology.
    RouteMissingLink(NodeId, NodeId),
    /// The node is not on the given route.
    NodeNotOnRoute(NodeId),
    /// No route could be found between the two nodes.
    NoRoute(NodeId, NodeId),
    /// A link was marked failed although its cable is already failed.
    LinkAlreadyFailed(NodeId, NodeId),
    /// A switch operation (degrade) targeted a node that is not a switch.
    NotASwitch(NodeId),
    /// A flow id was used that does not exist in the flow set.
    UnknownFlow(usize),
    /// A flow id was inserted that already exists in the flow set.
    DuplicateFlow(usize),
    /// The underlying traffic model rejected a flow.
    Model(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::NoSuchLink(a, b) => write!(f, "no link from {a} to {b}"),
            NetError::DuplicateLink(a, b) => write!(f, "link from {a} to {b} already exists"),
            NetError::SelfLoop(n) => write!(f, "link endpoints must differ, got {n} twice"),
            NetError::InvalidLinkParameters { src, dst, detail } => {
                write!(
                    f,
                    "link from {src} to {dst} has invalid parameters: {detail}"
                )
            }
            NetError::RouteTooShort => write!(f, "a route must contain at least two nodes"),
            NetError::RouteRevisitsNode(n) => write!(f, "route visits node {n} more than once"),
            NetError::RouteThroughNonSwitch(n) => {
                write!(f, "route traverses {n}, which is not an Ethernet switch")
            }
            NetError::RouteMissingLink(a, b) => {
                write!(
                    f,
                    "route requires a link from {a} to {b}, which does not exist"
                )
            }
            NetError::NodeNotOnRoute(n) => write!(f, "node {n} is not on the route"),
            NetError::LinkAlreadyFailed(a, b) => {
                write!(f, "the cable between {a} and {b} is already failed")
            }
            NetError::NotASwitch(n) => write!(f, "{n} is not an Ethernet switch"),
            NetError::NoRoute(a, b) => write!(f, "no route exists from {a} to {b}"),
            NetError::UnknownFlow(i) => write!(f, "unknown flow id {i}"),
            NetError::DuplicateFlow(i) => write!(f, "flow id {i} already exists"),
            NetError::Model(msg) => write!(f, "traffic model error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<gmf_model::ModelError> for NetError {
    fn from(e: gmf_model::ModelError) -> Self {
        NetError::Model(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(NetError::UnknownNode(NodeId(3))
            .to_string()
            .contains("node3"));
        assert!(NetError::NoSuchLink(NodeId(0), NodeId(4))
            .to_string()
            .contains("node0"));
        assert!(NetError::RouteTooShort.to_string().contains("two nodes"));
        assert!(NetError::RouteThroughNonSwitch(NodeId(7))
            .to_string()
            .contains("switch"));
        assert!(NetError::NoRoute(NodeId(1), NodeId(2))
            .to_string()
            .contains("no route"));
        assert!(NetError::Model("bad".into()).to_string().contains("bad"));
        assert!(NetError::LinkAlreadyFailed(NodeId(1), NodeId(2))
            .to_string()
            .contains("already failed"));
        assert!(NetError::NotASwitch(NodeId(5))
            .to_string()
            .contains("not an Ethernet switch"));
        assert!(NetError::InvalidLinkParameters {
            src: NodeId(1),
            dst: NodeId(2),
            detail: "speed 0 bit/s".into(),
        }
        .to_string()
        .contains("invalid parameters: speed 0 bit/s"));
    }

    #[test]
    fn model_error_converts() {
        let e: NetError = gmf_model::ModelError::EmptyFlow.into();
        assert!(matches!(e, NetError::Model(_)));
    }
}
