//! Scenario files: saving and loading a complete (topology + flows)
//! description as JSON.
//!
//! Operators (and the experiment binaries) can dump the exact scenario an
//! experiment ran on, re-load it, and re-run either the analysis or the
//! simulator on it — the file format is simply the serde representation of
//! the two substrate types plus a little metadata.

use gmf_net::{FlowSet, Topology};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// A self-contained scenario description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioFile {
    /// Free-form scenario name.
    pub name: String,
    /// Free-form description of where the scenario comes from.
    pub description: String,
    /// The network.
    pub topology: Topology,
    /// The offered flows.
    pub flows: FlowSet,
}

impl ScenarioFile {
    /// Bundle a topology and flow set into a scenario.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        topology: Topology,
        flows: FlowSet,
    ) -> Self {
        ScenarioFile {
            name: name.into(),
            description: description.into(),
            topology,
            flows,
        }
    }

    /// Serialise to pretty-printed JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parse from JSON.  Every route is checked against the file's own
    /// topology ([`ScenarioFile::validate`]): a file that names an invalid
    /// route fails to load with the route's [`gmf_net::NetError`] message.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        let file: ScenarioFile = serde_json::from_str(json)?;
        file.validate().map_err(serde::de::Error::custom)?;
        Ok(file)
    }

    /// Write the scenario to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = self
            .to_json()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        fs::write(path, json)
    }

    /// Load a scenario from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = fs::read_to_string(path)?;
        ScenarioFile::from_json(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Basic consistency check: every route of the flow set exists in the
    /// topology.
    pub fn validate(&self) -> Result<(), gmf_net::NetError> {
        self.flows.validate_against(&self.topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_scenario;
    use gmf_analysis::{AnalysisConfig, AnalysisError};

    #[test]
    fn json_roundtrip_preserves_structure() {
        let (s, _) = paper_scenario();
        let file = ScenarioFile::new("paper", "Figure 1-4 example", s.topology, s.flows);
        let json = file.to_json().unwrap();
        let back = ScenarioFile::from_json(&json).unwrap();
        assert_eq!(back.name, "paper");
        assert_eq!(back.flows.len(), file.flows.len());
        assert_eq!(back.topology.n_nodes(), file.topology.n_nodes());
        back.validate().unwrap();
        // The round-tripped scenario analyses identically.
        let a = gmf_analysis::analyze(
            &file.topology,
            &file.flows,
            &gmf_analysis::AnalysisConfig::paper(),
        )
        .unwrap();
        let b = gmf_analysis::analyze(
            &back.topology,
            &back.flows,
            &gmf_analysis::AnalysisConfig::paper(),
        )
        .unwrap();
        assert_eq!(a.schedulable, b.schedulable);
        assert_eq!(a.n_frame_bounds(), b.n_frame_bounds());
    }

    #[test]
    fn save_and_load_from_disk() {
        let (s, _) = paper_scenario();
        let file = ScenarioFile::new("paper", "example", s.topology, s.flows);
        let dir = std::env::temp_dir().join("gmfnet-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paper.json");
        file.save(&path).unwrap();
        let back = ScenarioFile::load(&path).unwrap();
        assert_eq!(back.flows.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_frame_in_a_scenario_file_is_rejected() {
        // Loading must run the flow validation: one frame of the paper
        // scenario with a −5 s jitter makes the whole file fail to parse.
        let (s, _) = paper_scenario();
        let json = ScenarioFile::new("paper", "example", s.topology, s.flows)
            .to_json()
            .unwrap();
        let key = "\"jitter\": ";
        let start = json.find(key).unwrap() + key.len();
        let end = start + json[start..].find([',', '\n']).unwrap();
        let bad = format!("{}-5.0{}", &json[..start], &json[end..]);
        assert!(ScenarioFile::from_json(&json).is_ok());
        assert!(ScenarioFile::from_json(&bad).is_err());
    }

    #[test]
    fn invalid_link_in_a_scenario_file_is_rejected() {
        // Loading must run the link validation: one link of the paper
        // scenario with a −1 s propagation delay makes the whole file fail
        // to parse instead of analysing to a negative "schedulable" bound.
        let (s, _) = paper_scenario();
        let json = ScenarioFile::new("paper", "example", s.topology, s.flows)
            .to_json()
            .unwrap();
        let key = "\"propagation\": ";
        let start = json.find(key).unwrap() + key.len();
        let end = start + json[start..].find([',', '\n']).unwrap();
        let bad = format!("{}-1.0{}", &json[..start], &json[end..]);
        assert!(ScenarioFile::from_json(&json).is_ok());
        let err = ScenarioFile::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("propagation"), "{err}");
    }

    /// The paper scenario's JSON with the value of the first `key` field
    /// replaced by `value`.
    fn paper_json_with(key: &str, value: &str) -> String {
        let (s, _) = paper_scenario();
        let json = ScenarioFile::new("paper", "example", s.topology, s.flows)
            .to_json()
            .unwrap();
        let key = format!("\"{key}\": ");
        let start = json.find(&key).unwrap() + key.len();
        let end = start + json[start..].find([',', '\n']).unwrap();
        format!("{}{value}{}", &json[..start], &json[end..])
    }

    #[test]
    fn invalid_switch_in_a_scenario_file_is_rejected() {
        // A switch without a processor, or with a negative per-frame cost,
        // must fail to load instead of panicking inside the analysis.
        assert!(ScenarioFile::from_json(&paper_json_with("processors", "1")).is_ok());
        let err = ScenarioFile::from_json(&paper_json_with("processors", "0")).unwrap_err();
        assert!(err.to_string().contains("processors"), "{err}");
        let err = ScenarioFile::from_json(&paper_json_with("croute", "-1.0")).unwrap_err();
        assert!(err.to_string().contains("croute"), "{err}");
        let err = ScenarioFile::from_json(&paper_json_with("csend", "-1.0")).unwrap_err();
        assert!(err.to_string().contains("csend"), "{err}");
    }

    #[test]
    fn priority_above_seven_in_a_scenario_file_is_rejected() {
        // The analysis and the simulator would read priority 9 differently.
        assert!(ScenarioFile::from_json(&paper_json_with("priority", "7")).is_ok());
        let err = ScenarioFile::from_json(&paper_json_with("priority", "9")).unwrap_err();
        assert!(err.to_string().contains("priority 9"), "{err}");
    }

    /// The paper scenario's JSON with the node list of the first route
    /// (the video flow's `[0, 4, 6, 3]`) replaced by `nodes`.
    fn paper_json_with_route(nodes: &str) -> String {
        let (s, _) = paper_scenario();
        let json = ScenarioFile::new("paper", "example", s.topology, s.flows)
            .to_json()
            .unwrap();
        let route = json.find("\"route\"").unwrap();
        let key = "\"nodes\": ";
        let start = route + json[route..].find(key).unwrap() + key.len();
        let end = start + json[start..].find(']').unwrap() + 1;
        format!("{}{nodes}{}", &json[..start], &json[end..])
    }

    /// A scenario file's fields without the load-time route check.
    #[derive(Deserialize)]
    struct Unchecked {
        #[allow(dead_code)]
        name: String,
        #[allow(dead_code)]
        description: String,
        topology: Topology,
        flows: FlowSet,
    }

    /// The topology and flow set of a scenario JSON, deserialized without
    /// [`ScenarioFile::from_json`]'s route check — the path a caller takes
    /// when it builds the two parts itself.
    fn parts_of(json: &str) -> (Topology, FlowSet) {
        let file: Unchecked = serde_json::from_str(json).unwrap();
        (file.topology, file.flows)
    }

    #[test]
    fn invalid_route_in_a_scenario_file_is_rejected() {
        assert!(ScenarioFile::from_json(&paper_json_with_route("[0, 4, 6, 3]")).is_ok());
        let err = ScenarioFile::from_json(&paper_json_with_route("[]")).unwrap_err();
        assert!(err.to_string().contains("at least two nodes"), "{err}");
        let err =
            ScenarioFile::from_json(&paper_json_with_route("[0, 4, 6, 4, 6, 3]")).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn analysis_rejects_an_empty_route() {
        // Used to panic with an index out of bounds building the context.
        let (topology, flows) = parts_of(&paper_json_with_route("[]"));
        let result = gmf_analysis::analyze(&topology, &flows, &AnalysisConfig::paper());
        assert!(
            matches!(
                result,
                Err(AnalysisError::Net(gmf_net::NetError::RouteTooShort))
            ),
            "{result:?}"
        );
    }

    #[test]
    fn analysis_rejects_a_looping_route() {
        // Used to report the scenario schedulable.
        let (topology, flows) = parts_of(&paper_json_with_route("[0, 4, 6, 4, 6, 3]"));
        let result = gmf_analysis::analyze(&topology, &flows, &AnalysisConfig::paper());
        assert!(
            matches!(
                result,
                Err(AnalysisError::Net(gmf_net::NetError::RouteRevisitsNode(
                    gmf_net::NodeId(4)
                )))
            ),
            "{result:?}"
        );
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(ScenarioFile::from_json("{not json").is_err());
        assert!(ScenarioFile::load("/nonexistent/path/scenario.json").is_err());
    }
}
