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

    /// Parse from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
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

    #[test]
    fn malformed_json_is_rejected() {
        assert!(ScenarioFile::from_json("{not json").is_err());
        assert!(ScenarioFile::load("/nonexistent/path/scenario.json").is_err());
    }
}
