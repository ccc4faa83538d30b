//! The adversarial conformance harness (E13): analysis vs simulation as a
//! fuzzed, CI-enforced subsystem.
//!
//! For one scenario the harness
//!
//! 1. runs the analysis across its engine axis — worker threads 1/4 must
//!    be `assert_eq!`-identical;
//! 2. simulates the scenario under every configured [`AdversarialPolicy`]
//!    — legal arrival patterns engineered to push observed response times
//!    toward the analytical bound (critical-instant phasing, maximal
//!    release jitter, bursty back-to-back GOPs);
//! 3. asserts `observed ≤ bound` for every (policy, flow, frame) with at
//!    least one completed packet, records the per-frame *tightness ratio*
//!    `observed / bound`, and flags *vacuous* flows (zero completed
//!    packets under a policy — a coverage hole, not a pass).
//!
//! [`run_campaign`] drives hundreds of [`gmf_workloads::fuzz`] scenarios
//! through the check; [`minimize_violation`] greedily shrinks a violating
//! flow set to a minimal reproducer; [`TightnessReport`] is the
//! machine-readable artifact (`CONFORMANCE.json`) CI uploads next to
//! `BENCH.json` so bound slack can be watched over time.

use gmf_analysis::{analyze, AnalysisConfig, AnalysisReport};
use gmf_model::{FlowId, Time};
use gmf_net::{FlowSet, Topology};
use gmf_par::derive_seed;
use gmf_workloads::fuzz::{valid_scenario, FuzzConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use switch_sim::{ArrivalPolicy, JitterSpread, SimConfig, Simulator};

/// The simulation policies of the conformance harness: the dense control
/// plus the three adversarial patterns of `switch-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdversarialPolicy {
    /// Dense aligned arrivals with the default uniform jitter spread —
    /// the control every prior validation test used.
    Dense,
    /// Critical-instant phasing, with the `AtEnd` jitter spread (trailing
    /// fragments of each packet held to the end of the jitter window; the
    /// first fragment releases at the packet's arrival).
    CriticalInstant,
    /// First packet released as late as its jitter window allows, all
    /// later packets immediately (compressed inter-arrivals downstream).
    MaxReleaseJitter,
    /// Back-to-back GOPs separated by random re-phasing pauses.
    BurstyGops,
}

impl AdversarialPolicy {
    /// Every policy, in the order reports iterate them.
    pub const ALL: [AdversarialPolicy; 4] = [
        AdversarialPolicy::Dense,
        AdversarialPolicy::CriticalInstant,
        AdversarialPolicy::MaxReleaseJitter,
        AdversarialPolicy::BurstyGops,
    ];

    /// Stable label used in tables and report keys.
    pub fn label(&self) -> &'static str {
        match self {
            AdversarialPolicy::Dense => "dense",
            AdversarialPolicy::CriticalInstant => "critical-instant",
            AdversarialPolicy::MaxReleaseJitter => "max-release-jitter",
            AdversarialPolicy::BurstyGops => "bursty-gops",
        }
    }

    /// `true` for the policies that actively chase the bound (everything
    /// but the dense control).
    pub fn is_adversarial(&self) -> bool {
        !matches!(self, AdversarialPolicy::Dense)
    }

    /// The simulator configuration of this policy.
    pub fn sim_config(&self, horizon: Time, seed: u64) -> SimConfig {
        let base = SimConfig {
            horizon,
            seed,
            ..SimConfig::default()
        };
        match self {
            AdversarialPolicy::Dense => base,
            AdversarialPolicy::CriticalInstant => SimConfig {
                arrival: ArrivalPolicy::CriticalInstant,
                jitter_spread: JitterSpread::AtEnd,
                ..base
            },
            AdversarialPolicy::MaxReleaseJitter => SimConfig {
                arrival: ArrivalPolicy::MaxReleaseJitter,
                ..base
            },
            AdversarialPolicy::BurstyGops => SimConfig {
                arrival: ArrivalPolicy::BurstyGops { max_pause: 0.7 },
                ..base
            },
        }
    }
}

/// Configuration of one conformance check.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// The analysis the bounds come from (conservative by default — the
    /// configuration whose bounds must dominate the simulator).
    pub analysis: AnalysisConfig,
    /// The simulation policies to run.
    pub policies: Vec<AdversarialPolicy>,
    /// Simulated horizon; `None` derives one from the flow set
    /// ([`horizon_for`]).
    pub horizon: Option<Time>,
    /// Cross-check the analysis engine axis (threads 1/4) before using
    /// the bounds.  Costs an extra analysis per scenario; the fuzz test
    /// disables it on a fraction of cases to stay inside the CI budget.
    pub engine_axes: bool,
    /// Seed of every simulation run.
    pub sim_seed: u64,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            analysis: AnalysisConfig::conservative(),
            policies: AdversarialPolicy::ALL.to_vec(),
            horizon: None,
            engine_axes: true,
            sim_seed: 0x5EED,
        }
    }
}

/// Whether `label` names one of the bound-chasing policies.  Labels the
/// harness did not produce — e.g. `random-slack` reaching a report via
/// [`check_simulation`] — are not adversarial.
fn label_is_adversarial(label: &str) -> bool {
    AdversarialPolicy::ALL
        .iter()
        .any(|p| p.label() == label && p.is_adversarial())
}

/// A horizon covering three full GMF cycles of the slowest flow (clamped
/// to `[250 ms, 1 s]`): every frame index is observed at least twice and
/// the bursty policy still completes whole GOPs.
pub fn horizon_for(flows: &FlowSet) -> Time {
    let max_tsum = flows
        .bindings()
        .iter()
        .map(|b| b.flow.tsum())
        .fold(Time::ZERO, Time::max);
    (max_tsum * 3u64).clamp(Time::from_millis(250.0), Time::from_secs(1.0))
}

/// One (policy, flow, frame) observation: the worst simulated response
/// against the analytical bound.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameObservation {
    /// Label of the simulation policy.
    pub policy: &'static str,
    /// The flow.
    pub flow: FlowId,
    /// The flow's name.
    pub flow_name: String,
    /// GMF frame index.
    pub frame: usize,
    /// Worst observed response time.
    pub observed: Time,
    /// The analytical bound.
    pub bound: Time,
    /// Tightness `observed / bound` (`> 1` is a violation).
    pub ratio: f64,
}

/// The conformance result of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConformance {
    /// Scenario label.
    pub label: String,
    /// The worst end-to-end bound of the analysis.
    pub worst_bound: Option<Time>,
    /// Every (policy, flow, frame) with at least one completed packet.
    pub observations: Vec<FrameObservation>,
    /// The subset with `observed > bound` (must be empty).
    pub violations: Vec<FrameObservation>,
    /// Flows that completed *zero* packets under a policy
    /// (`(policy label, flow name)`) — silent coverage holes.  The check
    /// is per *flow*: with a caller-shortened horizon, later GMF frames
    /// of a covered flow may still go unobserved (they simply yield no
    /// observation); the default [`horizon_for`] spans three full cycles
    /// so every frame index is seen.
    pub vacuous: Vec<(&'static str, String)>,
}

impl ScenarioConformance {
    /// The observation with the largest tightness ratio, restricted to
    /// adversarial policies when `adversarial_only` is set.
    pub fn max_tightness(&self, adversarial_only: bool) -> Option<&FrameObservation> {
        self.observations
            .iter()
            .filter(|o| !adversarial_only || label_is_adversarial(o.policy))
            .max_by(|a, b| a.ratio.total_cmp(&b.ratio))
    }

    /// `true` when the scenario has neither violations nor vacuous flows.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.vacuous.is_empty()
    }
}

/// Run the analysis across its engine axes and return the base report:
/// threads {1, 4} must be byte-identical.
fn analyze_across_axes(
    topology: &Topology,
    flows: &FlowSet,
    config: &ConformanceConfig,
) -> Result<AnalysisReport, String> {
    let base = analyze(topology, flows, &config.analysis).map_err(|e| e.to_string())?;
    if !config.engine_axes {
        return Ok(base);
    }
    for threads in [1usize, 4] {
        let axis = config.analysis.with_threads(threads);
        if axis == config.analysis {
            continue; // the base itself — nothing new to compare
        }
        let report = analyze(topology, flows, &axis).map_err(|e| e.to_string())?;
        if report != base {
            return Err(format!(
                "engine-axes mismatch: threads={threads} differs from the base report"
            ));
        }
    }
    Ok(base)
}

/// Run the full conformance check on one scenario.
///
/// Returns `Err` when the scenario is unusable for conformance (analysis
/// error, not schedulable, engine-axes mismatch, simulation error) —
/// callers feed only schedulable scenarios, so an `Err` is itself a
/// finding.  Bound violations and vacuous flows are *not* errors; they
/// are reported in the result for the caller to fail on loudly.
pub fn check_scenario(
    label: &str,
    topology: &Topology,
    flows: &FlowSet,
    config: &ConformanceConfig,
) -> Result<ScenarioConformance, String> {
    let report = analyze_across_axes(topology, flows, config)?;
    if !report.schedulable {
        return Err(format!(
            "{label}: conformance needs a schedulable scenario ({})",
            report
                .failure
                .clone()
                .unwrap_or_else(|| "missed deadlines".into())
        ));
    }

    let horizon = config.horizon.unwrap_or_else(|| horizon_for(flows));
    let mut conformance = ScenarioConformance {
        label: label.to_string(),
        worst_bound: report.worst_bound(),
        observations: Vec::new(),
        violations: Vec::new(),
        vacuous: Vec::new(),
    };
    for policy in &config.policies {
        let sim_config = policy.sim_config(horizon, config.sim_seed);
        simulate_into(
            &mut conformance,
            &report,
            topology,
            flows,
            sim_config,
            policy.label(),
        )?;
    }
    Ok(conformance)
}

/// Check one *explicit* simulation configuration against the analysis —
/// the legacy `assert_bounds_dominate` path, now driver-backed: one
/// analysis (no engine-axes sweep), one simulation, the same
/// per-(flow, frame) domination, tightness and vacuous-coverage
/// accounting as [`check_scenario`].
pub fn check_simulation(
    label: &str,
    topology: &Topology,
    flows: &FlowSet,
    analysis: &AnalysisConfig,
    sim_config: SimConfig,
) -> Result<ScenarioConformance, String> {
    let report = analyze(topology, flows, analysis).map_err(|e| e.to_string())?;
    if !report.schedulable {
        return Err(format!(
            "{label}: conformance needs a schedulable scenario ({})",
            report
                .failure
                .clone()
                .unwrap_or_else(|| "missed deadlines".into())
        ));
    }
    let mut conformance = ScenarioConformance {
        label: label.to_string(),
        worst_bound: report.worst_bound(),
        observations: Vec::new(),
        violations: Vec::new(),
        vacuous: Vec::new(),
    };
    simulate_into(
        &mut conformance,
        &report,
        topology,
        flows,
        sim_config,
        sim_config.arrival.label(),
    )?;
    Ok(conformance)
}

/// Run one simulation and fold its observations, violations and vacuous
/// flows into `conformance`.
fn simulate_into(
    conformance: &mut ScenarioConformance,
    report: &AnalysisReport,
    topology: &Topology,
    flows: &FlowSet,
    sim_config: SimConfig,
    policy_label: &'static str,
) -> Result<(), String> {
    let label = &conformance.label;
    let result = Simulator::new(topology, flows, sim_config)
        .map_err(|e| format!("{label}/{policy_label}: {e}"))?
        .run()
        .map_err(|e| format!("{label}/{policy_label}: {e}"))?;
    for binding in flows.bindings() {
        if result.stats.completed_of_flow(binding.id) == 0 {
            conformance
                .vacuous
                .push((policy_label, binding.flow.name().to_string()));
            continue;
        }
        let flow_report = report
            .flow(binding.id)
            .ok_or_else(|| format!("{label}: no report for {}", binding.flow.name()))?;
        for (k, frame) in flow_report.frames.iter().enumerate() {
            let Some(observed) = result.stats.worst_frame_response(binding.id, k) else {
                continue;
            };
            let observation = FrameObservation {
                policy: policy_label,
                flow: binding.id,
                flow_name: binding.flow.name().to_string(),
                frame: k,
                observed,
                bound: frame.bound,
                ratio: frame.tightness(observed).unwrap_or(f64::INFINITY),
            };
            if !frame.dominates(observed) {
                conformance.violations.push(observation.clone());
            }
            conformance.observations.push(observation);
        }
    }
    Ok(())
}

/// Greedily shrink a violating flow set to a minimal reproducer: try
/// removing one flow at a time, keeping every removal that preserves at
/// least one bound violation.  Returns `None` when the input does not
/// violate in the first place.
pub fn minimize_violation(
    topology: &Topology,
    flows: &FlowSet,
    config: &ConformanceConfig,
) -> Option<FlowSet> {
    let violates = |set: &FlowSet| {
        check_scenario("minimize", topology, set, config)
            .map(|c| !c.violations.is_empty())
            .unwrap_or(false)
    };
    if !violates(flows) {
        return None;
    }
    let mut current = flows.clone();
    loop {
        let mut shrunk = false;
        for id in current.ids().collect::<Vec<_>>() {
            if current.len() <= 1 {
                break;
            }
            let mut candidate = current.clone();
            // tidy-allow: unwrap invariant: id comes from the set
            candidate.remove(id).expect("id comes from the set");
            if violates(&candidate) {
                current = candidate;
                shrunk = true;
            }
        }
        if !shrunk {
            return Some(current);
        }
    }
}

/// The outcome of one fuzz campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-scenario results, in seed order.
    pub scenarios: Vec<ScenarioConformance>,
    /// Total random draws made (accepted + rejected).
    pub draws: u64,
    /// Rejected draws, tallied by [`gmf_workloads::ScenarioRejection::kind`].
    pub rejections: BTreeMap<&'static str, u64>,
}

impl CampaignReport {
    /// Every violation across the campaign.
    pub fn violations(&self) -> impl Iterator<Item = (&str, &FrameObservation)> {
        self.scenarios
            .iter()
            .flat_map(|s| s.violations.iter().map(move |v| (s.label.as_str(), v)))
    }

    /// Every vacuous (policy, flow) pair across the campaign.
    pub fn vacuous(&self) -> impl Iterator<Item = (&str, &(&'static str, String))> {
        self.scenarios
            .iter()
            .flat_map(|s| s.vacuous.iter().map(move |v| (s.label.as_str(), v)))
    }
}

/// Run `n_scenarios` fuzz scenarios (drawn from `derive_seed(master_seed,
/// index)`) through the conformance check.  Deterministic in all inputs.
pub fn run_campaign(
    master_seed: u64,
    n_scenarios: usize,
    fuzz: &FuzzConfig,
    config: &ConformanceConfig,
) -> Result<CampaignReport, String> {
    let mut scenarios = Vec::with_capacity(n_scenarios);
    let mut draws = 0u64;
    let mut rejections: BTreeMap<&'static str, u64> = BTreeMap::new();
    for index in 0..n_scenarios as u64 {
        let (scenario, rejected) = valid_scenario(derive_seed(master_seed, index), fuzz);
        draws += 1 + rejected.len() as u64;
        for (_, reason) in &rejected {
            *rejections.entry(reason.kind()).or_insert(0) += 1;
        }
        scenarios.push(check_scenario(
            &scenario.label,
            &scenario.topology,
            &scenario.flows,
            config,
        )?);
    }
    Ok(CampaignReport {
        scenarios,
        draws,
        rejections,
    })
}

/// The machine-readable tightness artifact (`CONFORMANCE.json`).
///
/// Ratios are stored as integer thousandths (`⌊ratio × 1000⌉`) so the
/// file is byte-stable across platforms and trivially diffable; keys are
/// `<scenario>/<policy>/<flow>#<frame>`.
#[derive(Debug, Serialize, Deserialize)]
pub struct TightnessReport {
    /// Schema version of this file.
    pub schema: u32,
    /// Scenarios checked (probes + fuzz).
    pub scenarios: u64,
    /// Rejected fuzz draws by reason.
    pub rejected_draws: BTreeMap<String, u64>,
    /// Bound violations (must be 0).
    pub violations: u64,
    /// Vacuous (policy, flow) pairs (must be 0).
    pub vacuous: u64,
    /// Largest tightness over every observation, in thousandths.
    pub max_tightness_milli: u64,
    /// Largest tightness under an *adversarial* policy, in thousandths.
    pub adversarial_max_milli: u64,
    /// The observation key achieving `max_tightness_milli`.
    pub max_tightness_key: String,
    /// Per-frame tightness in thousandths, keyed
    /// `<scenario>/<policy>/<flow>#<frame>`.
    pub per_frame_milli: BTreeMap<String, u64>,
}

/// Ratio → integer thousandths.
fn milli(ratio: f64) -> u64 {
    (ratio * 1000.0).round().max(0.0) as u64
}

impl TightnessReport {
    /// Build the artifact from checked scenarios plus the campaign's
    /// rejection tally.
    pub fn build(
        scenarios: &[ScenarioConformance],
        rejections: &BTreeMap<&'static str, u64>,
    ) -> Self {
        let mut per_frame_milli = BTreeMap::new();
        let mut violations = 0u64;
        let mut vacuous = 0u64;
        let mut max_key = String::new();
        let mut max_ratio = 0.0f64;
        let mut adversarial_max = 0.0f64;
        for scenario in scenarios {
            violations += scenario.violations.len() as u64;
            vacuous += scenario.vacuous.len() as u64;
            for o in &scenario.observations {
                let key = format!(
                    "{}/{}/{}#{}",
                    scenario.label, o.policy, o.flow_name, o.frame
                );
                per_frame_milli.insert(key.clone(), milli(o.ratio));
                if o.ratio > max_ratio {
                    max_ratio = o.ratio;
                    max_key = key;
                }
                if label_is_adversarial(o.policy) && o.ratio > adversarial_max {
                    adversarial_max = o.ratio;
                }
            }
        }
        TightnessReport {
            schema: 1,
            scenarios: scenarios.len() as u64,
            rejected_draws: rejections
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            violations,
            vacuous,
            max_tightness_milli: milli(max_ratio),
            adversarial_max_milli: milli(adversarial_max),
            max_tightness_key: max_key,
            per_frame_milli,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::cbr_flow;
    use gmf_net::{shortest_path, star, LinkProfile, Priority, Route, SwitchConfig};

    fn direct_link_probe() -> (Topology, FlowSet) {
        let mut t = Topology::new();
        let a = t.add_end_host("a");
        let b = t.add_end_host("b");
        t.add_duplex_link(a, b, LinkProfile::ethernet_100m())
            .unwrap();
        let mut fs = FlowSet::new();
        fs.add(
            cbr_flow(
                "probe",
                1000,
                Time::from_millis(10.0),
                Time::from_millis(50.0),
                Time::ZERO,
            ),
            Route::new(&t, vec![a, b]).unwrap(),
            Priority(7),
        );
        (t, fs)
    }

    #[test]
    fn direct_link_probe_is_clean_and_tight() {
        let (t, fs) = direct_link_probe();
        let conformance = check_scenario("probe", &t, &fs, &ConformanceConfig::default()).unwrap();
        assert!(conformance.is_clean(), "{:?}", conformance.violations);
        // A single flow on a cable has an exact analysis: the critical
        // instant reaches the bound.
        let max = conformance.max_tightness(true).unwrap();
        assert!(max.ratio > 0.99, "max adversarial tightness {}", max.ratio);
        assert!(max.ratio <= 1.0 + 1e-9);
        assert!(minimize_violation(&t, &fs, &ConformanceConfig::default()).is_none());
    }

    #[test]
    fn adversarial_policies_tighten_the_star() {
        let (t, _sw, hosts) = star(3, LinkProfile::ethernet_100m(), SwitchConfig::paper());
        let mut fs = FlowSet::new();
        let mk = |n: &str| {
            cbr_flow(
                n,
                8000,
                Time::from_millis(10.0),
                Time::from_millis(60.0),
                Time::from_millis(0.5),
            )
        };
        fs.add(
            mk("hi"),
            shortest_path(&t, hosts[0], hosts[2]).unwrap(),
            Priority(7),
        );
        fs.add(
            mk("lo"),
            shortest_path(&t, hosts[1], hosts[2]).unwrap(),
            Priority(1),
        );
        let conformance = check_scenario("star", &t, &fs, &ConformanceConfig::default()).unwrap();
        assert!(conformance.is_clean());
        let dense_max = conformance
            .observations
            .iter()
            .filter(|o| o.policy == "dense")
            .map(|o| o.ratio)
            .fold(0.0f64, f64::max);
        let adversarial_max = conformance.max_tightness(true).unwrap().ratio;
        assert!(
            adversarial_max > dense_max,
            "adversarial ({adversarial_max}) must beat dense ({dense_max})"
        );
    }

    #[test]
    fn check_simulation_mirrors_the_policy_path() {
        let (t, fs) = direct_link_probe();
        let horizon = horizon_for(&fs);
        let via_policy = check_scenario(
            "probe",
            &t,
            &fs,
            &ConformanceConfig {
                policies: vec![AdversarialPolicy::Dense],
                engine_axes: false,
                ..ConformanceConfig::default()
            },
        )
        .unwrap();
        let via_sim = check_simulation(
            "probe",
            &t,
            &fs,
            &AnalysisConfig::conservative(),
            AdversarialPolicy::Dense.sim_config(horizon, ConformanceConfig::default().sim_seed),
        )
        .unwrap();
        assert_eq!(via_policy.observations, via_sim.observations);
        assert!(via_sim.is_clean());
    }

    #[test]
    fn vacuous_flows_are_flagged_not_passed() {
        // A horizon of zero releases no traffic: every (policy, flow) is
        // vacuous and the scenario must NOT count as clean.
        let (t, fs) = direct_link_probe();
        let config = ConformanceConfig {
            horizon: Some(Time::ZERO),
            engine_axes: false,
            policies: vec![AdversarialPolicy::Dense],
            ..ConformanceConfig::default()
        };
        let conformance = check_scenario("vacuous", &t, &fs, &config).unwrap();
        assert!(conformance.violations.is_empty());
        assert_eq!(conformance.vacuous, vec![("dense", "probe".to_string())]);
        assert!(!conformance.is_clean());
    }

    #[test]
    fn campaign_is_deterministic_and_clean() {
        let fuzz = FuzzConfig::default();
        let config = ConformanceConfig {
            horizon: Some(Time::from_millis(150.0)),
            engine_axes: false,
            ..ConformanceConfig::default()
        };
        let a = run_campaign(7, 3, &fuzz, &config).unwrap();
        let b = run_campaign(7, 3, &fuzz, &config).unwrap();
        assert_eq!(a.scenarios.len(), 3);
        assert_eq!(a.draws, b.draws);
        assert_eq!(a.rejections, b.rejections);
        for (sa, sb) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(sa.label, sb.label);
            assert_eq!(sa.observations, sb.observations);
        }
        assert_eq!(a.violations().count(), 0);
    }

    #[test]
    fn tightness_report_schema() {
        let (t, fs) = direct_link_probe();
        let conformance = check_scenario("probe", &t, &fs, &ConformanceConfig::default()).unwrap();
        let report = TightnessReport::build(std::slice::from_ref(&conformance), &BTreeMap::new());
        assert_eq!(report.schema, 1);
        assert_eq!(report.scenarios, 1);
        assert_eq!(report.violations, 0);
        assert!(report.max_tightness_milli >= 990);
        assert!(report.adversarial_max_milli >= 990);
        assert!(report.max_tightness_key.starts_with("probe/"));
        assert!(!report.per_frame_milli.is_empty());
        // Round-trips through JSON.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: TightnessReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.per_frame_milli, report.per_frame_milli);
    }
}
