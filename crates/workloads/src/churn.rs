//! Churn workloads: flow arrivals *and departures* over time, driven
//! through an [`AdmissionController`].
//!
//! The acceptance sweeps analyse independent random sets; an operator's
//! real workload is a *churning* set — calls arrive, live for a while and
//! tear down.  This module generates a deterministic churn script on the
//! sweep's converging star network and replays it against an admission
//! controller, recording what every decision cost.  Running the same
//! script in [`AdmissionMode::Cold`] and [`AdmissionMode::Sharded`] is the
//! headline experiment of the sharded admission engine (E11 /
//! `exp_admission_churn`): decisions and bounds are byte-identical, the
//! per-decision cost is not.
//!
//! Determinism: every event draws from its own ChaCha8 stream seeded with
//! [`gmf_par::derive_seed`]`(seed, event_index)`, so the event sequence
//! depends only on `(seed, config)` — never on thread counts or on how
//! many analyses an engine ran.  Departures pick uniformly among the
//! currently *live* flows; since cold and sharded engines take
//! byte-identical decisions, both replay the identical script.

use crate::sweep::SweepConfig;
use crate::synthetic::random_gmf_flow;
use gmf_analysis::{AdmissionController, AdmissionMode, AdmissionRequest, AnalysisConfig};
use gmf_model::FlowId;
use gmf_net::{shortest_path, star, Priority};
use gmf_par::derive_seed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a churn run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Number of events (arrival attempts or departures) to replay.
    pub n_events: usize,
    /// Probability that an event is a departure, when any flow is live.
    pub departure_fraction: f64,
    /// Per-flow target utilization of the bottleneck link, drawn uniformly
    /// from this range for each arrival.
    pub flow_utilization: (f64, f64),
    /// Number of sink hosts on the star.  Each arrival routes from a
    /// random source to a random sink; flows towards different sinks on
    /// different access links never interfere, which is exactly what the
    /// sharded engine's per-shard trials exploit.
    pub n_sinks: usize,
    /// The star network and flow-structure generator (the sweep's);
    /// `sweep.n_sources` is the number of *source* hosts, on top of which
    /// `n_sinks` sink hosts are added.
    pub sweep: SweepConfig,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            n_events: 60,
            departure_fraction: 0.35,
            flow_utilization: (0.01, 0.06),
            n_sinks: 2,
            sweep: SweepConfig::default(),
        }
    }
}

/// What one churn replay did and cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnOutcome {
    /// The engine the replay drove.
    pub mode: AdmissionMode,
    /// Arrival attempts (admission requests).
    pub arrivals: usize,
    /// Accepted arrivals.
    pub accepted: usize,
    /// Rejected arrivals.
    pub rejected: usize,
    /// Departures (releases).
    pub departures: usize,
    /// Flows live at the end of the replay.
    pub live: usize,
    /// Total holistic rounds across all decisions.
    pub rounds: usize,
    /// Total per-flow pipeline analyses across all decisions — the cost
    /// metric the sharded engine shrinks.
    pub flow_analyses: usize,
    /// Worst end-to-end bound of the final accepted set (ns-precision
    /// string keeps the type serde-friendly), `"-"` when empty.
    pub final_worst_bound: String,
    /// `true` if the final accepted set re-verifies as schedulable.
    pub final_schedulable: bool,
}

impl ChurnOutcome {
    /// Decisions taken (arrival attempts).
    pub fn decisions(&self) -> usize {
        self.arrivals
    }

    /// Mean holistic rounds per admission decision.
    pub fn rounds_per_decision(&self) -> f64 {
        self.rounds as f64 / self.arrivals.max(1) as f64
    }

    /// Mean per-flow analyses per admission decision.
    pub fn analyses_per_decision(&self) -> f64 {
        self.flow_analyses as f64 / self.arrivals.max(1) as f64
    }
}

/// Replay a deterministic churn script against a fresh admission
/// controller in the given mode.
///
/// # Panics
///
/// Panics if `config.sweep` is invalid (see [`SweepConfig::validate`]),
/// `config.departure_fraction` is outside `[0, 1]`, `config.n_sinks` is
/// zero, or `config.flow_utilization` is empty or non-positive.
pub fn run_churn(
    seed: u64,
    config: &ChurnConfig,
    analysis: &AnalysisConfig,
    mode: AdmissionMode,
) -> ChurnOutcome {
    config
        .sweep
        .validate()
        // tidy-allow: unwrap invariant: invalid sweep configuration
        .expect("invalid sweep configuration");
    assert!(
        (0.0..=1.0).contains(&config.departure_fraction),
        "departure_fraction must be within [0, 1]"
    );
    assert!(config.n_sinks >= 1, "n_sinks must be at least 1");
    assert!(
        config.flow_utilization.0 > 0.0 && config.flow_utilization.0 <= config.flow_utilization.1,
        "flow_utilization must be a non-empty positive range"
    );

    let (topology, _switch, hosts) = star(
        config.sweep.n_sources + config.n_sinks,
        config.sweep.link,
        config.sweep.switch,
    );
    let sinks: Vec<_> = hosts[..config.n_sinks].to_vec();
    let sources: Vec<_> = hosts[config.n_sinks..].to_vec();
    let mut ctl = AdmissionController::new(topology, *analysis).with_mode(mode);

    let mut outcome = ChurnOutcome {
        mode,
        arrivals: 0,
        accepted: 0,
        rejected: 0,
        departures: 0,
        live: 0,
        rounds: 0,
        flow_analyses: 0,
        final_worst_bound: "-".to_string(),
        final_schedulable: true,
    };

    for event in 0..config.n_events {
        // One independent stream per event: the script depends only on
        // (seed, event) and the decisions taken so far.
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, event as u64));
        let depart = ctl.n_accepted() > 0 && rng.gen_range(0.0..1.0) < config.departure_fraction;
        if depart {
            let live: Vec<FlowId> = ctl.accepted().ids().collect();
            let victim = live[rng.gen_range(0..live.len())];
            // tidy-allow: unwrap invariant: victim is live
            ctl.release(victim).expect("victim is live");
            outcome.departures += 1;
        } else {
            let utilization = rng.gen_range(config.flow_utilization.0..=config.flow_utilization.1);
            let flow = random_gmf_flow(
                &mut rng,
                &format!("churn-{event}"),
                utilization.max(1e-4),
                &config.sweep.synthetic,
            );
            let source = sources[rng.gen_range(0..sources.len())];
            let sink = sinks[rng.gen_range(0..sinks.len())];
            // tidy-allow: unwrap invariant: star is connected
            let route = shortest_path(ctl.topology(), source, sink).expect("star is connected");
            let priority = Priority(rng.gen_range(0..config.sweep.priority_levels.max(1)));
            let decision = ctl
                .request_batch([AdmissionRequest::new(flow, route, priority)])
                // tidy-allow: unwrap invariant: routes on the star are structurally valid
                .expect("routes on the star are structurally valid")
                .pop()
                // tidy-allow: unwrap invariant: a one-element batch yields one decision
                .expect("one decision per request");
            outcome.arrivals += 1;
            let cost = decision.cost();
            outcome.rounds += cost.rounds;
            outcome.flow_analyses += cost.flow_analyses;
            if decision.is_accepted() {
                outcome.accepted += 1;
            } else {
                outcome.rejected += 1;
            }
        }
    }

    outcome.live = ctl.n_accepted();
    // tidy-allow: unwrap invariant: accepted set is structurally valid
    let final_report = ctl.reanalyze().expect("accepted set is structurally valid");
    outcome.final_schedulable = final_report.schedulable;
    if let Some(worst) = final_report.worst_bound() {
        outcome.final_worst_bound = worst.to_string();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChurnConfig {
        ChurnConfig {
            n_events: 24,
            sweep: SweepConfig {
                flows_per_set: 4,
                sets_per_point: 5,
                ..SweepConfig::default()
            },
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn churn_is_reproducible_for_a_seed() {
        let a = run_churn(
            5,
            &small(),
            &AnalysisConfig::paper(),
            AdmissionMode::Sharded,
        );
        let b = run_churn(
            5,
            &small(),
            &AnalysisConfig::paper(),
            AdmissionMode::Sharded,
        );
        assert_eq!(a, b);
        assert_eq!(a.arrivals + a.departures, small().n_events);
        assert!(a.arrivals > 0 && a.departures > 0, "{a:?}");
        assert!(a.final_schedulable);
    }

    #[test]
    fn warm_and_cold_replays_agree_and_warm_is_cheaper() {
        let config = small();
        let analysis = AnalysisConfig::paper();
        let cold = run_churn(9, &config, &analysis, AdmissionMode::Cold);
        let sharded = run_churn(9, &config, &analysis, AdmissionMode::Sharded);
        // Identical script, identical decisions, identical final bounds.
        assert_eq!(cold.arrivals, sharded.arrivals);
        assert_eq!(cold.accepted, sharded.accepted);
        assert_eq!(cold.rejected, sharded.rejected);
        assert_eq!(cold.departures, sharded.departures);
        assert_eq!(cold.live, sharded.live);
        assert_eq!(cold.final_worst_bound, sharded.final_worst_bound);
        assert_eq!(cold.final_schedulable, sharded.final_schedulable);
        // Per-shard trials are strictly cheaper in total than global ones.
        assert!(
            sharded.flow_analyses < cold.flow_analyses,
            "sharded {} vs cold {}",
            sharded.flow_analyses,
            cold.flow_analyses
        );
        assert!(sharded.analyses_per_decision() < cold.analyses_per_decision());
    }

    #[test]
    fn churn_output_is_thread_invariant() {
        let config = small();
        let base = run_churn(3, &config, &AnalysisConfig::paper(), AdmissionMode::Sharded);
        let par = run_churn(
            3,
            &config,
            &AnalysisConfig::paper().with_threads(4),
            AdmissionMode::Sharded,
        );
        // Thread count moves wall clock only, never results or costs.
        assert_eq!(base, par);
    }

    #[test]
    #[should_panic(expected = "departure_fraction")]
    fn invalid_departure_fraction_is_rejected() {
        let config = ChurnConfig {
            departure_fraction: 1.5,
            ..small()
        };
        run_churn(1, &config, &AnalysisConfig::paper(), AdmissionMode::Sharded);
    }

    #[test]
    #[should_panic(expected = "flow_utilization")]
    fn reversed_utilization_range_is_rejected() {
        let config = ChurnConfig {
            flow_utilization: (0.05, 0.01),
            ..small()
        };
        run_churn(1, &config, &AnalysisConfig::paper(), AdmissionMode::Sharded);
    }
}
