//! Property-based tests of the dense-index analysis core: the interned
//! tables, the arena iterates, the Arc-shared reports and the dirty-flow
//! round skipping must all be invisible in the results.
//!
//! The oracle is [`gmfnet::analysis::analyze_reference`] — a deliberately
//! simple sequential keyed Picard engine that shares no hot-path code with
//! the production engine (tree-map jitter reads, per-frame stage walks,
//! no memoisation, no skipping).  On random sweep-style and churn-style
//! flow sets:
//!
//! (a) the production engine's `AnalysisReport` is `assert_eq!`-identical
//!     to the reference — bounds, hop breakdowns, verdicts, failure
//!     strings, iteration counts and residual traces — at worker threads
//!     1 and 4, and a converged run never analyses more than
//!     `rounds × flows` flows (the cost without skipping);
//! (b) on churn-style suffixes (a departure-reshaped set), the dense
//!     engine still matches the reference, pinning the id-sparse case.

mod common;

use gmfnet::analysis::{
    analyze_reference, iterate_from, AnalysisConfig, AnalysisContext, JitterMap,
};
use gmfnet::net::{FlowSet, Topology};
use gmfnet::workloads::{random_sweep_set, SweepConfig};
use proptest::prelude::*;

fn sweep_set(seed: u64, n_flows: usize, utilization: f64) -> (Topology, FlowSet) {
    random_sweep_set(seed, n_flows, utilization, &SweepConfig::default())
}

/// Run the production engine at threads 1 and 4 and compare each run with
/// the keyed reference: byte-identical reports, and no more per-flow
/// analyses than `rounds × flows` on a converged run.
fn assert_engine_matches_reference(topology: &Topology, set: &FlowSet) {
    let reference = analyze_reference(topology, set, &AnalysisConfig::paper()).unwrap();
    let ctx = AnalysisContext::new(topology, set).unwrap();
    for threads in [1usize, 4] {
        let config = AnalysisConfig::paper().with_threads(threads);
        let run = iterate_from(&ctx, &config, JitterMap::initial(set)).unwrap();
        assert_eq!(reference, run.report, "threads = {threads}");
        if run.report.converged {
            assert!(
                run.flow_analyses <= run.report.iterations * set.len(),
                "threads = {threads}: {} analyses over {} rounds of {} flows",
                run.flow_analyses,
                run.report.iterations,
                set.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Dense engine == keyed reference, across threads.
    #[test]
    fn dense_reports_equal_keyed_reference(
        seed in 0u64..1_000_000,
        n_flows in 2usize..10,
        utilization in 0.1f64..1.1,
    ) {
        let (topology, set) = sweep_set(seed, n_flows, utilization);
        assert_engine_matches_reference(&topology, &set);
    }

    /// (b) Churn-style sets (departures leave the id space sparse) still
    /// analyse byte-identically.
    #[test]
    fn dense_engine_matches_reference_after_departures(
        seed in 0u64..1_000_000,
        n_flows in 3usize..10,
        utilization in 0.1f64..0.9,
        drop_index in 0usize..3,
    ) {
        let (topology, mut set) = sweep_set(seed, n_flows, utilization);
        // Remove one flow (ids are never reused, so the binding list is
        // now sparse) and re-add a clone of another under a fresh id.
        let ids: Vec<_> = set.ids().collect();
        let departing = ids[drop_index % ids.len()];
        set.remove(departing).unwrap();
        let surviving = set.bindings()[0].clone();
        set.add(surviving.flow, surviving.route, surviving.priority);
        assert_engine_matches_reference(&topology, &set);
    }
}

/// Round skipping must also be invisible through admission: every
/// decision equals what a global analysis of accepted ∪ {candidate}
/// implies, bound for bound.
#[test]
fn skipping_is_invisible_through_warm_admission() {
    use gmfnet::analysis::{analyze, AdmissionController, AdmissionRequest};
    let (topology, set) = sweep_set(20_080_511, 8, 0.5);
    let config = AnalysisConfig::paper();
    let mut ctl = AdmissionController::new(topology.clone(), config);
    for binding in set.bindings() {
        let mut trial = ctl.accepted().clone();
        trial.add(
            binding.flow.clone(),
            binding.route.clone(),
            binding.priority,
        );
        let reference = analyze(&topology, &trial, &config).unwrap();
        let request = AdmissionRequest::new(
            binding.flow.clone(),
            binding.route.clone(),
            binding.priority,
        );
        let d = ctl.request_batch([request]).unwrap().pop().unwrap();
        common::assert_matches_reference(&d, &reference, "sweep set");
        if d.is_accepted() {
            assert_eq!(ctl.accepted(), &trial);
        }
    }
}
