//! Property-based tests of the dense-index analysis core: the interned
//! tables, the arena iterates, the Arc-shared reports and the
//! stage-granular reuse of unchanged solves must all be invisible in the
//! results.
//!
//! The oracle is [`gmfnet::analysis::analyze_reference`] — a deliberately
//! simple sequential keyed Picard engine that shares no hot-path code with
//! the production engine (tree-map jitter reads, per-frame stage walks,
//! no memoisation, no reuse).  On random sweep-style and churn-style
//! flow sets:
//!
//! (a) the production engine's `AnalysisReport` is `assert_eq!`-identical
//!     to the reference — bounds, hop breakdowns, verdicts, failure
//!     strings, iteration counts and residual traces — at worker threads
//!     1 and 4, and a converged run never analyses more than
//!     `rounds × flows` flows nor solves more than `rounds × stages`
//!     stages (the costs without reuse);
//! (b) on churn-style suffixes (a departure-reshaped set), the dense
//!     engine still matches the reference, pinning the id-sparse case;
//! (c) the same fence holds on the shapes where stage-granular reuse
//!     pays and where it is most delicate: mixed-depth and long-tail
//!     lines, fuzz networks, a metro cell, the cyclic chasing ring and a
//!     route mixing 10 and 100 Mbit/s links (whose hops of equal speed
//!     share one demand table).

mod common;

use gmf_bench::{long_tail_line_scenario, mixed_depth_line_scenario};
use gmfnet::analysis::{
    analyze_reference, iterate_from, AnalysisConfig, AnalysisContext, JitterMap,
};
use gmfnet::model::{voip_flow, Time, VoiceCodec};
use gmfnet::net::{FlowSet, LinkProfile, NodeId, Priority, Route, SwitchConfig, Topology};
use gmfnet::workloads::{
    metro_scenario, paper_scenario, random_sweep_set, valid_scenario, FuzzConfig, MetroConfig,
    SweepConfig,
};
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
            let stages: usize = set
                .bindings()
                .iter()
                .map(|b| 2 * b.route.n_hops() - 1)
                .sum();
            assert!(
                run.stage_analyses <= run.report.iterations * stages,
                "threads = {threads}: {} stage solves over {} rounds of {stages} stages",
                run.stage_analyses,
                run.report.iterations,
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

/// (c) Lines of 6–16 switches: the mixed-depth line (local flows settle
/// while the whole-line pairs keep iterating) and the long-tail line.
#[test]
fn dense_engine_matches_reference_on_deep_lines() {
    for n_switches in [6usize, 11, 16] {
        let (topology, set) = mixed_depth_line_scenario(n_switches, 2);
        assert_engine_matches_reference(&topology, &set);
        let (topology, set) = long_tail_line_scenario(n_switches, 2);
        assert_engine_matches_reference(&topology, &set);
    }
}

/// (c) Fuzz networks: trees and multi-switch topologies with mixed link
/// speeds and GMF mixes.
#[test]
fn dense_engine_matches_reference_on_fuzz_networks() {
    let config = FuzzConfig::default();
    for seed in 0..6u64 {
        let (scenario, _) = valid_scenario(seed, &config);
        assert_engine_matches_reference(&scenario.topology, &scenario.flows);
    }
}

/// (c) A metro access cell (every route host → cell switch → host, both
/// hops at one speed).
#[test]
fn dense_engine_matches_reference_on_a_metro_cell() {
    let metro = MetroConfig {
        n_cells: 1,
        ..MetroConfig::default()
    };
    let scenario = metro_scenario(1408, &metro);
    assert_engine_matches_reference(&scenario.topology, &scenario.flows);
}

/// (c) Three flows chasing each other around a 3-switch ring: a cyclic
/// jitter dependency graph.
#[test]
fn dense_engine_matches_reference_on_the_chasing_ring() {
    let link = LinkProfile::ethernet_100m();
    let mut topology = Topology::new();
    let switches: Vec<NodeId> = (0..3)
        .map(|i| topology.add_switch(SwitchConfig::paper(), format!("s{i}")))
        .collect();
    let hosts: Vec<NodeId> = (0..3)
        .map(|i| topology.add_end_host(format!("h{i}")))
        .collect();
    for i in 0..3 {
        topology
            .add_duplex_link(hosts[i], switches[i], link)
            .unwrap();
        topology
            .add_duplex_link(switches[i], switches[(i + 1) % 3], link)
            .unwrap();
    }
    let mut set = FlowSet::new();
    for first in 0..3 {
        let nodes = std::iter::once(hosts[first])
            .chain((0..3).map(|k| switches[(first + k) % 3]))
            .chain(std::iter::once(hosts[(first + 2) % 3]))
            .collect();
        let flow = voip_flow(
            &format!("chaser{first}"),
            VoiceCodec::G711,
            Time::from_millis(50.0),
            Time::from_millis(0.5),
        );
        set.add(flow, Route::new(&topology, nodes).unwrap(), Priority(5));
    }
    assert_engine_matches_reference(&topology, &set);
}

/// (c) The paper scenario: its video route crosses a 10 Mbit/s access
/// link, the 100 Mbit/s backbone and a 10 Mbit/s access link, so its two
/// access hops share one demand table and the backbone hop has its own.
#[test]
fn dense_engine_matches_reference_on_mixed_speed_routes() {
    let (scenario, ids) = paper_scenario();
    let ctx = AnalysisContext::new(&scenario.topology, &scenario.flows).unwrap();
    let video = scenario
        .flows
        .get(gmfnet::model::FlowId(ids.video))
        .unwrap();
    let nodes = video.route.nodes();
    let first = ctx.demand(video.id, nodes[0], nodes[1]);
    let backbone = ctx.demand(video.id, nodes[1], nodes[2]);
    let last = ctx.demand(video.id, nodes[2], nodes[3]);
    assert!(std::ptr::eq(first, last), "equal-speed hops share a demand");
    assert!(backbone.csum() < first.csum());
    assert_engine_matches_reference(&scenario.topology, &scenario.flows);
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
