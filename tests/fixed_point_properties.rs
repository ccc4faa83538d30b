//! Property-based tests of the holistic fixed-point engine: the parallel
//! Jacobi rounds must be invisible in the results.  The per-flow analyses
//! of a round are independent, so the full report — bounds, iteration
//! count, convergence trace — is `assert_eq!`-identical across
//! worker-thread counts 1/2/8 on random flow sets from the
//! acceptance-sweep generator.

use gmfnet::analysis::{analyze, AnalysisConfig};
use gmfnet::workloads::SweepConfig;
use proptest::prelude::*;

/// Build a random converging flow set from the sweep generator.
fn random_sweep_set(
    seed: u64,
    n_flows: usize,
    utilization: f64,
) -> (gmfnet::net::Topology, gmfnet::net::FlowSet) {
    gmfnet::workloads::random_sweep_set(seed, n_flows, utilization, &SweepConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel and sequential rounds produce `assert_eq!` reports.
    #[test]
    fn parallel_reports_equal_sequential_reports(
        seed in 0u64..1_000_000,
        n_flows in 2usize..10,
        utilization in 0.1f64..1.1,
    ) {
        let (topology, set) = random_sweep_set(seed, n_flows, utilization);
        let sequential = analyze(&topology, &set, &AnalysisConfig::paper()).unwrap();
        for threads in [2usize, 8] {
            let parallel = analyze(
                &topology,
                &set,
                &AnalysisConfig::paper().with_threads(threads),
            )
            .unwrap();
            // Everything, including the convergence trace, is identical.
            prop_assert_eq!(&sequential, &parallel);
        }
    }
}
