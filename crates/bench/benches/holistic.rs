//! B3 — cost of the full holistic analysis (admission-control latency) on
//! the paper scenario and on larger synthetic flow sets, plus the
//! worker-thread axis of the fixed-point engine and the long-tail line.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gmf_analysis::{analyze, AnalysisConfig};
use gmf_bench::{
    long_tail_bench_scenario, synthetic_converging_set, HOLISTIC_SYNTHETIC_AXIS,
    HOLISTIC_THREAD_AXIS,
};
use gmf_workloads::paper_scenario;

fn bench_holistic(c: &mut Criterion) {
    let config = AnalysisConfig::paper();

    let (scenario, _) = paper_scenario();
    c.bench_function("holistic_paper_scenario", |b| {
        b.iter(|| analyze(black_box(&scenario.topology), &scenario.flows, &config).unwrap())
    });

    let mut group = c.benchmark_group("holistic_synthetic");
    for n_flows in HOLISTIC_SYNTHETIC_AXIS {
        let (topology, set) = synthetic_converging_set(n_flows);
        group.bench_with_input(BenchmarkId::from_parameter(n_flows), &n_flows, |b, _| {
            b.iter(|| analyze(black_box(&topology), &set, &config).unwrap())
        });
    }
    group.finish();

    // Engine axis: worker threads for the Jacobi rounds (16-flow set).
    // The reports are byte-identical at every point; only wall clock moves.
    let (topology, set) = synthetic_converging_set(*HOLISTIC_SYNTHETIC_AXIS.last().unwrap());
    let mut group = c.benchmark_group("holistic_threads");
    for threads in HOLISTIC_THREAD_AXIS {
        let config = AnalysisConfig::paper().with_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| analyze(black_box(&topology), &set, &config).unwrap())
        });
    }
    group.finish();

    // The long-tail line workload: interference chains run the whole line,
    // so the jitter fixed point needs on the order of `2·n_switches` rounds.
    let (topology, flows) = long_tail_bench_scenario();
    let mut group = c.benchmark_group("holistic_longtail");
    group.bench_function(BenchmarkId::from_parameter("picard"), |b| {
        b.iter(|| analyze(black_box(&topology), &flows, &config).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_holistic);
criterion_main!(benches);
