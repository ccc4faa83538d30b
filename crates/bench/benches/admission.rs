//! B5 — admission-control churn: global cold restarts vs per-shard cold
//! solves on the shared churn script (arrivals and departures on the
//! converging star).
//!
//! Decisions and bounds are byte-identical across the two modes (the churn
//! replay asserts as much in its tests); only the per-decision analysis
//! cost — and therefore the wall clock measured here — moves.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gmf_analysis::{AdmissionMode, AnalysisConfig};
use gmf_bench::{churn_bench_config, CHURN_BENCH_SEED};
use gmf_workloads::run_churn;

fn bench_admission_churn(c: &mut Criterion) {
    let config = churn_bench_config();
    let analysis = AnalysisConfig::paper();
    let mut group = c.benchmark_group("churn_admission");
    for (name, mode) in [
        ("cold", AdmissionMode::Cold),
        ("sharded", AdmissionMode::Sharded),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                black_box(run_churn(
                    black_box(CHURN_BENCH_SEED),
                    &config,
                    &analysis,
                    mode,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_admission_churn);
criterion_main!(benches);
