//! Benchmarks the per-step characterization pipeline (Algorithm 3 and the
//! full NSC) on simulated paper-default scenarios.

use anomaly_core::{AnalyzerCore, TrajectoryTable};
use anomaly_qos::DeviceId;
use anomaly_simulator::{ScenarioConfig, Simulation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_characterize(c: &mut Criterion) {
    let mut group = c.benchmark_group("characterize");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for a in [10usize, 20] {
        let config = ScenarioConfig::paper_defaults(101).with_errors_per_step(a);
        let mut sim = Simulation::new(config).expect("valid scenario");
        let outcome = sim.step();
        let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
        let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
        let params = outcome.config.params;

        group.bench_with_input(BenchmarkId::new("analyzer_build", a), &a, |b, _| {
            b.iter(|| black_box(AnalyzerCore::new(&table, params)))
        });
        let analyzer = AnalyzerCore::new(&table, params);
        group.bench_with_input(BenchmarkId::new("classify_all_quick", a), &a, |b, _| {
            b.iter(|| black_box(analyzer.classify_all(&table)))
        });
        group.bench_with_input(BenchmarkId::new("classify_all_full", a), &a, |b, _| {
            b.iter(|| black_box(analyzer.classify_all_full(&table)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_characterize);
criterion_main!(benches);
