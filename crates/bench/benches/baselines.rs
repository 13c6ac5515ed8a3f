//! Benchmarks the related-work baselines against the local characterization
//! on identical simulated steps (cost side of the Section II comparison).

use anomaly_baselines::{Classifier, KMeansClassifier, TessellationClassifier};
use anomaly_core::{AnalyzerCore, TrajectoryTable};
use anomaly_qos::DeviceId;
use anomaly_simulator::{ScenarioConfig, Simulation};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let config = ScenarioConfig::paper_defaults(505);
    let mut sim = Simulation::new(config).expect("valid scenario");
    let outcome = sim.step();
    let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
    let params = outcome.config.params;

    let tess = TessellationClassifier::new(16, params.tau());
    group.bench_function("tessellation_16", |b| {
        b.iter(|| black_box(tess.classify(&outcome.pair, &abnormal)))
    });

    let km = KMeansClassifier::new(20, params.tau(), 9);
    group.bench_function("kmeans_k20", |b| {
        b.iter(|| black_box(km.classify(&outcome.pair, &abnormal)))
    });

    group.bench_function("local_full_pipeline", |b| {
        b.iter(|| {
            let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
            let analyzer = AnalyzerCore::new(&table, params);
            black_box(analyzer.classify_all_full(&table))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
