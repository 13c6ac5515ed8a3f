//! Benchmarks the Theorem 7 / Corollary 8 collection search on the paper's
//! Figure 5 ring — the configuration where Theorem 6 is silent — comparing
//! the cheap Algorithm 3 path against the full NSC (the Table III cost gap).

use anomaly_core::{AnalyzerCore, Params, TrajectoryTable};
use anomaly_qos::DeviceId;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// The Figure 5 diamond generalized to `pairs` co-located pairs on a ring:
/// adjacent pairs share motions, opposite ones do not, so Theorem 6 stays
/// silent and the collection search has work to do.
fn ring_table(pairs: usize) -> TrajectoryTable {
    let mut rows = Vec::new();
    for p in 0..pairs {
        let angle = 2.0 * std::f64::consts::PI * p as f64 / pairs as f64;
        let x = 0.5 + 0.1 * angle.cos();
        let y = 0.5 + 0.1 * angle.sin();
        rows.push(((2 * p) as u32, x, y));
        rows.push(((2 * p + 1) as u32, x, y));
    }
    TrajectoryTable::from_pairs_1d(&rows)
}

fn bench_theorem7(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem7");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let params = Params::new(0.05, 3).unwrap();
    let table = ring_table(4);
    let analyzer = AnalyzerCore::new(&table, params);
    group.bench_function("quick_path_fig5", |b| {
        b.iter(|| black_box(analyzer.characterize(DeviceId(0))))
    });
    group.bench_function("full_nsc_fig5", |b| {
        b.iter(|| black_box(analyzer.characterize_full(&table, DeviceId(0))))
    });
    group.finish();
}

criterion_group!(benches, bench_theorem7);
criterion_main!(benches);
