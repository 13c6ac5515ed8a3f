//! Section VII-C: sampling granularity vs unresolved configurations.
fn main() {
    anomaly_bench::experiments::granularity(anomaly_bench::repro_steps());
}
