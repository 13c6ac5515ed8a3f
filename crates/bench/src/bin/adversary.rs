//! Section VIII: the minimum coalition that suppresses an isolated report.
fn main() {
    anomaly_bench::experiments::adversary();
}
