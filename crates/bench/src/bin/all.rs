//! Runs every table and figure reproduction in sequence.
use anomaly_bench::{experiments, repro_steps};

fn main() {
    let steps = repro_steps();
    experiments::fig6a();
    println!();
    experiments::fig6b();
    println!();
    experiments::table2_and_3(steps);
    println!();
    experiments::fig7(steps);
    println!();
    experiments::fig8(steps);
    println!();
    experiments::fig9(steps);
    println!();
    experiments::baselines(steps);
    println!();
    experiments::granularity(steps);
    println!();
    experiments::adversary();
}
