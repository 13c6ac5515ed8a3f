//! Ablation sweeps beyond the paper's published grid: sensitivity of the
//! characterization to the radius `r`, the threshold `τ`, the destination
//! model, and the rigid-motion assumption (R2).
//!
//! Run with `cargo run --release -p anomaly-bench --bin ablation`
//! (`REPRO_STEPS` scales the Monte-Carlo effort).

use anomaly_bench::repro_steps;
use anomaly_core::Params;
use anomaly_simulator::{runner::analyze_step, DestinationModel, ScenarioConfig, Simulation};

struct Row {
    label: String,
    abnormal: f64,
    isolated_pct: f64,
    massive_pct: f64,
    unresolved_pct: f64,
}

fn measure(config: &ScenarioConfig, steps: u64) -> Row {
    let mut sim = Simulation::new(config.clone()).expect("valid config");
    let (mut a, mut i, mut m, mut u) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..steps {
        let r = analyze_step(&sim.step(), true);
        a += r.abnormal as u64;
        i += r.isolated as u64;
        m += (r.massive_thm6 + r.massive_thm7) as u64;
        u += r.unresolved as u64;
    }
    let pct = |x: u64| 100.0 * x as f64 / a.max(1) as f64;
    Row {
        label: String::new(),
        abnormal: a as f64 / steps as f64,
        isolated_pct: pct(i),
        massive_pct: pct(m),
        unresolved_pct: pct(u),
    }
}

fn print_rows(title: &str, rows: &[Row]) {
    println!("# {title}");
    println!(
        "  {:<34} {:>8} {:>10} {:>9} {:>12}",
        "variant", "|A_k|", "isolated%", "massive%", "unresolved%"
    );
    for r in rows {
        println!(
            "  {:<34} {:>8.1} {:>9.2}% {:>8.2}% {:>11.2}%",
            r.label, r.abnormal, r.isolated_pct, r.massive_pct, r.unresolved_pct
        );
    }
    println!();
}

fn main() {
    let steps = repro_steps();
    let base = ScenarioConfig::paper_defaults(555);

    // Radius sensitivity: r too small splits real anomalies (isolated
    // inflation); r too large merges unrelated ones (unresolved inflation).
    let mut rows = Vec::new();
    for r in [0.01, 0.02, 0.03, 0.05, 0.08] {
        let mut c = base.clone();
        c.params = Params::new(r, c.params.tau()).expect("valid radius");
        let mut row = measure(&c, steps);
        row.label = format!("r = {r}");
        rows.push(row);
    }
    print_rows("Ablation: consistency radius r (tau = 3, A = 20)", &rows);

    // Threshold sensitivity.
    let mut rows = Vec::new();
    for tau in [1usize, 2, 3, 5, 8] {
        let mut c = base.clone();
        c.params = Params::new(c.params.radius(), tau).expect("valid tau");
        let mut row = measure(&c, steps);
        row.label = format!("tau = {tau}");
        rows.push(row);
    }
    print_rows("Ablation: density threshold tau (r = 0.03, A = 20)", &rows);

    // Destination model: the uniform model of the paper's text vs the
    // degradation-biased model used for calibration (see the README's
    // "Reproduction gaps" section).
    let mut rows = Vec::new();
    for (label, model) in [
        ("uniform destinations", DestinationModel::Uniform),
        (
            "degradation scale 0.15",
            DestinationModel::Degradation { scale: 0.15 },
        ),
        (
            "degradation scale 0.28",
            DestinationModel::Degradation { scale: 0.28 },
        ),
        (
            "degradation scale 0.50",
            DestinationModel::Degradation { scale: 0.50 },
        ),
    ] {
        let mut c = base.clone();
        c.destination = model;
        let mut row = measure(&c, steps);
        row.label = label.to_string();
        rows.push(row);
    }
    print_rows(
        "Ablation: destination model (r = 0.03, tau = 3, A = 20)",
        &rows,
    );
}
