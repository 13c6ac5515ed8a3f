//! The experiment implementations. Each function regenerates one table or
//! figure of the paper and writes rows to stdout.

use anomaly_analytic::{
    prob_false_dense_at_most, prob_false_dense_at_most_with_q, prob_vicinity_at_most,
};
use anomaly_baselines::{
    compare_on_scenario, Classifier, KMeansClassifier, TessellationClassifier,
};
use anomaly_core::Params;
use anomaly_simulator::adversary::minimum_winning_coalition;
use anomaly_simulator::sweep::{granularity_sweep, sweep_grid};
use anomaly_simulator::{runner::analyze_step, DestinationModel, ScenarioConfig, Simulation};

/// The `A` grid of Figures 7–9.
pub const A_VALUES: [usize; 7] = [1, 10, 20, 30, 40, 50, 60];
/// The `G` grid of Figures 7–9.
pub const G_VALUES: [f64; 5] = [0.0, 0.3, 0.5, 0.7, 1.0];

/// Figure 6(a): `P{N_r(j) ≤ m}` as a function of `m` for several radii,
/// `n = 1000`, `d = 2`.
pub fn fig6a() {
    println!("# Figure 6(a) — P{{N_r(j) <= m}} vs m (n = 1000, d = 2)");
    let radii = [0.1, 0.05, 0.033, 0.025, 0.02];
    print!("{:>6}", "m");
    for r in radii {
        print!("  r={r:<7}");
    }
    println!();
    for m in (0..=200).step_by(10) {
        print!("{m:>6}");
        for r in radii {
            print!("  {:<9.5}", prob_vicinity_at_most(1000, r, 2, m));
        }
        println!();
    }
}

/// Figure 6(b): `P{F_r(j) ≤ τ}` as a function of `n` for `τ ∈ {2,…,5}`,
/// `r = 0.03`, `b = 0.005`. Prints both the text model (vicinity radius
/// `2r`, `q = (4r)^d`) and the figure-matching model (radius `r`,
/// `q = (2r)^d`) — see the README's "Reproduction gaps" section.
pub fn fig6b() {
    println!("# Figure 6(b) — P{{F_r(j) <= tau}} vs n (r = 0.03, b = 0.005, d = 2)");
    let taus = [2u64, 3, 4, 5];
    for (label, q) in [
        ("text model  q=(4r)^2", (4.0 * 0.03f64).powi(2)),
        ("figure model q=(2r)^2", (2.0 * 0.03f64).powi(2)),
    ] {
        println!("## {label}");
        print!("{:>7}", "n");
        for t in taus {
            print!("  tau={t:<9}");
        }
        println!();
        for n in (1000..=15_000).step_by(2000) {
            print!("{n:>7}");
            for t in taus {
                let p = prob_false_dense_at_most_with_q(n, q, 0.005, t).expect("valid parameters");
                print!("  {:<13.6}", p);
            }
            println!();
        }
    }
    // Cross-check: the generic-q function at q=(4r)^2 equals the text API.
    let a = prob_false_dense_at_most(5000, 0.03, 2, 0.005, 3).unwrap();
    let b = prob_false_dense_at_most_with_q(5000, 0.0144, 0.005, 3).unwrap();
    assert!((a - b).abs() < 1e-12);
}

/// Tables II and III: repartition of `A_k` across `I_k` (Theorem 5),
/// `M_k` (Theorem 6), `U_k` (Corollary 8) and the extra `M_k` devices only
/// Theorem 7 finds — plus the average per-device costs.
///
/// Paper settings: `A = 20`, `n = 1000`, `r = 0.03`, `τ = 3`, `G = ε`,
/// `|A_k| ≈ 95.7`.
pub fn table2_and_3(steps: u64) {
    let config = ScenarioConfig::paper_defaults(20140623); // DSN 2014 dates
    let mut sim = Simulation::new(config).expect("paper defaults are valid");
    let mut tot_abnormal = 0u64;
    let (mut tot_i, mut tot_m6, mut tot_u, mut tot_m7) = (0u64, 0u64, 0u64, 0u64);
    let (mut sum_mi, mut sum_d6, mut sum_cu, mut sum_c7) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..steps {
        let report = analyze_step(&sim.step(), true);
        tot_abnormal += report.abnormal as u64;
        tot_i += report.isolated as u64;
        tot_m6 += report.massive_thm6 as u64;
        tot_u += report.unresolved as u64;
        tot_m7 += report.massive_thm7 as u64;
        sum_mi += report.avg_motions_isolated * report.isolated as f64;
        sum_d6 += report.avg_dense_massive6 * report.massive_thm6 as f64;
        sum_cu += report.avg_collections_unresolved * report.unresolved as f64;
        sum_c7 += report.avg_collections_massive7 * report.massive_thm7 as f64;
    }
    let pct = |x: u64| 100.0 * x as f64 / tot_abnormal.max(1) as f64;
    println!("# Table II — repartition of A_k (A = 20, n = 1000, r = 0.03, tau = 3)");
    println!(
        "  steps = {steps}, mean |A_k| = {:.1}",
        tot_abnormal as f64 / steps as f64
    );
    println!("  {:<28} {:>10} {:>10}", "set (rule)", "ours", "paper");
    println!(
        "  {:<28} {:>9.2}% {:>10}",
        "I_k (Theorem 5)",
        pct(tot_i),
        "2.54%"
    );
    println!(
        "  {:<28} {:>9.2}% {:>10}",
        "M_k (Theorem 6)",
        pct(tot_m6),
        "88.34%"
    );
    println!(
        "  {:<28} {:>9.2}% {:>10}",
        "U_k (Corollary 8)",
        pct(tot_u),
        "8.72%"
    );
    println!(
        "  {:<28} {:>9.2}% {:>10}",
        "M_k extra (Theorem 7)",
        pct(tot_m7),
        "0.4%"
    );

    let avg = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
    println!();
    println!("# Table III — average computational cost per device");
    println!("  {:<34} {:>12} {:>12}", "cost (meaning)", "ours", "paper");
    println!(
        "  {:<34} {:>12.2} {:>12}",
        "I_k: maximal motions |M(j)|",
        avg(sum_mi, tot_i),
        "1.85"
    );
    println!(
        "  {:<34} {:>12.2} {:>12}",
        "M_k: dense motions |Wbar(j)|",
        avg(sum_d6, tot_m6),
        "1.17"
    );
    println!(
        "  {:<34} {:>12.1} {:>12}",
        "U_k: collections tested",
        avg(sum_cu, tot_u),
        "31107.9"
    );
    println!(
        "  {:<34} {:>12.1} {:>12}",
        "M_k via Thm 7: collections tested",
        avg(sum_c7, tot_m7),
        "2450150"
    );
}

/// Shared driver for the Figures 7–9 sweeps; prints a `(A × G)` grid of one
/// pooled percentage.
fn print_sweep(title: &str, ylabel: &str, enforce_r3: bool, steps: u64, missed: bool) {
    println!("# {title} (n = 1000, r = 0.03, tau = 3, {steps} steps/point)");
    let base = ScenarioConfig::paper_defaults(2014).with_enforce_r3(enforce_r3);
    let points =
        sweep_grid(&base, &A_VALUES, &G_VALUES, steps, true).expect("paper defaults are valid");
    print!("{:>4}", "A");
    for g in G_VALUES {
        print!("  G={g:<6}");
    }
    println!("   ({ylabel}, %)");
    for (ai, &a) in A_VALUES.iter().enumerate() {
        print!("{a:>4}");
        for gi in 0..G_VALUES.len() {
            let p = &points[ai * G_VALUES.len() + gi];
            let v = if missed {
                p.pooled_missed_pct()
            } else {
                p.pooled_u_ratio_pct()
            };
            print!("  {v:<7.2}");
        }
        println!();
    }
}

/// Figure 7: `|U_k|/|A_k|` vs `A` and `G`, restriction R3 enforced.
pub fn fig7(steps: u64) {
    print_sweep(
        "Figure 7 — |U_k|/|A_k| vs A and G (R3 enforced)",
        "|U|/|A|",
        true,
        steps,
        false,
    );
}

/// Figure 8: missed-detection proportion (isolated errors classified
/// massive) vs `A` and `G`, restriction R3 **not** enforced.
pub fn fig8(steps: u64) {
    print_sweep(
        "Figure 8 — missed detections vs A and G (R3 not enforced)",
        "isolated classified massive",
        false,
        steps,
        true,
    );
}

/// Figure 9: `|U_k|/|A_k|` vs `A` and `G`, restriction R3 **not** enforced.
pub fn fig9(steps: u64) {
    print_sweep(
        "Figure 9 — |U_k|/|A_k| vs A and G (R3 not enforced)",
        "|U|/|A|",
        false,
        steps,
        false,
    );
}

/// Baseline comparison (the Section II critique, quantified): the local
/// algorithm vs tessellation at several bucket resolutions vs centralized
/// k-means, on a mixed isolated/massive scenario.
pub fn baselines(steps: u64) {
    println!("# Baselines — accuracy vs the paper's local characterization");
    let mut config = ScenarioConfig::paper_defaults(777);
    config.isolated_prob = 0.5;
    let tess4 = TessellationClassifier::new(4, 3);
    let tess16 = TessellationClassifier::new(16, 3);
    let tess64 = TessellationClassifier::new(64, 3);
    let km20 = KMeansClassifier::new(20, 3, 99);
    let km40 = KMeansClassifier::new(40, 3, 99);
    let methods: Vec<&dyn Classifier> = vec![&tess4, &tess16, &tess64, &km20, &km40];
    let report = compare_on_scenario(&config, &methods, steps).expect("valid scenario");
    println!(
        "  {:<28} {:>9} {:>14} {:>15} {:>10}",
        "method", "accuracy", "false-massive", "false-isolated", "undecided"
    );
    for s in &report.scores {
        println!(
            "  {:<28} {:>8.1}% {:>14} {:>15} {:>10}",
            s.name,
            100.0 * s.accuracy(),
            s.false_massive,
            s.false_isolated,
            s.undecided
        );
    }
    println!(
        "  ({} abnormal devices over {} steps)",
        report.abnormal, report.steps
    );
}

/// Section VII-C: the effect of the (locally tunable) sampling frequency
/// on unresolved configurations. A fixed epoch workload of 60 errors is
/// observed at increasing snapshot frequencies; the unresolved ratio should
/// shrink toward zero as each interval carries fewer concomitant errors.
pub fn granularity(steps: u64) {
    let epochs = steps.max(2);
    println!("# Sampling granularity — 60 errors per epoch, G = 0 (massive-heavy)");
    println!("  (n = 1000, r = 0.03, tau = 3, {epochs} epochs per point)");
    let mut base = ScenarioConfig::paper_defaults(20141);
    base.isolated_prob = 0.0;
    let points = granularity_sweep(&base, 60, &[1, 2, 4, 6, 12, 30, 60], epochs, true)
        .expect("valid scenario");
    println!(
        "  {:>10} {:>18} {:>14}",
        "freq/epoch", "errors/interval", "|U|/|A| (%)"
    );
    for p in &points {
        println!(
            "  {:>10} {:>18} {:>14.2}",
            p.frequency, p.errors_per_interval, p.unresolved_pct
        );
    }
    println!("\n  expected: the ratio shrinks as sampling gets finer (Section VII-C).");
}

/// The paper's future-work experiment (Section VIII), realized: how many
/// colluding devices does it take to suppress an honest isolated report?
/// For each density threshold τ, sweeps coalition sizes until the victim's
/// isolated verdict flips — the attack cost the characterization imposes.
pub fn adversary() {
    println!("# Adversary — minimum colluding devices to suppress an isolated report");
    println!("  (n = 400, A = 6, shadow trajectories within r/2 of the victim)");
    println!("  {:<8} {:>24}", "tau", "min winning coalition");
    for tau in [1usize, 2, 3, 4, 6, 8] {
        let mut config = ScenarioConfig::paper_defaults(1_000 + tau as u64);
        config.n = 400;
        config.errors_per_step = 6;
        config.isolated_prob = 0.9;
        config.destination = DestinationModel::Uniform;
        config.params = Params::new(0.03, tau).expect("valid tau");
        let min = minimum_winning_coalition(&config, 2 * tau + 4, 99).expect("valid scenario");
        match min {
            Some(c) => println!("  {tau:<8} {c:>24}"),
            None => println!("  {tau:<8} {:>24}", "no victim / not found"),
        }
    }
    println!("\n  expected: the coalition must reach tau — the threshold is the defence.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_functions_run() {
        fig6a();
        fig6b();
    }

    #[test]
    fn tables_run_on_a_tiny_budget() {
        table2_and_3(1);
    }

    #[test]
    fn sweeps_run_on_a_tiny_budget() {
        print_sweep("smoke", "u", true, 1, false);
    }
}
