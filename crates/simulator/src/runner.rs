//! Characterization of simulated steps and scoring against ground truth.
//!
//! Feeds the flagged devices of a [`StepOutcome`] to the local algorithms of
//! `anomaly-core` and reports the per-class populations, the operation
//! costs (Table III), and the confusion against the real scenario `R_k`
//! (Figure 8's missed-detection measure).

use crate::generator::StepOutcome;
use anomaly_core::{AnalyzerCore, AnomalyClass, Rule, TrajectoryTable};
use anomaly_qos::DeviceId;

/// Per-step characterization summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepReport {
    /// `|A_k|` — flagged devices.
    pub abnormal: usize,
    /// Devices isolated by Theorem 5.
    pub isolated: usize,
    /// Devices massive by Theorem 6 (Algorithm 3 fast path).
    pub massive_thm6: usize,
    /// Devices massive only via the Theorem 7 NSC (0 when `full` is false).
    pub massive_thm7: usize,
    /// Devices left unresolved (Corollary 8 when `full`, Algorithm 3
    /// otherwise).
    pub unresolved: usize,
    /// Devices impacted by an effectively-isolated error but classified
    /// massive — the Figure 8 measure (restriction R3 misfires).
    pub missed_isolated_as_massive: usize,
    /// Average `|M(j)|` over Theorem 5 devices (Table III, col. 1).
    pub avg_motions_isolated: f64,
    /// Average `|W̄(j)|` over Theorem 6 devices (Table III, col. 2).
    pub avg_dense_massive6: f64,
    /// Average collections tested over Corollary 8 devices (Table III, col. 3).
    pub avg_collections_unresolved: f64,
    /// Average collections tested over Theorem 7 devices (Table III, col. 4).
    pub avg_collections_massive7: f64,
}

impl StepReport {
    /// `|U_k| / |A_k|`, the Figures 7/9 ratio (0 when `A_k` is empty).
    pub fn unresolved_ratio(&self) -> f64 {
        if self.abnormal == 0 {
            0.0
        } else {
            self.unresolved as f64 / self.abnormal as f64
        }
    }

    /// Missed-detection rate: isolated-truth devices classified massive,
    /// over `|A_k|` (Figure 8's y-axis).
    pub fn missed_rate(&self) -> f64 {
        if self.abnormal == 0 {
            0.0
        } else {
            self.missed_isolated_as_massive as f64 / self.abnormal as f64
        }
    }
}

/// Characterizes every flagged device of `outcome`.
///
/// With `full = true` the exact NSC of Theorem 7 resolves the Algorithm 3
/// fall-through (the paper's full pipeline); with `false` only the cheap
/// conditions run.
pub fn analyze_step(outcome: &StepOutcome, full: bool) -> StepReport {
    let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
    let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
    let analyzer = AnalyzerCore::new(&table, outcome.config.params);
    let tau = outcome.config.params.tau();
    let truth_isolated = outcome.truth.isolated_devices(tau);

    let mut report = StepReport {
        abnormal: abnormal.len(),
        ..StepReport::default()
    };
    let mut sum_motions_isolated = 0u64;
    let mut sum_dense_massive6 = 0u64;
    let mut sum_coll_unresolved = 0u64;
    let mut sum_coll_massive7 = 0u64;

    for &j in &abnormal {
        let c = if full {
            analyzer.characterize_full(&table, j)
        } else {
            analyzer.characterize(j)
        };
        match (c.class(), c.rule()) {
            (AnomalyClass::Isolated, _) => {
                report.isolated += 1;
                sum_motions_isolated += c.cost().maximal_motions as u64;
            }
            (AnomalyClass::Massive, Rule::Theorem6) => {
                report.massive_thm6 += 1;
                sum_dense_massive6 += c.cost().dense_motions as u64;
            }
            (AnomalyClass::Massive, _) => {
                report.massive_thm7 += 1;
                sum_coll_massive7 += c.cost().collections_tested;
            }
            (AnomalyClass::Unresolved, _) => {
                report.unresolved += 1;
                sum_coll_unresolved += c.cost().collections_tested;
            }
        }
        if c.class() == AnomalyClass::Massive && truth_isolated.contains(j) {
            report.missed_isolated_as_massive += 1;
        }
    }

    report.avg_motions_isolated = mean(sum_motions_isolated, report.isolated);
    report.avg_dense_massive6 = mean(sum_dense_massive6, report.massive_thm6);
    report.avg_collections_unresolved = mean(sum_coll_unresolved, report.unresolved);
    report.avg_collections_massive7 = mean(sum_coll_massive7, report.massive_thm7);
    report
}

fn mean(sum: u64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::generator::Simulation;

    fn run_one(seed: u64, full: bool) -> StepReport {
        let mut config = ScenarioConfig::paper_defaults(seed);
        config.n = 400;
        config.errors_per_step = 10;
        let mut sim = Simulation::new(config).unwrap();
        analyze_step(&sim.step(), full)
    }

    #[test]
    fn classes_partition_the_abnormal_set() {
        for seed in [1u64, 2, 3] {
            for full in [false, true] {
                let r = run_one(seed, full);
                assert_eq!(
                    r.isolated + r.massive_thm6 + r.massive_thm7 + r.unresolved,
                    r.abnormal,
                    "seed {seed} full {full}"
                );
            }
        }
    }

    #[test]
    fn quick_mode_never_uses_theorem_7() {
        let r = run_one(5, false);
        assert_eq!(r.massive_thm7, 0);
    }

    #[test]
    fn full_mode_has_no_more_unresolved_than_quick() {
        for seed in [7u64, 8, 9] {
            let quick = run_one(seed, false);
            let full = run_one(seed, true);
            assert!(full.unresolved <= quick.unresolved);
            assert_eq!(full.abnormal, quick.abnormal);
        }
    }

    #[test]
    fn mostly_massive_scenario_classifies_mostly_massive() {
        // Dense population, G ≈ 0: the bulk of A_k should be massive
        // (Table II's regime: ~88% via Theorem 6).
        let mut config = ScenarioConfig::paper_defaults(11);
        config.n = 2000;
        config.errors_per_step = 10;
        config.isolated_prob = 0.0;
        let mut sim = Simulation::new(config).unwrap();
        let r = analyze_step(&sim.step(), true);
        assert!(r.abnormal > 0);
        let massive = r.massive_thm6 + r.massive_thm7;
        assert!(
            massive as f64 > 0.5 * r.abnormal as f64,
            "expected mostly massive, got {r:?}"
        );
    }

    #[test]
    fn only_isolated_scenario_classifies_mostly_isolated() {
        let mut config = ScenarioConfig::paper_defaults(13);
        config.n = 400;
        config.errors_per_step = 10;
        config.isolated_prob = 1.0;
        let mut sim = Simulation::new(config).unwrap();
        let r = analyze_step(&sim.step(), true);
        assert!(r.abnormal > 0);
        assert!(
            r.isolated as f64 > 0.8 * r.abnormal as f64,
            "expected mostly isolated, got {r:?}"
        );
    }

    #[test]
    fn ratios_are_well_defined() {
        let r = StepReport::default();
        assert_eq!(r.unresolved_ratio(), 0.0);
        assert_eq!(r.missed_rate(), 0.0);
        let r = StepReport {
            abnormal: 10,
            unresolved: 2,
            missed_isolated_as_massive: 1,
            ..StepReport::default()
        };
        assert!((r.unresolved_ratio() - 0.2).abs() < 1e-12);
        assert!((r.missed_rate() - 0.1).abs() < 1e-12);
    }
}
