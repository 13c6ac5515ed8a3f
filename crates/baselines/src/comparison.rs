//! Scoring harness: baselines vs the paper's local algorithms on identical
//! simulated scenarios.
//!
//! Ground truth comes from the simulator's injected errors: a device is
//! truly massive when its error impacted more than `τ` devices. Baselines
//! answer massive/isolated; `anomaly-core` may also answer unresolved, which
//! the scoring counts separately (it is an honest "cannot know" rather than
//! a guess).

use crate::Classifier;
use anomaly_core::{AnalyzerCore, AnomalyClass, TrajectoryTable};
use anomaly_qos::DeviceId;
use anomaly_simulator::score::{self, Confusion, Prediction, TruthClass};
use anomaly_simulator::{runner, ScenarioConfig, Simulation, StepOutcome};

/// Confusion counts for one method on one scenario — a named view over the
/// full [`Confusion`] matrix of `anomaly_simulator::score`, kept for the
/// established comparison workflow (`anomaly-eval` consumes the matrix
/// directly).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MethodScore {
    /// Method name.
    pub name: String,
    /// Devices classified correctly (massive as massive, isolated as
    /// isolated).
    pub correct: u64,
    /// Truly-isolated devices reported massive (false alarms towards the
    /// operator's "network event" side).
    pub false_massive: u64,
    /// Truly-massive devices reported isolated (each one needlessly calls
    /// the ISP help desk).
    pub false_isolated: u64,
    /// Devices the method declined to classify (unresolved; `anomaly-core`
    /// only).
    pub undecided: u64,
}

impl MethodScore {
    /// Collapses a confusion matrix into the four named counters.
    pub fn from_confusion(name: impl Into<String>, confusion: &Confusion) -> Self {
        MethodScore {
            name: name.into(),
            correct: confusion.correct(),
            false_massive: confusion.count(TruthClass::Isolated, Prediction::Massive),
            false_isolated: confusion.count(TruthClass::Massive, Prediction::Isolated),
            undecided: confusion.undecided(),
        }
    }

    /// Total devices scored.
    pub fn total(&self) -> u64 {
        self.correct + self.false_massive + self.false_isolated + self.undecided
    }

    /// Fraction of decided devices that were correct.
    pub fn accuracy(&self) -> f64 {
        let decided = self.total() - self.undecided;
        if decided == 0 {
            0.0
        } else {
            self.correct as f64 / decided as f64
        }
    }
}

/// Comparison of all methods over a batch of simulated steps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComparisonReport {
    /// One score per method, in the order supplied.
    pub scores: Vec<MethodScore>,
    /// Steps simulated.
    pub steps: u64,
    /// Total abnormal devices scored.
    pub abnormal: u64,
}

fn score_step(
    confusion: &mut Confusion,
    outcome: &StepOutcome,
    classes: &[(DeviceId, AnomalyClass)],
) {
    score::score_step_classes(
        confusion,
        &outcome.truth,
        outcome.config.params.tau(),
        classes,
    );
}

/// Runs `steps` simulation intervals and scores the paper's local algorithm
/// (first entry, named "local (this paper)") against every supplied
/// baseline on the same data.
///
/// # Errors
///
/// Propagates simulator configuration errors.
pub fn compare_on_scenario(
    config: &ScenarioConfig,
    baselines: &[&dyn Classifier],
    steps: u64,
) -> Result<ComparisonReport, anomaly_simulator::SimulationError> {
    let mut sim = Simulation::new(config.clone())?;
    let mut abnormal_total = 0u64;
    let mut confusions: Vec<Confusion> = vec![Confusion::new(); baselines.len() + 1];

    for _ in 0..steps {
        let outcome = sim.step();
        let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
        abnormal_total += abnormal.len() as u64;

        // The paper's local characterization (exact pipeline).
        let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
        let analyzer = AnalyzerCore::new(&table, outcome.config.params);
        let local: Vec<(DeviceId, AnomalyClass)> = abnormal
            .iter()
            .map(|&j| (j, analyzer.characterize_full(&table, j).class()))
            .collect();
        score_step(&mut confusions[0], &outcome, &local);

        // Baselines.
        for (i, b) in baselines.iter().enumerate() {
            let classes = b.classify(&outcome.pair, &abnormal);
            score_step(&mut confusions[i + 1], &outcome, &classes);
        }
    }

    let names =
        std::iter::once("local (this paper)".to_string()).chain(baselines.iter().map(|b| b.name()));
    Ok(ComparisonReport {
        scores: names
            .zip(&confusions)
            .map(|(name, c)| MethodScore::from_confusion(name, c))
            .collect(),
        steps,
        abnormal: abnormal_total,
    })
}

// Re-exported convenience: run a step report for the local method only.
pub use runner::analyze_step as local_step_report;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KMeansClassifier, TessellationClassifier};

    fn config() -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_defaults(5);
        c.n = 400;
        c.errors_per_step = 8;
        c
    }

    #[test]
    fn report_covers_all_methods_and_devices() {
        let tess = TessellationClassifier::new(8, 3);
        let km = KMeansClassifier::new(8, 3, 1);
        let report = compare_on_scenario(&config(), &[&tess, &km], 2).unwrap();
        assert_eq!(report.scores.len(), 3);
        assert_eq!(report.scores[0].name, "local (this paper)");
        for s in &report.scores {
            assert_eq!(s.total(), report.abnormal, "{}", s.name);
        }
    }

    #[test]
    fn local_method_beats_degenerate_tessellation() {
        // A 1-cell tessellation calls everything massive; the local method
        // must be strictly more accurate on a mixed scenario.
        let mut c = config();
        c.isolated_prob = 0.6;
        let tess = TessellationClassifier::new(1, 3);
        let report = compare_on_scenario(&c, &[&tess], 3).unwrap();
        let local = &report.scores[0];
        let degenerate = &report.scores[1];
        assert!(
            local.accuracy() > degenerate.accuracy(),
            "local {:.3} vs degenerate {:.3}",
            local.accuracy(),
            degenerate.accuracy()
        );
    }

    #[test]
    fn baselines_never_abstain() {
        let tess = TessellationClassifier::new(16, 3);
        let report = compare_on_scenario(&config(), &[&tess], 2).unwrap();
        assert_eq!(report.scores[1].undecided, 0);
    }

    #[test]
    fn accuracy_handles_empty_score() {
        assert_eq!(MethodScore::default().accuracy(), 0.0);
    }
}
