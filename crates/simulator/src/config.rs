use anomaly_core::{Params, ParamsError};
use std::error::Error;
use std::fmt;

/// Where impacted groups are displaced to.
///
/// The paper says groups move "to another location uniformly chosen in E".
/// With fully uniform destinations, two anomalies almost never land within
/// `2r` of each other, so the motion superpositions behind the paper's
/// unresolved-configuration counts (Table II: 8.72%) cannot arise at the
/// reported rate. [`DestinationModel::Degradation`] biases destinations
/// toward the low-QoS corner — faults degrade service, they do not teleport
/// it to random quality levels — which recreates the superposition regime;
/// see the README's "Reproduction gaps" section for the calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DestinationModel {
    /// Destinations uniform over the whole space (the paper's literal text).
    Uniform,
    /// Destinations concentrated in `[0, scale]^d` with density increasing
    /// toward 0 (cubic bias): degraded QoS clusters near the bottom.
    Degradation {
        /// Upper edge of the degraded region, in `(0, 1]`.
        scale: f64,
    },
}

/// Parameters of one simulated scenario (Section VII-A of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Population size `n`.
    pub n: usize,
    /// Number of services `d` (the QoS space dimension).
    pub dim: usize,
    /// Number of errors `A` generated between two snapshots.
    pub errors_per_step: usize,
    /// Probability `G` that an error is isolated (impacts `≤ τ` devices).
    pub isolated_prob: f64,
    /// Characterization parameters `r` and `τ`.
    pub params: Params,
    /// Destination model for displaced groups.
    pub destination: DestinationModel,
    /// When true, isolated errors re-draw their destination if they would
    /// coincidentally land inside a dense motion of other impacted devices —
    /// i.e. the generator *enforces* restriction R3. Figures 8 and 9 study
    /// the `false` setting.
    pub enforce_r3: bool,
    /// RNG seed (runs are deterministic given the config).
    pub seed: u64,
}

/// Errors raised when building a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimulationError {
    /// Fewer than two devices, or fewer devices than `τ + 2`.
    PopulationTooSmall {
        /// Configured population.
        n: usize,
    },
    /// `G` outside `[0,1]`.
    InvalidProbability {
        /// Offending value.
        value: f64,
    },
    /// Zero dimension.
    ZeroDimension,
    /// Invalid `r`/`τ`.
    Params(ParamsError),
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::PopulationTooSmall { n } => {
                write!(f, "population {n} is too small to simulate anomalies")
            }
            SimulationError::InvalidProbability { value } => {
                write!(f, "isolated-error probability {value} is not in [0,1]")
            }
            SimulationError::ZeroDimension => write!(f, "QoS space dimension must be positive"),
            SimulationError::Params(e) => write!(f, "invalid characterization parameters: {e}"),
        }
    }
}

impl Error for SimulationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimulationError::Params(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamsError> for SimulationError {
    fn from(e: ParamsError) -> Self {
        SimulationError::Params(e)
    }
}

impl ScenarioConfig {
    /// The paper's operating point: `n = 1000`, `d = 2`, `A = 20`,
    /// `r = 0.03`, `τ = 3`, mostly-massive errors (`G = 0.05`), R3 enforced.
    pub fn paper_defaults(seed: u64) -> Self {
        ScenarioConfig {
            n: 1000,
            dim: 2,
            errors_per_step: 20,
            isolated_prob: 0.08,
            params: Params::PAPER,
            destination: DestinationModel::Degradation { scale: 0.20 },
            enforce_r3: true,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// See [`SimulationError`].
    pub fn validate(&self) -> Result<(), SimulationError> {
        if self.dim == 0 {
            return Err(SimulationError::ZeroDimension);
        }
        if self.n < self.params.tau() + 2 {
            return Err(SimulationError::PopulationTooSmall { n: self.n });
        }
        if !self.isolated_prob.is_finite() || !(0.0..=1.0).contains(&self.isolated_prob) {
            return Err(SimulationError::InvalidProbability {
                value: self.isolated_prob,
            });
        }
        if let DestinationModel::Degradation { scale } = self.destination {
            if !scale.is_finite() || !(0.0..=1.0).contains(&scale) || scale == 0.0 {
                return Err(SimulationError::InvalidProbability { value: scale });
            }
        }
        Ok(())
    }

    /// Returns a copy with a different error count `A` (sweep helper).
    pub fn with_errors_per_step(&self, a: usize) -> Self {
        ScenarioConfig {
            errors_per_step: a,
            ..self.clone()
        }
    }

    /// Returns a copy with a different isolated probability `G`.
    pub fn with_isolated_prob(&self, g: f64) -> Self {
        ScenarioConfig {
            isolated_prob: g,
            ..self.clone()
        }
    }

    /// Returns a copy with R3 enforcement toggled.
    pub fn with_enforce_r3(&self, enforce: bool) -> Self {
        ScenarioConfig {
            enforce_r3: enforce,
            ..self.clone()
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(&self, seed: u64) -> Self {
        ScenarioConfig {
            seed,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        assert!(ScenarioConfig::paper_defaults(1).validate().is_ok());
    }

    #[test]
    fn rejects_tiny_population() {
        let mut c = ScenarioConfig::paper_defaults(1);
        c.n = 3;
        assert!(matches!(
            c.validate(),
            Err(SimulationError::PopulationTooSmall { .. })
        ));
    }

    #[test]
    fn rejects_bad_probability() {
        let mut c = ScenarioConfig::paper_defaults(1);
        c.isolated_prob = 1.5;
        assert!(matches!(
            c.validate(),
            Err(SimulationError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn rejects_zero_dimension() {
        let mut c = ScenarioConfig::paper_defaults(1);
        c.dim = 0;
        assert_eq!(c.validate(), Err(SimulationError::ZeroDimension));
    }

    #[test]
    fn builder_helpers_change_one_field() {
        let c = ScenarioConfig::paper_defaults(1);
        assert_eq!(c.with_errors_per_step(40).errors_per_step, 40);
        assert_eq!(c.with_isolated_prob(0.7).isolated_prob, 0.7);
        assert!(!c.with_enforce_r3(false).enforce_r3);
        assert_eq!(c.with_seed(9).seed, 9);
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = SimulationError::Params(anomaly_core::Params::new(0.9, 1).unwrap_err());
        assert!(e.to_string().contains("invalid"));
        assert!(e.source().is_some());
        assert!(SimulationError::ZeroDimension.source().is_none());
    }
}
