use anomaly_characterization::pipeline::MonitorError;
use anomaly_network::NetworkError;
use anomaly_simulator::SimulationError;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong while generating or evaluating a scenario.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EvalError {
    /// The underlying Monte-Carlo simulator rejected its configuration.
    Simulation(SimulationError),
    /// The ISP network substrate rejected its configuration.
    Network(NetworkError),
    /// The monitor rejected a build parameter, a snapshot, or a churn
    /// operation.
    Monitor(MonitorError),
    /// A scenario configuration is internally inconsistent.
    InvalidScenario {
        /// What was wrong.
        reason: String,
    },
    /// A persisted log is not an evaluation capture (missing step-map
    /// record), or the run it should be scored against churns membership,
    /// so its device keys no longer name ground-truth devices.
    Log {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Simulation(e) => write!(f, "simulator error: {e}"),
            EvalError::Network(e) => write!(f, "network error: {e}"),
            EvalError::Monitor(e) => write!(f, "monitor error: {e}"),
            EvalError::InvalidScenario { reason } => write!(f, "invalid scenario: {reason}"),
            EvalError::Log { reason } => write!(f, "log replay failed: {reason}"),
        }
    }
}

impl Error for EvalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EvalError::Simulation(e) => Some(e),
            EvalError::Network(e) => Some(e),
            EvalError::Monitor(e) => Some(e),
            EvalError::InvalidScenario { .. } => None,
            EvalError::Log { .. } => None,
        }
    }
}

impl From<SimulationError> for EvalError {
    fn from(e: SimulationError) -> Self {
        EvalError::Simulation(e)
    }
}

impl From<NetworkError> for EvalError {
    fn from(e: NetworkError) -> Self {
        EvalError::Network(e)
    }
}

impl From<MonitorError> for EvalError {
    fn from(e: MonitorError) -> Self {
        EvalError::Monitor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_cover_every_variant() {
        let sim: EvalError = SimulationError::ZeroDimension.into();
        assert!(sim.to_string().contains("simulator"));
        assert!(sim.source().is_some());
        let net: EvalError = NetworkError::NoServices.into();
        assert!(net.to_string().contains("network"));
        assert!(net.source().is_some());
        let mon: EvalError = MonitorError::NoServices.into();
        assert!(mon.to_string().contains("monitor"));
        assert!(mon.source().is_some());
        let bad = EvalError::InvalidScenario {
            reason: "oops".into(),
        };
        assert!(bad.to_string().contains("oops"));
        assert!(bad.source().is_none());
    }
}
