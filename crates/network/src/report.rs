//! The operator-facing decision layer — the paper's motivating use case.
//!
//! *"It would be very interesting to have procedures that allow gateways to
//! self distinguish whether their dysfunction is caused by network-level
//! anomalies or by their own hardware or software, and to notify the service
//! provider only in the latter case."* (Section I)
//!
//! [`gateway_reports`] runs the local characterization over a network step
//! and translates each verdict into the action the paper prescribes:
//!
//! * **Isolated** → the gateway calls the ISP (a real CPE problem that the
//!   operator cannot see from the network side);
//! * **Massive** → the gateway stays silent towards the ISP but the event is
//!   surfaced to over-the-top operators (a network-level incident);
//! * **Unresolved** → the gateway defers (re-samples sooner, per the
//!   granularity discussion of Section VII-C).

use crate::sim::StepOutcome;
use anomaly_core::{AnalyzerCore, AnomalyClass, Params, TrajectoryTable};
use anomaly_qos::DeviceId;

/// What a gateway should do after self-characterizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportAction {
    /// Call the ISP help desk: the problem is local to this gateway.
    NotifyIsp,
    /// Stay silent towards the ISP; flag a network-level event to OTT
    /// operators.
    NotifyOtt,
    /// Increase the sampling frequency and retry (unresolved configuration).
    Defer,
}

/// One gateway's verdict and resulting action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayReport {
    /// The gateway's pipeline device id (its index among all gateways).
    pub device: DeviceId,
    /// The local characterization verdict.
    pub class: AnomalyClass,
    /// The action the paper prescribes for that verdict.
    pub action: ReportAction,
}

/// Characterizes every impacted gateway of a network step and derives its
/// reporting action.
///
/// Uses the exact pipeline (Theorem 7 NSC) so unresolved verdicts are
/// genuine, not fast-path fall-throughs.
pub fn gateway_reports(outcome: &StepOutcome, params: Params) -> Vec<GatewayReport> {
    let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
    let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
    let analyzer = AnalyzerCore::new(&table, params);
    abnormal
        .into_iter()
        .map(|device| {
            let class = analyzer.characterize_full(&table, device).class();
            let action = match class {
                AnomalyClass::Isolated => ReportAction::NotifyIsp,
                AnomalyClass::Massive => ReportAction::NotifyOtt,
                AnomalyClass::Unresolved => ReportAction::Defer,
            };
            GatewayReport {
                device,
                class,
                action,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FaultTarget, NetworkConfig, NetworkSimulation};

    fn params() -> Params {
        // Gateways under one faulted DSLAM share a displacement of the same
        // magnitude; measurement jitter is ±0.005, so r = 0.02 comfortably
        // groups them. τ = 3 < 16 gateways per DSLAM.
        Params::new(0.02, 3).unwrap()
    }

    #[test]
    fn dslam_fault_suppresses_isp_calls() {
        let mut net = NetworkSimulation::new(NetworkConfig::small(41)).unwrap();
        let dslam = net.topology().dslams()[1];
        let out = net.step(vec![FaultTarget::Node {
            node: dslam,
            severity: 0.5,
        }]);
        let reports = gateway_reports(&out, params());
        assert_eq!(reports.len(), 16);
        for r in &reports {
            assert_eq!(r.class, AnomalyClass::Massive, "gateway {}", r.device);
            assert_eq!(r.action, ReportAction::NotifyOtt);
        }
    }

    #[test]
    fn cpe_fault_calls_the_isp() {
        let mut net = NetworkSimulation::new(NetworkConfig::small(43)).unwrap();
        let gw = net.topology().gateways()[7];
        let out = net.step(vec![FaultTarget::Gateway {
            gateway: gw,
            severity: 0.6,
        }]);
        let reports = gateway_reports(&out, params());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].class, AnomalyClass::Isolated);
        assert_eq!(reports[0].action, ReportAction::NotifyIsp);
    }

    #[test]
    fn mixed_faults_are_told_apart() {
        let mut net = NetworkSimulation::new(NetworkConfig::small(47)).unwrap();
        let dslam = net.topology().dslams()[0];
        // Pick a CPE on a *different* DSLAM so trajectories do not overlap.
        let lone_gw = net
            .topology()
            .downstream_gateways(net.topology().dslams()[3])[0];
        let out = net.step(vec![
            FaultTarget::Node {
                node: dslam,
                severity: 0.5,
            },
            FaultTarget::Gateway {
                gateway: lone_gw,
                severity: 0.8,
            },
        ]);
        let reports = gateway_reports(&out, params());
        let isp_calls: Vec<_> = reports
            .iter()
            .filter(|r| r.action == ReportAction::NotifyIsp)
            .collect();
        let ott_events: Vec<_> = reports
            .iter()
            .filter(|r| r.action == ReportAction::NotifyOtt)
            .collect();
        assert_eq!(isp_calls.len(), 1, "only the CPE fault calls the ISP");
        assert_eq!(
            ott_events.len(),
            16,
            "the whole DSLAM subtree is a network event"
        );
    }
}
