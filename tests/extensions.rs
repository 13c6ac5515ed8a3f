//! Integration tests for the extension modules: adversarial collusion
//! (Section VIII future work), sampling granularity (Section VII-C),
//! scenario traces, incident schedules, and the fleet-monitor pipeline.

use anomaly_characterization::core::{AnomalyClass, Params};
use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::network::{
    FaultTarget, Incident, IncidentSchedule, NetworkConfig, NetworkSimulation,
};
use anomaly_characterization::pipeline::MonitorBuilder;
use anomaly_characterization::qos::{DeviceId, Snapshot};
use anomaly_characterization::simulator::adversary::{minimum_winning_coalition, run_attack};
use anomaly_characterization::simulator::sweep::granularity_sweep;
use anomaly_characterization::simulator::trace::Trace;
use anomaly_characterization::simulator::{DestinationModel, ScenarioConfig, Simulation};

fn small_config(seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::paper_defaults(seed);
    c.n = 400;
    c.errors_per_step = 6;
    c
}

/// Attack scenarios use uniform destinations so the victim lands in empty
/// space: the flip must then come from the coalition alone, not from other
/// anomalies that happen to share the degraded corner.
fn attack_config(seed: u64) -> ScenarioConfig {
    let mut c = small_config(seed);
    c.isolated_prob = 0.9;
    c.destination = DestinationModel::Uniform;
    c
}

#[test]
fn collusion_cost_equals_tau_across_thresholds() {
    // The adversary experiment's headline: the density threshold is the
    // attack cost.
    for tau in [2usize, 3, 4] {
        let mut config = attack_config(100 + tau as u64);
        config.params = Params::new(0.03, tau).unwrap();
        let min = minimum_winning_coalition(&config, tau + 3, 7)
            .unwrap()
            .expect("a victim and a winning coalition exist");
        assert_eq!(min, tau, "tau = {tau}");
    }
}

#[test]
fn sub_tau_coalitions_never_suppress() {
    let config = attack_config(200);
    let tau = config.params.tau();
    for c in 0..tau {
        let report = run_attack(&config, c, 11).unwrap().expect("victim exists");
        assert!(
            !report.suppressed(),
            "coalition of {c} < tau must not flip the verdict"
        );
    }
}

#[test]
fn granularity_curve_decreases_to_zero() {
    let mut base = small_config(300);
    base.n = 1000;
    base.isolated_prob = 0.0;
    let points = granularity_sweep(&base, 40, &[1, 4, 40], 3, true).unwrap();
    // Coarsest sampling carries the whole workload per interval; finest has
    // one error per interval and provably no superposition.
    let coarse = points[0].unresolved_pct;
    let fine = points[2].unresolved_pct;
    assert_eq!(points[2].errors_per_interval, 1);
    assert_eq!(fine, 0.0, "one error per interval cannot superpose");
    assert!(coarse >= fine);
}

#[test]
fn trace_roundtrip_preserves_characterization() {
    use anomaly_characterization::core::{AnalyzerCore, TrajectoryTable};
    let mut sim = Simulation::new(small_config(400)).unwrap();
    let outcome = sim.step();
    let mut trace = Trace::new(400, 2, outcome.config.params);
    trace.record(&outcome);
    let parsed = Trace::from_text(&trace.to_text()).unwrap();

    let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
    let original_table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
    let replayed_table = TrajectoryTable::from_state_pair(&parsed.steps[0].pair, &abnormal);
    let a1 = AnalyzerCore::new(&original_table, outcome.config.params);
    let a2 = AnalyzerCore::new(&replayed_table, outcome.config.params);
    assert_eq!(
        a1.classify_all_full(&original_table),
        a2.classify_all_full(&replayed_table)
    );
}

#[test]
fn incident_timeline_through_the_pipeline() {
    // A DSLAM outage with a repair, observed end to end by a v2 Monitor
    // keyed by gateway node ids.
    let mut net = NetworkSimulation::new(NetworkConfig::small(77)).unwrap();
    let dslam = net.topology().dslams()[1];
    // The incident starts well past the detectors' warm-up window and
    // lasts long enough for their residual variance to settle at the
    // degraded level, so the recovery jump is detectable too.
    let mut schedule = IncidentSchedule::new(vec![Incident {
        starts_at: 12,
        duration: Some(6),
        fault: FaultTarget::Node {
            node: dslam,
            severity: 0.5,
        },
    }]);
    // Delta-threshold detectors: they compare each sample with the
    // previous one, so both the downward onset and the upward recovery
    // fire exactly once, and the delta bound absorbs the measurement
    // jitter entirely.
    let mut monitor = MonitorBuilder::new()
        .radius(0.02)
        .tau(3)
        .services(2)
        .detector_factory(|_key| {
            Box::new(VectorDetector::homogeneous(2, || {
                ThresholdDetector::with_delta(0.1)
            }))
        })
        .devices(net.topology().gateways().iter().map(|g| g.0))
        .build()
        .unwrap();

    let mut network_event_steps = Vec::new();
    let mut spurious_isolated = 0usize;
    for step in 0..22u64 {
        let (outcome, _recovered) = schedule.advance(&mut net);
        // Feed the *after* snapshot to the monitor (one sample per step).
        let snap: Snapshot = outcome.pair.after().clone();
        let report = monitor.observe(snap).unwrap();
        if report.has_network_event() {
            network_event_steps.push(step);
        }
        // A σ-gate occasionally flukes on measurement jitter while its
        // variance estimate settles — the false-alarm cost of any
        // residual-band detector. Those surface as isolated one-offs;
        // count them, they must stay rare and never become a storm.
        spurious_isolated += report.operator_notifications().len();
    }
    // Onset (step 12) and recovery (step 18) both register as network events.
    assert_eq!(network_event_steps, vec![12, 18]);
    assert!(
        spurious_isolated <= 3,
        "isolated false alarms must stay rare, got {spurious_isolated}"
    );
}

#[test]
fn attacked_victim_class_flips_to_dense_side() {
    let config = attack_config(500);
    let tau = config.params.tau();
    let report = run_attack(&config, tau + 2, 3).unwrap().expect("victim");
    assert_eq!(report.verdict_clean, AnomalyClass::Isolated);
    assert_ne!(report.verdict_attacked, AnomalyClass::Isolated);
}
