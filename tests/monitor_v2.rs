//! Integration tests for the v2 pipeline API: builder validation, report
//! helpers, dynamic fleet churn, and trace replay checked against the
//! omniscient observer.

use anomaly_characterization::core::observer::brute_force_classes;
use anomaly_characterization::core::{AnomalyClass, Params, TrajectoryTable};
use anomaly_characterization::pipeline::{
    DeviceKey, Monitor, MonitorBuilder, MonitorError, Report,
};
use anomaly_characterization::qos::{DeviceId, QosSpace, Snapshot, StatePair};
use anomaly_characterization::simulator::trace::{Trace, TraceStep};
use anomaly_characterization::simulator::GroundTruth;

const BASELINE: f64 = 0.9;

fn space1() -> QosSpace {
    QosSpace::new(1).unwrap()
}

fn snapshot(levels: &[f64]) -> Snapshot {
    Snapshot::from_rows(&space1(), levels.iter().map(|&v| vec![v]).collect()).unwrap()
}

/// A hand-built, chained trace: consecutive steps share snapshots.
fn trace_from_levels(levels: &[Vec<f64>]) -> Trace {
    assert!(levels.len() >= 2);
    let n = levels[0].len();
    let mut trace = Trace::new(n, 1, Params::new(0.03, 3).unwrap());
    for w in levels.windows(2) {
        trace.steps.push(TraceStep {
            pair: StatePair::new(snapshot(&w[0]), snapshot(&w[1])).unwrap(),
            truth: GroundTruth::new(Vec::new()),
        });
    }
    trace
}

fn warmed_monitor(n: usize) -> Monitor {
    let mut m = MonitorBuilder::new().fleet(n).build().unwrap();
    for _ in 0..40 {
        let r = m.observe_rows(vec![vec![BASELINE]; n]).unwrap();
        assert!(r.is_quiet());
    }
    m
}

/// Checks every verdict of `report` against the omniscient observer run on
/// the same interval, restricted to the reported (surviving, flagged)
/// cohort.
fn assert_matches_observer(report: &Report, before: &[f64], after: &[f64], params: Params) {
    assert!(!report.verdicts().is_empty(), "nothing to compare");
    let rows: Vec<(u32, f64, f64)> = report
        .verdicts()
        .iter()
        .map(|v| (v.id.0, before[v.id.index()], after[v.id.index()]))
        .collect();
    let table = TrajectoryTable::from_pairs_1d(&rows);
    let truth = brute_force_classes(&table, &params, 5_000_000);
    for v in report.verdicts() {
        assert_eq!(
            Some(v.class()),
            truth.class_of(v.id),
            "device {} (id {}) disagrees with the observer",
            v.key,
            v.id,
        );
    }
}

#[test]
fn run_trace_replays_a_recorded_incident() {
    let mut m = warmed_monitor(8);
    // One incident step: devices 0..5 drop together (massive), device 6
    // fails alone (isolated), device 7 stays healthy. Then recovery.
    let healthy = vec![BASELINE; 8];
    let incident = vec![0.45, 0.46, 0.44, 0.452, 0.458, 0.443, 0.10, BASELINE];
    let trace = trace_from_levels(&[healthy.clone(), incident.clone()]);

    let reports = m.run_trace(&trace).unwrap();
    // The trace's first snapshot equals the monitor's last warm-up
    // snapshot, so chaining feeds exactly one new observation.
    assert_eq!(reports.len(), 1);

    let hit = &reports[0];
    assert_eq!(hit.verdicts().len(), 7, "device 7 never flags");
    assert_eq!(hit.class_of(DeviceKey(0)), Some(AnomalyClass::Massive));
    assert_eq!(hit.class_of(DeviceKey(6)), Some(AnomalyClass::Isolated));
    assert_eq!(hit.operator_notifications(), vec![DeviceKey(6)]);
    assert_matches_observer(hit, &healthy, &incident, m.params());
}

#[test]
fn churn_between_trace_segments_matches_observer_on_survivors() {
    let mut m = warmed_monitor(8);

    // Segment 1: a shared incident and recovery over the full fleet.
    let healthy = vec![BASELINE; 8];
    let incident = vec![0.45, 0.46, 0.44, 0.452, 0.458, 0.443, 0.10, BASELINE];
    let seg1 = trace_from_levels(&[healthy.clone(), incident, healthy.clone()]);
    m.run_trace(&seg1).unwrap();
    // Let the detectors' residual bands settle back at the healthy level.
    for _ in 0..40 {
        m.observe_rows(vec![vec![BASELINE]; 8]).unwrap();
    }

    // Churn: devices 6 and 7 leave, devices 100 and 101 join with fresh
    // detectors. Dense slots 6 and 7 are re-used by the joiners.
    m.leave(6u64).unwrap();
    m.leave(7u64).unwrap();
    m.join(100u64).unwrap();
    m.join(101u64).unwrap();
    assert_eq!(m.population(), 8);
    assert_eq!(m.id_of(DeviceKey(100)), Some(DeviceId(6)));

    // Segment 2: devices 0..4 drop together, device 5 fails alone, the two
    // joiners show degraded-but-fresh levels.
    let second = vec![0.45, 0.46, 0.44, 0.452, 0.458, 0.10, 0.20, 0.22];
    let seg2 = trace_from_levels(&[healthy.clone(), second.clone()]);
    let reports = m.run_trace(&seg2).unwrap();
    assert_eq!(reports.len(), 1, "segment 2 chains onto segment 1");

    let r = &reports[0];
    // Only survivors (keys 0..5) can be characterized; the joiners' fresh
    // detectors have no history, so they are not even flagged.
    assert_eq!(r.verdicts().len(), 6);
    assert!(r.class_of(DeviceKey(100)).is_none());
    assert!(r.class_of(DeviceKey(101)).is_none());
    assert_eq!(r.class_of(DeviceKey(0)), Some(AnomalyClass::Massive));
    assert_eq!(r.class_of(DeviceKey(5)), Some(AnomalyClass::Isolated));
    assert_eq!(r.operator_notifications(), vec![DeviceKey(5)]);

    // The verdicts over the surviving cohort agree with the omniscient
    // observer enumerating every anomaly partition of that cohort.
    assert_matches_observer(r, &healthy, &second, m.params());
}

#[test]
fn run_trace_validates_population_and_dimension_before_feeding() {
    let mut m = warmed_monitor(4);
    let instant_before = m.instant();

    let wrong_n = trace_from_levels(&[vec![BASELINE; 5], vec![0.4; 5]]);
    assert_eq!(
        m.run_trace(&wrong_n).unwrap_err(),
        MonitorError::PopulationMismatch {
            expected: 4,
            actual: 5,
        }
    );

    let mut wrong_dim = Trace::new(4, 2, Params::new(0.03, 3).unwrap());
    let space2 = QosSpace::new(2).unwrap();
    let flat = Snapshot::from_rows(&space2, vec![vec![0.9, 0.9]; 4]).unwrap();
    wrong_dim.steps.push(TraceStep {
        pair: StatePair::new(flat.clone(), flat).unwrap(),
        truth: GroundTruth::new(Vec::new()),
    });
    assert_eq!(
        m.run_trace(&wrong_dim).unwrap_err(),
        MonitorError::ServiceMismatch {
            expected: 1,
            actual: 2,
        }
    );

    // A trace whose header agrees with the fleet but whose *steps* do not
    // (Trace fields are public, hand-built traces can lie) is rejected
    // before anything is fed — the monitor never ends up half-advanced.
    let mut lying = trace_from_levels(&[vec![BASELINE; 4], vec![0.4; 4]]);
    lying
        .steps
        .push(trace_from_levels(&[vec![BASELINE; 5], vec![0.4; 5]]).steps[0].clone());
    assert_eq!(
        m.run_trace(&lying).unwrap_err(),
        MonitorError::PopulationMismatch {
            expected: 4,
            actual: 5,
        }
    );

    // Nothing was fed on any failure.
    assert_eq!(m.instant(), instant_before);
}

#[test]
fn report_helpers_on_an_empty_fleet() {
    let mut m = MonitorBuilder::new().build().unwrap();
    let r = m.observe_rows(vec![]).unwrap();
    assert!(r.is_quiet());
    assert_eq!(r.population(), 0);
    assert_eq!(r.verdicts(), &[]);
    assert_eq!(r.warming(), &[]);
    assert!(r.operator_notifications().is_empty());
    assert!(!r.has_network_event());
    assert!(r.class_of(DeviceKey(0)).is_none());
    assert_eq!(r.count_of(AnomalyClass::Massive), 0);
    let summary = r.summary();
    assert_eq!(summary.abnormal, 0);
    assert!(summary.to_json().contains("\"abnormal\":0"));
    // An empty fleet can still replay an (empty-population) trace.
    let empty = Trace::new(0, 1, Params::new(0.03, 3).unwrap());
    assert_eq!(m.run_trace(&empty).unwrap().len(), 0);
}

#[test]
fn report_iterators_and_summary_partition_the_abnormal_set() {
    let mut m = warmed_monitor(8);
    let rows: Vec<Vec<f64>> = [0.45, 0.46, 0.44, 0.452, 0.458, 0.443, 0.10, BASELINE]
        .iter()
        .map(|&v| vec![v])
        .collect();
    let r = m.observe_rows(rows).unwrap();
    let isolated = r.isolated().count();
    let massive = r.massive().count();
    let unresolved = r.unresolved().count();
    assert_eq!(isolated + massive + unresolved, r.verdicts().len());
    assert_eq!(isolated, r.count_of(AnomalyClass::Isolated));
    let s = r.summary();
    assert_eq!(s.abnormal, r.verdicts().len());
    assert_eq!(s.isolated, isolated);
    assert_eq!(s.massive, massive);
    assert_eq!(s.unresolved, unresolved);
    assert_eq!(s.population, 8);
    let text = s.to_string();
    assert!(text.contains("abnormal="));
    let json = s.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains(&format!("\"massive\":{massive}")));
}

#[test]
fn radius_boundaries_are_enforced_through_the_builder() {
    // Definition 1: r ∈ [0, 1/4). The same boundaries as
    // `anomaly_qos::validate_radius`, surfaced as MonitorError::Params.
    assert!(MonitorBuilder::new().radius(0.0).fleet(2).build().is_ok());
    assert!(MonitorBuilder::new()
        .radius(0.25 - 1e-9)
        .fleet(2)
        .build()
        .is_ok());
    for bad in [0.25, 0.5, -1e-9, f64::NAN] {
        assert!(
            matches!(
                MonitorBuilder::new().radius(bad).fleet(2).build(),
                Err(MonitorError::Params(_))
            ),
            "radius {bad} must be rejected"
        );
    }
    assert_eq!(
        anomaly_characterization::qos::validate_radius(0.25 - 1e-9).unwrap(),
        0.25 - 1e-9
    );
    assert!(anomaly_characterization::qos::validate_radius(0.25).is_err());
}

#[test]
fn heterogeneous_detector_fleets_mix_families() {
    use anomaly_characterization::detectors::{
        DeviceDetector, EwmaDetector, ThresholdDetector, VectorDetector,
    };
    let mut m = MonitorBuilder::new()
        .detector_factory(|key| -> Box<dyn DeviceDetector> {
            match key.0 % 3 {
                0 => Box::new(EwmaDetector::new(0.3, 4.0)),
                1 => Box::new(ThresholdDetector::with_delta(0.2)),
                _ => Box::new(VectorDetector::homogeneous(1, || {
                    EwmaDetector::new(0.5, 4.0)
                })),
            }
        })
        .fleet(9)
        .build()
        .unwrap();
    for _ in 0..40 {
        assert!(m.observe_rows(vec![vec![BASELINE]; 9]).unwrap().is_quiet());
    }
    // A fleet-wide collapse is flagged by every detector family.
    let r = m.observe_rows(vec![vec![0.2]; 9]).unwrap();
    assert_eq!(r.verdicts().len(), 9);
    assert!(r.has_network_event());
}
