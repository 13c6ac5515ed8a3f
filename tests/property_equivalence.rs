//! Property-based equivalence: on random small fleets, the deployed
//! `Monitor` (any engine) must classify every flagged device exactly as the
//! omniscient observer does by enumerating all anomaly partitions
//! (Relations (2)–(3), Definition 8) — across random radii, densities,
//! dimensions, and populations.
//!
//! Populations stay at `n ≤ 12` because the observer's partition count
//! grows with the Bell numbers; the vendored proptest shim is seeded per
//! test, so a passing run is reproducible everywhere.
//!
//! The file also checks Section V's locality claim, on which the monitor's
//! cache invalidation radius rests: a device decides from the devices
//! within motion distance `4r` of it exactly as from the whole state.

use anomaly_characterization::core::observer::brute_force_classes;
use anomaly_characterization::core::{AnalyzerCore, AnomalyClass, Params, TrajectoryTable};
use anomaly_characterization::detectors::{DeviceDetector, Verdict};
use anomaly_characterization::pipeline::{Engine, MonitorBuilder};
use anomaly_characterization::qos::{DeviceId, QosSpace, Snapshot, StatePair};
use proptest::prelude::*;

/// Flags every observation after the first — turning the whole fleet into
/// `A_k` so the equivalence is checked on every device.
struct AlwaysFlag {
    services: usize,
    warmed: bool,
}

impl DeviceDetector for AlwaysFlag {
    fn services(&self) -> usize {
        self.services
    }

    fn observe_vector(&mut self, values: &[f64]) -> Verdict {
        assert_eq!(values.len(), self.services);
        let flag = self.warmed;
        self.warmed = true;
        Verdict::new(flag, 1.0, None)
    }

    fn reset(&mut self) {
        self.warmed = false;
    }

    fn description(&self) -> String {
        "always-flag".to_string()
    }
}

/// Feeds the two snapshots through a monitor with the given engine and
/// checks every verdict against the observer's ground truth.
fn check_engine_against_observer(
    engine: Engine,
    rows_before: &[Vec<f64>],
    rows_after: &[Vec<f64>],
    radius: f64,
    tau: usize,
) {
    let n = rows_before.len();
    let d = rows_before[0].len();
    let space = QosSpace::new(d).unwrap();
    let before = Snapshot::from_rows(&space, rows_before.to_vec()).unwrap();
    let after = Snapshot::from_rows(&space, rows_after.to_vec()).unwrap();

    let mut monitor = MonitorBuilder::new()
        .radius(radius)
        .tau(tau)
        .services(d)
        .engine(engine)
        .detector_factory(move |_| {
            Box::new(AlwaysFlag {
                services: d,
                warmed: false,
            })
        })
        .fleet(n)
        .build()
        .unwrap();
    let warmup = monitor.observe(before.clone()).unwrap();
    assert!(warmup.verdicts().is_empty(), "no interval yet");
    let report = monitor.observe(after.clone()).unwrap();
    assert_eq!(report.verdicts().len(), n, "every device is flagged");

    let pair = StatePair::new(before, after).unwrap();
    let all: Vec<DeviceId> = (0..n as u32).map(DeviceId).collect();
    let table = TrajectoryTable::from_state_pair(&pair, &all);
    let params = Params::new(radius, tau).unwrap();
    let truth = brute_force_classes(&table, &params, 5_000_000);

    for v in report.verdicts() {
        assert_eq!(
            Some(v.class()),
            truth.class_of(v.id),
            "device {} disagrees with the observer (r={radius}, tau={tau}, n={n}, d={d})",
            v.id,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential monitor == omniscient observer on every flagged device.
    #[test]
    fn monitor_matches_observer_on_random_small_fleets(
        d in 1..=2usize,
        raw_before in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 2), 2..=12),
        raw_after in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 2), 2..=12),
        radius in 0.01..0.12f64,
        tau in 1..=4usize,
    ) {
        let n = raw_before.len().min(raw_after.len());
        let cut = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
            rows[..n].iter().map(|r| r[..d].to_vec()).collect()
        };
        check_engine_against_observer(
            Engine::Sequential, &cut(&raw_before), &cut(&raw_after), radius, tau);
    }

    /// The threaded engine satisfies the same ground-truth equivalence
    /// directly (not only by agreeing with the sequential engine).
    #[test]
    fn threaded_monitor_matches_observer_too(
        d in 1..=2usize,
        raw_before in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 2), 2..=12),
        raw_after in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 2), 2..=12),
        radius in 0.01..0.12f64,
        tau in 1..=4usize,
    ) {
        let n = raw_before.len().min(raw_after.len());
        let cut = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
            rows[..n].iter().map(|r| r[..d].to_vec()).collect()
        };
        check_engine_against_observer(
            Engine::Threaded { workers: 3 }, &cut(&raw_before), &cut(&raw_after), radius, tau);
    }
}

/// A 1-D interval: each row is a device's `(before, after)` coordinate.
fn pair_from(rows: &[(f64, f64)]) -> StatePair {
    let space = QosSpace::new(1).unwrap();
    let before = Snapshot::from_rows(&space, rows.iter().map(|r| vec![r.0]).collect()).unwrap();
    let after = Snapshot::from_rows(&space, rows.iter().map(|r| vec![r.1]).collect()).unwrap();
    StatePair::new(before, after).unwrap()
}

/// `j`'s exact verdict computed from its `4r` ball alone: the flagged
/// devices within motion distance `4r` of it — what a device would learn
/// from one gossip round with its QoS neighbours.
fn local_class(
    pair: &StatePair,
    abnormal: &[DeviceId],
    j: DeviceId,
    params: Params,
) -> AnomalyClass {
    let reach = 2.0 * params.window(); // 4r
    let ball: Vec<DeviceId> = abnormal
        .iter()
        .copied()
        .filter(|&o| o == j || pair.pairwise_motion_distance(j, o) <= reach)
        .collect();
    let table = TrajectoryTable::from_state_pair(pair, &ball);
    AnalyzerCore::new(&table, params)
        .characterize_full(&table, j)
        .class()
}

/// The ACP configuration of Figure 3, decided device by device from `4r`
/// views: the edge devices are unresolved, the middle three massive.
#[test]
fn figure_3_verdicts_from_local_views() {
    let pair = pair_from(&[
        (0.10, 0.10),
        (0.14, 0.14),
        (0.16, 0.16),
        (0.18, 0.18),
        (0.22, 0.22),
    ]);
    let abnormal: Vec<DeviceId> = (0..5).map(DeviceId).collect();
    let params = Params::new(0.05, 3).unwrap();
    let expect = [
        AnomalyClass::Unresolved,
        AnomalyClass::Massive,
        AnomalyClass::Massive,
        AnomalyClass::Massive,
        AnomalyClass::Unresolved,
    ];
    for (&j, want) in abnormal.iter().zip(expect) {
        assert_eq!(local_class(&pair, &abnormal, j, params), want, "device {j}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// **The locality claim of Section V**: the verdict computed from
    /// the 4r ball equals the verdict computed from the full state.
    #[test]
    fn four_r_knowledge_suffices(
        seeds in proptest::collection::vec(
            (0.0..0.2f64, 0.0..0.2f64, 0u8..4), 1..12),
        tau in 1usize..4,
    ) {
        let rows: Vec<(f64, f64)> = seeds
            .into_iter()
            .map(|(b, a, c)| {
                let base = 0.22 * c as f64;
                (base + b, base + a)
            })
            .collect();
        let pair = pair_from(&rows);
        let abnormal: Vec<DeviceId> =
            (0..rows.len() as u32).map(DeviceId).collect();
        let params = Params::new(0.04, tau).unwrap();

        // Global verdicts.
        let table = TrajectoryTable::from_state_pair(&pair, &abnormal);
        let analyzer = AnalyzerCore::new(&table, params);

        for &j in &abnormal {
            prop_assert_eq!(
                local_class(&pair, &abnormal, j, params),
                analyzer.characterize_full(&table, j).class(),
                "device {} local != global", j
            );
        }
    }
}
