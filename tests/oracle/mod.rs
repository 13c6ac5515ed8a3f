//! A deliberately naive reference for the monitor's characterization,
//! shared by the integration suites (`mod oracle;`).
//!
//! The oracle works outside-in. After every seal it takes the previous
//! and the current sealed snapshot, matches them by key over the
//! surviving cohort, and recomputes each verdict from scratch: its
//! characterization and spatial component from a fresh
//! [`AnalyzerCore`] over the report's abnormal set, its vicinity from a
//! freshly built [`GridIndex`] over the cohort, its displacement from the
//! two positions. No cache, no incremental grid, no worker pool — so a
//! monitor whose reports match the oracle epoch after epoch reuses
//! nothing it should have recomputed.

use anomaly_characterization::core::{AnalyzerCore, ComponentPartition, TrajectoryTable};
use anomaly_characterization::pipeline::{DeviceKey, Monitor, Report};
use anomaly_characterization::qos::{uniform_distance, DeviceId, GridIndex, Snapshot, StatePair};
use std::collections::BTreeMap;

/// Follows one monitor from its first seal on; see the module docs.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Dense key order and snapshot of the last sealed epoch.
    previous: Option<(Vec<DeviceKey>, Snapshot)>,
    /// Verdicts checked so far.
    checked: usize,
}

impl Oracle {
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Number of verdicts checked so far — lets a test assert that its
    /// scenario gave the oracle something to compare.
    pub fn checked(&self) -> usize {
        self.checked
    }

    /// Checks `report`, just sealed by `monitor`, against a from-scratch
    /// recomputation, then remembers the sealed snapshot for the next
    /// epoch. Call it after every seal, with no membership change in
    /// between.
    ///
    /// # Panics
    ///
    /// When any verdict differs from the recomputation; the message counts
    /// the divergent verdicts and shows the first.
    pub fn check(&mut self, monitor: &Monitor, report: &Report) {
        let keys = monitor.keys().to_vec();
        let current = monitor
            .last_snapshot()
            .expect("a sealed monitor has a snapshot")
            .clone();
        match self.previous.take() {
            Some((prev_keys, prev)) => {
                self.checked += verify(monitor, report, &prev_keys, &prev, &keys, &current);
            }
            None => assert!(
                report.verdicts().is_empty(),
                "epoch {}: verdicts without a previous epoch",
                report.instant()
            ),
        }
        self.previous = Some((keys, current));
    }
}

/// Recomputes every verdict of `report` over the cohort of the two
/// snapshots and panics on a mismatch. Returns the number of verdicts.
fn verify(
    monitor: &Monitor,
    report: &Report,
    prev_keys: &[DeviceKey],
    prev: &Snapshot,
    keys: &[DeviceKey],
    current: &Snapshot,
) -> usize {
    let prev_slot: BTreeMap<DeviceKey, u32> = prev_keys
        .iter()
        .enumerate()
        .map(|(i, &key)| (key, i as u32))
        .collect();
    // Cohort id `c` is the c-th surviving device in current dense order.
    let cohort: Vec<(DeviceId, DeviceId)> = keys
        .iter()
        .enumerate()
        .filter_map(|(i, key)| {
            prev_slot
                .get(key)
                .map(|&p| (DeviceId(i as u32), DeviceId(p)))
        })
        .collect();
    let cohort_of: BTreeMap<DeviceKey, DeviceId> = cohort
        .iter()
        .enumerate()
        .map(|(c, &(cur, _))| (keys[cur.index()], DeviceId(c as u32)))
        .collect();
    let before: Vec<DeviceId> = cohort.iter().map(|&(_, p)| p).collect();
    let after: Vec<DeviceId> = cohort.iter().map(|&(cur, _)| cur).collect();
    let pair = StatePair::new(
        prev.select(&before).unwrap(),
        current.select(&after).unwrap(),
    )
    .unwrap();

    let abnormal: Vec<DeviceId> = report
        .verdicts()
        .iter()
        .map(|v| {
            *cohort_of.get(&v.key).unwrap_or_else(|| {
                panic!("epoch {}: {} is not a survivor", report.instant(), v.key)
            })
        })
        .collect();
    let params = monitor.params();
    let window = params.window();
    let table = TrajectoryTable::from_state_pair(&pair, &abnormal);
    let analyzer = AnalyzerCore::new(&table, params);
    let partition =
        ComponentPartition::from_dense_sets(abnormal.iter().map(|&j| (j, analyzer.wbar_of(j))));
    let grid = GridIndex::build(&pair, window.max(1e-6));

    let mut divergent: Vec<String> = Vec::new();
    for (v, &j) in report.verdicts().iter().zip(&abnormal) {
        let expected_id = cohort[j.index()].0;
        let characterization = analyzer.characterize_full(&table, j);
        let component = partition.component_of(j);
        let vicinity = grid.neighbors_both(&pair, j, window).len();
        let displacement = uniform_distance(
            pair.before().position(j).coords(),
            pair.after().position(j).coords(),
        );
        if v.id != expected_id
            || v.characterization != characterization
            || v.component != component
            || v.vicinity != vicinity
            || v.displacement != displacement
        {
            divergent.push(format!(
                "{}: served (id {}, {:?}, component {:?}, vicinity {}, displacement {}), \
                 recomputed (id {}, {:?}, component {:?}, vicinity {}, displacement {})",
                v.key,
                v.id,
                v.characterization,
                v.component,
                v.vicinity,
                v.displacement,
                expected_id,
                characterization,
                component,
                vicinity,
                displacement,
            ));
        }
    }
    assert!(
        divergent.is_empty(),
        "epoch {}: {} of {} verdicts differ from the oracle; first: {}",
        report.instant(),
        divergent.len(),
        abnormal.len(),
        divergent[0]
    );
    abnormal.len()
}
