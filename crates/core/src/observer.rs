//! The omniscient observer: exhaustive enumeration of anomaly partitions.
//!
//! Relations (2) and (3) of the paper define `I_k` and `M_k` by
//! quantification over *all* anomaly partitions, and Definition 8 defines
//! `U_k` as the devices whose block is sparse in one partition and dense in
//! another. This module enumerates every anomaly partition directly — the
//! approach Section V dismisses as impractical (the count grows with the
//! Bell numbers) — to serve as ground truth for testing the local
//! conditions of Theorems 5–7, and as the reference "omniscient observer"
//! in the evaluation harness.

use crate::maximal::{maximal_motions, MotionOps};
use crate::motion::extends_consistently;
use crate::params::Params;
use crate::partition::AnomalyPartition;
use crate::set::DeviceSet;
use crate::table::TrajectoryTable;
use crate::AnomalyClass;
use anomaly_qos::DeviceId;

/// Result of the exhaustive classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserverClasses {
    /// `I_k`: sparse in every anomaly partition.
    pub isolated: DeviceSet,
    /// `M_k`: dense in every anomaly partition.
    pub massive: DeviceSet,
    /// `U_k`: sparse in some partition, dense in another (Definition 8).
    pub unresolved: DeviceSet,
    /// Number of anomaly partitions enumerated.
    pub partitions: usize,
}

impl ObserverClasses {
    /// The class of one device, or `None` if it was not part of `A_k`.
    pub fn class_of(&self, j: DeviceId) -> Option<AnomalyClass> {
        if self.isolated.contains(j) {
            Some(AnomalyClass::Isolated)
        } else if self.massive.contains(j) {
            Some(AnomalyClass::Massive)
        } else if self.unresolved.contains(j) {
            Some(AnomalyClass::Unresolved)
        } else {
            None
        }
    }
}

/// Enumerates **all** anomaly partitions of the table's devices.
///
/// Recursively assigns devices (in id order) either to an existing block —
/// when consistency is preserved — or to a fresh block, then keeps the leaf
/// assignments satisfying conditions C1 and C2 of Definition 6.
///
/// # Panics
///
/// Panics if more than `cap` partitions would be produced, protecting tests
/// against combinatorial blow-ups (the count grows like the Bell numbers;
/// keep populations below ~12).
pub fn enumerate_anomaly_partitions(
    table: &TrajectoryTable,
    params: &Params,
    cap: usize,
) -> Vec<AnomalyPartition> {
    let ids: Vec<DeviceId> = table.ids().to_vec();
    let mut blocks: Vec<DeviceSet> = Vec::new();
    let mut out: Vec<AnomalyPartition> = Vec::new();
    assign(table, params, &ids, 0, &mut blocks, &mut out, cap);
    out
}

fn assign(
    table: &TrajectoryTable,
    params: &Params,
    ids: &[DeviceId],
    next: usize,
    blocks: &mut Vec<DeviceSet>,
    out: &mut Vec<AnomalyPartition>,
    cap: usize,
) {
    if next == ids.len() {
        let candidate = AnomalyPartition::from_blocks(blocks.clone());
        if candidate.validate(table, params).is_ok() {
            assert!(
                out.len() < cap,
                "partition enumeration exceeded cap of {cap}"
            );
            out.push(candidate);
        }
        return;
    }
    let id = ids[next];
    let window = params.window();
    // Join an existing block (only if the block stays a consistent motion).
    for i in 0..blocks.len() {
        if extends_consistently(table, &blocks[i], id, window) {
            blocks[i].insert(id);
            assign(table, params, ids, next + 1, blocks, out, cap);
            blocks[i].remove(id);
        }
    }
    // Open a new block.
    blocks.push(DeviceSet::singleton(id));
    assign(table, params, ids, next + 1, blocks, out, cap);
    blocks.pop();
}

/// Ground-truth `I_k`, `M_k`, `U_k` via Relations (2)–(3) and Definition 8.
///
/// # Panics
///
/// Panics if the table is non-empty but admits no anomaly partition — that
/// would contradict Lemma 2 — or if enumeration exceeds `cap`.
pub fn brute_force_classes(
    table: &TrajectoryTable,
    params: &Params,
    cap: usize,
) -> ObserverClasses {
    let partitions = enumerate_anomaly_partitions(table, params, cap);
    assert!(
        table.is_empty() || !partitions.is_empty(),
        "Lemma 2: at least one anomaly partition must exist"
    );
    let mut isolated = DeviceSet::new();
    let mut massive = DeviceSet::new();
    let mut unresolved = DeviceSet::new();
    for &j in table.ids() {
        let mut ever_sparse = false;
        let mut ever_dense = false;
        for p in &partitions {
            let Some(block) = p.block_of(j) else {
                unreachable!("partitions cover all devices")
            };
            if params.is_dense(block.len()) {
                ever_dense = true;
            } else {
                ever_sparse = true;
            }
        }
        match (ever_sparse, ever_dense) {
            (true, false) => {
                isolated.insert(j);
            }
            (false, true) => {
                massive.insert(j);
            }
            (true, true) => {
                unresolved.insert(j);
            }
            (false, false) => unreachable!("device must appear in every partition"),
        }
    }
    ObserverClasses {
        isolated,
        massive,
        unresolved,
        partitions: partitions.len(),
    }
}

/// Size of the dense-motion structure of the whole configuration: the
/// maximal motions among **all** devices of the table, as an omniscient
/// observer would compute them. Exposed for the harness and benches.
pub fn global_maximal_motions(table: &TrajectoryTable, params: &Params) -> Vec<DeviceSet> {
    let mut ops = MotionOps::default();
    maximal_motions(table, &table.device_set(), params.window(), &mut ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::AnalyzerCore;
    use proptest::prelude::*;

    fn params(tau: usize) -> Params {
        Params::new(0.05, tau).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// **The paper's headline claim** (Section I): the local algorithms'
        /// decisions are as accurate as an omniscient observer's. We verify
        /// that `characterize_full` (Theorems 5/7, Corollary 8) matches the
        /// exhaustive enumeration of all anomaly partitions on random
        /// clustered configurations.
        #[test]
        fn local_decisions_match_omniscient_observer(
            seeds in proptest::collection::vec(
                (0.0..0.15f64, 0.0..0.15f64, 0u8..3), 1..9),
            tau in 1usize..4,
        ) {
            let rows: Vec<(u32, f64, f64)> = seeds
                .into_iter()
                .enumerate()
                .map(|(i, (b, a, c))| {
                    let base = 0.35 * c as f64;
                    (i as u32, base + b, base + a)
                })
                .collect();
            let t = TrajectoryTable::from_pairs_1d(&rows);
            let pr = params(tau);
            let truth = brute_force_classes(&t, &pr, 2_000_000);
            let analyzer = AnalyzerCore::new(&t, pr);
            for &j in t.ids() {
                let local = analyzer.characterize_full(&t, j).class();
                prop_assert_eq!(
                    Some(local),
                    truth.class_of(j),
                    "device {} disagrees with the observer", j
                );
            }
        }

        /// Theorem 6 never contradicts the observer: when the quick path
        /// says Massive or Isolated, the observer agrees (it may only be
        /// conservative on Unresolved).
        #[test]
        fn quick_path_is_sound(
            seeds in proptest::collection::vec(
                (0.0..0.12f64, 0.0..0.12f64, 0u8..2), 1..9),
        ) {
            let rows: Vec<(u32, f64, f64)> = seeds
                .into_iter()
                .enumerate()
                .map(|(i, (b, a, c))| {
                    let base = 0.4 * c as f64;
                    (i as u32, base + b, base + a)
                })
                .collect();
            let t = TrajectoryTable::from_pairs_1d(&rows);
            let pr = params(2);
            let truth = brute_force_classes(&t, &pr, 2_000_000);
            let analyzer = AnalyzerCore::new(&t, pr);
            for &j in t.ids() {
                match analyzer.characterize(j).class() {
                    AnomalyClass::Isolated => prop_assert!(truth.isolated.contains(j)),
                    AnomalyClass::Massive => prop_assert!(truth.massive.contains(j)),
                    AnomalyClass::Unresolved => {} // may actually be massive
                }
            }
        }
    }

    #[test]
    fn empty_table_has_no_partitions_and_no_classes() {
        let t = TrajectoryTable::from_pairs_1d(&[]);
        let c = brute_force_classes(&t, &params(3), 100);
        assert_eq!(c.partitions, 1, "the empty partition is valid");
        assert!(c.isolated.is_empty());
        assert!(c.massive.is_empty());
        assert!(c.unresolved.is_empty());
    }

    #[test]
    fn single_device_is_isolated() {
        let t = TrajectoryTable::from_pairs_1d(&[(0, 0.5, 0.7)]);
        let c = brute_force_classes(&t, &params(3), 100);
        assert_eq!(c.isolated, DeviceSet::from([0]));
        assert_eq!(c.class_of(DeviceId(0)), Some(AnomalyClass::Isolated));
        assert_eq!(c.class_of(DeviceId(9)), None);
    }

    #[test]
    fn figure_3_exact_partitions() {
        // Maximal motions {1,2,3,4} and {2,3,4,5}, τ = 3: exactly the two
        // partitions of the ACP impossibility proof.
        let t = TrajectoryTable::from_pairs_1d(&[
            (1, 0.10, 0.10),
            (2, 0.14, 0.14),
            (3, 0.16, 0.16),
            (4, 0.18, 0.18),
            (5, 0.22, 0.22),
        ]);
        let ps = enumerate_anomaly_partitions(&t, &params(3), 1000);
        assert_eq!(ps.len(), 2);
        let c = brute_force_classes(&t, &params(3), 1000);
        assert_eq!(c.massive, DeviceSet::from([2, 3, 4]));
        assert_eq!(c.unresolved, DeviceSet::from([1, 5]));
        assert!(c.isolated.is_empty());
    }

    #[test]
    fn co_moving_group_is_unambiguously_massive() {
        let t = TrajectoryTable::from_pairs_1d(&[
            (0, 0.10, 0.50),
            (1, 0.11, 0.51),
            (2, 0.12, 0.52),
            (3, 0.13, 0.53),
            (4, 0.14, 0.54),
        ]);
        let c = brute_force_classes(&t, &params(3), 10_000);
        assert_eq!(c.massive.len(), 5);
        assert!(c.unresolved.is_empty());
    }

    #[test]
    fn global_maximal_motions_cover_all_devices() {
        let t = TrajectoryTable::from_pairs_1d(&[(0, 0.1, 0.1), (1, 0.12, 0.12), (2, 0.8, 0.8)]);
        let motions = global_maximal_motions(&t, &params(3));
        let covered: DeviceSet = motions.iter().flat_map(|m| m.iter()).collect();
        assert_eq!(covered, t.device_set());
    }

    #[test]
    #[should_panic(expected = "exceeded cap")]
    fn cap_guards_against_blowup() {
        // 8 co-located devices with τ = 8: no block can be dense, so every
        // set partition is a valid anomaly partition — Bell(8) = 4140 of
        // them, far beyond the cap of 3.
        let rows: Vec<(u32, f64, f64)> = (0..8).map(|i| (i, 0.5, 0.5)).collect();
        let t = TrajectoryTable::from_pairs_1d(&rows);
        enumerate_anomaly_partitions(&t, &params(8), 3);
    }
}
