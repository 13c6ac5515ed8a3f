//! Device-side characterization from strictly local knowledge.
//!
//! Section V closes with the paper's locality result: a device `j` only
//! needs the trajectories of devices within motion distance `4r` of itself —
//! its own maximal motions live within `2r`, and the escape motions of its
//! `L_k(j)` neighbours within another `2r`. *"A larger radius of knowledge —
//! as the one got by an omniscient observer — does not bring any additional
//! information and thus does not provide a higher error detection
//! accuracy."*
//!
//! [`LocalContext`] packages exactly that knowledge (what a gateway would
//! learn from one gossip round with its QoS neighbours), and
//! [`LocalContext::characterize`] produces the verdict. The property test
//! at the bottom machine-checks the locality claim: the verdict from the
//! `4r` ball always equals the verdict computed from the full system state.

use crate::characterize::{AnalyzerCore, Characterization};
use crate::params::Params;
use crate::table::TrajectoryTable;
use anomaly_qos::{DeviceId, StatePair};

/// The knowledge a single device needs to self-characterize: its own
/// trajectory plus those of all flagged devices within motion distance `4r`.
#[derive(Debug, Clone)]
pub struct LocalContext {
    device: DeviceId,
    table: TrajectoryTable,
    params: Params,
}

impl LocalContext {
    /// Extracts `j`'s `4r`-neighbourhood view from the global state — the
    /// helper a simulator or test harness uses; a real device would receive
    /// the same rows from its neighbours directly.
    ///
    /// `abnormal` is the flagged set `A_k`; only flagged devices matter for
    /// characterization.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not in `abnormal` (only flagged devices
    /// characterize themselves) or ids are out of bounds.
    pub fn from_state_pair(
        pair: &StatePair,
        abnormal: &[DeviceId],
        j: DeviceId,
        params: Params,
    ) -> Self {
        assert!(
            abnormal.contains(&j),
            "only flagged devices run the characterization"
        );
        let reach = 2.0 * params.window(); // 4r
        let neighbours: Vec<DeviceId> = abnormal
            .iter()
            .copied()
            .filter(|&o| o == j || pair.pairwise_motion_distance(j, o) <= reach)
            .collect();
        LocalContext {
            device: j,
            table: TrajectoryTable::from_state_pair(pair, &neighbours),
            params,
        }
    }

    /// Builds a context directly from neighbour trajectories (the
    /// device-side constructor).
    ///
    /// # Panics
    ///
    /// Panics if `j` is missing from the table.
    pub fn from_table(table: TrajectoryTable, j: DeviceId, params: Params) -> Self {
        assert!(table.contains(j), "the device itself must be in its view");
        LocalContext {
            device: j,
            table,
            params,
        }
    }

    /// The device this context belongs to.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Number of neighbour trajectories held (including the device itself).
    pub fn knowledge_size(&self) -> usize {
        self.table.len()
    }

    /// Runs the exact characterization (Algorithms 3–5) on the local view.
    pub fn characterize(&self) -> Characterization {
        AnalyzerCore::new(&self.table, self.params).characterize_full(&self.table, self.device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::AnomalyClass;
    use anomaly_qos::{QosSpace, Snapshot};
    use proptest::prelude::*;

    fn pair_from(rows: &[(f64, f64)]) -> StatePair {
        let space = QosSpace::new(1).unwrap();
        let before = Snapshot::from_rows(&space, rows.iter().map(|r| vec![r.0]).collect()).unwrap();
        let after = Snapshot::from_rows(&space, rows.iter().map(|r| vec![r.1]).collect()).unwrap();
        StatePair::new(before, after).unwrap()
    }

    #[test]
    fn local_view_prunes_distant_devices() {
        let pair = pair_from(&[
            (0.10, 0.10),
            (0.12, 0.12),
            (0.90, 0.90), // far away
        ]);
        let abnormal: Vec<DeviceId> = (0..3).map(DeviceId).collect();
        let params = Params::new(0.05, 2).unwrap();
        let ctx = LocalContext::from_state_pair(&pair, &abnormal, DeviceId(0), params);
        assert_eq!(ctx.knowledge_size(), 2, "device 2 is outside the 4r ball");
        assert_eq!(ctx.device(), DeviceId(0));
    }

    #[test]
    fn figure_3_verdicts_from_local_views() {
        // The ACP configuration, decided device-by-device from 4r views.
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
        for (i, want) in expect.iter().enumerate() {
            let ctx = LocalContext::from_state_pair(&pair, &abnormal, DeviceId(i as u32), params);
            assert_eq!(ctx.characterize().class(), *want, "device {i}");
        }
    }

    #[test]
    #[should_panic(expected = "flagged devices")]
    fn rejects_unflagged_device() {
        let pair = pair_from(&[(0.1, 0.1), (0.2, 0.2)]);
        LocalContext::from_state_pair(
            &pair,
            &[DeviceId(0)],
            DeviceId(1),
            Params::new(0.05, 2).unwrap(),
        );
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
                let local = LocalContext::from_state_pair(&pair, &abnormal, j, params);
                prop_assert_eq!(
                    local.characterize().class(),
                    analyzer.characterize_full(&table, j).class(),
                    "device {} local != global", j
                );
            }
        }
    }
}
