//! The worked examples of the paper, reproduced as tests.
//!
//! Every figure of Sections III–V is rebuilt as a concrete configuration
//! (1-service QoS space; the figures plot QoS at `k` against QoS at `k−1`)
//! and the claims made in the text are asserted against our implementation:
//!
//! * Figure 1 — overlapping maximal r-consistent sets;
//! * Figure 2 — non-uniqueness of anomaly partitions (Lemma 2);
//! * Figure 3 — the ACP impossibility configuration (Theorem 3);
//! * Figure 4(a)/(b) — the `J_k(j)` / `L_k(j)` neighbourhood split;
//! * Figure 5 — the ring where Theorem 6 misses but Theorem 7 decides.

use crate::characterize::{AnalyzerCore, AnomalyClass, Rule};
use crate::maximal::{maximal_motions, MotionOps};
use crate::observer::{brute_force_classes, enumerate_anomaly_partitions};
use crate::params::Params;
use crate::set::DeviceSet;
use crate::table::TrajectoryTable;
use anomaly_qos::DeviceId;

fn motions(table: &TrajectoryTable, window: f64) -> Vec<DeviceSet> {
    maximal_motions(
        table,
        &table.device_set(),
        window,
        &mut MotionOps::default(),
    )
}

/// Figure 1: six devices in a 1-D QoS space; `B1 = {1,2,3,4}` and
/// `B2 = {1,2,3,5,6}` are the two maximal r-consistent sets containing
/// device 1. (A static-positions figure: we give every device a stationary
/// trajectory so consistent sets and consistent motions coincide.)
#[test]
fn figure_1_two_maximal_sets_containing_device_1() {
    let stay = |id: u32, x: f64| (id, x, x);
    let t = TrajectoryTable::from_pairs_1d(&[
        stay(1, 0.10),
        stay(2, 0.12),
        stay(3, 0.14),
        stay(4, 0.05), // pulls B1 left, excludes 5 and 6
        stay(5, 0.155),
        stay(6, 0.16),
    ]);
    let found = motions(&t, 0.1);
    assert!(
        found.contains(&DeviceSet::from([1, 2, 3, 4])),
        "B1 missing: {found:?}"
    );
    assert!(
        found.contains(&DeviceSet::from([1, 2, 3, 5, 6])),
        "B2 missing: {found:?}"
    );
    // Any subset of B1 or B2 is r-consistent but NOT maximal, so exactly
    // these two sets contain device 1.
    let containing_1: Vec<_> = found.iter().filter(|m| m.contains(DeviceId(1))).collect();
    assert_eq!(containing_1.len(), 2);
}

/// Figure 2: ten devices, four maximal motions `C1 = {1,2,3}`,
/// `C2 = {2,3,4}`, `C3 = {5,…,9}`, `C4 = {10}`; with τ = 3 Algorithm 1
/// yields different anomaly partitions depending on its choices (Lemma 2).
#[test]
fn figure_2_partition_non_uniqueness() {
    let params = Params::new(0.05, 3).unwrap();
    let t = TrajectoryTable::from_pairs_1d(&[
        (1, 0.10, 0.10),
        (2, 0.14, 0.14),
        (3, 0.16, 0.16),
        (4, 0.22, 0.22),
        (5, 0.50, 0.80),
        (6, 0.51, 0.81),
        (7, 0.52, 0.82),
        (8, 0.53, 0.83),
        (9, 0.54, 0.84),
        (10, 0.90, 0.20),
    ]);
    let found = motions(&t, params.window());
    assert!(found.contains(&DeviceSet::from([1, 2, 3])));
    assert!(found.contains(&DeviceSet::from([2, 3, 4])));
    assert!(found.contains(&DeviceSet::from([5, 6, 7, 8, 9])));
    assert!(found.contains(&DeviceSet::from([10])));
    assert_eq!(found.len(), 4);

    // Both partitions from the text of Lemma 2 are valid anomaly partitions.
    let p_first = crate::partition::AnomalyPartition::from_blocks(vec![
        DeviceSet::from([1, 2, 3]),
        DeviceSet::from([4]),
        DeviceSet::from([5, 6, 7, 8, 9]),
        DeviceSet::from([10]),
    ]);
    assert!(p_first.validate(&t, &params).is_ok());
    let p_second = crate::partition::AnomalyPartition::from_blocks(vec![
        DeviceSet::from([1]),
        DeviceSet::from([2, 3, 4]),
        DeviceSet::from([5, 6, 7, 8, 9]),
        DeviceSet::from([10]),
    ]);
    assert!(p_second.validate(&t, &params).is_ok());
    assert_ne!(p_first, p_second);

    // And the exhaustive observer finds both (and only partitions that
    // contain the dense block {5..9} intact).
    let all = enumerate_anomaly_partitions(&t, &params, 10_000);
    assert!(all.contains(&p_first));
    assert!(all.contains(&p_second));
    for p in &all {
        assert_eq!(
            p.block_of(DeviceId(5)),
            Some(&DeviceSet::from([5, 6, 7, 8, 9]))
        );
    }
}

/// Figure 3 / Theorem 3: maximal motions `C1 = {1,2,3,4}` and
/// `C2 = {2,3,4,5}` with τ = 3. Exactly two anomaly partitions exist and
/// they disagree on devices 1 and 5 — ACP cannot be solved.
#[test]
fn figure_3_acp_impossibility() {
    let params = Params::new(0.05, 3).unwrap();
    let t = TrajectoryTable::from_pairs_1d(&[
        (1, 0.10, 0.10),
        (2, 0.14, 0.14),
        (3, 0.16, 0.16),
        (4, 0.18, 0.18),
        (5, 0.22, 0.22),
    ]);
    let found = motions(&t, params.window());
    assert_eq!(found.len(), 2);
    assert!(found.contains(&DeviceSet::from([1, 2, 3, 4])));
    assert!(found.contains(&DeviceSet::from([2, 3, 4, 5])));

    let all = enumerate_anomaly_partitions(&t, &params, 1000);
    assert_eq!(all.len(), 2, "exactly the two partitions of the proof");
    let m1: DeviceSet = all[0].massive_devices(&params);
    let m2: DeviceSet = all[1].massive_devices(&params);
    assert_ne!(m1, m2, "the observer cannot tell which scenario is real");

    // The relaxed problem: M_k = {2,3,4}, U_k = {1,5}, I_k = ∅.
    let classes = brute_force_classes(&t, &params, 1000);
    assert_eq!(classes.massive, DeviceSet::from([2, 3, 4]));
    assert_eq!(classes.unresolved, DeviceSet::from([1, 5]));
    assert!(classes.isolated.is_empty());

    // The local algorithms agree with the omniscient observer.
    let analyzer = AnalyzerCore::new(&t, params);
    for &j in t.ids() {
        assert_eq!(
            analyzer.characterize_full(&t, j).class(),
            classes.class_of(j).unwrap(),
            "device {j}"
        );
    }
}

/// Figure 4(a): `S = {1,2,3,4,5}`, τ = 2; `W̄(4) = {C1, C2}` with
/// `C1 = {1,2,3,4}`, `C2 = {2,4,5}`; `J(4) = {1,2,3,4,5}`, `L(4) = ∅`.
#[test]
fn figure_4a_neighbourhood_split_all_j() {
    let params = Params::new(0.05, 2).unwrap();
    let t = TrajectoryTable::from_pairs_1d(&[
        (1, 0.10, 0.10),
        (2, 0.16, 0.12),
        (3, 0.10, 0.14),
        (4, 0.18, 0.12),
        (5, 0.26, 0.12),
    ]);
    let found = motions(&t, params.window());
    assert!(found.contains(&DeviceSet::from([1, 2, 3, 4])), "{found:?}");
    assert!(found.contains(&DeviceSet::from([2, 4, 5])), "{found:?}");

    let analyzer = AnalyzerCore::new(&t, params);
    let fam = analyzer.families_of(DeviceId(4));
    assert_eq!(fam.d_set, DeviceSet::from([1, 2, 3, 4, 5]));
    assert_eq!(fam.j_set, DeviceSet::from([1, 2, 3, 4, 5]));
    assert!(fam.l_set.is_empty());
    // Theorem 6 applies: device 4 is massive.
    let c = analyzer.characterize(DeviceId(4));
    assert_eq!(c.class(), AnomalyClass::Massive);
    assert_eq!(c.rule(), Rule::Theorem6);
}

/// Figure 4(b): devices 6 and 7 give 5 an escape motion `C3 = {5,6,7}`,
/// so `J(4) = {1,2,3,4}` and `L(4) = {5}`.
#[test]
fn figure_4b_neighbourhood_split_with_l() {
    let params = Params::new(0.05, 2).unwrap();
    let t = TrajectoryTable::from_pairs_1d(&[
        (1, 0.10, 0.10),
        (2, 0.16, 0.12),
        (3, 0.10, 0.14),
        (4, 0.18, 0.12),
        (5, 0.26, 0.12),
        (6, 0.30, 0.12),
        (7, 0.30, 0.16),
    ]);
    let found = motions(&t, params.window());
    assert!(found.contains(&DeviceSet::from([5, 6, 7])), "{found:?}");

    let analyzer = AnalyzerCore::new(&t, params);
    let fam = analyzer.families_of(DeviceId(4));
    assert_eq!(fam.d_set, DeviceSet::from([1, 2, 3, 4, 5]));
    assert_eq!(fam.j_set, DeviceSet::from([1, 2, 3, 4]));
    assert_eq!(fam.l_set, DeviceSet::from([5]));
    // |C1 ∩ J| = 4 > τ = 2: still massive by Theorem 6.
    assert_eq!(
        analyzer.characterize(DeviceId(4)).class(),
        AnomalyClass::Massive
    );
}

/// Figure 5: the diamond of pairs where Theorem 6 is silent but Theorem 7
/// proves every device massive. τ = 3; maximal motions are the four
/// adjacent-pair quadruples `{1,2,3,4}`, `{3,4,5,6}`, `{5,6,7,8}`,
/// `{7,8,1,2}`.
#[test]
fn figure_5_theorem_7_catches_what_theorem_6_misses() {
    let params = Params::new(0.05, 3).unwrap();
    // Pairs at the four corners of an L∞ diamond: adjacent corners are 0.1
    // apart, opposite corners 0.2 apart.
    let t = TrajectoryTable::from_pairs_1d(&[
        (1, 0.10, 0.20),
        (2, 0.10, 0.20),
        (3, 0.20, 0.10),
        (4, 0.20, 0.10),
        (5, 0.30, 0.20),
        (6, 0.30, 0.20),
        (7, 0.20, 0.30),
        (8, 0.20, 0.30),
    ]);
    let found = motions(&t, params.window());
    assert_eq!(found.len(), 4, "{found:?}");
    for quad in [[1u32, 2, 3, 4], [3, 4, 5, 6], [5, 6, 7, 8], [1, 2, 7, 8]] {
        assert!(found.contains(&DeviceSet::from(quad)), "missing {quad:?}");
    }

    let analyzer = AnalyzerCore::new(&t, params);
    // W̄(1) = {{1,2,3,4},{1,2,7,8}}; J(1) = {1,2}; L(1) = {3,4,7,8}.
    let fam = analyzer.families_of(DeviceId(1));
    assert_eq!(fam.j_set, DeviceSet::from([1, 2]));
    assert_eq!(fam.l_set, DeviceSet::from([3, 4, 7, 8]));

    for id in 1..=8 {
        let quick = analyzer.characterize(DeviceId(id));
        assert_eq!(
            quick.class(),
            AnomalyClass::Unresolved,
            "Theorem 6 must be silent on device {id}"
        );
        let full = analyzer.characterize_full(&t, DeviceId(id));
        assert_eq!(full.class(), AnomalyClass::Massive, "device {id}");
        assert_eq!(full.rule(), Rule::Theorem7);
        assert!(full.cost().collections_tested >= 2);
    }

    // The omniscient observer agrees: only the two partitions of the text
    // exist and every device is massive in both.
    let classes = brute_force_classes(&t, &params, 10_000);
    assert_eq!(classes.massive.len(), 8);
    assert!(classes.unresolved.is_empty());
}
