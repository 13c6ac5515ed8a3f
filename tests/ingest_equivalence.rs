//! The streaming front-end must be unobservable next to the batch one:
//! any permutation of per-device updates — duplicates included, last
//! write wins — sealed once yields a report identical (modulo wall-clock
//! timings) to `observe()` on the assembled snapshot, across both
//! engines. The characterization cache must be unobservable too: every
//! sealed report equals the naive oracle's from-scratch recomputation.
//! And sealing a small epoch over a calm fleet must maintain the vicinity
//! grid incrementally, not rebuild it.

mod oracle;

use anomaly_characterization::detectors::{ThresholdDetector, VectorDetector};
use anomaly_characterization::pipeline::{
    Engine, Monitor, MonitorBuilder, Report, StalenessPolicy,
};
use anomaly_characterization::qos::GridUpdate;
use oracle::Oracle;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Everything a report says except its wall-clock timings.
fn fingerprint(r: &Report) -> String {
    format!(
        "k={} n={} verdicts={:?} warming={:?} stragglers={:?} summary={}",
        r.instant(),
        r.population(),
        r.verdicts(),
        r.warming(),
        r.stragglers(),
        {
            let mut s = r.summary();
            s.detection_micros = 0;
            s.characterization_micros = 0;
            s.to_json()
        },
    )
}

fn build(n: usize, engine: Engine) -> Monitor {
    MonitorBuilder::new()
        .engine(engine)
        .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.08)))
        .fleet(n)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Feed the same epoch sequence to a batch monitor and a streaming
    /// monitor whose updates arrive shuffled and partially duplicated:
    /// every sealed report must match the observed one byte for byte.
    #[test]
    fn shuffled_duplicated_ingest_equals_observe(
        levels in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 8), 4),
        n in 2..=8usize,
        seed in 0u64..10_000,
    ) {
        for engine in [Engine::Sequential, Engine::Threaded { workers: 3 }] {
            let mut batch = build(n, engine);
            let mut stream = build(n, engine);
            let mut rng = StdRng::seed_from_u64(seed);
            for epoch in &levels {
                let rows: Vec<Vec<f64>> =
                    epoch[..n].iter().map(|&v| vec![v]).collect();
                // Stale duplicates first (they must be overwritten) …
                for slot in 0..n {
                    if rng.gen_bool(0.3) {
                        let junk = rng.gen_range(0.0..=1.0);
                        stream.ingest(slot as u64, vec![junk]).unwrap();
                    }
                }
                // … then the real updates, in a random arrival order.
                let mut updates: Vec<(u64, Vec<f64>)> = rows
                    .iter()
                    .enumerate()
                    .map(|(slot, row)| (slot as u64, row.clone()))
                    .collect();
                updates.shuffle(&mut rng);
                stream.ingest_many(updates).unwrap();
                let streamed = stream.seal().unwrap();

                let observed = batch.observe_rows(rows).unwrap();
                prop_assert_eq!(
                    fingerprint(&observed),
                    fingerprint(&streamed),
                    "epoch {} diverged under {:?}",
                    observed.instant(), engine
                );
            }
            // Both monitors agree on the final snapshot too.
            prop_assert_eq!(batch.last_snapshot(), stream.last_snapshot());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The characterization cache must be unobservable: shuffled-silence
    /// ingest sequences with mid-run churn, under every staleness policy
    /// and both engines, seal reports that equal the naive oracle's
    /// from-scratch recomputation at every epoch — and the two engines
    /// agree byte for byte.
    #[test]
    fn characterization_cache_is_unobservable_under_churn(
        levels in proptest::collection::vec(
            proptest::collection::vec(0.0..=1.0f64, 6), 6),
        silence in proptest::collection::vec(
            proptest::collection::vec(0usize..3, 6), 6),
        churn_at in 1usize..5,
    ) {
        let n = 6usize;
        let policies = [
            StalenessPolicy::Reject,
            StalenessPolicy::CarryForward { max_age: 1_000 },
        ];
        for policy in &policies {
            let run = |engine: Engine| {
                let mut m = MonitorBuilder::new()
                    .engine(engine)
                    .staleness(policy.clone())
                    .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.08)))
                    .fleet(n)
                    .build()
                    .unwrap();
                let mut oracle = Oracle::new();
                let mut prints = Vec::new();
                for (e, epoch) in levels.iter().enumerate() {
                    if e == churn_at {
                        m.leave(0u64).unwrap();
                        m.join(1_000u64).unwrap();
                    }
                    let keys = m.keys().to_vec();
                    for (i, &key) in keys.iter().enumerate() {
                        // Epoch 0 and the fresh joiner always report;
                        // under Reject everyone does.
                        let may_skip = e > 0
                            && !matches!(policy, StalenessPolicy::Reject)
                            && (key.0 as usize) < n
                            && silence[e][key.0 as usize] == 0;
                        if may_skip {
                            continue;
                        }
                        m.ingest(key, vec![epoch[i % epoch.len()]]).unwrap();
                    }
                    let report = m.seal().unwrap();
                    oracle.check(&m, &report);
                    prints.push(fingerprint(&report));
                }
                (prints, m.last_snapshot().cloned())
            };
            prop_assert_eq!(
                run(Engine::Sequential),
                run(Engine::Threaded { workers: 3 }),
                "{:?}: engines diverged",
                policy
            );
        }
    }
}

/// Seals one epoch of `rows` and checks the report against the oracle.
fn step(m: &mut Monitor, oracle: &mut Oracle, rows: Vec<(u64, Vec<f64>)>) -> Report {
    m.ingest_many(rows).unwrap();
    let report = m.seal().unwrap();
    oracle.check(m, &report);
    report
}

/// Long steady runs designed to hit every cache path, checked against the
/// naive oracle at every epoch.
///
/// First shape: a flagged cluster frozen by silence (full cache hits,
/// epoch after epoch), far-away calm movers (> 4r from the cluster —
/// cached verdicts must be served untouched), then a mover *inside* the
/// cluster's neighbourhood (partial invalidation, mixed cached/fresh
/// characterization).
///
/// Second shape: the cluster's jump is the monitor's *first* characterized
/// epoch. Its verdicts describe the jump; one epoch later the silent
/// cluster's trajectories are stationary and most verdicts change. The
/// cells the jump touched must therefore reach the dirty set even though
/// the vicinity grid had indexed nothing before that epoch.
#[test]
fn characterization_cache_matches_full_recompute_on_a_frozen_cluster() {
    const N: usize = 60;
    let mut m = MonitorBuilder::new()
        .staleness(StalenessPolicy::CarryForward { max_age: 10_000 })
        .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
        .fleet(N)
        .build()
        .unwrap();
    let mut oracle = Oracle::new();

    let base_row = |k: u64| vec![0.55 + 0.3 * ((k % 37) as f64 / 37.0)];
    // Warm-up: two full epochs.
    for _ in 0..2 {
        step(
            &mut m,
            &mut oracle,
            (0..N as u64).map(|k| (k, base_row(k))).collect(),
        );
    }
    // The cluster 0..6 jumps into an anomalous corner and then goes
    // silent: frozen flags keep it abnormal for every following epoch.
    let mut rows: Vec<(u64, Vec<f64>)> = (0..N as u64).map(|k| (k, base_row(k))).collect();
    for k in 0..6u64 {
        rows[k as usize] = (k, vec![0.10 + k as f64 * 0.005]);
    }
    let r = step(&mut m, &mut oracle, rows);
    assert_eq!(r.verdicts().len(), 6);
    // Far-away churn only: two calm devices wiggle within their cells,
    // > 4r away from the cluster, so the cached cluster verdicts are
    // reused wholesale — and must still equal a fresh recompute.
    for round in 0..4 {
        let wiggle = if round % 2 == 0 { 0.004 } else { -0.004 };
        let rows = vec![
            (40u64, vec![base_row(40)[0] + wiggle]),
            (41u64, vec![base_row(41)[0] + wiggle]),
        ];
        let r = step(&mut m, &mut oracle, rows);
        assert_eq!(r.verdicts().len(), 6, "the frozen cluster stays abnormal");
    }
    // A device drops into the cluster's 4r neighbourhood: the dirty-cell
    // expansion must invalidate the affected entries, flag the newcomer,
    // and the mixed cached/fresh path must still match the oracle.
    let r = step(&mut m, &mut oracle, vec![(30u64, vec![0.16])]);
    assert_eq!(r.verdicts().len(), 7, "the near mover flags too");
    // And the re-cached neighbourhood serves the next quiet epoch.
    let r = step(
        &mut m,
        &mut oracle,
        vec![(40u64, vec![base_row(40)[0] + 0.004])],
    );
    assert_eq!(r.verdicts().len(), 7);

    // Second shape: 400 devices on 2 services; a 64-device cluster on a
    // tight diagonal line in [0.55, 0.85]² (many overlapping dense
    // motions in its jump epoch) jumps to a corner near (0.1, 0.12) in the
    // first characterized epoch, then stays silent while one far calm
    // device wiggles every epoch.
    const FLEET: u64 = 400;
    const CLUSTER: u64 = 64;
    let mut m = MonitorBuilder::new()
        .services(2)
        .staleness(StalenessPolicy::CarryForward { max_age: 10_000 })
        .detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(2, || {
                ThresholdDetector::with_delta(0.15)
            }))
        })
        .fleet(FLEET as usize)
        .build()
        .unwrap();
    let mut oracle = Oracle::new();
    // Deterministic sub-cell jitter in [0, 1).
    let jitter = |k: u64, mul: u64| ((k * mul) % 64) as f64 / 64.0;
    let line = |k: u64| {
        vec![
            0.57 + 0.0031 * k as f64 + 0.0005 * jitter(k, 29),
            0.57 + 0.0034 * k as f64 + 0.0005 * jitter(k, 43),
        ]
    };
    // Calm devices spread over [0.55, 0.85]², far (> 4r) from the corner.
    let calm = |k: u64| {
        vec![
            0.55 + 0.3 * ((k * 7 % 97) as f64 / 97.0),
            0.55 + 0.3 * ((k * 13 % 89) as f64 / 89.0),
        ]
    };
    let home = |k: u64| if k < CLUSTER { line(k) } else { calm(k) };
    for _ in 0..2 {
        step(
            &mut m,
            &mut oracle,
            (0..FLEET).map(|k| (k, home(k))).collect(),
        );
    }
    let corner: Vec<(u64, Vec<f64>)> = (0..CLUSTER)
        .map(|k| {
            let x = 0.1 + 0.02 * ((k % 7) as f64 / 7.0) + 0.001 * jitter(k, 37);
            (k, vec![x, 0.12 + 0.001 * jitter(k, 53)])
        })
        .collect();
    let r = step(&mut m, &mut oracle, corner);
    assert_eq!(r.verdicts().len(), CLUSTER as usize);
    assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));
    let far = FLEET - 1;
    for round in 0..4 {
        let wiggle = if round % 2 == 0 { 0.003 } else { -0.003 };
        let mut row = calm(far);
        row[0] += wiggle;
        let r = step(&mut m, &mut oracle, vec![(far, row)]);
        assert_eq!(
            r.verdicts().len(),
            CLUSTER as usize,
            "the silent cluster stays abnormal"
        );
    }
    assert_eq!(oracle.checked(), 5 * CLUSTER as usize);
}

/// Churn around a frozen cluster near the origin, checked against the
/// naive oracle at every seal: a far leave plus join (the cluster's cached
/// verdicts are served), a leave and a join next to the cluster, a far
/// leave that relocates that joiner, a cluster member leaving, a joiner
/// landing inside the cluster, and a restore while a joiner has not sealed
/// yet (the rebuilt grid must leave it out: its placeholder row sits next
/// to the cluster).
#[test]
fn churn_around_a_frozen_cluster_matches_the_oracle() {
    const N: u64 = 60;
    let builder = || {
        MonitorBuilder::new()
            .staleness(StalenessPolicy::CarryForward { max_age: 10_000 })
            .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
    };
    let mut m = builder().fleet(N as usize).build().unwrap();
    let mut oracle = Oracle::new();
    let home = |k: u64| match k {
        0..=5 => 0.55 + 0.01 * k as f64,
        6 => 0.27,
        _ => 0.6 + 0.3 * (k % 37) as f64 / 37.0,
    };
    let row = |k: u64, x: f64| (k, vec![x]);
    for _ in 0..2 {
        step(
            &mut m,
            &mut oracle,
            (0..N).map(|k| row(k, home(k))).collect(),
        );
    }
    let jump = (0..6).map(|k| row(k, 0.01 + 0.008 * k as f64)).collect();
    step(&mut m, &mut oracle, jump);
    let quiet =
        |m: &mut Monitor, oracle: &mut Oracle, cluster: usize, extra: Option<(u64, f64)>| {
            let wiggle = if m.instant().is_multiple_of(2) {
                0.004
            } else {
                -0.004
            };
            let mut rows = vec![row(30, home(30) + wiggle)];
            rows.extend(extra.map(|(k, x)| row(k, x)));
            let r = step(m, oracle, rows);
            assert_eq!(
                r.verdicts().len(),
                cluster,
                "the frozen cluster stays abnormal"
            );
        };
    quiet(&mut m, &mut oracle, 6, None);
    // Far: #40 leaves (#59 is relocated), #100 joins.
    m.leave(40u64).unwrap();
    m.join(100u64).unwrap();
    quiet(&mut m, &mut oracle, 6, Some((100, 0.8)));
    quiet(&mut m, &mut oracle, 6, None);
    // Near: #6 leaves from within the cluster's rings, #200 joins there.
    m.leave(6u64).unwrap();
    m.join(200u64).unwrap();
    quiet(&mut m, &mut oracle, 6, Some((200, 0.1)));
    quiet(&mut m, &mut oracle, 6, None);
    // #41 leaves far away and relocates #200 next to the cluster.
    m.leave(41u64).unwrap();
    quiet(&mut m, &mut oracle, 6, None);
    // A cluster member leaves: the others lose a neighbour.
    m.leave(2u64).unwrap();
    quiet(&mut m, &mut oracle, 5, None);
    quiet(&mut m, &mut oracle, 5, None);
    // A calm joiner lands inside the cluster: one seal later the others
    // gain a neighbour.
    m.join(300u64).unwrap();
    quiet(&mut m, &mut oracle, 5, Some((300, 0.03)));
    quiet(&mut m, &mut oracle, 5, None);
    // A joiner next to the cluster, then a restore before its first seal.
    m.join(400u64).unwrap();
    let mut bytes = Vec::new();
    m.checkpoint(&mut bytes).unwrap();
    m = Monitor::restore(bytes.as_slice(), builder()).unwrap();
    quiet(&mut m, &mut oracle, 5, Some((400, 0.02)));
    assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));
    quiet(&mut m, &mut oracle, 5, None);
    assert_eq!(oracle.checked(), 6 * 7 + 5 * 6);
}

/// The acceptance bar for delta-style sealing: an epoch where ≤ 1% of the
/// fleet reports a change re-buckets only those devices in the vicinity
/// grid — no full rebuild (and, structurally, no full snapshot clone:
/// the sealing path recycles the previous snapshot's buffers).
#[test]
fn sealing_a_one_percent_epoch_is_incremental() {
    const N: usize = 500;
    const CHANGED: usize = 5; // exactly 1% of the fleet
    let mut m = MonitorBuilder::new()
        .staleness(StalenessPolicy::CarryForward { max_age: 1_000 })
        .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
        .fleet(N)
        .build()
        .unwrap();
    // Two full epochs establish the previous snapshot and the buffers.
    for _ in 0..2 {
        m.ingest_many((0..N as u64).map(|k| (k, vec![0.2 + (k % 50) as f64 * 0.01])))
            .unwrap();
        m.seal().unwrap();
    }
    assert_eq!(
        m.last_grid_update(),
        None,
        "no flags yet, no grid update yet"
    );

    // Epoch 3: 1% of the fleet jumps; everyone else is silent and carried.
    m.ingest_many((0..CHANGED as u64).map(|k| (k, vec![0.95])))
        .unwrap();
    let r = m.seal().unwrap();
    assert_eq!(r.verdicts().len(), CHANGED);
    assert_eq!(r.stragglers().len(), N - CHANGED);
    assert_eq!(
        m.last_grid_update(),
        Some(GridUpdate::Rebuilt),
        "the first characterized instant builds the grid"
    );

    // Epoch 4: another 1% jumps. The grid must absorb the staged moves of
    // epoch 3 incrementally — rebucketing at most those few devices — and
    // never rebuild.
    m.ingest_many((0..CHANGED as u64).map(|k| (k, vec![0.2 + (k % 50) as f64 * 0.01])))
        .unwrap();
    let r = m.seal().unwrap();
    assert_eq!(r.verdicts().len(), CHANGED);
    match m.last_grid_update() {
        Some(GridUpdate::Incremental { rebucketed }) => assert!(
            rebucketed <= CHANGED,
            "rebucketed {rebucketed} devices for a {CHANGED}-device epoch"
        ),
        other => panic!("expected an incremental grid update, got {other:?}"),
    }

    // And it stays incremental across further small epochs.
    for round in 0..3 {
        let level = if round % 2 == 0 { 0.95 } else { 0.4 };
        m.ingest_many((0..CHANGED as u64).map(|k| (k, vec![level])))
            .unwrap();
        m.seal().unwrap();
        assert!(
            matches!(
                m.last_grid_update(),
                Some(GridUpdate::Incremental { rebucketed }) if rebucketed <= CHANGED
            ),
            "round {round}: {:?}",
            m.last_grid_update()
        );
    }
}

/// Joins and leaves are local edits of the slot-aligned state: once the
/// first characterized instant has built the grid, a leave plus a join
/// between small epochs keeps it incremental — a leaver or a relocated
/// device among the flagged ones included — and every seal matches the
/// oracle.
#[test]
fn churn_keeps_the_grid_incremental() {
    let mut m = MonitorBuilder::new()
        .staleness(StalenessPolicy::CarryForward { max_age: 100 })
        .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
        .fleet(64)
        .build()
        .unwrap();
    let mut oracle = Oracle::new();
    let calm = |k: u64| (k, vec![0.5 + 0.4 * (k % 16) as f64 / 16.0]);
    step(&mut m, &mut oracle, (0..64u64).map(calm).collect());
    step(&mut m, &mut oracle, (0..64u64).map(calm).collect());
    let jump = |jumpers: &[u64], level: f64| -> Vec<(u64, Vec<f64>)> {
        jumpers.iter().map(|&k| (k, vec![level])).collect()
    };
    step(&mut m, &mut oracle, jump(&[1, 2, 3, 63], 0.1));
    assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));

    // Each round: one device leaves (the last slot moves into its place),
    // one joins and reports, and the jumpers move again.
    let rounds: [(u64, &[u64]); 6] = [
        (40, &[1, 2, 3, 63]), // flagged #63 is relocated into slot 40
        (2, &[1, 3, 63]),     // a flagged device leaves
        (20, &[1, 3, 63]),
        (101, &[1, 3, 63]), // last round's joiner leaves
        (63, &[1, 3]),      // the relocated flagged device leaves
        (0, &[1, 3]),
    ];
    for (round, &(leaver, jumpers)) in rounds.iter().enumerate() {
        let joiner = 100 + round as u64;
        m.leave(leaver).unwrap();
        m.join(joiner).unwrap();
        let level = if round % 2 == 0 { 0.45 } else { 0.1 };
        let mut rows = jump(jumpers, level);
        rows.push((joiner, vec![0.5]));
        let r = step(&mut m, &mut oracle, rows);
        assert_eq!(r.population(), 64);
        assert!(!r.verdicts().is_empty(), "round {round} characterizes");
        assert!(
            matches!(
                m.last_grid_update(),
                Some(GridUpdate::Incremental { rebucketed }) if rebucketed <= jumpers.len()
            ),
            "round {round}: {:?}",
            m.last_grid_update()
        );
    }
    assert!(oracle.checked() >= 2 * rounds.len());
}
