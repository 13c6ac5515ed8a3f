//! `steady-cluster-50k`: 50,000 devices on 2 services. A 64-device cluster
//! jumps once during set-up and then goes silent under `CarryForward`, so
//! its frozen flags keep it abnormal; every measured epoch, 500 calm devices
//! far from it report a small wiggle. The seal's cache-hit path does all
//! the work.

use crate::alloc;
use crate::harness::{hash, ms, timed_setups, Clock, Config, Outcome, SplitMix};
use crate::reference::{Positions, Reference};
use crate::report;
use anomaly_characterization::pipeline::{
    GridMaintenance, Monitor, MonitorBuilder, StalenessPolicy,
};
use anomaly_detectors::{ThresholdDetector, VectorDetector};
use anomaly_qos::GridUpdate;

const DEVICES: usize = 50_000;
const SERVICES: usize = 2;
/// Devices `0..CLUSTER` form the cluster.
const CLUSTER: usize = 64;
/// Calm devices reporting per measured epoch.
const CHANGED: usize = 500;
const CALM: usize = DEVICES - CLUSTER;
/// Below the calm wiggle's 0.008 swing is nothing; above the jump, all.
const DELTA: f64 = 0.15;
/// Measured epochs per second of `--seconds`, and the least a run does.
const EPOCHS_PER_SECOND: f64 = 600.0;
const MIN_EPOCHS: usize = 110;
/// Measured epochs between two timed from-scratch reference replays (with
/// a fresh `qos` grid) in a traced run; in between, the reference reuses
/// its answer while the epoch's trajectory table repeats.
const GRID_EVERY: usize = 8;

type Rows = Vec<(u64, Vec<f64>)>;

/// The seeded inputs: calm positions, the cluster's positions before and
/// after its jump, and the order in which calm devices take turns.
struct Inputs {
    base: Vec<[f64; 2]>,
    jump: Vec<[f64; 2]>,
    order: Vec<usize>,
}

fn inputs(seed: u64) -> Inputs {
    let mut g = SplitMix::new(seed);
    // The cluster starts on a tight diagonal line inside the calm region,
    // so its jump epoch has many overlapping dense motions; calm devices
    // sit uniformly in [0.55, 0.85]^2, far (> 4r) from the jump corner.
    let origin = [0.55 + 0.05 * g.unit(), 0.55 + 0.05 * g.unit()];
    let base: Vec<[f64; 2]> = (0..DEVICES)
        .map(|k| {
            if k < CLUSTER {
                [
                    origin[0] + 0.0031 * k as f64 + 0.0005 * g.unit(),
                    origin[1] + 0.0034 * k as f64 + 0.0005 * g.unit(),
                ]
            } else {
                [0.55 + 0.3 * g.unit(), 0.55 + 0.3 * g.unit()]
            }
        })
        .collect();
    let corner = [0.08 + 0.04 * g.unit(), 0.10 + 0.04 * g.unit()];
    let jump = (0..CLUSTER)
        .map(|k| {
            [
                corner[0] + 0.02 * ((k % 7) as f64 / 7.0) + 0.001 * g.unit(),
                corner[1] + 0.001 * g.unit(),
            ]
        })
        .collect();
    let mut order: Vec<usize> = (CLUSTER..DEVICES).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, g.below(i + 1));
    }
    Inputs { base, jump, order }
}

/// One full epoch: every device at its base, or the cluster jumped.
fn full_rows(inp: &Inputs, jumped: bool) -> Rows {
    (0..DEVICES)
        .map(|k| {
            let row = if jumped && k < CLUSTER {
                inp.jump[k]
            } else {
                inp.base[k]
            };
            (k as u64, row.to_vec())
        })
        .collect()
}

/// Measured epoch `step`: the next `CHANGED` calm devices in turn, each a
/// ±0.004 wiggle off its base.
fn wiggle_rows(inp: &Inputs, step: usize) -> Rows {
    let start = (step * CHANGED) % CALM;
    let delta = if step.is_multiple_of(2) {
        0.004
    } else {
        -0.004
    };
    (0..CHANGED)
        .map(|i| {
            let k = inp.order[(start + i) % CALM];
            let [x, y] = inp.base[k];
            (k as u64, vec![x + delta, y])
        })
        .collect()
}

fn build() -> Monitor {
    MonitorBuilder::new()
        .services(SERVICES)
        .staleness(StalenessPolicy::CarryForward {
            max_age: u64::MAX - 1,
        })
        .grid_maintenance(GridMaintenance::Incremental)
        .detector_factory(|_| {
            Box::new(VectorDetector::homogeneous(SERVICES, || {
                ThresholdDetector::with_delta(DELTA)
            }))
        })
        .capacity(DEVICES)
        .fleet(DEVICES)
        .build()
        .expect("steady-cluster monitor configuration is valid")
}

/// Monitor build, two calm full epochs, then the cold jump epoch: the first
/// characterized epoch, which builds the grid.
fn setup(warm: [Rows; 3]) -> Monitor {
    let mut monitor = build();
    for rows in warm {
        monitor.ingest_many(rows).expect("set-up rows are valid");
        let report = monitor.seal().expect("set-up epochs seal");
        if !report.verdicts().is_empty() {
            assert_eq!(report.verdicts().len(), CLUSTER, "the cluster must flag");
            assert_eq!(monitor.last_grid_update(), Some(GridUpdate::Rebuilt));
        }
    }
    monitor
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new(cfg.trace);
    let inp = inputs(cfg.seed);
    let (mut monitor, setups, heap_baseline) = timed_setups(
        cfg,
        || {
            [
                full_rows(&inp, false),
                full_rows(&inp, false),
                full_rows(&inp, true),
            ]
        },
        setup,
    );
    let params = monitor.params();
    let mut before = Positions::of(monitor.last_snapshot().expect("set-up sealed a snapshot"));

    let mut reference = Reference::default();
    let mut clock = Clock::new(cfg, EPOCHS_PER_SECOND, MIN_EPOCHS);
    let mut step = 0usize;
    while clock.next_epoch() {
        let traced = hash(cfg.seed, 1, step as u64) & 1 == 1;
        let root = out.tracer.start_epoch(step as u64, traced);
        let rows = wiggle_rows(&inp, step);

        let (ingested, t_ingest) = out.tracer.span("ingest", || monitor.ingest_many(rows));
        let (sealed, t_seal) = out.tracer.span("seal", || monitor.seal());
        clock.charge(t_ingest);
        clock.result(t_seal, traced);
        out.layers.sample("ingest.busy_ms", ms(t_ingest));
        out.layers.add("ingest.updates", CHANGED as f64);

        let mut failed = false;
        if let Err(err) = ingested {
            out.layers.add("ingest.rejected", 1.0);
            out.problem(format!("ingest rejected a valid row: {err}"));
        }
        match sealed {
            Ok(report) => {
                report::record(&mut out.layers, &monitor, &report, t_seal, false);
                if report.verdicts().len() != CLUSTER {
                    out.problem(format!(
                        "epoch {step}: {} verdicts, expected the {CLUSTER}-device cluster",
                        report.verdicts().len()
                    ));
                }
                if report.straggler_count() != DEVICES - CHANGED {
                    out.problem(format!(
                        "epoch {step}: {} stragglers, expected {}",
                        report.straggler_count(),
                        DEVICES - CHANGED
                    ));
                }
                let after = monitor
                    .last_snapshot()
                    .expect("a sealed epoch leaves a snapshot");
                let fresh = cfg.trace && step.is_multiple_of(GRID_EVERY);
                let mismatches = reference.check(
                    &before,
                    after,
                    params,
                    report.verdicts(),
                    t_seal,
                    fresh,
                    &mut out.tracer,
                    &mut out.layers,
                );
                failed |= mismatches > 0;
                before.refresh(after);
            }
            Err(err) => {
                failed = true;
                out.problem(format!("seal error: {err}"));
                monitor.discard_epoch();
            }
        }
        if failed {
            clock.fail();
        }
        out.tracer.end_epoch(root);
        step += 1;
    }

    out.fact("devices", DEVICES);
    out.fact("services", SERVICES);
    out.fact("cluster", CLUSTER);
    out.fact("changed_per_epoch", CHANGED);
    out.fact("engine", format!("{:?}", monitor.engine()));
    let heap_growth = alloc::peak().saturating_sub(heap_baseline);
    out.finish(&clock, &setups, heap_growth, cfg.trace);
    out
}
