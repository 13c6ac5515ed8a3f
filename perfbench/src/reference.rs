//! The outside-in reference: replays one epoch's interval from scratch
//! through `core` (and, for per-layer numbers, `qos`) and compares class
//! and component of every verdict the monitor served.

use crate::harness::{us, Layers, Tracer};
use anomaly_characterization::pipeline::DeviceVerdict;
use anomaly_core::{
    AnalyzerCore, AnomalyClass, ComponentPartition, DevicePrecompute, Params, TrajectoryTable,
    DEFAULT_ENUMERATION_BUDGET,
};
use anomaly_qos::{DeviceId, GridIndex, QosSpace, Snapshot, StatePair};
use std::time::Duration;

/// A seal this slow is a stall: the collection search ran into its budget.
pub const STALL: Duration = Duration::from_secs(2);

/// A flat copy of a snapshot's coordinates: the previous epoch's positions,
/// kept without one allocation per device.
pub struct Positions {
    dim: usize,
    coords: Vec<f64>,
}

impl Positions {
    pub fn of(snapshot: &Snapshot) -> Self {
        let mut positions = Positions {
            dim: snapshot.dim(),
            coords: Vec::new(),
        };
        positions.refresh(snapshot);
        positions
    }

    /// Overwrites the copy with `snapshot`'s coordinates.
    pub fn refresh(&mut self, snapshot: &Snapshot) {
        self.dim = snapshot.dim();
        self.coords.clear();
        for (_, point) in snapshot.iter() {
            self.coords.extend_from_slice(point.coords());
        }
    }

    fn row(&self, id: DeviceId) -> &[f64] {
        let start = id.index() * self.dim;
        &self.coords[start..start + self.dim]
    }

    fn snapshot(&self) -> Snapshot {
        let space = QosSpace::new(self.dim).expect("a snapshot has at least one service");
        let rows = self.coords.chunks(self.dim).map(<[f64]>::to_vec).collect();
        Snapshot::from_rows(&space, rows).expect("copied coordinates are valid")
    }
}

/// The reference's answer for one trajectory table: class and component
/// per device, in table order.
struct Answer {
    table: TrajectoryTable,
    classes: Vec<AnomalyClass>,
    partition: ComponentPartition,
}

/// The outside-in reference. Its answer is a pure function of the epoch's
/// trajectory table and the parameters, so an epoch whose table equals the
/// previous epoch's reuses that answer unless `fresh` asks for a timed
/// recomputation.
#[derive(Default)]
pub struct Reference {
    last: Option<Answer>,
}

impl Reference {
    /// Replays `(before, after, A_k)` and returns how many verdicts disagree
    /// with the monitor's. `A_k` is the verdict set itself: on an interval
    /// without churn every flagged device with a previous position gets one.
    ///
    /// With `fresh` set, the answer is recomputed even for a repeated
    /// table, and a fresh vicinity grid is built over the whole pair and
    /// queried for each verdict, for the `qos` per-layer numbers.
    ///
    /// An epoch whose seal took [`STALL`] or longer is counted and not
    /// replayed: the replay would cost as much again, and a run must end
    /// within its time limit.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &mut self,
        before: &Positions,
        after: &Snapshot,
        params: Params,
        verdicts: &[DeviceVerdict],
        sealed_in: Duration,
        fresh: bool,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> usize {
        if sealed_in >= STALL {
            layers.add("reference.skipped_epochs", 1.0);
            return 0;
        }
        let root = tracer.begin("reference");
        let abnormal: Vec<DeviceId> = verdicts.iter().map(|v| v.id).collect();
        let (table, took) = tracer.span("core.table", || {
            let rows = abnormal
                .iter()
                .map(|&j| {
                    let mut row = before.row(j).to_vec();
                    row.extend_from_slice(after.position(j).coords());
                    (j, row)
                })
                .collect();
            TrajectoryTable::from_concatenated(after.dim(), rows)
        });
        layers.sample("core.table_us", us(took));
        let repeated = self.last.as_ref().is_some_and(|last| last.table == table);
        if fresh || !repeated {
            let answer = answer(table, params, &abnormal, tracer, layers);
            if fresh {
                grid(before, after, params, &abnormal, tracer, layers);
            }
            self.last = Some(answer);
        }
        let answer = self.last.as_ref().expect("an answer was just stored");
        let mismatches = verdicts
            .iter()
            .zip(&answer.classes)
            .filter(|(served, &class)| {
                served.class() != class
                    || served.component != answer.partition.component_of(served.id)
            })
            .count();
        layers.add("reference.epochs", 1.0);
        layers.add("reference.mismatches", mismatches as f64);
        if mismatches > 0 {
            layers.add("reference.failed_epochs", 1.0);
        }
        tracer.end(root);
        mismatches
    }
}

/// Computes the answer from scratch, one timed span per layer call.
fn answer(
    table: TrajectoryTable,
    params: Params,
    abnormal: &[DeviceId],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Answer {
    let (parts, took) = tracer.span("core.precompute", || {
        abnormal
            .iter()
            .map(|&j| {
                let part =
                    AnalyzerCore::precompute_device(&table, &params, j, DEFAULT_ENUMERATION_BUDGET);
                (j, part)
            })
            .collect::<Vec<(DeviceId, DevicePrecompute)>>()
    });
    layers.sample("core.precompute_us", us(took));
    for (_, part) in &parts {
        layers.add("core.dense_sets", part.dense().len() as f64);
        if part.overflowed() {
            layers.add("core.overflowed", 1.0);
        }
    }

    let (partition, took) = tracer.span("core.partition", || {
        ComponentPartition::from_dense_sets(parts.iter().map(|(j, part)| (*j, part.dense())))
    });
    layers.sample("core.partition_us", us(took));

    let (decided, took) = tracer.span("core.decide", || {
        let core = AnalyzerCore::from_parts(&table, params, parts);
        abnormal
            .iter()
            .map(|&j| core.characterize_full(&table, j))
            .collect::<Vec<_>>()
    });
    layers.sample("core.decide_us", us(took));

    Answer {
        table,
        classes: decided.iter().map(|c| c.class()).collect(),
        partition,
    }
}

/// Builds a fresh vicinity grid over the whole interval and queries each
/// verdict's vicinity, for the `qos` per-layer numbers.
fn grid(
    before: &Positions,
    after: &Snapshot,
    params: Params,
    abnormal: &[DeviceId],
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let pair = StatePair::new(before.snapshot(), after.clone()).expect("one shape");
    let window = params.window();
    let (index, took) = tracer.span("qos.grid_build", || {
        GridIndex::build(&pair, window.max(1e-6))
    });
    layers.sample("qos.grid_build_us", us(took));
    let (_, took) = tracer.span("qos.neighbors", || {
        let mut buf = Vec::new();
        let mut total = 0usize;
        for &j in abnormal {
            index.neighbors_both_into(&pair, j, window, &mut buf);
            total += buf.len();
        }
        total
    });
    layers.sample("qos.neighbors_us", us(took));
}
