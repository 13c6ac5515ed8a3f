use super::characterize::Characterizer;
use super::engine::Engine;
use super::error::MonitorError;
use super::events::{AnomalyEvent, EventDelta, EventTracker};
use super::ingest::{EpochState, StalenessPolicy};
use super::key::DeviceKey;
use super::persist;
use super::report::{DeviceVerdict, Report, ReportSummary, Stragglers};
use super::timings::Stopwatch;
use anomaly_core::Params;
use anomaly_detectors::{DeviceDetector, StateReader, StateWriter};
use anomaly_qos::{
    uniform_distance, DeviceId, GridUpdate, Point, QosError, QosSpace, Snapshot, StatePair,
};
use anomaly_store::{Dec, Enc};
// conformance: allow(C2, reason = "HashMap backs only the lookup-only key index; it is never iterated, so hash order cannot reach a report")
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Produces the error-detection function of a joining device from its
/// stable key.
pub type DetectorFactory = Box<dyn Fn(DeviceKey) -> Box<dyn DeviceDetector>>;

/// Continuous, churn-tolerant monitor for a fleet of devices — the
/// deployable form of the paper's pipeline.
///
/// Each sampling instant `k` closes with one snapshot of the fleet: the
/// snapshot feeds each device's error-detection function (`a_k(j)`,
/// Section III-A), flagged devices form the abnormal set `A_k`, and the
/// local characterization of Section V runs over the `[k−1, k]` interval,
/// classifying each flagged device as isolated, massive, or unresolved.
///
/// Two front-ends feed the same engine:
///
/// * **Streaming** — [`ingest`](Monitor::ingest) /
///   [`ingest_many`](Monitor::ingest_many) accumulate per-device updates
///   (any order, duplicates last-write-wins) into an open epoch;
///   [`seal`](Monitor::seal) resolves devices that stayed silent through
///   the configured [`StalenessPolicy`], assembles the snapshot
///   delta-style from the previous one, and returns the epoch's
///   [`Report`].
/// * **Batch** — [`observe`](Monitor::observe) /
///   [`observe_rows`](Monitor::observe_rows) take one pre-assembled
///   snapshot; they are one-shot conveniences implemented as `ingest_many`
///   over every row followed by `seal`, so the paths are equivalent by
///   construction.
///
/// A `Monitor`
///
/// * never panics on misuse — every error path returns a typed
///   [`MonitorError`];
/// * supports **dynamic membership**: devices [`join`](Monitor::join) and
///   [`leave`](Monitor::leave) between instants under stable
///   [`DeviceKey`]s. Both are local changes (Definition 1): they edit the
///   slot-aligned state in place and invalidate only the cached verdicts
///   within `4r` of the devices involved, and a joiner is characterized
///   from its second sealed instant on;
/// * accepts any [`DeviceDetector`] implementation per device — the plug
///   point for the error-detection function `a_k(j)`, which the paper
///   leaves abstract — so fleets mix detector families freely;
/// * reuses its snapshot buffers across instants, keeps its vicinity grid,
///   verdict cache and worker pool in one characterize-step owner
///   (`src/pipeline/characterize.rs`), and reports per-instant wall-clock
///   timings.
///
/// Construct one with [`MonitorBuilder`](super::MonitorBuilder).
///
/// # Example
///
/// ```
/// use anomaly_characterization::pipeline::{DeviceKey, MonitorBuilder};
/// use anomaly_core::AnomalyClass;
///
/// let mut monitor = MonitorBuilder::new().fleet(6).build()?;
/// // Healthy warm-up.
/// for _ in 0..30 {
///     let report = monitor.observe_rows(vec![vec![0.9]; 6])?;
///     assert!(report.is_quiet());
/// }
/// // A shared incident hits devices 0..5; device 5 fails alone.
/// let rows = vec![
///     vec![0.40], vec![0.41], vec![0.42], vec![0.43], vec![0.44], vec![0.10],
/// ];
/// let report = monitor.observe_rows(rows)?;
/// assert_eq!(report.verdicts().len(), 6);
/// assert_eq!(report.class_of(DeviceKey(5)), Some(AnomalyClass::Isolated));
/// assert!(report.has_network_event());
/// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
/// ```
pub struct Monitor {
    params: Params,
    services: usize,
    factory: DetectorFactory,
    space: QosSpace,
    max_population: u64,
    /// Dense order: index `i` is the device with id `DeviceId(i)` now.
    /// Arc'd so a sealed [`Report`] can reference the epoch's key order
    /// (for its lazily materialized straggler list) without copying it;
    /// membership changes go through [`Arc::make_mut`], which clones only
    /// if such a report is still alive.
    keys: Arc<Vec<DeviceKey>>,
    /// Key → dense-slot map. Lookup-only: every read is a point query
    /// (`get`/`contains_key`) on the per-update hot path, never an
    /// iteration, so its hash order is unobservable in any report.
    // conformance: allow(C2, reason = "lookup-only key index on the per-update hot path; never iterated")
    index: HashMap<DeviceKey, u32>,
    detectors: Vec<Box<dyn DeviceDetector>>,
    /// Snapshot of the previous instant, if any, slot-aligned with `keys`
    /// (a newcomer holds a placeholder row until its first seal).
    previous: Option<Snapshot>,
    /// The characterize step and its derived state: vicinity grid, verdict
    /// cache and worker pool.
    characterizer: Characterizer,
    /// Last detector verdict per dense slot: `(is_anomalous, score)`.
    /// Slot-aligned with `keys`; slots whose detector is not fed this
    /// epoch (carried rows) keep — "freeze" — their last verdict, which
    /// is what makes detection O(fed) instead of O(n).
    flag_state: Vec<(bool, f64)>,
    /// The slots currently flagged (`flag_state[i].0 == true`), maintained
    /// incrementally at every verdict flip so assembling `A_k` is
    /// O(|A_k|), not an O(population) scan. Kept aligned with `flag_state`
    /// through the same swap-remove discipline on churn.
    flagged_slots: BTreeSet<u32>,
    instant: u64,
    /// The open streaming epoch: pending per-device updates and
    /// staleness ages (slot-aligned with `keys`).
    pub(super) epoch: EpochState,
    /// How [`Monitor::seal`] resolves devices that did not report.
    pub(super) staleness: StalenessPolicy,
    /// Recycled snapshot buffer for delta-style sealing: holds the
    /// second-to-last snapshot `S_{k-2}`, which differs from `previous`
    /// (`S_{k-1}`) by exactly `spare_lag`. Ping-ponged with `previous`
    /// every epoch, so steady-state sealing never clones a snapshot.
    pub(super) spare: Option<Snapshot>,
    /// Rows of `spare` that are stale with respect to `previous`.
    pub(super) spare_lag: Vec<DeviceId>,
    /// Correlates per-epoch verdicts into anomaly events and keeps the
    /// bounded report history.
    tracker: EventTracker,
}

/// The per-epoch change summary [`Monitor::seal`] hands to
/// [`Monitor::advance`]: which detectors receive a fresh observation,
/// which rows changed, and which slots are newcomers. This is what makes
/// the back half of `seal` scale with the churn instead of the population.
pub(super) struct SealDelta {
    /// Dense slots with a fresh update this epoch; the detectors of every
    /// other slot stay frozen.
    pub(super) fed: Vec<u32>,
    /// Rows that differ from the previous snapshot (the spare's next lag),
    /// and every newcomer's first row (none at a first seal).
    pub(super) changed: Vec<DeviceId>,
    /// Slots that joined since the previous seal: no position at `k−1`, so
    /// flagged ones are warming, and the grid leaves them out.
    pub(super) newcomers: BTreeSet<u32>,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("population", &self.keys.len())
            .field("services", &self.services)
            .field("instant", &self.instant)
            .field("params", &self.params)
            .field("staleness", &self.staleness)
            .field("pending_updates", &self.epoch.updated())
            .finish()
    }
}

impl Monitor {
    /// Called by the builder; all arguments pre-validated.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn from_parts(
        params: Params,
        services: usize,
        factory: DetectorFactory,
        space: QosSpace,
        capacity: usize,
        max_population: u64,
        engine: Engine,
        staleness: StalenessPolicy,
        history: usize,
        debounce: u64,
    ) -> Self {
        Monitor {
            params,
            services,
            factory,
            space,
            max_population,
            keys: Arc::new(Vec::with_capacity(capacity)),
            // conformance: allow(C2, reason = "lookup-only key index on the per-update hot path; never iterated")
            index: HashMap::with_capacity(capacity),
            detectors: Vec::with_capacity(capacity),
            previous: None,
            characterizer: Characterizer::new(params, services, engine),
            flag_state: Vec::with_capacity(capacity),
            flagged_slots: BTreeSet::new(),
            instant: 0,
            epoch: EpochState::with_capacity(capacity),
            staleness,
            spare: None,
            spare_lag: Vec::new(),
            tracker: EventTracker::new(history, debounce),
        }
    }

    /// The execution strategy for the characterization phase.
    pub fn engine(&self) -> Engine {
        self.characterizer.engine()
    }

    /// How the most recent characterized instant brought the vicinity grid
    /// up to date: [`GridUpdate::Incremental`] with the number of devices
    /// re-bucketed, or [`GridUpdate::Rebuilt`]. `None` until the first
    /// characterization runs, and `Rebuilt` only at the first
    /// characterized instant after build, reset or restore: small epochs
    /// and joins and leaves report `Incremental` —
    /// `tests/ingest_equivalence.rs` pins that down.
    pub fn last_grid_update(&self) -> Option<GridUpdate> {
        self.characterizer.last_grid_update()
    }

    /// Number of monitored devices.
    pub fn population(&self) -> usize {
        self.keys.len()
    }

    /// Services per device (the QoS space dimension `d`).
    pub fn services(&self) -> usize {
        self.services
    }

    /// The characterization parameters in force.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The fleet-size bound.
    pub fn max_population(&self) -> u64 {
        self.max_population
    }

    /// The next sampling instant: epochs sealed so far, counting those
    /// sealed before the checkpoint this monitor was restored from.
    pub fn instant(&self) -> u64 {
        self.instant
    }

    /// Stable keys in dense order: `keys()[i]` is `DeviceId(i)` at the next
    /// observation. The order shifts under churn — [`Monitor::leave`] moves
    /// the last device into the vacated slot.
    pub fn keys(&self) -> &[DeviceKey] {
        &self.keys
    }

    /// True when `key` is currently in the fleet.
    pub fn contains(&self, key: DeviceKey) -> bool {
        self.index.contains_key(&key)
    }

    /// Current dense id of `key`, if present.
    pub fn id_of(&self, key: DeviceKey) -> Option<DeviceId> {
        self.index.get(&key).map(|&i| DeviceId(i))
    }

    /// Stable key of the device currently at dense id `id`.
    pub fn key_of(&self, id: DeviceId) -> Option<DeviceKey> {
        self.keys.get(id.index()).copied()
    }

    /// The last sealed snapshot, if any. Rows follow the current dense
    /// order: after a [`Monitor::leave`] the last row has moved into the
    /// leaver's slot, and a device that joined since holds a placeholder
    /// row until its first seal.
    pub fn last_snapshot(&self) -> Option<&Snapshot> {
        self.previous.as_ref()
    }

    /// True when the last sealed snapshot holds `snapshot`'s row for every
    /// device that has a sealed row (newcomers have none to compare).
    pub(super) fn has_sealed(&self, snapshot: &Snapshot) -> bool {
        self.previous.as_ref().is_some_and(|prev| {
            prev.len() == snapshot.len()
                && prev
                    .iter()
                    .zip(snapshot.iter())
                    .all(|((id, a), (_, b))| a == b || self.epoch.is_newcomer(id.index()))
        })
    }

    /// The anomaly event tracker: open events, recently closed ones, and
    /// lifetime counters. Updated at every seal; the per-epoch change feed
    /// is [`Report::event_deltas`].
    pub fn events(&self) -> &EventTracker {
        &self.tracker
    }

    /// Summaries of the most recently sealed epochs, oldest first — the
    /// bounded ring configured by
    /// [`MonitorBuilder::history`](super::MonitorBuilder::history).
    pub fn history(&self) -> impl Iterator<Item = &ReportSummary> {
        self.tracker.history()
    }

    /// Current dense slot of `key` (internal form of [`Monitor::id_of`]).
    pub(super) fn slot_of(&self, key: DeviceKey) -> Option<usize> {
        self.index.get(&key).map(|&i| i as usize)
    }

    /// The stable key at dense index `i`, as a typed invariant error
    /// instead of a panicking index (conformance C1): every `i` handed to
    /// this comes from a structure maintained slot-aligned with `keys`, so
    /// a miss is a bug in this crate, not misuse.
    pub(super) fn key_at(&self, i: u32) -> Result<DeviceKey, MonitorError> {
        self.keys
            .get(i as usize)
            .copied()
            .ok_or(MonitorError::internal("dense id out of range for fleet"))
    }

    /// The QoS space rows are validated against.
    pub(super) fn space(&self) -> &QosSpace {
        &self.space
    }

    /// Shared handle on the current dense key order, for reports that
    /// reference it lazily (O(1); see the `keys` field).
    pub(super) fn key_order_handle(&self) -> Arc<Vec<DeviceKey>> {
        Arc::clone(&self.keys)
    }

    /// A newcomer's row in `previous` until its first seal; nothing reads it.
    pub(super) fn placeholder(&self) -> Point {
        Point::new_unchecked(vec![0.0; self.services])
    }

    /// Enrolls a device, building its detector with the configured factory.
    /// Returns the device's dense id at the next observation.
    ///
    /// A device joining between instants `k-1` and `k` has no position at
    /// `k-1`: it is a newcomer that warms up at `k` (reported via
    /// [`Report::warming`] if flagged), stays out of the vicinity grid, and
    /// is characterized from `k+1` on. Until its first update
    /// it also has nothing to carry forward, so under
    /// [`StalenessPolicy::Reject`] and
    /// [`StalenessPolicy::CarryForward`] it must report in the epoch that
    /// seals next.
    ///
    /// # Errors
    ///
    /// [`MonitorError::DuplicateDevice`], [`MonitorError::FleetTooLarge`],
    /// or [`MonitorError::ServiceMismatch`] (factory produced a detector of
    /// the wrong width).
    pub fn join(&mut self, key: impl Into<DeviceKey>) -> Result<DeviceId, MonitorError> {
        let key = key.into();
        let detector = (self.factory)(key);
        self.join_with(key, detector)
    }

    /// Enrolls a device with an explicitly supplied detector, bypassing the
    /// factory — e.g. to migrate a warmed-up detector between monitors.
    ///
    /// # Errors
    ///
    /// Same as [`Monitor::join`].
    pub fn join_with(
        &mut self,
        key: impl Into<DeviceKey>,
        detector: Box<dyn DeviceDetector>,
    ) -> Result<DeviceId, MonitorError> {
        let key = key.into();
        if self.index.contains_key(&key) {
            return Err(MonitorError::DuplicateDevice { key });
        }
        let population = self.keys.len() as u64 + 1;
        if population > self.max_population {
            return Err(MonitorError::FleetTooLarge {
                population,
                bound: self.max_population,
            });
        }
        if detector.services() != self.services {
            return Err(MonitorError::ServiceMismatch {
                expected: self.services,
                actual: detector.services(),
            });
        }
        let id = self.keys.len() as u32;
        let newcomer = self.previous.is_some();
        if newcomer {
            let placeholder = self.placeholder();
            for snapshot in self.previous.iter_mut().chain(self.spare.iter_mut()) {
                snapshot
                    .push_row(placeholder.clone())
                    .map_err(out_of_step)?;
            }
        }
        self.characterizer.join(DeviceId(id))?;
        Arc::make_mut(&mut self.keys).push(key);
        self.detectors.push(detector);
        self.flag_state.push((false, 0.0));
        self.epoch.push_slot(newcomer);
        self.index.insert(key, id);
        Ok(DeviceId(id))
    }

    /// Removes a device from the fleet, returning its detector (still
    /// warmed up, in case the device re-joins later). Any update it staged
    /// in the open epoch is dropped with it.
    ///
    /// The last device in dense order moves into the vacated slot, so
    /// dense ids of other devices may change; stable keys never do.
    ///
    /// # Errors
    ///
    /// [`MonitorError::UnknownDevice`] when `key` is not in the fleet.
    pub fn leave(
        &mut self,
        key: impl Into<DeviceKey>,
    ) -> Result<Box<dyn DeviceDetector>, MonitorError> {
        let key = key.into();
        let Some(&slot) = self.index.get(&key) else {
            return Err(MonitorError::UnknownDevice { key });
        };
        let (slot, last) = (slot as usize, self.keys.len().saturating_sub(1));
        let (id, last_id) = (DeviceId(slot as u32), DeviceId(last as u32));
        let mut rows: Vec<&Point> = Vec::new();
        if let Some(previous) = &self.previous {
            for s in [slot, last] {
                if !self.epoch.is_newcomer(s) {
                    rows.push(
                        previous
                            .try_position(DeviceId(s as u32))
                            .map_err(out_of_step)?,
                    );
                }
            }
        }
        self.characterizer.leave(id, last_id, &rows)?;
        // Mirror the swap-remove in every slot-aligned structure.
        for snapshot in self.previous.iter_mut().chain(self.spare.iter_mut()) {
            snapshot.swap_remove_row(id).map_err(out_of_step)?;
        }
        self.spare_lag.retain(|&j| j != id);
        for j in &mut self.spare_lag {
            if *j == last_id {
                *j = id;
            }
        }
        swap_remove_slot(&mut self.flagged_slots, slot, last);
        self.epoch.remove_slot(slot);
        self.index.remove(&key);
        Arc::make_mut(&mut self.keys).swap_remove(slot);
        let detector = self.detectors.swap_remove(slot);
        self.flag_state.swap_remove(slot);
        if let Some(&moved) = self.keys.get(slot) {
            self.index.insert(moved, slot as u32);
        }
        Ok(detector)
    }

    /// Resets every detector, forgets the previous snapshot, and discards
    /// the open epoch together with its staleness history (e.g. after a
    /// maintenance window where QoS levels legitimately changed).
    ///
    /// Still-open anomaly events are closed with synthetic
    /// [`EventDeltaKind::Closed`](super::EventDeltaKind::Closed) deltas,
    /// returned in ascending id order — feed them to any consumer of
    /// [`Report::event_deltas`](super::Report::event_deltas) so it does
    /// not leak open alerts across the reset. Event ids and lifetime
    /// totals survive; ids are never reused.
    pub fn reset(&mut self) -> Vec<EventDelta> {
        for det in &mut self.detectors {
            det.reset();
        }
        self.flag_state.fill((false, 0.0));
        self.flagged_slots.clear();
        self.characterizer.reset();
        self.previous = None;
        self.epoch.reset();
        self.spare = None;
        self.spare_lag.clear();
        self.tracker.reset()
    }

    /// Convenience form of [`Monitor::observe`]: validates raw coordinate
    /// rows (one row per device, in dense [`Monitor::keys`] order) and
    /// observes the resulting snapshot.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Qos`] for invalid coordinates, plus everything
    /// [`Monitor::observe`] returns.
    pub fn observe_rows(&mut self, rows: Vec<Vec<f64>>) -> Result<Report, MonitorError> {
        let snapshot = Snapshot::from_rows(&self.space, rows)?;
        self.observe(snapshot)
    }

    /// One-shot batch form of the streaming API: ingests every row of a
    /// pre-assembled snapshot of instant `k` — one position per device, in
    /// dense [`Monitor::keys`] order — seals the epoch, and returns the
    /// interval's [`Report`].
    ///
    /// Implemented as [`ingest_many`](Monitor::ingest_many) over every row
    /// followed by [`seal`](Monitor::seal), so the batch and streaming
    /// paths produce identical reports by construction. Because every
    /// device receives an update, the [`StalenessPolicy`] never engages
    /// and any updates already staged in the open epoch are overwritten
    /// (last write wins) and sealed along.
    ///
    /// The first snapshot ever (and the first after [`Monitor::reset`])
    /// only warms the detectors: there is no `[k−1, k]` interval yet, so
    /// the report carries no verdicts. Devices that joined since the
    /// previous snapshot have no position at `k−1` either: they are not
    /// characterized yet, and those that flag immediately are listed in
    /// [`Report::warming`].
    ///
    /// # Errors
    ///
    /// * [`MonitorError::ServiceMismatch`] — snapshot dimension differs
    ///   from the monitor's service count;
    /// * [`MonitorError::PopulationMismatch`] — snapshot covers a different
    ///   number of devices than the fleet.
    ///
    /// Nothing is staged on error.
    pub fn observe(&mut self, snapshot: Snapshot) -> Result<Report, MonitorError> {
        if snapshot.dim() != self.services {
            return Err(MonitorError::ServiceMismatch {
                expected: self.services,
                actual: snapshot.dim(),
            });
        }
        if snapshot.len() != self.keys.len() {
            return Err(MonitorError::PopulationMismatch {
                expected: self.keys.len(),
                actual: snapshot.len(),
            });
        }
        // Rows were validated by the snapshot's constructor: stage them
        // directly, without the per-row re-validation of `ingest`.
        for (slot, point) in snapshot.into_positions().into_iter().enumerate() {
            self.epoch.stage(slot, point);
        }
        self.seal()
    }

    /// Shared back half of [`Monitor::seal`]: feeds the detectors of the
    /// slots that actually received an update, runs the characterize step
    /// over `[k−1, k]`, and rotates the snapshot buffers (`previous` ←
    /// sealed snapshot, `spare` ← old previous).
    ///
    /// Detection is O(`delta.fed`), not O(population): a slot whose row
    /// was carried forward keeps its **frozen** detector state and last
    /// verdict (see the [`StalenessPolicy`] docs for why
    /// freezing, not re-feeding, is the pinned semantics). Flag flips and
    /// the changed rows tell the [`Characterizer`] which cached verdicts
    /// to drop.
    pub(super) fn advance(
        &mut self,
        current: Snapshot,
        stragglers: Stragglers,
        delta: SealDelta,
    ) -> Result<Report, MonitorError> {
        let detection_start = Stopwatch::start();
        let mut flipped: Vec<u32> = Vec::new();
        for &slot in &delta.fed {
            let i = slot as usize;
            let point = current.try_position(DeviceId(slot))?;
            let verdict = self
                .detectors
                .get_mut(i)
                .ok_or(MonitorError::internal("fed slot out of detector range"))?
                .observe_vector(point.coords());
            let flagged_now = verdict.is_anomalous();
            let state = self
                .flag_state
                .get_mut(i)
                .ok_or(MonitorError::internal("fed slot out of flag-state range"))?;
            if flagged_now != state.0 {
                if flagged_now {
                    self.flagged_slots.insert(slot);
                } else {
                    self.flagged_slots.remove(&slot);
                }
                flipped.push(slot);
            }
            *state = (flagged_now, verdict.score());
        }
        // A_k, read off the incrementally maintained flagged set (ascending,
        // so the order matches a dense scan), O(|A_k|). Devices without a
        // position at k−1 (all of them at the very first interval, newcomers
        // after) are warming instead.
        let first = self.previous.is_none();
        let mut abnormal: Vec<DeviceId> = Vec::with_capacity(self.flagged_slots.len());
        let mut warming: Vec<DeviceKey> = Vec::new();
        for &i in &self.flagged_slots {
            if first || delta.newcomers.contains(&i) {
                warming.push(self.key_at(i)?);
            } else {
                abnormal.push(DeviceId(i));
            }
        }
        let detection = detection_start.elapsed();

        let instant = self.instant;
        self.instant += 1;
        let mut verdicts: Vec<DeviceVerdict> = Vec::with_capacity(abnormal.len());
        let mut characterization = Duration::ZERO;
        match self.previous.take() {
            Some(previous) => {
                let char_start = Stopwatch::start();
                let pair = StatePair::new(previous, current)?;
                let (pair, rows) = self.characterizer.seal(pair, &delta, &flipped, &abnormal)?;
                for row in rows {
                    let (_, score) =
                        *self
                            .flag_state
                            .get(row.id.index())
                            .ok_or(MonitorError::internal(
                                "flagged slot out of flag-state range",
                            ))?;
                    let displacement = uniform_distance(
                        pair.before().try_position(row.id)?.coords(),
                        pair.after().try_position(row.id)?.coords(),
                    );
                    verdicts.push(DeviceVerdict {
                        key: self.key_at(row.id.0)?,
                        id: row.id,
                        characterization: row.characterization,
                        score,
                        displacement,
                        vicinity: row.vicinity,
                        component: row.component,
                    });
                }
                if !self.flagged_slots.is_empty() {
                    characterization = char_start.elapsed();
                }
                let (before, after) = pair.into_parts();
                self.previous = Some(after);
                self.spare = Some(before);
            }
            None => self.previous = Some(current),
        }
        // The recycled buffer now lags the new previous snapshot by exactly
        // the changed rows.
        self.spare_lag = delta.changed;
        let mut report = Report {
            instant,
            population: self.keys.len(),
            verdicts,
            warming,
            stragglers,
            detection,
            characterization,
            event_deltas: Vec::new(),
            events_open: 0,
        };
        // Fold the epoch into the event tracker and record the summary in
        // the history ring. The tracker consumes only the (already
        // engine-independent) report, so events inherit its determinism.
        report.event_deltas = self.tracker.observe(&report);
        report.events_open = self.tracker.open().len();
        self.tracker.push_history(report.summary());
        Ok(report)
    }
}

/// Mirrors `Vec::swap_remove(slot)` on a set of dense slots: `slot` leaves
/// the set, and the last slot, if it was in the set, takes its place.
pub(super) fn swap_remove_slot(set: &mut BTreeSet<u32>, slot: usize, last: usize) {
    set.remove(&(slot as u32));
    if slot != last && set.remove(&(last as u32)) {
        set.insert(slot as u32);
    }
}

/// A grid or snapshot edit failed: that structure is out of step with the
/// fleet.
pub(super) fn out_of_step(_: QosError) -> MonitorError {
    MonitorError::internal("slot-aligned state out of step with the fleet")
}

/// Checkpoint body codec: the resumable state behind the configuration
/// header `persist` writes. Lives on `Monitor` because only this module
/// sees the private fields; the framing, header reconciliation, and the
/// public [`Monitor::checkpoint`]/[`Monitor::restore`] entry points live
/// in [`super::persist`].
impl Monitor {
    /// Serializes everything a fresh monitor built from the same
    /// configuration needs to continue the report stream byte-identically:
    /// fleet keys, per-device detector state, frozen verdicts, the last
    /// sealed snapshot (and its key order, if devices joined since), the
    /// open epoch with its staleness ages, the event tracker, and the
    /// clock. Derived structures — vicinity grid, worker pool,
    /// characterization cache, recycled snapshot buffers — are
    /// deliberately absent: they are rebuilt lazily, and the determinism
    /// suites prove reports are identical with or without them.
    pub(super) fn encode_state(&self, enc: &mut Enc) {
        let keys: Vec<u64> = self.keys.iter().map(|k| k.0).collect();
        enc.u64s(&keys);
        for det in &self.detectors {
            let mut writer = StateWriter::new();
            det.save(&mut writer);
            enc.u64s(&writer.into_words());
        }
        enc.usize(self.flag_state.len());
        for &(flagged, score) in &self.flag_state {
            enc.bool(flagged);
            enc.f64(score);
        }
        // Newcomers have no sealed row yet: the snapshot carries the other
        // rows, and the key order names them whenever a newcomer is left
        // out (the format older checkpoints use for any churn since the
        // last seal).
        let settled: Vec<usize> = (0..self.keys.len())
            .filter(|&slot| !self.epoch.is_newcomer(slot))
            .collect();
        match &self.previous {
            Some(prev) => {
                enc.bool(true);
                enc.usize(settled.len());
                for &slot in &settled {
                    enc.f64s(prev.position(DeviceId(slot as u32)).coords());
                }
            }
            None => enc.bool(false),
        }
        if settled.len() == self.keys.len() {
            enc.bool(false);
        } else {
            enc.bool(true);
            let raw: Vec<u64> = settled
                .iter()
                .filter_map(|&s| self.keys.get(s))
                .map(|k| k.0)
                .collect();
            enc.u64s(&raw);
        }
        enc.usize(self.epoch.pending().len());
        for slot in self.epoch.pending() {
            match slot {
                Some(point) => {
                    enc.bool(true);
                    enc.f64s(point.coords());
                }
                None => enc.bool(false),
            }
        }
        let slots: Vec<u64> = self
            .epoch
            .updated_slots()
            .iter()
            .map(|&s| u64::from(s))
            .collect();
        enc.u64s(&slots);
        enc.u64(self.epoch.sealed());
        enc.u64s(self.epoch.last_reported());
        enc.u64(self.epoch.stale_floor());
        enc.u64(self.tracker.next_id());
        enc.u64(self.tracker.opened_total());
        enc.u64(self.tracker.closed_total());
        enc.usize(self.tracker.open().len());
        for event in self.tracker.open() {
            persist::encode_event(enc, event);
        }
        let closed: Vec<&AnomalyEvent> = self.tracker.recently_closed().collect();
        enc.usize(closed.len());
        for event in closed {
            persist::encode_event(enc, event);
        }
        let history: Vec<&ReportSummary> = self.tracker.history().collect();
        enc.usize(history.len());
        for summary in history {
            persist::encode_summary(enc, summary);
        }
        enc.u64(self.instant);
    }

    /// Rebuilds the state written by [`Monitor::encode_state`] into this
    /// (empty, identically configured) monitor. Devices re-join through
    /// the regular path — the factory recreates each detector's shape,
    /// then its learned state is overlaid — so every internal structure is
    /// maintained by the same code paths a live monitor uses.
    ///
    /// # Errors
    ///
    /// [`MonitorError::CheckpointMismatch`] when a detector's saved
    /// parameters disagree with what the factory built (named field);
    /// [`MonitorError::Persist`] for payloads that decode but are
    /// internally inconsistent (wrong table sizes, out-of-range slots,
    /// invalid coordinates).
    pub(super) fn import_state(&mut self, dec: &mut Dec<'_>) -> Result<(), MonitorError> {
        for key in dec.u64s("state.keys")? {
            self.join(DeviceKey(key))?;
        }
        let n = self.keys.len();
        for det in &mut self.detectors {
            let words = dec.u64s("state.detector")?;
            let mut reader = StateReader::new(&words);
            det.load(&mut reader).map_err(persist::state_error)?;
            reader.finish().map_err(persist::state_error)?;
        }
        let flags = dec.usize("state.flags")?;
        if flags != n {
            return Err(persist::shape_error("flag table", flags, n));
        }
        self.flag_state.clear();
        self.flagged_slots.clear();
        for slot in 0..n {
            let flagged = dec.bool("state.flags")?;
            let score = dec.f64("state.flags")?;
            self.flag_state.push((flagged, score));
            if flagged {
                self.flagged_slots.insert(slot as u32);
            }
        }
        let previous = if dec.bool("state.previous")? {
            let rows_n = dec.usize("state.previous")?;
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(rows_n.min(1 << 16));
            for _ in 0..rows_n {
                rows.push(dec.f64s("state.previous")?);
            }
            let snapshot =
                Snapshot::from_rows(&self.space, rows).map_err(|e| MonitorError::Persist {
                    detail: format!("checkpointed snapshot is invalid: {e}"),
                })?;
            Some(snapshot)
        } else {
            None
        };
        let order = match dec.bool("state.previous_order")? {
            true => Some(dec.u64s("state.previous_order")?),
            false => None,
        };
        let mut newcomers: BTreeSet<u32> = BTreeSet::new();
        self.previous = match (previous, order) {
            (None, None) => None,
            (Some(prev), None) if prev.len() == n => Some(prev),
            (Some(prev), None) => {
                return Err(persist::shape_error("previous snapshot", prev.len(), n));
            }
            (None, Some(_)) => {
                return Err(MonitorError::Persist {
                    detail: "checkpoint has a previous key order but no previous snapshot"
                        .to_string(),
                });
            }
            // The snapshot's rows follow `order`: match them to the slots by
            // key. Rows of devices that left since are dropped; devices
            // without a row are newcomers.
            (Some(prev), Some(order)) => {
                if order.len() != prev.len() {
                    let (actual, expected) = (order.len(), prev.len());
                    return Err(persist::shape_error("previous key order", actual, expected));
                }
                let mut row_of: BTreeMap<DeviceKey, Point> = BTreeMap::new();
                for (key, row) in order.into_iter().map(DeviceKey).zip(prev.into_positions()) {
                    if row_of.insert(key, row).is_some() {
                        return Err(MonitorError::Persist {
                            detail: format!("checkpointed previous key order names {key} twice"),
                        });
                    }
                }
                let mut aligned: Vec<Point> = Vec::with_capacity(n);
                for (slot, key) in self.keys.iter().enumerate() {
                    aligned.push(row_of.remove(key).unwrap_or_else(|| {
                        newcomers.insert(slot as u32);
                        self.placeholder()
                    }));
                }
                Some(Snapshot::new(&self.space, aligned).map_err(out_of_step)?)
            }
        };
        let pending_n = dec.usize("state.epoch.pending")?;
        if pending_n != n {
            return Err(persist::shape_error("pending table", pending_n, n));
        }
        let mut pending: Vec<Option<Point>> = Vec::with_capacity(pending_n.min(1 << 16));
        for _ in 0..pending_n {
            pending.push(if dec.bool("state.epoch.pending")? {
                let row = dec.f64s("state.epoch.pending")?;
                Some(self.space.point(row).map_err(|e| MonitorError::Persist {
                    detail: format!("checkpointed pending update is invalid: {e}"),
                })?)
            } else {
                None
            });
        }
        let mut updated_slots: Vec<u32> = Vec::new();
        let mut seen = vec![false; n];
        for raw in dec.u64s("state.epoch.updated_slots")? {
            let slot = u32::try_from(raw).ok().map(|s| s as usize);
            let fresh = slot.is_some_and(|i| {
                pending.get(i).is_some_and(Option::is_some) && seen.get(i).is_some_and(|b| !*b)
            });
            let Some(slot) = slot.filter(|_| fresh) else {
                return Err(MonitorError::Persist {
                    detail: "checkpointed update list disagrees with the pending table".to_string(),
                });
            };
            if let Some(b) = seen.get_mut(slot) {
                *b = true;
            }
            updated_slots.push(slot as u32);
        }
        if updated_slots.len() != pending.iter().filter(|p| p.is_some()).count() {
            return Err(MonitorError::Persist {
                detail: "checkpointed update list disagrees with the pending table".to_string(),
            });
        }
        let sealed = dec.u64("state.epoch.sealed")?;
        let last_reported = dec.u64s("state.epoch.last_reported")?;
        if last_reported.len() != n {
            return Err(persist::shape_error(
                "staleness table",
                last_reported.len(),
                n,
            ));
        }
        let stale_floor = dec.u64("state.epoch.stale_floor")?;
        if stale_floor > sealed || last_reported.iter().any(|&r| r > sealed || r < stale_floor) {
            return Err(MonitorError::Persist {
                detail: "checkpointed staleness ages are inconsistent".to_string(),
            });
        }
        self.epoch = EpochState::from_state(
            pending,
            updated_slots,
            sealed,
            last_reported,
            stale_floor,
            newcomers,
        );
        let next_id = dec.u64("state.events.next_id")?;
        let opened_total = dec.u64("state.events.opened_total")?;
        let closed_total = dec.u64("state.events.closed_total")?;
        let open_n = dec.usize("state.events.open")?;
        let mut open: Vec<AnomalyEvent> = Vec::with_capacity(open_n.min(1 << 16));
        for _ in 0..open_n {
            open.push(persist::decode_event(dec)?);
        }
        let closed_n = dec.usize("state.events.closed")?;
        let mut closed: Vec<AnomalyEvent> = Vec::with_capacity(closed_n.min(1 << 16));
        for _ in 0..closed_n {
            closed.push(persist::decode_event(dec)?);
        }
        let history_n = dec.usize("state.events.history")?;
        let mut history: Vec<ReportSummary> = Vec::with_capacity(history_n.min(1 << 16));
        for _ in 0..history_n {
            history.push(persist::decode_summary(dec)?);
        }
        if open.iter().chain(closed.iter()).any(|e| e.id.0 >= next_id) {
            return Err(MonitorError::Persist {
                detail: "checkpointed event ids exceed the id counter".to_string(),
            });
        }
        self.tracker = EventTracker::from_state(
            self.tracker.window(),
            self.tracker.debounce(),
            next_id,
            open,
            closed,
            history,
            opened_total,
            closed_total,
        );
        self.instant = dec.u64("state.instant")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::builder::MonitorBuilder;
    use super::*;
    use anomaly_core::AnomalyClass;
    use anomaly_detectors::{EwmaDetector, ThresholdDetector};

    fn warmed(n: usize) -> Monitor {
        let mut m = MonitorBuilder::new().fleet(n).build().unwrap();
        for _ in 0..30 {
            let r = m.observe_rows(vec![vec![0.9]; n]).unwrap();
            assert!(r.is_quiet());
        }
        m
    }

    #[test]
    fn quiet_fleet_reports_nothing() {
        let mut m = MonitorBuilder::new().fleet(8).build().unwrap();
        for k in 0..20 {
            let r = m.observe_rows(vec![vec![0.9]; 8]).unwrap();
            assert_eq!(r.instant(), k);
            assert!(r.is_quiet());
            assert_eq!(r.population(), 8);
            assert!(r.stragglers().is_empty());
        }
    }

    #[test]
    fn shared_incident_is_massive_lone_fault_isolated() {
        let mut m = warmed(8);
        let mut rows = vec![vec![0.45]; 8];
        rows[0] = vec![0.44];
        rows[1] = vec![0.46];
        rows[7] = vec![0.05]; // the loner
        let r = m.observe_rows(rows).unwrap();
        assert_eq!(r.verdicts().len(), 8);
        assert!(r.has_network_event());
        assert_eq!(r.operator_notifications(), vec![DeviceKey(7)]);
        assert_eq!(r.class_of(DeviceKey(0)), Some(AnomalyClass::Massive));
        assert_eq!(r.class_of_id(DeviceId(7)), Some(AnomalyClass::Isolated));
        // The massive group's verdicts see each other in their vicinity.
        for v in r.massive() {
            assert!(v.vicinity >= 6, "vicinity {} for {}", v.vicinity, v.key);
        }
        // Displacement reflects the actual motion magnitude.
        let loner = r.verdicts().iter().find(|v| v.key == DeviceKey(7)).unwrap();
        assert!((loner.displacement - 0.85).abs() < 1e-9);
    }

    #[test]
    fn population_mismatch_is_an_error_not_a_panic() {
        let mut m = warmed(4);
        let err = m.observe_rows(vec![vec![0.9]; 3]).unwrap_err();
        assert_eq!(
            err,
            MonitorError::PopulationMismatch {
                expected: 4,
                actual: 3,
            }
        );
        // The monitor survives misuse: the next correct snapshot works.
        assert!(m.observe_rows(vec![vec![0.9]; 4]).is_ok());
    }

    #[test]
    fn wrong_dimension_is_an_error() {
        let mut m = warmed(4);
        let space2 = QosSpace::new(2).unwrap();
        let snap = Snapshot::from_rows(&space2, vec![vec![0.9, 0.9]; 4]).unwrap();
        assert_eq!(
            m.observe(snap).unwrap_err(),
            MonitorError::ServiceMismatch {
                expected: 1,
                actual: 2,
            }
        );
    }

    #[test]
    fn out_of_range_rows_are_an_error() {
        let mut m = warmed(2);
        let err = m.observe_rows(vec![vec![0.9], vec![1.4]]).unwrap_err();
        assert!(matches!(err, MonitorError::Qos(_)));
    }

    #[test]
    fn join_assigns_dense_ids_and_leave_compacts() {
        let mut m = MonitorBuilder::new().build().unwrap();
        assert_eq!(m.join(10u64).unwrap(), DeviceId(0));
        assert_eq!(m.join(20u64).unwrap(), DeviceId(1));
        assert_eq!(m.join(30u64).unwrap(), DeviceId(2));
        assert_eq!(
            m.join(20u64).unwrap_err(),
            MonitorError::DuplicateDevice { key: DeviceKey(20) }
        );
        // Leaving #10 moves #30 into slot 0.
        m.leave(10u64).unwrap();
        assert_eq!(m.keys(), &[DeviceKey(30), DeviceKey(20)]);
        assert_eq!(m.id_of(DeviceKey(30)), Some(DeviceId(0)));
        assert_eq!(m.key_of(DeviceId(1)), Some(DeviceKey(20)));
        assert!(!m.contains(DeviceKey(10)));
        assert_eq!(
            m.leave(10u64).unwrap_err(),
            MonitorError::UnknownDevice { key: DeviceKey(10) }
        );
    }

    #[test]
    fn leave_drops_the_departing_devices_pending_update() {
        let mut m = MonitorBuilder::new().fleet(3).build().unwrap();
        m.ingest(1u64, vec![0.9]).unwrap();
        m.ingest(2u64, vec![0.8]).unwrap();
        assert_eq!(m.pending_updates(), 2);
        // Device 1 leaves; its staged update goes with it, and device 2's
        // update follows the swap into slot 1.
        m.leave(1u64).unwrap();
        assert_eq!(m.pending_updates(), 1);
        m.ingest(0u64, vec![0.7]).unwrap();
        let r = m.seal().unwrap();
        assert_eq!(r.population(), 2);
        let slot2 = m.id_of(DeviceKey(2)).unwrap();
        assert_eq!(m.last_snapshot().unwrap().position(slot2).coords(), &[0.8]);
    }

    #[test]
    fn leaving_returns_the_warmed_detector() {
        let mut m = MonitorBuilder::new()
            .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.2)))
            .fleet(2)
            .build()
            .unwrap();
        let det = m.leave(0u64).unwrap();
        assert_eq!(det.services(), 1);
        assert!(det.description().contains("threshold"));
        // And it can re-join elsewhere.
        m.join_with(7u64, det).unwrap();
        assert!(m.contains(DeviceKey(7)));
    }

    #[test]
    fn fleet_bound_rejects_oversized_joins() {
        let mut m = MonitorBuilder::new()
            .max_population(2)
            .fleet(2)
            .build()
            .unwrap();
        assert_eq!(
            m.join(99u64).unwrap_err(),
            MonitorError::FleetTooLarge {
                population: 3,
                bound: 2,
            }
        );
    }

    #[test]
    fn join_with_rejects_wrong_width_detectors() {
        let mut m = MonitorBuilder::new().services(2).build().unwrap();
        let err = m
            .join_with(1u64, Box::new(EwmaDetector::new(0.3, 4.0)))
            .unwrap_err();
        assert_eq!(
            err,
            MonitorError::ServiceMismatch {
                expected: 2,
                actual: 1,
            }
        );
    }

    #[test]
    fn churn_restricts_characterization_to_survivors() {
        let mut m = warmed(6);
        // Device 5 leaves; device 100 joins, inheriting the warmed-up
        // detector (so it can flag immediately). Dense slot 5 is reused.
        let det = m.leave(5u64).unwrap();
        m.join_with(100u64, det).unwrap();
        assert_eq!(m.population(), 6);
        // Shared incident over everyone; the joiner flags too but has no
        // interval yet.
        let r = m.observe_rows(vec![vec![0.45]; 6]).unwrap();
        assert_eq!(r.warming(), &[DeviceKey(100)]);
        assert_eq!(r.verdicts().len(), 5, "only survivors characterized");
        assert!(r.class_of(DeviceKey(100)).is_none());
        for v in r.verdicts() {
            assert_eq!(v.class(), AnomalyClass::Massive, "{}", v.key);
        }
        // Once every detector has re-settled at the new level, the joiner
        // has an interval like everyone else and is characterized.
        for _ in 0..30 {
            m.observe_rows(vec![vec![0.45]; 6]).unwrap();
        }
        let mut rows = vec![vec![0.45]; 6];
        let joiner_slot = m.id_of(DeviceKey(100)).unwrap().index();
        rows[joiner_slot] = vec![0.05];
        let r = m.observe_rows(rows).unwrap();
        assert_eq!(r.class_of(DeviceKey(100)), Some(AnomalyClass::Isolated));
    }

    #[test]
    fn fully_churned_interval_yields_no_verdicts() {
        let mut m = warmed(3);
        for k in 0..3 {
            m.leave(k as u64).unwrap();
        }
        for k in 10..13u64 {
            m.join(k).unwrap();
        }
        // Everyone is new: nothing can be characterized, nothing panics.
        let r = m.observe_rows(vec![vec![0.2]; 3]).unwrap();
        assert!(r.verdicts().is_empty());
    }

    #[test]
    fn empty_fleet_is_legal() {
        let mut m = MonitorBuilder::new().build().unwrap();
        let r = m.observe_rows(vec![]).unwrap();
        assert!(r.is_quiet());
        assert_eq!(r.population(), 0);
        assert_eq!(r.summary().abnormal, 0);
        // The streaming path seals empty fleets too.
        assert!(m.seal().is_ok());
    }

    #[test]
    fn reset_forgets_history() {
        let mut m = warmed(4);
        m.reset();
        // A very different level right after reset: detectors re-warm, no
        // alarm, and there is no previous snapshot to characterize against.
        let r = m.observe_rows(vec![vec![0.2]; 4]).unwrap();
        assert!(r.verdicts().is_empty());
        assert!(m.last_grid_update().is_none());
    }

    #[test]
    fn timings_are_recorded() {
        let mut m = warmed(8);
        let r = m.observe_rows(vec![vec![0.45]; 8]).unwrap();
        assert!(!r.verdicts().is_empty());
        assert!(r.detection_time() > Duration::ZERO);
        assert!(r.characterization_time() > Duration::ZERO);
    }

    #[test]
    fn steady_epochs_update_the_grid_incrementally() {
        // After the first characterized instant fills the grid, later
        // small epochs replay only their staged cell moves.
        let mut m = warmed(16);
        let mut rows = vec![vec![0.9]; 16];
        rows[3] = vec![0.45];
        m.observe_rows(rows.clone()).unwrap();
        assert_eq!(m.last_grid_update(), Some(GridUpdate::Rebuilt));
        rows[3] = vec![0.44];
        rows[5] = vec![0.46];
        m.observe_rows(rows).unwrap();
        match m.last_grid_update() {
            Some(GridUpdate::Incremental { rebucketed }) => {
                assert!(rebucketed <= 2, "rebucketed {rebucketed}")
            }
            other => panic!("expected an incremental update, got {other:?}"),
        }
    }

    /// The frozen-cluster fixture of the cache tests, on a 1-D line cut
    /// into 16 grid cells of side 1/16 (≥ 2r = 0.06): the cluster, devices
    /// 0..6, jumps into cells 1 (#0..#2) and 2 (#3..#5) and then stays
    /// silent, so its flags — and its cached verdicts — freeze; #6 sits
    /// alone in cell 4, whose rings reach cell 2 but not cell 1; everyone
    /// else idles in cells 9..14.
    mod frozen_cluster {
        use super::*;
        use crate::pipeline::StalenessPolicy;
        use anomaly_detectors::ThresholdDetector;

        pub(super) const N: u64 = 60;

        pub(super) fn builder() -> MonitorBuilder {
            MonitorBuilder::new()
                .staleness(StalenessPolicy::CarryForward { max_age: 10_000 })
                .detector_factory(|_| Box::new(ThresholdDetector::with_delta(0.1)))
        }

        pub(super) fn home(k: u64) -> f64 {
            match k {
                0..=5 => 0.55 + 0.01 * k as f64,
                6 => 0.27,
                _ => 0.6 + 0.3 * (k % 37) as f64 / 37.0,
            }
        }

        /// Seals `rows` and checks the report against the same epoch sealed
        /// by a restored copy of the monitor — a from-scratch recomputation,
        /// since a restored monitor starts with an empty cache and builds
        /// its grid anew.
        pub(super) fn seal(m: &mut Monitor, rows: &[(u64, f64)]) -> Report {
            let mut bytes = Vec::new();
            m.checkpoint(&mut bytes).unwrap();
            let mut fresh = Monitor::restore(bytes.as_slice(), builder()).unwrap();
            let mut reports = [&mut *m, &mut fresh].map(|monitor| {
                for &(k, x) in rows {
                    monitor.ingest(k, vec![x]).unwrap();
                }
                monitor.seal().unwrap()
            });
            let [live, reference] = &mut reports;
            assert_eq!(
                format!("{:?}", live.verdicts()),
                format!("{:?}", reference.verdicts())
            );
            assert_eq!(live.warming(), reference.warming());
            assert_eq!(live.stragglers(), reference.stragglers());
            std::mem::replace(live, reference.clone())
        }

        /// The monitor after the jump and two quiet epochs: every cluster
        /// verdict is cached and served.
        pub(super) fn monitor() -> Monitor {
            let mut m = builder().fleet(N as usize).build().unwrap();
            let all: Vec<(u64, f64)> = (0..N).map(|k| (k, home(k))).collect();
            seal(&mut m, &all);
            seal(&mut m, &all);
            let jump: Vec<(u64, f64)> = (0..6).map(|k| (k, 0.10 + 0.01 * k as f64)).collect();
            assert_eq!(seal(&mut m, &jump).verdicts().len(), 6);
            quiet(&mut m);
            quiet(&mut m);
            assert_eq!(cached(&m), (0..6).map(DeviceKey).collect::<Vec<_>>());
            m
        }

        /// A far calm device wiggles within its cell.
        pub(super) fn quiet(m: &mut Monitor) -> Report {
            let wiggle = if m.instant().is_multiple_of(2) {
                0.004
            } else {
                -0.004
            };
            let r = seal(m, &[(30, home(30) + wiggle)]);
            assert_eq!(r.verdicts().len(), 6, "the frozen cluster stays abnormal");
            r
        }

        /// Keys of the devices with a cached verdict, ascending.
        pub(super) fn cached(m: &Monitor) -> Vec<DeviceKey> {
            let mut keys: Vec<DeviceKey> = m
                .characterizer
                .cached()
                .map(|j| m.key_at(j).unwrap())
                .collect();
            keys.sort_unstable();
            keys
        }
    }

    #[test]
    fn far_churn_keeps_the_frozen_clusters_cached_verdicts() {
        use frozen_cluster::*;
        let mut m = monitor();
        // #40 leaves and #59 (the last slot) moves into its slot, both far
        // from the cluster; #100 joins far away too.
        m.leave(40u64).unwrap();
        m.join(100u64).unwrap();
        m.characterizer.drop_dirty_entries();
        assert_eq!(cached(&m), (0..6).map(DeviceKey).collect::<Vec<_>>());
        let r = seal(&mut m, &[(100, 0.8)]);
        assert_eq!(r.verdicts().len(), 6);
        assert_eq!(
            m.last_grid_update(),
            Some(GridUpdate::Incremental { rebucketed: 0 })
        );
        m.characterizer.drop_dirty_entries();
        assert_eq!(cached(&m), (0..6).map(DeviceKey).collect::<Vec<_>>());
        quiet(&mut m);
    }

    #[test]
    fn a_leave_next_to_the_cluster_drops_exactly_the_entries_in_its_rings() {
        use frozen_cluster::*;
        let mut m = monitor();
        // #6 leaves from cell 4: its rings cover cells 2..6, so #3..#5 are
        // recomputed and #0..#2 in cell 1 stay cached.
        m.leave(6u64).unwrap();
        m.characterizer.drop_dirty_entries();
        assert_eq!(cached(&m), (0..3).map(DeviceKey).collect::<Vec<_>>());
        quiet(&mut m);
        quiet(&mut m);
    }

    #[test]
    fn a_relocation_next_to_the_cluster_drops_exactly_the_entries_in_its_rings() {
        use frozen_cluster::*;
        let mut m = monitor();
        // #6 leaves and #59 takes its slot; then #200 joins in cell 4, the
        // last slot, and settles.
        m.leave(6u64).unwrap();
        m.join(200u64).unwrap();
        seal(&mut m, &[(200, home(6))]);
        quiet(&mut m);
        quiet(&mut m);
        assert_eq!(cached(&m), (0..6).map(DeviceKey).collect::<Vec<_>>());
        // The far #40 leaves and #200 is relocated into its slot: its id
        // changes, so the entries within its rings go.
        m.leave(40u64).unwrap();
        assert_eq!(m.id_of(DeviceKey(200)), Some(DeviceId(40)));
        m.characterizer.drop_dirty_entries();
        assert_eq!(cached(&m), (0..3).map(DeviceKey).collect::<Vec<_>>());
        quiet(&mut m);
        quiet(&mut m);
    }

    /// Two frozen chains of overlapping dense motions, #0..#11 below and
    /// #12..#23 above a gap wider than 2r, and #24, which jumps into the
    /// gap and stays: at the next seal its verdict is fresh while the far
    /// ends of both chains, beyond the rings of its cell, are still served
    /// from the cache, and its dense motions link both chains into one
    /// component.
    #[test]
    fn a_fresh_device_links_two_cached_components() {
        use frozen_cluster::{builder, cached, seal};
        // The centre of cell 8, whose rings cover cells 6..=10, and the
        // chain members' distances from it: the last two lie in cells 5
        // and 11.
        const MID: f64 = 8.5 / 16.0;
        const OFFSETS: [f64; 12] = [
            0.045, 0.05, 0.055, 0.069, 0.083, 0.097, 0.111, 0.125, 0.139, 0.153, 0.167, 0.181,
        ];
        let spot = |k: u64| match k {
            0..=11 => MID - OFFSETS[k as usize],
            12..=23 => MID + OFFSETS[k as usize - 12],
            _ => 0.9 + 0.01 * (k - 24) as f64,
        };
        let component = |r: &Report, k: u64| {
            let verdict = r.verdicts().iter().find(|v| v.key == DeviceKey(k));
            verdict.and_then(|v| v.component)
        };
        let mut m = builder().fleet(30).build().unwrap();
        let home: Vec<(u64, f64)> = (0..30)
            .map(|k| (k, if k < 24 { spot(k) - 0.3 } else { spot(k) }))
            .collect();
        seal(&mut m, &home);
        seal(&mut m, &home);
        let jump: Vec<(u64, f64)> = (0..24).map(|k| (k, spot(k))).collect();
        assert_eq!(seal(&mut m, &jump).verdicts().len(), 24);
        seal(&mut m, &[(29, spot(29) + 0.004)]);
        let r = seal(&mut m, &[(29, spot(29))]);
        assert_eq!(cached(&m), (0..24).map(DeviceKey).collect::<Vec<_>>());
        assert!(component(&r, 11).is_some());
        assert_ne!(component(&r, 11), component(&r, 23));
        // #24's own jump leaves it alone: its k−1 position is far away.
        assert_eq!(seal(&mut m, &[(24, MID)]).verdicts().len(), 25);
        m.characterizer.drop_dirty_entries();
        assert_eq!(cached(&m), [10, 11, 22, 23].map(DeviceKey).to_vec());
        let r = seal(&mut m, &[(29, spot(29) + 0.004)]);
        assert!(component(&r, 24).is_some());
        assert_eq!(component(&r, 11), component(&r, 24));
        assert_eq!(component(&r, 23), component(&r, 24));
    }

    #[test]
    fn a_checkpointed_key_order_naming_a_device_twice_fails_typed() {
        // Keys whose encodings no other field of the body can match.
        let (a, b) = (0x5EED_0000_0000_00A1u64, 0x5EED_0000_0000_00B2u64);
        let mut m = MonitorBuilder::new().build().unwrap();
        m.join(a).unwrap();
        m.join(b).unwrap();
        m.observe_rows(vec![vec![0.9]; 2]).unwrap();
        // A newcomer makes the body carry the key order [a, b].
        m.join(7u64).unwrap();
        let mut enc = Enc::new();
        m.encode_state(&mut enc);
        let mut body = enc.into_bytes();
        let order = [2u64, a, b].map(u64::to_le_bytes).concat();
        let at = body.windows(order.len()).rposition(|w| w == order).unwrap();
        let mut restored = MonitorBuilder::new().build().unwrap();
        restored.import_state(&mut Dec::new(&body)).unwrap();
        assert_eq!(restored.keys(), m.keys());
        // Make it [a, a].
        body[at + 16..at + 24].copy_from_slice(&a.to_le_bytes());
        let mut restored = MonitorBuilder::new().build().unwrap();
        let err = restored.import_state(&mut Dec::new(&body)).unwrap_err();
        assert!(
            matches!(&err, MonitorError::Persist { detail } if detail.contains("twice")),
            "{err}"
        );
    }

    #[test]
    fn debug_formats_are_stable() {
        let m = MonitorBuilder::new().fleet(2).build().unwrap();
        let s = format!("{m:?}");
        assert!(s.contains("population: 2"));
        let b = format!("{:?}", MonitorBuilder::new());
        assert!(b.contains("radius"));
    }
}
