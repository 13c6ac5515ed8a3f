use super::engine::Engine;
use super::error::MonitorError;
use super::events::{AnomalyEvent, EventDelta, EventTracker};
use super::ingest::{EpochState, StalenessPolicy};
use super::key::DeviceKey;
use super::persist;
use super::pool::{run_phase, Job, WorkerPool};
use super::report::{DeviceVerdict, Report, ReportSummary, Stragglers};
use super::timings::Stopwatch;
use anomaly_core::{
    AnalyzerCore, Characterization, ComponentPartition, DevicePrecompute, Params, ShardPlan,
    TrajectoryTable,
};
use anomaly_detectors::{DeviceDetector, StateReader, StateWriter};
use anomaly_qos::{
    DeviceId, GridIndex, GridUpdate, Norm, NormKind, Point, QosError, QosSpace, Snapshot, StatePair,
};
use anomaly_store::{Dec, Enc};
// conformance: allow(C2, reason = "HashMap backs only the lookup-only key index; it is never iterated, so hash order cannot reach a report")
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Chebyshev cell rings the dirty-cell set is expanded by before cache
/// invalidation. A device's verdict is a function of trajectories and
/// flagged-set membership within `4r` of it (its own motions involve
/// devices within the `2r` window, and the Theorem 7 search inspects
/// those neighbours' motions, reaching a further `2r` out). Cells are
/// `2r` wide, so two positions at most `4r` apart differ by at most two
/// cell indices per axis — expanding every dirty cell by two rings
/// therefore covers every device whose verdict the change could touch.
const INVALIDATION_RINGS: usize = 2;

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
/// * reuses its vicinity grid and snapshot buffers across instants and
///   reports per-instant wall-clock timings.
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
    norm: NormKind,
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
    /// Vicinity index, reused (allocations and all) across instants. Its
    /// geometry (dimension and `2r` cells) is fixed at construction, so
    /// cell indices are meaningful before the first characterized instant
    /// fills it. Arc'd so the characterization jobs can share it; between
    /// epochs the monitor holds the only reference and mutates in place
    /// through [`Arc::make_mut`].
    grid: Arc<GridIndex>,
    /// Execution strategy for the characterization phase.
    engine: Engine,
    /// Persistent characterization workers, spawned lazily at the first
    /// epoch whose flagged set warrants more than one shard and parked on
    /// channel receives between epochs.
    pool: Option<WorkerPool>,
    /// Last detector verdict per dense slot: `(is_anomalous, score)`.
    /// Slot-aligned with `keys`; slots whose detector is not fed this
    /// epoch (carried or defaulted rows) keep — "freeze" — their last
    /// verdict, which is what makes detection O(fed) instead of O(n).
    flag_state: Vec<(bool, f64)>,
    /// The slots currently flagged (`flag_state[i].0 == true`), maintained
    /// incrementally at every verdict flip so assembling `A_k` is
    /// O(|A_k|), not an O(population) scan. Kept aligned with `flag_state`
    /// through the same swap-remove discipline on churn.
    flagged_slots: BTreeSet<u32>,
    /// Per-device characterization cache, keyed by dense id; entries are
    /// invalidated when their cell falls inside the
    /// [`INVALIDATION_RINGS`]-expanded dirty-cell neighbourhood.
    char_cache: BTreeMap<u32, CacheEntry>,
    /// Grid cells touched since the last characterized instant: cells of
    /// rows whose value changed (a newcomer's first row included), cells
    /// of devices whose detector flag flipped, and the cells of a leaver
    /// and of the device relocated into its slot. Consumed (and re-seeded
    /// with the sealing epoch's own changed cells) at every characterized
    /// instant.
    dirty_pending: BTreeSet<usize>,
    /// Reusable vicinity-query buffer for jobs run inline.
    neighbor_buf: Vec<DeviceId>,
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
    /// Cell-crossing before-position moves accumulated since the vicinity
    /// grid last updated — the exact batch `GridIndex::apply_moves`
    /// replays at the next characterized instant.
    grid_staged: Vec<(DeviceId, Point, Point)>,
    /// Outcome of the most recent vicinity-grid update, if any. Once set,
    /// `grid` holds one slot per device (vacant for newcomers) and
    /// `grid_staged` tracks every before-position change since — the
    /// precondition for replaying staged moves instead of rebuilding.
    last_grid_update: Option<GridUpdate>,
    /// Correlates per-epoch verdicts into anomaly events and keeps the
    /// bounded report history.
    tracker: EventTracker,
}

/// Cached characterization state of one flagged device.
///
/// An entry is valid as long as nothing inside the device's
/// `4r`-neighbourhood changed since it was computed: neither a trajectory
/// (a row value change — including the computing epoch's own movers, whose
/// trajectories turn stationary one epoch later, hence the dirty-set echo)
/// nor the flagged set (a detector flag flip). Both are tracked as grid
/// cells in `dirty_pending` and tested against `cell` after ring
/// expansion.
struct CacheEntry {
    /// Grid cell of the device's `after` position when the entry was
    /// computed — the anchor the dirty-neighbourhood invalidation tests.
    cell: usize,
    /// The device's precompute slice, re-merged into the interval's
    /// analyzer whenever other devices need fresh computation.
    precompute: DevicePrecompute,
    /// The cached verdict.
    characterization: Characterization,
    /// The cached vicinity count.
    vicinity: usize,
}

/// The per-epoch change summary [`Monitor::seal`] hands to
/// [`Monitor::advance`]: which detectors receive a fresh observation,
/// which vicinity-grid cells were touched by rows whose value actually
/// changed, and which slots are newcomers. This is what makes the back
/// half of `seal` scale with the churn instead of the population.
pub(super) struct SealDelta {
    /// Dense slots with a fresh update this epoch; the detectors of every
    /// other slot stay frozen.
    pub(super) fed: Vec<u32>,
    /// Rows that differ from the previous snapshot (the spare's next lag).
    pub(super) changed: Vec<DeviceId>,
    /// Cell-crossing moves among `changed`, for the vicinity grid.
    pub(super) moves: Vec<(DeviceId, Point, Point)>,
    /// Old and new grid cell of every row whose value changed this epoch,
    /// and the cell of every newcomer's first row (none at a first seal).
    pub(super) changed_cells: Vec<usize>,
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
        norm: NormKind,
        factory: DetectorFactory,
        space: QosSpace,
        capacity: usize,
        max_population: u64,
        engine: Engine,
        staleness: StalenessPolicy,
        epoch_start: u64,
        history: usize,
        debounce: u64,
    ) -> Self {
        let grid = GridIndex::new(services, params.window().max(1e-6));
        Monitor {
            params,
            services,
            norm,
            factory,
            space,
            max_population,
            keys: Arc::new(Vec::with_capacity(capacity)),
            // conformance: allow(C2, reason = "lookup-only key index on the per-update hot path; never iterated")
            index: HashMap::with_capacity(capacity),
            detectors: Vec::with_capacity(capacity),
            previous: None,
            grid: Arc::new(grid),
            engine,
            pool: None,
            flag_state: Vec::with_capacity(capacity),
            flagged_slots: BTreeSet::new(),
            char_cache: BTreeMap::new(),
            dirty_pending: BTreeSet::new(),
            neighbor_buf: Vec::new(),
            instant: epoch_start,
            epoch: EpochState::with_capacity(capacity),
            staleness,
            spare: None,
            spare_lag: Vec::new(),
            grid_staged: Vec::new(),
            last_grid_update: None,
            tracker: EventTracker::new(history, debounce),
        }
    }

    /// The execution strategy for the characterization phase.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// How the most recent characterized instant brought the vicinity grid
    /// up to date: [`GridUpdate::Incremental`] with the number of devices
    /// re-bucketed, or [`GridUpdate::Rebuilt`]. `None` until the first
    /// characterization runs, and `Rebuilt` only at the first
    /// characterized instant after build, reset or restore: small epochs
    /// and joins and leaves report `Incremental` —
    /// `tests/ingest_equivalence.rs` pins that down.
    pub fn last_grid_update(&self) -> Option<GridUpdate> {
        self.last_grid_update
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

    /// The norm used for report displacement magnitudes.
    pub fn norm(&self) -> NormKind {
        self.norm
    }

    /// The fleet-size bound.
    pub fn max_population(&self) -> u64 {
        self.max_population
    }

    /// The next sampling instant (epochs sealed so far, offset by the
    /// builder's [`epoch`](super::MonitorBuilder::epoch) start).
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

    /// The vicinity-grid cell of a position, the unit of the cache's dirty
    /// set: pure geometry, fixed for the monitor's lifetime.
    pub(super) fn cell_of(&self, p: &Point) -> usize {
        self.grid.cell_index(p.coords())
    }

    /// A newcomer's row in `previous` until its first seal; nothing reads it.
    pub(super) fn placeholder(&self) -> Point {
        Point::new_unchecked(vec![0.0; self.services])
    }

    /// Phase 4 of a seal: the recycled buffer lags the new previous
    /// snapshot by exactly `delta.changed`, the vicinity grid owes
    /// `delta.moves` at its next update, and the newcomers that this seal
    /// gave a first row enter the grid at that row.
    pub(super) fn record_epoch_delta(&mut self, delta: SealDelta) -> Result<(), MonitorError> {
        self.spare_lag = delta.changed;
        if self.last_grid_update.is_none() {
            // The next characterized instant builds the grid from scratch.
            return Ok(());
        }
        self.grid_staged.extend(delta.moves);
        let previous = self.previous.as_ref().ok_or(MonitorError::internal(
            "a sealed epoch leaves a previous snapshot",
        ))?;
        let grid = Arc::make_mut(&mut self.grid);
        for slot in delta.newcomers {
            let row = previous.try_position(DeviceId(slot)).map_err(out_of_step)?;
            grid.insert(DeviceId(slot), row).map_err(out_of_step)?;
        }
        Ok(())
    }

    /// Cache triage: consumes the dirty cells accumulated since the last
    /// characterized instant, expands them to the 4r (= 2 cell rings)
    /// dependency neighbourhood of Definition 1's locality bound, and drops
    /// every cached verdict anchored inside it; what remains is provably
    /// unaffected and served without recomputation.
    fn drop_dirty_entries(&mut self) {
        let dirty = std::mem::take(&mut self.dirty_pending);
        if !dirty.is_empty() {
            let doomed = self.grid.expand_cells(&dirty, INVALIDATION_RINGS);
            self.char_cache
                .retain(|_, entry| !doomed.contains(&entry.cell));
        }
    }

    /// Assembles the interval's characterization engine from the freshly
    /// computed precompute slices plus the stored slices of every
    /// cache-served device. Together the parts cover the abnormal set
    /// exactly, whatever mix produced them.
    fn merged_core(
        &self,
        table: &TrajectoryTable,
        mut parts: Vec<(DeviceId, DevicePrecompute)>,
    ) -> AnalyzerCore {
        for &j in table.ids() {
            if let Some(entry) = self.char_cache.get(&j.0) {
                parts.push((j, entry.precompute.clone()));
            }
        }
        AnalyzerCore::from_parts(table, self.params, parts)
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
        if self.last_grid_update.is_some() {
            Arc::make_mut(&mut self.grid)
                .resize(id as usize + 1)
                .map_err(out_of_step)?;
        }
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
        // The leaver's trajectory disappears and the relocated device's
        // dense id changes, so every cached verdict or dense set that
        // involves either sits within the rings of their cells.
        if let Some(previous) = &self.previous {
            for s in [slot, last] {
                if !self.epoch.is_newcomer(s) {
                    let row = previous
                        .try_position(DeviceId(s as u32))
                        .map_err(out_of_step)?;
                    self.dirty_pending.insert(self.cell_of(row));
                }
            }
        }
        // Mirror the swap-remove in every slot-aligned structure.
        for snapshot in self.previous.iter_mut().chain(self.spare.iter_mut()) {
            snapshot.swap_remove_row(id).map_err(out_of_step)?;
        }
        if self.last_grid_update.is_some() {
            let grid = Arc::make_mut(&mut self.grid);
            grid.remove(id).map_err(out_of_step)?;
            grid.rekey(last_id, id).map_err(out_of_step)?;
            grid.resize(last).map_err(out_of_step)?;
        }
        let relabel = |j: &mut DeviceId| {
            if *j == last_id {
                *j = id;
            }
        };
        self.spare_lag.retain(|&j| j != id);
        self.spare_lag.iter_mut().for_each(relabel);
        self.grid_staged.retain(|(j, _, _)| *j != id);
        self.grid_staged.iter_mut().for_each(|(j, _, _)| relabel(j));
        // The leaver's cached verdict goes; the relocated device's is keyed
        // by its old id and anchored in a cell just dirtied, so it goes too.
        self.char_cache.remove(&id.0);
        self.char_cache.remove(&last_id.0);
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
        self.char_cache.clear();
        self.dirty_pending.clear();
        self.previous = None;
        self.epoch.reset();
        self.spare = None;
        self.spare_lag.clear();
        self.grid_staged.clear();
        self.last_grid_update = None;
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
    /// slots that actually received an update, runs the characterization
    /// over `[k−1, k]`, and rotates the snapshot buffers (`previous` ←
    /// sealed snapshot, `spare` ← old previous, when shapes allow).
    ///
    /// Detection is O(`delta.fed`), not O(population): a slot whose row
    /// was carried forward or defaulted keeps its **frozen** detector
    /// state and last verdict (see the [`StalenessPolicy`] docs for why
    /// freezing, not re-feeding, is the pinned semantics). Flag flips and
    /// the epoch's changed cells feed the characterization cache's dirty
    /// set.
    pub(super) fn advance(
        &mut self,
        current: Snapshot,
        stragglers: Stragglers,
        delta: &SealDelta,
    ) -> Result<Report, MonitorError> {
        let detection_start = Stopwatch::start();
        for &slot in &delta.fed {
            let i = slot as usize;
            let point = current.try_position(DeviceId(slot))?;
            let verdict = self
                .detectors
                .get_mut(i)
                .ok_or(MonitorError::internal("fed slot out of detector range"))?
                .observe_vector(point.coords());
            let flagged_now = verdict.is_anomalous();
            let was_flagged = self
                .flag_state
                .get(i)
                .map(|s| s.0)
                .ok_or(MonitorError::internal("fed slot out of flag-state range"))?;
            if flagged_now != was_flagged {
                if flagged_now {
                    self.flagged_slots.insert(slot);
                } else {
                    self.flagged_slots.remove(&slot);
                }
                // A_k membership changed at this device's position: every
                // cached verdict in its neighbourhood is suspect.
                self.dirty_pending.insert(self.cell_of(point));
            }
            if let Some(state) = self.flag_state.get_mut(i) {
                *state = (flagged_now, verdict.score());
            }
        }
        self.dirty_pending
            .extend(delta.changed_cells.iter().copied());
        // A_k: every slot whose (possibly frozen) verdict is anomalous,
        // with its score — read off the incrementally maintained flagged
        // set (ascending, so the order matches a dense scan), O(|A_k|).
        let mut flagged: Vec<(u32, f64)> = Vec::with_capacity(self.flagged_slots.len());
        for &i in &self.flagged_slots {
            let score =
                self.flag_state
                    .get(i as usize)
                    .map(|s| s.1)
                    .ok_or(MonitorError::internal(
                        "flagged slot out of flag-state range",
                    ))?;
            flagged.push((i, score));
        }
        let detection = detection_start.elapsed();

        let instant = self.instant;
        self.instant += 1;

        // Characterization over [k-1, k].
        let mut verdicts: Vec<DeviceVerdict> = Vec::new();
        let mut warming: Vec<DeviceKey> = Vec::new();
        let mut characterization = Duration::ZERO;
        let (new_previous, spare) = match self.previous.take() {
            Some(previous) if flagged.is_empty() => (current, Some(previous)),
            Some(previous) => {
                let char_start = Stopwatch::start();
                let (new_previous, spare) = self.characterize_interval(
                    previous,
                    current,
                    &flagged,
                    delta,
                    &mut verdicts,
                    &mut warming,
                )?;
                characterization = char_start.elapsed();
                (new_previous, Some(spare))
            }
            None => {
                // Very first interval: every flagged device is warming.
                for &(i, _) in &flagged {
                    warming.push(self.key_at(i)?);
                }
                (current, None)
            }
        };
        self.previous = Some(new_previous);
        self.spare = spare.or(self.spare.take());
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

    /// Pairs the previous and current snapshots, runs the local
    /// characterization on the flagged devices — serving devices whose
    /// `4r`-neighbourhood is untouched straight from the cache — and
    /// enriches verdicts with displacement and vicinity context. Returns
    /// the rotated snapshot buffers: `(new previous, recyclable spare)`,
    /// both full snapshots, without a single clone.
    ///
    /// Newcomers have no position at `k−1`: flagged ones are listed as
    /// warming, and neither the abnormal set nor the vicinity grid holds
    /// them. `delta.changed_cells` are the sealing epoch's own changed
    /// cells; they re-seed the dirty set after it is consumed, because
    /// this epoch's movers have a different (stationary) trajectory at the
    /// next instant even if they stay silent from here on.
    fn characterize_interval(
        &mut self,
        previous: Snapshot,
        current: Snapshot,
        flagged: &[(u32, f64)],
        delta: &SealDelta,
        verdicts: &mut Vec<DeviceVerdict>,
        warming: &mut Vec<DeviceKey>,
    ) -> Result<(Snapshot, Snapshot), MonitorError> {
        // A_k, plus each flagged device's score (only flagged devices are
        // touched: O(|A_k|), not O(n)).
        let mut abnormal: Vec<DeviceId> = Vec::new();
        let mut scores: BTreeMap<u32, f64> = BTreeMap::new();
        for &(slot, score) in flagged {
            if delta.newcomers.contains(&slot) {
                warming.push(self.key_at(slot)?);
            } else {
                abnormal.push(DeviceId(slot));
                scores.insert(slot, score);
            }
        }
        if abnormal.is_empty() {
            return Ok((current, previous));
        }
        let pair = StatePair::new(previous, current)?;

        // Vicinity index over the whole fleet (not only A_k), kept across
        // instants: the staged cell moves accumulated by the sealing path
        // are replayed incrementally (`apply_moves` — O(moved devices)),
        // and joins and leaves edited it in place. Only the first
        // characterized instant after build, reset or restore builds it.
        let window = self.params.window();
        let cell_side = window.max(1e-6);
        let grid = Arc::make_mut(&mut self.grid);
        let update = if self.last_grid_update.is_some() {
            grid.apply_moves(&pair, cell_side, &self.grid_staged)
                .map_err(out_of_step)?
        } else {
            grid.rebuild(&pair, cell_side);
            GridUpdate::Rebuilt
        };
        if update == GridUpdate::Rebuilt {
            for &slot in &delta.newcomers {
                grid.remove(DeviceId(slot)).map_err(out_of_step)?;
            }
        }
        self.last_grid_update = Some(update);
        self.grid_staged.clear();

        self.drop_dirty_entries();
        // Echo: rows that changed this epoch change trajectory again next
        // epoch (moving → stationary), so their cells go straight back
        // into the dirty set for the next invalidation round.
        self.dirty_pending
            .extend(delta.changed_cells.iter().copied());
        // Per device: (dense id, verdict, vicinity), cached or fresh.
        let mut rows: Vec<(DeviceId, Characterization, usize)> = Vec::with_capacity(abnormal.len());
        let mut fresh: Vec<DeviceId> = Vec::new();
        for &j in &abnormal {
            match self.char_cache.get(&j.0) {
                Some(entry) => rows.push((j, entry.characterization, entry.vicinity)),
                None => fresh.push(j),
            }
        }

        // Fresh characterization in two per-device phases (both
        // embarrassingly parallel, per Definition 1's locality): per-device
        // motion precompute, merged with the cached slices into one
        // engine, then verdicts and vicinities for the fresh devices only.
        // Each phase is a list of shard jobs, run inline as one shard or
        // on the worker pool; the merge is deterministic — parts are keyed
        // by dense id — so the report is identical for every engine and
        // worker count.
        let mut fresh_rows: Vec<(DeviceId, Characterization, usize)> =
            Vec::with_capacity(fresh.len());
        let mut fresh_pre: BTreeMap<u32, DevicePrecompute> = BTreeMap::new();
        let (pair, partition) = if fresh.is_empty() {
            // Full cache hit: no trajectory table, no analyzer, no shard
            // plan. The characterization cost of the epoch is the grid
            // update plus one map lookup per flagged device. The spatial
            // partition is recomputed from the cached dense slices —
            // component ids are epoch-local ranks, so a cached id could go
            // stale when an unrelated component vanishes, but the dense
            // sets themselves are exactly as valid as the cached verdicts.
            let partition = ComponentPartition::from_dense_sets(abnormal.iter().map(|&j| {
                let dense = self
                    .char_cache
                    .get(&j.0)
                    .map(|entry| entry.precompute.dense())
                    .unwrap_or(&[]);
                (j, dense)
            }));
            (pair, partition)
        } else {
            let table = Arc::new(TrajectoryTable::from_state_pair(&pair, &abnormal));
            // Shards come from the grid-locality-aware plan over the whole
            // abnormal set, restricted to the fresh devices.
            let shard_count = self.engine.shard_count(fresh.len());
            let shards: Vec<Vec<DeviceId>> = if shard_count <= 1 {
                vec![fresh]
            } else {
                let fresh_set: BTreeSet<DeviceId> = fresh.into_iter().collect();
                ShardPlan::build(&table, window, shard_count)
                    .shards()
                    .iter()
                    .map(|shard| {
                        shard
                            .iter()
                            .copied()
                            .filter(|j| fresh_set.contains(j))
                            .collect::<Vec<DeviceId>>()
                    })
                    .filter(|shard| !shard.is_empty())
                    .collect()
            };
            let params = self.params;
            let jobs: Vec<Job> = shards
                .iter()
                .map(|shard| Job::Precompute {
                    table: Arc::clone(&table),
                    params,
                    shard: shard.clone(),
                })
                .collect();
            let mut fresh_parts: Vec<(DeviceId, DevicePrecompute)> = Vec::new();
            for output in run_phase(self.engine, &mut self.pool, &mut self.neighbor_buf, jobs)? {
                fresh_parts.extend(output.into_parts()?);
            }
            fresh_pre.extend(fresh_parts.iter().map(|(j, pre)| (j.0, pre.clone())));
            // The merged core covers the whole abnormal set (fresh slices
            // plus every cached one), so its partition is the epoch's
            // global one.
            let core = Arc::new(self.merged_core(&table, fresh_parts));
            let partition = core.component_partition();
            let pair = Arc::new(pair);
            let jobs: Vec<Job> = shards
                .into_iter()
                .map(|shard| Job::Verdicts {
                    core: Arc::clone(&core),
                    table: Arc::clone(&table),
                    pair: Arc::clone(&pair),
                    grid: Arc::clone(&self.grid),
                    window,
                    shard,
                })
                .collect();
            for output in run_phase(self.engine, &mut self.pool, &mut self.neighbor_buf, jobs)? {
                fresh_rows.extend(output.into_verdicts()?);
            }
            // Every job consumed its Arc clones before reporting its
            // result, so after collecting all of them this is the only
            // reference again (the clone arm is unreachable
            // belt-and-braces).
            (
                Arc::try_unwrap(pair).unwrap_or_else(|arc| (*arc).clone()),
                partition,
            )
        };

        // Freshly decided devices enter the cache (with their precompute
        // slice, for future merges) before joining the cached rows.
        for &(j, characterization, vicinity) in &fresh_rows {
            let precompute = fresh_pre.remove(&j.0).ok_or(MonitorError::internal(
                "fresh device missing its precompute slice",
            ))?;
            let cell = self.cell_of(pair.after().position(j));
            self.char_cache.insert(
                j.0,
                CacheEntry {
                    cell,
                    precompute,
                    characterization,
                    vicinity,
                },
            );
        }
        rows.extend(fresh_rows);

        // Deterministic merge: id order here is exactly the report's verdict
        // order whatever sharding produced the rows.
        rows.sort_unstable_by_key(|r| r.0);
        for (j, characterization, vicinity) in rows {
            let displacement = self.norm.distance(
                pair.before().position(j).coords(),
                pair.after().position(j).coords(),
            );
            verdicts.push(DeviceVerdict {
                key: self.key_at(j.0)?,
                id: j,
                characterization,
                score: scores.get(&j.0).copied().unwrap_or(0.0),
                displacement,
                vicinity,
                component: partition.component_of(j),
            });
        }

        // Rotate the buffers: after → new previous, before → recyclable
        // spare.
        let (before, after) = pair.into_parts();
        Ok((after, before))
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
fn out_of_step(_: QosError) -> MonitorError {
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

        fn builder() -> MonitorBuilder {
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
            let mut keys: Vec<DeviceKey> =
                m.char_cache.keys().map(|&j| m.key_at(j).unwrap()).collect();
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
        m.drop_dirty_entries();
        assert_eq!(cached(&m), (0..6).map(DeviceKey).collect::<Vec<_>>());
        let r = seal(&mut m, &[(100, 0.8)]);
        assert_eq!(r.verdicts().len(), 6);
        assert_eq!(
            m.last_grid_update(),
            Some(GridUpdate::Incremental { rebucketed: 0 })
        );
        m.drop_dirty_entries();
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
        m.drop_dirty_entries();
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
        m.drop_dirty_entries();
        assert_eq!(cached(&m), (0..3).map(DeviceKey).collect::<Vec<_>>());
        quiet(&mut m);
        quiet(&mut m);
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
