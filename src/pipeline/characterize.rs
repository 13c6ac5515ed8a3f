//! The characterize step of a seal and the state it keeps across epochs —
//! vicinity grid, verdict cache, worker pool — owned by [`Characterizer`],
//! the only code that knows the grid's cell geometry.

use super::engine::Engine;
use super::error::MonitorError;
use super::monitor::{out_of_step, SealDelta};
use super::pool::{run_phase, Job, WorkerPool};
use anomaly_core::{
    AnalyzerCore, Characterization, ComponentPartition, DevicePrecompute, Params, TrajectoryTable,
};
use anomaly_qos::{DeviceId, GridIndex, GridUpdate, Point, StatePair};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Chebyshev cell rings the dirty-cell set is expanded by before cache
/// invalidation. By Definition 1's locality a device's verdict depends
/// only on trajectories and flagged-set membership within `4r` of it (its
/// own motions reach `2r`, and the Theorem 7 search inspects those
/// neighbours' motions, `2r` further). Cells are `2r` wide, so two rings
/// around every dirty cell cover every device a change could touch.
const INVALIDATION_RINGS: usize = 2;

/// One abnormal device's characterization over `[k−1, k]`.
pub(super) struct Row {
    pub(super) id: DeviceId,
    pub(super) characterization: Characterization,
    /// Devices within `2r` of this one at both instants.
    pub(super) vicinity: usize,
    /// The device's component in the epoch's [`ComponentPartition`].
    pub(super) component: Option<u32>,
}

/// Cached characterization state of one flagged device, valid as long as
/// nothing inside its `4r`-neighbourhood changed since it was computed:
/// neither a trajectory (a row value change — including the computing
/// epoch's own movers, whose trajectories turn stationary one epoch later,
/// hence the dirty-set echo) nor the flagged set (a detector flag flip).
struct CacheEntry {
    /// Grid cell of the device's `after` position when computed.
    cell: usize,
    /// Re-merged into the analyzer whenever other devices need fresh
    /// computation, and an input of the epoch's component partition.
    precompute: DevicePrecompute,
    characterization: Characterization,
    vicinity: usize,
}

/// Owner of the seal's derived state; see the module docs.
pub(super) struct Characterizer {
    params: Params,
    /// Execution strategy for the characterization jobs.
    engine: Engine,
    /// Persistent workers, spawned lazily at the first phase that warrants
    /// more than one shard and parked on channel receives between epochs.
    pool: Option<WorkerPool>,
    /// Reusable vicinity-query buffer for jobs run inline.
    neighbor_buf: Vec<DeviceId>,
    /// Vicinity index over the fleet's `k−1` positions, newcomers vacant,
    /// with `2r` cells fixed at construction. Shared with the verdict jobs;
    /// between epochs this is the only reference ([`Arc::make_mut`]).
    grid: Arc<GridIndex>,
    /// Cell-crossing moves of `k−1` positions sealed since the grid last
    /// updated, replayed at the next characterized instant.
    grid_staged: Vec<(DeviceId, Point, Point)>,
    /// Outcome of the most recent grid update. Until it is set the cache is
    /// empty and nothing needs tracking.
    last_grid_update: Option<GridUpdate>,
    /// Per-device verdict cache, keyed by dense id.
    char_cache: BTreeMap<u32, CacheEntry>,
    /// Grid cells touched since the last characterized instant.
    dirty_pending: BTreeSet<usize>,
}

impl Characterizer {
    pub(super) fn new(params: Params, services: usize, engine: Engine) -> Self {
        Characterizer {
            params,
            engine,
            pool: None,
            neighbor_buf: Vec::new(),
            grid: Arc::new(GridIndex::new(services, cell_side(&params))),
            grid_staged: Vec::new(),
            last_grid_update: None,
            char_cache: BTreeMap::new(),
            dirty_pending: BTreeSet::new(),
        }
    }

    pub(super) fn engine(&self) -> Engine {
        self.engine
    }

    pub(super) fn last_grid_update(&self) -> Option<GridUpdate> {
        self.last_grid_update
    }

    /// A device joined at slot `id`, vacant in the grid until its first
    /// sealed row.
    pub(super) fn join(&mut self, id: DeviceId) -> Result<(), MonitorError> {
        if self.last_grid_update.is_some() {
            Arc::make_mut(&mut self.grid)
                .resize(id.index() + 1)
                .map_err(out_of_step)?;
        }
        Ok(())
    }

    /// The device at `id` left and the one at `last` moved into its slot;
    /// `rows` are their last sealed positions, where they have one. The
    /// leaver's trajectory disappears and the relocated device's dense id
    /// changes, so every cached verdict or dense set that involves either
    /// sits within the rings of those cells.
    pub(super) fn leave(
        &mut self,
        id: DeviceId,
        last: DeviceId,
        rows: &[&Point],
    ) -> Result<(), MonitorError> {
        if self.last_grid_update.is_none() {
            return Ok(());
        }
        let grid = Arc::make_mut(&mut self.grid);
        self.dirty_pending
            .extend(rows.iter().map(|p| grid.cell_index(p.coords())));
        grid.remove(id).map_err(out_of_step)?;
        grid.rekey(last, id).map_err(out_of_step)?;
        grid.resize(last.index()).map_err(out_of_step)?;
        self.grid_staged.retain(|(j, _, _)| *j != id);
        for (j, _, _) in &mut self.grid_staged {
            if *j == last {
                *j = id;
            }
        }
        self.char_cache.remove(&id.0);
        self.char_cache.remove(&last.0);
        Ok(())
    }

    /// Forgets all derived state; the next characterized instant rebuilds
    /// the grid.
    pub(super) fn reset(&mut self) {
        self.char_cache.clear();
        self.dirty_pending.clear();
        self.grid_staged.clear();
        self.last_grid_update = None;
    }

    /// The characterize step of one seal over `pair = (S_{k−1}, S_k)`:
    /// marks the epoch's changed rows and `flipped` detector flags dirty
    /// and, when `abnormal` (ascending, no newcomers) is not empty, brings
    /// the grid up to date, drops the cached verdicts the changes reach,
    /// computes the missing ones, and returns one [`Row`] per abnormal
    /// device in `abnormal` order. Then stages the epoch's moves and
    /// newcomers for the next grid update. Hands `pair` back.
    pub(super) fn seal(
        &mut self,
        pair: StatePair,
        delta: &SealDelta,
        flipped: &[u32],
        abnormal: &[DeviceId],
    ) -> Result<(StatePair, Vec<Row>), MonitorError> {
        let cell = |p: &Point| self.grid.cell_index(p.coords());
        let mut cells: Vec<usize> = Vec::with_capacity(2 * delta.changed.len());
        let mut moves: Vec<(DeviceId, Point, Point)> = Vec::new();
        for &j in &delta.changed {
            let after = pair.after().try_position(j)?;
            if !delta.newcomers.contains(&j.0) {
                let before = pair.before().try_position(j)?;
                // Only cell crossings ever need re-bucketing.
                if cell(before) != cell(after) {
                    moves.push((j, before.clone(), after.clone()));
                }
                cells.push(cell(before));
            }
            cells.push(cell(after));
        }
        for &slot in flipped {
            // A_k membership changed at this device's position.
            self.dirty_pending
                .insert(cell(pair.after().try_position(DeviceId(slot))?));
        }
        self.dirty_pending.extend(cells.iter().copied());
        let (pair, rows) = if abnormal.is_empty() {
            (pair, Vec::new())
        } else {
            self.update_grid(&pair, &delta.newcomers)?;
            self.drop_dirty_entries();
            // Echo: rows that changed this epoch change trajectory again
            // next epoch (moving → stationary).
            self.dirty_pending.extend(cells);
            self.characterize(pair, abnormal)?
        };
        if self.last_grid_update.is_some() {
            self.grid_staged.extend(moves);
            let grid = Arc::make_mut(&mut self.grid);
            for &slot in &delta.newcomers {
                let row = pair.after().try_position(DeviceId(slot))?;
                grid.insert(DeviceId(slot), row).map_err(out_of_step)?;
            }
        }
        Ok((pair, rows))
    }

    /// Replays the staged moves, or builds the grid from `pair.before()`
    /// at the first characterized instant after build, reset or restore.
    fn update_grid(
        &mut self,
        pair: &StatePair,
        newcomers: &BTreeSet<u32>,
    ) -> Result<(), MonitorError> {
        let grid = Arc::make_mut(&mut self.grid);
        let update = match self.last_grid_update {
            Some(_) => grid.apply_moves(&self.grid_staged).map_err(out_of_step)?,
            None => {
                grid.rebuild(pair, cell_side(&self.params));
                for &slot in newcomers {
                    grid.remove(DeviceId(slot)).map_err(out_of_step)?;
                }
                GridUpdate::Rebuilt
            }
        };
        if grid.slots() != pair.len() {
            return Err(MonitorError::internal("grid out of step with the fleet"));
        }
        self.last_grid_update = Some(update);
        self.grid_staged.clear();
        Ok(())
    }

    /// Cache triage: consumes the dirty cells, expands them by
    /// [`INVALIDATION_RINGS`], and drops every cached verdict anchored
    /// inside; what remains is provably unaffected.
    pub(super) fn drop_dirty_entries(&mut self) {
        let dirty = std::mem::take(&mut self.dirty_pending);
        let doomed = self.grid.expand_cells(&dirty, INVALIDATION_RINGS);
        self.char_cache
            .retain(|_, entry| !doomed.contains(&entry.cell));
    }

    /// Computes and caches the abnormal devices the cache misses, then
    /// reads every row and the epoch's one [`ComponentPartition`] from the
    /// cache. Component ids are epoch-local ranks, so the partition is
    /// rebuilt from the cached dense slices rather than cached itself.
    fn characterize(
        &mut self,
        pair: StatePair,
        abnormal: &[DeviceId],
    ) -> Result<(StatePair, Vec<Row>), MonitorError> {
        let fresh: Vec<DeviceId> = abnormal
            .iter()
            .copied()
            .filter(|j| !self.char_cache.contains_key(&j.0))
            .collect();
        let pair = if fresh.is_empty() {
            pair
        } else {
            self.compute(pair, abnormal, fresh)?
        };
        let mut entries: Vec<(DeviceId, &CacheEntry)> = Vec::with_capacity(abnormal.len());
        for &j in abnormal {
            let entry = self.char_cache.get(&j.0).ok_or(MonitorError::internal(
                "abnormal device missing from the verdict cache",
            ))?;
            entries.push((j, entry));
        }
        let partition = ComponentPartition::from_dense_sets(
            entries.iter().map(|&(j, e)| (j, e.precompute.dense())),
        );
        let rows = entries
            .into_iter()
            .map(|(id, e)| Row {
                id,
                characterization: e.characterization,
                vicinity: e.vicinity,
                component: partition.component_of(id),
            })
            .collect();
        Ok((pair, rows))
    }

    /// Characterizes the `fresh` devices in two per-device phases (both
    /// embarrassingly parallel, per Definition 1's locality) and caches
    /// them: per-device motion precompute, merged with the cached slices
    /// into one engine over `abnormal`, then verdicts and vicinities. Each
    /// phase is a list of shard jobs, run inline as one shard or on the
    /// worker pool; parts are keyed by dense id, so the result is identical
    /// for every engine and worker count.
    fn compute(
        &mut self,
        pair: StatePair,
        abnormal: &[DeviceId],
        fresh: Vec<DeviceId>,
    ) -> Result<StatePair, MonitorError> {
        let window = self.params.window();
        let table = Arc::new(TrajectoryTable::from_state_pair(&pair, abnormal));
        let shards = self.shards(&pair, fresh)?;
        let jobs: Vec<Job> = shards
            .iter()
            .map(|shard| Job::Precompute {
                table: Arc::clone(&table),
                params: self.params,
                shard: shard.clone(),
            })
            .collect();
        let mut fresh_pre: BTreeMap<DeviceId, DevicePrecompute> = BTreeMap::new();
        for output in run_phase(self.engine, &mut self.pool, &mut self.neighbor_buf, jobs)? {
            fresh_pre.extend(output.into_parts()?);
        }
        // One slice per abnormal device, fresh or cached.
        let mut parts: Vec<(DeviceId, DevicePrecompute)> = Vec::with_capacity(table.len());
        for &j in table.ids() {
            let cached = self.char_cache.get(&j.0).map(|entry| &entry.precompute);
            let part = fresh_pre.get(&j).or(cached).ok_or(MonitorError::internal(
                "abnormal device has no precompute slice",
            ))?;
            parts.push((j, part.clone()));
        }
        let core = Arc::new(AnalyzerCore::from_parts(&table, self.params, parts));
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
            for (j, characterization, vicinity) in output.into_verdicts()? {
                let precompute = fresh_pre.remove(&j).ok_or(MonitorError::internal(
                    "fresh device missing its precompute slice",
                ))?;
                let cell = self.grid.cell_index(pair.after().try_position(j)?.coords());
                let entry = CacheEntry {
                    cell,
                    precompute,
                    characterization,
                    vicinity,
                };
                self.char_cache.insert(j.0, entry);
            }
        }
        // Every job consumed its Arc clones before reporting its result, so
        // this is the only reference again (the clone arm is unreachable
        // belt-and-braces).
        Ok(Arc::try_unwrap(pair).unwrap_or_else(|arc| (*arc).clone()))
    }

    /// Splits the `fresh` devices into the engine's shard count of
    /// contiguous runs whose sizes differ by at most one, after ordering
    /// them by the grid cell of their `k−1` position (ties by id): devices
    /// of one shard share neighbourhoods, so each worker reads cache-warm,
    /// overlapping slices of the table.
    fn shards(
        &self,
        pair: &StatePair,
        fresh: Vec<DeviceId>,
    ) -> Result<Vec<Vec<DeviceId>>, MonitorError> {
        let count = self.engine.shard_count(fresh.len());
        let mut ordered: Vec<(usize, DeviceId)> = Vec::with_capacity(fresh.len());
        for j in fresh {
            let before = pair.before().try_position(j)?;
            ordered.push((self.grid.cell_index(before.coords()), j));
        }
        ordered.sort_unstable();
        let (base, extra) = (ordered.len() / count, ordered.len() % count);
        let mut runs = ordered.into_iter().map(|(_, j)| j);
        Ok((0..count)
            .map(|s| runs.by_ref().take(base + usize::from(s < extra)).collect())
            .collect())
    }

    /// Dense ids with a cached verdict, ascending.
    #[cfg(test)]
    pub(super) fn cached(&self) -> impl Iterator<Item = u32> + '_ {
        self.char_cache.keys().copied()
    }
}

/// Grid cell side: the `2r` query window, kept positive.
fn cell_side(params: &Params) -> f64 {
    params.window().max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomaly_qos::{QosSpace, Snapshot};

    /// A 1-D interval in which every device stays where it was.
    fn still(xs: &[f64]) -> StatePair {
        let space = QosSpace::new(1).unwrap();
        let rows = || xs.iter().map(|&x| vec![x]).collect::<Vec<_>>();
        let snapshot = || Snapshot::from_rows(&space, rows()).unwrap();
        StatePair::new(snapshot(), snapshot()).unwrap()
    }

    /// A threaded characterizer with its grid built over `pair`.
    fn characterizer(workers: usize, pair: &StatePair) -> Characterizer {
        let params = Params::new(0.01, 3).unwrap();
        let mut ch = Characterizer::new(params, 1, Engine::Threaded { workers });
        ch.update_grid(pair, &BTreeSet::new()).unwrap();
        ch
    }

    fn ids(n: u32) -> Vec<DeviceId> {
        (0..n).map(DeviceId).collect()
    }

    #[test]
    fn a_fresh_cluster_beside_cached_verdicts_fills_every_worker() {
        // Sixteen devices spread over [0, 0.6], and a cluster of four at
        // 0.9 that is the last run of cells.
        let mut xs: Vec<f64> = (0..16).map(|i| 0.04 * f64::from(i)).collect();
        xs.extend([0.900, 0.901, 0.902, 0.903]);
        let pair = still(&xs);
        let abnormal = ids(20);
        let mut ch = characterizer(2, &pair);
        let delta = SealDelta {
            fed: Vec::new(),
            changed: Vec::new(),
            newcomers: BTreeSet::new(),
        };
        let (pair, rows) = ch.seal(pair, &delta, &[], &abnormal).unwrap();
        assert_eq!(rows.len(), 20);
        // Something changed at the cluster: its verdicts, and only those,
        // leave the cache.
        let cluster_cell = ch.grid.cell_index(&[0.9]);
        ch.dirty_pending.insert(cluster_cell);
        ch.drop_dirty_entries();
        let fresh: Vec<DeviceId> = abnormal
            .iter()
            .copied()
            .filter(|j| !ch.char_cache.contains_key(&j.0))
            .collect();
        assert_eq!(
            fresh,
            vec![DeviceId(16), DeviceId(17), DeviceId(18), DeviceId(19)]
        );
        let shards = ch.shards(&pair, fresh).unwrap();
        assert_eq!(shards.len(), 2, "{shards:?}");
        assert!(shards.iter().all(|s| s.len() == 2), "{shards:?}");
        // The re-characterized epoch serves the same rows.
        let (_, again) = ch.seal(pair, &delta, &[], &abnormal).unwrap();
        let key = |r: &Row| (r.id, r.characterization, r.vicinity, r.component);
        assert_eq!(
            rows.iter().map(key).collect::<Vec<_>>(),
            again.iter().map(key).collect::<Vec<_>>()
        );
    }

    /// Twenty-three devices spread over the unit interval.
    fn scattered() -> StatePair {
        let xs: Vec<f64> = (0..23).map(|i| (f64::from(i) * 0.37) % 1.0).collect();
        still(&xs)
    }

    #[test]
    fn covers_every_device_exactly_once() {
        let pair = scattered();
        for workers in [0, 1, 2, 3, 7, 50] {
            let shards = characterizer(workers, &pair).shards(&pair, ids(23)).unwrap();
            assert_eq!(shards.len(), workers.clamp(1, 23), "workers={workers}");
            let mut seen: Vec<DeviceId> = shards.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, ids(23), "workers={workers}");
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let pair = scattered();
        for workers in [2, 3, 5, 7] {
            let shards = characterizer(workers, &pair).shards(&pair, ids(23)).unwrap();
            let sizes: Vec<usize> = shards.iter().map(Vec::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(*min >= 1 && max - min <= 1, "{sizes:?}");
        }
    }

    #[test]
    fn more_shards_than_devices_yields_singletons() {
        let pair = still(&[0.2, 0.5, 0.8]);
        let shards = characterizer(16, &pair).shards(&pair, ids(3)).unwrap();
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.len() == 1), "{shards:?}");
    }

    #[test]
    fn colocated_devices_stay_together() {
        // Two tight clusters far apart: two shards must not split either.
        let pair = still(&[0.80, 0.10, 0.81, 0.11]);
        let shards = characterizer(2, &pair).shards(&pair, ids(4)).unwrap();
        assert_eq!(
            shards,
            vec![
                vec![DeviceId(1), DeviceId(3)],
                vec![DeviceId(0), DeviceId(2)]
            ]
        );
    }
}
