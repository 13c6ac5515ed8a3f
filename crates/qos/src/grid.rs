use crate::error::QosError;
use crate::point::{DeviceId, Point};
use crate::snapshot::StatePair;

/// The cell of a device slot that is not indexed.
const VACANT: usize = usize::MAX;

/// How an index was brought up to date across an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridUpdate {
    /// [`GridIndex::apply_moves`] re-bucketed only the devices whose cell
    /// changed.
    Incremental {
        /// Number of devices moved between buckets.
        rebucketed: usize,
    },
    /// [`GridIndex::rebuild`] indexed the state pair from scratch.
    /// Membership changes need not force it: see [`GridIndex::insert`].
    Rebuilt,
}

/// Uniform-grid spatial index over a [`StatePair`].
///
/// Buckets devices by their position at time `k-1` into hypercube cells of a
/// configurable side, so that the vicinity query *"all devices within uniform
/// distance `radius` of `j` at both times"* inspects only the `3^d`-ish cells
/// around `j` instead of the whole population. Candidates from the grid are
/// then filtered exactly on the motion distance, so results are identical to
/// the linear scan [`StatePair::neighbors_both`].
///
/// The local algorithms of the paper only ever look `2r` (one hop) or `4r`
/// (two hops) away, and `r < 1/4`, so cell sides match query radii well.
///
/// # Example
///
/// ```
/// use anomaly_qos::{GridIndex, QosSpace, Snapshot, StatePair, DeviceId};
/// let space = QosSpace::new(2)?;
/// let before = Snapshot::from_rows(&space, vec![vec![0.1, 0.1], vec![0.12, 0.11], vec![0.9, 0.9]])?;
/// let after  = Snapshot::from_rows(&space, vec![vec![0.4, 0.4], vec![0.42, 0.41], vec![0.9, 0.8]])?;
/// let pair = StatePair::new(before, after)?;
/// let index = GridIndex::build(&pair, 0.06);
/// assert_eq!(index.neighbors_both(&pair, DeviceId(0), 0.06), vec![DeviceId(1)]);
/// # Ok::<(), anomaly_qos::QosError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// Number of cells along each axis.
    cells_per_axis: usize,
    /// Cell side length (1 / cells_per_axis).
    cell_side: f64,
    /// Space dimension.
    dim: usize,
    /// Flattened cell -> device ids bucketed by before-position.
    buckets: Vec<Vec<DeviceId>>,
    /// Per device slot (dense ids): the flattened cell it is bucketed in
    /// and its place in that bucket (for O(1) removal), or [`VACANT`]. One
    /// slot per device of the indexed pair.
    slots: Vec<(usize, usize)>,
}

impl GridIndex {
    /// An empty index with the geometry [`GridIndex::build`] would give a
    /// `dim`-dimensional state pair: cells no smaller than `min_cell_side`
    /// (typically the query radius `2r`), capped per dimension. It holds no
    /// devices until the first [`GridIndex::rebuild`], but
    /// [`GridIndex::cell_index`] and [`GridIndex::expand_cells`] already
    /// answer — they depend on the geometry alone.
    ///
    /// # Panics
    ///
    /// Panics if `min_cell_side` is not a positive finite number.
    pub fn new(dim: usize, min_cell_side: f64) -> Self {
        let cells_per_axis = Self::resolution(dim, min_cell_side);
        GridIndex {
            cells_per_axis,
            cell_side: 1.0 / cells_per_axis as f64,
            dim,
            buckets: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Builds an index over the `before` positions of `pair`, with cells no
    /// smaller than `min_cell_side`: [`GridIndex::new`] followed by
    /// [`GridIndex::rebuild`].
    ///
    /// # Panics
    ///
    /// Panics if `min_cell_side` is not a positive finite number.
    pub fn build(pair: &StatePair, min_cell_side: f64) -> Self {
        let mut index = GridIndex::new(pair.dim(), min_cell_side);
        index.rebuild(pair, min_cell_side);
        index
    }

    /// Re-indexes a (possibly different) state pair in place, reusing the
    /// bucket allocations. The resulting index is identical to a fresh
    /// [`GridIndex::build`].
    ///
    /// # Panics
    ///
    /// Panics if `min_cell_side` is not a positive finite number.
    pub fn rebuild(&mut self, pair: &StatePair, min_cell_side: f64) {
        let dim = pair.dim();
        let cells_per_axis = Self::resolution(dim, min_cell_side);
        let cell_side = 1.0 / cells_per_axis as f64;
        let total_cells = cells_per_axis.pow(dim as u32);
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.buckets.resize_with(total_cells, Vec::new);
        self.slots.clear();
        self.slots.reserve(pair.len());
        for (id, p) in pair.before().iter() {
            let cell = Self::flatten(p.coords(), cells_per_axis, cell_side);
            self.slots.push((cell, self.buckets[cell].len()));
            self.buckets[cell].push(id);
        }
        self.cells_per_axis = cells_per_axis;
        self.cell_side = cell_side;
        self.dim = dim;
    }

    /// Incrementally maintains the index across one sampling instant.
    ///
    /// `moves` lists every device whose **before**-position changed since
    /// the index last described a state pair, as `(device, old position,
    /// new position)`. Only devices whose grid cell actually changed are
    /// re-bucketed, so a mostly-calm fleet updates in time proportional to
    /// the churn, not the population. The resulting index is identical to
    /// a fresh [`GridIndex::build`] of the moved-to pair, minus the vacant
    /// slots, as long as `moves` is complete and accurate.
    ///
    /// # Errors
    ///
    /// [`QosError::UnknownDevice`] for a move of a slot the index does not
    /// have (its slot count disagrees with the moved pair), and
    /// [`QosError::GridSlot`] for a move of a vacant slot, or from outside
    /// the device's cell (an inconsistent move list); earlier moves stay
    /// applied.
    pub fn apply_moves(
        &mut self,
        moves: &[(DeviceId, Point, Point)],
    ) -> Result<GridUpdate, QosError> {
        let mut rebucketed = 0usize;
        for (id, old, new) in moves {
            let (from, _) = self.slot(*id)?;
            if self.cell_index(old.coords()) != from {
                return Err(QosError::GridSlot {
                    id: id.0,
                    reason: "the slot is vacant or indexed outside the move's old cell",
                });
            }
            let to = self.cell_index(new.coords());
            if from != to {
                self.unbucket(*id)?;
                self.bucket(*id, to)?;
                rebucketed += 1;
            }
        }
        Ok(GridUpdate::Incremental { rebucketed })
    }

    /// Indexes device `id` at `position`, in a vacant slot. With
    /// [`GridIndex::remove`], [`GridIndex::rekey`] and [`GridIndex::resize`]
    /// it follows membership changes of the indexed pair in place: queries
    /// then answer as a fresh [`GridIndex::build`] of the edited pair.
    ///
    /// # Errors
    ///
    /// All four edits fail with [`QosError::UnknownDevice`] for an id past
    /// the slots and [`QosError::GridSlot`] for an occupied slot where a
    /// vacant one is needed, or an index never built; `insert` also with
    /// [`QosError::DimensionMismatch`].
    pub fn insert(&mut self, id: DeviceId, position: &Point) -> Result<(), QosError> {
        if position.dim() != self.dim {
            return Err(QosError::DimensionMismatch {
                expected: self.dim,
                actual: position.dim(),
            });
        }
        self.vacant(id)?;
        self.bucket(id, self.cell_index(position.coords()))
    }

    /// Takes device `id` out of the index, leaving its slot vacant (no-op
    /// on a vacant slot). Vacant slots are never query candidates.
    pub fn remove(&mut self, id: DeviceId) -> Result<(), QosError> {
        if self.slot(id)?.0 != VACANT {
            self.unbucket(id)?;
        }
        Ok(())
    }

    /// Moves slot `from` (a device in its cell, or a vacancy) to the vacant
    /// slot `to`, leaving `from` vacant: the re-keying half of a swap-remove.
    pub fn rekey(&mut self, from: DeviceId, to: DeviceId) -> Result<(), QosError> {
        self.vacant(to)?;
        if self.slot(from)?.0 != VACANT {
            let cell = self.unbucket(from)?;
            self.bucket(to, cell)?;
        }
        Ok(())
    }

    /// Number of device slots, vacant ones included.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Sets the number of slots: new slots are vacant, and slots cut off
    /// must be vacant already.
    pub fn resize(&mut self, slots: usize) -> Result<(), QosError> {
        for id in slots..self.slots.len() {
            self.vacant(DeviceId(id as u32))?;
        }
        self.slots.resize(slots, (VACANT, VACANT));
        Ok(())
    }

    /// The cell of slot `id` (or [`VACANT`]) and its place in that bucket.
    fn slot(&self, id: DeviceId) -> Result<(usize, usize), QosError> {
        self.slots
            .get(id.index())
            .copied()
            .ok_or(QosError::UnknownDevice {
                id: id.0,
                population: self.slots.len(),
            })
    }

    /// Fails unless slot `id` is vacant.
    fn vacant(&self, id: DeviceId) -> Result<(), QosError> {
        match self.slot(id)?.0 {
            VACANT => Ok(()),
            _ => Err(QosError::GridSlot {
                id: id.0,
                reason: "the slot is occupied",
            }),
        }
    }

    /// Takes an indexed device out of its bucket in O(1), swap-removing its
    /// entry and re-pointing the one moved into it, and vacates its slot.
    /// Returns the cell it was in.
    fn unbucket(&mut self, id: DeviceId) -> Result<usize, QosError> {
        let (cell, at) = self.slot(id)?;
        let bucket = self
            .buckets
            .get_mut(cell)
            .filter(|b| b.get(at) == Some(&id))
            .ok_or(QosError::GridSlot {
                id: id.0,
                reason: "the slot is vacant or missing from its bucket",
            })?;
        bucket.swap_remove(at);
        if let Some(&moved) = bucket.get(at) {
            self.place(moved, (cell, at));
        }
        self.place(id, (VACANT, VACANT));
        Ok(cell)
    }

    /// Appends device `id`, whose slot exists, to the bucket of `cell`.
    fn bucket(&mut self, id: DeviceId, cell: usize) -> Result<(), QosError> {
        let bucket = self.buckets.get_mut(cell).ok_or(QosError::GridSlot {
            id: id.0,
            reason: "the index holds no cells yet",
        })?;
        bucket.push(id);
        let at = bucket.len() - 1;
        self.place(id, (cell, at));
        Ok(())
    }

    fn place(&mut self, id: DeviceId, slot: (usize, usize)) {
        if let Some(s) = self.slots.get_mut(id.index()) {
            *s = slot;
        }
    }

    /// Flattened index of the cell `coords` falls in — lets callers detect
    /// cell crossings (and thus build minimal [`GridIndex::apply_moves`]
    /// batches) without re-deriving the grid geometry.
    ///
    /// # Panics
    ///
    /// Panics if `coords` has fewer axes than the indexed dimension.
    pub fn cell_index(&self, coords: &[f64]) -> usize {
        Self::flatten(coords, self.cells_per_axis, self.cell_side)
    }

    /// Cells per axis for a `dim`-dimensional space with cells no smaller
    /// than `min_cell_side`. Caps the axis resolution so
    /// `cells_per_axis^dim` stays affordable in higher dimensions (`d` is
    /// small in practice: the number of services).
    fn resolution(dim: usize, min_cell_side: f64) -> usize {
        assert!(
            min_cell_side.is_finite() && min_cell_side > 0.0,
            "cell side must be positive and finite"
        );
        ((1.0 / min_cell_side).floor() as usize).clamp(1, Self::max_axis(dim))
    }

    /// Axis-resolution cap for a given dimension, keeping
    /// `cells_per_axis^dim` affordable.
    fn max_axis(dim: usize) -> usize {
        match dim {
            1 => 4096,
            2 => 512,
            3 => 64,
            _ => 16,
        }
    }

    fn flatten(coords: &[f64], cells_per_axis: usize, cell_side: f64) -> usize {
        let mut idx = 0usize;
        for &c in coords {
            let axis = ((c / cell_side) as usize).min(cells_per_axis - 1);
            idx = idx * cells_per_axis + axis;
        }
        idx
    }

    /// Number of cells along each axis.
    pub fn cells_per_axis(&self) -> usize {
        self.cells_per_axis
    }

    /// Side length of each cell.
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }

    /// Expands a set of dirty cells by `rings` rings of neighbouring cells
    /// (Chebyshev distance on the grid, clamped at the domain border).
    ///
    /// This is the locality query behind incremental re-characterization:
    /// a device's verdict depends on trajectories and flags within `4r` of
    /// it (its own `2r`-neighbourhood per Definition 1, plus those
    /// neighbours' `2r`-neighbourhoods for the Section V families). With
    /// cells of side `2r`, two positions at most `4r` apart differ by at
    /// most two cell indices per axis — so `rings = 2` around every cell a
    /// change touched covers every device whose verdict that change could
    /// possibly reach.
    ///
    /// The result contains the input cells themselves (`rings = 0` is the
    /// identity). Out-of-range input cells are ignored.
    pub fn expand_cells(
        &self,
        cells: &std::collections::BTreeSet<usize>,
        rings: usize,
    ) -> std::collections::BTreeSet<usize> {
        let mut out = std::collections::BTreeSet::new();
        let n = self.cells_per_axis;
        let total = n.checked_pow(self.dim as u32).unwrap_or(usize::MAX);
        let mut lo = vec![0usize; self.dim];
        let mut hi = vec![0usize; self.dim];
        let mut cur = vec![0usize; self.dim];
        for &cell in cells {
            if cell >= total {
                continue;
            }
            // Decode the flattened index back into per-axis coordinates
            // (row-major, mirroring `flatten`).
            let mut rest = cell;
            for axis in (0..self.dim).rev() {
                let c = rest % n;
                rest /= n;
                lo[axis] = c.saturating_sub(rings);
                hi[axis] = (c + rings).min(n - 1);
            }
            // Odometer over the clamped hyper-box around the cell.
            cur.copy_from_slice(&lo);
            loop {
                let mut idx = 0usize;
                for &c in &cur {
                    idx = idx * n + c;
                }
                out.insert(idx);
                let mut axis = self.dim;
                loop {
                    if axis == 0 {
                        break;
                    }
                    axis -= 1;
                    if cur[axis] < hi[axis] {
                        cur[axis] += 1;
                        break;
                    }
                    cur[axis] = lo[axis];
                }
                if cur == lo {
                    break;
                }
            }
        }
        out
    }

    /// Exact vicinity query: devices other than `j` within uniform distance
    /// `radius` of `j` at **both** times `k-1` and `k`.
    ///
    /// Results are sorted by device id and agree exactly with
    /// [`StatePair::neighbors_both`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds for `pair`, or if `pair` disagrees with
    /// the dimension the index was built for.
    pub fn neighbors_both(&self, pair: &StatePair, j: DeviceId, radius: f64) -> Vec<DeviceId> {
        let mut out = Vec::new();
        self.neighbors_both_into(pair, j, radius, &mut out);
        out
    }

    /// Allocation-free form of [`GridIndex::neighbors_both`] (for `d ≤ 8`;
    /// higher dimensions fall back to two small scratch allocations):
    /// clears `out` and fills it with the sorted result, reusing its
    /// capacity.
    ///
    /// Characterization loops query the vicinity of every flagged device at
    /// every instant; with this variant a single buffer (per worker) absorbs
    /// all of them after the first few queries.
    ///
    /// # Panics
    ///
    /// Same as [`GridIndex::neighbors_both`].
    pub fn neighbors_both_into(
        &self,
        pair: &StatePair,
        j: DeviceId,
        radius: f64,
        out: &mut Vec<DeviceId>,
    ) {
        assert_eq!(pair.dim(), self.dim, "state pair dimension mismatch");
        let center = pair.before().position(j).coords();
        let reach = (radius / self.cell_side).ceil() as isize;
        out.clear();
        // Per-axis scratch on the stack for every realistic dimension (`d`
        // is the number of services a device consumes).
        const STACK_DIMS: usize = 8;
        let mut axes_buf = [0isize; STACK_DIMS];
        let mut offsets_buf = [0isize; STACK_DIMS];
        let (mut axes_vec, mut offsets_vec);
        let (axes, offsets): (&mut [isize], &mut [isize]) = if self.dim <= STACK_DIMS {
            (&mut axes_buf[..self.dim], &mut offsets_buf[..self.dim])
        } else {
            axes_vec = vec![0isize; self.dim];
            offsets_vec = vec![0isize; self.dim];
            (&mut axes_vec[..], &mut offsets_vec[..])
        };
        // Enumerate the hyper-box of cells within `reach` of j's cell.
        for (a, &c) in axes.iter_mut().zip(center) {
            *a = ((c / self.cell_side) as isize).min(self.cells_per_axis as isize - 1);
        }
        offsets.fill(-reach);
        'outer: loop {
            // Compute the flattened index of the current neighbour cell.
            let mut idx = 0usize;
            let mut valid = true;
            for (a, off) in axes.iter().zip(offsets.iter()) {
                let axis = a + off;
                if axis < 0 || axis >= self.cells_per_axis as isize {
                    valid = false;
                    break;
                }
                idx = idx * self.cells_per_axis + axis as usize;
            }
            if valid {
                for &cand in &self.buckets[idx] {
                    if cand != j && pair.pairwise_motion_distance(j, cand) <= radius {
                        out.push(cand);
                    }
                }
            }
            // Advance the offset odometer.
            for i in (0..self.dim).rev() {
                offsets[i] += 1;
                if offsets[i] <= reach {
                    continue 'outer;
                }
                offsets[i] = -reach;
            }
            break;
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use crate::space::QosSpace;
    use proptest::prelude::*;

    fn pair_from(rows_before: Vec<Vec<f64>>, rows_after: Vec<Vec<f64>>) -> StatePair {
        let dim = rows_before[0].len();
        let space = QosSpace::new(dim).unwrap();
        StatePair::new(
            Snapshot::from_rows(&space, rows_before).unwrap(),
            Snapshot::from_rows(&space, rows_after).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn matches_linear_scan_on_small_example() {
        let pair = pair_from(
            vec![
                vec![0.1, 0.1],
                vec![0.12, 0.11],
                vec![0.9, 0.9],
                vec![0.13, 0.13],
            ],
            vec![
                vec![0.4, 0.4],
                vec![0.42, 0.41],
                vec![0.9, 0.8],
                vec![0.8, 0.8],
            ],
        );
        let index = GridIndex::build(&pair, 0.06);
        for j in pair.device_ids() {
            let mut expected = pair.neighbors_both(j, 0.06);
            expected.sort_unstable();
            assert_eq!(index.neighbors_both(&pair, j, 0.06), expected);
        }
    }

    #[test]
    fn expand_cells_covers_the_chebyshev_ring() {
        let pair = pair_from(
            vec![vec![0.5, 0.5], vec![0.1, 0.1]],
            vec![vec![0.5, 0.5], vec![0.1, 0.1]],
        );
        let index = GridIndex::build(&pair, 0.1); // 10 cells per axis
        let n = index.cells_per_axis();
        assert_eq!(n, 10);
        let center = index.cell_index(&[0.55, 0.55]); // cell (5, 5)
        let dirty: std::collections::BTreeSet<usize> = [center].into_iter().collect();

        // rings = 0 is the identity.
        assert_eq!(index.expand_cells(&dirty, 0), dirty);

        // rings = 2 is the full 5x5 Chebyshev box around (5, 5).
        let expanded = index.expand_cells(&dirty, 2);
        let mut expected = std::collections::BTreeSet::new();
        for x in 3..=7usize {
            for y in 3..=7usize {
                expected.insert(x * n + y);
            }
        }
        assert_eq!(expanded, expected);
    }

    #[test]
    fn expand_cells_clamps_at_the_domain_border() {
        let pair = pair_from(vec![vec![0.05, 0.05]], vec![vec![0.05, 0.05]]);
        let index = GridIndex::build(&pair, 0.1);
        let n = index.cells_per_axis();
        let corner = index.cell_index(&[0.0, 0.0]); // cell (0, 0)
        let dirty: std::collections::BTreeSet<usize> = [corner].into_iter().collect();
        let expanded = index.expand_cells(&dirty, 2);
        let mut expected = std::collections::BTreeSet::new();
        for x in 0..=2usize {
            for y in 0..=2usize {
                expected.insert(x * n + y);
            }
        }
        assert_eq!(expanded, expected);
        // Out-of-range cells are ignored rather than decoded nonsensically.
        let bogus: std::collections::BTreeSet<usize> = [n * n + 7].into_iter().collect();
        assert!(index.expand_cells(&bogus, 2).is_empty());
    }

    #[test]
    fn expand_cells_merges_overlapping_neighbourhoods() {
        let pair = pair_from(vec![vec![0.5, 0.5]], vec![vec![0.5, 0.5]]);
        let index = GridIndex::build(&pair, 0.1);
        let a = index.cell_index(&[0.45, 0.45]);
        let b = index.cell_index(&[0.55, 0.45]); // adjacent along axis 0
        let dirty: std::collections::BTreeSet<usize> = [a, b].into_iter().collect();
        let expanded = index.expand_cells(&dirty, 1);
        // Two adjacent 3x3 boxes overlap into a 4x3 box: 12 distinct cells.
        assert_eq!(expanded.len(), 12);
        for &cell in &dirty {
            assert!(expanded.contains(&cell));
        }
    }

    #[test]
    fn handles_boundary_coordinates() {
        let pair = pair_from(
            vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.02, 0.0]],
            vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.02, 0.0]],
        );
        let index = GridIndex::build(&pair, 0.05);
        assert_eq!(
            index.neighbors_both(&pair, DeviceId(0), 0.05),
            vec![DeviceId(2)]
        );
        assert!(index.neighbors_both(&pair, DeviceId(1), 0.05).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_cell_side() {
        let pair = pair_from(vec![vec![0.5]], vec![vec![0.5]]);
        GridIndex::build(&pair, 0.0);
    }

    #[test]
    fn an_empty_index_has_the_built_geometry_and_fills_on_first_update() {
        let pair = pair_from(
            vec![vec![0.1, 0.1], vec![0.5, 0.52], vec![0.97, 0.0]],
            vec![vec![0.1, 0.1], vec![0.5, 0.52], vec![0.97, 0.0]],
        );
        let built = GridIndex::build(&pair, 0.06);
        let mut empty = GridIndex::new(2, 0.06);
        assert_eq!(empty.cells_per_axis(), built.cells_per_axis());
        for (_, p) in pair.before().iter() {
            assert_eq!(empty.cell_index(p.coords()), built.cell_index(p.coords()));
        }
        let dirty = [built.cell_index(&[0.5, 0.52])].into_iter().collect();
        assert_eq!(empty.expand_cells(&dirty, 1), built.expand_cells(&dirty, 1));
        empty.rebuild(&pair, 0.06);
        assert_eq!(
            empty.neighbors_both(&pair, DeviceId(1), 0.5),
            built.neighbors_both(&pair, DeviceId(1), 0.5)
        );
    }

    #[test]
    fn rebuild_matches_fresh_build_across_instants() {
        let first = pair_from(
            vec![vec![0.1, 0.1], vec![0.5, 0.5], vec![0.9, 0.9]],
            vec![vec![0.2, 0.1], vec![0.5, 0.6], vec![0.9, 0.8]],
        );
        let second = pair_from(
            vec![
                vec![0.3, 0.3],
                vec![0.31, 0.3],
                vec![0.7, 0.7],
                vec![0.72, 0.7],
            ],
            vec![
                vec![0.4, 0.4],
                vec![0.41, 0.4],
                vec![0.7, 0.6],
                vec![0.72, 0.6],
            ],
        );
        let mut reused = GridIndex::build(&first, 0.06);
        reused.rebuild(&second, 0.08);
        let fresh = GridIndex::build(&second, 0.08);
        assert_eq!(reused.cells_per_axis(), fresh.cells_per_axis());
        for j in second.device_ids() {
            assert_eq!(
                reused.neighbors_both(&second, j, 0.08),
                fresh.neighbors_both(&second, j, 0.08),
            );
        }
    }

    #[test]
    fn rebuild_survives_population_and_resolution_changes() {
        // Coarse -> fine -> coarse, with different populations each time.
        let pairs = [
            pair_from(vec![vec![0.5]], vec![vec![0.5]]),
            pair_from(
                vec![vec![0.1], vec![0.12], vec![0.9]],
                vec![vec![0.2], vec![0.22], vec![0.9]],
            ),
        ];
        let mut index = GridIndex::build(&pairs[0], 0.5);
        for (pair, side) in [(&pairs[1], 0.01), (&pairs[0], 0.3), (&pairs[1], 0.06)] {
            index.rebuild(pair, side);
            let fresh = GridIndex::build(pair, side);
            for j in pair.device_ids() {
                assert_eq!(
                    index.neighbors_both(pair, j, side),
                    fresh.neighbors_both(pair, j, side),
                );
            }
        }
    }

    #[test]
    fn one_dimensional_space_works() {
        let pair = pair_from(
            vec![vec![0.1], vec![0.14], vec![0.5]],
            vec![vec![0.2], vec![0.24], vec![0.9]],
        );
        let index = GridIndex::build(&pair, 0.06);
        assert_eq!(
            index.neighbors_both(&pair, DeviceId(0), 0.06),
            vec![DeviceId(1)]
        );
    }

    /// Applies `moves` (old pair -> new pair, positional diff of the before
    /// snapshots) and asserts the result equals a fresh build.
    fn assert_apply_matches_fresh(old: &StatePair, new: &StatePair, side: f64, radius: f64) {
        let mut index = GridIndex::build(old, side);
        let moves: Vec<(DeviceId, Point, Point)> = old
            .before()
            .iter()
            .zip(new.before().iter())
            .filter(|((_, a), (_, b))| a != b)
            .map(|((id, a), (_, b))| (id, a.clone(), b.clone()))
            .collect();
        index.apply_moves(&moves).unwrap();
        let fresh = GridIndex::build(new, side);
        for j in new.device_ids() {
            assert_eq!(
                index.neighbors_both(new, j, radius),
                fresh.neighbors_both(new, j, radius),
                "device {j:?} disagrees after apply_moves"
            );
        }
    }

    #[test]
    fn apply_moves_rebuckets_boundary_crossers() {
        let old = pair_from(
            vec![vec![0.10, 0.10], vec![0.50, 0.50], vec![0.90, 0.90]],
            vec![vec![0.12, 0.10], vec![0.50, 0.52], vec![0.90, 0.88]],
        );
        // Device 0 crosses several cells, device 1 stays put, device 2
        // nudges within its cell.
        let new = pair_from(
            vec![vec![0.45, 0.45], vec![0.50, 0.50], vec![0.905, 0.90]],
            vec![vec![0.46, 0.45], vec![0.50, 0.51], vec![0.91, 0.90]],
        );
        assert_apply_matches_fresh(&old, &new, 0.06, 0.06);
    }

    #[test]
    fn apply_moves_reports_incremental_outcome_and_counts() {
        let old = pair_from(vec![vec![0.1], vec![0.9]], vec![vec![0.1], vec![0.9]]);
        let new = pair_from(vec![vec![0.6], vec![0.9]], vec![vec![0.6], vec![0.9]]);
        let mut index = GridIndex::build(&old, 0.1);
        let moves = vec![(
            DeviceId(0),
            old.before().position(DeviceId(0)).clone(),
            new.before().position(DeviceId(0)).clone(),
        )];
        assert_eq!(
            index.apply_moves(&moves).unwrap(),
            GridUpdate::Incremental { rebucketed: 1 }
        );
        // A no-op move (same cell) is not counted.
        assert_eq!(
            index.apply_moves(&[]).unwrap(),
            GridUpdate::Incremental { rebucketed: 0 }
        );
    }

    /// A move list whose pair has more devices than the index has slots
    /// fails typed; nothing rebuilds behind the caller's back.
    #[test]
    fn apply_moves_rejects_a_slot_count_mismatch() {
        let at = |x: f64| Point::new_unchecked(vec![x]);
        let pair = pair_from(vec![vec![0.1], vec![0.9]], vec![vec![0.1], vec![0.9]]);
        let mut index = GridIndex::build(&pair, 0.1);
        assert_eq!(index.slots(), 2);
        // The pair grew a third device the index never got a slot for.
        let grown = [(DeviceId(2), at(0.5), at(0.6))];
        assert_eq!(
            index.apply_moves(&grown),
            Err(QosError::UnknownDevice {
                id: 2,
                population: 2
            })
        );
        // An index that was never built has no slots at all.
        let mut empty = GridIndex::new(1, 0.1);
        assert_eq!(
            empty.apply_moves(&[(DeviceId(0), at(0.1), at(0.5))]),
            Err(QosError::UnknownDevice {
                id: 0,
                population: 0
            })
        );
    }

    #[test]
    fn apply_moves_rejects_inconsistent_move_lists() {
        let pair = pair_from(vec![vec![0.1], vec![0.5]], vec![vec![0.1], vec![0.5]]);
        let mut index = GridIndex::build(&pair, 0.1);
        let at = |x: f64| Point::new_unchecked(vec![x]);
        // Claims device 0 was at 0.9 (wrong cell).
        let lie = [(DeviceId(0), at(0.9), at(0.1))];
        assert!(matches!(
            index.apply_moves(&lie),
            Err(QosError::GridSlot { id: 0, .. })
        ));
        // A device id past the indexed slots.
        let stranger = [(DeviceId(7), at(0.1), at(0.2))];
        assert_eq!(
            index.apply_moves(&stranger),
            Err(QosError::UnknownDevice {
                id: 7,
                population: 2
            })
        );
        // A vacant slot.
        index.remove(DeviceId(1)).unwrap();
        let ghost = [(DeviceId(1), at(0.5), at(0.9))];
        assert!(matches!(
            index.apply_moves(&ghost),
            Err(QosError::GridSlot { id: 1, .. })
        ));
    }

    /// The axis-resolution cap engages for `min_cell_side` far below
    /// `1 / max_axis(dim)`; a caller detecting cell crossings through
    /// [`GridIndex::cell_index`] (the monitor's staged-move filter) must
    /// stay consistent with `apply_moves`' own capped geometry.
    #[test]
    fn cell_index_crossing_filter_matches_apply_moves_under_the_cap() {
        // dim 3: uncapped would be 1000 cells/axis, capped at 64.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![0.08 * i as f64, 0.07 * i as f64, 0.05 * i as f64])
            .collect();
        let old = pair_from(rows.clone(), rows.clone());
        let side = 0.001;
        let mut index = GridIndex::build(&old, side);
        assert_eq!(index.cells_per_axis(), 64, "the dim-3 cap must engage");
        // Every device nudges; some cross capped cells, some only cross
        // cells of the *uncapped* resolution (the desync hazard: filtering
        // with the wrong geometry would drop or fabricate moves).
        let new_rows: Vec<Vec<f64>> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let nudge = if i % 3 == 0 { 0.002 } else { 0.11 };
                row.iter().map(|c| (c + nudge).min(1.0)).collect()
            })
            .collect();
        let new = pair_from(new_rows, rows.clone());
        // The monitor's filter: keep only moves whose *capped* cell differs.
        let moves: Vec<(DeviceId, Point, Point)> = old
            .before()
            .iter()
            .zip(new.before().iter())
            .filter(|((_, a), (_, b))| index.cell_index(a.coords()) != index.cell_index(b.coords()))
            .map(|((id, a), (_, b))| (id, a.clone(), b.clone()))
            .collect();
        assert!(
            moves.len() < old.len(),
            "some nudges must stay within their capped cell"
        );
        assert_eq!(
            index.apply_moves(&moves).unwrap(),
            GridUpdate::Incremental {
                rebucketed: moves.len()
            }
        );
        let fresh = GridIndex::build(&new, side);
        for j in new.device_ids() {
            for radius in [0.02, 0.12] {
                assert_eq!(
                    index.neighbors_both(&new, j, radius),
                    fresh.neighbors_both(&new, j, radius),
                    "device {j:?} at radius {radius}"
                );
            }
        }
    }

    #[test]
    fn the_axis_cap_depends_on_the_dimension() {
        for (dim, expected) in [(1usize, 4096), (2, 512), (3, 64), (4, 16), (6, 16)] {
            let rows = vec![vec![0.5; dim], vec![0.25; dim]];
            let pair = pair_from(rows.clone(), rows);
            let index = GridIndex::build(&pair, 1e-9);
            assert_eq!(index.cells_per_axis(), expected, "dim {dim}");
            // The capped cell side is what cell_index actually uses.
            assert!((index.cell_side() - 1.0 / expected as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn neighbors_both_into_reuses_the_buffer() {
        let pair = pair_from(
            vec![vec![0.1, 0.1], vec![0.12, 0.11], vec![0.9, 0.9]],
            vec![vec![0.4, 0.4], vec![0.42, 0.41], vec![0.9, 0.8]],
        );
        let index = GridIndex::build(&pair, 0.06);
        let mut buf = Vec::new();
        index.neighbors_both_into(&pair, DeviceId(0), 0.06, &mut buf);
        assert_eq!(buf, vec![DeviceId(1)]);
        let cap = buf.capacity();
        index.neighbors_both_into(&pair, DeviceId(2), 0.06, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap, "buffer capacity is reused");
    }

    /// Answers every vicinity query of `pair` exactly as a fresh build.
    fn assert_matches_fresh(index: &GridIndex, pair: &StatePair, side: f64) {
        let fresh = GridIndex::build(pair, side);
        for j in pair.device_ids() {
            assert_eq!(
                index.neighbors_both(pair, j, side),
                fresh.neighbors_both(pair, j, side),
                "device {j:?} disagrees with a fresh build"
            );
        }
    }

    /// A swap-remove leave and an append join, mirrored on the snapshots
    /// and on the index through remove/rekey/resize/insert: no rebuild,
    /// same answers as a fresh build of the edited pair.
    fn churn_in_place(rows: &[Vec<f64>], leaves: &[usize], joins: &[Vec<f64>], side: f64) {
        let pair = pair_from(rows.to_vec(), rows.to_vec());
        let mut index = GridIndex::build(&pair, side);
        let (mut before, mut after) = pair.into_parts();
        for (&leave, joiner) in leaves.iter().zip(joins) {
            if !before.is_empty() {
                let slot = DeviceId((leave % before.len()) as u32);
                let last = DeviceId(before.len() as u32 - 1);
                before.swap_remove_row(slot).unwrap();
                after.swap_remove_row(slot).unwrap();
                index.remove(slot).unwrap();
                if slot != last {
                    index.rekey(last, slot).unwrap();
                }
                index.resize(before.len()).unwrap();
            }
            let p = Point::new_unchecked(joiner.clone());
            let id = before.push_row(p.clone()).unwrap();
            after.push_row(p.clone()).unwrap();
            index.resize(before.len()).unwrap();
            index.insert(id, &p).unwrap();
            let pair = StatePair::new(before, after).unwrap();
            assert_matches_fresh(&index, &pair, side);
            (before, after) = pair.into_parts();
        }
        // With nothing moved the slots still line up: the next update stays
        // incremental.
        assert_eq!(index.slots(), before.len());
        assert_eq!(
            index.apply_moves(&[]).unwrap(),
            GridUpdate::Incremental { rebucketed: 0 }
        );
    }

    #[test]
    fn insert_remove_rekey_follow_a_swap_remove_fleet() {
        let rows = vec![
            vec![0.10, 0.10],
            vec![0.12, 0.11],
            vec![0.50, 0.50],
            vec![0.52, 0.49],
            vec![0.90, 0.90],
        ];
        let joins = vec![vec![0.11, 0.12], vec![0.51, 0.51], vec![0.3, 0.7]];
        // Leave the middle, then the last slot, then the first.
        churn_in_place(&rows, &[2, 4, 0], &joins, 0.06);
    }

    #[test]
    fn slot_edits_reject_inconsistent_requests() {
        let pair = pair_from(vec![vec![0.1], vec![0.5]], vec![vec![0.1], vec![0.5]]);
        let mut index = GridIndex::build(&pair, 0.1);
        let at = Point::new_unchecked(vec![0.3]);
        assert!(matches!(
            index.insert(DeviceId(0), &at),
            Err(QosError::GridSlot { id: 0, .. })
        ));
        assert!(matches!(
            index.insert(DeviceId(2), &at),
            Err(QosError::UnknownDevice { id: 2, .. })
        ));
        assert!(matches!(
            index.insert(DeviceId(0), &Point::new_unchecked(vec![0.3, 0.3])),
            Err(QosError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            index.rekey(DeviceId(0), DeviceId(1)),
            Err(QosError::GridSlot { id: 1, .. })
        ));
        assert!(matches!(
            index.resize(1),
            Err(QosError::GridSlot { id: 1, .. })
        ));
        // Removing twice is harmless; the vacancy can then be cut off.
        index.remove(DeviceId(1)).unwrap();
        index.remove(DeviceId(1)).unwrap();
        index.resize(1).unwrap();
        assert!(index.remove(DeviceId(1)).is_err());
        // An index that was never built has no cells to insert into.
        let mut empty = GridIndex::new(1, 0.1);
        empty.resize(1).unwrap();
        assert!(matches!(
            empty.insert(DeviceId(0), &at),
            Err(QosError::GridSlot { id: 0, .. })
        ));
    }

    proptest! {
        /// The grid query is exactly equivalent to the linear scan, for any
        /// population and radius.
        #[test]
        fn grid_equals_linear_scan(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..40),
            rows_after in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..40),
            radius in 0.01..0.3f64,
        ) {
            let n = rows.len().min(rows_after.len());
            let pair = pair_from(rows[..n].to_vec(), rows_after[..n].to_vec());
            let index = GridIndex::build(&pair, radius);
            for j in pair.device_ids() {
                let mut expected = pair.neighbors_both(j, radius);
                expected.sort_unstable();
                prop_assert_eq!(index.neighbors_both(&pair, j, radius), expected);
            }
        }

        /// In the capped-resolution regime (dim 3, radii far below the
        /// 1/64 capped cell side) the incremental path must still agree
        /// with a fresh build — both when handed the full positional diff
        /// and when handed only the moves that cross a *capped* cell, the
        /// filter the monitor's sealing path applies via `cell_index`.
        #[test]
        fn apply_moves_equals_fresh_build_when_the_axis_cap_engages(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 3), 1..25),
            moved in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 3), 1..25),
            radius in 0.0003..0.02f64,
        ) {
            let n = rows.len().min(moved.len());
            let before = rows[..n].to_vec();
            let old = pair_from(before.clone(), before.clone());
            let new_before: Vec<Vec<f64>> = before
                .iter()
                .enumerate()
                .map(|(i, row)| if i % 2 == 0 { moved[i].clone() } else { row.clone() })
                .collect();
            let new = pair_from(new_before, moved[..n].to_vec());
            prop_assert!(GridIndex::build(&old, radius).cells_per_axis() <= 64);
            // Full positional diff.
            assert_apply_matches_fresh(&old, &new, radius, radius);
            // Capped-cell-crossing filter only (the monitor's batch).
            let mut index = GridIndex::build(&old, radius);
            let moves: Vec<(DeviceId, Point, Point)> = old
                .before()
                .iter()
                .zip(new.before().iter())
                .filter(|((_, a), (_, b))| {
                    index.cell_index(a.coords()) != index.cell_index(b.coords())
                })
                .map(|((id, a), (_, b))| (id, a.clone(), b.clone()))
                .collect();
            index.apply_moves(&moves).unwrap();
            let fresh = GridIndex::build(&new, radius);
            for j in new.device_ids() {
                prop_assert_eq!(
                    index.neighbors_both(&new, j, radius),
                    fresh.neighbors_both(&new, j, radius)
                );
            }
        }

        /// Any sequence of swap-remove leaves and append joins, followed
        /// in place, answers like a fresh build of the edited pair.
        #[test]
        fn slot_edits_equal_fresh_build(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..30),
            leaves in proptest::collection::vec(0usize..64, 1..8),
            joins in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 8),
            radius in 0.01..0.3f64,
        ) {
            churn_in_place(&rows, &leaves, &joins, radius);
        }

        /// Applying a randomized batch of moves is equivalent to a fresh
        /// build over the moved-to state, for any population and radius —
        /// including devices crossing cell boundaries.
        #[test]
        fn apply_moves_equals_fresh_build(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..30),
            moved in proptest::collection::vec(
                proptest::collection::vec(0.0..=1.0f64, 2), 1..30),
            radius in 0.01..0.3f64,
        ) {
            let n = rows.len().min(moved.len());
            let before = rows[..n].to_vec();
            let old = pair_from(before.clone(), before.clone());
            // Move a deterministic subset (every other device) to a fresh
            // random position; the rest stay put.
            let new_before: Vec<Vec<f64>> = before
                .iter()
                .enumerate()
                .map(|(i, row)| if i % 2 == 0 { moved[i].clone() } else { row.clone() })
                .collect();
            let new = pair_from(new_before, moved[..n].to_vec());
            assert_apply_matches_fresh(&old, &new, radius, radius);
        }
    }
}
