//! Local characterization (Algorithms 3–5; Theorems 5–7; Corollary 8).
//!
//! [`AnalyzerCore`] precomputes, for every abnormal device, one
//! [`DevicePrecompute`] record — its maximal τ-dense motions `W̄_k(j)` and
//! the count of all maximal r-consistent motions it belongs to
//! (Algorithm 2) — and then decides per device:
//!
//! * [`AnalyzerCore::characterize`] — Algorithm 3: Theorem 5 (no dense
//!   motion ⇒ isolated), Theorem 6 (a dense motion inside `J_k(j)` ⇒
//!   massive), else tentatively unresolved. Cheap, misses ~0.4% of massive
//!   devices.
//! * [`AnalyzerCore::characterize_full`] — Algorithms 4–5: additionally
//!   runs the necessary-and-sufficient condition of Theorem 7, searching
//!   collections of pairwise-disjoint dense motions of the `L_k(j)`
//!   devices; the verdict is exact (massive via Theorem 7, or unresolved
//!   via Corollary 8).
//!
//! The [`Cost`] attached to every verdict exposes the operation counts
//! reported in Table III of the paper.

use crate::families::Families;
use crate::maximal::{maximal_motions_involving_bounded, MotionOps};
use crate::motion::extends_consistently;
use crate::params::Params;
use crate::set::DeviceSet;
use crate::table::TrajectoryTable;
use anomaly_qos::DeviceId;
use std::collections::BTreeMap;
use std::fmt;

/// The three possible verdicts for an abnormal device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyClass {
    /// Certainly impacted by an isolated anomaly (`j ∈ I_k`).
    Isolated,
    /// Certainly impacted by a massive anomaly (`j ∈ M_k`).
    Massive,
    /// Unresolved configuration: both readings admissible (`j ∈ U_k`).
    Unresolved,
}

impl fmt::Display for AnomalyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AnomalyClass::Isolated => "isolated",
            AnomalyClass::Massive => "massive",
            AnomalyClass::Unresolved => "unresolved",
        };
        f.write_str(s)
    }
}

/// Which result of the paper produced the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Theorem 5: `W̄_k(j) = ∅ ⇔ j ∈ I_k`.
    Theorem5,
    /// Theorem 6: a dense motion within `J_k(j)` (sufficient for `M_k`).
    Theorem6,
    /// Theorem 7: the NSC for `M_k` (collection search succeeded for all).
    Theorem7,
    /// Corollary 8: a witness collection proves `j ∈ U_k`.
    Corollary8,
    /// Algorithm 3's fast path labelled the device unresolved without
    /// running the full NSC — may misclassify ~0.4% of massive devices.
    Algorithm3,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::Theorem5 => "Theorem 5",
            Rule::Theorem6 => "Theorem 6",
            Rule::Theorem7 => "Theorem 7",
            Rule::Corollary8 => "Corollary 8",
            Rule::Algorithm3 => "Algorithm 3",
        };
        f.write_str(s)
    }
}

/// Operation counts behind one verdict (Table III's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// `|M(j)|` — maximal motions the device belongs to (Table III, col. 1).
    pub maximal_motions: usize,
    /// `|W̄_k(j)|` — maximal dense motions (Table III, col. 2).
    pub dense_motions: usize,
    /// Collections of disjoint dense motions tested by the Theorem 7 /
    /// Corollary 8 search (Table III, cols. 3–4). Zero when the search was
    /// not needed.
    pub collections_tested: u64,
    /// Sliding-window placements performed on behalf of this device.
    pub window_moves: u64,
}

/// Result of the collection search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchOutcome {
    /// Every collection satisfied relation (4) or (5): the device is massive.
    Exhausted,
    /// A witness collection violated both relations: unresolved.
    Violated,
    /// The budget ran out before a conclusion: conservatively unresolved.
    BudgetSpent,
}

/// A verdict with its provenance and cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Characterization {
    class: AnomalyClass,
    rule: Rule,
    cost: Cost,
}

impl Characterization {
    /// The verdict.
    pub fn class(&self) -> AnomalyClass {
        self.class
    }

    /// The theorem/corollary that produced it.
    pub fn rule(&self) -> Rule {
        self.rule
    }

    /// Operation counters.
    pub fn cost(&self) -> Cost {
        self.cost
    }
}

/// Bound on the number of collections the Theorem 7 search visits
/// per device before giving up and reporting the device unresolved.
///
/// The collection space is exponential in the number of disjoint escape
/// motions around the device; a pathological superposition of many
/// anomalies could otherwise stall a monitoring round indefinitely. Giving
/// up is *conservative*: an unresolved verdict never asserts something
/// false (the device defers and re-samples, per Section VII-C).
pub const DEFAULT_COLLECTION_BUDGET: u64 = 2_000_000;

/// Largest base motion whose dense sub-motions are enumerated by the
/// Theorem 7 search; beyond this the verdict degrades conservatively (the
/// subset count is `2^|M|`).
pub const MAX_BASE_MOTION_FOR_SUBSETS: usize = 16;

/// Default budget on sliding-window placements per device when
/// precomputing maximal motions. Pathological configurations (hundreds of
/// devices inside a few windows) have exponentially many maximal motions;
/// devices whose enumeration exceeds this budget are conservatively
/// reported unresolved instead of stalling the monitoring round.
pub const DEFAULT_ENUMERATION_BUDGET: u64 = 500_000;

/// One device's record in an [`AnalyzerCore`]: `W̄_k(j)`, the count
/// `|M(j)|` of all its maximal motions (Table III reads only the count),
/// the window moves its enumeration spent, and whether that enumeration
/// overflowed its budget.
///
/// Produced by [`AnalyzerCore::precompute_device`] — a pure function of the
/// table, the parameters, and one device id, so a pool of workers can
/// compute the records of disjoint device shards in parallel (each device's
/// computation only reads its `2r`-neighbourhood; Definition 1's locality
/// is what makes this embarrassingly parallel) — and merged, as is, into a
/// full engine by [`AnalyzerCore::from_parts`].
#[derive(Debug, Clone)]
pub struct DevicePrecompute {
    dense: Vec<DeviceSet>,
    maximal_motions: usize,
    window_moves: u64,
    overflowed: bool,
}

impl DevicePrecompute {
    /// True when the device's motion enumeration exceeded its budget (the
    /// merged analyzer will conservatively report it unresolved).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// `W̄_k(j)` as precomputed: the maximal τ-dense motions containing the
    /// device. Callers that cache records across instants feed these into
    /// [`ComponentPartition::from_dense_sets`] to recover the epoch's
    /// spatial partition without rebuilding an engine.
    pub fn dense(&self) -> &[DeviceSet] {
        &self.dense
    }
}

/// The spatial identity of an epoch's massive verdicts: connected
/// components of overlapping maximal τ-dense motions.
///
/// Two devices share a component iff some chain of τ-dense motions links
/// them (each consecutive pair of motions sharing at least one device).
/// A massive verdict always carries a component — Theorems 6/7 both
/// require a dense motion through the device — while an isolated device
/// (Theorem 5: `W̄_k(j) = ∅`) never does. Components are the unit of
/// "one outage": two simultaneous anomalies whose dense motions never
/// touch land in different components even when both are massive.
///
/// Numbering is deterministic and order-free: components are sorted by
/// their smallest member device id and numbered `0..count`, so any
/// permutation of the input parts — sequential loops, shard workers,
/// cached slices — yields byte-identical ids. The ids are **epoch-local**:
/// they are ranks within one instant's partition and must not be compared
/// or cached across instants (a component vanishing elsewhere shifts every
/// later rank).
///
/// The partition is one sorted `(device, rank)` list, built by a union-find
/// over positions in that list, and [`ComponentPartition::component_of`] is
/// a binary search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentPartition {
    /// `(device, component rank)` for every device in at least one dense
    /// set, ascending by device.
    component: Vec<(DeviceId, u32)>,
    /// Number of distinct components.
    count: usize,
}

impl ComponentPartition {
    /// Builds the partition from per-device dense-motion slices, in any
    /// order. Every member of every set is assigned to a component; the
    /// slices may be freshly computed, cached, or a mixture, exactly as
    /// with [`AnalyzerCore::from_parts`]. Duplicate device entries are
    /// harmless (their sets just union again), and so is a device missing
    /// from its own set (it joins that set's component).
    pub fn from_dense_sets<'a>(
        parts: impl IntoIterator<Item = (DeviceId, &'a [DeviceSet])>,
    ) -> Self {
        let parts: Vec<(DeviceId, &[DeviceSet])> = parts
            .into_iter()
            .filter(|(_, sets)| !sets.is_empty())
            .collect();
        // Each distinct set once: a motion sits in the W̄ of every member.
        let mut sets: Vec<&DeviceSet> = parts.iter().flat_map(|&(_, sets)| sets).collect();
        sets.sort_unstable();
        sets.dedup();
        // Every device named: each one that brings a set, and every member.
        let mut devices: Vec<DeviceId> = parts.iter().map(|&(j, _)| j).collect();
        devices.extend(sets.iter().flat_map(|set| set.iter()));
        devices.sort_unstable();
        devices.dedup();
        // Only ever asked for a device named above, so the search hits.
        let slot = |j: DeviceId| devices.binary_search(&j).unwrap_or(0);
        // Union-find over positions in `devices`, path-halving on lookup.
        // Unions root toward the smaller position, so every root is the
        // smallest device of its tree, whatever the union order.
        let mut parent: Vec<usize> = (0..devices.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut union = |a: DeviceId, b: DeviceId| {
            let ra = find(&mut parent, slot(a));
            let rb = find(&mut parent, slot(b));
            parent[ra.max(rb)] = ra.min(rb);
        };
        // j belongs to each of its dense motions by construction, but
        // linking it to each also places a device absent from its own sets.
        for &(j, sets) in &parts {
            for first in sets.iter().filter_map(|set| set.iter().next()) {
                union(j, first);
            }
        }
        for set in &sets {
            for (a, b) in set.iter().zip(set.iter().skip(1)) {
                union(a, b);
            }
        }
        // Number components by smallest member id: walking the devices in
        // ascending order, each root opens the next rank and every other
        // device takes its (earlier) root's.
        let mut component: Vec<(DeviceId, u32)> = Vec::with_capacity(devices.len());
        let mut count = 0u32;
        for (i, &j) in devices.iter().enumerate() {
            let root = find(&mut parent, i);
            let rank = if root == i {
                count += 1;
                count - 1
            } else {
                component[root].1
            };
            component.push((j, rank));
        }
        ComponentPartition {
            component,
            count: count as usize,
        }
    }

    /// The component of `j`, or `None` when `j` is in no dense motion
    /// (every isolated device; massive devices always resolve to `Some`).
    pub fn component_of(&self, j: DeviceId) -> Option<u32> {
        self.component
            .binary_search_by_key(&j, |&(device, _)| device)
            .ok()
            .map(|i| self.component[i].1)
    }

    /// Number of distinct components this epoch.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when no device belongs to any dense motion.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Every (device, component) assignment in ascending device order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, u32)> + '_ {
        self.component.iter().copied()
    }
}

/// Per-population characterization engine.
///
/// Precomputes one [`DevicePrecompute`] record — `W̄_k(j)` and the count
/// `|M(j)|` — for every device of a table (each computation is local to the
/// device's `2r`-neighbourhood), keeps the records in one id-keyed map and
/// answers per-device queries. See the crate docs for an end-to-end example.
///
/// The engine owns its records and holds no borrow of the table, which serves
/// two callers beside the one-shot [`AnalyzerCore::new`]:
///
/// * a **persistent worker pool**, which ships one engine to `'static`
///   worker threads (`Arc<AnalyzerCore>` beside an `Arc<TrajectoryTable>`);
/// * an **incremental monitor**, which merges cached records of unchanged
///   devices with freshly computed ones —
///   [`AnalyzerCore::from_parts`] is indifferent to where each
///   [`DevicePrecompute`] came from, as long as the record is valid for the
///   table it is queried against.
///
/// The queries that read trajectories take the table the parts were
/// computed from; handing a different table is a logic error (verdicts
/// would be meaningless or the lookup panics on an unknown id), though
/// never memory-unsafe.
#[derive(Debug, Clone)]
pub struct AnalyzerCore {
    params: Params,
    /// One record per device of the table.
    devices: BTreeMap<DeviceId, DevicePrecompute>,
    /// True when some record overflowed its enumeration budget; while it is
    /// false, no verdict scans `D_k(j)` for overflowed neighbours.
    any_overflowed: bool,
}

impl AnalyzerCore {
    /// Builds the engine over all devices of `table` (conceptually `A_k`).
    ///
    /// Devices whose neighbourhood is so pathological that enumerating its
    /// maximal motions exceeds [`DEFAULT_ENUMERATION_BUDGET`] window moves
    /// are recorded as overflowed and later reported unresolved (a
    /// conservative, never-wrong verdict) instead of stalling.
    pub fn new(table: &TrajectoryTable, params: Params) -> Self {
        let parts = table.ids().iter().map(|&j| {
            let part = Self::precompute_device(table, &params, j, DEFAULT_ENUMERATION_BUDGET);
            (j, part)
        });
        Self::from_parts(table, params, parts)
    }

    /// The embarrassingly-parallel phase: precomputes one device's record
    /// (`W̄_k(j)`, `|M(j)|`, enumeration cost).
    ///
    /// Reads only `j`'s `2r`-neighbourhood of `table`, takes no `&mut`
    /// anywhere, and depends on nothing but its arguments — workers may call
    /// it concurrently for disjoint (or even overlapping) device shards and
    /// obtain results identical to the sequential [`AnalyzerCore::new`]
    /// loop. Because the result depends only on the trajectories of the
    /// `2r`-neighbourhood, a caller may also cache it across instants and
    /// reuse it verbatim while that neighbourhood is unchanged.
    pub fn precompute_device(
        table: &TrajectoryTable,
        params: &Params,
        j: DeviceId,
        max_window_moves: u64,
    ) -> DevicePrecompute {
        let mut ops = MotionOps::default();
        let m = maximal_motions_involving_bounded(
            table,
            j,
            params.window(),
            &mut ops,
            max_window_moves,
        );
        let overflowed = m.is_none();
        let motions = m.unwrap_or_default();
        let maximal_motions = motions.len();
        let dense: Vec<DeviceSet> = motions
            .into_iter()
            .filter(|s| params.is_dense(s.len()))
            .collect();
        DevicePrecompute {
            dense,
            maximal_motions,
            window_moves: ops.window_moves,
            overflowed,
        }
    }

    /// The merge phase: assembles an engine from per-device records, in any
    /// order.
    ///
    /// The records may come from anywhere — a sequential loop, parallel
    /// shard workers, or a cache of previous instants' parts for devices
    /// whose `2r`-neighbourhood did not change — as long as together they
    /// cover exactly the devices of `table`. The merge result is
    /// independent of part order and provenance: the map is keyed by
    /// device id, so the result is identical to [`AnalyzerCore::new`].
    ///
    /// # Panics
    ///
    /// Panics unless `parts` covers exactly the devices of `table` (one
    /// part per id, no strangers).
    pub fn from_parts(
        table: &TrajectoryTable,
        params: Params,
        parts: impl IntoIterator<Item = (DeviceId, DevicePrecompute)>,
    ) -> Self {
        let mut devices = BTreeMap::new();
        let mut any_overflowed = false;
        for (j, part) in parts {
            assert!(table.contains(j), "part for unknown device {j:?}");
            any_overflowed |= part.overflowed;
            assert!(
                devices.insert(j, part).is_none(),
                "duplicate part for device {j:?}"
            );
        }
        assert_eq!(
            devices.len(),
            table.len(),
            "parts must cover every device of the table exactly once"
        );
        AnalyzerCore {
            params,
            devices,
            any_overflowed,
        }
    }

    /// Devices whose enumeration overflowed (conservatively unresolved).
    pub fn overflowed_devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.devices
            .iter()
            .filter(|(_, part)| part.overflowed)
            .map(|(&j, _)| j)
    }

    /// The parameters in force.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// `W̄_k(j)`: maximal τ-dense motions containing `j`.
    ///
    /// # Panics
    ///
    /// Panics if no part was merged for `j`.
    pub fn wbar_of(&self, j: DeviceId) -> &[DeviceSet] {
        &self.devices[&j].dense
    }

    /// The Section V families of `j`.
    ///
    /// # Panics
    ///
    /// Panics if no part was merged for `j`.
    pub fn families_of(&self, j: DeviceId) -> Families {
        Families::build(j, self.wbar_of(j), |id| {
            self.devices
                .get(&id)
                .map(DevicePrecompute::dense)
                .unwrap_or(&[])
        })
    }

    /// Algorithm 3: Theorem 5 / Theorem 6 / tentative unresolved. It reads
    /// only the merged motion families, never the trajectories.
    ///
    /// # Panics
    ///
    /// Panics if no part was merged for `j`.
    pub fn characterize(&self, j: DeviceId) -> Characterization {
        self.fast_path(j).0
    }

    /// Algorithm 3's fast path. A device it leaves inconclusive — tentative
    /// unresolved with complete motion families — comes back with those
    /// families, for the Theorem 7 search; every other verdict is final.
    fn fast_path(&self, j: DeviceId) -> (Characterization, Option<Families>) {
        let part = &self.devices[&j];
        let cost = Cost {
            maximal_motions: part.maximal_motions,
            dense_motions: part.dense.len(),
            collections_tested: 0,
            window_moves: part.window_moves,
        };
        let verdict = |class, rule| Characterization { class, rule, cost };
        // Enumeration overflow: the neighbourhood was too pathological to
        // analyze within budget — conservatively unresolved.
        if part.overflowed {
            return (verdict(AnomalyClass::Unresolved, Rule::Algorithm3), None);
        }
        // Theorem 5: no dense motion at all.
        if part.dense.is_empty() {
            return (verdict(AnomalyClass::Isolated, Rule::Theorem5), None);
        }
        let families = self.families_of(j);
        // If any neighbour consulted by the families overflowed its own
        // enumeration, its escape motions are unknown — degrade to
        // unresolved rather than decide from incomplete data.
        if self.any_overflowed
            && families.d_set.iter().any(|m| {
                self.devices
                    .get(&m)
                    .is_some_and(DevicePrecompute::overflowed)
            })
        {
            return (verdict(AnomalyClass::Unresolved, Rule::Algorithm3), None);
        }
        // Theorem 6 via Algorithm 3 line 17: a maximal dense motion whose
        // intersection with J_k(j) is itself dense. (That intersection is a
        // motion — subset of one — and contains j.)
        let tau = self.params.tau();
        if part
            .dense
            .iter()
            .any(|m| m.intersection_len(&families.j_set) > tau)
        {
            return (verdict(AnomalyClass::Massive, Rule::Theorem6), None);
        }
        (
            verdict(AnomalyClass::Unresolved, Rule::Algorithm3),
            Some(families),
        )
    }

    /// Algorithm 3 + Algorithms 4–5 against `table`: exact verdict via the
    /// Theorem 7 NSC when the fast path is inconclusive.
    ///
    /// # Panics
    ///
    /// Panics if no part was merged for `j`.
    pub fn characterize_full(&self, table: &TrajectoryTable, j: DeviceId) -> Characterization {
        let (quick, families) = self.fast_path(j);
        // A final fast-path verdict stands; so does an overflowed
        // neighbourhood's unresolved one, as the NSC cannot run on
        // incomplete motion families.
        let Some(families) = families else {
            return quick;
        };
        let (massive, tested) = self.nsc_massive(table, j, &families);
        let mut cost = quick.cost;
        cost.collections_tested = tested;
        let (class, rule) = if massive {
            (AnomalyClass::Massive, Rule::Theorem7)
        } else {
            (AnomalyClass::Unresolved, Rule::Corollary8)
        };
        Characterization { class, rule, cost }
    }

    /// Characterizes every device of `table` with the fast path
    /// (Algorithm 3), in table order.
    pub fn classify_all(&self, table: &TrajectoryTable) -> Vec<(DeviceId, Characterization)> {
        table
            .ids()
            .iter()
            .map(|&j| (j, self.characterize(j)))
            .collect()
    }

    /// Characterizes every device of `table` exactly (with the Theorem 7
    /// NSC), in table order.
    pub fn classify_all_full(&self, table: &TrajectoryTable) -> Vec<(DeviceId, Characterization)> {
        table
            .ids()
            .iter()
            .map(|&j| (j, self.characterize_full(table, j)))
            .collect()
    }

    /// Theorem 7 search: returns `(j ∈ M_k, collections tested)`.
    ///
    /// The candidate pool is `{B ∈ W_k(ℓ) | ℓ ∈ L_k(j), j ∉ B}` — **all**
    /// τ-dense motions of the escape devices, not only maximal ones: a
    /// non-maximal sub-motion can be pairwise disjoint from another block
    /// where its maximal extension is not, and such shrunken blocks are
    /// exactly how a valid partition keeps `j` sparse. Every such `B` is a
    /// dense subset of some `M' ∈ W̄_k(ℓ)`; when `j ∈ M'`, `B ∪ {j} ⊆ M'`
    /// is consistent, so relation (5) holds and `B` can never witness a
    /// violation — those are pruned. The search enumerates every collection
    /// `C` of pairwise-disjoint pool sets (including the empty one) and
    /// checks
    ///
    /// * relation (4): some `A ∈ W_k(j)` avoids `∪C` — by subset-closure of
    ///   consistency this holds iff `|M \ ∪C| > τ` for some `M ∈ W̄_k(j)`
    ///   (then `A = M \ ∪C` is a dense motion containing `j`);
    /// * relation (5): some `B ∈ C` extends with `j` into a dense motion —
    ///   pruned at pool construction as argued above.
    ///
    /// `j ∈ M_k` iff every collection satisfies (4) or (5); the first
    /// violating collection is a Corollary 8 witness for `j ∈ U_k` and stops
    /// the search. When the pool or the collection count exceeds the
    /// budget, the verdict degrades conservatively to "not provably
    /// massive" (unresolved).
    fn nsc_massive(
        &self,
        table: &TrajectoryTable,
        j: DeviceId,
        families: &Families,
    ) -> (bool, u64) {
        // Deduplicated base motions: maximal dense motions of the escape
        // devices, avoiding j.
        let mut bases: Vec<DeviceSet> = Vec::new();
        for member in &families.l_set {
            for motion in self.wbar_of(member) {
                if !motion.contains(j) && !bases.contains(motion) {
                    bases.push(motion.clone());
                }
            }
        }
        // Expand each base into its useful dense sub-motions.
        let tau = self.params.tau();
        let window = self.params.window();
        let mut pool: std::collections::BTreeSet<DeviceSet> = std::collections::BTreeSet::new();
        let mut overflow = false;
        for base in &bases {
            let ids: Vec<DeviceId> = base.iter().collect();
            if ids.len() > MAX_BASE_MOTION_FOR_SUBSETS {
                overflow = true;
                continue;
            }
            for mask in 1u32..(1 << ids.len()) {
                if (mask.count_ones() as usize) <= tau {
                    continue; // not dense
                }
                let candidate: DeviceSet = (0..ids.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| ids[i])
                    .collect();
                // Must contain an escape device and must not absorb j
                // (relation (5) would otherwise hold trivially).
                if candidate.is_disjoint(&families.l_set) {
                    continue;
                }
                if extends_consistently(table, &candidate, j, window) {
                    continue;
                }
                pool.insert(candidate);
                if pool.len() as u64 > DEFAULT_COLLECTION_BUDGET {
                    overflow = true;
                    break;
                }
            }
        }
        let pool: Vec<DeviceSet> = pool.into_iter().collect();
        let mut tested = 0u64;
        let mut chosen: Vec<usize> = Vec::new();
        let wbar = self.wbar_of(j);
        let outcome = self.search_collections(table, j, wbar, &pool, 0, &mut chosen, &mut tested);
        // Budget/size overflow means the violation search was incomplete:
        // conservatively not provably massive.
        let massive = outcome == SearchOutcome::Exhausted && !overflow;
        (massive, tested)
    }

    /// Depth-first enumeration of disjoint collections.
    #[allow(clippy::too_many_arguments)]
    fn search_collections(
        &self,
        table: &TrajectoryTable,
        j: DeviceId,
        wbar: &[DeviceSet],
        pool: &[DeviceSet],
        start: usize,
        chosen: &mut Vec<usize>,
        tested: &mut u64,
    ) -> SearchOutcome {
        *tested += 1;
        if *tested > DEFAULT_COLLECTION_BUDGET {
            return SearchOutcome::BudgetSpent;
        }
        if self.collection_violates(table, j, wbar, pool, chosen) {
            return SearchOutcome::Violated;
        }
        for i in start..pool.len() {
            if chosen.iter().all(|&c| pool[c].is_disjoint(&pool[i])) {
                chosen.push(i);
                let sub = self.search_collections(table, j, wbar, pool, i + 1, chosen, tested);
                chosen.pop();
                if sub != SearchOutcome::Exhausted {
                    return sub;
                }
            }
        }
        SearchOutcome::Exhausted
    }

    /// True when the collection satisfies **neither** relation (4) nor (5);
    /// `wbar` is `W̄_k(j)`.
    fn collection_violates(
        &self,
        table: &TrajectoryTable,
        j: DeviceId,
        wbar: &[DeviceSet],
        pool: &[DeviceSet],
        chosen: &[usize],
    ) -> bool {
        let window = self.params.window();
        let tau = self.params.tau();
        // Relation (5): some chosen dense motion absorbs j consistently.
        for &c in chosen {
            if extends_consistently(table, &pool[c], j, window) {
                return false;
            }
        }
        // Relation (4): some maximal dense motion of j survives the removal
        // of the chosen sets with more than τ members.
        for m in wbar {
            let mut survivors = m.len();
            for &c in chosen {
                survivors -= m.intersection_len(&pool[c]);
            }
            if survivors > tau {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(tau: usize) -> Params {
        Params::new(0.05, tau).unwrap()
    }

    /// Five co-movers and a loner (window 0.1).
    fn simple_table() -> TrajectoryTable {
        TrajectoryTable::from_pairs_1d(&[
            (0, 0.10, 0.50),
            (1, 0.11, 0.51),
            (2, 0.12, 0.52),
            (3, 0.13, 0.53),
            (4, 0.14, 0.54),
            (5, 0.80, 0.20),
        ])
    }

    #[test]
    fn loner_is_isolated_by_theorem_5() {
        let t = simple_table();
        let a = AnalyzerCore::new(&t, params(3));
        let c = a.characterize(DeviceId(5));
        assert_eq!(c.class(), AnomalyClass::Isolated);
        assert_eq!(c.rule(), Rule::Theorem5);
        assert_eq!(c.cost().maximal_motions, 1);
        assert_eq!(c.cost().dense_motions, 0);
    }

    #[test]
    fn group_is_massive_by_theorem_6() {
        let t = simple_table();
        let a = AnalyzerCore::new(&t, params(3));
        for id in 0..5 {
            let c = a.characterize(DeviceId(id));
            assert_eq!(c.class(), AnomalyClass::Massive, "device {id}");
            assert_eq!(c.rule(), Rule::Theorem6);
        }
    }

    #[test]
    fn full_agrees_with_quick_on_clear_cases() {
        let t = simple_table();
        let a = AnalyzerCore::new(&t, params(3));
        for &j in t.ids() {
            assert_eq!(
                a.characterize(j).class(),
                a.characterize_full(&t, j).class()
            );
        }
    }

    #[test]
    fn sparse_group_is_isolated() {
        // Three co-movers with τ = 3: the motion is sparse.
        let t =
            TrajectoryTable::from_pairs_1d(&[(0, 0.10, 0.50), (1, 0.11, 0.51), (2, 0.12, 0.52)]);
        let a = AnalyzerCore::new(&t, params(3));
        for &j in t.ids() {
            assert_eq!(a.characterize(j).class(), AnomalyClass::Isolated);
        }
    }

    #[test]
    fn figure_3_shape_is_unresolved_at_the_edges() {
        // Five devices, maximal motions {1,2,3,4} and {2,3,4,5}, τ = 3:
        // devices 1 and 5 are unresolved, 2–4 massive (see figures.rs for
        // the full treatment).
        let t = TrajectoryTable::from_pairs_1d(&[
            (1, 0.10, 0.10),
            (2, 0.14, 0.14),
            (3, 0.16, 0.16),
            (4, 0.18, 0.18),
            (5, 0.22, 0.22),
        ]);
        let a = AnalyzerCore::new(&t, params(3));
        let c1 = a.characterize_full(&t, DeviceId(1));
        assert_eq!(c1.class(), AnomalyClass::Unresolved);
        assert_eq!(c1.rule(), Rule::Corollary8);
        assert!(c1.cost().collections_tested >= 1);
        let c3 = a.characterize_full(&t, DeviceId(3));
        assert_eq!(c3.class(), AnomalyClass::Massive);
    }

    #[test]
    fn classify_all_reports_every_device() {
        let t = simple_table();
        let a = AnalyzerCore::new(&t, params(3));
        assert_eq!(a.classify_all(&t).len(), 6);
        assert_eq!(a.classify_all_full(&t).len(), 6);
    }

    #[test]
    fn display_impls() {
        assert_eq!(AnomalyClass::Massive.to_string(), "massive");
        assert_eq!(Rule::Corollary8.to_string(), "Corollary 8");
    }

    /// The engine with a custom per-device enumeration budget, assembled
    /// the way the monitor's pool does it.
    fn with_budget(t: &TrajectoryTable, max_window_moves: u64) -> AnalyzerCore {
        let parts = t.ids().iter().map(|&j| {
            let part = AnalyzerCore::precompute_device(t, &params(3), j, max_window_moves);
            (j, part)
        });
        AnalyzerCore::from_parts(t, params(3), parts)
    }

    #[test]
    fn enumeration_overflow_degrades_to_unresolved() {
        // A starving budget: everything overflows, nothing stalls, and
        // every verdict is the conservative Unresolved.
        let t = simple_table();
        let a = with_budget(&t, 1);
        assert_eq!(a.overflowed_devices().count(), t.len());
        for &j in t.ids() {
            let quick = a.characterize(j);
            assert_eq!(quick.class(), AnomalyClass::Unresolved);
            assert_eq!(quick.rule(), Rule::Algorithm3);
            let full = a.characterize_full(&t, j);
            assert_eq!(full.class(), AnomalyClass::Unresolved);
        }
    }

    #[test]
    fn generous_budget_matches_unbounded() {
        let t = simple_table();
        let bounded = with_budget(&t, 1_000_000);
        let unbounded = AnalyzerCore::new(&t, params(3));
        assert_eq!(bounded.overflowed_devices().count(), 0);
        for &j in t.ids() {
            assert_eq!(
                bounded.characterize_full(&t, j).class(),
                unbounded.characterize_full(&t, j).class()
            );
        }
    }

    #[test]
    fn from_parts_matches_sequential_construction_in_any_order() {
        let t = simple_table();
        let sequential = AnalyzerCore::new(&t, params(3));
        // Parts computed out of order, as shard workers would deliver them.
        let mut parts: Vec<(DeviceId, DevicePrecompute)> = t
            .ids()
            .iter()
            .map(|&j| {
                (
                    j,
                    AnalyzerCore::precompute_device(&t, &params(3), j, DEFAULT_ENUMERATION_BUDGET),
                )
            })
            .collect();
        parts.reverse();
        let merged = AnalyzerCore::from_parts(&t, params(3), parts);
        for &j in t.ids() {
            assert_eq!(
                sequential.characterize_full(&t, j),
                merged.characterize_full(&t, j)
            );
        }
        assert_eq!(
            sequential.overflowed_devices().count(),
            merged.overflowed_devices().count()
        );
    }

    #[test]
    #[should_panic(expected = "cover every device")]
    fn from_parts_rejects_incomplete_coverage() {
        let t = simple_table();
        let one = AnalyzerCore::precompute_device(&t, &params(3), DeviceId(0), 1_000);
        let _ = AnalyzerCore::from_parts(&t, params(3), vec![(DeviceId(0), one)]);
    }

    #[test]
    #[should_panic(expected = "duplicate part")]
    fn from_parts_rejects_duplicate_parts() {
        let t = simple_table();
        let one = AnalyzerCore::precompute_device(&t, &params(3), DeviceId(0), 1_000);
        let _ = AnalyzerCore::from_parts(
            &t,
            params(3),
            vec![(DeviceId(0), one.clone()), (DeviceId(0), one)],
        );
    }

    #[test]
    fn precompute_device_reports_overflow() {
        let t = simple_table();
        let part = AnalyzerCore::precompute_device(&t, &params(3), DeviceId(0), 1);
        assert!(part.overflowed());
    }

    /// Two spatially disjoint co-moving groups and a loner.
    fn two_group_table() -> TrajectoryTable {
        TrajectoryTable::from_pairs_1d(&[
            (0, 0.10, 0.50),
            (1, 0.11, 0.51),
            (2, 0.12, 0.52),
            (3, 0.13, 0.53),
            (10, 0.70, 0.10),
            (11, 0.71, 0.11),
            (12, 0.72, 0.12),
            (13, 0.73, 0.13),
            (20, 0.40, 0.90),
        ])
    }

    /// The partition of every device's merged `W̄_k(j)`.
    fn partition(a: &AnalyzerCore, t: &TrajectoryTable) -> ComponentPartition {
        ComponentPartition::from_dense_sets(t.ids().iter().map(|&j| (j, a.wbar_of(j))))
    }

    #[test]
    fn disjoint_groups_get_distinct_components_numbered_by_smallest_id() {
        let t = two_group_table();
        let p = partition(&AnalyzerCore::new(&t, params(3)), &t);
        assert_eq!(p.count(), 2);
        for id in [0, 1, 2, 3] {
            assert_eq!(p.component_of(DeviceId(id)), Some(0), "device {id}");
        }
        for id in [10, 11, 12, 13] {
            assert_eq!(p.component_of(DeviceId(id)), Some(1), "device {id}");
        }
        // The loner has no dense motion, hence no component.
        assert_eq!(p.component_of(DeviceId(20)), None);
        assert_eq!(p.iter().count(), 8);
    }

    #[test]
    fn overlapping_dense_motions_merge_into_one_component() {
        // Figure-3 shape: {1,2,3,4} and {2,3,4,5} overlap, so all five
        // devices share one component.
        let t = TrajectoryTable::from_pairs_1d(&[
            (1, 0.10, 0.10),
            (2, 0.14, 0.14),
            (3, 0.16, 0.16),
            (4, 0.18, 0.18),
            (5, 0.22, 0.22),
        ]);
        let p = partition(&AnalyzerCore::new(&t, params(3)), &t);
        assert_eq!(p.count(), 1);
        for id in 1..=5 {
            assert_eq!(p.component_of(DeviceId(id)), Some(0), "device {id}");
        }
    }

    #[test]
    fn component_partition_is_independent_of_part_order() {
        let t = two_group_table();
        let sequential = partition(&AnalyzerCore::new(&t, params(3)), &t);
        let mut parts: Vec<(DeviceId, DevicePrecompute)> = t
            .ids()
            .iter()
            .map(|&j| {
                (
                    j,
                    AnalyzerCore::precompute_device(&t, &params(3), j, DEFAULT_ENUMERATION_BUDGET),
                )
            })
            .collect();
        parts.reverse();
        let dense_slices: Vec<(DeviceId, &[DeviceSet])> =
            parts.iter().map(|(j, part)| (*j, part.dense())).collect();
        let from_slices = ComponentPartition::from_dense_sets(dense_slices);
        assert_eq!(sequential, from_slices);
        let merged = partition(&AnalyzerCore::from_parts(&t, params(3), parts), &t);
        assert_eq!(sequential, merged);
    }

    #[test]
    fn empty_partition_reports_empty() {
        let p = ComponentPartition::from_dense_sets(std::iter::empty());
        assert!(p.is_empty());
        assert_eq!(p.count(), 0);
        assert_eq!(p.component_of(DeviceId(0)), None);
    }

    #[test]
    fn two_entries_for_one_device_union_both_sets() {
        let (a, b) = (
            [DeviceSet::from([1, 2, 3, 4])],
            [DeviceSet::from([4, 5, 6, 7])],
        );
        let p = ComponentPartition::from_dense_sets([
            (DeviceId(4), &a[..]),
            (DeviceId(9), &[][..]),
            (DeviceId(4), &b[..]),
        ]);
        assert_eq!(p.count(), 1);
        assert_eq!(p.iter().count(), 7);
        for id in 1..=7 {
            assert_eq!(p.component_of(DeviceId(id)), Some(0), "device {id}");
        }
        // A device that brings no set has no component.
        assert_eq!(p.component_of(DeviceId(9)), None);
    }

    #[test]
    fn a_device_missing_from_its_own_set_joins_that_sets_component() {
        let sets = [DeviceSet::from([1, 2, 3, 4])];
        let p = ComponentPartition::from_dense_sets([(DeviceId(8), &sets[..])]);
        assert_eq!(p.count(), 1);
        for id in [1, 2, 3, 4, 8] {
            assert_eq!(p.component_of(DeviceId(id)), Some(0), "device {id}");
        }
        // An empty set still places its device, alone.
        let p = ComponentPartition::from_dense_sets([(DeviceId(8), &[DeviceSet::new()][..])]);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![(DeviceId(8), 0)]);
    }

    #[test]
    fn components_rank_by_smallest_member_whatever_the_part_order() {
        let sets = [
            (30, DeviceSet::from([30, 31, 32, 33])),
            (20, DeviceSet::from([20, 21, 22, 23, 5])),
            (10, DeviceSet::from([10, 11, 12, 13])),
        ];
        // Parts in descending device order; the second set's smallest
        // member, 5, comes before every other device.
        let p = ComponentPartition::from_dense_sets(
            sets.iter()
                .map(|(j, set)| (DeviceId(*j), std::slice::from_ref(set))),
        );
        assert_eq!(p.count(), 3);
        assert_eq!(p.component_of(DeviceId(5)), Some(0));
        assert_eq!(p.component_of(DeviceId(20)), Some(0));
        assert_eq!(p.component_of(DeviceId(10)), Some(1));
        assert_eq!(p.component_of(DeviceId(33)), Some(2));
        let ids: Vec<u32> = p.iter().map(|(j, _)| j.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The union-find partition equals a naive one: merge every part's
        /// device and members into one group, join groups that share a
        /// device until none do, and rank groups by smallest member.
        #[test]
        fn partition_matches_a_naive_merge(
            raw in proptest::collection::vec(
                (0u32..24, proptest::collection::vec(
                    proptest::collection::vec(0u32..24, 0..5), 0..3)),
                0..10),
        ) {
            let parts: Vec<(DeviceId, Vec<DeviceSet>)> = raw
                .into_iter()
                .map(|(j, sets)| {
                    (DeviceId(j), sets.into_iter().map(|m| m.into_iter().map(DeviceId).collect()).collect())
                })
                .collect();
            let mut groups: Vec<DeviceSet> = Vec::new();
            for (j, sets) in &parts {
                if sets.is_empty() {
                    continue;
                }
                let mut group = DeviceSet::from([j.0]);
                for set in sets {
                    group.extend(set.iter());
                }
                groups.push(group);
            }
            let mut merged = true;
            while merged {
                merged = false;
                'pairs: for a in 0..groups.len() {
                    for b in a + 1..groups.len() {
                        if !groups[a].is_disjoint(&groups[b]) {
                            let other = groups.remove(b);
                            groups[a].extend(other.iter());
                            merged = true;
                            break 'pairs;
                        }
                    }
                }
            }
            groups.sort_by_key(|g| g.iter().next());
            let p = ComponentPartition::from_dense_sets(
                parts.iter().map(|(j, sets)| (*j, sets.as_slice())),
            );
            proptest::prop_assert_eq!(p.count(), groups.len());
            let mut want: Vec<(DeviceId, u32)> = Vec::new();
            for (rank, group) in groups.iter().enumerate() {
                want.extend(group.iter().map(|j| (j, rank as u32)));
            }
            want.sort_unstable();
            proptest::prop_assert_eq!(p.iter().collect::<Vec<_>>(), want);
            for id in 0..24 {
                let rank = groups.iter().position(|g| g.contains(DeviceId(id)));
                proptest::prop_assert_eq!(
                    p.component_of(DeviceId(id)),
                    rank.map(|r| r as u32)
                );
            }
        }
    }

    #[test]
    fn bounded_enumeration_signals_truncation() {
        use crate::maximal::{maximal_motions_bounded, MotionOps};
        let t = simple_table();
        let mut ops = MotionOps::default();
        let out = maximal_motions_bounded(&t, &t.device_set(), 0.1, &mut ops, 1);
        assert!(out.is_none());
        assert!(ops.truncated);
    }
}
