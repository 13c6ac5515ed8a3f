//! Execution-strategy knobs for the characterization hot path.

/// How [`Monitor::observe`](super::Monitor::observe) executes the
/// per-instant characterization.
///
/// Per-device verdicts are local (Definition 1: each device decides from
/// its `2r`-neighbourhood only), so the flagged set can be split into
/// shards and characterized concurrently; the monitor merges shard results
/// back in dense-id order, making the [`Report`](super::Report) —
/// verdicts, iterator order, summary counters — identical for every
/// variant and worker count. Timings are the only fields that differ.
///
/// # Example
///
/// ```
/// use anomaly_characterization::pipeline::{Engine, MonitorBuilder};
///
/// let monitor = MonitorBuilder::new()
///     .engine(Engine::Threaded { workers: 4 })
///     .fleet(100)
///     .build()?;
/// assert_eq!(monitor.engine(), Engine::Threaded { workers: 4 });
/// # Ok::<(), anomaly_characterization::pipeline::MonitorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Characterization on the calling thread (default): the pool's
    /// precompute and verdict jobs run inline, as one shard.
    #[default]
    Sequential,
    /// Characterization fanned out over a persistent pool of `workers` OS
    /// threads (plain `std::thread` + channels; no runtime, no extra
    /// dependencies). The pool is spawned lazily on the first epoch that
    /// needs it and its threads stay parked between epochs, so the
    /// per-seal cost is two channel round-trips per shard rather than two
    /// `thread::scope` spawn/join rounds. Only the devices the verdict
    /// cache misses are characterized, and those are what gets sharded:
    /// ordered by the vicinity grid cell of their previous position (ties
    /// by id) and cut into contiguous runs whose sizes differ by at most
    /// one, so each worker gets a balanced, spatially-coherent slice.
    ///
    /// `workers == 0` and `workers == 1` behave like [`Engine::Sequential`]
    /// (no threads are spawned), the worker count is capped at the number
    /// of devices to characterize, and a phase that ends up with a single
    /// shard — one cache miss, say — runs inline too.
    Threaded {
        /// Upper bound on concurrent worker threads.
        workers: usize,
    },
}

impl Engine {
    /// Effective shard count for `devices` devices to characterize.
    pub(super) fn shard_count(self, devices: usize) -> usize {
        match self {
            Engine::Sequential => 1,
            Engine::Threaded { workers } => workers.clamp(1, devices.max(1)),
        }
    }
}

/// How the monitor keeps its vicinity [`GridIndex`](anomaly_qos::GridIndex)
/// current across sampling instants. There is one way: incrementally.
///
/// The enum and its no-op setter
/// [`MonitorBuilder::grid_maintenance`](super::MonitorBuilder::grid_maintenance)
/// remain only so existing callers that name the mode keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GridMaintenance {
    /// Diff the newly indexed snapshot against the previous one and
    /// re-bucket only the devices whose grid cell changed
    /// ([`GridIndex::apply_moves`](anomaly_qos::GridIndex::apply_moves));
    /// joins and leaves edit the index in place, and it is rebuilt from
    /// scratch only at the first characterized instant after build, reset
    /// or restore. On a mostly-calm fleet the per-instant index cost is
    /// proportional to the churn, not the population.
    #[default]
    Incremental,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sequential_and_incremental() {
        assert_eq!(Engine::default(), Engine::Sequential);
        assert_eq!(GridMaintenance::default(), GridMaintenance::Incremental);
    }

    #[test]
    fn shard_count_is_clamped_to_the_flagged_set() {
        assert_eq!(Engine::Sequential.shard_count(100), 1);
        assert_eq!(Engine::Threaded { workers: 4 }.shard_count(100), 4);
        assert_eq!(Engine::Threaded { workers: 4 }.shard_count(2), 2);
        assert_eq!(Engine::Threaded { workers: 0 }.shard_count(10), 1);
        assert_eq!(Engine::Threaded { workers: 3 }.shard_count(0), 1);
    }
}
