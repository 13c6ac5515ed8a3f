//! The machine-speed yardstick the gated timings are scaled by.
//!
//! The benchmark runs on shared machines whose speed per instruction moves
//! with what co-tenants do: the same epochs of the same build took 1.1 ms
//! on a quiet 2-CPU container and 2.2 ms on a busy one, in stretches from a
//! fraction of a second to the whole run. A fixed kernel that belongs to the
//! benchmark, not to the program, is therefore timed right before every
//! measured epoch and around every set-up, and each gated timing is scaled
//! by [`REFERENCE_MS`] over the kernel's local time: the gated numbers read
//! as milliseconds at the reference machine's speed. The raw timings stay on
//! the detail line.
//!
//! The kernel mixes what the monitor's own work is made of: dependent loads
//! over a 2 MiB table, hash-map lookups, a sort of fresh heap memory and a
//! chain of floating-point operations.

use crate::harness::SplitMix;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Median time of one [`pass`] on an unloaded 2-CPU container (Intel Xeon,
/// release build), ms. A gated timing `t` is reported as
/// `t × REFERENCE_MS / pass time`.
pub const REFERENCE_MS: f64 = 0.06;

/// Passes timed around each set-up; their median is that set-up's
/// yardstick.
pub const SETUP_PASSES: usize = 9;

/// Epochs on each side of an epoch whose passes make its yardstick (a
/// rolling median), so that one disturbed pass does not scale its epoch.
pub const WINDOW: usize = 50;

const TABLE: usize = 1 << 19;
const KEYS: u64 = 1 << 14;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

struct Tables {
    /// A single cycle through `0..TABLE`, walked by dependent loads.
    cycle: Vec<u32>,
    map: HashMap<u64, u64>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut g = SplitMix::new(7);
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        for i in (1..TABLE).rev() {
            order.swap(i, g.below(i + 1));
        }
        let mut cycle = vec![0u32; TABLE];
        for i in 0..TABLE {
            cycle[order[i] as usize] = order[(i + 1) % TABLE];
        }
        let map = (0..KEYS).map(|k| (k.wrapping_mul(GOLDEN), k)).collect();
        Tables { cycle, map }
    })
}

/// One pass of the kernel: the same work every time.
fn kernel() -> u64 {
    let t = tables();
    let mut at = 0u32;
    for _ in 0..2_000 {
        at = t.cycle[at as usize];
    }
    let mut acc = u64::from(at);
    for k in 0..3_000u64 {
        let key = ((k * 5) % KEYS).wrapping_mul(GOLDEN);
        acc = acc.wrapping_add(t.map.get(&key).copied().unwrap_or(0));
    }
    let mut g = SplitMix::new(acc);
    let mut sorted: Vec<u64> = (0..1_024).map(|_| g.next_u64()).collect();
    sorted.sort_unstable();
    let mut x = 1.0f64;
    for _ in 0..5_000 {
        x = x * 1.000_001 + (g.next_u64() & 0xff) as f64 * 1e-9;
    }
    acc ^ sorted[512] ^ x.to_bits()
}

/// Times one pass of the kernel, ms. An untimed pass runs first, so that
/// the timed one finds its tables in cache whatever the program did before:
/// otherwise a change to the program's own working set would move the
/// yardstick.
pub fn pass() -> f64 {
    black_box(kernel());
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of `passes` passes, ms.
pub fn median_of(passes: usize) -> f64 {
    let times: Vec<f64> = (0..passes).map(|_| pass()).collect();
    crate::harness::quantile(&times, 0.5)
}

/// Each sample's yardstick: the median of the passes within [`WINDOW`]
/// samples of it.
pub fn rolling(passes: &[f64]) -> Vec<f64> {
    (0..passes.len())
        .map(|i| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(passes.len());
            crate::harness::quantile(&passes[lo..hi], 0.5)
        })
        .collect()
}

/// `ms` measured where a pass took `yardstick_ms`, at the reference speed.
pub fn scale(ms: f64, yardstick_ms: f64) -> f64 {
    ms * REFERENCE_MS / yardstick_ms
}
