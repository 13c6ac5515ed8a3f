//! A counting global allocator: live heap bytes and their peak since the
//! last [`reset_peak`], the source of `heap_peak_mb`.
//!
//! Each thread batches its net allocation in a thread-local counter and
//! publishes it to the shared counters once it reaches [`BATCH`] bytes
//! either way. Shared atomics on every allocation would bounce one cache
//! line between the worker pool's threads and slow the measured program;
//! batching bounds the error of [`peak`] to [`BATCH`] bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Delegates to [`System`] and keeps two statistics. Both counters publish
/// no other data, so `Relaxed` is enough.
pub struct Counting;

/// Net bytes a thread allocates or frees before it publishes them.
const BATCH: isize = 64 << 10;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialized and without a destructor, so reaching it never
    // allocates and never fails.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    let full = PENDING.with(|pending| {
        let net = pending.get() + delta;
        if net.abs() < BATCH {
            pending.set(net);
            None
        } else {
            pending.set(0);
            Some(net)
        }
    });
    if let Some(net) = full {
        let now = LIVE.fetch_add(net, Ordering::Relaxed) + net;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches a
// thread-local cell and atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            account(size(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            account(size(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        account(-size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` are passed through.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            account(size(new_size) - size(layout.size()));
        }
        out
    }
}

/// Starts a new peak window at the current live size; returns that size.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    usize::try_from(live).unwrap_or(0)
}

/// Highest live heap size since the last [`reset_peak`].
pub fn peak() -> usize {
    usize::try_from(PEAK.load(Ordering::Relaxed)).unwrap_or(0)
}
