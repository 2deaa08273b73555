//! A counting global allocator: allocation calls and the live-heap
//! high-water mark, read around each layer call of the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

// All counters are statistics that publish no other data, so relaxed
// ordering suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes (allocated minus freed); signed because a relaxed
/// race can transiently observe a free before its alloc.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Forwards to [`System`], counting calls and live bytes.
pub struct CountingAlloc;

// SAFETY: every allocation is deferred verbatim to `System`; the only
// additions are relaxed atomic updates, which allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (allocs plus reallocs) since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Live-heap high-water mark in bytes since [`reset_peak`].
pub fn heap_peak() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Restarts the high-water mark from the current live-heap size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
