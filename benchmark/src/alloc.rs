//! A counting global allocator, so a layer's heap traffic per operation is
//! a per-layer metric (`core.fleet.allocs_per_window`). Frees are not
//! counted: the question is how much new memory a window asks for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Counting is off except around the operation being counted: the live
/// workloads allocate on several threads at once, and a shared counter
/// they all write would itself cost throughput.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Allocations and reallocations `f` makes (on any thread).
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter and its switch are relaxed
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
