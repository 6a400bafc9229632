//! A std-only counting global allocator for the runtime allocation
//! checks (`alloc_free.rs` here and in `crates/core/tests`): it counts
//! every allocation and reallocation of the calling thread, so
//! allocations by the test harness on its own threads cannot leak into a
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` never panics, even while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Counts every allocation and reallocation of the calling thread, then
/// defers to [`System`].
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter publishes no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread made while running `f`.
pub fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_allocations() {
    let n = allocations_in(|| vec![0u32; 16]);
    assert!(n >= 1, "counting allocator is not installed");
}
