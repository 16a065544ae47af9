//! A per-thread counting allocator for the memory-shape tests, in the
//! style of `pact-tiersim`'s `window_alloc.rs`. A test binary that
//! declares `mod counting;` counts every allocation its threads make;
//! the counts are per thread, so tests on parallel test threads do not
//! see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Live bytes allocated by this thread, and their high-water mark.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live count by `delta` bytes. `try_with` because
/// the allocator also runs while a thread's locals are being torn down.
fn account(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Restarts the high-water mark from the current live count.
pub fn reset_peak() {
    let now = live();
    PEAK.with(|peak| peak.set(now));
}

pub fn peak() -> i64 {
    PEAK.with(Cell::get)
}
