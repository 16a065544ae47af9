//! Memory shape of the graph builder, measured with a counting
//! allocator in the style of `pact-tiersim`'s `window_alloc.rs`.
//!
//! `Csr::from_edges` streams its edge source twice and holds no edge
//! list, so two things must hold for a Kronecker graph:
//! - the CSR it returns owns exactly `(n + 1) * 8 + m * 4` heap bytes,
//!   i.e. both arrays have `capacity() == len()` and nothing else
//!   outlives the build;
//! - the build's peak live heap stays under twice those bytes. An edge
//!   list (8 bytes per edge) plus a pair vector (8 bytes per directed
//!   pair) alone would exceed it several times over.
//!
//! The counts are per thread: the build runs on the calling thread, and
//! other tests in this binary may run on parallel test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pact_workloads::graph::{kronecker, Csr};

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

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Restarts the high-water mark from the current live count.
fn reset_peak() {
    let now = live();
    PEAK.with(|peak| peak.set(now));
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

#[test]
fn kronecker_build_holds_exact_arrays_under_a_bounded_peak() {
    let before = live();
    reset_peak();
    let g = Csr::from_edges(kronecker(14, 8, 42), true);
    let held = live() - before;
    let build_peak = peak() - before;
    let exact = (g.num_vertices() as i64 + 1) * 8 + g.num_edges() as i64 * 4;
    assert_eq!(
        held, exact,
        "the CSR holds {held} heap bytes; exact-size arrays hold {exact}"
    );
    assert!(
        build_peak < 2 * exact,
        "the build peaked at {build_peak} live bytes, not under 2 x {exact}"
    );
}
