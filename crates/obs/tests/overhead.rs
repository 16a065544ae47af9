//! Overhead guard: the tracer must be allocation-free on the emit
//! path. A disabled sink never allocates at all, and an enabled ring
//! allocates exactly once (up front) no matter how many events flow
//! through it. Enforced with a counting global allocator so a future
//! `Vec::push`-style regression fails loudly. The count is per thread,
//! so the parallel test threads do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pact_obs::{EventKind, Tracer};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread. `try_with` because the
/// allocator also runs while a thread's locals are being torn down.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the current thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn sample_event(i: u64) -> EventKind {
    match i % 3 {
        0 => EventKind::OrderIssued {
            page: i,
            to: 0,
            sync: false,
        },
        1 => EventKind::WindowBoundary {
            index: i,
            promotions: i,
            demotions: 0,
            failed_promotions: 0,
            dropped_orders: 0,
        },
        _ => EventKind::PromotionRejected { page: i },
    }
}

#[test]
fn disabled_tracer_emits_without_allocating() {
    let mut t = Tracer::disabled();
    let before = allocations();
    for i in 0..1_000_000u64 {
        t.emit(i, sample_event(i));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled tracer allocated on the emit path"
    );
    assert_eq!(t.len(), 0);
    assert_eq!(t.capacity(), 0);
}

#[test]
fn ring_tracer_never_allocates_after_construction() {
    let mut t = Tracer::ring(4096);
    let before = allocations();
    // Overflow the ring many times over: overwrite, don't grow.
    for i in 0..1_000_000u64 {
        t.emit(i, sample_event(i));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "ring tracer allocated while emitting (ring must be preallocated)"
    );
    assert_eq!(t.len(), 4096);
    assert!(t.overwritten() > 0);
}
