//! Per-window allocation guard for the machine event loop, extending
//! the counting-allocator idiom of `pact-obs`'s `overhead.rs` to the
//! simulator's window machinery: `window_telemetry`, the migration
//! `order_buf`, the fault retry buffer, and the sharded-loop page-event
//! buffers (CHMU observes, page-stall blame) must all reuse their
//! capacity across windows. Doubling the number of windows over the
//! same access stream may add exactly **one** allocation per extra
//! window — the `WindowRecord`'s own exact-size metrics snapshot,
//! which the report owns — plus the amortized (logarithmic) doubling
//! of the report's window list. Anything beyond that is a hot-path
//! regression.
//!
//! The count is per thread: the machine runs on the calling thread, and
//! the two tests run on parallel test threads, so a process-wide count
//! would charge each test for the other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pact_tiersim::{Access, FirstTouch, Machine, MachineConfig, TraceWorkload, PAGE_BYTES};

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

const PAGES: u64 = 512;

/// A mixed load/store trace over `PAGES` pages: strided sweeps
/// interleaved with a pointer chase, enough to keep every window busy.
fn workload() -> TraceWorkload {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut trace = Vec::with_capacity(60_000);
    for i in 0..60_000u64 {
        if i % 2 == 0 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            trace.push(Access::dependent_load((x % PAGES) * PAGE_BYTES));
        } else {
            let addr = (i * 64) % (PAGES * PAGE_BYTES);
            if i % 13 == 0 {
                trace.push(Access::store(addr));
            } else {
                trace.push(Access::load(addr));
            }
        }
    }
    TraceWorkload::new("window-alloc", PAGES * PAGE_BYTES, trace)
}

/// Runs the same trace with the given window length and returns
/// (allocations during the run, completed windows). Everything that can
/// buffer per window is switched on: the sharded loop (CHMU and
/// page-stall events are page-sharded and merged at window edges), CHMU
/// counters, and page-stall tracking.
fn run_with_window(window_cycles: u64) -> (u64, usize) {
    let mut cfg = MachineConfig::skylake_cxl(64);
    cfg.window_cycles = window_cycles;
    cfg.shards = 4;
    cfg.chmu_counters = 64;
    cfg.track_page_stalls = true;
    let wl = workload();
    // Invariant: skylake_cxl with these field edits stays valid (the
    // shard-determinism suite runs near-identical configs).
    let machine = Machine::new(cfg).expect("config is valid");
    let mut policy = FirstTouch::new();
    let before = allocations();
    let report = machine.run(&wl, &mut policy);
    (allocations() - before, report.windows.len())
}

#[test]
fn window_buffers_reuse_capacity_across_windows() {
    let (base_allocs, base_windows) = run_with_window(50_000);
    let (dense_allocs, dense_windows) = run_with_window(12_500);
    assert!(
        dense_windows >= 2 * base_windows && base_windows >= 4,
        "expected the shorter window to at least double the window count \
         (got {base_windows} vs {dense_windows})"
    );
    // Same accesses, only more window boundaries: each extra window may
    // cost exactly one allocation (its record's metrics snapshot); the
    // slack covers the window list's amortized doubling. A second
    // per-window allocation doubles `delta` and fails loudly.
    let extra_windows = (dense_windows - base_windows) as u64;
    let delta = dense_allocs.saturating_sub(base_allocs);
    assert!(
        delta <= extra_windows + 48,
        "window machinery allocates per window: {extra_windows} extra windows \
         cost {delta} extra allocations ({base_allocs} -> {dense_allocs})"
    );
}

#[test]
fn serial_loop_is_equally_allocation_disciplined() {
    let run = |window_cycles: u64| {
        let mut cfg = MachineConfig::skylake_cxl(64);
        cfg.window_cycles = window_cycles;
        cfg.track_page_stalls = true;
        let wl = workload();
        // Invariant: same fields as above minus sharding; still valid.
        let machine = Machine::new(cfg).expect("config is valid");
        let mut policy = FirstTouch::new();
        let before = allocations();
        let report = machine.run(&wl, &mut policy);
        (allocations() - before, report.windows.len())
    };
    let (base_allocs, base_windows) = run(50_000);
    let (dense_allocs, dense_windows) = run(12_500);
    assert!(dense_windows >= 2 * base_windows && base_windows >= 4);
    let extra_windows = (dense_windows - base_windows) as u64;
    let delta = dense_allocs.saturating_sub(base_allocs);
    assert!(
        delta <= extra_windows + 48,
        "serial window machinery allocates per window: {extra_windows} extra \
         windows cost {delta} extra allocations ({base_allocs} -> {dense_allocs})"
    );
}
