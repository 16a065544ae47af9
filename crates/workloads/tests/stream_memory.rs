//! Memory shape of the graph kernels' streams, measured with the
//! counting allocator that `csr_memory.rs` uses too.
//!
//! A BC or SSSP thread computes a source's plan when it reaches the
//! source, unless another thread still holds it, and refills one
//! adjacency line at a time. Drained round-robin, one access per
//! stream as the machine interleaves threads, a workload over six
//! sources must therefore peak, above the built workload, under the
//! plans of two sources plus [`ALLOWANCE`] for the line buffers and
//! bookkeeping. A plan, while computed or held, takes at most:
//! - BC: a depth, a discoverer and an order slot per vertex, 12 bytes
//!   per vertex;
//! - SSSP: per active vertex of a round its ID and the start of its
//!   relaxed range, per relaxation the neighbor's ID, and, while it is
//!   computed, a distance per vertex and 8 more bytes per relaxation
//!   for the growing relaxed ids and the next round's frontier:
//!   `8 n + 8 walks + 12 relaxations` bytes.
//!
//! Holding every source's plan from the start, as a stream that plans
//! up front would, exceeds the bound several times over.

mod counting;

use std::collections::BTreeSet;

use counting::{live, peak, reset_peak};
use pact_tiersim::{AccessKind, Region, Workload};
use pact_workloads::graph::{kronecker, Csr, GraphWorkload, Kernel};

const SOURCES: usize = 6;
const THREADS: usize = 4;

/// Line buffers (four deques of at most 128 accesses, 2 KiB each), the
/// boxed streams, the roots and plan slots, BFS level starts and SSSP
/// round headers: a fixed 64 KiB.
const ALLOWANCE: i64 = 64 << 10;

fn graph() -> Csr {
    Csr::from_edges(kronecker(14, 8, 42), true)
}

fn region(wl: &GraphWorkload, name: &str) -> Region {
    wl.regions()
        .into_iter()
        .find(|r| r.name == name)
        .expect("the kernel lays the region out")
}

/// Peak live heap above the built workload while its streams are
/// created and drained round-robin, one access per stream.
fn drain_peak(wl: &GraphWorkload) -> i64 {
    let base = live();
    reset_peak();
    let mut streams = wl.streams();
    let mut live_streams = streams.len();
    while live_streams > 0 {
        live_streams = 0;
        for s in &mut streams {
            if s.next_access().is_some() {
                live_streams += 1;
            }
        }
    }
    drop(streams);
    peak() - base
}

/// Per source of an SSSP workload, in order: (vertex walks,
/// relaxations), parsed off a one-thread drain, which runs the sources
/// one after another (the roots do not depend on the thread count). A
/// walk starts with its vertex's offset lookup and a relaxation is a
/// store into `dist`. Round 0 walks the root, round `r + 1` walks each
/// vertex round `r` relaxed once, and a source ends after a round that
/// relaxes nothing or after 64 rounds.
fn sssp_work(g: &Csr) -> Vec<(i64, i64)> {
    let kernel = Kernel::Sssp {
        sources: SOURCES,
        threads: 1,
    };
    let wl = GraphWorkload::new("sssp", g.clone(), kernel, 42);
    let (offsets, dist) = (region(&wl, "offsets"), region(&wl, "dist"));
    let mut stream = wl.streams().remove(0);
    let mut accesses = std::iter::from_fn(|| stream.next_access()).peekable();
    let mut work = Vec::new();
    for _ in 0..SOURCES {
        let (mut walks, mut relaxations) = (0, 0);
        let mut round = 1;
        for _ in 0..64 {
            let mut relaxed = BTreeSet::new();
            for _ in 0..round {
                let lookup = accesses.next().expect("the round's next walk");
                assert!(
                    offsets.contains(lookup.vaddr),
                    "a walk starts with a lookup"
                );
                walks += 1;
                while let Some(a) = accesses.next_if(|a| !offsets.contains(a.vaddr)) {
                    if dist.contains(a.vaddr) && a.kind == AccessKind::Store {
                        relaxations += 1;
                        relaxed.insert(a.vaddr);
                    }
                }
            }
            round = relaxed.len();
            if round == 0 {
                break;
            }
        }
        work.push((walks, relaxations));
    }
    assert!(accesses.next().is_none(), "the sources cover the drain");
    work
}

#[test]
fn bc_streams_hold_two_plans_and_a_line_buffer() {
    let g = graph();
    let plan = 12 * i64::from(g.num_vertices());
    let kernel = Kernel::Bc {
        sources: SOURCES,
        threads: THREADS,
    };
    let wl = GraphWorkload::new("bc", g, kernel, 42);
    let peak = drain_peak(&wl);
    let bound = 2 * plan + ALLOWANCE;
    assert!(
        peak < bound,
        "BC streams peaked at {peak} live bytes, not under 2 x {plan} + {ALLOWANCE}"
    );
}

#[test]
fn sssp_streams_hold_two_plans_and_a_line_buffer() {
    let g = graph();
    let n = i64::from(g.num_vertices());
    let mut plans: Vec<i64> = sssp_work(&g)
        .into_iter()
        .map(|(walks, relaxations)| 8 * n + 8 * walks + 12 * relaxations)
        .collect();
    plans.sort_unstable_by(|a, b| b.cmp(a));
    let kernel = Kernel::Sssp {
        sources: SOURCES,
        threads: THREADS,
    };
    let wl = GraphWorkload::new("sssp", g, kernel, 42);
    let peak = drain_peak(&wl);
    let bound = plans[0] + plans[1] + ALLOWANCE;
    assert!(
        peak < bound,
        "SSSP streams peaked at {peak} live bytes, not under {} + {} + {ALLOWANCE}",
        plans[0],
        plans[1]
    );
}
