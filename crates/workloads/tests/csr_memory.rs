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

mod counting;

use counting::{live, peak, reset_peak};
use pact_workloads::graph::{kronecker, Csr};

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
