//! Graph-analytics tiering: betweenness centrality over a Kronecker
//! graph under several tiering systems.
//!
//! ```text
//! cargo run --release --example graph_tiering
//! ```
//!
//! This is the paper's motivating scenario: the CSR adjacency arrays
//! are hot *and* prefetch-friendly, while the shared vertex-state
//! arrays are hot *and* pointer-chased. Hotness-based systems cannot
//! tell them apart; criticality can.

use pact_baselines::{Colloid, Nbt, NoTier};
use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{Machine, MachineConfig, TieringPolicy, Workload, PAGE_BYTES};
use pact_workloads::graph::{kronecker, Csr, GraphWorkload, Kernel};

fn main() {
    // A scaled bc-kron: 2^14 vertices, degree ~8, two sources across
    // four cooperating threads.
    let graph = Csr::from_edges(kronecker(14, 8, 42), true);
    println!(
        "graph: {} vertices, {} directed edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let workload = GraphWorkload::new(
        "bc-kron-example",
        graph,
        Kernel::Bc {
            sources: 2,
            threads: 4,
        },
        42,
    );
    let pages = workload.footprint_bytes().div_ceil(PAGE_BYTES);
    println!("footprint: {} MiB\n", workload.footprint_bytes() >> 20);

    let dram = Machine::new(MachineConfig::dram_only()).unwrap();
    let base = dram
        .try_run(&workload, &mut NoTier::new())
        .unwrap()
        .total_cycles;

    // Fast tier = half the footprint (1:1).
    let machine = Machine::new(MachineConfig::skylake_cxl(pages / 2)).unwrap();
    let mut policies: Vec<Box<dyn TieringPolicy>> = vec![
        Box::new(PactPolicy::new(PactConfig::default()).unwrap()),
        Box::new(Colloid::new()),
        Box::new(Nbt::new()),
        Box::new(NoTier::new()),
    ];
    println!(
        "{:10} {:>12} {:>10} {:>12} {:>12}",
        "policy", "slowdown", "promoted", "hint faults", "slow misses"
    );
    for policy in policies.iter_mut() {
        let r = machine.try_run(&workload, policy.as_mut()).unwrap();
        println!(
            "{:10} {:>11.1}% {:>10} {:>12} {:>12}",
            r.policy,
            (r.total_cycles as f64 / base as f64 - 1.0) * 100.0,
            r.promotions,
            r.counters.hint_faults,
            r.counters.llc_misses[1],
        );
    }
    println!(
        "\nPACT should show the lowest slowdown with an order of magnitude\n\
         fewer migrations than the fault-driven systems (paper Fig. 4)."
    );
}
