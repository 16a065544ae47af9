//! Quickstart: run PACT on a simple two-pattern workload and inspect
//! the outcome.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a workload with a latency-tolerant streaming region and a
//! latency-critical pointer-chasing region, sizes the fast tier to hold
//! only half the footprint, and compares first-touch placement (NoTier)
//! against PACT's criticality-first migration.

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{Access, FirstTouch, Machine, MachineConfig, TraceWorkload, PAGE_BYTES};

fn main() {
    // A workload with two equally *hot* but differently *critical*
    // halves: pages 0..512 are streamed (high MLP, prefetchable);
    // pages 512..1024 are pointer-chased (every load stalls the core).
    let pages = 1024u64;
    let mut trace = Vec::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for round in 0..40 {
        for line in 0..512 * (PAGE_BYTES / 64) {
            trace.push(Access::load(line * 64).with_work(1));
        }
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
            let page = 512 + x % 512;
            let line = (x >> 40) % (PAGE_BYTES / 64);
            trace.push(Access::dependent_load(page * PAGE_BYTES + line * 64).with_work(1));
        }
    }
    let workload = TraceWorkload::new("quickstart", pages * PAGE_BYTES, trace);

    // The paper's testbed: DRAM fast tier + emulated-CXL slow tier,
    // fast tier sized to half the footprint (the 1:1 ratio).
    let machine = Machine::new(MachineConfig::skylake_cxl(pages / 2)).unwrap();

    // DRAM-only reference for slowdown normalization.
    let dram = Machine::new(MachineConfig::dram_only()).unwrap();
    let base = dram.try_run(&workload, &mut FirstTouch::new()).unwrap();

    let no_tier = machine.try_run(&workload, &mut FirstTouch::new()).unwrap();
    let mut pact = PactPolicy::new(PactConfig::default()).unwrap();
    let with_pact = machine.try_run(&workload, &mut pact).unwrap();

    let slowdown = |cycles: u64| (cycles as f64 / base.total_cycles as f64 - 1.0) * 100.0;
    println!("DRAM-only:  {:>12} cycles (baseline)", base.total_cycles);
    println!(
        "NoTier:     {:>12} cycles  ({:+.1}% slowdown)",
        no_tier.total_cycles,
        slowdown(no_tier.total_cycles)
    );
    println!(
        "PACT:       {:>12} cycles  ({:+.1}% slowdown, {} pages promoted)",
        with_pact.total_cycles,
        slowdown(with_pact.total_cycles),
        with_pact.promotions
    );
    println!(
        "\nPACT recovered {:.0}% of the tiering penalty by promoting the\n\
         pointer-chased (high-PAC) pages and leaving the streamed pages\n\
         — equally hot, but latency-tolerant — on the slow tier.",
        (1.0 - slowdown(with_pact.total_cycles) / slowdown(no_tier.total_cycles).max(1e-9)) * 100.0
    );
}
