//! Inspecting PAC: what does criticality-first profiling actually see?
//!
//! ```text
//! cargo run --release --example pac_inspection
//! ```
//!
//! Runs GUPS on the emulated CXL tier, then dumps the PAC store: the
//! per-page criticality PACT accumulated, against per-page sampled
//! frequency — the raw material of the paper's Figure 1 — plus the
//! adaptive bin width the promotion engine converged to.

use pact_core::{PactConfig, PactPolicy};
use pact_stats::Summary;
use pact_tiersim::{Machine, MachineConfig, Tier};
use pact_workloads::Gups;

fn main() {
    let workload = Gups::new(8 << 20, 1_000_000, 2, 11);
    // Everything on the slow tier, sampled densely: pure profiling.
    let mut cfg = MachineConfig::skylake_cxl(0);
    cfg.pebs.rate = 25;
    let machine = Machine::new(cfg).unwrap();
    let mut pact = PactPolicy::new(PactConfig::default()).unwrap();
    let report = machine.try_run(&workload, &mut pact).unwrap();

    println!(
        "run: {} accesses, {} slow-tier misses, measured slow-tier MLP {:.1}",
        report.counters.accesses,
        report.counters.llc_misses[Tier::Slow.index()],
        report.counters.tor_mlp(Tier::Slow),
    );
    println!(
        "PEBS samples: {}  tracked pages: {}  final bin width: {:.1}",
        report.counters.pebs_samples,
        pact.store().tracked_pages(),
        pact.bin_width()
    );

    // Distribution of accumulated PAC across pages.
    let pacs: Vec<f64> = pact.store().iter().map(|(_, e)| e.pac).collect();
    println!(
        "\nPAC distribution across pages: {}",
        Summary::from_values(&pacs)
    );

    // Top pages by PAC vs top pages by frequency: how much do the
    // rankings agree?
    let mut by_pac: Vec<_> = pact.store().iter().map(|(p, e)| (*p, e.pac)).collect();
    let mut by_freq: Vec<_> = pact
        .store()
        .iter()
        .map(|(p, e)| (*p, e.total_samples))
        .collect();
    by_pac.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    by_freq.sort_by_key(|&(_, f)| std::cmp::Reverse(f));
    let top = 100.min(by_pac.len());
    let pac_top: std::collections::HashSet<_> = by_pac[..top].iter().map(|&(p, _)| p).collect();
    let overlap = by_freq[..top]
        .iter()
        .filter(|&&(p, _)| pac_top.contains(&p))
        .count();
    println!(
        "top-{top} overlap between PAC ranking and frequency ranking: {overlap}/{top}\n\
         (the disagreement is exactly where criticality-first placement wins)"
    );
}
