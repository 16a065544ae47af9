//! Figure 4 + Table 2 — **bc-kron under 4 KB pages, seven tier ratios.**
//!
//! Reproduces the paper's headline comparison: PACT vs. Colloid, NBT,
//! Alto, Nomad, TPP, Memtis, Soar, and NoTier on betweenness centrality
//! over a Kronecker graph, across fast:slow ratios 8:1 … 1:8.
//! Expected shape: PACT lowest and stable; NoTier high; fault-driven
//! systems degrade with slow-tier pressure; TPP catastrophic; PACT
//! promotes up to ~10x fewer pages than Colloid (Table 2).

use super::Rendered;
use crate::{banner, ratio_sweep, Lab, TierRatio, ALL_POLICIES};

pub(super) fn render(lab: &Lab) -> Rendered {
    let h = lab.harness("bc-kron")?;
    let sweep = ratio_sweep(
        &h,
        &ALL_POLICIES,
        &TierRatio::PAPER_SWEEP,
        lab.jobs(),
        lab.trace("fig04").as_ref(),
    )?;

    let mut out = String::new();
    out.push_str(&banner("Figure 4: bc-kron slowdown vs DRAM (4KB pages)"));
    out.push_str(&sweep.render_slowdowns());
    out.push_str(&banner("Table 2: number of promotions (base pages)"));
    out.push_str(&sweep.render_promotions());

    // Headline ratios the paper calls out.
    #[expect(
        clippy::unwrap_used,
        reason = "the sweep above runs ALL_POLICIES, so every looked-up name is present"
    )]
    let idx = |name: &str| sweep.policies.iter().position(|p| p == name).unwrap();
    let (pact, colloid, nbt) = (idx("pact"), idx("colloid"), idx("nbt"));
    let mut ratios_c = Vec::new();
    let mut ratios_n = Vec::new();
    for r in 0..sweep.ratios.len() {
        let p = sweep.promotions[pact][r].max(1) as f64;
        ratios_c.push(sweep.promotions[colloid][r] as f64 / p);
        ratios_n.push(sweep.promotions[nbt][r] as f64 / p);
    }
    out.push_str(&format!(
        "\npromotion ratio Colloid/PACT across ratios: {:.1}x .. {:.1}x (paper: 2.1-10.4x)\n\
         promotion ratio NBT/PACT across ratios: {:.1}x .. {:.1}x (paper: 1.2-9.6x)\n",
        ratios_c.iter().cloned().fold(f64::INFINITY, f64::min),
        ratios_c.iter().cloned().fold(0.0f64, f64::max),
        ratios_n.iter().cloned().fold(f64::INFINITY, f64::min),
        ratios_n.iter().cloned().fold(0.0f64, f64::max),
    ));
    Ok(out)
}
