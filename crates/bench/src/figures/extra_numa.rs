//! Extra experiment — **slow-tier latency robustness.**
//!
//! The paper evaluates on emulated CXL (190 ns); its model study
//! (Figure 2) also covers cross-socket NUMA (140 ns). This harness
//! re-runs the bc-kron comparison with the slow tier at NUMA latency to
//! check that PACT's advantage is not an artifact of one latency point:
//! the gap to hotness systems should shrink with the latency gap but
//! the ordering should hold.

use pact_tiersim::MachineConfig;

use super::Rendered;
use crate::{banner, count, pct, Cell, Lab, Table, TierRatio};

pub(super) fn render(lab: &Lab) -> Rendered {
    let ratio = TierRatio::new(1, 1);
    let mut out = String::new();
    let mut t = Table::new(vec![
        "slow tier",
        "policy",
        "slowdown",
        "promotions",
        "(cxl-only)",
    ]);
    let tiers = [
        ("CXL 190ns", MachineConfig::skylake_cxl(0)),
        ("NUMA 140ns", MachineConfig::skylake_numa(0)),
    ];
    let policies = ["pact", "memtis", "nbt", "colloid", "notier"];
    // Per slow tier: its all-slow reference, then every policy.
    let mut cells = Vec::new();
    for (_, cfg) in &tiers {
        cells.push(Cell::cxl("bc-kron", cfg.clone()));
        cells.extend(policies.map(|p| Cell::new("bc-kron", p, ratio).on(cfg.clone())));
    }
    let outs = lab.cells(&cells)?;
    for ((label, _), row) in tiers.iter().zip(outs.chunks(1 + policies.len())) {
        let all_slow = row[0].slowdown;
        for (policy, o) in policies.iter().zip(&row[1..]) {
            t.row(vec![
                label.to_string(),
                policy.to_string(),
                pct(o.slowdown),
                count(o.promotions),
                pct(all_slow),
            ]);
        }
    }
    out.push_str(&banner(
        "Extra: bc-kron @ 1:1 with the slow tier at NUMA vs CXL latency",
    ));
    out.push_str(&t.render());
    out.push_str(
        "\nexpected: every slowdown shrinks with the 140ns tier; the policy\n\
         ordering (PACT lowest) is preserved at both latencies.\n",
    );
    Ok(out)
}
