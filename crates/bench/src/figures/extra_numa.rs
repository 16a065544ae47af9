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
    for (label, cfg) in [
        ("CXL 190ns", MachineConfig::skylake_cxl(0)),
        ("NUMA 140ns", MachineConfig::skylake_numa(0)),
    ] {
        let all_slow = lab.cell(&Cell::cxl("bc-kron", cfg.clone()), None)?.slowdown;
        for policy in ["pact", "memtis", "nbt", "colloid", "notier"] {
            let cell = Cell::new("bc-kron", policy, ratio).on(cfg.clone());
            let o = lab.cell(&cell, None)?;
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
