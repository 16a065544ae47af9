//! Figure 6 — **all 12 workloads at the 1:1 ratio.**
//!
//! Runs the full evaluation suite (graph analytics, GPT-2, Redis, Silo,
//! SPEC kernels) under every system at fast:slow = 1:1, the paper's
//! cross-workload comparison. Also prints PACT's improvement over each
//! baseline and the cases where a baseline wins (the paper reports a
//! 4.1% average / 11.8% max gap in those).

use pact_workloads::suite::SUITE;

use super::Rendered;
use crate::{banner, exec, Lab, Table, TierRatio, ALL_POLICIES};

pub(super) fn render(lab: &Lab) -> Rendered {
    let policies = ALL_POLICIES;
    let ratio = TierRatio::new(1, 1);
    let mut header = vec!["workload".to_string(), "(cxl)".to_string()];
    header.extend(policies.iter().map(|p| p.to_string()));
    let mut slow_table = Table::new(header.clone());
    let mut promo_table = Table::new(header);
    let mut results: Vec<(String, Vec<f64>)> = Vec::new();

    let jobs = lab.jobs();
    for name in SUITE {
        eprintln!("[fig06] {name}");
        // The lab's harness shares the workload (and the cached DRAM
        // baseline / Soar profile) across worker threads.
        let h = lab.harness(name)?;
        let cxl = h.cxl_slowdown()?;
        // The Soar profile is a OnceLock: the first worker to need it
        // computes it, the rest block briefly and then share it.
        let outs = exec::run_indexed(policies.len(), jobs, |i| {
            h.run_policy(policies[i], ratio, None)
        });
        let mut srow = vec![name.to_string(), crate::pct(cxl)];
        let mut prow = vec![name.to_string(), "-".to_string()];
        let mut slows = Vec::new();
        for out in outs {
            let out = out?;
            srow.push(crate::pct(out.slowdown));
            prow.push(crate::count(out.promotions));
            slows.push(out.slowdown);
        }
        slow_table.row(srow);
        promo_table.row(prow);
        results.push((name.to_string(), slows));
    }

    let mut out = String::new();
    out.push_str(&banner("Figure 6: slowdown vs DRAM, all workloads @ 1:1"));
    out.push_str(&slow_table.render());
    out.push_str(&banner("Figure 6: promotions (base pages)"));
    out.push_str(&promo_table.render());

    // PACT's standing: wins, and gap when it loses (paper: avg 4.1%,
    // max 11.8% behind the best baseline in those cases).
    out.push_str(&banner("PACT standing per workload"));
    let mut wins = 0;
    let mut losses = Vec::new();
    for (name, slows) in &results {
        let pact = slows[0];
        // Best competitor among *online* systems (paper's comparison
        // set excludes the offline Soar and the NoTier reference).
        let best_other = policies
            .iter()
            .zip(slows)
            .filter(|(p, _)| !matches!(**p, "pact" | "soar" | "notier"))
            .map(|(_, &s)| s)
            .fold(f64::INFINITY, f64::min);
        if pact <= best_other + 1e-9 {
            wins += 1;
            out.push_str(&format!(
                "{name:14} PACT best online ({} vs next {})\n",
                crate::pct(pact),
                crate::pct(best_other)
            ));
        } else {
            losses.push(pact - best_other);
            out.push_str(&format!(
                "{name:14} PACT trails best online by {:.1}pp\n",
                (pact - best_other) * 100.0
            ));
        }
    }
    let (avg_loss, max_loss) = if losses.is_empty() {
        (0.0, 0.0)
    } else {
        (
            losses.iter().sum::<f64>() / losses.len() as f64,
            losses.iter().cloned().fold(0.0f64, f64::max),
        )
    };
    out.push_str(&format!(
        "\nPACT best online on {wins}/{} workloads; when behind: avg gap {:.1}pp, max {:.1}pp \
         (paper: avg 4.1%, max 11.8%)\n",
        results.len(),
        avg_loss * 100.0,
        max_loss * 100.0
    ));
    Ok(out)
}
