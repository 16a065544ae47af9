//! Extra experiment (beyond the paper's figures) — **PAC estimation
//! accuracy against the simulator's oracle.**
//!
//! The paper validates proportional attribution indirectly (§4.3.2:
//! "see §4.3 for validation") because real hardware cannot attribute
//! stalls to pages. The simulator can: with `track_page_stalls` it
//! records exactly how many cycles each page's misses stalled a core.
//! This harness profiles several workloads with PACT's online sampler
//! and reports how well the PAC estimates rank pages against the
//! oracle — Spearman rank correlation and top-k overlap — for both
//! proportional and latency-weighted attribution.

use pact_core::{Attribution, PactConfig, PactPolicy};
use pact_stats::{gini, spearman, top_k_overlap};
use pact_tiersim::Machine;

use super::Rendered;
use crate::{banner, experiment_machine, Lab, Table};

pub(super) fn render(lab: &Lab) -> Rendered {
    let mut out = String::new();
    out.push_str(&banner(
        "Extra: PAC estimates vs ground-truth per-page stalls (simulator oracle)",
    ));
    let mut t = Table::new(vec![
        "workload",
        "attribution",
        "pages",
        "spearman",
        "top-5% overlap",
        "truth gini",
        "pac gini",
    ]);
    for name in ["bc-kron", "gups", "silo", "redis"] {
        for attribution in [Attribution::Proportional, Attribution::LatencyWeighted] {
            let wl = lab.workload(name);
            // Profile on the slow tier only (the motivation setup) with
            // the oracle enabled.
            let mut cfg = experiment_machine(0);
            cfg.pebs.rate = 25;
            cfg.track_page_stalls = true;
            let machine = Machine::new(cfg)?;
            let mut pact = PactPolicy::new(PactConfig {
                attribution,
                ..PactConfig::default()
            })?;
            let report = machine.try_run(wl.as_ref(), &mut pact)?;
            #[expect(
                clippy::expect_used,
                reason = "track_page_stalls was set above, so the report carries the oracle's \
                          per-page stall map"
            )]
            let truth = report.page_stalls.as_ref().expect("oracle enabled");

            // Align: pages the sampler tracked, with both scores.
            let mut est = Vec::new();
            let mut tru = Vec::new();
            for (page, entry) in pact.store().iter() {
                if entry.pac > 0.0 {
                    est.push(entry.pac);
                    // Per-tier blame lanes sum to total criticality.
                    tru.push(truth.get(page).map_or(0, |v| v[0] + v[1]) as f64);
                }
            }
            if est.len() < 16 {
                continue;
            }
            let rho = spearman(&est, &tru).unwrap_or(f64::NAN);
            let k = (est.len() / 20).max(1);
            let overlap = top_k_overlap(&est, &tru, k);
            t.row(vec![
                name.to_string(),
                format!("{attribution:?}"),
                est.len().to_string(),
                format!("{rho:.3}"),
                format!("{:.0}%", overlap * 100.0),
                format!("{:.2}", gini(&tru).unwrap_or(f64::NAN)),
                format!("{:.2}", gini(&est).unwrap_or(f64::NAN)),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nHigh rank correlation means the 4-counter online estimate orders pages\n\
         nearly as the unobservable ground truth does; matching Gini shows PAC\n\
         reproduces the skew the promotion policy is designed around (§3).\n",
    );
    Ok(out)
}
