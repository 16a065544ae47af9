//! Figure 5 — **bc-kron under transparent huge pages.**
//!
//! Same sweep as Figure 4 but with THP enabled: allocation and
//! migration happen at huge-page granularity while PEBS still reports
//! 4 KB addresses — PACT detects criticality fine-grained and migrates
//! whole huge pages (§5.2). The huge-page span is scaled with the
//! simulated footprints (see `MachineConfig::thp_unit_pages`). Expected
//! shape: PACT still lowest; Memtis (THP-aware) becomes the strongest
//! baseline.

use super::Rendered;
use crate::{banner, experiment_machine, ratio_sweep, Lab, TierRatio, ALL_POLICIES};

pub(super) fn render(lab: &Lab) -> Rendered {
    let mut cfg = experiment_machine(0);
    cfg.thp = true;
    let h = lab.harness_with("bc-kron", cfg)?;
    let sweep = ratio_sweep(
        &h,
        &ALL_POLICIES,
        &TierRatio::PAPER_SWEEP,
        lab.jobs(),
        lab.trace("fig05").as_ref(),
    )?;

    let mut out = String::new();
    out.push_str(&banner("Figure 5: bc-kron slowdown vs DRAM (THP)"));
    out.push_str(&sweep.render_slowdowns());
    out.push_str(&banner("Figure 5: promotions under THP (base pages)"));
    out.push_str(&sweep.render_promotions());

    #[expect(
        clippy::unwrap_used,
        reason = "the sweep above runs ALL_POLICIES, so every looked-up name is present"
    )]
    let idx = |name: &str| sweep.policies.iter().position(|p| p == name).unwrap();
    let (pact, memtis) = (idx("pact"), idx("memtis"));
    let gaps: Vec<f64> = (0..sweep.ratios.len())
        .map(|r| sweep.slowdown[memtis][r] - sweep.slowdown[pact][r])
        .collect();
    out.push_str(&format!(
        "\nMemtis-minus-PACT slowdown gap across ratios: {:+.1}pp .. {:+.1}pp \
         (paper: Memtis is the best THP baseline yet lags PACT by 1-19%)\n",
        gaps.iter().cloned().fold(f64::INFINITY, f64::min) * 100.0,
        gaps.iter().cloned().fold(f64::NEG_INFINITY, f64::max) * 100.0,
    ));
    Ok(out)
}
