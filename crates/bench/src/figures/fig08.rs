//! Figure 8 — **adaptive page selection on sssp-kron.**
//!
//! Shows PACT's migration-flow control over time: (a) promotions per
//! window spike early while PAC variance is high, then stabilize into
//! intermittent bursts; (b) the adaptive bin width steps as the PAC
//! distribution spreads. Also checks the headline: PACT performs an
//! order of magnitude fewer migrations than Colloid at lower slowdown
//! (paper: 180K vs 8M, 18% vs 25%).

use super::Rendered;
use crate::{banner, sparkline, Cell, Lab, Table, TierRatio};

pub(super) fn render(lab: &Lab) -> Rendered {
    let ratio = TierRatio::new(1, 1);
    let outs = lab.cells(&["pact", "colloid"].map(|p| Cell::new("sssp-kron", p, ratio)))?;
    let (pact, colloid) = (&outs[0], &outs[1]);

    let promos: Vec<f64> = pact
        .report
        .windows
        .iter()
        .map(|w| w.promotions as f64)
        .collect();
    let widths: Vec<f64> = pact
        .report
        .windows
        .iter()
        .filter_map(|w| {
            w.telemetry
                .iter()
                .find(|(k, _)| *k == "bin_width")
                .map(|&(_, v)| v)
        })
        .collect();

    let mut out = String::new();
    out.push_str(&banner("Figure 8a: PACT promotions over time (sssp-kron)"));
    out.push_str(&format!("windows: {}\n", promos.len()));
    out.push_str(&format!("promos/window  {}\n", sparkline(&promos, 72)));
    let first_quarter: f64 = promos[..promos.len() / 4].iter().sum();
    let total: f64 = promos.iter().sum::<f64>().max(1.0);
    out.push_str(&format!(
        "front-loading: {:.0}% of promotions happen in the first quarter of the run\n",
        first_quarter / total * 100.0
    ));

    // Queue pressure over time: per-window rejected promotions and
    // dropped daemon orders localize when migration demand outran the
    // fast tier or the daemon queue (flat zero lines are the good case).
    let failed: Vec<f64> = pact
        .report
        .windows
        .iter()
        .map(|w| w.failed_promotions as f64)
        .collect();
    let dropped: Vec<f64> = pact
        .report
        .windows
        .iter()
        .map(|w| w.dropped_orders as f64)
        .collect();
    out.push_str(&format!("failed/window  {}\n", sparkline(&failed, 72)));
    out.push_str(&format!(
        "queue pressure: {} failed promotions, {} dropped orders across the run\n",
        crate::count(failed.iter().sum::<f64>() as u64),
        crate::count(dropped.iter().sum::<f64>() as u64),
    ));

    out.push_str(&banner("Figure 8b: adaptive bin width over time"));
    out.push_str(&format!("bin width      {}\n", sparkline(&widths, 72)));
    let mut t = Table::new(vec!["window", "bin width"]);
    let step = (widths.len() / 10).max(1);
    for (i, w) in widths.iter().enumerate().step_by(step) {
        t.row(vec![i.to_string(), format!("{w:.1}")]);
    }
    out.push_str(&t.render());
    let wmin = widths.iter().cloned().fold(f64::INFINITY, f64::min);
    let wmax = widths.iter().cloned().fold(0.0f64, f64::max);
    out.push_str(&format!(
        "bin width range: {wmin:.1} .. {wmax:.1} (adapts to the spreading PAC distribution)\n"
    ));

    out.push_str(&banner("Headline: PACT vs Colloid on sssp-kron @ 1:1"));
    out.push_str(&format!(
        "PACT:    slowdown {}  promotions {}\n\
         Colloid: slowdown {}  promotions {}\n\
         migration ratio: {:.1}x fewer (paper: 180K vs 8M at 18% vs 25%)\n",
        crate::pct(pact.slowdown),
        crate::count(pact.promotions),
        crate::pct(colloid.slowdown),
        crate::count(colloid.promotions),
        colloid.promotions as f64 / pact.promotions.max(1) as f64
    ));
    Ok(out)
}
