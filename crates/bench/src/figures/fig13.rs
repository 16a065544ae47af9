//! Figure 13 — **Redis/YCSB-C breakdown of PACT's binning techniques.**
//!
//! Ablates the promotion machinery on the Redis workload at 1:1:
//! "+Static" (fixed bin width), "+Adaptive" (Freedman–Diaconis), and
//! "+Both" (F-D plus the scaling optimization), against Colloid.
//! Reports throughput, mean per-access latency, and a p99 tail proxy
//! (the worst per-window cycles-per-access). The paper shows "+Both"
//! beating Colloid by up to 40% in latency and throughput with lower
//! tail latency.

use pact_core::BinningMode;

use super::{pact, Rendered};
use crate::{banner, count, experiment_machine, Cell, Lab, Outcome, Table, TierRatio};

struct Row {
    name: &'static str,
    throughput: f64,
    mean_lat: f64,
    p99_lat: f64,
    promotions: u64,
}

fn metrics(name: &'static str, out: &Outcome) -> Row {
    let r = &out.report;
    let span = experiment_machine(0).window_cycles as f64;
    let throughput = r.counters.accesses as f64 / r.total_cycles as f64;
    let mean_lat = r.total_cycles as f64 / r.counters.accesses.max(1) as f64;
    // Tail proxy: per-window cycles-per-access, 99th percentile.
    let mut per_window: Vec<f64> = r
        .windows
        .iter()
        .filter(|w| w.delta.accesses > 500)
        .map(|w| span / w.delta.accesses as f64)
        .collect();
    #[expect(
        clippy::unwrap_used,
        reason = "each entry is span / accesses with accesses > 500, never NaN, so the total \
                  order exists"
    )]
    per_window.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = per_window
        .get(per_window.len().saturating_sub(1) * 99 / 100)
        .copied()
        .unwrap_or(mean_lat);
    Row {
        name,
        throughput,
        mean_lat,
        p99_lat: p99,
        promotions: out.promotions,
    }
}

pub(super) fn render(lab: &Lab) -> Rendered {
    let ratio = TierRatio::new(1, 1);
    let modes = [
        ("pact+static", BinningMode::Static),
        ("pact+adaptive", BinningMode::Adaptive),
        ("pact+both", BinningMode::AdaptiveScaled),
    ];
    let mut cells = vec![Cell::new("redis", "colloid", ratio)];
    cells.extend(modes.map(|(_, m)| Cell::new("redis", pact(|c| c.binning = m), ratio)));
    let names = std::iter::once("colloid").chain(modes.map(|(name, _)| name));
    let outs = lab.cells(&cells)?;
    let rows: Vec<Row> = names.zip(&outs).map(|(n, o)| metrics(n, o)).collect();

    let base = rows[0].throughput;
    let base_lat = rows[0].mean_lat;
    let mut out = String::new();
    out.push_str(&banner(
        "Figure 13: Redis YCSB-C @ 1:1 — binning breakdown vs Colloid",
    ));
    let mut t = Table::new(vec![
        "system",
        "throughput (acc/cyc)",
        "vs colloid",
        "mean lat (cyc/acc)",
        "p99 lat proxy",
        "promotions",
    ]);
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.4}", r.throughput),
            format!("{:+.1}%", (r.throughput / base - 1.0) * 100.0),
            format!("{:.1}", r.mean_lat),
            format!("{:.1}", r.p99_lat),
            count(r.promotions),
        ]);
    }
    out.push_str(&t.render());
    #[expect(
        clippy::unwrap_used,
        reason = "rows was filled by the fixed list above; \"pact+both\" is last"
    )]
    let both = rows.last().unwrap();
    out.push_str(&format!(
        "\n+Both vs Colloid: throughput {:+.1}%, mean latency {:+.1}% \
         (paper: up to 40% better in both, with reduced tail latency)\n",
        (both.throughput / base - 1.0) * 100.0,
        (1.0 - both.mean_lat / base_lat) * 100.0,
    ));
    Ok(out)
}
