//! Figure 9 — **PAC-based vs frequency-based promotion inside the PACT
//! framework (§5.6).**
//!
//! Runs the same policy machinery ranked by PAC and by raw access
//! frequency at comparable migration volume, on bc-kron plus the
//! generalization set (bc-urand, sssp-kron, silo). The paper reports an
//! 18% improvement on the featured workload and 12-22% across the
//! others, with PAC front-loading its promotions while the frequency
//! policy oscillates.

use super::Rendered;
use crate::{banner, sparkline, Cell, Lab, Outcome, Table, TierRatio};

pub(super) fn render(lab: &Lab) -> Rendered {
    let ratio = TierRatio::new(1, 1);
    let workloads = ["bc-kron", "bc-urand", "sssp-kron", "silo"];
    // Per workload: PAC-ranked, then frequency-ranked PACT.
    let cells: Vec<Cell> = workloads
        .iter()
        .flat_map(|&name| ["pact", "pact-freq"].map(|p| Cell::new(name, p, ratio)))
        .collect();
    let outs = lab.cells(&cells)?;
    let mut out = String::new();

    // Featured workload: timeline comparison.
    {
        let (pac, freq) = (&outs[0], &outs[1]);
        let series = |o: &Outcome| -> Vec<f64> {
            o.report
                .windows
                .iter()
                .map(|w| w.promotions as f64)
                .collect()
        };
        out.push_str(&banner("Figure 9: promotion timelines (bc-kron @ 1:1)"));
        out.push_str(&format!("PAC   {}\n", sparkline(&series(pac), 72)));
        out.push_str(&format!("freq  {}\n", sparkline(&series(freq), 72)));
        out.push_str(&format!(
            "PAC:  slowdown {} promotions {}\nfreq: slowdown {} promotions {}\n",
            crate::pct(pac.slowdown),
            crate::count(pac.promotions),
            crate::pct(freq.slowdown),
            crate::count(freq.promotions),
        ));
        let dram = 1.0;
        let improvement = (freq.slowdown + dram - (pac.slowdown + dram)) / (freq.slowdown + dram);
        out.push_str(&format!(
            "runtime improvement of PAC over frequency: {:+.1}% (paper: ~18%)\n",
            improvement * 100.0
        ));
    }

    // Generalization across workloads (paper: 12-22%).
    out.push_str(&banner("PAC vs frequency across workloads @ 1:1"));
    let mut t = Table::new(vec![
        "workload",
        "PAC slowdown",
        "freq slowdown",
        "PAC promos",
        "freq promos",
        "improvement",
    ]);
    for (name, pair) in workloads.iter().zip(outs.chunks(2)).skip(1) {
        let (pac, freq) = (&pair[0], &pair[1]);
        let improvement = (freq.report.total_cycles as f64 - pac.report.total_cycles as f64)
            / freq.report.total_cycles as f64;
        t.row(vec![
            name.to_string(),
            crate::pct(pac.slowdown),
            crate::pct(freq.slowdown),
            crate::count(pac.promotions),
            crate::count(freq.promotions),
            format!("{:+.1}%", improvement * 100.0),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}
