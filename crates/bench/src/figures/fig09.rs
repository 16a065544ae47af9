//! Figure 9 — **PAC-based vs frequency-based promotion inside the PACT
//! framework (§5.6).**
//!
//! Runs the same policy machinery ranked by PAC and by raw access
//! frequency at comparable migration volume, on bc-kron plus the
//! generalization set (bc-urand, sssp-kron, silo). The paper reports an
//! 18% improvement on the featured workload and 12-22% across the
//! others, with PAC front-loading its promotions while the frequency
//! policy oscillates.

use std::sync::Arc;

use super::Rendered;
use crate::{banner, exec, sparkline, Harness, Lab, Outcome, RunError, Table, TierRatio};

/// Runs the PAC-ranked and frequency-ranked variants over one shared
/// workload, fanning the two independent runs over `jobs` workers.
fn pac_vs_freq(
    h: &Harness<'_>,
    ratio: TierRatio,
    jobs: usize,
) -> Result<(Arc<Outcome>, Arc<Outcome>), RunError> {
    // Warm the shared baseline before fanning out.
    h.dram_cycles()?;
    let mut outs = exec::run_indexed(2, jobs, |i| {
        h.run_policy(["pact", "pact-freq"][i], ratio, None)
    })
    .into_iter();
    #[expect(
        clippy::unwrap_used,
        reason = "run_indexed(2, ..) yields exactly two results"
    )]
    Ok((outs.next().unwrap()?, outs.next().unwrap()?))
}

pub(super) fn render(lab: &Lab) -> Rendered {
    let ratio = TierRatio::new(1, 1);
    let mut out = String::new();

    // Featured workload: timeline comparison.
    {
        let h = lab.harness("bc-kron")?;
        let (pac, freq) = pac_vs_freq(&h, ratio, lab.jobs())?;
        let series = |o: &Outcome| -> Vec<f64> {
            o.report
                .windows
                .iter()
                .map(|w| w.promotions as f64)
                .collect()
        };
        out.push_str(&banner("Figure 9: promotion timelines (bc-kron @ 1:1)"));
        out.push_str(&format!("PAC   {}\n", sparkline(&series(&pac), 72)));
        out.push_str(&format!("freq  {}\n", sparkline(&series(&freq), 72)));
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
    for name in ["bc-urand", "sssp-kron", "silo"] {
        eprintln!("[fig09] {name}");
        let h = lab.harness(name)?;
        let (pac, freq) = pac_vs_freq(&h, ratio, lab.jobs())?;
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
