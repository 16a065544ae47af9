//! Figure 7 — **CDF of PACT's improvement over the strongest baselines.**
//!
//! Runs the 12-workload suite at the 1:2 and 2:1 ratios against
//! Colloid, NBT, and Memtis, and reports the distribution of PACT's
//! runtime improvement over each: `(T_base - T_pact) / T_base`. The
//! paper reports averages of 9.95% (1:2) and 10.66% (2:1) with peaks of
//! 57% and 61%.

use pact_workloads::suite::SUITE;

use super::Rendered;
use crate::{banner, cdf_lines, Lab, Table, TierRatio};

pub(super) fn render(lab: &Lab) -> Rendered {
    let baselines = ["colloid", "nbt", "memtis"];
    let ratios = [TierRatio::new(1, 2), TierRatio::new(2, 1)];
    let mut out = String::new();
    let mut all_improvements: Vec<(TierRatio, Vec<f64>)> = Vec::new();

    for ratio in ratios {
        let mut per_baseline: Vec<Vec<f64>> = vec![Vec::new(); baselines.len()];
        let mut t = Table::new(vec!["workload", "vs colloid", "vs nbt", "vs memtis"]);
        for name in SUITE {
            eprintln!("[fig07] {name} @ {ratio}");
            let h = lab.harness(name)?;
            let cycles = |policy: &str| -> Result<f64, crate::RunError> {
                Ok(h.run_policy(policy, ratio)?.report.total_cycles as f64)
            };
            let pact_cycles = cycles("pact")?;
            let mut cells = vec![name.to_string()];
            for (bi, b) in baselines.iter().enumerate() {
                let base_cycles = cycles(b)?;
                let improvement = (base_cycles - pact_cycles) / base_cycles;
                per_baseline[bi].push(improvement);
                cells.push(format!("{:+.1}%", improvement * 100.0));
            }
            t.row(cells);
        }
        out.push_str(&banner(&format!(
            "Figure 7 @ {ratio}: PACT runtime improvement per workload"
        )));
        out.push_str(&t.render());
        let mut pooled: Vec<f64> = per_baseline.iter().flatten().copied().collect();
        for (bi, b) in baselines.iter().enumerate() {
            let v = &per_baseline[bi];
            let avg = v.iter().sum::<f64>() / v.len() as f64;
            let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            out.push_str(&format!(
                "vs {b:8}: avg {:+.1}%  max {:+.1}%\n",
                avg * 100.0,
                max * 100.0
            ));
        }
        #[expect(
            clippy::unwrap_used,
            reason = "improvements are ratios of positive cycle counts, never NaN, so the total \
                      order exists"
        )]
        pooled.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let avg = pooled.iter().sum::<f64>() / pooled.len() as f64;
        #[expect(
            clippy::unwrap_used,
            reason = "pooled holds one entry per (workload, baseline) pair, and SUITE and \
                      baselines are non-empty"
        )]
        let max = pooled.last().unwrap();
        out.push_str(&format!(
            "pooled: avg {:+.1}%  max {:+.1}%  (paper: ~10% avg, 57-61% peak)\n",
            avg * 100.0,
            max * 100.0
        ));
        out.push_str(&format!(
            "CDF (improvement -> cumulative fraction):\n{}",
            cdf_lines(&pooled, 10)
        ));
        all_improvements.push((ratio, pooled));
    }
    // Consistency across tier asymmetries (Figure 7a's point).
    let medians: Vec<f64> = all_improvements
        .iter()
        .map(|(_, v)| v[v.len() / 2])
        .collect();
    out.push_str(&format!(
        "\nmedian improvement at 1:2 vs 2:1: {:+.1}% vs {:+.1}% \
         (similar distributions across asymmetries)\n",
        medians[0] * 100.0,
        medians[1] * 100.0
    ));
    Ok(out)
}
