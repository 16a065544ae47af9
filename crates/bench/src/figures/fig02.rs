//! Figure 2 — **PAC modeling: per-tier stalls from LLC misses and MLP.**
//!
//! Runs the 96-workload synthetic sweep on three memory configurations
//! (local DRAM 90 ns, NUMA 140 ns, emulated CXL 190 ns; each run places
//! all pages on the tier under study). For each workload the harness
//! records measured LLC stalls, raw LLC misses, and the Equation-1
//! predictor `misses / MLP` (MLP from TOR occupancy counters), then
//! reports Pearson correlations and the fitted per-tier coefficient
//! `k`. The paper's result: r > 0.98 for the MLP model vs 0.82–0.89 for
//! raw misses.

use pact_stats::{linear_fit, pearson};
use pact_tiersim::{FirstTouch, MachineConfig, RunSpec, Tier, TierConfig, PAGE_BYTES};
use pact_workloads::suite::Scale;
use pact_workloads::Phased;

use super::Rendered;
use crate::{banner, Lab, Table};

pub(super) fn render(lab: &Lab) -> Rendered {
    let (buffer, loads) = match lab.scale {
        Scale::Smoke => (1 << 21, 30_000),
        Scale::Paper => (16 << 20, 400_000),
    };
    let configs: [(&str, TierConfig, Tier); 3] = [
        ("local-DRAM 90ns", TierConfig::LOCAL_DRAM, Tier::Fast),
        ("NUMA 140ns", TierConfig::REMOTE_NUMA, Tier::Slow),
        ("CXL 190ns", TierConfig::EMULATED_CXL, Tier::Slow),
    ];
    let mut out = String::new();
    let mut summary = Table::new(vec![
        "config",
        "r(misses,stalls)",
        "r(misses/MLP,stalls)",
        "fitted k (cycles)",
        "unloaded latency",
    ]);
    for (label, tier_cfg, tier) in configs {
        let mut misses = Vec::new();
        let mut predictor = Vec::new();
        let mut stalls = Vec::new();
        for variant in 0..96 {
            let wl = Phased::sweep_variant(variant, buffer, loads, lab.seed);
            let mut cfg = match tier {
                // DRAM study: everything in the fast tier.
                Tier::Fast => MachineConfig::skylake_cxl(u64::MAX / PAGE_BYTES),
                // NUMA/CXL study: everything in the slow tier.
                Tier::Slow => MachineConfig::skylake_cxl(0),
            };
            cfg.tiers[tier.index()] = tier_cfg;
            let r = lab.run(cfg, RunSpec::new(&[&wl], &mut FirstTouch::new()))?;
            let c = &r.counters;
            let m = c.llc_misses[tier.index()] as f64;
            let mlp = c.tor_mlp(tier);
            misses.push(m);
            predictor.push(m / mlp);
            stalls.push(c.llc_stalls[tier.index()] as f64);
        }
        let r_raw = pearson(&misses, &stalls).unwrap_or(f64::NAN);
        let r_model = pearson(&predictor, &stalls).unwrap_or(f64::NAN);
        #[expect(
            clippy::unwrap_used,
            reason = "96 variants were pushed above, so the fit has more than the two points \
                      linear_fit requires"
        )]
        let fit = linear_fit(&predictor, &stalls).unwrap();
        let unloaded = tier_cfg.latency_cycles(2.2);
        summary.row(vec![
            label.to_string(),
            format!("{r_raw:.3}"),
            format!("{r_model:.3}"),
            format!("{:.0}", fit.slope),
            format!("{unloaded}"),
        ]);
        out.push_str(&banner(&format!("Figure 2 ({label}): 96-workload scatter")));
        out.push_str("variant\tmisses\tmisses/MLP\tstalls\n");
        for i in (0..96).step_by(8) {
            out.push_str(&format!(
                "{i}\t{:.0}\t{:.0}\t{:.0}\n",
                misses[i], predictor[i], stalls[i]
            ));
        }
    }
    out.push_str(&banner("Figure 2 summary: per-tier stall model quality"));
    out.push_str(&summary.render());
    out.push_str(
        "\npaper: model r = 0.98 on all three configs; raw misses r = 0.82-0.89;\n\
         k tracks the tier's loaded latency.\n",
    );
    Ok(out)
}
