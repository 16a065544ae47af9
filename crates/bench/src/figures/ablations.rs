//! Ablations beyond the paper's figures: the design choices DESIGN.md
//! calls out, each isolated on bc-kron @ 1:2 (a pressured but not
//! degenerate ratio).
//!
//! * eager-demotion margin `m` (Algorithm 2's aggressiveness knob);
//! * reservoir size (Algorithm 3's sample buffer);
//! * `T_scale` (the scaling optimization's candidate-ratio target);
//! * attribution scheme: proportional vs latency-weighted (§4.3.7);
//! * sampling source: PEBS vs the CXL 3.2 CHMU (§4.3.5);
//! * MSHR count: validates that Equation 1's MLP amortization is an
//!   emergent property of the substrate, not a tuned constant.

use pact_core::{Attribution, PactConfig, SamplingSource};
use pact_tiersim::{FirstTouch, RunSpec, Tier};

use super::Rendered;
use crate::{banner, count, experiment_machine, pct, Cell, Lab, Table, TierRatio};

pub(super) fn render(lab: &Lab) -> Rendered {
    let ratio = TierRatio::new(1, 2);
    let mut out = String::new();
    let bc = |cfg| lab.cell(&Cell::new("bc-kron", cfg, ratio), None);

    // --- m sweep -------------------------------------------------------
    {
        let mut t = Table::new(vec!["m (units)", "slowdown", "promotions", "demotions"]);
        for m in [0u64, 8, 32, 128] {
            let cfg = PactConfig {
                eager_demotion_margin: m,
                ..PactConfig::default()
            };
            let o = bc(cfg)?;
            t.row(vec![
                m.to_string(),
                pct(o.slowdown),
                count(o.promotions),
                count(o.demotions),
            ]);
        }
        out.push_str(&banner("Ablation: eager-demotion margin m (bc-kron @ 1:2)"));
        out.push_str(&t.render());
        out.push_str("larger m trades extra demotions for promotion headroom (§4.4.1).\n");
    }

    // --- reservoir size -------------------------------------------------
    {
        let mut t = Table::new(vec!["reservoir", "slowdown", "promotions"]);
        for size in [25usize, 50, 100, 400, 1600] {
            let cfg = PactConfig {
                reservoir: size,
                ..PactConfig::default()
            };
            let o = bc(cfg)?;
            t.row(vec![size.to_string(), pct(o.slowdown), count(o.promotions)]);
        }
        out.push_str(&banner("Ablation: reservoir size (paper default: 100)"));
        out.push_str(&t.render());
    }

    // --- T_scale ---------------------------------------------------------
    {
        let mut t = Table::new(vec!["t_scale", "slowdown", "promotions"]);
        for ts in [25.0f64, 50.0, 100.0, 400.0] {
            let cfg = PactConfig {
                t_scale: ts,
                ..PactConfig::default()
            };
            let o = bc(cfg)?;
            t.row(vec![
                format!("{ts:.0}"),
                pct(o.slowdown),
                count(o.promotions),
            ]);
        }
        out.push_str(&banner("Ablation: scaling target T_scale"));
        out.push_str(&t.render());
    }

    // --- attribution scheme ---------------------------------------------
    {
        let mut t = Table::new(vec!["workload", "proportional", "latency-weighted"]);
        for name in ["bc-kron", "silo", "redis"] {
            eprintln!("[ablations] attribution on {name}");
            let mut cells = vec![name.to_string()];
            for attribution in [Attribution::Proportional, Attribution::LatencyWeighted] {
                let cfg = PactConfig {
                    attribution,
                    ..PactConfig::default()
                };
                cells.push(pct(lab.cell(&Cell::new(name, cfg, ratio), None)?.slowdown));
            }
            t.row(cells);
        }
        out.push_str(&banner(
            "Ablation: stall attribution (§4.3.7's latency-weighted extension)",
        ));
        out.push_str(&t.render());
    }

    // --- sampling source: PEBS vs CHMU ------------------------------------
    {
        let mut t = Table::new(vec!["source", "slowdown", "promotions", "tracked obs"]);
        for (label, sampling, chmu) in [
            ("pebs", SamplingSource::Pebs, 0usize),
            ("chmu-512", SamplingSource::Chmu, 512),
            ("chmu-4096", SamplingSource::Chmu, 4_096),
        ] {
            let mut machine = experiment_machine(0);
            machine.chmu_counters = chmu;
            let cfg = PactConfig {
                sampling,
                ..PactConfig::default()
            };
            let cell = Cell::new("bc-kron", cfg, ratio).on(machine);
            let o = lab.cell(&cell, None)?;
            let samples = o.pac_samples.ok_or("a PACT cell reports its samples")?;
            t.row(vec![
                label.to_string(),
                pct(o.slowdown),
                count(o.promotions),
                count(samples),
            ]);
        }
        out.push_str(&banner(
            "Ablation: PEBS sampling vs CXL-3.2 CHMU device counters (§4.3.5)",
        ));
        out.push_str(&t.render());
    }

    // --- MSHR sweep: Equation 1 is emergent -------------------------------
    {
        let mut t = Table::new(vec!["MSHRs", "measured slow MLP", "stall/miss (cycles)"]);
        for mshrs in [1usize, 2, 4, 10, 16] {
            let mut cfg = experiment_machine(0);
            cfg.mshrs = mshrs;
            cfg.prefetch.enabled = false;
            let wl = pact_workloads::Phased::sweep_variant(0, 8 << 20, 200_000, lab.seed);
            let r = lab.run(cfg, RunSpec::new(&[&wl], &mut FirstTouch::new()))?;
            let mlp = r.counters.tor_mlp(Tier::Slow);
            let spm = r.counters.llc_stalls[1] as f64 / r.counters.llc_misses[1].max(1) as f64;
            t.row(vec![
                mshrs.to_string(),
                format!("{mlp:.1}"),
                format!("{spm:.0}"),
            ]);
        }
        out.push_str(&banner(
            "Ablation: MSHR count — per-miss stall tracks latency/MLP (Equation 1 is emergent)",
        ));
        out.push_str(&t.render());
        out.push_str("expected: stall/miss ~ 418/MLP as MSHRs grow.\n");
    }
    Ok(out)
}
