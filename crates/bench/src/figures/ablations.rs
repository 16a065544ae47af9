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

use super::{pact, Rendered};
use crate::{banner, count, experiment_machine, pct, Cell, Lab, Table, TierRatio};

pub(super) fn render(lab: &Lab) -> Rendered {
    let ratio = TierRatio::new(1, 2);
    let mut out = String::new();
    let bc = |cfg: PactConfig| Cell::new("bc-kron", cfg, ratio);

    // --- m sweep -------------------------------------------------------
    {
        let mut t = Table::new(vec!["m (units)", "slowdown", "promotions", "demotions"]);
        let margins = [0u64, 8, 32, 128];
        let cells = margins.map(|m| bc(pact(|c| c.eager_demotion_margin = m)));
        for (m, o) in margins.iter().zip(lab.cells(&cells)?) {
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
        let sizes = [25usize, 50, 100, 400, 1600];
        let cells = sizes.map(|size| bc(pact(|c| c.reservoir = size)));
        for (size, o) in sizes.iter().zip(lab.cells(&cells)?) {
            t.row(vec![size.to_string(), pct(o.slowdown), count(o.promotions)]);
        }
        out.push_str(&banner("Ablation: reservoir size (paper default: 100)"));
        out.push_str(&t.render());
    }

    // --- T_scale ---------------------------------------------------------
    {
        let mut t = Table::new(vec!["t_scale", "slowdown", "promotions"]);
        let targets = [25.0f64, 50.0, 100.0, 400.0];
        let cells = targets.map(|ts| bc(pact(|c| c.t_scale = ts)));
        for (ts, o) in targets.iter().zip(lab.cells(&cells)?) {
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
        let workloads = ["bc-kron", "silo", "redis"];
        let schemes = [Attribution::Proportional, Attribution::LatencyWeighted];
        let cells =
            workloads.map(|w| schemes.map(|a| Cell::new(w, pact(|c| c.attribution = a), ratio)));
        let outs = lab.cells(&cells.concat())?;
        for (name, row) in workloads.iter().zip(outs.chunks(schemes.len())) {
            let mut line = vec![name.to_string()];
            line.extend(row.iter().map(|o| pct(o.slowdown)));
            t.row(line);
        }
        out.push_str(&banner(
            "Ablation: stall attribution (§4.3.7's latency-weighted extension)",
        ));
        out.push_str(&t.render());
    }

    // --- sampling source: PEBS vs CHMU ------------------------------------
    {
        let mut t = Table::new(vec!["source", "slowdown", "promotions", "tracked obs"]);
        let sources = [
            ("pebs", SamplingSource::Pebs, 0usize),
            ("chmu-512", SamplingSource::Chmu, 512),
            ("chmu-4096", SamplingSource::Chmu, 4_096),
        ];
        let cells = sources.map(|(_, sampling, chmu)| {
            let mut machine = experiment_machine(0);
            machine.chmu_counters = chmu;
            bc(pact(|c| c.sampling = sampling)).on(machine)
        });
        for ((label, ..), o) in sources.iter().zip(lab.cells(&cells)?) {
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
        let mshr_counts = [1usize, 2, 4, 10, 16];
        let wl = pact_workloads::Phased::sweep_variant(0, 8 << 20, 200_000, lab.seed);
        let runs = crate::run_indexed(mshr_counts.len(), lab.jobs(), |i| {
            let mut cfg = experiment_machine(0);
            cfg.mshrs = mshr_counts[i];
            cfg.prefetch.enabled = false;
            lab.run(cfg, RunSpec::new(&[&wl], &mut FirstTouch::new()))
        });
        for (mshrs, r) in mshr_counts.iter().zip(runs) {
            let r = r?;
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
