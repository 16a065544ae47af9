//! Figure 3 — **Per-tier MLP from TOR occupancy.**
//!
//! Runs a phase-alternating workload (streaming ↔ pointer chasing) on
//! the slow tier and logs three per-window MLP series: (a) TOR-MLP
//! (`ΔT1/ΔT2`, the paper's counter-based per-tier metric), (b) the
//! system-wide offcore MLP (the `L2MLP`-style reference), and (c) the
//! Little's-law estimate `bandwidth × latency / 64B` (the AMD
//! portability path — overestimates because it counts prefetch bytes).
//! Checks: TOR-MLP tracks the system metric; MLP is stable within
//! phases and shifts across them.

use pact_stats::pearson;
use pact_tiersim::{FirstTouch, MachineConfig, RunSpec, Tier};
use pact_workloads::suite::Scale;
use pact_workloads::Phased;

use super::Rendered;
use crate::{banner, sparkline, Lab, Table};

pub(super) fn render(lab: &Lab) -> Rendered {
    let (buffer, loads, pairs) = match lab.scale {
        Scale::Smoke => (1 << 21, 40_000, 4),
        Scale::Paper => (16 << 20, 400_000, 10),
    };
    let wl = Phased::mlp_phases(buffer, loads, pairs, lab.seed);
    let cfg = MachineConfig::skylake_cxl(0); // everything on the slow tier
    let window_cycles = cfg.window_cycles;
    let report = lab.run(cfg, RunSpec::new(&[&wl], &mut FirstTouch::new()))?;

    let mut tor = Vec::new();
    let mut system = Vec::new();
    let mut littles = Vec::new();
    for w in &report.windows {
        let d = &w.delta;
        if d.llc_misses[1] < 50 {
            continue; // idle window
        }
        tor.push(d.tor_mlp(Tier::Slow));
        let occ = d.tor_occupancy[0] + d.tor_occupancy[1];
        let busy = (d.tor_busy[0] + d.tor_busy[1]).max(1);
        system.push((occ as f64 / busy as f64).max(1.0));
        littles.push(d.littles_law_mlp(Tier::Slow, window_cycles));
    }
    let mut out = String::new();
    out.push_str(&banner(
        "Figure 3a: TOR-MLP vs system-wide MLP (per window)",
    ));
    out.push_str(&format!("windows: {}\n", tor.len()));
    out.push_str(&format!("TOR-MLP   {}\n", sparkline(&tor, 72)));
    out.push_str(&format!("sys-MLP   {}\n", sparkline(&system, 72)));
    out.push_str(&format!("littles   {}\n", sparkline(&littles, 72)));
    let r = pearson(&tor, &system).unwrap_or(f64::NAN);
    let rl = pearson(&tor, &littles).unwrap_or(f64::NAN);
    out.push_str(&format!(
        "corr(TOR, system) = {r:.3} (paper: TOR-MLP closely matches L2MLP)\n\
         corr(TOR, littles-law) = {rl:.3}; littles-law mean {:.1} vs TOR mean {:.1} \
         (overestimates: includes prefetch bytes)\n",
        littles.iter().sum::<f64>() / littles.len().max(1) as f64,
        tor.iter().sum::<f64>() / tor.len().max(1) as f64,
    ));

    // Figure 3b: phase stability — MLP variance within short windows vs
    // across phases.
    out.push_str(&banner("Figure 3b: MLP phase stability"));
    let mut t = Table::new(vec!["window-range", "mean MLP", "stddev"]);
    let chunk = (tor.len() / 8).max(1);
    for (i, c) in tor.chunks(chunk).enumerate() {
        let mean = c.iter().sum::<f64>() / c.len() as f64;
        let var = c.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / c.len() as f64;
        t.row(vec![
            format!("{}..{}", i * chunk, i * chunk + c.len()),
            format!("{mean:.2}"),
            format!("{:.2}", var.sqrt()),
        ]);
    }
    out.push_str(&t.render());
    // Within-phase variation should be small relative to the cross-phase
    // swing (streaming MLP ~MSHRs, chase MLP ~1).
    let global_min = tor.iter().cloned().fold(f64::INFINITY, f64::min);
    let global_max = tor.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    out.push_str(&format!(
        "cross-phase MLP swing: {global_min:.1} .. {global_max:.1} \
         (phases shift at coarse timescales; windows within a phase are stable)\n"
    ));
    Ok(out)
}
