//! Figure 10 — **PACT sensitivity analysis.**
//!
//! Sweeps (a) the PEBS sampling period, (b) the PAC sampling period,
//! and (c) the cooling factor, on bc-kron (with the cooling comparison
//! extended to sssp-kron and redis as in the paper's cross-workload
//! robustness check). Expected: denser PEBS sampling helps mildly;
//! longer PAC periods increase both promotions and slowdown; cooling
//! rarely helps over pure accumulation (α = 1).

use pact_core::{Cooling, PactConfig};

use super::Rendered;
use crate::{banner, experiment_machine, Cell, Lab, Table, TierRatio};

pub(super) fn render(lab: &Lab) -> Rendered {
    let ratio = TierRatio::new(1, 1);
    let mut out = String::new();

    // (a) PEBS sampling rate. The paper sweeps 800..4000 around a
    // default of 400 on billion-miss runs; scaled to our miss volume
    // the default is 50, swept proportionally.
    {
        let mut t = Table::new(vec!["pebs rate (1-in-N)", "slowdown", "promotions"]);
        for rate in [25u64, 50, 100, 200, 400] {
            let mut machine = experiment_machine(0);
            machine.pebs.rate = rate;
            let cell = Cell::new("bc-kron", "pact", ratio).on(machine);
            let o = lab.cell(&cell, None)?;
            t.row(vec![
                rate.to_string(),
                crate::pct(o.slowdown),
                crate::count(o.promotions),
            ]);
        }
        out.push_str(&banner(
            "Figure 10a: PEBS sampling rate (bc-kron @ 1:1; paper: 23%->30% from 800 to 4000)",
        ));
        out.push_str(&t.render());
    }

    // (b) PAC sampling period, in machine windows (the paper's default
    // 20 ms corresponds to one window; it sweeps 10 ms .. 1000 ms).
    {
        let mut t = Table::new(vec!["period (windows)", "slowdown", "promotions"]);
        for period in [1u32, 2, 4, 8, 16, 32] {
            let cfg = PactConfig {
                period_windows: period,
                ..PactConfig::default()
            };
            let o = lab.cell(&Cell::new("bc-kron", cfg, ratio), None)?;
            t.row(vec![
                period.to_string(),
                crate::pct(o.slowdown),
                crate::count(o.promotions),
            ]);
        }
        out.push_str(&banner(
            "Figure 10b: PAC sampling period (paper: 20%->27% slowdown, 800K->1.7M promos from 20ms to 1s)",
        ));
        out.push_str(&t.render());
    }

    // (c) Cooling: none (α=1, default) vs halve (α=0.5) vs reset (α=0),
    // across three workloads.
    {
        let mut t = Table::new(vec!["workload", "no cooling", "halve", "reset"]);
        for name in ["bc-kron", "sssp-kron", "redis"] {
            eprintln!("[fig10c] {name}");
            let mut cells = vec![name.to_string()];
            for cooling in [Cooling::None, Cooling::Halve, Cooling::Reset] {
                let cfg = PactConfig {
                    cooling,
                    ..PactConfig::default()
                };
                let o = lab.cell(&Cell::new(name, cfg, ratio), None)?;
                cells.push(crate::pct(o.slowdown));
            }
            t.row(cells);
        }
        out.push_str(&banner(
            "Figure 10c: cooling factor (paper: cooling rarely beats pure accumulation)",
        ));
        out.push_str(&t.render());
    }
    Ok(out)
}
