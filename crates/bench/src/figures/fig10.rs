//! Figure 10 — **PACT sensitivity analysis.**
//!
//! Sweeps (a) the PEBS sampling period, (b) the PAC sampling period,
//! and (c) the cooling factor, on bc-kron (with the cooling comparison
//! extended to sssp-kron and redis as in the paper's cross-workload
//! robustness check). Expected: denser PEBS sampling helps mildly;
//! longer PAC periods increase both promotions and slowdown; cooling
//! rarely helps over pure accumulation (α = 1).

use pact_core::Cooling;

use super::{pact, Rendered};
use crate::{banner, experiment_machine, Cell, Lab, Table, TierRatio};

pub(super) fn render(lab: &Lab) -> Rendered {
    let ratio = TierRatio::new(1, 1);
    let mut out = String::new();

    // (a) PEBS sampling rate. The paper sweeps 800..4000 around a
    // default of 400 on billion-miss runs; scaled to our miss volume
    // the default is 50, swept proportionally.
    {
        let mut t = Table::new(vec!["pebs rate (1-in-N)", "slowdown", "promotions"]);
        let rates = [25u64, 50, 100, 200, 400];
        let cells = rates.map(|rate| {
            let mut machine = experiment_machine(0);
            machine.pebs.rate = rate;
            Cell::new("bc-kron", "pact", ratio).on(machine)
        });
        for (rate, o) in rates.iter().zip(lab.cells(&cells)?) {
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
        let periods = [1u32, 2, 4, 8, 16, 32];
        let cells = periods.map(|n| Cell::new("bc-kron", pact(|c| c.period_windows = n), ratio));
        for (period, o) in periods.iter().zip(lab.cells(&cells)?) {
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
        let workloads = ["bc-kron", "sssp-kron", "redis"];
        let coolings = [Cooling::None, Cooling::Halve, Cooling::Reset];
        let cells =
            workloads.map(|w| coolings.map(|k| Cell::new(w, pact(|c| c.cooling = k), ratio)));
        let outs = lab.cells(&cells.concat())?;
        for (name, row) in workloads.iter().zip(outs.chunks(coolings.len())) {
            let mut line = vec![name.to_string()];
            line.extend(row.iter().map(|o| crate::pct(o.slowdown)));
            t.row(line);
        }
        out.push_str(&banner(
            "Figure 10c: cooling factor (paper: cooling rarely beats pure accumulation)",
        ));
        out.push_str(&t.render());
    }
    Ok(out)
}
