//! Figure 11 — **bandwidth contention (MLC co-runner).**
//!
//! Runs bc-kron while colocating an MLC-style bandwidth hog on the fast
//! (local DRAM) node, sweeping 1..8 MLC threads (~8 GB/s each; eight
//! saturate the channel). Slowdowns are normalized to a DRAM-only run
//! under the *same* contention level. Expected shape: PACT sustains
//! performance comparable to or better than Colloid (4 KB) and Memtis
//! (THP) while promoting several times fewer pages.

use pact_tiersim::{FirstTouch, RunSpec, TieringPolicy, Workload, PAGE_BYTES};
use pact_workloads::suite::Scale;
use pact_workloads::Mlc;

use super::{process_cycles, Rendered};
use crate::{banner, count, experiment_machine, make_policy, pct, Lab, Table};

/// Cycles bc-kron ran and base pages promoted.
type Run = Result<(u64, u64), Box<dyn std::error::Error + Send + Sync>>;

/// Runs bc-kron next to `mlc_threads` MLC threads at 1:1 under
/// `policy`, or, for `None`, the DRAM-only reference under the same
/// contention.
fn run(lab: &Lab, mlc_threads: usize, thp: bool, policy: Option<&str>) -> Run {
    let bc = lab.workload("bc-kron");
    let loads = match lab.scale {
        Scale::Smoke => 300_000,
        Scale::Paper => 16_000_000,
    };
    let mlc = Mlc::paper_thread(mlc_threads, loads);
    let bc_pages = bc.footprint_bytes().div_ceil(PAGE_BYTES);
    let mlc_pages = mlc.footprint_bytes().div_ceil(PAGE_BYTES);
    let (fast, mut policy): (_, Box<dyn TieringPolicy>) = match policy {
        None => (u64::MAX / PAGE_BYTES, Box::new(FirstTouch::new())),
        // MLC lives on the local node: its buffers always fit the fast
        // tier.
        Some(name) => (bc_pages / 2 + mlc_pages + 512, make_policy(name)?),
    };
    let mut cfg = experiment_machine(fast);
    cfg.thp = thp;
    let r = lab.run(cfg, RunSpec::new(&[bc.as_ref(), &mlc], policy.as_mut()))?;
    Ok((process_cycles(&r, "bc-kron"), r.promotions))
}

pub(super) fn render(lab: &Lab) -> Rendered {
    let levels = [1usize, 2, 4, 8];
    let systems = [(false, ["pact", "colloid"]), (true, ["pact", "memtis"])];
    // Per (page size, contention level): the DRAM reference, then each
    // policy.
    let runs = crate::run_indexed(systems.len() * levels.len() * 3, lab.jobs(), |i| {
        let (thp, [p0, p1]) = systems[i / (3 * levels.len())];
        let n = levels[i / 3 % levels.len()];
        run(lab, n, thp, [None, Some(p0), Some(p1)][i % 3])
    });
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut runs = runs.chunks(3);
    let mut out = String::new();

    for (thp, policies) in systems {
        let label = if thp { "THP" } else { "4KB" };
        out.push_str(&banner(&format!(
            "Figure 11 ({label}): bc-kron under MLC contention @ 1:1, normalized to contended DRAM"
        )));
        let mut t = Table::new(vec![
            "mlc threads",
            &format!("{} slowdown", policies[0]),
            &format!("{} promos", policies[0]),
            &format!("{} slowdown", policies[1]),
            &format!("{} promos", policies[1]),
            "promo ratio",
        ]);
        for (&n, level) in levels.iter().zip(runs.by_ref()) {
            let [(base, _), (c0, p0), (c1, p1)] = [level[0], level[1], level[2]];
            let slowdown = |cycles: u64| pct(cycles as f64 / base as f64 - 1.0);
            t.row(vec![
                n.to_string(),
                slowdown(c0),
                count(p0),
                slowdown(c1),
                count(p1),
                format!("{:.1}x", p1 as f64 / p0.max(1) as f64),
            ]);
        }
        out.push_str(&t.render());
    }
    out.push_str(
        "\npaper: PACT comparable or better under all contention levels with 3.5-4.7x \
         fewer promotions than Colloid and 2.2x fewer than Memtis (THP).\n",
    );
    Ok(out)
}
