//! Figure 11 — **bandwidth contention (MLC co-runner).**
//!
//! Runs bc-kron while colocating an MLC-style bandwidth hog on the fast
//! (local DRAM) node, sweeping 1..8 MLC threads (~8 GB/s each; eight
//! saturate the channel). Slowdowns are normalized to a DRAM-only run
//! under the *same* contention level. Expected shape: PACT sustains
//! performance comparable to or better than Colloid (4 KB) and Memtis
//! (THP) while promoting several times fewer pages.

use pact_tiersim::{FirstTouch, Machine, RunSpec, Workload, PAGE_BYTES};
use pact_workloads::suite::Scale;
use pact_workloads::Mlc;

use super::Rendered;
use crate::{banner, count, experiment_machine, make_policy, pct, Lab, Table};

type Level = Result<(f64, u64), Box<dyn std::error::Error + Send + Sync>>;

fn run_level(
    lab: &Lab,
    mlc_threads: usize,
    thp: bool,
    policy_name: &str,
    fast_ratio_of_bc: (u64, u64),
) -> Level {
    let bc = lab.workload("bc-kron");
    let loads = match lab.scale() {
        Scale::Smoke => 300_000,
        Scale::Paper => 16_000_000,
    };
    let mlc = Mlc::paper_thread(mlc_threads, loads);
    let bc_pages = bc.footprint_bytes().div_ceil(PAGE_BYTES);
    let mlc_pages = mlc.footprint_bytes().div_ceil(PAGE_BYTES);
    // MLC lives on the local node: its buffers always fit the fast tier.
    let fast =
        bc_pages * fast_ratio_of_bc.0 / (fast_ratio_of_bc.0 + fast_ratio_of_bc.1) + mlc_pages + 512;

    // DRAM-only reference under identical contention.
    let mut dram_cfg = experiment_machine(u64::MAX / PAGE_BYTES);
    dram_cfg.thp = thp;
    let dram = Machine::new(dram_cfg)?;
    let base = dram.run(RunSpec::new(&[bc.as_ref(), &mlc], &mut FirstTouch::new()))?;
    // Invariant: the colocated run reports one entry per workload, and
    // bc-kron was passed in above.
    let base_cycles = base
        .per_process
        .iter()
        .find(|p| p.name == "bc-kron")
        .unwrap() // Invariant: bc-kron was passed to the run above
        .cycles;

    let mut cfg = experiment_machine(fast);
    cfg.thp = thp;
    let machine = Machine::new(cfg)?;
    let mut policy = make_policy(policy_name)?;
    let r = machine.run(RunSpec::new(&[bc.as_ref(), &mlc], policy.as_mut()))?;
    let cycles = r
        .per_process
        .iter()
        .find(|p| p.name == "bc-kron")
        .unwrap() // Invariant: bc-kron was passed to the run above
        .cycles;
    Ok((cycles as f64 / base_cycles as f64 - 1.0, r.promotions))
}

pub(super) fn render(lab: &Lab) -> Rendered {
    let levels = [1usize, 2, 4, 8];
    let mut out = String::new();

    for (thp, policies) in [(false, ["pact", "colloid"]), (true, ["pact", "memtis"])] {
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
        for &n in &levels {
            eprintln!("[fig11 {label}] {n} MLC threads");
            let (s0, p0) = run_level(lab, n, thp, policies[0], (1, 1))?;
            let (s1, p1) = run_level(lab, n, thp, policies[1], (1, 1))?;
            t.row(vec![
                n.to_string(),
                pct(s0),
                count(p0),
                pct(s1),
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
