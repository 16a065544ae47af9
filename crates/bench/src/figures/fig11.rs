//! Figure 11 — **bandwidth contention (MLC co-runner).**
//!
//! Runs bc-kron while colocating an MLC-style bandwidth hog on the fast
//! (local DRAM) node, sweeping 1..8 MLC threads (~8 GB/s each; eight
//! saturate the channel). Slowdowns are normalized to a DRAM-only run
//! under the *same* contention level. Expected shape: PACT sustains
//! performance comparable to or better than Colloid (4 KB) and Memtis
//! (THP) while promoting several times fewer pages.

use pact_tiersim::{FirstTouch, RunSpec, Workload, PAGE_BYTES};
use pact_workloads::suite::Scale;
use pact_workloads::Mlc;

use super::{process_cycles, Rendered};
use crate::{banner, count, experiment_machine, make_policy, pct, Lab, Table};

/// `(slowdown, promotions)` of each policy at one contention level.
type Level = Result<Vec<(f64, u64)>, Box<dyn std::error::Error + Send + Sync>>;

/// Runs bc-kron next to `mlc_threads` MLC threads under each of
/// `policies` at 1:1, normalised to one DRAM-only run under the same
/// contention.
fn run_level(lab: &Lab, mlc_threads: usize, thp: bool, policies: [&str; 2]) -> Level {
    let bc = lab.workload("bc-kron");
    let loads = match lab.scale {
        Scale::Smoke => 300_000,
        Scale::Paper => 16_000_000,
    };
    let mlc = Mlc::paper_thread(mlc_threads, loads);
    let workloads = [bc.as_ref(), &mlc];
    let bc_pages = bc.footprint_bytes().div_ceil(PAGE_BYTES);
    let mlc_pages = mlc.footprint_bytes().div_ceil(PAGE_BYTES);
    // MLC lives on the local node: its buffers always fit the fast tier.
    let fast = bc_pages / 2 + mlc_pages + 512;
    let machine = |fast_pages| {
        let mut cfg = experiment_machine(fast_pages);
        cfg.thp = thp;
        cfg
    };

    // DRAM-only reference under identical contention.
    let dram = machine(u64::MAX / PAGE_BYTES);
    let base = lab.run(dram, RunSpec::new(&workloads, &mut FirstTouch::new()))?;
    let base_cycles = process_cycles(&base, "bc-kron");

    let mut rows = Vec::with_capacity(policies.len());
    for name in policies {
        let mut policy = make_policy(name)?;
        let r = lab.run(machine(fast), RunSpec::new(&workloads, policy.as_mut()))?;
        let slowdown = process_cycles(&r, "bc-kron") as f64 / base_cycles as f64 - 1.0;
        rows.push((slowdown, r.promotions));
    }
    Ok(rows)
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
            let rows = run_level(lab, n, thp, policies)?;
            let ((s0, p0), (s1, p1)) = (rows[0], rows[1]);
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
