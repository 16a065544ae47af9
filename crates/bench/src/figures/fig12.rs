//! Figure 12 — **colocated heterogeneous access patterns (§5.9).**
//!
//! Two Masim processes — one sequential/streaming (high MLP), one
//! random pointer-chasing (low MLP) — share a fast tier sized to half
//! their combined footprint. Validates that uniform stall attribution
//! still identifies the dominant criticality source (the random
//! process's pages) under colocation. The paper reports PACT improving
//! over Colloid by 112% (sequential), 28% (random), and 61% aggregate,
//! with 300K promotions vs Colloid's 12M.

use pact_tiersim::{FirstTouch, Machine, RunReport, RunSpec, Workload, PAGE_BYTES};
use pact_workloads::suite::Scale;
use pact_workloads::{Masim, MasimPattern};

use super::Rendered;
use crate::{banner, count, experiment_machine, make_policy, Lab, Table};

fn build_pair(lab: &Lab) -> (Masim, Masim) {
    let (buf, seq_loads, rnd_loads) = match lab.scale() {
        Scale::Smoke => (1 << 20, 200_000, 30_000),
        Scale::Paper => (8 << 20, 20_000_000, 600_000),
    };
    (
        Masim::single(
            "masim-seq",
            MasimPattern::Sequential,
            buf,
            seq_loads,
            lab.seed(),
        ),
        Masim::single(
            "masim-rnd",
            MasimPattern::RandomChase,
            buf,
            rnd_loads,
            lab.seed() + 1,
        ),
    )
}

#[expect(
    clippy::unwrap_used,
    reason = "every caller passes the name of a colocated workload, and a colocated run \
              reports one entry per workload"
)]
fn proc_cycles(r: &RunReport, name: &str) -> u64 {
    r.per_process
        .iter()
        .find(|p| p.name == name)
        .unwrap()
        .cycles
}

pub(super) fn render(lab: &Lab) -> Rendered {
    let (seq, rnd) = build_pair(lab);
    let total_pages = (seq.footprint_bytes() + rnd.footprint_bytes()).div_ceil(PAGE_BYTES);
    let fast = total_pages / 2; // fast tier holds half the footprint

    // Solo DRAM baselines for per-process normalization.
    let dram = Machine::new(experiment_machine(u64::MAX / PAGE_BYTES))?;
    let base = dram.run(RunSpec::new(&[&seq, &rnd], &mut FirstTouch::new()))?;
    let base_seq = proc_cycles(&base, "masim-seq");
    let base_rnd = proc_cycles(&base, "masim-rnd");

    let mut out = String::new();
    out.push_str(&banner(
        "Figure 12: colocated sequential + random Masim, fast tier = half footprint",
    ));
    let mut t = Table::new(vec![
        "policy",
        "seq slowdown",
        "rnd slowdown",
        "aggregate",
        "promotions",
    ]);
    let mut rows: Vec<(String, f64, f64, f64, u64)> = Vec::new();
    for name in ["pact", "colloid", "notier"] {
        let machine = Machine::new(experiment_machine(fast))?;
        let mut policy = make_policy(name)?;
        let r = machine.run(RunSpec::new(&[&seq, &rnd], policy.as_mut()))?;
        let s_seq = proc_cycles(&r, "masim-seq") as f64 / base_seq as f64 - 1.0;
        let s_rnd = proc_cycles(&r, "masim-rnd") as f64 / base_rnd as f64 - 1.0;
        let agg = (proc_cycles(&r, "masim-seq") + proc_cycles(&r, "masim-rnd")) as f64
            / (base_seq + base_rnd) as f64
            - 1.0;
        t.row(vec![
            name.to_string(),
            crate::pct(s_seq),
            crate::pct(s_rnd),
            crate::pct(agg),
            count(r.promotions),
        ]);
        rows.push((name.to_string(), s_seq, s_rnd, agg, r.promotions));
    }
    out.push_str(&t.render());

    #[expect(
        clippy::unwrap_used,
        reason = "both names are in the loop above, so both rows exist"
    )]
    let row = |name: &str| rows.iter().find(|r| r.0 == name).unwrap();
    let (pact, colloid) = (row("pact"), row("colloid"));
    let rel = |p: f64, c: f64| ((1.0 + c) - (1.0 + p)) / (1.0 + p) * 100.0;
    out.push_str(&format!(
        "\nPACT improvement over Colloid: seq {:+.0}%, rnd {:+.0}%, aggregate {:+.0}% \
         (paper: 112% / 28% / 61%)\n\
         promotions: PACT {} vs Colloid {} (paper: 300K vs 12M)\n",
        rel(pact.1, colloid.1),
        rel(pact.2, colloid.2),
        rel(pact.3, colloid.3),
        count(pact.4),
        count(colloid.4),
    ));
    Ok(out)
}
