//! Sweep-level differential oracle: the full policy × ratio sweep must
//! produce bit-identical results under every execution and observation
//! variant that is not supposed to change the answer.
//!
//! Variants compared against the serial (`jobs = 1`) reference sweep:
//!
//! * worker-count permutations (`jobs = 2` and `jobs = 8`) — pins the
//!   executor's scheduling-independence guarantee from the outside,
//!   complementing `probe_sweep`'s serial-vs-`PACT_JOBS` check;
//! * the runtime invariant set armed on every machine — pins the
//!   zero-cost-when-off *and* correct-when-on contract across a whole
//!   sweep, not just one cell;
//! * an inert fault plan (every probability zero) on every machine —
//!   arming the fault layer without firing it must not move a number;
//! * the sweep run through a fresh [`Lab`](pact_bench::Lab), the cache
//!   behind `tierctl repro` — a cached cell must equal a simulated one.
//!
//! Every variant runs on its own harness (or fresh lab), so each one
//! simulates every cell it is compared on.
//!
//! Exit status: 0 all variants agree, 1 a variant diverged.
//!
//! ```text
//! cargo run --release -p pact-bench --bin check_sweep
//! ```

use pact_bench::{
    env, experiment_machine, ratio_sweep, Harness, Lab, OrExit, SweepResult, TierRatio,
};
use pact_tiersim::{FaultPlan, InvariantSet};
use pact_workloads::suite::{build, Scale};

const POLICIES: [&str; 3] = ["pact", "tpp", "notier"];

/// Bitwise equality of two sweeps: structural equality plus exact
/// f64-bit agreement of every slowdown cell (`==` on floats would call
/// `-0.0 == 0.0` equal and hide a drifted sign).
fn bit_identical(a: &SweepResult, b: &SweepResult) -> bool {
    a == b
        && a.slowdown
            .iter()
            .flatten()
            .zip(b.slowdown.iter().flatten())
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.cxl.to_bits() == b.cxl.to_bits()
}

fn first_diff(a: &SweepResult, b: &SweepResult) -> String {
    for (p, (ra, rb)) in a.slowdown.iter().zip(&b.slowdown).enumerate() {
        for (r, (x, y)) in ra.iter().zip(rb).enumerate() {
            if x.to_bits() != y.to_bits() {
                return format!(
                    "policy {} at ratio {}: {x} vs {y}",
                    a.policies[p], a.ratios[r]
                );
            }
        }
    }
    if a.cxl.to_bits() != b.cxl.to_bits() {
        return format!("cxl reference: {} vs {}", a.cxl, b.cxl);
    }
    "structural difference (policies/ratios/promotions)".to_string()
}

fn main() {
    pact_bench::validate_fault_env();
    let ratios = [TierRatio::new(2, 1), TierRatio::new(1, 2)];
    let wl_name = "gups";
    let seed = 11;
    eprintln!(
        "[check_sweep] {wl_name} smoke, {} policies x {} ratios",
        POLICIES.len(),
        ratios.len()
    );

    let h = Harness::new(build(wl_name, Scale::Smoke, seed));
    let trace = env::trace_config();
    let sweep =
        |h: &Harness, jobs| ratio_sweep(h, &POLICIES, &ratios, jobs, trace.as_ref()).or_exit();
    let reference = sweep(&h, 1);

    let mut failures = 0u32;
    let mut check = |label: &str, sweep: &SweepResult| {
        if bit_identical(&reference, sweep) {
            println!("  ok   {label}");
        } else {
            println!("  FAIL {label}: {}", first_diff(&reference, sweep));
            failures += 1;
        }
    };

    for jobs in [2usize, 8] {
        check(&format!("jobs={jobs} matches serial"), &sweep(&h, jobs));
    }

    let mut inv_cfg = experiment_machine(0);
    inv_cfg.invariants = Some(InvariantSet::all());
    let h_inv = Harness::from_arc(h.workload_arc())
        .with_machine(inv_cfg)
        .or_exit();
    check(
        "invariant checking armed matches unchecked",
        &sweep(&h_inv, 1),
    );

    let mut fault_cfg = experiment_machine(0);
    fault_cfg.fault_plan = Some(FaultPlan {
        drop_order: 0.0,
        fail_migration: 0.0,
        stall: None,
        pebs_loss: 0.0,
        chmu_overflow: 0.0,
        ..FaultPlan::default()
    });
    let h_fault = Harness::from_arc(h.workload_arc())
        .with_machine(fault_cfg)
        .or_exit();
    check("inert fault plan matches fault-free", &sweep(&h_fault, 1));

    let lab = Lab::new(Scale::Smoke, seed);
    let h_lab = lab.harness(wl_name).or_exit();
    check(
        "lab-cached sweep matches the bare harness",
        &ratio_sweep(&h_lab, &POLICIES, &ratios, 2, trace.as_ref()).or_exit(),
    );

    if failures > 0 {
        eprintln!("[check_sweep] {failures} variant(s) diverged");
        std::process::exit(1);
    }
    println!("[check_sweep] all variants bit-identical to the serial reference");
}
