//! Determinism guarantees of the parallel sweep executor: fanning a
//! sweep over worker threads, arming the invariant checker or an inert
//! fault plan, or serving it from the lab cache must not change a
//! single reported value, and `Arc`-sharing a workload must be
//! observationally identical to rebuilding it.

use std::sync::Arc;

use pact_bench::{experiment_machine, ratio_sweep, Harness, Lab, SweepResult, TierRatio};
use pact_tiersim::{FaultPlan, InvariantSet, Workload};
use pact_workloads::suite::{build, Scale};

const RATIOS: [TierRatio; 3] = [
    TierRatio { fast: 4, slow: 1 },
    TierRatio { fast: 1, slow: 1 },
    TierRatio { fast: 1, slow: 4 },
];

/// Asserts `sweep` equals `reference` down to every f64's bit pattern
/// (`==` would call `-0.0 == 0.0` equal and hide a drifted sign).
fn assert_bit_identical(reference: &SweepResult, sweep: &SweepResult, variant: &str) {
    let bits = |s: &SweepResult| {
        let floats = s.slowdown.iter().flatten().chain([&s.cxl]);
        let floats: Vec<u64> = floats.map(|x| x.to_bits()).collect();
        (
            s.policies.clone(),
            s.ratios.clone(),
            s.promotions.clone(),
            floats,
        )
    };
    assert_eq!(bits(reference), bits(sweep), "{variant} diverged");
}

/// Every way of running a sweep that must not change an answer gives
/// the serial sweep bit for bit: 4 workers, the runtime invariant set
/// armed on every machine, an inert fault plan (every probability
/// zero) on every machine, and the cache behind `tierctl repro`.
/// Each variant simulates every cell on its own harness or fresh lab.
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let policies = ["pact", "colloid", "memtis", "tpp", "notier"];
    let (wl, seed) = ("gups", 21);
    let h = Harness::new(build(wl, Scale::Smoke, seed));
    let on = |cfg| {
        let h = Harness::from_arc(h.workload_arc());
        h.with_machine(cfg).expect("valid machine config")
    };
    let mut armed = experiment_machine(0);
    armed.invariants = Some(InvariantSet::all());
    let mut inert = experiment_machine(0);
    inert.fault_plan = Some(FaultPlan::default());
    let lab = Lab::new(Scale::Smoke, seed);
    let lab_h = lab.harness(wl).expect("suite workload");

    let sweep = |h: &Harness, jobs| ratio_sweep(h, &policies, &RATIOS, jobs, None);
    let serial = sweep(&h, 1).expect("sweep runs");
    let variants = [
        ("jobs=4", sweep(&h, 4)),
        ("invariants armed", sweep(&on(armed), 1)),
        ("inert fault plan", sweep(&on(inert), 1)),
        (
            "lab-cached",
            ratio_sweep(&lab_h, &policies, &RATIOS, 4, None),
        ),
    ];
    for (variant, result) in variants {
        assert_bit_identical(&serial, &result.expect("sweep runs"), variant);
    }
}

/// Oversubscribed worker counts (more workers than cells) change
/// nothing either.
#[test]
fn worker_count_never_changes_results() {
    let policies = ["pact", "notier"];
    let h = Harness::new(build("silo", Scale::Smoke, 5));
    let reference = ratio_sweep(&h, &policies, &RATIOS[..2], 1, None).expect("sweep runs");
    for jobs in [2, 3, 16] {
        let sweep = ratio_sweep(&h, &policies, &RATIOS[..2], jobs, None).expect("sweep runs");
        assert_bit_identical(&reference, &sweep, &format!("jobs={jobs}"));
    }
}

/// Running a policy against an `Arc`-shared workload gives a report
/// identical to a freshly built copy of the same workload: sharing the
/// artifact is purely an allocation optimization.
#[test]
fn arc_shared_workload_matches_fresh_build() {
    let shared: Arc<dyn Workload> = Arc::from(build("silo", Scale::Smoke, 13));
    let h_shared_a = Harness::from_arc(shared.clone());
    let h_shared_b = Harness::from_arc(shared);
    let h_fresh = Harness::new(build("silo", Scale::Smoke, 13));

    assert_eq!(h_shared_a.dram_cycles(), h_fresh.dram_cycles());
    for (policy, ratio) in [("pact", RATIOS[1]), ("colloid", RATIOS[2])] {
        let run = |h: &Harness| h.run_policy(policy, ratio, None).expect("run succeeds");
        let (a, b, f) = (run(&h_shared_a), run(&h_shared_b), run(&h_fresh));
        assert_eq!(
            a.report.total_cycles, f.report.total_cycles,
            "{policy}@{ratio}"
        );
        assert_eq!(
            b.report.total_cycles, f.report.total_cycles,
            "{policy}@{ratio}"
        );
        assert_eq!(a.promotions, f.promotions);
        assert_eq!(a.demotions, f.demotions);
        assert_eq!(a.slowdown.to_bits(), f.slowdown.to_bits());
        assert_eq!(a.report.counters, f.report.counters);
    }
}

/// Concurrent runs against one shared harness (the executor's actual
/// access pattern, including a cold Soar profile behind a `OnceLock`)
/// agree with serial runs.
#[test]
fn concurrent_runs_on_one_harness_are_deterministic() {
    let policies = ["pact", "soar", "tpp", "soar", "pact", "tpp"];
    let h = Harness::new(build("gups", Scale::Smoke, 8));
    let cycles = |h: &Harness, i: usize| {
        let out = h.run_policy(policies[i], RATIOS[1], None);
        out.expect("run succeeds").report.total_cycles
    };
    let serial: Vec<u64> = (0..policies.len()).map(|i| cycles(&h, i)).collect();
    let h2 = Harness::new(build("gups", Scale::Smoke, 8));
    let parallel: Vec<u64> = pact_bench::run_indexed(policies.len(), 4, |i| cycles(&h2, i));
    assert_eq!(serial, parallel);
}
