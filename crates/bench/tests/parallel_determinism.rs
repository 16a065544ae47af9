//! Determinism guarantees of the parallel sweep executor: fanning a
//! sweep over worker threads, checking invariants, or arming an inert
//! fault plan, or serving it from a lab's cell cache must not change a
//! single reported value, and a workload one lab shares across its
//! machines must be observationally identical to a fresh build.

use pact_bench::{experiment_machine, ratio_sweep, Cell, Env, Lab, SweepResult, TierRatio};
use pact_tiersim::{FaultPlan, MachineConfig};
use pact_workloads::suite::Scale;

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
/// the serial sweep bit for bit: 4 workers, runtime invariants checked
/// on every machine, an inert fault plan on every machine (set
/// on the config, or applied by the lab), and a second sweep answered
/// from the lab's cache. Each variant but the cached one simulates
/// every cell on a fresh lab.
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let policies = ["pact", "colloid", "memtis", "tpp", "notier"];
    let (wl, seed) = ("gups", 21);
    let sweep = |lab: &Lab, cfg: MachineConfig| ratio_sweep(lab, wl, &cfg, &policies, &RATIOS);
    let lab_with = |env| Lab::new(Scale::Smoke, seed).with_env(env);
    let jobs = |jobs| {
        lab_with(Env {
            jobs,
            ..Env::default()
        })
    };
    let mut armed = experiment_machine(0);
    armed.check_invariants = true;
    let mut inert = experiment_machine(0);
    inert.fault_plan = Some(FaultPlan::default());
    let inert_lab = lab_with(Env {
        faults: Some(FaultPlan::default()),
        jobs: 1,
        ..Env::default()
    });

    let lab = jobs(1);
    let serial = sweep(&lab, experiment_machine(0)).expect("sweep runs");
    let variants = [
        ("jobs=4", sweep(&jobs(4), experiment_machine(0))),
        ("invariants checked", sweep(&jobs(1), armed)),
        ("inert fault plan", sweep(&jobs(1), inert)),
        ("inert lab plan", sweep(&inert_lab, experiment_machine(0))),
        ("cached", sweep(&lab, experiment_machine(0))),
    ];
    for (variant, result) in variants {
        assert_bit_identical(&serial, &result.expect("sweep runs"), variant);
    }
    // The cached sweep simulated nothing.
    let s = lab.stats();
    assert_eq!(s.cells_run, 1 + 1 + policies.len() as u64 * 3);
}

/// Oversubscribed worker counts (more workers than cells) change
/// nothing either.
#[test]
fn worker_count_never_changes_results() {
    let policies = ["pact", "notier"];
    let sweep = |jobs| {
        let lab = Lab::new(Scale::Smoke, 5).with_env(Env {
            jobs,
            ..Env::default()
        });
        let machine = experiment_machine(0);
        ratio_sweep(&lab, "silo", &machine, &policies, &RATIOS[..2]).expect("sweep runs")
    };
    let reference = sweep(1);
    for jobs in [2, 3, 16] {
        assert_bit_identical(&reference, &sweep(jobs), &format!("jobs={jobs}"));
    }
}

/// A cell whose workload a cell on another machine of its lab already
/// ran gives reports identical to a fresh lab's: sharing the workload
/// `Arc` is purely an allocation optimization.
#[test]
fn shared_workload_matches_fresh_build() {
    let shared = Lab::new(Scale::Smoke, 13);
    let mut thp = experiment_machine(0);
    thp.thp = true;
    let other = Cell::new("silo", "pact", RATIOS[1]).on(thp);
    shared.cell(&other).expect("run succeeds");
    let fresh = Lab::new(Scale::Smoke, 13);
    let cxl = Cell::cxl("silo", experiment_machine(0));
    let cxl = |lab: &Lab| lab.cell(&cxl).expect("run succeeds").slowdown;
    assert_eq!(cxl(&shared).to_bits(), cxl(&fresh).to_bits());
    assert_eq!(shared.stats().workload_builds, 1);
    for (policy, ratio) in [("pact", RATIOS[1]), ("colloid", RATIOS[2])] {
        let cell = Cell::new("silo", policy, ratio);
        let run = |lab: &Lab| lab.cell(&cell).expect("run succeeds");
        let (a, f) = (run(&shared), run(&fresh));
        assert_eq!(
            a.report.total_cycles, f.report.total_cycles,
            "{policy}@{ratio}"
        );
        assert_eq!(a.promotions, f.promotions);
        assert_eq!(a.demotions, f.demotions);
        assert_eq!(a.slowdown.to_bits(), f.slowdown.to_bits());
        assert_eq!(a.report.counters, f.report.counters);
    }
}

/// Concurrent cells on one shared lab (the executor's actual access
/// pattern, including a cold Soar profile behind a `OnceLock` and
/// repeated cells racing for one cache slot) agree with serial runs
/// on a fresh lab.
#[test]
fn concurrent_runs_on_one_lab_are_deterministic() {
    let policies = ["pact", "soar", "tpp", "soar", "pact", "tpp"];
    let cycles = |lab: &Lab, i: usize| {
        let out = lab.cell(&Cell::new("gups", policies[i], RATIOS[1]));
        out.expect("run succeeds").report.total_cycles
    };
    let lab = Lab::new(Scale::Smoke, 8);
    let serial: Vec<u64> = (0..policies.len()).map(|i| cycles(&lab, i)).collect();
    let lab = Lab::new(Scale::Smoke, 8);
    let parallel: Vec<u64> = pact_bench::run_indexed(policies.len(), 4, |i| cycles(&lab, i));
    assert_eq!(serial, parallel);
}
