//! Determinism guarantees of the parallel sweep executor: fanning a
//! sweep over worker threads, arming the invariant checker or an inert
//! fault plan, or serving it from a harness's cache must not change a
//! single reported value, and a workload one lab shares across its
//! harnesses must be observationally identical to a fresh build.

use pact_bench::{experiment_machine, ratio_sweep, Env, Harness, Lab, SweepResult, TierRatio};
use pact_tiersim::{FaultPlan, InvariantSet, MachineConfig};
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
/// the serial sweep bit for bit: 4 workers, the runtime invariant set
/// armed on every machine, an inert fault plan on every machine (set
/// on the config, or applied by the lab), and a second sweep answered
/// from the harness's cache. Each variant but the cached one simulates
/// every cell on a fresh lab.
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let policies = ["pact", "colloid", "memtis", "tpp", "notier"];
    let (wl, seed) = ("gups", 21);
    let sweep = |lab: &Lab, cfg: MachineConfig, jobs| {
        let h = lab.harness_with(wl, cfg).expect("valid machine config");
        ratio_sweep(&h, &policies, &RATIOS, jobs, None)
    };
    let fresh = || Lab::new(Scale::Smoke, seed);
    let mut armed = experiment_machine(0);
    armed.invariants = Some(InvariantSet::all());
    let mut inert = experiment_machine(0);
    inert.fault_plan = Some(FaultPlan::default());
    let inert_lab = fresh().with_env(Env {
        faults: Some(FaultPlan::default()),
        ..Env::default()
    });

    let lab = fresh();
    let serial = sweep(&lab, experiment_machine(0), 1).expect("sweep runs");
    let variants = [
        ("jobs=4", sweep(&fresh(), experiment_machine(0), 4)),
        ("invariants armed", sweep(&fresh(), armed, 1)),
        ("inert fault plan", sweep(&fresh(), inert, 1)),
        (
            "inert lab plan",
            sweep(&inert_lab, experiment_machine(0), 1),
        ),
        ("cached", sweep(&lab, experiment_machine(0), 4)),
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
        let lab = Lab::new(Scale::Smoke, 5);
        let h = lab.harness("silo").expect("suite workload");
        ratio_sweep(&h, &policies, &RATIOS[..2], jobs, None).expect("sweep runs")
    };
    let reference = sweep(1);
    for jobs in [2, 3, 16] {
        assert_bit_identical(&reference, &sweep(jobs), &format!("jobs={jobs}"));
    }
}

/// A harness whose workload another harness of its lab already ran
/// gives reports identical to a fresh lab's: sharing the workload
/// `Arc` is purely an allocation optimization.
#[test]
fn shared_workload_matches_fresh_build() {
    let shared = Lab::new(Scale::Smoke, 13);
    let mut thp = experiment_machine(0);
    thp.thp = true;
    let other = shared.harness_with("silo", thp).expect("valid config");
    other
        .run_policy("pact", RATIOS[1], None)
        .expect("run succeeds");
    let h_shared = shared.harness("silo").expect("suite workload");
    let fresh = Lab::new(Scale::Smoke, 13);
    let h_fresh = fresh.harness("silo").expect("suite workload");
    assert_eq!(shared.stats().workload_builds, 1);

    assert_eq!(h_shared.dram_cycles(), h_fresh.dram_cycles());
    for (policy, ratio) in [("pact", RATIOS[1]), ("colloid", RATIOS[2])] {
        let run = |h: &Harness| h.run_policy(policy, ratio, None).expect("run succeeds");
        let (a, f) = (run(&h_shared), run(&h_fresh));
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

/// Concurrent runs against one shared harness (the executor's actual
/// access pattern, including a cold Soar profile behind a `OnceLock`
/// and repeated cells racing for one cache slot) agree with serial
/// runs on a fresh lab.
#[test]
fn concurrent_runs_on_one_harness_are_deterministic() {
    let policies = ["pact", "soar", "tpp", "soar", "pact", "tpp"];
    let cycles = |h: &Harness, i: usize| {
        let out = h.run_policy(policies[i], RATIOS[1], None);
        out.expect("run succeeds").report.total_cycles
    };
    let lab = Lab::new(Scale::Smoke, 8);
    let h = lab.harness("gups").expect("suite workload");
    let serial: Vec<u64> = (0..policies.len()).map(|i| cycles(&h, i)).collect();
    let lab = Lab::new(Scale::Smoke, 8);
    let h = lab.harness("gups").expect("suite workload");
    let parallel: Vec<u64> = pact_bench::run_indexed(policies.len(), 4, |i| cycles(&h, i));
    assert_eq!(serial, parallel);
}
