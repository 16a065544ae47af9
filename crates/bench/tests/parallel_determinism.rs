//! Determinism guarantees of the parallel sweep executor: fanning a
//! sweep over worker threads must not change a single reported value,
//! and `Arc`-sharing a workload must be observationally identical to
//! rebuilding it.

use std::sync::Arc;

use pact_bench::{ratio_sweep, Harness, TierRatio};
use pact_tiersim::Workload;
use pact_workloads::suite::{build, Scale};

const RATIOS: [TierRatio; 3] = [
    TierRatio { fast: 4, slow: 1 },
    TierRatio { fast: 1, slow: 1 },
    TierRatio { fast: 1, slow: 4 },
];

/// A parallel `ratio_sweep` (4+ workers) produces a byte-identical
/// result table to the serial sweep: same ordering, and every f64
/// equal down to the bit pattern.
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let policies = ["pact", "colloid", "memtis", "notier"];
    let h = Harness::new(build("gups", Scale::Smoke, 21));
    let serial = ratio_sweep(&h, &policies, &RATIOS, 1, None).expect("sweep runs");
    let parallel = ratio_sweep(&h, &policies, &RATIOS, 4, None).expect("sweep runs");

    assert_eq!(serial.policies, parallel.policies);
    assert_eq!(serial.ratios, parallel.ratios);
    assert_eq!(serial.promotions, parallel.promotions);
    assert_eq!(serial.cxl.to_bits(), parallel.cxl.to_bits());
    for (srow, prow) in serial.slowdown.iter().zip(&parallel.slowdown) {
        for (s, p) in srow.iter().zip(prow) {
            assert_eq!(s.to_bits(), p.to_bits(), "slowdown diverged: {s} vs {p}");
        }
    }
    // The rendered tables (what the figures print) match too.
    assert_eq!(serial.render_slowdowns(), parallel.render_slowdowns());
    assert_eq!(serial.render_promotions(), parallel.render_promotions());
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
        assert_eq!(sweep, reference, "jobs={jobs} diverged");
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
