//! Fleet accounting integration tests (DESIGN.md §14): per-tenant
//! telemetry must be an exact partition of the machine's global
//! counters — under fault injection and under admission backpressure —
//! and a fleet run must repeat byte for byte. A tenant lane that gains or loses
//! an access relative to the globals means attribution is lying to the
//! operator.

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    Admission, AdmissionControl, FaultPlan, Machine, MachineConfig, ProcessReport, RunReport,
    RunSpec, Workload,
};
use pact_workloads::suite::{build, Scale};

fn fleet_workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    ["gups", "mlc-hog", "zipf-drift"]
        .iter()
        .map(|name| build(name, Scale::Smoke, seed))
        .collect()
}

fn fleet_cfg(faults: bool) -> MachineConfig {
    let mut cfg = MachineConfig::skylake_cxl(128);
    cfg.seed = 11;
    cfg.track_page_stalls = true;
    if faults {
        cfg.fault_plan = Some(FaultPlan {
            seed: 11,
            drop_order: 0.15,
            fail_migration: 0.5,
            max_retries: 2,
            backoff_windows: 2,
            pebs_loss: 0.05,
            ..FaultPlan::default()
        });
    }
    cfg
}

/// Runs the fleet cell under PACT inside admission control with a
/// budget of 3 orders per window, weights 4:1:2.
fn run_fleet(faults: bool) -> (RunReport, Admission) {
    let workloads = fleet_workloads(11);
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let machine = Machine::new(fleet_cfg(faults)).expect("config is valid");
    let pact = PactPolicy::new(PactConfig::default()).expect("default config is valid");
    let admission = AdmissionControl {
        budget_per_window: 3,
        ..AdmissionControl::default()
    };
    let mut policy = Admission::new(Box::new(pact), admission, vec![4, 1, 2])
        .expect("admission config is valid");
    let report = machine
        .run(RunSpec::new(&refs, &mut policy))
        .expect("fleet cell runs");
    (report, policy)
}

/// One named conservation check: (counter name, global total, lane getter).
type Check<'a> = (&'a str, u64, &'a dyn Fn(&ProcessReport) -> u64);

/// Sums one per-process scalar over every lane.
fn lane(report: &RunReport, f: &dyn Fn(&ProcessReport) -> u64) -> u64 {
    report.per_process.iter().map(f).sum()
}

fn assert_partition(report: &RunReport, label: &str) {
    assert_eq!(
        report.per_process.len(),
        3,
        "{label}: expected 3 tenant lanes"
    );

    // Scalar PMU counters: tenant lanes must sum exactly to globals.
    let global = &report.counters;
    let scalar: [Check; 5] = [
        ("accesses", global.accesses, &|t| t.counters.accesses),
        ("loads", global.loads, &|t| t.counters.loads),
        ("stores", global.stores, &|t| t.counters.stores),
        ("llc_hits", global.llc_hits, &|t| t.counters.llc_hits),
        ("pebs_samples", global.pebs_samples, &|t| {
            t.counters.pebs_samples
        }),
    ];
    for (name, want, get) in scalar {
        assert_eq!(lane(report, get), want, "{label}: {name} lanes != global");
    }

    // Per-tier pairs, both lanes.
    for tier in 0..2 {
        let pairs: [Check; 3] = [
            ("llc_misses", global.llc_misses[tier], &|t| {
                t.counters.llc_misses[tier]
            }),
            ("llc_stalls", global.llc_stalls[tier], &|t| {
                t.counters.llc_stalls[tier]
            }),
            ("bytes", global.bytes[tier], &|t| t.counters.bytes[tier]),
        ];
        for (name, want, get) in pairs {
            assert_eq!(
                lane(report, get),
                want,
                "{label}: {name}[{tier}] lanes != global"
            );
        }
    }

    // Migration stats: the machine-level totals are the lane sums.
    assert_eq!(
        lane(report, &|t| t.promotions),
        report.promotions,
        "{label}: promotions"
    );
    assert_eq!(
        lane(report, &|t| t.demotions),
        report.demotions,
        "{label}: demotions"
    );
    assert_eq!(
        lane(report, &|t| t.failed_promotions),
        report.failed_promotions,
        "{label}: failed_promotions"
    );
    assert_eq!(
        lane(report, &|t| t.dropped_orders),
        report.dropped_orders,
        "{label}: dropped_orders"
    );

    // Stall lanes partition the page-stalls oracle exactly.
    let oracle: [u64; 2] = report.page_stalls.as_ref().map_or([0, 0], |map| {
        map.values()
            .fold([0, 0], |acc, s| [acc[0] + s[0], acc[1] + s[1]])
    });
    for (tier, want) in oracle.into_iter().enumerate() {
        assert_eq!(
            lane(report, &|t| t.stall_cycles[tier]),
            want,
            "{label}: stall lane [{tier}] != page-stalls oracle"
        );
    }
}

#[test]
fn tenant_lanes_partition_globals_without_faults() {
    let (report, policy) = run_fleet(false);
    assert_partition(&report, "clean");
    let rejected: u64 = policy.lanes().iter().map(|l| l.rejected).sum();
    assert!(rejected > 0, "budget 3/window produced no rejections");
    assert!(
        policy.lanes().iter().any(|l| l.admitted > 0),
        "the cell admitted nothing"
    );
}

#[test]
fn tenant_lanes_partition_globals_under_fault_injection() {
    let (report, _) = run_fleet(true);
    assert_partition(&report, "faulted");
    assert!(
        report.failed_promotions > 0,
        "the fault plan produced no failed migrations — the test lost its subject"
    );
}

#[test]
fn fleet_reports_are_repeatable() {
    for faults in [false, true] {
        let (base, base_policy) = run_fleet(faults);
        let (again, again_policy) = run_fleet(faults);
        assert_partition(&again, &format!("faults={faults} repeat"));
        assert_eq!(
            again.to_json(),
            base.to_json(),
            "fleet report diverged on a repeat run (faults={faults})"
        );
        assert_eq!(
            again_policy.lanes(),
            base_policy.lanes(),
            "admission ledger diverged on a repeat run (faults={faults})"
        );
    }
}
