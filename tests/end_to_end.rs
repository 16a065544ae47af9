//! Integration tests spanning the whole stack: suite workloads through
//! the simulator under every policy.

use pact_bench::{make_policy, Cell, Lab, TierRatio, ALL_POLICIES};
use pact_tiersim::{FirstTouch, Machine, MachineConfig, RunSpec, PAGE_BYTES};
use pact_workloads::suite::{build, Scale, SUITE};

/// Every suite workload completes under PACT and NoTier at smoke scale,
/// with sane counters.
#[test]
fn suite_runs_under_pact_and_notier() {
    let lab = Lab::new(Scale::Smoke, 7);
    for name in SUITE {
        for policy in ["pact", "notier"] {
            let out = lab
                .cell(&Cell::new(name, policy, TierRatio::new(1, 1)))
                .expect("run succeeds");
            let r = &out.report;
            assert!(r.total_cycles > 0, "{name}/{policy}: empty run");
            assert!(r.counters.accesses > 0, "{name}/{policy}: no accesses");
            assert!(
                r.counters.llc_hits + r.counters.total_misses() <= r.counters.accesses,
                "{name}/{policy}: cache events exceed accesses"
            );
            assert!(
                out.slowdown > -0.15,
                "{name}/{policy}: tiered run implausibly beats DRAM by {:.1}%",
                -out.slowdown * 100.0
            );
        }
    }
}

/// Every policy (including Soar's profile-then-place flow) completes on
/// a representative workload and respects conservation invariants.
#[test]
fn all_policies_run_on_silo() {
    let lab = Lab::new(Scale::Smoke, 3);
    for policy in ALL_POLICIES {
        let out = lab
            .cell(&Cell::new("silo", policy, TierRatio::new(1, 2)))
            .expect("run succeeds");
        let r = &out.report;
        assert!(r.total_cycles > 0, "{policy}: empty run");
        // Promotions need matching demotions once the fast tier fills
        // (within the initial free capacity).
        let fast_cap = TierRatio::new(1, 2).fast_pages(lab.workload("silo").footprint_bytes());
        assert!(
            r.promotions <= r.demotions + fast_cap,
            "{policy}: promoted {} with only {} demotions and {} capacity",
            r.promotions,
            r.demotions,
            fast_cap
        );
    }
}

/// Identical (workload, policy, seed) runs produce identical results.
#[test]
fn runs_are_deterministic_end_to_end() {
    for policy in ["pact", "colloid", "memtis"] {
        let run = || {
            let wl = build("bc-kron", Scale::Smoke, 11);
            let machine = Machine::new(MachineConfig::skylake_cxl(
                wl.footprint_bytes() / PAGE_BYTES / 2,
            ))
            .unwrap();
            let mut p = make_policy(policy).expect("known policy");
            let r = machine
                .try_run(wl.as_ref(), p.as_mut())
                .expect("run succeeds");
            (r.total_cycles, r.promotions, r.counters)
        };
        assert_eq!(run(), run(), "{policy} is nondeterministic");
    }
}

/// The DRAM-only run is a true lower bound across the suite: no policy
/// at any ratio materially beats it, and all-local never loses to
/// all-remote.
#[test]
fn dram_is_a_lower_bound() {
    let lab = Lab::new(Scale::Smoke, 5);
    for name in ["bc-kron", "redis", "gups"] {
        for ratio in [TierRatio::new(4, 1), TierRatio::new(1, 4)] {
            for policy in ["pact", "colloid", "notier"] {
                let out = lab.cell(&Cell::new(name, policy, ratio));
                let out = out.expect("run succeeds");
                assert!(
                    out.slowdown > -0.1,
                    "{name}/{policy}@{ratio}: beats DRAM by {:.1}%",
                    -out.slowdown * 100.0
                );
            }
        }
    }
    // Without a policy the law is strict: the whole footprint in the
    // fast tier never finishes later than the whole of it in the slow
    // tier (`fast_tier_never_hurts_first_touch` allows 5% on random
    // traces).
    for name in ["gups", "masim", "silo"] {
        let wl = build(name, Scale::Smoke, 1);
        let cycles = |fast_pages: u64| {
            let mut cfg = MachineConfig::skylake_cxl(fast_pages);
            cfg.seed = 1;
            Machine::new(cfg)
                .unwrap()
                .try_run(wl.as_ref(), &mut FirstTouch::new())
                .expect("run succeeds")
                .total_cycles
        };
        let (local, remote) = (cycles(wl.footprint_bytes().div_ceil(PAGE_BYTES)), cycles(0));
        assert!(
            local <= remote,
            "{name}: all-local took {local} cycles, all-remote {remote}"
        );
    }
}

/// THP mode: allocation and migration happen in whole units; promotions
/// are multiples of the unit span.
#[test]
fn thp_migrates_whole_units() {
    let wl = build("bc-kron", Scale::Smoke, 9);
    let mut cfg = MachineConfig::skylake_cxl(wl.footprint_bytes() / PAGE_BYTES / 2);
    cfg.thp = true;
    let span = cfg.thp_unit_pages;
    let machine = Machine::new(cfg).unwrap();
    let mut pact = make_policy("pact").expect("known policy");
    let r = machine
        .try_run(wl.as_ref(), pact.as_mut())
        .expect("run succeeds");
    assert_eq!(
        r.promotions % span,
        0,
        "promotions {} not unit-aligned (span {span})",
        r.promotions
    );
    assert_eq!(r.demotions % span, 0);
}

/// Colocated runs isolate per-process accounting.
#[test]
fn colocation_accounting_is_per_process() {
    let a = build("gups", Scale::Smoke, 1);
    let b = build("silo", Scale::Smoke, 2);
    let machine = Machine::new(MachineConfig::skylake_cxl(2048)).unwrap();
    let mut pact = make_policy("pact").expect("known policy");
    let r = machine
        .run(RunSpec::new(&[a.as_ref(), b.as_ref()], pact.as_mut()))
        .expect("run succeeds");
    assert_eq!(r.per_process.len(), 2);
    let total: u64 = r.per_process.iter().map(|p| p.accesses).sum();
    assert_eq!(total, r.counters.accesses);
    for p in &r.per_process {
        assert!(p.cycles > 0 && p.cycles <= r.total_cycles);
    }
}
