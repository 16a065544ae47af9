//! Cross-baseline contract tests: every baseline obeys the policy API,
//! runs deterministically, and exhibits its signature mechanism on a
//! shared scenario.

use pact_baselines::{Alto, Colloid, Memtis, Nbt, NoTier, Nomad, Soar, SoarProfile, Tpp};
use pact_tiersim::{
    Access, Machine, MachineConfig, Region, TieringPolicy, TraceWorkload, PAGE_BYTES,
};

/// Zipf-flavoured mixed trace: a hot quarter and a cold tail.
fn scenario() -> TraceWorkload {
    let mut trace = Vec::new();
    let mut x = 5u64;
    for i in 0..200_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        let page = if !x.is_multiple_of(4) {
            x % 128
        } else {
            128 + x % 384
        };
        trace.push(Access::dependent_load(
            page * PAGE_BYTES + ((x >> 40) % 64) * 64,
        ));
    }
    TraceWorkload::new("zipfish", 512 * PAGE_BYTES, trace)
}

fn machine(fast: u64) -> Machine {
    let mut cfg = MachineConfig::skylake_cxl(fast);
    cfg.llc.size_bytes = 32 * 1024;
    cfg.window_cycles = 100_000;
    Machine::new(cfg).unwrap()
}

fn policies() -> Vec<Box<dyn TieringPolicy>> {
    vec![
        Box::new(NoTier::new()),
        Box::new(Nbt::new()),
        Box::new(Tpp::new()),
        Box::new(Memtis::new()),
        Box::new(Colloid::new()),
        Box::new(Nomad::new()),
        Box::new(Alto::new()),
    ]
}

#[test]
fn names_are_unique_and_stable() {
    let names: Vec<String> = policies().iter().map(|p| p.name().to_string()).collect();
    let mut dedup = names.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(
        dedup.len(),
        names.len(),
        "duplicate policy names: {names:?}"
    );
    assert_eq!(
        names,
        vec!["notier", "nbt", "tpp", "memtis", "colloid", "nomad", "alto"]
    );
}

#[test]
fn every_baseline_is_deterministic() {
    let wl = scenario();
    let m = machine(128);
    for mk in [
        || Box::new(Nbt::new()) as Box<dyn TieringPolicy>,
        || Box::new(Tpp::new()) as Box<dyn TieringPolicy>,
        || Box::new(Memtis::new()) as Box<dyn TieringPolicy>,
        || Box::new(Colloid::new()) as Box<dyn TieringPolicy>,
        || Box::new(Nomad::new()) as Box<dyn TieringPolicy>,
        || Box::new(Alto::new()) as Box<dyn TieringPolicy>,
    ] {
        let mut a = mk();
        let mut b = mk();
        let ra = m.try_run(&wl, a.as_mut()).expect("run succeeds");
        let rb = m.try_run(&wl, b.as_mut()).expect("run succeeds");
        assert_eq!(ra.total_cycles, rb.total_cycles, "{}", ra.policy);
        assert_eq!(ra.promotions, rb.promotions, "{}", ra.policy);
    }
}

#[test]
fn hotness_baselines_converge_when_the_hot_set_fits() {
    // With the fast tier comfortably larger than the 128-page hot set,
    // the two-touch and histogram policies must settle it into the
    // fast tier and at least keep up with first-touch placement.
    let wl = scenario();
    let m = machine(192);
    let base = m
        .try_run(&wl, &mut NoTier::new())
        .expect("run succeeds")
        .total_cycles;
    for mut p in [
        Box::new(Nbt::new()) as Box<dyn TieringPolicy>,
        Box::new(Memtis::new()),
    ] {
        let r = m.try_run(&wl, p.as_mut()).expect("run succeeds");
        assert!(
            (r.total_cycles as f64) < base as f64 * 1.10,
            "{} regressed: {} vs notier {}",
            r.policy,
            r.total_cycles,
            base
        );
    }
}

#[test]
fn hotness_baselines_churn_when_the_hot_set_does_not_fit() {
    // The paper's criticism in miniature: when the hot set exceeds
    // capacity, frequency-driven migration burns faults and bandwidth
    // without reducing misses — NBT ends up *behind* doing nothing.
    let wl = scenario();
    let m = machine(96); // hot set is 128 pages
    let base = m.try_run(&wl, &mut NoTier::new()).expect("run succeeds");
    let mut nbt = Nbt::new();
    let r = m.try_run(&wl, &mut nbt).expect("run succeeds");
    assert!(
        r.total_cycles > base.total_cycles,
        "expected churn losses: nbt {} vs notier {}",
        r.total_cycles,
        base.total_cycles
    );
    assert!(r.promotions > 1_000, "churn implies heavy migration");
}

#[test]
fn fault_driven_baselines_take_faults_and_pebs_ones_do_not() {
    let wl = scenario();
    let m = machine(128);
    for (mut p, faults_expected) in [
        (Box::new(Nbt::new()) as Box<dyn TieringPolicy>, true),
        (Box::new(Tpp::new()), true),
        (Box::new(Colloid::new()), true),
        (Box::new(Nomad::new()), true),
        (Box::new(Memtis::new()), false),
        (Box::new(NoTier::new()), false),
    ] {
        let r = m.try_run(&wl, p.as_mut()).expect("run succeeds");
        assert_eq!(
            r.counters.hint_faults > 0,
            faults_expected,
            "{}: {} faults",
            r.policy,
            r.counters.hint_faults
        );
    }
}

#[test]
fn soar_profile_scores_are_region_ordered() {
    // Two regions with opposite criticality: profile must rank them.
    struct TwoRegions;
    impl pact_tiersim::Workload for TwoRegions {
        fn name(&self) -> String {
            "two".into()
        }
        fn footprint_bytes(&self) -> u64 {
            256 * PAGE_BYTES
        }
        fn regions(&self) -> Vec<Region> {
            vec![
                Region::new("cold", 0, 128 * PAGE_BYTES),
                Region::new("hot", 128 * PAGE_BYTES, 128 * PAGE_BYTES),
            ]
        }
        fn streams(&self) -> Vec<Box<dyn pact_tiersim::AccessStream + '_>> {
            let mut trace = Vec::new();
            let mut x = 3u64;
            for l in 0..128 * 64u64 {
                trace.push(Access::load(l * 64));
            }
            for _ in 0..100_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                trace.push(Access::dependent_load(
                    (128 + x % 128) * PAGE_BYTES + ((x >> 40) % 64) * 64,
                ));
            }
            vec![Box::new(pact_tiersim::VecStream::new(trace))]
        }
    }
    let mut cfg = MachineConfig::skylake_cxl(0);
    cfg.llc.size_bytes = 32 * 1024;
    cfg.pebs.rate = 25;
    let profile: SoarProfile = pact_baselines::soar_profile(&cfg, &TwoRegions);
    assert!(profile.regions[1].score > profile.regions[0].score);
    let soar = Soar::from_profile(&profile, 128);
    // The hot region's pages are chosen for the fast tier.
    assert!(soar.fast_ranges().iter().any(|&(s, _)| s >= 128));
}
