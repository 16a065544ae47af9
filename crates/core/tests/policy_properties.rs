//! Property tests over the PACT policy configuration space: any valid
//! configuration must run safely, deterministically, and within the
//! machine's accounting invariants.

use pact_core::{
    Attribution, BinningMode, Cooling, PactConfig, PactPolicy, RankBy, SamplingSource,
};
use pact_tiersim::{Access, Machine, MachineConfig, TraceWorkload, PAGE_BYTES};
use proptest::prelude::*;

fn workload() -> TraceWorkload {
    let mut trace = Vec::new();
    let mut x = 99u64;
    for i in 0..30_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        let page = x % 256;
        if x.is_multiple_of(5) {
            trace.push(Access::store(page * PAGE_BYTES));
        } else if x.is_multiple_of(3) {
            trace.push(Access::dependent_load(
                page * PAGE_BYTES + (x >> 40) % 64 * 64,
            ));
        } else {
            trace.push(Access::load(page * PAGE_BYTES + (x >> 32) % 64 * 64));
        }
    }
    TraceWorkload::new("mix", 256 * PAGE_BYTES, trace)
}

fn config_strategy() -> impl Strategy<Value = PactConfig> {
    (
        prop_oneof![Just(RankBy::Pac), Just(RankBy::Frequency)],
        prop_oneof![
            Just(BinningMode::Static),
            Just(BinningMode::Adaptive),
            Just(BinningMode::AdaptiveScaled)
        ],
        prop_oneof![
            Just(Attribution::Proportional),
            Just(Attribution::LatencyWeighted)
        ],
        prop_oneof![
            Just(Cooling::None),
            Just(Cooling::Halve),
            Just(Cooling::Reset)
        ],
        prop_oneof![Just(SamplingSource::Pebs), Just(SamplingSource::Chmu)],
        1u32..8,       // period_windows
        0.0f64..=1.0,  // alpha
        0u64..64,      // eager demotion margin m
        2usize..400,   // reservoir
        2.0f64..500.0, // t_scale
    )
        .prop_map(
            |(rank_by, binning, attribution, cooling, sampling, period, alpha, m, res, ts)| {
                PactConfig {
                    rank_by,
                    binning,
                    attribution,
                    cooling,
                    sampling,
                    period_windows: period,
                    alpha,
                    eager_demotion_margin: m,
                    reservoir: res,
                    t_scale: ts,
                    ..PactConfig::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid configuration runs to completion with conserved
    /// migration accounting, on machines with and without a CHMU.
    #[test]
    fn every_config_runs_safely(cfg in config_strategy(), fast in 16u64..200) {
        prop_assert!(cfg.validate().is_ok());
        let wl = workload();
        let mut mcfg = MachineConfig::skylake_cxl(fast);
        mcfg.llc.size_bytes = 32 * 1024;
        mcfg.window_cycles = 50_000;
        mcfg.pebs.rate = 25;
        mcfg.chmu_counters = if cfg.sampling == SamplingSource::Chmu { 512 } else { 0 };
        let machine = Machine::new(mcfg).unwrap();
        let mut policy = PactPolicy::new(cfg).unwrap();
        let r = machine.try_run(&wl, &mut policy).expect("run succeeds");
        prop_assert!(r.total_cycles > 0);
        prop_assert!(r.promotions <= r.demotions + fast);
        prop_assert!(r.counters.total_stalls() <= r.total_cycles);
    }

    /// Identical configurations give identical runs.
    #[test]
    fn configs_are_deterministic(cfg in config_strategy()) {
        let wl = workload();
        let mut mcfg = MachineConfig::skylake_cxl(96);
        mcfg.llc.size_bytes = 32 * 1024;
        mcfg.window_cycles = 50_000;
        mcfg.chmu_counters = 512;
        let machine = Machine::new(mcfg).unwrap();
        let run = || {
            let mut p = PactPolicy::new(cfg.clone()).unwrap();
            let r = machine.try_run(&wl, &mut p).expect("run succeeds");
            (r.total_cycles, r.promotions, r.demotions)
        };
        prop_assert_eq!(run(), run());
    }

    /// Alpha only shrinks accumulated PAC: with alpha < 1 the summed
    /// store PAC never exceeds the pure-accumulation sum.
    #[test]
    fn alpha_bounds_accumulation(alpha in 0.0f64..1.0) {
        let wl = workload();
        let mut mcfg = MachineConfig::skylake_cxl(0);
        mcfg.llc.size_bytes = 32 * 1024;
        mcfg.pebs.rate = 25;
        let machine = Machine::new(mcfg).unwrap();
        let total_pac = |alpha: f64| {
            let mut p = PactPolicy::new(PactConfig { alpha, ..PactConfig::default() }).unwrap();
            machine.try_run(&wl, &mut p).expect("run succeeds");
            p.store().iter().map(|(_, e)| e.pac).sum::<f64>()
        };
        let decayed = total_pac(alpha);
        let full = total_pac(1.0);
        prop_assert!(decayed <= full * 1.0001, "alpha {alpha}: {decayed} > {full}");
    }
}
