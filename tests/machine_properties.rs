//! Property-based tests over the full machine: random traces and
//! configurations must preserve the simulator's accounting invariants.

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    Access, AccessKind, FirstTouch, Machine, MachineConfig, TraceWorkload, LINE_BYTES, PAGE_BYTES,
};
use proptest::prelude::*;

/// Random access-trace strategy: mixes loads/stores, dependent and
/// independent, sequential runs and random jumps.
fn trace_strategy(pages: u64, len: usize) -> impl Strategy<Value = Vec<Access>> {
    prop::collection::vec(
        (0..pages * PAGE_BYTES / LINE_BYTES, 0u8..4, 0u16..16),
        1..len,
    )
    .prop_map(move |raw| {
        raw.into_iter()
            .map(|(line, kind, work)| {
                let vaddr = line * LINE_BYTES;
                let mut a = match kind {
                    0 => Access::load(vaddr),
                    1 => Access::dependent_load(vaddr),
                    2 => Access::store(vaddr),
                    _ => Access::load(vaddr),
                };
                a.work = work;
                a
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counter conservation on arbitrary traces: accesses split into
    /// loads and stores; hits plus load misses never exceed accesses;
    /// stalls never exceed total runtime; promotions never exceed
    /// demotions plus capacity.
    #[test]
    fn counters_are_conserved(trace in trace_strategy(64, 4_000), fast in 0u64..96) {
        let wl = TraceWorkload::new("prop", 64 * PAGE_BYTES, trace.clone());
        let mut cfg = MachineConfig::skylake_cxl(fast);
        cfg.llc.size_bytes = 32 * 1024;
        cfg.window_cycles = 20_000;
        let machine = Machine::new(cfg).unwrap();
        let mut pact = PactPolicy::new(PactConfig::default()).unwrap();
        let r = machine.try_run(&wl, &mut pact).expect("run succeeds");
        let c = &r.counters;
        prop_assert_eq!(c.accesses, trace.len() as u64);
        prop_assert_eq!(c.loads + c.stores, c.accesses);
        prop_assert_eq!(
            c.loads,
            trace.iter().filter(|a| a.kind == AccessKind::Load).count() as u64
        );
        prop_assert!(c.llc_hits + c.total_misses() <= c.accesses);
        prop_assert!(c.total_stalls() <= r.total_cycles);
        prop_assert!(r.promotions <= r.demotions + fast);
        // Every window's counters sum back to the cumulative totals.
        let window_accesses: u64 = r.windows.iter().map(|w| w.delta.accesses).sum();
        prop_assert_eq!(window_accesses, c.accesses);
    }

    /// Determinism under arbitrary traces and configurations.
    #[test]
    fn machine_is_deterministic(trace in trace_strategy(32, 2_000), seed in any::<u64>()) {
        let wl = TraceWorkload::new("prop", 32 * PAGE_BYTES, trace);
        let mut cfg = MachineConfig::skylake_cxl(16);
        cfg.seed = seed;
        cfg.llc.size_bytes = 16 * 1024;
        let machine = Machine::new(cfg).unwrap();
        let a = machine.try_run(&wl, &mut FirstTouch::new()).expect("run succeeds");
        let b = machine.try_run(&wl, &mut FirstTouch::new()).expect("run succeeds");
        prop_assert_eq!(a.total_cycles, b.total_cycles);
        prop_assert_eq!(a.counters, b.counters);
    }

    /// Monotonicity-ish: giving the machine a fast tier never makes a
    /// run slower than the all-slow configuration by more than noise.
    #[test]
    fn fast_tier_never_hurts_first_touch(trace in trace_strategy(48, 3_000)) {
        let wl = TraceWorkload::new("prop", 48 * PAGE_BYTES, trace);
        let mk = |fast: u64| {
            let mut cfg = MachineConfig::skylake_cxl(fast);
            cfg.llc.size_bytes = 16 * 1024;
            let r = Machine::new(cfg).unwrap().try_run(&wl, &mut FirstTouch::new());
            r.expect("run succeeds").total_cycles
        };
        let all_slow = mk(0);
        let all_fast = mk(1 << 20);
        prop_assert!(all_fast <= all_slow + all_slow / 20,
            "fast {all_fast} vs slow {all_slow}");
    }

    /// TOR-measured MLP stays within physical bounds (1 ..= total MSHRs
    /// across threads; single-threaded traces here).
    #[test]
    fn measured_mlp_is_physical(trace in trace_strategy(64, 3_000)) {
        let wl = TraceWorkload::new("prop", 64 * PAGE_BYTES, trace);
        let mut cfg = MachineConfig::skylake_cxl(0);
        cfg.llc.size_bytes = 16 * 1024;
        cfg.prefetch.enabled = false;
        let machine = Machine::new(cfg.clone()).unwrap();
        let r = machine.try_run(&wl, &mut FirstTouch::new()).expect("run succeeds");
        let mlp = r.counters.tor_mlp(pact_tiersim::Tier::Slow);
        prop_assert!(mlp >= 1.0);
        prop_assert!(mlp <= cfg.mshrs as f64 + 0.5, "mlp {mlp}");
    }
}
