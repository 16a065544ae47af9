//! Deterministic configuration fuzzer (DESIGN.md §10): valid-but-edgy
//! machine configurations, fault plans, and synthetic workloads, each
//! run with every runtime invariant checked.
//!
//! Everything derives from one SplitMix64 stream per case, and the
//! per-case seed derives from `(master seed, case index)`, so a failing
//! case reproduces in isolation from the seed its assertion prints:
//! `run_case(seed)`.
//!
//! Each case runs its cell **twice** and byte-compares the serialized
//! reports and page-stall oracles (catching nondeterminism the
//! invariants cannot see), and PACT cells additionally pass through
//! [`PactPolicy::audit`].

use pact_core::{PactConfig, PactPolicy, RankBy};
use pact_stats::SplitMix64;
use pact_tiersim::{
    Access, FaultPlan, FirstTouch, Machine, MachineConfig, PebsScope, RunReport, StallFault, Tier,
    TieringPolicy, TraceWorkload, PAGE_BYTES,
};
use proptest::prelude::*;

/// Derives the deterministic seed of case `index` under `master`.
fn case_seed(master: u64, index: u32) -> u64 {
    SplitMix64::seed_from_u64(master ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .next_u64()
}

fn pick<T: Copy>(rng: &mut SplitMix64, options: &[T]) -> T {
    options[(rng.next_u64() % options.len() as u64) as usize]
}

/// Generates a valid machine configuration biased toward edge cases:
/// empty or tiny fast tiers, THP with small unit spans, short windows,
/// minimal MSHR counts, aggressive sampling, and (half the time) an
/// active fault plan. Invariant checking is always armed.
fn gen_config(rng: &mut SplitMix64) -> MachineConfig {
    let mut cfg = MachineConfig::skylake_cxl(pick(rng, &[0, 1, 7, 64, 256, 1024]));
    cfg.mshrs = 1 + (rng.next_u64() % 16) as usize;
    cfg.llc.size_bytes = pick(rng, &[16 << 10, 64 << 10, 256 << 10]);
    cfg.llc.ways = pick(rng, &[4, 8, 16]);
    cfg.window_cycles = 5_000 + rng.next_u64() % 95_000;
    cfg.pebs.rate = pick(rng, &[1, 5, 20, 50, 200]);
    cfg.pebs.scope = if rng.next_u64() & 1 == 0 {
        PebsScope::SlowOnly
    } else {
        PebsScope::BothTiers
    };
    cfg.prefetch.enabled = rng.next_u64() & 1 == 0;
    cfg.prefetch.coverage = rng.random::<f64>();
    cfg.thp = rng.next_u64().is_multiple_of(4);
    cfg.thp_unit_pages = pick(rng, &[2, 4, 8, 16]);
    cfg.migration.daemon_pages_per_window = pick(rng, &[0, 8, 256, 4_096]);
    cfg.chmu_counters = pick(rng, &[0, 0, 0, 64]);
    cfg.track_page_stalls = rng.next_u64().is_multiple_of(8);
    cfg.seed = rng.next_u64();
    if rng.next_u64() & 1 == 0 {
        cfg.fault_plan = Some(gen_fault_plan(rng));
    }
    cfg.check_invariants = true;
    cfg
}

fn gen_fault_plan(rng: &mut SplitMix64) -> FaultPlan {
    let window_start = rng.next_u64() % 4;
    let stall = if rng.next_u64() & 1 == 0 {
        Some(StallFault {
            tier: if rng.next_u64() & 1 == 0 {
                Tier::Fast
            } else {
                Tier::Slow
            },
            lines: 64 + rng.next_u64() % 5_000,
            prob: rng.random::<f64>() * 0.8,
        })
    } else {
        None
    };
    FaultPlan {
        seed: rng.next_u64(),
        window_start,
        window_end: window_start + 1 + rng.next_u64() % 64,
        drop_order: rng.random::<f64>() * 0.5,
        fail_migration: rng.random::<f64>() * 0.7,
        max_retries: (rng.next_u64() % 4) as u32,
        backoff_windows: 1 + rng.next_u64() % 3,
        stall,
        pebs_loss: rng.random::<f64>() * 0.3,
        chmu_overflow: rng.random::<f64>() * 0.2,
    }
}

/// Generates a small synthetic workload: a stream, a pointer chase, or
/// an interleaving of both, over 8–512 pages and 2k–10k accesses.
fn gen_workload(rng: &mut SplitMix64) -> TraceWorkload {
    let pages = 8 + rng.next_u64() % 505;
    let n = 2_000 + rng.next_u64() % 8_000;
    let mode = rng.next_u64() % 3;
    let lines_per_page = PAGE_BYTES / 64;
    let mut x = rng.next_u64() | 1;
    let mut trace = Vec::with_capacity(n as usize);
    for i in 0..n {
        let chase = match mode {
            0 => false,
            1 => true,
            _ => i & 2 == 0,
        };
        if chase {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let p = x % pages;
            let l = (x >> 32) % lines_per_page;
            trace.push(Access::dependent_load(p * PAGE_BYTES + l * 64).with_work(1));
        } else {
            let addr = (i * 64) % (pages * PAGE_BYTES);
            if i % 17 == 0 {
                trace.push(Access::store(addr));
            } else {
                trace.push(Access::load(addr));
            }
        }
    }
    TraceWorkload::new("fuzz", pages * PAGE_BYTES, trace)
}

enum FuzzPolicy {
    Pact(Box<PactPolicy>),
    First(FirstTouch),
}

impl FuzzPolicy {
    fn as_dyn(&mut self) -> &mut dyn TieringPolicy {
        match self {
            FuzzPolicy::Pact(p) => p.as_mut(),
            FuzzPolicy::First(p) => p,
        }
    }
}

fn gen_policy(rng: &mut SplitMix64) -> FuzzPolicy {
    match rng.next_u64() % 3 {
        0 => FuzzPolicy::Pact(Box::new(
            PactPolicy::new(PactConfig::default()).expect("default is valid"),
        )),
        1 => {
            let cfg = PactConfig {
                rank_by: RankBy::Frequency,
                ..PactConfig::default()
            };
            FuzzPolicy::Pact(Box::new(PactPolicy::new(cfg).expect("config is valid")))
        }
        _ => FuzzPolicy::First(FirstTouch::new()),
    }
}

/// Runs one fuzz case from its seed: generate, simulate twice with the
/// invariant set armed, byte-compare the reports and page-stall
/// oracles, and audit PACT's internal state. The error is a one-line
/// description of the first failure: a generated config rejected by
/// validation, an invariant violation (or any other simulation error),
/// report nondeterminism, or a policy audit failure.
fn run_case(case_seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::seed_from_u64(case_seed);
    let cfg = gen_config(&mut rng);
    cfg.validate()
        .map_err(|e| format!("generated config rejected: {e}"))?;
    let wl = gen_workload(&mut rng);
    let mut policy = gen_policy(&mut rng);
    let machine = Machine::new(cfg).expect("validated config");
    let mut run = || -> Result<RunReport, String> {
        machine
            .try_run(&wl, policy.as_dyn())
            .map_err(|e| format!("run failed: {e}"))
    };
    let r1 = run()?;
    let r2 = run()?;
    let (j1, j2) = (r1.to_json(), r2.to_json());
    if j1 != j2 {
        let pos = j1
            .bytes()
            .zip(j2.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(j1.len().min(j2.len()));
        return Err(format!("nondeterministic report (diverges at byte {pos})"));
    }
    if r1.page_stalls != r2.page_stalls {
        return Err("nondeterministic page-stall oracle".to_string());
    }
    if let FuzzPolicy::Pact(p) = &policy {
        p.audit().map_err(|e| format!("pact audit failed: {e}"))?;
    }
    Ok(())
}

/// The 60 cases of master seed 1, every one checking its invariants.
#[test]
fn seed_one_cases_run_clean() {
    let failures: Vec<String> = (0..60)
        .filter_map(|i| {
            let seed = case_seed(1, i);
            run_case(seed)
                .err()
                .map(|e| format!("case {i} seed={seed:#018x}: {e}"))
        })
        .collect();
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn arbitrary_seeds_run_clean(seed in any::<u64>()) {
        let r = run_case(seed);
        prop_assert!(r.is_ok(), "case seed {seed:#x} failed: {:?}", r.err());
    }
}
