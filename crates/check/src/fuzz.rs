//! Deterministic configuration fuzzer: hundreds of valid-but-edgy
//! machine configurations, fault plans, and synthetic workloads, each
//! run with the full runtime invariant set armed.
//!
//! Everything derives from one SplitMix64 stream per case, and the
//! per-case seed derives from `(master seed, case index)`, so:
//!
//! * the same `(cases, seed)` pair always produces the same ledger;
//! * a failing case reproduces in isolation from its printed seed via
//!   `tierctl check --case 0x<seed>`, no matter which sweep found it.
//!
//! Each case runs its cell **twice** and byte-compares the serialized
//! reports and page-stall oracles (catching nondeterminism the
//! invariants cannot see), and PACT cells additionally pass through
//! [`PactPolicy::audit`](pact_core::PactPolicy::audit).

use pact_core::{PactConfig, PactPolicy, RankBy};
use pact_stats::SplitMix64;
use pact_tiersim::{
    Access, FaultPlan, FirstTouch, InvariantSet, Machine, MachineConfig, PebsScope, RunReport,
    StallFault, Tier, TieringPolicy, TraceWorkload, PAGE_BYTES,
};

/// Fuzzer parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// Number of generated cases.
    pub cases: u32,
    /// Master seed; every case seed derives from it.
    pub seed: u64,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self {
            cases: 120,
            seed: 1,
        }
    }
}

/// Summary of one passing case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSummary {
    /// Name of the policy the case ran.
    pub policy: String,
    /// Number of completed windows.
    pub windows: usize,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Whether a fault plan was armed.
    pub faulted: bool,
}

/// Outcome ledger of one fuzz sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzLedger {
    /// One line per case (plus a repro line after each failure).
    pub lines: Vec<String>,
    /// Seeds of the failing cases, in case order.
    pub failures: Vec<u64>,
}

impl FuzzLedger {
    /// True when every case passed.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the ledger, one case per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Derives the deterministic seed of case `index` under `master`.
pub fn case_seed(master: u64, index: u32) -> u64 {
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
    cfg.invariants = Some(InvariantSet::all());
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
        // Invariant: the default config and a rank_by change both pass
        // PactConfig::validate (pinned by pact-core tests).
        0 => FuzzPolicy::Pact(Box::new(
            PactPolicy::new(PactConfig::default()).expect("default is valid"), // Invariant: see above
        )),
        1 => {
            let cfg = PactConfig {
                rank_by: RankBy::Frequency,
                ..PactConfig::default()
            };
            // Invariant: see above — validate accepts this config.
            FuzzPolicy::Pact(Box::new(PactPolicy::new(cfg).expect("config is valid")))
        }
        _ => FuzzPolicy::First(FirstTouch::new()),
    }
}

/// Runs one fuzz case from its seed: generate, simulate twice with the
/// invariant set armed, byte-compare the reports and page-stall
/// oracles, and audit PACT's
/// internal state.
///
/// # Errors
///
/// Returns a one-line description of the first failure: a generated
/// config rejected by validation, an invariant violation (or any other
/// simulation error), report nondeterminism, or a policy audit
/// failure.
pub fn run_case(case_seed: u64) -> Result<CaseSummary, String> {
    let mut rng = SplitMix64::seed_from_u64(case_seed);
    let cfg = gen_config(&mut rng);
    cfg.validate()
        .map_err(|e| format!("generated config rejected: {e}"))?;
    let wl = gen_workload(&mut rng);
    let mut policy = gen_policy(&mut rng);
    let faulted = cfg.fault_plan.is_some();
    // Invariant: cfg.validate() just passed.
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
    Ok(CaseSummary {
        policy: r1.policy,
        windows: r1.windows.len(),
        total_cycles: r1.total_cycles,
        faulted,
    })
}

/// Runs `opts.cases` generated cases and collects the ledger. Failing
/// cases append a one-line repro command.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzLedger {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for i in 0..opts.cases {
        let seed = case_seed(opts.seed, i);
        match run_case(seed) {
            Ok(s) => lines.push(format!(
                "case {i:04} seed={seed:#018x} ok   policy={} windows={} cycles={}{}",
                s.policy,
                s.windows,
                s.total_cycles,
                if s.faulted { " faults=on" } else { "" }
            )),
            Err(e) => {
                lines.push(format!("case {i:04} seed={seed:#018x} FAIL {e}"));
                lines.push(format!(
                    "  repro: cargo run -p pact-bench --bin tierctl -- check --case {seed:#x}"
                ));
                failures.push(seed);
            }
        }
    }
    FuzzLedger { lines, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_sweep_is_green_and_deterministic() {
        let opts = FuzzOptions { cases: 20, seed: 1 };
        let a = run_fuzz(&opts);
        assert!(a.is_ok(), "\n{}", a.render());
        let b = run_fuzz(&opts);
        assert_eq!(a, b);
        assert_eq!(a.lines.len(), 20);
    }

    #[test]
    fn different_master_seeds_generate_different_cases() {
        assert_ne!(case_seed(1, 0), case_seed(2, 0));
        assert_ne!(case_seed(1, 0), case_seed(1, 1));
    }

    #[test]
    fn failing_case_renders_a_repro_line() {
        let ledger = FuzzLedger {
            lines: vec![
                "case 0003 seed=0x00000000deadbeef FAIL invariant 'migration-ledger' violated"
                    .into(),
                "  repro: cargo run -p pact-bench --bin tierctl -- check --case 0xdeadbeef".into(),
            ],
            failures: vec![0xdead_beef],
        };
        assert!(!ledger.is_ok());
        assert!(ledger
            .render()
            .contains("tierctl -- check --case 0xdeadbeef"));
    }

    #[test]
    fn single_case_reproduces_from_its_seed() {
        let seed = case_seed(1, 4);
        let a = run_case(seed).unwrap();
        let b = run_case(seed).unwrap();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        fn arbitrary_seeds_run_clean(seed in any::<u64>()) {
            let r = run_case(seed);
            prop_assert!(r.is_ok(), "case seed {seed:#x} failed: {:?}", r.err());
        }
    }
}
