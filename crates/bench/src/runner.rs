//! Shared experiment pieces: the paper's tier ratios and machine,
//! every evaluated policy by name, and the policies × ratios sweep.

use pact_baselines::{Alto, Colloid, Memtis, Nbt, NoTier, Nomad, Tpp};
use pact_core::{PactConfig, PactPolicy, RankBy};
use pact_obs::DEFAULT_RING_CAPACITY;
use pact_tiersim::{
    export_trace, MachineConfig, RunReport, SimError, TieringPolicy, TraceConfig, Tracer,
    PAGE_BYTES,
};

use crate::Harness;

/// A fast:slow tier-capacity ratio relative to the workload footprint
/// (the paper's x-axis: 8:1 … 1:8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierRatio {
    /// Fast parts.
    pub fast: u32,
    /// Slow parts.
    pub slow: u32,
}

impl TierRatio {
    /// The paper's seven evaluated ratios.
    pub const PAPER_SWEEP: [TierRatio; 7] = [
        TierRatio { fast: 8, slow: 1 },
        TierRatio { fast: 4, slow: 1 },
        TierRatio { fast: 2, slow: 1 },
        TierRatio { fast: 1, slow: 1 },
        TierRatio { fast: 1, slow: 2 },
        TierRatio { fast: 1, slow: 4 },
        TierRatio { fast: 1, slow: 8 },
    ];

    /// Creates a ratio.
    pub fn new(fast: u32, slow: u32) -> Self {
        Self { fast, slow }
    }

    /// Fast-tier capacity in base pages for a footprint of
    /// `footprint_bytes`. The arithmetic is wide enough for any two
    /// `u32` parts, so no ratio overflows.
    pub fn fast_pages(&self, footprint_bytes: u64) -> u64 {
        let total_pages = u128::from(footprint_bytes.div_ceil(PAGE_BYTES));
        let parts = u64::from(self.fast) + u64::from(self.slow);
        let fast = total_pages * u128::from(self.fast) / u128::from(parts.max(1));
        // At most `total_pages`, since `fast <= parts`.
        u64::try_from(fast).unwrap_or(u64::MAX).max(1)
    }
}

impl std::fmt::Display for TierRatio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.fast, self.slow)
    }
}

/// Names of all evaluated systems, in report order.
pub const ALL_POLICIES: [&str; 9] = [
    "pact", "colloid", "nbt", "alto", "nomad", "tpp", "memtis", "soar", "notier",
];

/// The machine configuration used by the experiments (the paper's
/// Skylake + emulated-CXL testbed), sized for `fast_pages`.
pub fn experiment_machine(fast_pages: u64) -> MachineConfig {
    MachineConfig::skylake_cxl(fast_pages)
}

/// Outcome of one policy run, normalized against the DRAM baseline.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Slowdown vs DRAM-only (0.26 = 26%).
    pub slowdown: f64,
    /// Base pages promoted.
    pub promotions: u64,
    /// Base pages demoted.
    pub demotions: u64,
    /// The full report for deeper analysis.
    pub report: RunReport,
}

/// Why a harness run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The policy name is not in [`ALL_POLICIES`] (or a known variant).
    UnknownPolicy(String),
    /// `soar` needs a profiling pass first; use
    /// [`Harness::run_policy`], which performs it.
    NeedsProfile,
    /// The simulation itself failed.
    Sim(SimError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownPolicy(name) => write!(f, "unknown policy '{name}'"),
            RunError::NeedsProfile => {
                write!(f, "soar requires profiling; use Harness::run_policy")
            }
            RunError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Builds a policy instance by name.
///
/// Returns [`RunError::NeedsProfile`] for `"soar"` (its profiling
/// pass is driven by [`Harness::run_policy`]) and
/// [`RunError::UnknownPolicy`] for names outside [`ALL_POLICIES`], so
/// sweep drivers can skip bad names instead of aborting mid-sweep.
#[expect(
    clippy::expect_used,
    reason = "PactConfig::default() passes its own validate() (pinned by a pact-core test), \
              and rank_by is not range-checked, so both PACT configs construct"
)]
pub fn make_policy(name: &str) -> Result<Box<dyn TieringPolicy>, RunError> {
    Ok(match name {
        "pact" => Box::new(PactPolicy::new(PactConfig::default()).expect("default is valid")),
        "pact-freq" => {
            let cfg = PactConfig {
                rank_by: RankBy::Frequency,
                ..PactConfig::default()
            };
            Box::new(PactPolicy::new(cfg).expect("config is valid"))
        }
        "colloid" => Box::new(Colloid::new()),
        "nbt" => Box::new(Nbt::new()),
        "alto" => Box::new(Alto::new()),
        "nomad" => Box::new(Nomad::new()),
        "tpp" => Box::new(Tpp::new()),
        "memtis" => Box::new(Memtis::new()),
        "notier" => Box::new(NoTier::new()),
        "soar" => return Err(RunError::NeedsProfile),
        other => return Err(RunError::UnknownPolicy(other.to_string())),
    })
}

/// Result of a policies × ratios sweep over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Swept tier ratios.
    pub ratios: Vec<TierRatio>,
    /// Policies, in input order.
    pub policies: Vec<String>,
    /// `slowdown[p][r]` for policy `p` at ratio `r`.
    pub slowdown: Vec<Vec<f64>>,
    /// `promotions[p][r]` in base pages.
    pub promotions: Vec<Vec<u64>>,
    /// Slowdown of the all-slow-tier run (the paper's gray "CXL" line).
    pub cxl: f64,
}

/// Replaces path-hostile characters in a workload/policy name so it can
/// serve as a trace-file stem.
fn file_stem(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Runs every `(policy, ratio)` combination for the harness's workload,
/// fanning the independent cells over `jobs` worker threads
/// (`jobs = 1` is the serial path; figures pass their lab's worker
/// count).
///
/// The result is bit-identical to the serial sweep for any worker
/// count: cells share only immutable state and are merged in
/// `(policy, ratio)` index order. Unknown policy names are skipped
/// with a warning instead of aborting the sweep; a failed run is
/// returned as the error of the first failing cell in that order.
///
/// When `trace` is set (figures pass `Lab::trace`, i.e.
/// `PACT_TRACE/<figure>`), its path is treated as a directory and every
/// cell runs traced, bypassing the cache, and writes one trace file named
/// `<workload>_<policy>_<F>-<S>.<ext>`. File names and contents derive
/// only from the cell's identity — never from worker scheduling — so
/// the files are byte-identical for any `jobs` count;
/// `crates/obs/tests/determinism.rs` pins this.
pub fn ratio_sweep(
    h: &Harness<'_>,
    policies: &[&str],
    ratios: &[TierRatio],
    jobs: usize,
    trace: Option<&TraceConfig>,
) -> Result<SweepResult, RunError> {
    let kept: Vec<&str> = policies
        .iter()
        .copied()
        .filter(|&p| {
            // Soar is built from the harness's profile, not by name.
            let ok = p == "soar" || make_policy(p).is_ok();
            if !ok {
                eprintln!("warning: skipping unknown policy '{p}'");
            }
            ok
        })
        .collect();
    // Warm every shared artifact serially so worker threads only read:
    // the DRAM baseline (via the CXL reference) and, if swept, the Soar
    // profile. OnceLock would serialize a race anyway; warming avoids
    // even that.
    let cxl = h.cxl_slowdown()?;
    if kept.contains(&"soar") {
        h.soar()?;
    }
    if let Some(cfg) = trace {
        if let Err(e) = std::fs::create_dir_all(&cfg.path) {
            eprintln!(
                "warning: cannot create trace directory {}: {e}",
                cfg.path.display()
            );
        }
    }
    let wl_stem = file_stem(&h.workload().name());
    let n = kept.len() * ratios.len();
    let outcomes = crate::exec::run_indexed(n, jobs, |i| {
        let p = kept[i / ratios.len()];
        let r = ratios[i % ratios.len()];
        let Some(cfg) = trace else {
            return h.run_policy(p, r, None);
        };
        let mut tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
        let out = h.run_policy(p, r, Some(&mut tracer))?;
        let label = format!("{}/{}/{}", h.workload().name(), p, r);
        let body = export_trace(&out.report, &tracer, &label, cfg.format);
        let file = cfg.path.join(format!(
            "{wl_stem}_{}_{}-{}.{}",
            file_stem(p),
            r.fast,
            r.slow,
            cfg.format.extension()
        ));
        if let Err(e) = std::fs::write(&file, body) {
            eprintln!("warning: cannot write trace {}: {e}", file.display());
        }
        Ok(out)
    })
    .into_iter()
    .collect::<Result<Vec<_>, RunError>>()?;
    let mut slowdown = Vec::with_capacity(kept.len());
    let mut promotions = Vec::with_capacity(kept.len());
    for row in outcomes.chunks(ratios.len()) {
        slowdown.push(row.iter().map(|o| o.slowdown).collect());
        promotions.push(row.iter().map(|o| o.promotions).collect());
    }
    Ok(SweepResult {
        ratios: ratios.to_vec(),
        policies: kept.iter().map(|s| s.to_string()).collect(),
        slowdown,
        promotions,
        cxl,
    })
}

impl SweepResult {
    /// Renders the slowdown table (one row per policy, one column per
    /// ratio), with the CXL reference line appended.
    pub fn render_slowdowns(&self) -> String {
        let mut header = vec!["policy".to_string()];
        header.extend(self.ratios.iter().map(|r| r.to_string()));
        let mut t = crate::Table::new(header);
        for (p, row) in self.policies.iter().zip(&self.slowdown) {
            let mut cells = vec![p.clone()];
            cells.extend(row.iter().map(|&s| crate::pct(s)));
            t.row(cells);
        }
        let mut cxl_row = vec!["(cxl-only)".to_string()];
        cxl_row.extend(self.ratios.iter().map(|_| crate::pct(self.cxl)));
        t.row(cxl_row);
        t.render()
    }

    /// Renders the promotion-count table (the paper's Table 2 format).
    pub fn render_promotions(&self) -> String {
        let mut header = vec!["policy".to_string()];
        header.extend(self.ratios.iter().map(|r| r.to_string()));
        let mut t = crate::Table::new(header);
        for (p, row) in self.policies.iter().zip(&self.promotions) {
            let mut cells = vec![p.clone()];
            cells.extend(row.iter().map(|&n| crate::count(n)));
            t.row(cells);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lab;
    use pact_tiersim::FaultPlan;
    use pact_workloads::suite::Scale;
    use std::sync::Arc;

    #[test]
    fn ratio_math() {
        let r = TierRatio::new(1, 1);
        assert_eq!(r.fast_pages(100 * PAGE_BYTES), 50);
        let r81 = TierRatio::new(8, 1);
        assert_eq!(r81.fast_pages(90 * PAGE_BYTES), 80);
        assert_eq!(TierRatio::new(1, 8).fast_pages(90 * PAGE_BYTES), 10);
        assert_eq!(format!("{r}"), "1:1");
        // Extreme parts overflow neither the sum nor the product. The
        // largest footprint has 2^52 pages, and 2^52 * u32::MAX needs
        // more than 64 bits before the division.
        let max = u32::MAX;
        for (fast, slow, small, huge) in [
            (max, 1, 99, (1 << 52) - (1 << 20)),
            (1, max, 1, 1 << 20),
            (max, max, 50, 1 << 51),
        ] {
            let r = TierRatio::new(fast, slow);
            assert_eq!(r.fast_pages(100 * PAGE_BYTES), small, "{r}");
            assert_eq!(r.fast_pages(u64::MAX), huge, "{r}");
        }
    }

    #[test]
    fn make_policy_covers_all_names() {
        for name in ALL_POLICIES {
            if name == "soar" {
                continue;
            }
            assert_eq!(make_policy(name).expect("known").name(), name);
        }
        assert_eq!(make_policy("pact-freq").expect("known").name(), "pact-freq");
    }

    #[test]
    fn unknown_policy_is_an_error_not_a_panic() {
        assert_eq!(
            make_policy("bogus").err(),
            Some(RunError::UnknownPolicy("bogus".into()))
        );
        assert_eq!(make_policy("soar").err(), Some(RunError::NeedsProfile));
        let msg = RunError::UnknownPolicy("bogus".into()).to_string();
        assert!(msg.contains("unknown policy"), "{msg}");
    }

    #[test]
    fn harness_with_validates_the_config() {
        let lab = Lab::new(Scale::Smoke, 9);
        let mut bad = experiment_machine(0);
        bad.window_cycles = 0;
        let err = lab.harness_with("gups", bad).err().unwrap();
        assert!(err.to_string().contains("window_cycles"), "{err}");
        // An invalid fault plan is caught the same way.
        let mut bad = experiment_machine(0);
        bad.fault_plan = Some(FaultPlan {
            drop_order: 2.0,
            ..FaultPlan::default()
        });
        assert!(lab.harness_with("gups", bad).is_err());
    }

    #[test]
    fn run_policy_reports_unknown_names() {
        let lab = Lab::new(Scale::Smoke, 9);
        let h = lab.harness("gups").unwrap();
        let err = h
            .run_policy("bogus", TierRatio::new(1, 1), None)
            .unwrap_err();
        assert_eq!(err, RunError::UnknownPolicy("bogus".into()));
    }

    #[test]
    fn sim_errors_are_returned_not_panicked() {
        let wl = pact_tiersim::TraceWorkload::new(
            "bad",
            PAGE_BYTES,
            vec![pact_tiersim::Access::load(2 * PAGE_BYTES)],
        );
        let lab = Lab::new(Scale::Smoke, 9);
        lab.insert_workload("bad", Arc::new(wl));
        let h = lab.harness("bad").unwrap();
        let err = h.dram_cycles().unwrap_err();
        assert!(matches!(err, SimError::AddressOutOfRange { .. }), "{err}");
        for policy in ["notier", "soar"] {
            let err = h
                .run_policy(policy, TierRatio::new(1, 1), None)
                .unwrap_err();
            assert!(matches!(err, RunError::Sim(_)), "{policy}: {err}");
        }
        let err = ratio_sweep(&h, &["pact"], &[TierRatio::new(1, 1)], 1, None).unwrap_err();
        assert!(err.to_string().contains("beyond footprint"), "{err}");
    }

    #[test]
    fn harness_normalizes_against_dram() {
        let lab = Lab::new(Scale::Smoke, 1);
        let h = lab.harness("silo").unwrap();
        let out = h.run_policy("notier", TierRatio::new(1, 1), None).unwrap();
        assert!(out.slowdown > -0.01, "slowdown {}", out.slowdown);
        let cxl = h.cxl_slowdown().unwrap();
        assert!(
            cxl >= out.slowdown - 0.05,
            "cxl {} vs 1:1 {}",
            cxl,
            out.slowdown
        );
    }

    #[test]
    fn harness_runs_soar_via_profile() {
        let lab = Lab::new(Scale::Smoke, 1);
        let h = lab.harness("silo").unwrap();
        let out = h.run_policy("soar", TierRatio::new(1, 1), None).unwrap();
        assert_eq!(out.report.policy, "soar");
        assert_eq!(out.promotions, 0);
    }

    #[test]
    fn sweep_renders_consistent_tables() {
        let lab = Lab::new(Scale::Smoke, 2);
        let h = lab.harness("gups").unwrap();
        let ratios = [TierRatio::new(2, 1), TierRatio::new(1, 2)];
        let sweep = ratio_sweep(&h, &["pact", "notier"], &ratios, 1, None).unwrap();
        assert_eq!(sweep.policies, vec!["pact", "notier"]);
        assert_eq!(sweep.slowdown.len(), 2);
        assert_eq!(sweep.slowdown[0].len(), 2);
        // NoTier never migrates.
        assert_eq!(sweep.promotions[1], vec![0, 0]);
        let slow = sweep.render_slowdowns();
        assert!(slow.contains("pact") && slow.contains("(cxl-only)"));
        assert_eq!(slow.lines().count(), 2 + 3); // header + rule + 3 rows
        let promos = sweep.render_promotions();
        assert!(promos.contains("notier"));
    }

    #[test]
    fn sweep_skips_unknown_policies() {
        let lab = Lab::new(Scale::Smoke, 2);
        let h = lab.harness("gups").unwrap();
        let ratios = [TierRatio::new(1, 1)];
        let sweep = ratio_sweep(&h, &["notier", "made-up"], &ratios, 1, None).unwrap();
        assert_eq!(sweep.policies, vec!["notier"]);
        assert_eq!(sweep.slowdown.len(), 1);
    }

    #[test]
    fn dram_cycles_is_cached_and_stable() {
        let lab = Lab::new(Scale::Smoke, 3);
        let h = lab.harness("gups").unwrap();
        let a = h.dram_cycles().unwrap();
        let b = h.dram_cycles().unwrap();
        assert_eq!(a, b);
        assert!(a > 0);
        // Another machine config gets its own baseline.
        let mut cfg = experiment_machine(0);
        cfg.mshrs = 1;
        let h = lab.harness_with("gups", cfg.clone()).unwrap();
        let fresh = Lab::new(Scale::Smoke, 3);
        let fresh = fresh.harness_with("gups", cfg).unwrap();
        assert_eq!(h.dram_cycles(), fresh.dram_cycles());
        assert_ne!(h.dram_cycles(), Ok(a));
    }
}
