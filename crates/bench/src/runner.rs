//! Shared experiment pieces: the paper's tier ratios and machine,
//! every evaluated policy by name, and the policies × ratios sweep.

use pact_baselines::{Alto, Colloid, Memtis, Nbt, NoTier, Nomad, Tpp};
use pact_core::{PactConfig, PactPolicy, RankBy};
use pact_tiersim::{MachineConfig, RunReport, SimError, TieringPolicy, PAGE_BYTES};

use crate::{Cell, Lab};

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
    /// `footprint_bytes`: none for a zero fast part, at least one page
    /// otherwise. The arithmetic is wide enough for any two `u32`
    /// parts, so no ratio overflows.
    pub fn fast_pages(&self, footprint_bytes: u64) -> u64 {
        let total_pages = u128::from(footprint_bytes.div_ceil(PAGE_BYTES));
        let parts = u64::from(self.fast) + u64::from(self.slow);
        let fast = total_pages * u128::from(self.fast) / u128::from(parts.max(1));
        // At most `total_pages`, since `fast <= parts`.
        u64::try_from(fast)
            .unwrap_or(u64::MAX)
            .max(u64::from(self.fast > 0))
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
    /// Samples PACT's page store took in over the run
    /// (`PacStore::global_samples`); `None` for the other systems.
    pub pac_samples: Option<u64>,
}

/// Why a cell could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The policy name is not in [`ALL_POLICIES`] (or a known variant).
    UnknownPolicy(String),
    /// `soar` needs a profiling pass first; run it as a cell with
    /// [`Lab::cell`], which performs it.
    NeedsProfile,
    /// A PACT configuration failed its own validation.
    InvalidPact(String),
    /// The simulation itself failed.
    Sim(SimError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownPolicy(name) => write!(f, "unknown policy '{name}'"),
            RunError::NeedsProfile => write!(f, "soar requires profiling; run it with Lab::cell"),
            RunError::InvalidPact(e) => write!(f, "invalid PACT configuration: {e}"),
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

/// The system a [`Cell`] runs: an evaluated system by name, or PACT
/// under a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// An evaluated system other than PACT, by its name in
    /// [`ALL_POLICIES`]; PACT's names convert to [`Policy::Pact`].
    System(String),
    /// PACT under this configuration.
    Pact(PactConfig),
}

impl Policy {
    /// A fresh instance of the policy: [`RunError::NeedsProfile`] for
    /// `soar`, whose profiling pass [`Lab::cell`] drives, and
    /// [`RunError::UnknownPolicy`] for a name outside [`ALL_POLICIES`].
    pub fn build(&self) -> Result<Box<dyn TieringPolicy>, RunError> {
        Ok(match self {
            Policy::Pact(cfg) => {
                Box::new(PactPolicy::new(cfg.clone()).map_err(RunError::InvalidPact)?)
            }
            Policy::System(name) => match name.as_str() {
                "colloid" => Box::new(Colloid::new()),
                "nbt" => Box::new(Nbt::new()),
                "alto" => Box::new(Alto::new()),
                "nomad" => Box::new(Nomad::new()),
                "tpp" => Box::new(Tpp::new()),
                "memtis" => Box::new(Memtis::new()),
                "notier" => Box::new(NoTier::new()),
                "soar" => return Err(RunError::NeedsProfile),
                other => return Err(RunError::UnknownPolicy(other.to_string())),
            },
        })
    }
}

/// Renders the name the policy reports in its runs: a system's name,
/// and `pact` or `pact-freq` by a PACT configuration's ranking.
impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Policy::System(name) => name,
            Policy::Pact(cfg) => match cfg.rank_by {
                RankBy::Pac => "pact",
                RankBy::Frequency => "pact-freq",
            },
        })
    }
}

/// The system `name`. `pact` and `pact-freq` resolve to
/// [`PactConfig::default`] and its [`RankBy::Frequency`] variant, so
/// one PACT configuration has one key however it is named.
impl From<&str> for Policy {
    fn from(name: &str) -> Self {
        match name {
            "pact" => Policy::Pact(PactConfig::default()),
            "pact-freq" => Policy::Pact(PactConfig {
                rank_by: RankBy::Frequency,
                ..PactConfig::default()
            }),
            other => Policy::System(other.to_string()),
        }
    }
}

impl From<PactConfig> for Policy {
    fn from(cfg: PactConfig) -> Self {
        Policy::Pact(cfg)
    }
}

/// Builds the evaluated system `name`; see [`Policy::build`].
pub fn make_policy(name: &str) -> Result<Box<dyn TieringPolicy>, RunError> {
    Policy::from(name).build()
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

/// Runs workload `workload` on `machine` under every `(policy, ratio)`
/// combination, plus the all-slow-tier reference, as one batch of
/// `lab`'s cells on its workers ([`Lab::cells`]).
///
/// The result is bit-identical for any worker count: cells share only
/// immutable state and are merged in `(policy, ratio)` index order. An
/// unknown policy or a failed run is returned as the error of the
/// first failing cell in that order.
pub fn ratio_sweep(
    lab: &Lab,
    workload: &str,
    machine: &MachineConfig,
    policies: &[&str],
    ratios: &[TierRatio],
) -> Result<SweepResult, RunError> {
    let mut cells = vec![Cell::cxl(workload, machine.clone())];
    for &policy in policies {
        cells.extend(
            ratios
                .iter()
                .map(|&ratio| Cell::new(workload, policy, ratio).on(machine.clone())),
        );
    }
    let outcomes = lab.cells(&cells)?;
    let rows = outcomes[1..].chunks(ratios.len());
    Ok(SweepResult {
        ratios: ratios.to_vec(),
        policies: policies.iter().map(|s| s.to_string()).collect(),
        slowdown: rows
            .clone()
            .map(|r| r.iter().map(|o| o.slowdown).collect())
            .collect(),
        promotions: rows
            .map(|r| r.iter().map(|o| o.promotions).collect())
            .collect(),
        cxl: outcomes[0].slowdown,
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
    use pact_workloads::suite::Scale;

    #[test]
    fn ratio_math() {
        let r = TierRatio::new(1, 1);
        assert_eq!(r.fast_pages(100 * PAGE_BYTES), 50);
        let r81 = TierRatio::new(8, 1);
        assert_eq!(r81.fast_pages(90 * PAGE_BYTES), 80);
        assert_eq!(TierRatio::new(1, 8).fast_pages(90 * PAGE_BYTES), 10);
        // A zero fast part is no fast tier; any other gets a page.
        assert_eq!(TierRatio::new(0, 1).fast_pages(90 * PAGE_BYTES), 0);
        assert_eq!(TierRatio::new(1, 1000).fast_pages(90 * PAGE_BYTES), 1);
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
    fn sweep_renders_consistent_tables() {
        let lab = Lab::new(Scale::Smoke, 2);
        let machine = experiment_machine(0);
        let ratios = [TierRatio::new(2, 1), TierRatio::new(1, 2)];
        let sweep = ratio_sweep(&lab, "gups", &machine, &["pact", "notier"], &ratios);
        let sweep = sweep.unwrap();
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
    fn unknown_policy_fails_the_sweep() {
        let lab = Lab::new(Scale::Smoke, 2);
        let (machine, ratios) = (experiment_machine(0), [TierRatio::new(1, 1)]);
        let policies = ["notier", "made-up"];
        let err = ratio_sweep(&lab, "gups", &machine, &policies, &ratios).unwrap_err();
        assert_eq!(err, RunError::UnknownPolicy("made-up".into()));
    }
}
