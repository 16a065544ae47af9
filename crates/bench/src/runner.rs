//! Shared experiment runner: builds machines at paper tier ratios,
//! normalizes against the DRAM-only baseline, and constructs every
//! evaluated policy by name.

use std::sync::{Arc, OnceLock};

use pact_baselines::{soar_profile, Alto, Colloid, Memtis, Nbt, NoTier, Nomad, Soar, Tpp};
use pact_core::{PactConfig, PactPolicy, RankBy};
use pact_obs::DEFAULT_RING_CAPACITY;
use pact_tiersim::{
    export_trace, ConfigError, FaultPlan, Machine, MachineConfig, RunReport, RunSpec, SimError,
    TieringPolicy, TraceConfig, Tracer, Workload, FAULTS_ENV, PAGE_BYTES,
};

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

/// The process-wide fault plan from `PACT_FAULTS`, parsed once.
///
/// Sweep cells run on worker threads; parsing the environment once up
/// front guarantees every cell sees the same plan even if the
/// environment is mutated mid-run. An invalid spec warns once and is
/// ignored here — binaries validate it eagerly at startup (see
/// [`crate::validate_fault_env`]) so interactive users get a hard error.
fn env_fault_plan() -> Option<&'static FaultPlan> {
    static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| match crate::env::fault_plan() {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("warning: ignoring {FAULTS_ENV}: {e}");
            None
        }
    })
    .as_ref()
}

/// The configuration a [`Harness`] actually runs `cfg` under: an
/// explicit plan on the config wins; otherwise every run in the
/// process picks up the `PACT_FAULTS` plan (parsed once — workers must
/// all see the same plan).
pub(crate) fn effective_config(mut cfg: MachineConfig) -> MachineConfig {
    if cfg.fault_plan.is_none() {
        cfg.fault_plan = env_fault_plan().cloned();
    }
    cfg
}

/// Outcome of one policy run, normalized against the DRAM baseline.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Policy name.
    pub policy: String,
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

/// Whether `name` can be run by the harness (includes `"soar"`, which
/// the harness handles via its profiling pass).
pub fn is_runnable_policy(name: &str) -> bool {
    name == "soar" || make_policy(name).is_ok()
}

/// Per-workload experiment driver: owns (a shared handle to) the
/// workload, caches the DRAM-only baseline and the Soar profile, and
/// runs policies at arbitrary tier ratios.
///
/// All run methods take `&self`: the expensive artifacts (workload
/// data, baseline cycles, Soar profile) are built once and shared, so
/// a sweep can fan independent `(policy, ratio)` cells across threads
/// against one `Harness`.
pub struct Harness {
    workload: Arc<dyn Workload>,
    base_cfg: MachineConfig,
    dram_cycles: OnceLock<Result<u64, SimError>>,
    soar_profile: OnceLock<pact_baselines::SoarProfile>,
}

impl Harness {
    /// Wraps a workload with the default experiment machine.
    pub fn new(workload: Box<dyn Workload>) -> Self {
        Self::from_arc(Arc::from(workload))
    }

    /// Wraps an already-shared workload (e.g. one `Arc` fanned across
    /// several harnesses) with the default experiment machine.
    pub fn from_arc(workload: Arc<dyn Workload>) -> Self {
        Self {
            workload,
            base_cfg: experiment_machine(0),
            dram_cycles: OnceLock::new(),
            soar_profile: OnceLock::new(),
        }
    }

    /// Overrides the base machine configuration (tier capacity is still
    /// set per run) after validating it, so an invalid configuration is
    /// a structured error here instead of a failure deep inside the
    /// first run. The cached DRAM baseline and Soar profile belong to
    /// the old configuration and are dropped.
    pub fn with_machine(mut self, cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        self.base_cfg = cfg;
        self.dram_cycles = OnceLock::new();
        self.soar_profile = OnceLock::new();
        Ok(self)
    }

    /// The wrapped workload.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// A shared handle to the wrapped workload, for building further
    /// harnesses over the same (expensive) artifact.
    pub fn workload_arc(&self) -> Arc<dyn Workload> {
        Arc::clone(&self.workload)
    }

    fn machine(&self, fast_pages: u64) -> Result<Machine, SimError> {
        let mut cfg = effective_config(self.base_cfg.clone());
        cfg.fast_tier_pages = fast_pages;
        Machine::new(cfg).map_err(SimError::Config)
    }

    /// Cycles of the ideal DRAM-only run, computed once: concurrent
    /// callers block until the first one finishes.
    pub fn dram_cycles(&self) -> Result<u64, SimError> {
        self.dram_cycles
            .get_or_init(|| {
                let machine = self.machine(u64::MAX / PAGE_BYTES)?;
                let report = machine.try_run(self.workload.as_ref(), &mut NoTier::new())?;
                Ok(report.total_cycles)
            })
            .clone()
    }

    /// Slowdown of running entirely on the slow tier (the "CXL" line).
    pub fn cxl_slowdown(&self) -> Result<f64, SimError> {
        let report = self
            .machine(0)?
            .try_run(self.workload.as_ref(), &mut NoTier::new())?;
        Ok(report.total_cycles as f64 / self.dram_cycles()? as f64 - 1.0)
    }

    /// The Soar object-placement profile (computed once, cached). The
    /// DRAM baseline runs first, so a workload that cannot run is
    /// reported as its error rather than a panic in the profiling pass.
    fn soar(&self) -> Result<&pact_baselines::SoarProfile, SimError> {
        self.dram_cycles()?;
        Ok(self
            .soar_profile
            .get_or_init(|| soar_profile(&self.base_cfg, self.workload.as_ref())))
    }

    /// Runs the evaluated system `policy_name` (any of [`ALL_POLICIES`],
    /// Soar's profiling pass included) at `ratio`, normalized against
    /// the DRAM baseline. `tracer`, when given, records the run's event
    /// trace without perturbing it.
    pub fn run_policy(
        &self,
        policy_name: &str,
        ratio: TierRatio,
        tracer: Option<&mut Tracer>,
    ) -> Result<Outcome, RunError> {
        let fast_pages = ratio.fast_pages(self.workload.footprint_bytes());
        if policy_name == "soar" {
            let mut soar = Soar::from_profile(self.soar()?, fast_pages);
            return self.run_custom(&mut soar, fast_pages, tracer);
        }
        self.run_custom(make_policy(policy_name)?.as_mut(), fast_pages, tracer)
    }

    /// Runs a caller-constructed policy (for custom configurations,
    /// e.g. PACT ablations) with an explicit fast-tier size in pages.
    pub fn run_custom(
        &self,
        policy: &mut dyn TieringPolicy,
        fast_pages: u64,
        tracer: Option<&mut Tracer>,
    ) -> Result<Outcome, RunError> {
        let report = self.machine(fast_pages)?.run(RunSpec {
            tracer,
            ..RunSpec::new(&[self.workload.as_ref()], policy)
        })?;
        let dram = self.dram_cycles()?;
        Ok(Outcome {
            policy: report.policy.clone(),
            slowdown: report.total_cycles as f64 / dram as f64 - 1.0,
            promotions: report.promotions,
            demotions: report.demotions,
            report,
        })
    }
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

/// What a [`ratio_sweep`] runs its cells on: a bare [`Harness`], where
/// every cell simulates, or a [`LabHarness`](crate::LabHarness), whose
/// untraced cells are shared through its lab's cache.
pub trait Cells: Sync {
    /// The harness the cells run on (traced cells always run here).
    fn harness(&self) -> &Harness;
    /// The untraced outcome of `policy` at `ratio`.
    fn outcome(&self, policy: &str, ratio: TierRatio) -> Result<Arc<Outcome>, RunError>;
    /// Slowdown of the all-slow-tier run (the "CXL" line).
    fn cxl(&self) -> Result<f64, RunError>;
}

impl Cells for Harness {
    fn harness(&self) -> &Harness {
        self
    }

    fn outcome(&self, policy: &str, ratio: TierRatio) -> Result<Arc<Outcome>, RunError> {
        self.run_policy(policy, ratio, None).map(Arc::new)
    }

    fn cxl(&self) -> Result<f64, RunError> {
        Ok(self.cxl_slowdown()?)
    }
}

/// Runs every `(policy, ratio)` combination for the cells' workload,
/// fanning the independent cells over `jobs` worker threads
/// (`jobs = 1` is the serial path; binaries pass
/// [`jobs_from_env`](crate::exec::jobs_from_env)).
///
/// The result is bit-identical to the serial sweep for any worker
/// count: cells share only immutable state and are merged in
/// `(policy, ratio)` index order. Unknown policy names are skipped
/// with a warning instead of aborting the sweep; a failed run is
/// returned as the error of the first failing cell in that order.
///
/// When `trace` is set (figures pass `Lab::trace`, i.e.
/// `PACT_TRACE/<figure>`), its path is treated as a directory and every
/// cell runs traced, bypassing any cache, and writes one trace file named
/// `<workload>_<policy>_<F>-<S>.<ext>`. File names and contents derive
/// only from the cell's identity — never from worker scheduling — so
/// the files are byte-identical for any `jobs` count; the CI
/// observability gate pins this.
pub fn ratio_sweep(
    cells: &impl Cells,
    policies: &[&str],
    ratios: &[TierRatio],
    jobs: usize,
    trace: Option<&TraceConfig>,
) -> Result<SweepResult, RunError> {
    let h = cells.harness();
    let kept: Vec<&str> = policies
        .iter()
        .copied()
        .filter(|&p| {
            let ok = is_runnable_policy(p);
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
    let cxl = cells.cxl()?;
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
    let outcomes = crate::exec::try_run_indexed(n, jobs, |i| {
        let p = kept[i / ratios.len()];
        let r = ratios[i % ratios.len()];
        let Some(cfg) = trace else {
            return cells.outcome(p, r);
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
        Ok(Arc::new(out))
    })?;
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
    use pact_workloads::suite::{build, Scale};

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
        assert!(is_runnable_policy("soar"));
        assert!(is_runnable_policy("pact"));
        assert!(!is_runnable_policy("bogus"));
        let msg = RunError::UnknownPolicy("bogus".into()).to_string();
        assert!(msg.contains("unknown policy"), "{msg}");
    }

    #[test]
    fn with_machine_validates_the_config() {
        let h = Harness::new(build("gups", Scale::Smoke, 9));
        let mut bad = experiment_machine(0);
        bad.window_cycles = 0;
        let err = h.with_machine(bad).err().unwrap();
        assert!(err.to_string().contains("window_cycles"), "{err}");
        // An invalid fault plan is caught the same way.
        let h = Harness::new(build("gups", Scale::Smoke, 9));
        let mut bad = experiment_machine(0);
        bad.fault_plan = Some(FaultPlan {
            drop_order: 2.0,
            ..FaultPlan::default()
        });
        assert!(h.with_machine(bad).is_err());
    }

    #[test]
    fn run_policy_reports_unknown_names() {
        let h = Harness::new(build("gups", Scale::Smoke, 9));
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
        let h = Harness::new(Box::new(wl));
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
        let h = Harness::new(build("silo", Scale::Smoke, 1));
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
        let h = Harness::new(build("silo", Scale::Smoke, 1));
        let out = h.run_policy("soar", TierRatio::new(1, 1), None).unwrap();
        assert_eq!(out.policy, "soar");
        assert_eq!(out.promotions, 0);
    }

    #[test]
    fn harness_runs_pact() {
        let h = Harness::new(build("silo", Scale::Smoke, 1));
        let out = h.run_policy("pact", TierRatio::new(1, 2), None).unwrap();
        assert_eq!(out.policy, "pact");
        assert!(out.slowdown.is_finite());
    }

    #[test]
    fn sweep_renders_consistent_tables() {
        let h = Harness::new(build("gups", Scale::Smoke, 2));
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
        let h = Harness::new(build("gups", Scale::Smoke, 2));
        let ratios = [TierRatio::new(1, 1)];
        let sweep = ratio_sweep(&h, &["notier", "made-up"], &ratios, 1, None).unwrap();
        assert_eq!(sweep.policies, vec!["notier"]);
        assert_eq!(sweep.slowdown.len(), 1);
    }

    #[test]
    fn dram_cycles_is_cached_and_stable() {
        let h = Harness::new(build("gups", Scale::Smoke, 3));
        let a = h.dram_cycles().unwrap();
        let b = h.dram_cycles().unwrap();
        assert_eq!(a, b);
        assert!(a > 0);
        // A new machine config drops the cached baseline.
        let mut cfg = experiment_machine(0);
        cfg.mshrs = 1;
        let h = h.with_machine(cfg.clone()).unwrap();
        let fresh = Harness::new(build("gups", Scale::Smoke, 3))
            .with_machine(cfg)
            .unwrap();
        assert_eq!(h.dram_cycles(), fresh.dram_cycles());
        assert_ne!(h.dram_cycles(), Ok(a));
    }

    #[test]
    fn shared_workload_harnesses_agree() {
        let h1 = Harness::new(build("gups", Scale::Smoke, 4));
        let h2 = Harness::from_arc(h1.workload_arc());
        assert_eq!(h1.dram_cycles(), h2.dram_cycles());
        let a = h1.run_policy("pact", TierRatio::new(1, 2), None).unwrap();
        let b = h2.run_policy("pact", TierRatio::new(1, 2), None).unwrap();
        assert_eq!(a.report.total_cycles, b.report.total_cycles);
    }
}
