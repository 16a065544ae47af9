//! The reproduction lab: the one place in pact-bench that builds a
//! [`Machine`], and the cache behind `tierctl repro`, so a workload
//! several figures use is built once and a cell several figures
//! request runs once.
//!
//! A lab serves one `(scale, seed)` under one resolved environment
//! ([`Env`]). Every run it makes, through [`Lab::run`] or [`Lab::cell`],
//! applies the environment's fault plan unless the run's configuration
//! carries a plan of its own; figures take their worker count from it
//! too.
//!
//! A [`Cell`] — workload, policy, tier ratio and machine — names every
//! simulation a figure reports. Sharing is decided by keys, never by
//! equal numbers:
//!
//! * suite workloads by name;
//! * the DRAM reference and Soar's profile by workload plus the
//!   [`config_fingerprint`] of the cell's machine, so a figure that
//!   changes any config field gets its own;
//! * cell outcomes by that pair plus the policy (a PACT configuration
//!   whatever it is called) and the fast-tier size.
//!
//! Concurrent requests for one key block on its `OnceLock`, so a key
//! never runs twice. A comparison that must simulate both of its sides
//! uses a fresh lab for each. A traced run is not a cell: it goes
//! through [`Lab::run`] with the cell's [`Lab::machine`] and
//! [`Lab::policy`], as `tierctl trace` does.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use pact_baselines::{soar_profile, NoTier, Soar, SoarProfile};
use pact_core::PactPolicy;
use pact_tiersim::{
    config_fingerprint, Machine, MachineConfig, RunReport, RunSpec, SimError, TieringPolicy,
    Workload, PAGE_BYTES,
};
use pact_workloads::suite::{build, Scale};

use crate::{experiment_machine, Env, Outcome, Policy, RunError, TierRatio};

/// A map whose values are computed once per key: the first caller runs
/// `init`, concurrent callers of the same key block until it is done.
struct Memo<K, V>(Mutex<BTreeMap<K, Arc<OnceLock<V>>>>);

impl<K: Ord, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Self(Mutex::new(BTreeMap::new()))
    }

    fn get(&self, key: K, init: impl FnOnce() -> V) -> V {
        // The map lock is held only to find the slot, never while a
        // value is computed, so distinct keys compute in parallel. The
        // one update under it inserts an empty slot, which leaves the
        // map valid even if a holder panicked, so a poisoned lock is
        // recovered.
        let slot = Arc::clone(
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_default(),
        );
        slot.get_or_init(init).clone()
    }
}

/// The tier ratio of a cell with no fast tier at all.
const NO_FAST_TIER: TierRatio = TierRatio { fast: 0, slow: 0 };

/// One simulation the evaluation reports: `policy` running `workload`
/// with a fast tier sized by `ratio`, on `machine` (whose
/// `fast_tier_pages` the ratio overrides).
#[derive(Debug, Clone)]
pub struct Cell {
    /// Suite workload name.
    pub workload: String,
    /// The tiering system.
    pub policy: Policy,
    /// Fast:slow capacity relative to the workload's footprint.
    pub ratio: TierRatio,
    /// The machine.
    pub machine: MachineConfig,
}

impl Cell {
    /// `policy` on `workload` at `ratio`, on the experiment machine.
    pub fn new(workload: &str, policy: impl Into<Policy>, ratio: TierRatio) -> Self {
        Self {
            workload: workload.to_string(),
            policy: policy.into(),
            ratio,
            machine: experiment_machine(0),
        }
    }

    /// The cell on `machine` instead.
    pub fn on(self, machine: MachineConfig) -> Self {
        Self { machine, ..self }
    }

    /// The all-slow-tier reference on `machine` (the paper's gray "CXL"
    /// line): NoTier with no fast tier.
    pub fn cxl(workload: &str, machine: MachineConfig) -> Self {
        Self::new(workload, "notier", NO_FAST_TIER).on(machine)
    }
}

/// `workload/policy/ratio`: the label of trace exports, metrics and
/// `tierctl` lines. The machine is not part of it.
impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.workload, self.policy, self.ratio)
    }
}

/// What a [`Lab`] did: the totals `tierctl repro` reports on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabStats {
    /// Suite workloads built.
    pub workload_builds: u64,
    /// Runs asked of the lab: every run it made plus every cell it
    /// answered from its cache.
    pub cells_requested: u64,
    /// Simulations actually run (Soar's profiling pass aside).
    pub cells_run: u64,
}

/// A workload on a machine: what the DRAM reference and Soar's profile
/// are shared by.
type Base = (String, u64);

/// Shared workloads, references and cell outcomes for one
/// `(scale, seed)` reproduction under one environment; see the module
/// docs for what is shared.
pub struct Lab {
    pub(crate) scale: Scale,
    pub(crate) seed: u64,
    env: Env,
    workloads: Memo<String, Arc<dyn Workload>>,
    dram_cycles: Memo<Base, Result<u64, SimError>>,
    soar_profiles: Memo<Base, Arc<SoarProfile>>,
    cells: Memo<(Base, String, u64), Result<Arc<Outcome>, RunError>>,
    workload_builds: AtomicU64,
    cells_requested: AtomicU64,
    cells_run: AtomicU64,
}

fn bump(n: &AtomicU64) {
    n.fetch_add(1, Ordering::Relaxed);
}

impl Lab {
    /// An empty lab for suite workloads at `scale`, seeded with `seed`,
    /// under the default environment: no fault plan, one worker per
    /// available core.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            scale,
            seed,
            env: Env::default(),
            workloads: Memo::new(),
            dram_cycles: Memo::new(),
            soar_profiles: Memo::new(),
            cells: Memo::new(),
            workload_builds: AtomicU64::new(0),
            cells_requested: AtomicU64::new(0),
            cells_run: AtomicU64::new(0),
        }
    }

    /// Runs everything under `env`: its fault plan and worker count.
    pub fn with_env(mut self, env: Env) -> Self {
        self.env = env;
        self
    }

    /// Workers a figure fans its runs over: at most this many
    /// simulations run at once.
    pub fn jobs(&self) -> usize {
        self.env.jobs
    }

    /// The suite workload `name`, built on first use.
    pub fn workload(&self, name: &str) -> Arc<dyn Workload> {
        self.workloads.get(name.to_string(), || {
            bump(&self.workload_builds);
            Arc::from(build(name, self.scale, self.seed))
        })
    }

    /// Runs `spec` on a machine built from `cfg`, with the lab's fault
    /// plan when `cfg` has none: the one way any caller simulates,
    /// colocated workloads and tracers included.
    ///
    /// # Errors
    ///
    /// An invalid `cfg` or a failed run, as its [`SimError`].
    pub fn run(&self, mut cfg: MachineConfig, spec: RunSpec<'_>) -> Result<RunReport, SimError> {
        if cfg.fault_plan.is_none() {
            cfg.fault_plan = self.env.faults.clone();
        }
        let machine = Machine::new(cfg).map_err(SimError::Config)?;
        bump(&self.cells_requested);
        bump(&self.cells_run);
        machine.run(spec)
    }

    /// The outcome of `cell`, normalised against its DRAM reference.
    /// Each key runs once and later requests share its outcome.
    ///
    /// # Errors
    ///
    /// An unknown or invalid policy, an invalid machine, or a failed
    /// run (the cell's or its DRAM reference's).
    pub fn cell(&self, cell: &Cell) -> Result<Arc<Outcome>, RunError> {
        let key = (
            self.base(cell),
            format!("{:?}", cell.policy),
            self.machine(cell).fast_tier_pages,
        );
        let mut ran = false;
        let out = self.cells.get(key, || {
            ran = true;
            self.simulate(cell).map(Arc::new)
        });
        if !ran {
            bump(&self.cells_requested);
        }
        out
    }

    /// The outcomes of `cells`, in order, run on the lab's workers. The
    /// batch's distinct DRAM references are claimed first: a cell needs
    /// its reference only once it has run (Soar's before its profile),
    /// so a worker starts cells while another runs a reference instead
    /// of waiting. Each key runs once, as with [`Lab::cell`].
    ///
    /// # Errors
    ///
    /// The error of the first failing cell in `cells` order.
    pub fn cells(&self, cells: &[Cell]) -> Result<Vec<Arc<Outcome>>, RunError> {
        let bases: BTreeMap<Base, &Cell> = cells.iter().map(|c| (self.base(c), c)).collect();
        let refs: Vec<&Cell> = bases.into_values().collect();
        let jobs = refs.len() + cells.len();
        let outs = crate::run_indexed(jobs, self.jobs(), |i| match i.checked_sub(refs.len()) {
            None => {
                // A failed reference stays memoised; its cells return it.
                let _ = self.dram_cycles(refs[i]);
                None
            }
            Some(c) => Some(self.cell(&cells[c])),
        });
        outs.into_iter().flatten().collect()
    }

    /// The machine `cell` runs on: its own, with the fast tier sized by
    /// its ratio against its workload's footprint.
    pub fn machine(&self, cell: &Cell) -> MachineConfig {
        let mut cfg = cell.machine.clone();
        cfg.fast_tier_pages = cell
            .ratio
            .fast_pages(self.workload(&cell.workload).footprint_bytes());
        cfg
    }

    /// A fresh instance of `cell`'s policy for its fast tier: Soar from
    /// the lab's profile of the cell's workload and machine, any other
    /// by [`Policy::build`].
    ///
    /// # Errors
    ///
    /// As [`Policy::build`]; for Soar, a failed DRAM reference.
    pub fn policy(&self, cell: &Cell) -> Result<Box<dyn TieringPolicy>, RunError> {
        if !matches!(&cell.policy, Policy::System(name) if name == "soar") {
            return cell.policy.build();
        }
        // The DRAM reference runs first, so a workload that cannot run
        // is reported as its error rather than a panic in the profiling
        // pass.
        self.dram_cycles(cell)?;
        let profile = self.soar_profiles.get(self.base(cell), || {
            let workload = self.workload(&cell.workload);
            Arc::new(soar_profile(&cell.machine, workload.as_ref()))
        });
        let fast_pages = self.machine(cell).fast_tier_pages;
        Ok(Box::new(Soar::from_profile(&profile, fast_pages)))
    }

    /// Totals so far.
    pub fn stats(&self) -> LabStats {
        let get = |n: &AtomicU64| n.load(Ordering::Relaxed);
        LabStats {
            workload_builds: get(&self.workload_builds),
            cells_requested: get(&self.cells_requested),
            cells_run: get(&self.cells_run),
        }
    }

    /// `cell`'s workload and machine; the fast-tier size is the cell's
    /// ratio's, so it is left out.
    fn base(&self, cell: &Cell) -> Base {
        let mut machine = cell.machine.clone();
        machine.fast_tier_pages = 0;
        (cell.workload.clone(), config_fingerprint(&machine))
    }

    /// Cycles of the ideal DRAM-only run of `cell`'s workload on its
    /// machine, computed once per [`Base`].
    fn dram_cycles(&self, cell: &Cell) -> Result<u64, SimError> {
        self.dram_cycles.get(self.base(cell), || {
            let mut cfg = cell.machine.clone();
            cfg.fast_tier_pages = u64::MAX / PAGE_BYTES;
            let workload = self.workload(&cell.workload);
            let report = self.run(cfg, RunSpec::new(&[workload.as_ref()], &mut NoTier::new()))?;
            Ok(report.total_cycles)
        })
    }

    /// One run of `cell`, normalised against its DRAM reference.
    fn simulate(&self, cell: &Cell) -> Result<Outcome, RunError> {
        let workload = self.workload(&cell.workload);
        let workloads = [workload.as_ref()];
        let run = |policy: &mut dyn TieringPolicy| {
            self.run(self.machine(cell), RunSpec::new(&workloads, policy))
        };
        let (report, pac_samples) = match &cell.policy {
            Policy::Pact(cfg) => {
                let mut policy = PactPolicy::new(cfg.clone()).map_err(RunError::InvalidPact)?;
                let report = run(&mut policy)?;
                (report, Some(policy.store().global_samples()))
            }
            Policy::System(_) => (run(self.policy(cell)?.as_mut())?, None),
        };
        let dram = self.dram_cycles(cell)?;
        Ok(Outcome {
            slowdown: report.total_cycles as f64 / dram as f64 - 1.0,
            promotions: report.promotions,
            demotions: report.demotions,
            report,
            pac_samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio_sweep;
    use pact_core::{PactConfig, RankBy};
    use pact_tiersim::FaultPlan;

    /// `(cells requested, cells run, workload builds)`.
    fn totals(lab: &Lab) -> (u64, u64, u64) {
        let s = lab.stats();
        (s.cells_requested, s.cells_run, s.workload_builds)
    }

    #[test]
    fn a_repeated_key_runs_once_and_matches_a_fresh_run() {
        let lab = Lab::new(Scale::Smoke, 42);
        let cell = Cell::new("gups", "pact", TierRatio::new(1, 1));
        // Four workers race for one key; exactly one simulates it,
        // after its DRAM reference.
        let outs = crate::run_indexed(8, 4, |_| lab.cell(&cell).unwrap());
        assert!(outs.iter().all(|o| Arc::ptr_eq(o, &outs[0])));
        assert_eq!(totals(&lab), (9, 2, 1));
        let fresh = Lab::new(Scale::Smoke, 42).cell(&cell).unwrap();
        assert_eq!(outs[0].report.to_json(), fresh.report.to_json());
        // The CXL reference is a cached cell too.
        let cxl = Cell::cxl("gups", experiment_machine(0));
        for _ in 0..2 {
            lab.cell(&cxl).unwrap();
        }
        assert_eq!(totals(&lab), (11, 3, 1));
        assert_eq!(lab.machine(&cxl).fast_tier_pages, 0);
    }

    #[test]
    fn one_pact_configuration_is_one_key() {
        let ratio = TierRatio::new(1, 2);
        let lab = Lab::new(Scale::Smoke, 42);
        lab.cell(&Cell::new("gups", "notier", ratio)).unwrap();
        let before = lab.stats().cells_run;
        let named = lab.cell(&Cell::new("gups", "pact", ratio)).unwrap();
        let built = Cell::new("gups", PactConfig::default(), ratio);
        assert!(Arc::ptr_eq(&named, &lab.cell(&built).unwrap()));
        assert_eq!(lab.stats().cells_run, before + 1);
        let fresh = Lab::new(Scale::Smoke, 42).cell(&built).unwrap();
        assert_eq!(named.report.to_json(), fresh.report.to_json());
        let freq = PactConfig {
            rank_by: RankBy::Frequency,
            ..PactConfig::default()
        };
        assert_eq!(Policy::from("pact-freq"), Policy::Pact(freq));
    }

    #[test]
    fn a_key_differing_only_in_config_runs_again() {
        let lab = Lab::new(Scale::Smoke, 42);
        let mut thp = experiment_machine(0);
        thp.thp = true;
        let mut armed = experiment_machine(0);
        armed.check_invariants = true;
        for machine in [experiment_machine(0), thp, armed] {
            let cell = Cell::new("gups", "notier", TierRatio::new(1, 2)).on(machine);
            lab.cell(&cell).unwrap();
        }
        // Each machine runs its cell and its own DRAM reference.
        assert_eq!(totals(&lab), (6, 6, 1));
    }

    #[test]
    fn bad_cells_are_errors() {
        let lab = Lab::new(Scale::Smoke, 9);
        let cell = |policy: Policy| Cell::new("gups", policy, TierRatio::new(1, 1));
        let err = lab.cell(&cell("bogus".into())).unwrap_err();
        assert_eq!(err, RunError::UnknownPolicy("bogus".into()));
        let bad = PactConfig {
            reservoir: 0,
            ..PactConfig::default()
        };
        let err = lab.cell(&cell(bad.into())).unwrap_err();
        assert!(matches!(err, RunError::InvalidPact(_)), "{err}");
        // A policy that cannot be built runs nothing.
        assert_eq!(lab.stats().cells_run, 0);
        let mut bad = experiment_machine(0);
        bad.window_cycles = 0;
        let err = lab.cell(&cell("pact".into()).on(bad)).unwrap_err();
        assert!(matches!(err, RunError::Sim(SimError::Config(_))), "{err}");
        assert!(err.to_string().contains("window_cycles"), "{err}");
        // An invalid fault plan is caught the same way.
        let mut bad = experiment_machine(0);
        bad.fault_plan = Some(FaultPlan {
            drop_order: 2.0,
            ..FaultPlan::default()
        });
        let err = lab.cell(&cell("pact".into()).on(bad)).unwrap_err();
        assert!(matches!(err, RunError::Sim(SimError::Config(_))), "{err}");
        // A machine that fails validation runs nothing either.
        assert_eq!(lab.stats().cells_run, 0);
    }

    /// A lab whose batches run on four workers.
    fn parallel_lab(seed: u64) -> Lab {
        Lab::new(Scale::Smoke, seed).with_env(Env {
            jobs: 4,
            ..Env::default()
        })
    }

    #[test]
    fn a_batch_matches_its_cells_run_one_by_one() {
        let ratio = TierRatio::new(1, 2);
        let mut thp = experiment_machine(0);
        thp.thp = true;
        let cells = [
            Cell::new("gups", "pact", ratio),
            Cell::new("silo", "colloid", ratio),
            Cell::cxl("gups", experiment_machine(0)),
            Cell::new("gups", "soar", ratio).on(thp),
        ];
        let batch = parallel_lab(42).cells(&cells).unwrap();
        let serial = Lab::new(Scale::Smoke, 42);
        for (cell, out) in cells.iter().zip(&batch) {
            let one = serial.cell(cell).unwrap();
            assert_eq!(out.report.to_json(), one.report.to_json(), "{cell}");
        }
    }

    #[test]
    fn a_batch_runs_a_repeated_or_cached_key_once() {
        let lab = parallel_lab(42);
        let cached = Cell::new("gups", "notier", TierRatio::new(1, 1));
        lab.cell(&cached).unwrap();
        // The cell and its DRAM reference.
        assert_eq!(totals(&lab), (2, 2, 1));
        let repeated = Cell::new("gups", "pact", TierRatio::new(1, 1));
        let batch = [repeated.clone(), cached.clone(), repeated, cached];
        let outs = lab.cells(&batch).unwrap();
        assert!(Arc::ptr_eq(&outs[0], &outs[2]) && Arc::ptr_eq(&outs[1], &outs[3]));
        assert_eq!(totals(&lab), (6, 3, 1));
    }

    #[test]
    fn a_batch_returns_the_first_failing_cells_error() {
        let ratio = TierRatio::new(1, 1);
        let cells = ["notier", "bogus", "made-up", "pact"].map(|p| Cell::new("gups", p, ratio));
        let err = parallel_lab(9).cells(&cells).unwrap_err();
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
        let wl: Arc<dyn Workload> = Arc::new(wl);
        lab.workloads.get("bad".into(), || wl);
        let cell = |policy| Cell::new("bad", policy, TierRatio::new(1, 1));
        let err = lab.dram_cycles(&cell("notier")).unwrap_err();
        assert!(matches!(err, SimError::AddressOutOfRange { .. }), "{err}");
        for policy in ["notier", "soar"] {
            let err = lab.cell(&cell(policy)).unwrap_err();
            assert!(matches!(err, RunError::Sim(_)), "{policy}: {err}");
        }
        let machine = experiment_machine(0);
        let ratios = [TierRatio::new(1, 1)];
        let err = ratio_sweep(&lab, "bad", &machine, &["pact"], &ratios).unwrap_err();
        assert!(err.to_string().contains("beyond footprint"), "{err}");
    }

    #[test]
    fn cells_normalise_against_dram() {
        let lab = Lab::new(Scale::Smoke, 1);
        let cell = Cell::new("silo", "notier", TierRatio::new(1, 1));
        let out = lab.cell(&cell).unwrap();
        assert!(out.slowdown > -0.01, "slowdown {}", out.slowdown);
        assert_eq!(out.pac_samples, None);
        let cxl = lab.cell(&Cell::cxl("silo", experiment_machine(0)));
        let cxl = cxl.unwrap().slowdown;
        assert!(
            cxl >= out.slowdown - 0.05,
            "cxl {cxl} vs 1:1 {}",
            out.slowdown
        );
        // Soar runs from its profile and never migrates.
        let soar = lab.cell(&Cell::new("silo", "soar", TierRatio::new(1, 1)));
        let soar = soar.unwrap();
        assert_eq!((soar.report.policy.as_str(), soar.promotions), ("soar", 0));
    }

    #[test]
    fn dram_cycles_is_cached_and_stable() {
        let lab = Lab::new(Scale::Smoke, 3);
        let cell = Cell::new("gups", "notier", TierRatio::new(1, 1));
        let a = lab.dram_cycles(&cell).unwrap();
        assert!(a > 0 && lab.dram_cycles(&cell) == Ok(a));
        assert_eq!(lab.stats().cells_run, 1);
        // Another machine gets its own baseline.
        let mut machine = experiment_machine(0);
        machine.mshrs = 1;
        let cell = cell.on(machine);
        let fresh = Lab::new(Scale::Smoke, 3);
        assert_eq!(lab.dram_cycles(&cell), fresh.dram_cycles(&cell));
        assert_ne!(lab.dram_cycles(&cell), Ok(a));
    }

    #[test]
    fn runs_the_lab_makes_apply_its_plan_unless_the_config_has_one() {
        let plan = FaultPlan::parse("pebs_loss=0.9,seed=3").unwrap();
        let faulted = Lab::new(Scale::Smoke, 42).with_env(Env {
            faults: Some(plan),
            ..Env::default()
        });
        let clean = Lab::new(Scale::Smoke, 42);
        let samples = |lab: &Lab, cfg: MachineConfig| {
            let wl = lab.workload("gups");
            let mut policy = crate::make_policy("pact").unwrap();
            let report = lab.run(cfg, RunSpec::new(&[wl.as_ref()], policy.as_mut()));
            report.unwrap().counters.pebs_samples
        };
        let (cfg, mut inert) = (experiment_machine(0), experiment_machine(0));
        assert_ne!(samples(&faulted, cfg.clone()), samples(&clean, cfg.clone()));
        // An explicit plan wins over the lab's.
        inert.fault_plan = Some(FaultPlan::default());
        assert_eq!(samples(&faulted, inert), samples(&clean, cfg));
    }
}
