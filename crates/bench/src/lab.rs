//! The reproduction lab: the one place in pact-bench that builds a
//! [`Machine`], and the cache behind `tierctl repro`, so a workload
//! several figures use is built once and a cell several figures
//! request runs once.
//!
//! A lab serves one `(scale, seed)` under one resolved environment
//! ([`Env`]). Every run it makes, through [`Lab::run`] or a
//! [`Harness`] it hands out, applies the environment's fault plan
//! unless the run's configuration carries a plan of its own; figures
//! take their worker count and trace root from it too.
//!
//! Sharing is decided by keys, never by equal numbers:
//!
//! * suite workloads by name;
//! * harnesses by workload plus the [`config_fingerprint`] of the
//!   machine config, so a figure that changes any config field gets
//!   its own harness and DRAM reference;
//! * within a harness, untraced named-policy outcomes and the CXL
//!   reference by `(policy, fast_pages)`.
//!
//! Concurrent requests for one key block on its `OnceLock`, so a key
//! never runs twice. Runs of caller-built policies and traced runs are
//! never cached. A comparison that must simulate both of its sides
//! uses a fresh lab for each.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use pact_baselines::{soar_profile, NoTier, Soar, SoarProfile};
use pact_tiersim::{
    config_fingerprint, ConfigError, Machine, MachineConfig, RunReport, RunSpec, SimError,
    TieringPolicy, TraceConfig, Tracer, Workload, PAGE_BYTES,
};
use pact_workloads::suite::{build, Scale};

use crate::{experiment_machine, make_policy, Env, Outcome, RunError, TierRatio};

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

/// What a [`Lab`] did: the totals `tierctl repro` reports on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabStats {
    /// Suite workloads built.
    pub workload_builds: u64,
    /// Harnesses created (each computes its own DRAM reference).
    pub harnesses: u64,
    /// Runs asked of the lab: every run it made plus every request a
    /// harness answered from its cache.
    pub cells_requested: u64,
    /// Simulations actually run (Soar's profiling pass aside).
    pub cells_run: u64,
}

/// Shared workloads and harnesses for one `(scale, seed)` reproduction
/// under one environment; see the module docs for what is shared.
pub struct Lab {
    pub(crate) scale: Scale,
    pub(crate) seed: u64,
    env: Env,
    workloads: Memo<String, Arc<dyn Workload>>,
    harnesses: Memo<(String, u64), Result<Arc<HarnessState>, ConfigError>>,
    workload_builds: AtomicU64,
    harness_count: AtomicU64,
    cells_requested: AtomicU64,
    cells_run: AtomicU64,
}

fn bump(n: &AtomicU64) {
    n.fetch_add(1, Ordering::Relaxed);
}

impl Lab {
    /// An empty lab for suite workloads at `scale`, seeded with `seed`,
    /// under the default environment: no fault plan, no trace, one
    /// worker per available core.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            scale,
            seed,
            env: Env::default(),
            workloads: Memo::new(),
            harnesses: Memo::new(),
            workload_builds: AtomicU64::new(0),
            harness_count: AtomicU64::new(0),
            cells_requested: AtomicU64::new(0),
            cells_run: AtomicU64::new(0),
        }
    }

    /// Runs everything under `env`: its fault plan, trace root and
    /// worker count.
    pub fn with_env(mut self, env: Env) -> Self {
        self.env = env;
        self
    }

    /// Worker count for sweeps and figures.
    pub fn jobs(&self) -> usize {
        self.env.jobs
    }

    /// Where `figure` writes its sweep traces: `<root>/<figure>/`, so
    /// two figures that sweep the same cell keep both files.
    pub(crate) fn trace(&self, figure: &str) -> Option<TraceConfig> {
        self.env.trace.as_ref().map(|t| TraceConfig {
            path: t.path.join(figure),
            format: t.format,
        })
    }

    /// The suite workload `name`, built on first use.
    pub fn workload(&self, name: &str) -> Arc<dyn Workload> {
        self.workloads.get(name.to_string(), || {
            bump(&self.workload_builds);
            Arc::from(build(name, self.scale, self.seed))
        })
    }

    /// The harness for workload `name` on the experiment machine.
    pub fn harness(&self, name: &str) -> Result<Harness<'_>, ConfigError> {
        self.harness_with(name, experiment_machine(0))
    }

    /// The harness for workload `name` on machine `cfg` (tier capacity
    /// is set per run), validated on first use.
    pub fn harness_with(&self, name: &str, cfg: MachineConfig) -> Result<Harness<'_>, ConfigError> {
        let key = (name.to_string(), config_fingerprint(&cfg));
        let state = self.harnesses.get(key, || {
            bump(&self.harness_count);
            cfg.validate()?;
            Ok(Arc::new(HarnessState {
                workload: self.workload(name),
                cfg,
                dram_cycles: OnceLock::new(),
                soar_profile: OnceLock::new(),
                cells: Memo::new(),
            }))
        })?;
        Ok(Harness { lab: self, state })
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
        bump(&self.cells_requested);
        bump(&self.cells_run);
        Machine::new(cfg).map_err(SimError::Config)?.run(spec)
    }

    /// Totals so far.
    pub fn stats(&self) -> LabStats {
        let get = |n: &AtomicU64| n.load(Ordering::Relaxed);
        LabStats {
            workload_builds: get(&self.workload_builds),
            harnesses: get(&self.harness_count),
            cells_requested: get(&self.cells_requested),
            cells_run: get(&self.cells_run),
        }
    }

    /// Serves `workload` as the suite workload `name`, so a test can
    /// run a harness over a workload the suite cannot build.
    #[cfg(test)]
    pub(crate) fn insert_workload(&self, name: &str, workload: Arc<dyn Workload>) {
        self.workloads.get(name.to_string(), || workload);
    }
}

/// What a [`Lab`] keeps per harness: the workload, the base machine,
/// and everything computed from them once.
struct HarnessState {
    workload: Arc<dyn Workload>,
    cfg: MachineConfig,
    dram_cycles: OnceLock<Result<u64, SimError>>,
    soar_profile: OnceLock<SoarProfile>,
    cells: Memo<(String, u64), Result<Arc<Outcome>, RunError>>,
}

/// Per-workload experiment driver, handed out by a [`Lab`]: runs
/// policies at any tier ratio on one base machine, normalised against
/// that machine's DRAM-only run.
///
/// Every method takes `&self` and its state is shared, so a sweep can
/// fan independent `(policy, ratio)` cells across threads. The DRAM
/// baseline and the Soar profile are computed once, and each untraced
/// named-policy cell and the CXL reference run once per key.
pub struct Harness<'a> {
    lab: &'a Lab,
    state: Arc<HarnessState>,
}

impl Harness<'_> {
    /// The wrapped workload.
    pub fn workload(&self) -> &dyn Workload {
        self.state.workload.as_ref()
    }

    /// Cycles of the ideal DRAM-only run, computed once: concurrent
    /// callers block until the first one finishes.
    pub fn dram_cycles(&self) -> Result<u64, SimError> {
        self.state
            .dram_cycles
            .get_or_init(|| {
                let cfg = self.config(u64::MAX / PAGE_BYTES);
                let report = self
                    .lab
                    .run(cfg, RunSpec::new(&[self.workload()], &mut NoTier::new()))?;
                Ok(report.total_cycles)
            })
            .clone()
    }

    /// Slowdown of running entirely on the slow tier (the "CXL" line).
    /// It is NoTier with no fast tier, so it is cached as that cell.
    pub fn cxl_slowdown(&self) -> Result<f64, RunError> {
        let out = self.cell("notier", 0, || self.outcome(&mut NoTier::new(), 0, None))?;
        Ok(out.slowdown)
    }

    /// Runs the evaluated system `name` (any of
    /// [`ALL_POLICIES`](crate::ALL_POLICIES), Soar's profiling pass
    /// included) at `ratio`, normalised against the DRAM baseline.
    /// Untraced, it runs once per key; with a `tracer` it always runs,
    /// and records the run's event trace without perturbing it.
    pub fn run_policy(
        &self,
        name: &str,
        ratio: TierRatio,
        tracer: Option<&mut Tracer>,
    ) -> Result<Arc<Outcome>, RunError> {
        let fast_pages = ratio.fast_pages(self.workload().footprint_bytes());
        let run =
            |tracer| self.outcome(self.policy(name, fast_pages)?.as_mut(), fast_pages, tracer);
        match tracer {
            None => self.cell(name, fast_pages, || run(None)),
            tracer => run(tracer).map(Arc::new),
        }
    }

    /// Runs a caller-constructed policy (for custom configurations,
    /// e.g. PACT ablations) with an explicit fast-tier size in pages.
    /// Never cached: the harness cannot key a caller-built policy.
    pub fn run_custom(
        &self,
        policy: &mut dyn TieringPolicy,
        fast_pages: u64,
    ) -> Result<Outcome, RunError> {
        self.outcome(policy, fast_pages, None)
    }

    /// The evaluated system `name` for a fast tier of `fast_pages`,
    /// built the way [`Harness::run_policy`] builds it: Soar from this
    /// harness's profile, every other name by
    /// [`make_policy`](crate::make_policy).
    pub fn policy(&self, name: &str, fast_pages: u64) -> Result<Box<dyn TieringPolicy>, RunError> {
        if name == "soar" {
            return Ok(Box::new(Soar::from_profile(self.soar()?, fast_pages)));
        }
        make_policy(name)
    }

    /// The Soar object-placement profile (computed once, cached). The
    /// DRAM baseline runs first, so a workload that cannot run is
    /// reported as its error rather than a panic in the profiling pass.
    pub(crate) fn soar(&self) -> Result<&SoarProfile, SimError> {
        self.dram_cycles()?;
        Ok(self
            .state
            .soar_profile
            .get_or_init(|| soar_profile(&self.state.cfg, self.workload())))
    }

    /// The base machine with a fast tier of `fast_pages`.
    fn config(&self, fast_pages: u64) -> MachineConfig {
        let mut cfg = self.state.cfg.clone();
        cfg.fast_tier_pages = fast_pages;
        cfg
    }

    /// The untraced outcome cached under `(policy, fast_pages)`; an
    /// answer from the cache counts as a request the lab did not run.
    fn cell(
        &self,
        policy: &str,
        fast_pages: u64,
        run: impl FnOnce() -> Result<Outcome, RunError>,
    ) -> Result<Arc<Outcome>, RunError> {
        let mut ran = false;
        let key = (policy.to_string(), fast_pages);
        let out = self.state.cells.get(key, || {
            ran = true;
            run().map(Arc::new)
        });
        if !ran {
            bump(&self.lab.cells_requested);
        }
        out
    }

    /// One run of `policy`, normalised against the DRAM baseline.
    fn outcome(
        &self,
        policy: &mut dyn TieringPolicy,
        fast_pages: u64,
        tracer: Option<&mut Tracer>,
    ) -> Result<Outcome, RunError> {
        let report = self.lab.run(
            self.config(fast_pages),
            RunSpec {
                tracer,
                ..RunSpec::new(&[self.workload()], policy)
            },
        )?;
        let dram = self.dram_cycles()?;
        Ok(Outcome {
            slowdown: report.total_cycles as f64 / dram as f64 - 1.0,
            promotions: report.promotions,
            demotions: report.demotions,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio_sweep;
    use pact_tiersim::{fnv1a, FaultPlan, InvariantSet, TraceFormat};

    /// `(cells requested, cells run, workload builds, harnesses)`.
    fn totals(lab: &Lab) -> (u64, u64, u64, u64) {
        let s = lab.stats();
        (
            s.cells_requested,
            s.cells_run,
            s.workload_builds,
            s.harnesses,
        )
    }

    #[test]
    fn a_repeated_key_runs_once_and_matches_a_fresh_run() {
        let lab = Lab::new(Scale::Smoke, 42);
        let ratio = TierRatio::new(1, 1);
        // Four workers race for one key; exactly one simulates it,
        // after the harness's DRAM reference.
        let outs = crate::run_indexed(8, 4, |_| {
            let h = lab.harness("gups").unwrap();
            h.run_policy("pact", ratio, None).unwrap()
        });
        assert!(outs.iter().all(|o| Arc::ptr_eq(o, &outs[0])));
        assert_eq!(totals(&lab), (9, 2, 1, 1));
        let fresh = Lab::new(Scale::Smoke, 42);
        let fresh = fresh.harness("gups").unwrap();
        let fresh = fresh.run_policy("pact", ratio, None).unwrap();
        assert_eq!(
            fnv1a(outs[0].report.to_json().as_bytes()),
            fnv1a(fresh.report.to_json().as_bytes())
        );
        // The CXL reference is a cached cell too; custom runs and
        // traced runs never are.
        let h = lab.harness("gups").unwrap();
        for _ in 0..2 {
            h.cxl_slowdown().unwrap();
            h.run_custom(&mut NoTier::new(), 1).unwrap();
            h.run_policy("pact", ratio, Some(&mut Tracer::ring(16)))
                .unwrap();
        }
        assert_eq!(totals(&lab), (15, 7, 1, 1));
    }

    #[test]
    fn a_key_differing_only_in_config_runs_again() {
        let lab = Lab::new(Scale::Smoke, 42);
        let mut thp = experiment_machine(0);
        thp.thp = true;
        let mut armed = experiment_machine(0);
        armed.invariants = Some(InvariantSet::all());
        for cfg in [experiment_machine(0), thp, armed] {
            let h = lab.harness_with("gups", cfg).unwrap();
            h.run_policy("notier", TierRatio::new(1, 2), None).unwrap();
        }
        // Each harness runs its cell and its own DRAM reference.
        assert_eq!(totals(&lab), (6, 6, 1, 3));
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
            let mut policy = make_policy("pact").unwrap();
            let report = lab.run(cfg, RunSpec::new(&[wl.as_ref()], policy.as_mut()));
            report.unwrap().counters.pebs_samples
        };
        let (cfg, mut inert) = (experiment_machine(0), experiment_machine(0));
        assert_ne!(samples(&faulted, cfg.clone()), samples(&clean, cfg.clone()));
        // An explicit plan wins over the lab's.
        inert.fault_plan = Some(FaultPlan::default());
        assert_eq!(samples(&faulted, inert), samples(&clean, cfg));
    }

    #[test]
    fn figures_sweeping_one_cell_keep_both_trace_sets() {
        let root = std::env::temp_dir().join(format!("pact-lab-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let lab = Lab::new(Scale::Smoke, 42).with_env(Env {
            trace: Some(TraceConfig {
                path: root.clone(),
                format: TraceFormat::Jsonl,
            }),
            ..Env::default()
        });
        let h = lab.harness("gups").unwrap();
        let ratios = [TierRatio::new(1, 1)];
        // The cell is already cached; a traced sweep must run it anyway.
        h.run_policy("notier", ratios[0], None).unwrap();
        for figure in ["fig04", "fig05"] {
            ratio_sweep(&h, &["notier"], &ratios, 1, lab.trace(figure).as_ref()).unwrap();
        }
        for figure in ["fig04", "fig05"] {
            let file = root.join(figure).join("gups_notier_1-1.jsonl");
            let body = std::fs::read_to_string(&file).unwrap();
            assert!(!body.is_empty(), "{} is empty", file.display());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
