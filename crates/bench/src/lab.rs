//! The reproduction lab: the one cache behind `tierctl repro`, so a
//! workload several figures use is built once and a cell several
//! figures request runs once.
//!
//! Sharing is decided by keys, never by equal numbers:
//!
//! * suite workloads by `(name, scale, seed)`;
//! * harnesses by workload plus the [`config_fingerprint`] of the
//!   effective machine config (the `PACT_FAULTS` plan included), so a
//!   figure that changes any behaviour-relevant knob gets its own
//!   harness and DRAM reference;
//! * untraced named-policy outcomes and the CXL reference by harness
//!   plus `(policy, fast_pages)`.
//!
//! Concurrent requests for one key block on its `OnceLock`, so a key
//! never runs twice. Runs of caller-built policies
//! ([`LabHarness::run_custom`]) and traced sweep cells are never
//! cached.
//!
//! The cache lives here, not in [`Harness`]: `check_sweep` and the
//! determinism tests compare sweeps run on one harness, and a cache
//! there would answer the second sweep from memory.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use pact_baselines::NoTier;
use pact_tiersim::{
    config_fingerprint, ConfigError, MachineConfig, SimError, TieringPolicy, TraceConfig, Workload,
};
use pact_workloads::suite::{build, Scale};

use crate::runner::{effective_config, Cells};
use crate::{experiment_machine, Harness, Outcome, RunError, TierRatio};

type WorkloadKey = (String, Scale, u64);
type HarnessKey = (WorkloadKey, u64);
type CellKey = (HarnessKey, String, u64);

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
    /// Cells asked of the lab's harnesses. Traced sweep cells bypass
    /// the lab and are not counted.
    pub cells_requested: u64,
    /// Cells actually simulated.
    pub cells_run: u64,
}

/// Shared workloads, harnesses and outcomes for one `(scale, seed)`
/// reproduction; see the module docs for what is shared.
pub struct Lab {
    scale: Scale,
    seed: u64,
    trace: Option<TraceConfig>,
    workloads: Memo<WorkloadKey, Arc<dyn Workload>>,
    harnesses: Memo<HarnessKey, Result<Arc<Harness>, ConfigError>>,
    outcomes: Memo<CellKey, Result<Arc<Outcome>, RunError>>,
    workload_builds: AtomicU64,
    harness_count: AtomicU64,
    cells_requested: AtomicU64,
    cells_run: AtomicU64,
}

impl Lab {
    /// An empty lab for suite workloads at `scale`, seeded with `seed`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            scale,
            seed,
            trace: None,
            workloads: Memo::new(),
            harnesses: Memo::new(),
            outcomes: Memo::new(),
            workload_builds: AtomicU64::new(0),
            harness_count: AtomicU64::new(0),
            cells_requested: AtomicU64::new(0),
            cells_run: AtomicU64::new(0),
        }
    }

    /// Sets the trace root (`PACT_TRACE`) under which figures write
    /// their sweep traces.
    pub fn with_trace(mut self, trace: Option<TraceConfig>) -> Self {
        self.trace = trace;
        self
    }

    /// Workload scale.
    pub(crate) fn scale(&self) -> Scale {
        self.scale
    }

    /// Base RNG seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Where `figure` writes its sweep traces: `<root>/<figure>/`, so
    /// two figures that sweep the same cell keep both files.
    pub(crate) fn trace(&self, figure: &str) -> Option<TraceConfig> {
        self.trace.as_ref().map(|t| TraceConfig {
            path: t.path.join(figure),
            format: t.format,
        })
    }

    /// The suite workload `name`, built on first use.
    pub(crate) fn workload(&self, name: &str) -> Arc<dyn Workload> {
        let key = (name.to_string(), self.scale, self.seed);
        self.workloads.get(key, || {
            self.workload_builds.fetch_add(1, Ordering::Relaxed);
            Arc::from(build(name, self.scale, self.seed))
        })
    }

    /// The harness for workload `name` on the experiment machine.
    pub fn harness(&self, name: &str) -> Result<LabHarness<'_>, ConfigError> {
        self.harness_with(name, experiment_machine(0))
    }

    /// The harness for workload `name` on machine `cfg` (tier capacity
    /// is set per run), validated on first use.
    pub(crate) fn harness_with(
        &self,
        name: &str,
        cfg: MachineConfig,
    ) -> Result<LabHarness<'_>, ConfigError> {
        let key = (
            (name.to_string(), self.scale, self.seed),
            config_fingerprint(&effective_config(cfg.clone())),
        );
        let harness = self.harnesses.get(key.clone(), || {
            self.harness_count.fetch_add(1, Ordering::Relaxed);
            Harness::from_arc(self.workload(name))
                .with_machine(cfg)
                .map(Arc::new)
        })?;
        Ok(LabHarness {
            lab: self,
            key,
            harness,
        })
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
}

/// A [`Harness`] whose untraced named-policy cells and CXL reference
/// are shared through its [`Lab`].
pub struct LabHarness<'a> {
    lab: &'a Lab,
    key: HarnessKey,
    harness: Arc<Harness>,
}

impl LabHarness<'_> {
    /// The wrapped workload.
    pub(crate) fn workload(&self) -> &dyn Workload {
        self.harness.workload()
    }

    /// [`Harness::dram_cycles`], cached by the harness.
    pub(crate) fn dram_cycles(&self) -> Result<u64, SimError> {
        self.harness.dram_cycles()
    }

    /// [`Harness::run_policy`], untraced, run once per key.
    pub(crate) fn run_policy(
        &self,
        policy: &str,
        ratio: TierRatio,
    ) -> Result<Arc<Outcome>, RunError> {
        let fast_pages = ratio.fast_pages(self.workload().footprint_bytes());
        self.cell(policy, fast_pages, || {
            self.harness.run_policy(policy, ratio, None)
        })
    }

    /// [`Harness::cxl_slowdown`], run once per harness. It is NoTier
    /// with no fast tier, so it is keyed as that cell.
    pub(crate) fn cxl_slowdown(&self) -> Result<f64, RunError> {
        let out = self.cell("notier", 0, || {
            self.harness.run_custom(&mut NoTier::new(), 0, None)
        })?;
        Ok(out.slowdown)
    }

    /// [`Harness::run_custom`], untraced. Never cached: the lab cannot
    /// key a caller-built policy.
    pub(crate) fn run_custom(
        &self,
        policy: &mut dyn TieringPolicy,
        fast_pages: u64,
    ) -> Result<Outcome, RunError> {
        self.lab.cells_requested.fetch_add(1, Ordering::Relaxed);
        self.lab.cells_run.fetch_add(1, Ordering::Relaxed);
        self.harness.run_custom(policy, fast_pages, None)
    }

    fn cell(
        &self,
        policy: &str,
        fast_pages: u64,
        run: impl FnOnce() -> Result<Outcome, RunError>,
    ) -> Result<Arc<Outcome>, RunError> {
        self.lab.cells_requested.fetch_add(1, Ordering::Relaxed);
        let key = (self.key.clone(), policy.to_string(), fast_pages);
        self.lab.outcomes.get(key, || {
            self.lab.cells_run.fetch_add(1, Ordering::Relaxed);
            run().map(Arc::new)
        })
    }
}

impl Cells for LabHarness<'_> {
    fn harness(&self) -> &Harness {
        &self.harness
    }

    fn outcome(&self, policy: &str, ratio: TierRatio) -> Result<Arc<Outcome>, RunError> {
        self.run_policy(policy, ratio)
    }

    fn cxl(&self) -> Result<f64, RunError> {
        self.cxl_slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio_sweep;
    use pact_tiersim::{fnv1a, InvariantSet, TraceFormat};

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
        // Four workers race for one key; exactly one simulates it.
        let outs = crate::run_indexed(8, 4, |_| {
            let h = lab.harness("gups").unwrap();
            h.run_policy("pact", ratio).unwrap()
        });
        assert!(outs.iter().all(|o| Arc::ptr_eq(o, &outs[0])));
        assert_eq!(totals(&lab), (8, 1, 1, 1));
        let fresh = Harness::new(build("gups", Scale::Smoke, 42))
            .run_policy("pact", ratio, None)
            .unwrap();
        assert_eq!(
            fnv1a(outs[0].report.to_json().as_bytes()),
            fnv1a(fresh.report.to_json().as_bytes())
        );
        // The CXL reference is a cached cell too; custom runs never are.
        let h = lab.harness("gups").unwrap();
        for _ in 0..2 {
            h.cxl_slowdown().unwrap();
            h.run_custom(&mut NoTier::new(), 1).unwrap();
        }
        assert_eq!(totals(&lab), (12, 4, 1, 1));
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
            h.run_policy("notier", TierRatio::new(1, 2)).unwrap();
        }
        assert_eq!(totals(&lab), (3, 3, 1, 3));
    }

    #[test]
    fn figures_sweeping_one_cell_keep_both_trace_sets() {
        let root = std::env::temp_dir().join(format!("pact-lab-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let lab = Lab::new(Scale::Smoke, 42).with_trace(Some(TraceConfig {
            path: root.clone(),
            format: TraceFormat::Jsonl,
        }));
        let h = lab.harness("gups").unwrap();
        let ratios = [TierRatio::new(1, 1)];
        // The cell is already cached; a traced sweep must run it anyway.
        h.run_policy("notier", ratios[0]).unwrap();
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
