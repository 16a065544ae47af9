//! Differential oracles: run the same cell under observation variants
//! that must not change the simulated outcome, and byte-compare the
//! serialized reports.
//!
//! The variants exercised per cell:
//!
//! * **repeat** — the identical run twice (catches hidden global
//!   state and iteration-order nondeterminism);
//! * **trace** — event tracing on vs off (`RunSpec::tracer` unset vs set);
//! * **invariants** — the runtime invariant checker armed vs not;
//! * **inert faults** — a fault plan whose every probability is zero.
//!   Fault-injection state registers its own `fault/*` metrics, so the
//!   comparison strips that namespace and demands byte-equality of
//!   everything else.
//!
//! Separately, [`dominance_oracle`] pins a cross-configuration sanity
//! law: with an identity policy, placing the whole footprint in the
//! fast tier can never be slower than placing it all in the slow tier;
//! [`attribution_oracle`] pins the criticality-attribution artifacts
//! (DESIGN.md §12) of a fault-injected cell as invariant under the
//! host-side profiler; and [`kill_resume_oracle`] pins crash recovery
//! (DESIGN.md §13): a fault-injected cell killed at a snapshot boundary
//! and resumed must finish byte-identically to the uninterrupted run,
//! while tampered frames are rejected with structured errors.

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    Admission, AdmissionControl, CriticalityReport, FaultPlan, FirstTouch, InvariantSet, Machine,
    MachineConfig, MachineSnapshot, RunReport, RunSpec, SimError, Tracer, Workload, PAGE_BYTES,
};
use pact_workloads::suite::{build, Scale};

/// Outcome ledger of one differential pass: one line per oracle, in a
/// fixed order, each either passing or carrying a failure description.
#[derive(Debug, Clone)]
pub struct DiffLedger {
    /// `(oracle name, result)` in execution order.
    pub lines: Vec<(String, Result<(), String>)>,
}

impl DiffLedger {
    /// Number of failing oracles.
    pub fn failures(&self) -> usize {
        self.lines.iter().filter(|(_, r)| r.is_err()).count()
    }

    /// True when every oracle passed.
    pub fn is_ok(&self) -> bool {
        self.failures() == 0
    }

    /// Renders the ledger, one line per oracle.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, result) in &self.lines {
            match result {
                Ok(()) => out.push_str(&format!("  ok   {name}\n")),
                Err(e) => out.push_str(&format!("  FAIL {name}: {e}\n")),
            }
        }
        out
    }
}

/// Serializes a report with the fault-injection metric namespace
/// stripped, so runs that differ only in whether `fault/*` series were
/// *registered* (not incremented) compare equal.
fn fingerprint(report: &RunReport) -> String {
    let mut r = report.clone();
    for w in &mut r.windows {
        w.metrics.retain(|(k, _)| !k.starts_with("fault/"));
    }
    r.to_json()
}

/// PACT at its default configuration.
fn default_pact() -> PactPolicy {
    // Invariant: the default PactConfig passes its own validation
    // (pinned by pact-core tests).
    PactPolicy::new(PactConfig::default()).expect("default config is valid")
}

fn run_with(cfg: &MachineConfig, wl: &dyn Workload, traced: bool) -> Result<RunReport, SimError> {
    // Invariant: the caller's config came from a validated preset with
    // only validated-range edits, so Machine::new cannot fail.
    let machine = Machine::new(cfg.clone()).expect("differential config is valid");
    let mut tracer = if traced {
        Tracer::ring(1 << 16)
    } else {
        Tracer::disabled()
    };
    machine.run(RunSpec {
        tracer: Some(&mut tracer),
        ..RunSpec::new(&[wl], &mut default_pact())
    })
}

/// A fault plan that can never fire: every probability is zero and no
/// stall is configured. Arming it must not change any simulated value.
fn inert_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_order: 0.0,
        fail_migration: 0.0,
        stall: None,
        pebs_loss: 0.0,
        chmu_overflow: 0.0,
        ..FaultPlan::default()
    }
}

/// Runs the full differential pass for one `(workload, seed)` cell at
/// smoke scale and a 1:1 tier ratio, returning the per-oracle ledger.
///
/// # Panics
///
/// Panics on an unknown workload name (see
/// [`pact_workloads::suite::SUITE`]).
pub fn check_cell(workload: &str, seed: u64) -> DiffLedger {
    let wl = build(workload, Scale::Smoke, seed);
    let total_pages = wl.footprint_bytes().div_ceil(PAGE_BYTES);
    let mut cfg = MachineConfig::skylake_cxl((total_pages / 2).max(1));
    cfg.seed = seed;

    let mut lines = Vec::new();
    let base = match run_with(&cfg, wl.as_ref(), false) {
        Ok(r) => r,
        Err(e) => {
            lines.push(("baseline".to_string(), Err(format!("run failed: {e}"))));
            return DiffLedger { lines };
        }
    };
    let base_json = base.to_json();
    lines.push(("baseline".to_string(), Ok(())));

    let compare = |label: &str, cfg: &MachineConfig, traced: bool, filtered: bool| {
        let result = match run_with(cfg, wl.as_ref(), traced) {
            Ok(r) => {
                let (got, want) = if filtered {
                    (fingerprint(&r), fingerprint(&base))
                } else {
                    (r.to_json(), base_json.clone())
                };
                if got == want {
                    Ok(())
                } else {
                    Err(diff_hint(&want, &got))
                }
            }
            Err(e) => Err(format!("run failed: {e}")),
        };
        (label.to_string(), result)
    };

    lines.push(compare("repeat is byte-identical", &cfg, false, false));
    lines.push(compare(
        "tracing does not perturb the run",
        &cfg,
        true,
        false,
    ));

    let mut inv_cfg = cfg.clone();
    inv_cfg.invariants = Some(InvariantSet::all());
    lines.push(compare(
        "invariant checking is zero-cost and passes",
        &inv_cfg,
        false,
        false,
    ));

    let mut fault_cfg = cfg.clone();
    fault_cfg.fault_plan = Some(inert_fault_plan(seed ^ 0x5bd1_e995));
    lines.push(compare(
        "inert fault plan does not perturb the run",
        &fault_cfg,
        false,
        true,
    ));

    lines.push((
        "all-local dominates all-remote".to_string(),
        dominance_oracle(wl.as_ref(), seed),
    ));

    lines.push((
        "criticality artifacts are profiler-invariant".to_string(),
        attribution_oracle(wl.as_ref(), seed),
    ));

    lines.push((
        "kill-resume is byte-identical".to_string(),
        kill_resume_oracle(wl.as_ref(), seed),
    ));

    lines.push((
        "fleet tenant lanes conserve".to_string(),
        tenant_conservation_oracle(workload, seed),
    ));

    DiffLedger { lines }
}

/// Fleet conservation oracle (DESIGN.md §14): colocates the cell's
/// workload with the `mlc-hog` bandwidth antagonist and the
/// `zipf-drift` skew tenant under PACT wrapped in admission control,
/// then demands that the per-process `[fast, slow]` stall lanes sum to
/// the page-stall oracle's totals and that admission control both
/// admitted and rejected orders. (The PMU counters and migration
/// ledger need no check: the machine's globals are the lanes' sum.)
///
/// # Errors
///
/// Returns the first non-conserving quantity or idle admission path.
pub fn tenant_conservation_oracle(workload: &str, seed: u64) -> Result<(), String> {
    let cell = build(workload, Scale::Smoke, seed);
    let hog = build("mlc-hog", Scale::Smoke, seed);
    let zipf = build("zipf-drift", Scale::Smoke, seed);
    let tenants: [&dyn Workload; 3] = [cell.as_ref(), hog.as_ref(), zipf.as_ref()];
    let total_pages: u64 = tenants
        .iter()
        .map(|w| w.footprint_bytes().div_ceil(PAGE_BYTES))
        .sum();
    let mut cfg = MachineConfig::skylake_cxl((total_pages / 2).max(1));
    cfg.seed = seed;
    cfg.track_page_stalls = true;
    // A deliberately tight budget so the admission path (tokens,
    // deferrals, backpressure) actually runs on a smoke-scale cell.
    let admission = AdmissionControl {
        budget_per_window: 4,
        ..AdmissionControl::default()
    };
    let mut policy = Admission::new(Box::new(default_pact()), admission, vec![4, 1, 2])
        // Invariant: a positive budget and positive weights are valid.
        .expect("admission config is valid");

    // Invariant: the preset plus validated-range edits construct.
    let m = Machine::new(cfg).expect("fleet config is valid");
    let base = m
        .run(RunSpec::new(&tenants, &mut policy))
        .map_err(|e| format!("fleet run failed: {e}"))?;
    if base.per_process.len() != 3 {
        return Err(format!(
            "expected 3 process lanes, report has {}",
            base.per_process.len()
        ));
    }

    // The PMU counters and the migration ledger partition the globals
    // by construction: the machine stores them only in per-process
    // lanes and reports the globals as the lanes' sum. The stall lanes
    // are checked against the page-stall oracle, which is independent
    // data.
    let lane = |f: &dyn Fn(&pact_tiersim::ProcessReport) -> u64| -> u64 {
        base.per_process.iter().map(f).sum()
    };
    // Exact partition of the page-stall oracle.
    let mut oracle_totals = [0u64; 2];
    for lanes in base
        .page_stalls
        .as_ref()
        // Invariant: this oracle's config sets track_page_stalls.
        .expect("track_page_stalls is on")
        .values()
    {
        oracle_totals[0] += lanes[0];
        oracle_totals[1] += lanes[1];
    }
    for (i, &total) in oracle_totals.iter().enumerate() {
        let sum = lane(&|t| t.stall_cycles[i]);
        if total != sum {
            return Err(format!(
                "process stall lane {i} sums to {sum}, oracle total is {total}"
            ));
        }
    }

    // Admission control must have engaged on this cell: three
    // processes against a 4-orders/window budget cannot all be admitted.
    let rejected: u64 = policy.lanes().iter().map(|l| l.rejected).sum();
    let admitted: u64 = policy.lanes().iter().map(|l| l.admitted).sum();
    if admitted == 0 {
        return Err("admission controller admitted no orders".to_string());
    }
    if rejected == 0 {
        return Err("admission controller never rejected an order".to_string());
    }
    Ok(())
}

/// Kill-resume oracle (DESIGN.md §13): a fault-injected cell run to
/// completion must be byte-identical to the same cell killed at a
/// snapshot boundary and resumed from the frame — for every sampled
/// snapshot point. Both the serialized
/// run report (windows + metrics) and the criticality-attribution
/// artifacts derived from the `[fast, slow]` page-stall oracle are
/// compared. The oracle also demands that a corrupted frame, a
/// version-bumped frame, and a configuration-mismatched frame are all
/// rejected with a structured snapshot error rather than silently
/// resumed.
///
/// Snapshot points are sampled (first, middle, last) so the oracle's
/// cost stays bounded on long cells while still covering cold-start,
/// steady-state, and end-of-run machine state.
///
/// # Errors
///
/// Returns the first diverging snapshot point or wrongly-accepted
/// frame with a byte-level hint.
pub fn kill_resume_oracle(wl: &dyn Workload, seed: u64) -> Result<(), String> {
    let total_pages = wl.footprint_bytes().div_ceil(PAGE_BYTES);
    let mut cfg = MachineConfig::skylake_cxl((total_pages / 2).max(1));
    cfg.seed = seed;
    cfg.track_page_stalls = true;
    cfg.snapshot_every = 1;
    // The same active plan as the attribution oracle: mid-flight retry
    // and backoff state is exactly what a snapshot must not lose.
    cfg.fault_plan = Some(FaultPlan {
        seed: seed ^ 0x9e37_79b9,
        drop_order: 0.05,
        fail_migration: 0.05,
        pebs_loss: 0.02,
        ..FaultPlan::default()
    });

    let artifacts = |report: &RunReport| -> Result<[String; 2], String> {
        let crit = CriticalityReport::new(report, 10)
            .ok_or_else(|| "run tracked no page stalls".to_string())?;
        Ok([report.to_json(), crit.folded()])
    };

    // Invariant: skylake_cxl presets with validated-range edits always
    // construct.
    let machine = Machine::new(cfg.clone()).expect("kill-resume config is valid");
    let mut frames: Vec<MachineSnapshot> = Vec::new();
    let base = machine
        .run(RunSpec {
            snapshot_sink: Some(&mut |s| frames.push(s)),
            ..RunSpec::new(&[wl], &mut default_pact())
        })
        .map_err(|e| format!("capture run failed: {e}"))?;
    let base_art = artifacts(&base)?;
    if frames.is_empty() {
        return Err("capture run produced no snapshot frames".to_string());
    }

    let mut picks = vec![0, frames.len() / 2, frames.len() - 1];
    picks.dedup();
    // Resumes `frame` on `rcfg` with capture off.
    let resume_on = |mut rcfg: MachineConfig, frame: &MachineSnapshot| {
        rcfg.snapshot_every = 0;
        // Invariant: the base config was valid, and cadence 0 or a fast
        // tier one page larger keep it valid.
        let m = Machine::new(rcfg).expect("resume config is valid");
        m.run(RunSpec {
            resume_from: Some(frame),
            ..RunSpec::new(&[wl], &mut default_pact())
        })
    };
    let resume = |frame: &MachineSnapshot| resume_on(cfg.clone(), frame);
    for &i in &picks {
        let window = frames[i]
            .window()
            .map_err(|e| format!("frame {i} has an unreadable header: {e}"))?;
        let resumed =
            resume(&frames[i]).map_err(|e| format!("resume from window {window}: {e}"))?;
        let got = artifacts(&resumed)?;
        for (name, (want, have)) in ["report.json", "flame.folded"]
            .iter()
            .zip(base_art.iter().zip(got.iter()))
        {
            if want != have {
                return Err(format!(
                    "{name} diverges after resume from window {window}: {}",
                    diff_hint(want, have)
                ));
            }
        }
    }

    // Fail-closed checks: tampered frames must be rejected with a
    // structured snapshot error, never silently resumed.
    let last = frames.last().expect("frames is non-empty"); // Invariant: checked above
    let mut corrupt = last.as_bytes().to_vec();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    match resume(&MachineSnapshot::from_bytes(corrupt)) {
        Err(SimError::Snapshot(_)) => {}
        Err(e) => return Err(format!("corrupt frame rejected with the wrong error: {e}")),
        Ok(_) => return Err("corrupt frame was accepted".to_string()),
    }
    let mut bumped = last.as_bytes().to_vec();
    bumped[8] = 0x7f; // format-version field (see tiersim::snapshot layout)
    match resume(&MachineSnapshot::from_bytes(bumped)) {
        Err(SimError::Snapshot(e)) if e.contains("version") => {}
        Err(e) => {
            return Err(format!(
                "version-bumped frame rejected with the wrong error: {e}"
            ))
        }
        Ok(_) => return Err("version-bumped frame was accepted".to_string()),
    }
    let mut mcfg = cfg.clone();
    mcfg.fast_tier_pages += 1;
    match resume_on(mcfg, last) {
        Err(SimError::Snapshot(_)) => Ok(()),
        Err(e) => Err(format!(
            "configuration-mismatched frame rejected with the wrong error: {e}"
        )),
        Ok(_) => Err("configuration-mismatched frame was accepted".to_string()),
    }
}

/// Criticality-attribution oracle (DESIGN.md §12): the page-stall
/// oracle and every artifact derived from it — folded flamegraph,
/// JSON, markdown — are sim-domain data, so arming the host-side
/// profiler (`pact_obs::hostprof`, wall clock) must not perturb them,
/// even on a fault-injected cell. This is the enforced boundary between
/// the deterministic sim clock and the nondeterministic host clock.
///
/// # Errors
///
/// Returns the first diverging artifact with a byte-level hint.
pub fn attribution_oracle(wl: &dyn Workload, seed: u64) -> Result<(), String> {
    let total_pages = wl.footprint_bytes().div_ceil(PAGE_BYTES);
    let mut cfg = MachineConfig::skylake_cxl((total_pages / 2).max(1));
    cfg.seed = seed;
    cfg.track_page_stalls = true;
    // An *active* plan: dropped orders and failed migrations reshape
    // the blame distribution, which is exactly what must still be
    // profiler-invariant.
    cfg.fault_plan = Some(FaultPlan {
        seed: seed ^ 0x9e37_79b9,
        drop_order: 0.05,
        fail_migration: 0.05,
        pebs_loss: 0.02,
        ..FaultPlan::default()
    });
    const ARTIFACTS: [&str; 3] = ["flame.folded", "report.json", "report.md"];
    let render = |cfg: &MachineConfig| -> Result<[String; 3], String> {
        let report = run_with(cfg, wl, false).map_err(|e| format!("run failed: {e}"))?;
        let crit = CriticalityReport::new(&report, 10)
            .ok_or_else(|| "run tracked no page stalls".to_string())?;
        Ok([crit.folded(), crit.to_json(), crit.to_markdown()])
    };
    let base = render(&cfg)?;
    // Host profiler on/off: restore the previous state even on failure
    // so a failing oracle cannot leak profiling into other checks.
    let was = pact_obs::hostprof::enabled();
    pact_obs::hostprof::set_enabled(true);
    let profiled = render(&cfg);
    pact_obs::hostprof::set_enabled(was);
    let profiled = profiled?;
    for (i, name) in ARTIFACTS.iter().enumerate() {
        if profiled[i] != base[i] {
            return Err(format!(
                "{name} diverges with the host profiler armed: {}",
                diff_hint(&base[i], &profiled[i])
            ));
        }
    }
    Ok(())
}

/// Cross-configuration sanity law: with the identity (`notier`)
/// policy, a machine whose fast tier holds the whole footprint must
/// finish no later than one whose fast tier holds nothing.
///
/// # Errors
///
/// Returns the two cycle counts when the law is violated.
pub fn dominance_oracle(wl: &dyn Workload, seed: u64) -> Result<(), String> {
    let total_pages = wl.footprint_bytes().div_ceil(PAGE_BYTES);
    let mut local_cfg = MachineConfig::skylake_cxl(total_pages);
    local_cfg.seed = seed;
    let mut remote_cfg = MachineConfig::skylake_cxl(0);
    remote_cfg.seed = seed;
    let local = Machine::new(local_cfg)
        .expect("config is valid") // Invariant: skylake_cxl presets always construct
        .try_run(wl, &mut FirstTouch::new())
        .map_err(|e| format!("all-local run failed: {e}"))?;
    let remote = Machine::new(remote_cfg)
        .expect("config is valid") // Invariant: skylake_cxl presets always construct
        .try_run(wl, &mut FirstTouch::new())
        .map_err(|e| format!("all-remote run failed: {e}"))?;
    if local.total_cycles <= remote.total_cycles {
        Ok(())
    } else {
        Err(format!(
            "all-local took {} cycles but all-remote only {}",
            local.total_cycles, remote.total_cycles
        ))
    }
}

/// Locates the first divergence between two serialized reports and
/// renders a short context window around it.
fn diff_hint(want: &str, got: &str) -> String {
    let pos = want
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    let start = pos.saturating_sub(40);
    let w: String = want.chars().skip(start).take(80).collect();
    let g: String = got.chars().skip(start).take(80).collect();
    format!("reports diverge at byte {pos}: expected ...{w}... got ...{g}...")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gups_cell_passes_every_oracle() {
        let ledger = check_cell("gups", 7);
        assert!(ledger.is_ok(), "\n{}", ledger.render());
        assert_eq!(ledger.lines.len(), 9);
        assert!(ledger.render().contains("ok   baseline"));
    }

    #[test]
    fn ledger_is_deterministic() {
        let a = check_cell("masim", 3).render();
        let b = check_cell("masim", 3).render();
        assert_eq!(a, b);
    }

    #[test]
    fn dominance_holds_for_silo() {
        let wl = build("silo", Scale::Smoke, 1);
        dominance_oracle(wl.as_ref(), 1).unwrap();
    }

    #[test]
    fn diff_hint_points_at_first_divergence() {
        let hint = diff_hint("aaaabaaaa", "aaaacaaaa");
        assert!(hint.contains("byte 4"), "{hint}");
    }

    #[test]
    fn fingerprint_strips_only_fault_metrics() {
        let wl = build("gups", Scale::Smoke, 2);
        let cfg = MachineConfig::skylake_cxl(64);
        let base = run_with(&cfg, wl.as_ref(), false).unwrap();
        let fp = fingerprint(&base);
        assert!(!fp.contains("\"fault/"));
        assert!(fp.contains("\"mem/fast_used\""));
    }
}
