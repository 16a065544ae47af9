//! Crash-recovery integration tests (DESIGN.md §13): versioned
//! snapshots taken under active fault injection must resume
//! byte-identically — including frames captured while failed
//! migrations sit in their retry/backoff window, the state most easily
//! lost by a naive save/restore.
//!
//! The fault plan is set explicitly on the machine configuration
//! rather than through `PACT_FAULTS`: mutating the environment is
//! unsound under the parallel test runner, and an explicit plan
//! exercises the same `FaultState` machinery. The `PACT_FAULTS` →
//! snapshot path is covered end-to-end by the `snapshot` CI stage and
//! the `tierctl` CLI tests.

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    Admission, AdmissionControl, FaultPlan, Machine, MachineConfig, MachineSnapshot, RunReport,
    RunSpec, SimError, TieringPolicy, Workload,
};
use pact_workloads::suite::{build, Scale};

/// Fails over half of all migrations, with retries that sit out a
/// two-window backoff: almost every snapshot boundary has orders
/// pending in the retry queue.
fn retry_heavy_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        drop_order: 0.1,
        fail_migration: 0.6,
        max_retries: 2,
        backoff_windows: 2,
        pebs_loss: 0.05,
        ..FaultPlan::default()
    }
}

fn snap_cfg(snapshot_every: u64) -> MachineConfig {
    let mut cfg = MachineConfig::skylake_cxl(128);
    cfg.seed = 7;
    cfg.snapshot_every = snapshot_every;
    cfg.track_page_stalls = true;
    cfg.fault_plan = Some(retry_heavy_plan());
    cfg
}

fn fresh_policy() -> PactPolicy {
    PactPolicy::new(PactConfig::default()).expect("default config is valid")
}

/// Runs `names` (one workload, or one per tenant) under `policy` on
/// `cfg`, resuming from `frame` when given, and returns the report
/// plus every frame captured on the way.
fn run_cell(
    cfg: MachineConfig,
    names: &[&str],
    policy: &mut dyn TieringPolicy,
    frame: Option<&MachineSnapshot>,
) -> Result<(RunReport, Vec<MachineSnapshot>), SimError> {
    let workloads: Vec<_> = names.iter().map(|n| build(n, Scale::Smoke, 7)).collect();
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let mut frames = Vec::new();
    let report = Machine::new(cfg).expect("config is valid").run(RunSpec {
        snapshot_sink: Some(&mut |s| frames.push(s)),
        resume_from: frame,
        ..RunSpec::new(&refs, policy)
    })?;
    Ok((report, frames))
}

/// Runs the fault-injected cell to completion, collecting a snapshot
/// at every `snapshot_every`-window boundary.
fn capture(snapshot_every: u64) -> (RunReport, Vec<MachineSnapshot>) {
    run_cell(
        snap_cfg(snapshot_every),
        &["masim"],
        &mut fresh_policy(),
        None,
    )
    .expect("capture run succeeds")
}

fn resume(frame: &MachineSnapshot) -> Result<RunReport, SimError> {
    run_cell(snap_cfg(0), &["masim"], &mut fresh_policy(), Some(frame)).map(|(report, _)| report)
}

#[test]
fn snapshots_mid_retry_backoff_resume_byte_identically() {
    let (base, frames) = capture(4);
    // The plan must actually have populated the retry machinery: with
    // 60% migration failure, two retries, and a two-window backoff,
    // pending retries straddle snapshot boundaries throughout the run,
    // so the frames below were taken mid-retry/backoff.
    assert!(
        base.failed_promotions > 0,
        "the retry-heavy plan produced no failed migrations — the test lost its subject"
    );
    assert!(!frames.is_empty(), "no snapshots captured");
    let want = base.to_json();
    for frame in &frames {
        let window = frame.window().expect("frame header is readable");
        let got = resume(frame).unwrap_or_else(|e| panic!("resume from window {window}: {e}"));
        assert_eq!(got.to_json(), want, "resume from window {window} diverged");
        // The page-stall oracle feeds the criticality report, and the
        // report JSON does not carry it.
        assert!(
            got.page_stalls == base.page_stalls,
            "page stalls diverged resuming window {window}"
        );
    }
}

#[test]
fn tampered_frames_fail_closed_under_faults() {
    let (_, frames) = capture(8);
    let frame = frames.last().expect("at least one snapshot");
    // Bit-flip anywhere in the payload: checksum mismatch, exit path
    // is a structured snapshot error, never a corrupt resumed run.
    let mut corrupt = frame.as_bytes().to_vec();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    match resume(&MachineSnapshot::from_bytes(corrupt)) {
        Err(SimError::Snapshot(e)) => assert!(e.contains("checksum"), "{e}"),
        other => panic!("corrupt frame must be rejected, got {other:?}"),
    }
    // Dropping the fault plan changes the configuration fingerprint:
    // resuming a faulted capture on a fault-free machine is refused.
    let mut clean_cfg = snap_cfg(0);
    clean_cfg.fault_plan = None;
    match run_cell(clean_cfg, &["masim"], &mut fresh_policy(), Some(frame)).map(|(r, _)| r) {
        Err(SimError::Snapshot(e)) => assert!(e.contains("fingerprint"), "{e}"),
        other => panic!("fingerprint mismatch must be rejected, got {other:?}"),
    }
}

// --- fleet mode (DESIGN.md §14) --------------------------------------

/// PACT inside admission control for a three-tenant fleet cell, with a
/// migration budget tight enough that orders are rejected and
/// deferred at most window boundaries — so snapshot frames carry live
/// token buckets and a non-empty deferral queue, and the cell runs
/// under backpressure.
fn fleet_policy() -> Admission {
    let admission = AdmissionControl {
        budget_per_window: 3,
        ..AdmissionControl::default()
    };
    Admission::new(Box::new(fresh_policy()), admission, vec![4, 1, 2])
        .expect("admission config is valid")
}

const FLEET: [&str; 3] = ["gups", "mlc-hog", "zipf-drift"];

fn fleet_capture(snapshot_every: u64) -> (RunReport, Vec<MachineSnapshot>, Admission) {
    let mut policy = fleet_policy();
    let (report, frames) = run_cell(snap_cfg(snapshot_every), &FLEET, &mut policy, None)
        .expect("fleet capture run succeeds");
    (report, frames, policy)
}

#[test]
fn fleet_snapshots_mid_backpressure_resume_byte_identically() {
    let (base, frames, policy) = fleet_capture(4);
    // The cell must actually be under admission pressure, or the
    // frames carry no token/deferral state worth testing.
    let rejected: u64 = policy.lanes().iter().map(|l| l.rejected).sum();
    let admitted: u64 = policy.lanes().iter().map(|l| l.admitted).sum();
    assert!(
        rejected > 0,
        "budget 3/window over three tenants produced no rejections — the test lost its subject"
    );
    assert!(admitted > 0, "the cell admitted nothing at all");
    assert!(!frames.is_empty(), "no fleet snapshots captured");
    let want = base.to_json();
    for frame in &frames {
        let window = frame.window().expect("frame header is readable");
        let mut resumed = fleet_policy();
        let got = run_cell(snap_cfg(0), &FLEET, &mut resumed, Some(frame))
            .unwrap_or_else(|e| panic!("fleet resume from window {window}: {e}"))
            .0
            .to_json();
        assert_eq!(got, want, "fleet resume from window {window} diverged");
        assert_eq!(
            resumed.lanes(),
            policy.lanes(),
            "admission ledger diverged resuming window {window}"
        );
    }
}

#[test]
fn fleet_frames_refuse_a_tenantless_machine() {
    // A frame captured under admission control carries the wrapper's
    // name and state: resuming it under bare PACT is refused, not
    // silently degraded, and so is the reverse.
    let (_, frames, _) = fleet_capture(8);
    let frame = frames.last().expect("at least one fleet snapshot");
    match run_cell(snap_cfg(0), &FLEET, &mut fresh_policy(), Some(frame)).map(|(r, _)| r) {
        Err(SimError::Snapshot(e)) => assert!(e.contains("admission(pact)"), "{e}"),
        other => panic!("bare-PACT resume of a fleet frame must be rejected, got {other:?}"),
    }
    let (_, bare) = run_cell(snap_cfg(8), &FLEET, &mut fresh_policy(), None)
        .expect("bare colocated capture succeeds");
    let frame = bare.last().expect("at least one colocated snapshot");
    match run_cell(snap_cfg(0), &FLEET, &mut fleet_policy(), Some(frame)).map(|(r, _)| r) {
        Err(SimError::Snapshot(e)) => assert!(e.contains("admission(pact)"), "{e}"),
        other => panic!("fleet resume of a bare-PACT frame must be rejected, got {other:?}"),
    }
}
