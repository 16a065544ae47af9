//! Determinism acceptance tests for the observability layer.
//!
//! The tracing/metrics substrate is only trustworthy if it is
//! *reproducible*: the same seed must produce byte-identical exports,
//! and tracing must not perturb the simulation.

use pact_bench::{Cell, Lab, TierRatio};
use pact_obs::{validate, TraceFormat, Tracer, DEFAULT_RING_CAPACITY};
use pact_tiersim::{export_trace, RunReport, RunSpec};
use pact_workloads::suite::Scale;

/// A fresh lab: each side of a comparison simulates on its own, since
/// one lab would answer the second side from its cache.
fn lab() -> Lab {
    Lab::new(Scale::Smoke, 42)
}

/// The cell both tests trace.
fn cell() -> Cell {
    Cell::new("bc-kron", "pact", TierRatio::new(1, 1))
}

/// Runs `cell` with `tracer` recording, the way `tierctl trace` does:
/// the cell's machine and policy through [`Lab::run`].
fn traced(lab: &Lab, cell: &Cell, tracer: &mut Tracer) -> RunReport {
    let mut policy = lab.policy(cell).expect("policy builds");
    let workload = lab.workload(&cell.workload);
    let workloads = [workload.as_ref()];
    let spec = RunSpec {
        tracer: Some(tracer),
        ..RunSpec::new(&workloads, policy.as_mut())
    };
    lab.run(lab.machine(cell), spec).expect("run succeeds")
}

/// Tracing must be observation-only: a traced run of a cell and the
/// lab's untraced outcome of it produce the same report (compared
/// through the canonical JSON serialization, which covers cycles,
/// counters, windows, and the per-window metrics snapshots).
#[test]
fn traced_run_report_matches_untraced() {
    let lab = lab();
    let untraced = lab.cell(&cell()).expect("run succeeds");
    let mut tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
    let traced = traced(&lab, &cell(), &mut tracer);
    assert!(!tracer.is_empty(), "traced run recorded no events");
    assert_eq!(
        untraced.report.to_json(),
        traced.to_json(),
        "tracing perturbed the simulation"
    );
}

/// Same seed, fresh lab → byte-identical Chrome and JSONL exports,
/// and both must pass the JSON validator.
#[test]
fn repeated_seeded_runs_export_identical_traces() {
    let run = || {
        let mut tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
        let report = traced(&lab(), &cell(), &mut tracer);
        let chrome = export_trace(&report, &tracer, "bc-kron/pact/1:1", TraceFormat::Chrome);
        let jsonl = export_trace(&report, &tracer, "bc-kron/pact/1:1", TraceFormat::Jsonl);
        (chrome, jsonl)
    };
    let (chrome_a, jsonl_a) = run();
    let (chrome_b, jsonl_b) = run();
    assert_eq!(chrome_a, chrome_b, "chrome export not reproducible");
    assert_eq!(jsonl_a, jsonl_b, "jsonl export not reproducible");

    validate(&chrome_a).expect("chrome export is valid JSON");
    assert!(!jsonl_a.is_empty());
    for (i, line) in jsonl_a.lines().enumerate() {
        validate(line).unwrap_or_else(|e| panic!("jsonl line {} invalid: {e}", i + 1));
    }
}
