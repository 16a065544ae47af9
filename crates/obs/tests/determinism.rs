//! Determinism acceptance tests for the observability layer.
//!
//! The tracing/metrics substrate is only trustworthy if it is
//! *reproducible*: the same seed must produce byte-identical exports,
//! tracing must not perturb the simulation, and the parallel sweep
//! executor must write the same trace files regardless of `PACT_JOBS`.

use std::fs;
use std::path::PathBuf;

use pact_bench::{ratio_sweep, Lab, TierRatio};
use pact_obs::{validate, TraceConfig, TraceFormat, Tracer, DEFAULT_RING_CAPACITY};
use pact_tiersim::export_trace;
use pact_workloads::suite::Scale;

/// A fresh lab: each side of a comparison simulates on its own, since
/// one lab would answer the second side from its cache.
fn lab() -> Lab {
    Lab::new(Scale::Smoke, 42)
}

/// Tracing must be observation-only: a traced run and an untraced run
/// of the same cell produce the same report (compared through the
/// canonical JSON serialization, which covers cycles, counters,
/// windows, and the per-window metrics snapshots).
#[test]
fn traced_run_report_matches_untraced() {
    let lab = lab();
    let h = lab.harness("bc-kron").expect("suite workload");
    let ratio = TierRatio::new(1, 1);
    let untraced = h.run_policy("pact", ratio, None).expect("run succeeds");
    let mut tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
    let traced = h
        .run_policy("pact", ratio, Some(&mut tracer))
        .expect("run succeeds");
    assert!(!tracer.is_empty(), "traced run recorded no events");
    assert_eq!(
        untraced.report.to_json(),
        traced.report.to_json(),
        "tracing perturbed the simulation"
    );
}

/// Same seed, fresh harness → byte-identical Chrome and JSONL exports,
/// and both must pass the JSON validator.
#[test]
fn repeated_seeded_runs_export_identical_traces() {
    let run = || {
        let lab = lab();
        let h = lab.harness("bc-kron").expect("suite workload");
        let mut tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
        let out = h
            .run_policy("pact", TierRatio::new(1, 1), Some(&mut tracer))
            .expect("run succeeds");
        let chrome = export_trace(
            &out.report,
            &tracer,
            "bc-kron/pact/1:1",
            TraceFormat::Chrome,
        );
        let jsonl = export_trace(&out.report, &tracer, "bc-kron/pact/1:1", TraceFormat::Jsonl);
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

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pact-obs-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Collects `(file name, contents)` for every file in `dir`, sorted by
/// name so directory iteration order cannot affect the comparison.
fn dir_contents(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("trace dir exists")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            let body = fs::read(e.path()).expect("read trace file");
            (name, body)
        })
        .collect();
    files.sort();
    files
}

/// The sweep executor must write byte-identical per-cell trace files
/// whether the sweep runs serially or with a worker pool: file names
/// and contents derive only from the cell identity, never from
/// scheduling order.
#[test]
fn sweep_trace_files_identical_across_jobs() {
    let policies = ["pact", "notier"];
    let ratios = [TierRatio::new(1, 1), TierRatio::new(1, 4)];

    let dir1 = fresh_dir("jobs1");
    let dir4 = fresh_dir("jobs4");
    let cfg1 = TraceConfig {
        path: dir1.clone(),
        format: TraceFormat::Jsonl,
    };
    let cfg4 = TraceConfig {
        path: dir4.clone(),
        format: TraceFormat::Jsonl,
    };

    let sweep = |jobs, cfg| {
        let lab = lab();
        let h = lab.harness("bc-kron").expect("suite workload");
        ratio_sweep(&h, &policies, &ratios, jobs, Some(cfg)).expect("sweep runs")
    };
    let serial = sweep(1, &cfg1);
    let parallel = sweep(4, &cfg4);
    assert_eq!(serial, parallel, "sweep results diverged across jobs");

    let files1 = dir_contents(&dir1);
    let files4 = dir_contents(&dir4);
    assert_eq!(
        files1.len(),
        policies.len() * ratios.len(),
        "one trace file per cell"
    );
    assert_eq!(
        files1.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        files4.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "trace file names depend on scheduling"
    );
    for ((name, body1), (_, body4)) in files1.iter().zip(files4.iter()) {
        assert_eq!(body1, body4, "{name} differs between jobs=1 and jobs=4");
    }

    let _ = fs::remove_dir_all(&dir1);
    let _ = fs::remove_dir_all(&dir4);
}

/// Chrome exports also survive the jobs=1 vs jobs=4 comparison (the
/// format routes through a different serializer path than JSONL).
#[test]
fn sweep_chrome_traces_identical_across_jobs() {
    let policies = ["pact"];
    let ratios = [TierRatio::new(1, 1)];

    let dir1 = fresh_dir("chrome1");
    let dir4 = fresh_dir("chrome4");
    let cfg = |p: &PathBuf| TraceConfig {
        path: p.clone(),
        format: TraceFormat::Chrome,
    };
    for (jobs, dir) in [(1, &dir1), (4, &dir4)] {
        let lab = lab();
        let h = lab.harness("bc-kron").expect("suite workload");
        ratio_sweep(&h, &policies, &ratios, jobs, Some(&cfg(dir))).expect("sweep runs");
    }

    let files1 = dir_contents(&dir1);
    let files4 = dir_contents(&dir4);
    assert_eq!(files1, files4);
    for (name, body) in &files1 {
        let text = std::str::from_utf8(body).expect("utf-8 trace");
        validate(text).unwrap_or_else(|e| panic!("{name} invalid chrome JSON: {e}"));
    }

    let _ = fs::remove_dir_all(&dir1);
    let _ = fs::remove_dir_all(&dir4);
}
