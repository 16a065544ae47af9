//! End-to-end CLI tests for `tierctl`: exit-code conventions (0 ok,
//! 1 a failed self-check or write, 2 invalid usage) are part of the
//! binary's contract, so they are pinned here against the real binary.

use std::process::{Command, Output};

fn tierctl(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tierctl"));
    cmd.args(args);
    // Isolate from the ambient environment: a PACT_FAULTS or PACT_JOBS
    // left over from a CI stage must not leak into these assertions.
    cmd.env_remove("PACT_FAULTS");
    cmd.env_remove("PACT_JOBS");
    cmd.env_remove("PACT_TRACE");
    cmd.env_remove("PACT_PROF");
    cmd
}

fn run(args: &[&str]) -> Output {
    tierctl(args).output().expect("spawn tierctl")
}

/// A fresh scratch path under the test target directory.
fn fixture_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // A stale tree from an earlier run would leak into this one.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flag_exits_2() {
    let out = run(&["--definitely-not-a-flag"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown flag"));
}

#[test]
fn malformed_fault_spec_exits_2() {
    let out = tierctl(&["--list"])
        .env("PACT_FAULTS", "drop=banana")
        .output()
        .expect("spawn tierctl");
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("invalid fault spec"));
}

#[test]
fn zero_zero_ratio_exits_2() {
    let out = run(&["--ratio", "0:0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("non-zero"));
}

#[test]
fn bad_ratio_format_exits_2() {
    for bad in ["1-2", "a:b", "3"] {
        let out = run(&["--ratio", bad]);
        assert_eq!(out.status.code(), Some(2), "ratio '{bad}' was accepted");
    }
}

#[test]
fn unknown_policy_exits_2() {
    let out = run(&[
        "--policy",
        "bogus",
        "--workload",
        "gups",
        "--scale",
        "smoke",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown policy"));
}

#[test]
fn one_shot_summary_and_trace_agree_for_the_same_seed() {
    // Both start from the same `--seed`, so they simulate the same
    // machine and must report the same cycle count.
    let flags = [
        "--workload",
        "gups",
        "--policy",
        "pact",
        "--seed",
        "7",
        "--scale",
        "smoke",
    ];
    let out = run(&flags);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let summary = String::from_utf8_lossy(&out.stdout).into_owned();
    let total = summary
        .lines()
        .find_map(|l| l.trim().strip_prefix("total cycles:"))
        .expect("summary prints total cycles")
        .trim()
        .to_string();
    let path = fixture_dir("seeded_trace.json");
    let out = run(&[
        &["trace", "--validate"],
        &flags[..],
        &["--out", path.to_str().expect("utf8")],
    ]
    .concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let traced = String::from_utf8_lossy(&out.stdout).into_owned();
    let want = format!(", {total} cycles");
    assert!(
        traced
            .lines()
            .any(|l| l.starts_with("traced ") && l.ends_with(&want)),
        "one-shot printed {total} cycles, trace printed:\n{traced}"
    );
}

#[test]
fn repro_rejects_an_unknown_figure_with_2_and_lists_the_names() {
    let out = run(&["repro", "--fig", "fig04,bogus"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("unknown figure 'bogus'"), "{err}");
    for figure in &pact_bench::figures::FIGURES {
        assert!(
            err.contains(figure.name),
            "{} not listed: {err}",
            figure.name
        );
    }
    assert!(out.stdout.is_empty(), "nothing may run on bad usage");
}

#[test]
fn repro_summary_reports_peak_rss_on_stderr_only() {
    let out = run(&["repro", "--fig", "fig01", "--scale", "smoke"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    let summary = err
        .lines()
        .find(|l| l.starts_with("[repro] 1 figures in "))
        .unwrap_or_else(|| panic!("no [repro] summary: {err}"));
    let rss = summary
        .split("; peak RSS ")
        .nth(1)
        .unwrap_or_else(|| panic!("no peak RSS field: {summary}"));
    let mib = rss.strip_suffix(" MiB").and_then(|v| v.parse::<f64>().ok());
    assert!(
        rss == "n/a" || mib.is_some_and(|m| m > 0.0),
        "peak RSS reads '{rss}'"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("peak RSS"), "stdout is the figure only");
}

#[test]
fn list_exits_0() {
    let out = run(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("workloads:") && stdout.contains("pact"));
}

// --- tierctl report / serve-metrics ----------------------------------

#[test]
fn report_writes_artifacts_and_exits_0() {
    let dir = fixture_dir("report_out");
    let out = run(&[
        "report",
        "--workload",
        "gups",
        "--seed",
        "1",
        "--topk",
        "5",
        "--out",
        dir.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("criticality report for gups/"), "{stdout}");
    let md = std::fs::read_to_string(dir.join("report.md")).expect("report.md");
    assert!(md.contains("# Criticality report"), "{md}");
    assert!(md.contains("## Most critical pages"), "{md}");
    let json = std::fs::read_to_string(dir.join("report.json")).expect("report.json");
    pact_obs::validate(&json).expect("report.json is valid JSON");
    assert!(json.contains("\"total_stall_cycles\""), "{json}");
    let folded = std::fs::read_to_string(dir.join("flame.folded")).expect("flame.folded");
    // Every folded line is `tier;huge#H;page#P count`.
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line");
        count.parse::<u64>().expect("folded count");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 3, "{line}");
        assert!(frames[0] == "fast" || frames[0] == "slow", "{line}");
        assert!(frames[1].starts_with("huge#"), "{line}");
        assert!(frames[2].starts_with("page#"), "{line}");
    }
}

#[test]
fn malformed_observability_env_exits_2() {
    for (var, value) in [
        ("PACT_PROF", "maybe"),
        ("PACT_PROF", "2"),
        ("PACT_PROF", "yes"),
    ] {
        let out = tierctl(&["--list"])
            .env(var, value)
            .output()
            .expect("spawn tierctl");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{var}={value}: {}",
            stderr_of(&out)
        );
        assert!(stderr_of(&out).contains(var), "{}", stderr_of(&out));
    }
}

#[test]
fn malformed_scaling_env_exits_2_naming_the_variable() {
    // Every PACT_* knob is validated at startup with a structured
    // one-line error that names the variable.
    for (var, value) in [
        ("PACT_JOBS", "0"),
        ("PACT_JOBS", "-3"),
        ("PACT_JOBS", "abc"),
    ] {
        let out = tierctl(&["--list"])
            .env(var, value)
            .output()
            .expect("spawn tierctl");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{var}={value}: {}",
            stderr_of(&out)
        );
        let err = stderr_of(&out);
        assert!(err.contains(var), "{err}");
        assert!(err.contains(value), "{err}");
        assert_eq!(err.lines().count(), 1, "one-line error expected: {err}");
    }
}

#[test]
fn malformed_subcommand_flags_exit_2() {
    for args in [
        &["report", "--topk", "0"][..],
        &["snapshot", "--every", "0"],
        &["serve-metrics", "--addr", "not-an-addr"],
        &["--workload", "nope"],
        &["trace", "--workload", "nope"],
        &["snapshot", "--workload", "nope"],
        &["fleet", "--tenants", "a:nope:1"],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            stderr_of(&out)
        );
        assert!(out.stdout.is_empty(), "nothing may run on bad usage");
        if args.iter().any(|a| a.contains("nope")) {
            let err = stderr_of(&out);
            assert!(
                err.contains("unknown workload 'nope'") && err.contains("zipf-drift"),
                "args {args:?}: {err}"
            );
        }
    }
}

// --- tierctl fleet ---------------------------------------------------

#[test]
fn fleet_prints_tenant_rows_and_rejects_orders() {
    let out = run(&["fleet", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let rows = stdout
        .lines()
        .filter(|l| ["app ", "hog ", "store "].iter().any(|t| l.starts_with(t)))
        .count();
    assert_eq!(rows, 3, "{stdout}");
    let rejected: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("admission: "))
        .and_then(|l| l.split(' ').find_map(|kv| kv.strip_prefix("rejected=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no admission line with rejected=N:\n{stdout}"));
    assert!(
        rejected > 0,
        "the fleet cell never rejected an order:\n{stdout}"
    );
}

#[test]
fn fleet_rejects_bad_tenants_and_budget_with_2() {
    for args in [
        &["fleet", "--tenants", "a:gups"][..],
        &["fleet", "--budget", "0"],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            stderr_of(&out)
        );
        assert!(out.stdout.is_empty(), "nothing may run on bad usage");
    }
}

// --- tierctl snapshot / resume ---------------------------------------

/// The fault plan the crash-recovery tests capture under.
const FAULTS: &str = "drop=0.2,fail=0.6,retries=2,backoff=2,seed=7";

/// Runs `tierctl ARGS` under the fault plan `faults`, when given.
fn run_under(args: &[&str], faults: Option<&str>) -> Output {
    let mut cmd = tierctl(args);
    if let Some(spec) = faults {
        cmd.env("PACT_FAULTS", spec);
    }
    cmd.output().expect("spawn tierctl")
}

/// Runs `tierctl snapshot ARGS --out DIR` under `faults` and returns
/// its `report:`/`digest:` lines and the frames it wrote, in capture
/// order.
fn capture(dir: &std::path::Path, args: &str, faults: Option<&str>) -> (String, Vec<String>) {
    std::fs::create_dir_all(dir).expect("mkdir snapshot dir");
    let dir_arg = dir.to_str().expect("utf8 path");
    let mut argv = vec!["snapshot", "--out", dir_arg];
    argv.extend(args.split_whitespace());
    let out = run_under(&argv, faults);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let mut snaps: Vec<String> = std::fs::read_dir(dir)
        .expect("read snapshot dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pactsnap"))
        .map(|p| p.to_str().expect("utf8 path").to_string())
        .collect();
    snaps.sort();
    assert!(!snaps.is_empty(), "no snapshots written");
    (outcome(&out), snaps)
}

/// The lines a resumed run must reproduce exactly.
fn outcome(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines = stdout
        .lines()
        .filter(|l| l.starts_with("report:") || l.starts_with("digest:"));
    lines.collect::<Vec<_>>().join("\n")
}

#[test]
fn snapshot_then_resume_reproduces_the_digest() {
    // A plain capture, and one under a fault plan that resumes under
    // the same plan.
    let cells = [
        (
            "snap_roundtrip",
            "--workload gups --policy pact --seed 5 --every 1",
            None,
        ),
        (
            "snap_faults",
            "--workload masim --policy pact --ratio 1:2 --seed 7 --every 8",
            Some(FAULTS),
        ),
    ];
    for (name, args, faults) in cells {
        let (want, snaps) = capture(&fixture_dir(name), args, faults);
        assert!(want.contains("digest:"), "{name}: no digest line");
        // Every snapshot point resumes to the same end-of-run report.
        for snap in &snaps {
            let out = run_under(&["resume", "--from", snap], faults);
            assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
            assert_eq!(outcome(&out), want, "resume from {snap} diverged");
        }
    }
}

#[test]
fn resume_rejects_corrupt_and_missing_snapshots_with_2() {
    let dir = fixture_dir("snap_corrupt");
    let (_, snaps) = capture(&dir, "--workload gups --seed 2 --every 1", Some(FAULTS));
    // Flip a byte deep in the frame payload: checksum mismatch, not UB.
    let mut bytes = std::fs::read(&snaps[0]).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let corrupt = dir.join("corrupt.pactsnap");
    std::fs::write(&corrupt, &bytes).expect("write corrupt snapshot");
    let out = run_under(
        &["resume", "--from", corrupt.to_str().expect("utf8 path")],
        Some(FAULTS),
    );
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    // The fault plan is part of the configuration fingerprint: resuming
    // without the capture's plan is refused.
    let out = run(&["resume", "--from", &snaps[0]]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    // Missing file and missing --from are usage errors too.
    let gone = dir.join("no_such.pactsnap");
    let out = run(&["resume", "--from", gone.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let out = run(&["resume"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
}

#[test]
fn serve_metrics_self_check_exits_0() {
    let out = run(&[
        "serve-metrics",
        "--workload",
        "gups",
        "--seed",
        "1",
        "--self-check",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-check ok"), "{stdout}");
}

#[test]
fn report_with_prof_emits_summary_on_stderr_only() {
    // The criticality artifacts are sim-domain data (DESIGN.md §12):
    // arming the host profiler must not change a byte of them, even on
    // a fault-injected cell, and its wall-clock summary goes to stderr.
    let report = |name: &str, prof: bool| {
        let dir = fixture_dir(name);
        let mut cmd = tierctl(&[
            "report",
            "--workload",
            "gups",
            "--policy",
            "pact",
            "--ratio",
            "1:2",
            "--seed",
            "7",
            "--out",
            dir.to_str().expect("utf8 path"),
        ]);
        cmd.env(
            "PACT_FAULTS",
            "drop=0.2,fail=0.6,retries=1,stall=slow:20000:0.5,seed=7",
        );
        if prof {
            cmd.env("PACT_PROF", "1");
        }
        let out = cmd.output().expect("spawn tierctl");
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        (out, dir)
    };
    let (plain, plain_dir) = report("report_plain", false);
    let (prof, prof_dir) = report("report_prof", true);
    assert!(
        stderr_of(&prof).contains("host self-profile"),
        "{}",
        stderr_of(&prof)
    );
    assert!(!stderr_of(&plain).contains("host self-profile"));
    let summary = |out: &Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout.lines().next().unwrap_or_default().to_string()
    };
    assert_eq!(
        summary(&plain),
        summary(&prof),
        "stdout changed under PACT_PROF"
    );
    for name in ["report.md", "report.json", "flame.folded"] {
        let want = std::fs::read(plain_dir.join(name)).expect(name);
        let got = std::fs::read(prof_dir.join(name)).expect(name);
        assert!(want == got, "{name} changed under PACT_PROF");
    }
}
