//! End-to-end CLI tests for `tierctl`: exit-code conventions (0 ok,
//! 1 check failure, 2 invalid usage) are part of the CI pipeline's
//! contract, so they are pinned here against the real binary.

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
fn check_rejects_bad_usage_with_2() {
    for args in [
        &["check", "--fuzz", "many"][..],
        &["check", "--case", "0xnothex"],
        &["check", "--nope"],
        &["check", "--seed"],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn check_small_fuzz_is_green_and_deterministic() {
    let a = run(&["check", "--fuzz", "3", "--seed", "1"]);
    assert_eq!(a.status.code(), Some(0), "{}", stderr_of(&a));
    let stdout_a = String::from_utf8_lossy(&a.stdout).into_owned();
    assert!(stdout_a.contains("fuzz: 3/3 cases passed"), "{stdout_a}");
    let b = run(&["check", "--fuzz", "3", "--seed", "1"]);
    assert_eq!(stdout_a, String::from_utf8_lossy(&b.stdout));
}

#[test]
fn check_replays_a_single_case() {
    let out = run(&["check", "--case", "0x1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok policy="), "{stdout}");
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
        &["trace"],
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

#[test]
fn snapshot_then_resume_reproduces_the_digest() {
    let dir = fixture_dir("snap_roundtrip");
    std::fs::create_dir_all(&dir).expect("mkdir snapshot dir");
    let out = run(&[
        "snapshot",
        "--workload",
        "gups",
        "--policy",
        "pact",
        "--seed",
        "5",
        "--every",
        "1",
        "--out",
        dir.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let digest = stdout
        .lines()
        .find(|l| l.starts_with("digest:"))
        .expect("snapshot run prints a digest line")
        .to_string();
    let mut snaps: Vec<_> = std::fs::read_dir(&dir)
        .expect("read snapshot dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pactsnap"))
        .collect();
    snaps.sort();
    assert!(!snaps.is_empty(), "no snapshots written:\n{stdout}");
    // Every snapshot point resumes to the same end-of-run digest.
    for snap in &snaps {
        let out = run(&["resume", "--from", snap.to_str().expect("utf8 path")]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        let resumed = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            resumed.lines().any(|l| l == digest),
            "resume from {} diverged:\n{resumed}\nwant {digest}",
            snap.display()
        );
    }
}

#[test]
fn resume_rejects_corrupt_and_missing_snapshots_with_2() {
    let dir = fixture_dir("snap_corrupt");
    std::fs::create_dir_all(&dir).expect("mkdir snapshot dir");
    let out = run(&[
        "snapshot",
        "--workload",
        "gups",
        "--seed",
        "2",
        "--every",
        "1",
        "--out",
        dir.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let snap = std::fs::read_dir(&dir)
        .expect("read snapshot dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "pactsnap"))
        .expect("at least one snapshot");
    // Flip a byte deep in the frame payload: checksum mismatch, not UB.
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let corrupt = dir.join("corrupt.pactsnap");
    std::fs::write(&corrupt, &bytes).expect("write corrupt snapshot");
    let out = run(&["resume", "--from", corrupt.to_str().expect("utf8 path")]);
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
    let dir = fixture_dir("report_prof");
    let out = tierctl(&[
        "report",
        "--workload",
        "gups",
        "--seed",
        "1",
        "--out",
        dir.to_str().expect("utf8 path"),
    ])
    .env("PACT_PROF", "1")
    .output()
    .expect("spawn tierctl");
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    // Host timings go to stderr; the deterministic artifacts and stdout
    // stay clean of wall-clock numbers.
    assert!(
        stderr_of(&out).contains("host self-profile"),
        "{}",
        stderr_of(&out)
    );
    let md = std::fs::read_to_string(dir.join("report.md")).expect("report.md");
    assert!(!md.contains("host self-profile"), "{md}");
}

// --- tierctl lint ----------------------------------------------------

/// Writes a throwaway one-crate workspace for lint to scan.
fn lint_fixture(dir: &std::path::Path, src: &str) {
    std::fs::create_dir_all(dir.join("crates/tiersim/src")).expect("mkdir fixture");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(dir.join("crates/tiersim/src/lib.rs"), src).expect("write source");
}

fn fixture_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // A stale tree from an earlier run would leak extra findings.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn lint_clean_tree_exits_0() {
    let dir = fixture_dir("lint_clean");
    lint_fixture(&dir, "//! Clean.\npub fn ok() -> u32 { 1 }\n");
    let out = run(&["lint", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 findings"), "{stdout}");
}

#[test]
fn lint_findings_exit_1_with_rustc_style_diagnostics() {
    let dir = fixture_dir("lint_dirty");
    lint_fixture(&dir, "use std::collections::HashMap;\n");
    let out = run(&["lint", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("error[D001/det-hash-collections]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("--> crates/tiersim/src/lib.rs:1:23"),
        "{stdout}"
    );
    assert!(stdout.contains("= help:"), "{stdout}");
}

#[test]
fn lint_json_mode_is_machine_readable() {
    let dir = fixture_dir("lint_json");
    lint_fixture(&dir, "use std::collections::HashMap;\n");
    let out = run(&["lint", "--json", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    pact_obs::validate(&stdout).expect("lint --json emits valid JSON");
    assert!(stdout.contains("\"tool\":\"pact-lint\""), "{stdout}");
    assert!(
        stdout.contains("\"rule\":\"det-hash-collections\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"findings_total\":1"), "{stdout}");
}

#[test]
fn lint_rule_filter_restricts_the_rule_set() {
    let dir = fixture_dir("lint_filter");
    // One D001 and one H003 finding in the same file.
    lint_fixture(
        &dir,
        "use std::collections::HashMap;\npub fn f() { println!(\"x\"); }\n",
    );
    let all = run(&["lint", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(all.status.code(), Some(1));
    let filtered = run(&[
        "lint",
        "--rule",
        "stray-print",
        "--root",
        dir.to_str().expect("utf8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&filtered.stdout);
    assert_eq!(filtered.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("stray-print"), "{stdout}");
    assert!(!stdout.contains("det-hash-collections"), "{stdout}");
}

#[test]
fn lint_rejects_bad_usage_with_2() {
    for args in [
        &["lint", "--rule", "no-such-rule"][..],
        &["lint", "--nope"],
        &["lint", "--root"],
        &["lint", "--root", "/definitely/not/a/workspace"],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn lint_list_rules_prints_the_catalogue() {
    let out = run(&["lint", "--list-rules"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in [
        "det-hash-collections",
        "det-wall-clock",
        "det-rng",
        "det-env-read",
        "naked-unwrap",
        "counter-truncation",
        "stray-print",
        "suppression",
    ] {
        assert!(stdout.contains(id), "missing {id} in:\n{stdout}");
    }
}

#[test]
fn lint_of_this_workspace_is_clean() {
    // The gate CI enforces: the real tree has zero findings. --root
    // points at the repo root, two levels up from crates/bench.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the workspace root")
        .to_path_buf();
    let out = run(&["lint", "--root", root.to_str().expect("utf8 path")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace has lint findings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A minimal D-rule violation: a wall-clock read (D002) in a
/// deterministic crate.
const D002_SRC: &str = "pub fn t() -> u64 { std::time::Instant::now().elapsed().as_secs() }\n";

#[test]
fn lint_rule_glob_selects_the_d_family() {
    let dir = fixture_dir("lint_dglob");
    let src = format!("pub fn f() {{ println!(\"x\"); }}\n{D002_SRC}");
    lint_fixture(&dir, &src);
    let root = dir.to_str().expect("utf8 path");
    let all = run(&["lint", "--root", root]);
    assert_eq!(all.status.code(), Some(1));
    let all_out = String::from_utf8_lossy(&all.stdout).into_owned();
    assert!(all_out.contains("stray-print"), "{all_out}");
    assert!(all_out.contains("det-wall-clock"), "{all_out}");
    let only_d = run(&["lint", "--root", root, "--rule", "D*"]);
    assert_eq!(only_d.status.code(), Some(1));
    let d_out = String::from_utf8_lossy(&only_d.stdout).into_owned();
    assert!(!d_out.contains("stray-print"), "{d_out}");
    assert!(d_out.contains("det-wall-clock"), "{d_out}");
}

#[test]
fn lint_changed_files_agrees_with_the_full_run() {
    let dir = fixture_dir("lint_changed");
    lint_fixture(&dir, D002_SRC);
    std::fs::write(
        dir.join("crates/tiersim/src/other.rs"),
        "use std::collections::HashMap;\n",
    )
    .expect("write second source");
    let root = dir.to_str().expect("utf8 path");
    let full = run(&["lint", "--root", root]);
    assert_eq!(full.status.code(), Some(1));
    let full_out = String::from_utf8_lossy(&full.stdout).into_owned();
    let changed = run(&[
        "lint",
        "--root",
        root,
        "--changed-files",
        "crates/tiersim/src/lib.rs",
    ]);
    assert_eq!(changed.status.code(), Some(1));
    let changed_out = String::from_utf8_lossy(&changed.stdout).into_owned();
    // Whole-workspace and changed-files runs agree exactly on the
    // overlapping file: same findings at the same positions.
    let locs = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.trim_start().starts_with("-->"))
            .map(|l| l.trim().to_string())
            .collect()
    };
    let full_lib: Vec<String> = locs(&full_out)
        .into_iter()
        .filter(|l| l.contains("lib.rs"))
        .collect();
    assert!(!full_lib.is_empty(), "{full_out}");
    assert_eq!(locs(&changed_out), full_lib, "{changed_out}");
    assert!(!changed_out.contains("other.rs"), "{changed_out}");
    // The untouched file's findings still gate a full run, proving the
    // filter trims the report, not the analysis.
    assert!(full_out.contains("other.rs"), "{full_out}");
}

#[test]
fn lint_changed_files_reads_stdin_dash() {
    use std::io::Write as _;
    let dir = fixture_dir("lint_changed_stdin");
    lint_fixture(&dir, D002_SRC);
    let root = dir.to_str().expect("utf8 path");
    let mut child = tierctl(&["lint", "--root", root, "--changed-files", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tierctl");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"crates/tiersim/src/lib.rs\n")
        .expect("write stdin");
    let out = child.wait_with_output().expect("tierctl exits");
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("det-wall-clock"), "{stdout}");
}
