//! `tierctl` — run any (workload, policy, ratio) combination from the
//! command line and print the full outcome.
//!
//! ```text
//! cargo run --release -p pact-bench --bin tierctl -- \
//!     --workload bc-kron --policy pact --ratio 1:2 [--thp] [--scale smoke]
//! tierctl trace --workload gups --policy pact --out run.json   # event trace
//! tierctl --list                # show workloads and policies
//! ```
//!
//! The `trace` subcommand runs one cell with the structured event
//! tracer enabled and exports it as Chrome-trace JSON (open in
//! Perfetto / `chrome://tracing`) or JSONL; `--validate` parses the
//! output before writing, so CI can gate on well-formedness without
//! external tools.
//!
//! The `report` subcommand runs one cell with the criticality oracle
//! armed and writes the attribution artifacts (DESIGN.md §12):
//!
//! ```text
//! tierctl report --workload gups --policy pact --out report_dir
//! # -> report_dir/report.md, report.json, flame.folded
//! ```
//!
//! The `snapshot` subcommand runs one cell while capturing versioned
//! crash-recovery snapshots at a fixed window cadence (DESIGN.md §13);
//! `resume` restores one of those files and runs the cell to
//! completion. A resumed run's report is byte-identical to the
//! uninterrupted run — the `digest:` line pins it, and the CI
//! `snapshot` stage and `pact-check`'s kill-resume oracle compare it:
//!
//! ```text
//! tierctl snapshot --workload gups --every 8 --out snaps
//! tierctl resume --from snaps/snap_000008.pactsnap
//! ```
//!
//! The `fleet` subcommand runs a multi-tenant cell (DESIGN.md §14):
//! N colocated workloads share one machine's tiers under a policy
//! wrapped in migration admission control with per-tenant QoS
//! weights, and the summary prints one accounting row per tenant plus
//! a greppable `admission:` line and a deterministic digest:
//!
//! ```text
//! tierctl fleet --tenants app:gups:4,hog:mlc-hog:1,zd:zipf-drift:2
//! ```
//!
//! The `serve-metrics` subcommand runs one cell and serves its metrics
//! as Prometheus text exposition plus a `/healthz` probe:
//!
//! ```text
//! tierctl serve-metrics --workload gups --addr 127.0.0.1:9464
//! tierctl serve-metrics --self-check        # bind, scrape, verify, exit
//! ```
//!
//! The `check` subcommand is the CLI front end of `pact-check`:
//!
//! ```text
//! tierctl check --fuzz 200 --seed 1      # deterministic config fuzzing
//! tierctl check --oracle                 # differential oracles too
//! tierctl check --case 0xdeadbeef        # replay one failing fuzz case
//! ```
//!
//! The `repro` subcommand reproduces the paper's evaluation: every
//! figure, Table 2, the ablations and the extra experiments, or the
//! `--fig` selection, printed in report order and saved under
//! `results/` at paper scale. A workload several figures use is built
//! once and a cell several figures request runs once; figures run in
//! parallel on `PACT_JOBS` workers without changing a byte of output:
//!
//! ```text
//! tierctl repro                          # everything, paper scale
//! tierctl repro --fig fig04,fig06 --scale smoke --seed 7
//! ```
//!
//! The `lint` subcommand runs the pact-lint static-analysis pass over
//! the workspace sources (determinism & hygiene rules, DESIGN.md §11):
//!
//! ```text
//! tierctl lint                         # lint the enclosing workspace
//! tierctl lint --json                  # machine-readable diagnostics
//! tierctl lint --rule naked-unwrap     # run a subset of rules
//! tierctl lint --list-rules            # print the rule catalogue
//! ```
//!
//! Exit status: 0 all checks passed, 1 a check failed (or lint
//! findings exist), 2 invalid usage or I/O error.

use pact_bench::figures::{self, Figure, FIGURES};
use pact_bench::snapfile::CellSnapshot;
use pact_bench::{
    count, experiment_machine, make_policy, pct, save_results, serve, Harness, Lab, OrExit,
    RunError, TierRatio, ALL_POLICIES,
};
use pact_obs::{validate, DEFAULT_RING_CAPACITY};
use pact_tiersim::{
    export_trace, Admission, AdmissionControl, AdmissionLane, CriticalityReport, Machine,
    MachineConfig, RunReport, RunSpec, Tier, TraceFormat, Tracer, DEFAULT_REPORT_TOPK,
};
use pact_workloads::suite::{build, Scale, SUITE};

struct Args {
    workload: String,
    policy: String,
    ratio: TierRatio,
    thp: bool,
    scale: Scale,
    seed: u64,
    windows: bool,
    trace_out: Option<String>,
    // `trace` / `report` / `serve-metrics` / `snapshot` / `resume`
    // subcommand state.
    trace_cmd: bool,
    report_cmd: bool,
    serve_cmd: bool,
    snapshot_cmd: bool,
    resume_cmd: bool,
    out: Option<String>,
    format: TraceFormat,
    validate: bool,
    topk: Option<usize>,
    addr: Option<std::net::SocketAddr>,
    max_requests: Option<usize>,
    self_check: bool,
    every: Option<u64>,
    from: Option<String>,
    // `fleet` subcommand state.
    fleet_cmd: bool,
    tenants: Option<String>,
    budget: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "bc-kron".into(),
        policy: "pact".into(),
        ratio: TierRatio::new(1, 1),
        thp: false,
        scale: Scale::Paper,
        seed: 42,
        windows: false,
        trace_out: None,
        trace_cmd: false,
        report_cmd: false,
        serve_cmd: false,
        snapshot_cmd: false,
        resume_cmd: false,
        out: None,
        format: TraceFormat::Chrome,
        validate: false,
        topk: None,
        addr: None,
        max_requests: None,
        self_check: false,
        every: None,
        from: None,
        fleet_cmd: false,
        tenants: None,
        budget: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    // The inspection subcommands default to smoke scale: their runs
    // exist to be looked at (or scraped), not for paper-scale timing.
    match it.peek().map(String::as_str) {
        Some("trace") => {
            it.next();
            args.trace_cmd = true;
            args.scale = Scale::Smoke;
        }
        Some("report") => {
            it.next();
            args.report_cmd = true;
            args.scale = Scale::Smoke;
        }
        Some("serve-metrics") => {
            it.next();
            args.serve_cmd = true;
            args.scale = Scale::Smoke;
        }
        Some("snapshot") => {
            it.next();
            args.snapshot_cmd = true;
            args.scale = Scale::Smoke;
        }
        Some("resume") => {
            it.next();
            args.resume_cmd = true;
            args.scale = Scale::Smoke;
        }
        Some("fleet") => {
            it.next();
            args.fleet_cmd = true;
            args.scale = Scale::Smoke;
        }
        _ => {}
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" | "-w" => args.workload = it.next().ok_or("--workload needs a value")?,
            "--policy" | "-p" => args.policy = it.next().ok_or("--policy needs a value")?,
            "--ratio" | "-r" => {
                let v = it.next().ok_or("--ratio needs a value")?;
                let (f, s) = v.split_once(':').ok_or("ratio format is F:S")?;
                args.ratio = TierRatio::new(
                    f.parse().map_err(|_| "bad ratio")?,
                    s.parse().map_err(|_| "bad ratio")?,
                );
                if args.ratio.fast == 0 && args.ratio.slow == 0 {
                    return Err("ratio must have at least one non-zero part".into());
                }
            }
            "--thp" => args.thp = true,
            "--scale" => {
                args.scale = match it.next().as_deref() {
                    Some("smoke") => Scale::Smoke,
                    Some("paper") => Scale::Paper,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).ok_or("bad seed")?,
            "--windows" => args.windows = true,
            "--trace-out" => args.trace_out = Some(it.next().ok_or("--trace-out needs a path")?),
            "--out" | "-o" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--format" | "-f" => {
                let v = it.next().ok_or("--format needs chrome|jsonl")?;
                args.format = TraceFormat::parse(&v).ok_or(format!("unknown format '{v}'"))?;
            }
            "--validate" => args.validate = true,
            "--topk" => {
                let v = it.next().ok_or("--topk needs a row count")?;
                args.topk = match v.parse::<usize>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return Err(format!("bad topk '{v}': expected a positive integer")),
                };
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs host:port")?;
                args.addr = Some(v.parse().map_err(|e| format!("bad addr '{v}': {e}"))?);
            }
            "--max-requests" => {
                let v = it.next().ok_or("--max-requests needs a count")?;
                args.max_requests =
                    Some(v.parse().map_err(|_| format!("bad request count '{v}'"))?);
            }
            "--self-check" => args.self_check = true,
            "--every" => {
                let v = it.next().ok_or("--every needs a window count")?;
                args.every = match v.parse::<u64>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return Err(format!("bad cadence '{v}': expected a positive integer")),
                };
            }
            "--from" => args.from = Some(it.next().ok_or("--from needs a snapshot file")?),
            "--tenants" => {
                args.tenants = Some(
                    it.next()
                        .ok_or("--tenants needs name:workload:weight,...")?,
                )
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs an order count")?;
                args.budget = match v.parse::<u64>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return Err(format!("bad budget '{v}': expected a positive integer")),
                };
            }
            "--list" => {
                println!("workloads: {}", SUITE.join(", "));
                println!("           masim, gups (motivation)");
                println!("policies:  {}", ALL_POLICIES.join(", "));
                println!("           pact-freq (frequency-ranked PACT)");
                std::process::exit(0);
            }
            "--help" | "-h" => {
                return Err("usage: tierctl [--workload W] [--policy P] [--ratio F:S] \
                     [--thp] [--scale smoke|paper] [--seed N] [--windows] \
                     [--trace-out FILE] [--list]\n       \
                     tierctl trace [--workload W] [--policy P] [--ratio F:S] [--thp] \
                     [--scale smoke|paper] [--seed N] [--out FILE] \
                     [--format chrome|jsonl] [--validate]\n       \
                     tierctl report [--workload W] [--policy P] [--ratio F:S] [--thp] \
                     [--scale smoke|paper] [--seed N] [--out DIR] [--topk N]\n       \
                     tierctl serve-metrics [--workload W] [--policy P] [--ratio F:S] \
                     [--scale smoke|paper] [--seed N] [--addr HOST:PORT] \
                     [--max-requests N] [--self-check]\n       \
                     tierctl snapshot [--workload W] [--policy P] [--ratio F:S] [--thp] \
                     [--scale smoke|paper] [--seed N] [--every N] [--out DIR]\n       \
                     tierctl resume --from FILE\n       \
                     tierctl fleet [--tenants NAME:WORKLOAD:WEIGHT,...] [--policy P] \
                     [--ratio F:S] [--scale smoke|paper] [--seed N] [--budget N]\n       \
                     tierctl check [--fuzz N] [--seed S] [--case 0xHEX] [--oracle] \
                     [--workload W]...\n       \
                     tierctl lint [--root DIR] [--json] [--rule ID]... [--list-rules]\n       \
                     tierctl repro [--fig NAME[,NAME...]] [--scale smoke|paper] [--seed N]"
                    .into())
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

struct CheckArgs {
    fuzz: u32,
    seed: u64,
    case: Option<u64>,
    oracle: bool,
    workloads: Vec<String>,
}

fn parse_check_args(mut it: impl Iterator<Item = String>) -> Result<CheckArgs, String> {
    let mut args = CheckArgs {
        fuzz: 120,
        seed: 1,
        case: None,
        oracle: false,
        workloads: Vec::new(),
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fuzz" => {
                let v = it.next().ok_or("--fuzz needs a case count")?;
                args.fuzz = v.parse().map_err(|_| format!("bad case count '{v}'"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--case" => {
                let v = it.next().ok_or("--case needs a hex seed")?;
                let hex = v.strip_prefix("0x").unwrap_or(&v);
                args.case =
                    Some(u64::from_str_radix(hex, 16).map_err(|_| format!("bad case seed '{v}'"))?);
            }
            "--oracle" => args.oracle = true,
            "--workload" | "-w" => args
                .workloads
                .push(it.next().ok_or("--workload needs a value")?),
            "--help" | "-h" => {
                return Err("usage: tierctl check [--fuzz N] [--seed S] [--case 0xHEX] \
                     [--oracle] [--workload W]..."
                    .into())
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// The `check` subcommand: deterministic config fuzzing plus optional
/// differential oracles. Exits 1 when any check fails.
fn run_check(args: &CheckArgs) {
    // Replay mode: one case from its printed seed.
    if let Some(seed) = args.case {
        match pact_check::run_case(seed) {
            Ok(s) => println!(
                "case seed={seed:#018x} ok policy={} windows={} cycles={}",
                s.policy, s.windows, s.total_cycles
            ),
            Err(e) => {
                eprintln!("case seed={seed:#018x} FAIL {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut failed = false;
    if args.oracle {
        let defaults = ["gups".to_string(), "masim".to_string()];
        let cells: &[String] = if args.workloads.is_empty() {
            &defaults
        } else {
            &args.workloads
        };
        for wl in cells {
            let ledger = pact_check::check_cell(wl, args.seed);
            println!("differential oracles: {wl} seed={}", args.seed);
            print!("{}", ledger.render());
            failed |= !ledger.is_ok();
        }
    }
    let ledger = pact_check::run_fuzz(&pact_check::FuzzOptions {
        cases: args.fuzz,
        seed: args.seed,
    });
    print!("{}", ledger.render());
    println!(
        "fuzz: {}/{} cases passed (seed {})",
        args.fuzz as usize - ledger.failures.len(),
        args.fuzz,
        args.seed
    );
    if failed || !ledger.is_ok() {
        std::process::exit(1);
    }
}

/// The `trace` subcommand: one traced run, exported (and optionally
/// validated) to `--out`.
fn run_trace(args: &Args) {
    let mut tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
    let out = cell_harness(args, false)
        .run_policy(&args.policy, args.ratio, Some(&mut tracer))
        .unwrap_or_else(|e| exit_run_error(e));
    let label = format!("{}/{}/{}", args.workload, args.policy, args.ratio);
    let body = export_trace(&out.report, &tracer, &label, args.format);
    if args.validate {
        let bad = match args.format {
            TraceFormat::Chrome => validate(&body)
                .err()
                .map(|e| format!("invalid chrome trace: {e}")),
            TraceFormat::Jsonl => body.lines().enumerate().find_map(|(i, line)| {
                validate(line)
                    .err()
                    .map(|e| format!("invalid jsonl line {}: {e}", i + 1))
            }),
        };
        if let Some(msg) = bad {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("trace.{}", args.format.extension()));
    std::fs::write(&path, &body).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "traced {label}: {} events ({} overwritten), {} windows, {} cycles",
        tracer.len(),
        tracer.overwritten(),
        out.report.windows.len(),
        out.report.total_cycles
    );
    if tracer.overwritten() > 0 {
        eprintln!(
            "warning: trace ring overflowed; the {} oldest events were dropped \
             (per-window counts are in each window's trace_dropped_events)",
            tracer.overwritten()
        );
    }
    // Greppable one-liner for the CI fault-injection smoke test.
    println!(
        "migration health: failed_promotions={} dropped_orders={}",
        out.report.failed_promotions, out.report.dropped_orders
    );
    println!(
        "wrote {path} ({} bytes, {} format{})",
        body.len(),
        args.format,
        if args.validate { ", validated" } else { "" }
    );
}

/// The harness for one `--workload`/`--seed`/`--thp` cell; the
/// one-shot summary, `trace`, `report` and `serve-metrics` all start
/// here so the same flags simulate the same machine. `track_stalls`
/// arms the criticality oracle (the `report` path).
fn cell_harness(args: &Args, track_stalls: bool) -> Harness {
    let cfg = cell_machine_config(0, args.thp, args.seed, track_stalls, 0);
    Harness::new(build(&args.workload, args.scale, args.seed))
        .with_machine(cfg)
        .or_exit()
}

/// Reports `e` as a one-line `error:` and exits 2.
fn exit_error(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// Exits 2 on a failed cell run; a bad policy name also lists the
/// known ones.
fn exit_run_error(e: RunError) -> ! {
    if let RunError::Sim(e) = e {
        pact_bench::exit_invalid_config(e);
    }
    eprintln!("{e}; known policies: {}", ALL_POLICIES.join(", "));
    std::process::exit(2);
}

/// Runs one cell for a subcommand that inspects a finished run,
/// exiting 2 on an unknown policy.
fn run_cell(args: &Args, track_stalls: bool) -> (pact_bench::Outcome, String) {
    let out = cell_harness(args, track_stalls)
        .run_policy(&args.policy, args.ratio, None)
        .unwrap_or_else(|e| exit_run_error(e));
    let label = format!("{}/{}/{}", args.workload, args.policy, args.ratio);
    (out, label)
}

/// The `report` subcommand: one run with the criticality oracle armed,
/// folded flamegraph + markdown + JSON written to `--out`. Artifacts
/// are sim-domain and byte-identical across `PACT_JOBS`; the CI
/// `obs-report` stage pins this with `cmp`.
fn run_report(args: &Args) {
    let (out, label) = run_cell(args, true);
    let topk = args.topk.unwrap_or(DEFAULT_REPORT_TOPK);
    // Borrow the oracle out of the report — the map can hold an entry
    // per touched page, and the report path must not duplicate it.
    let crit = CriticalityReport::new(&out.report, topk).unwrap_or_else(|| {
        eprintln!("internal error: report ran without the page-stall oracle");
        std::process::exit(1);
    });
    let dir = std::path::PathBuf::from(args.out.as_deref().unwrap_or("report"));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    });
    let artifacts = [
        ("report.md", crit.to_markdown()),
        ("report.json", crit.to_json()),
        ("flame.folded", crit.folded()),
    ];
    for (name, body) in &artifacts {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
    }
    println!(
        "criticality report for {label}: {} blamed stall cycles across {} pages (top-{topk})",
        crit.total_stalls(),
        out.report.page_stalls.as_ref().map_or(0, |m| m.len()),
    );
    println!(
        "wrote {}/report.md, report.json, flame.folded",
        dir.display()
    );
}

/// The `serve-metrics` subcommand: one run, then a Prometheus
/// text-exposition endpoint over its metrics (plus `/healthz`).
/// `--self-check` binds an ephemeral port, scrapes both routes through
/// a real TCP client, and exits — the CI path when `curl` is absent.
fn run_serve_metrics(args: &Args) {
    let (out, label) = run_cell(args, false);
    let body = serve::render_prometheus(&label, &out.report);
    if args.self_check {
        serve::self_check(body).unwrap_or_else(|e| {
            eprintln!("serve-metrics self-check failed: {e}");
            std::process::exit(1);
        });
        println!("serve-metrics self-check ok ({label})");
        return;
    }
    let addr = args.addr.unwrap_or_else(|| {
        // Invariant: a literal loopback address always parses.
        "127.0.0.1:9464".parse().expect("valid literal")
    });
    let server = serve::MetricsServer::bind(addr, body).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let bound = server.local_addr().unwrap_or(addr);
    println!("serving metrics for {label} on http://{bound}/metrics (and /healthz)");
    server.serve(args.max_requests).unwrap_or_else(|e| {
        eprintln!("serve error: {e}");
        std::process::exit(1);
    });
}

/// FNV-1a over the report's full `Debug` rendering: an order-sensitive
/// digest of every field the run produced (counters, window records,
/// telemetry, metrics, the page-stall oracle). Equal digests between an
/// uninterrupted run and a kill-resume replay are what the CI
/// `snapshot` stage compares.
fn report_digest(report: &RunReport) -> u64 {
    pact_tiersim::fnv1a(format!("{report:?}").as_bytes())
}

/// The deterministic summary shared by `snapshot` and `resume`: the
/// `report:`/`digest:` lines must be byte-identical between the
/// uninterrupted run and every resumed replay.
fn print_run_summary(label: &str, report: &RunReport) {
    println!("cell {label}");
    print_report_digest(report);
}

/// The `report:`/`digest:` lines of [`print_run_summary`], which
/// `fleet` prints after its tenant rows.
fn print_report_digest(report: &RunReport) {
    println!(
        "report: windows={} cycles={} promotions={} demotions={} failed={} dropped={}",
        report.windows.len(),
        report.total_cycles,
        report.promotions,
        report.demotions,
        report.failed_promotions,
        report.dropped_orders
    );
    println!("digest: {:#018x}", report_digest(report));
}

/// Machine configuration for every single-workload cell. Applies the
/// already-validated `PACT_FAULTS` hook the same way the `Harness`
/// does, so a snapshot cell matches the equivalent `tierctl` run cell
/// exactly.
fn cell_machine_config(
    fast_pages: u64,
    thp: bool,
    seed: u64,
    track_stalls: bool,
    every: u64,
) -> MachineConfig {
    let mut cfg = experiment_machine(fast_pages);
    cfg.thp = thp;
    cfg.seed = seed;
    cfg.track_page_stalls = track_stalls;
    cfg.snapshot_every = every;
    if cfg.fault_plan.is_none() {
        cfg.fault_plan = pact_bench::env::fault_plan().ok().flatten();
    }
    cfg
}

fn cell_policy(name: &str) -> Box<dyn pact_tiersim::TieringPolicy> {
    make_policy(name).unwrap_or_else(|e| exit_run_error(e))
}

/// The `snapshot` subcommand: one cell run to completion with the
/// page-stall oracle armed, writing a versioned cell snapshot every
/// `--every` windows (default 16).
fn run_snapshot(args: &Args) {
    let every = args.every.unwrap_or(16);
    let wl = build(&args.workload, args.scale, args.seed);
    let fast_pages = args.ratio.fast_pages(wl.footprint_bytes());
    let cfg = cell_machine_config(fast_pages, args.thp, args.seed, true, every);
    let machine = Machine::new(cfg).unwrap_or_else(|e| exit_error(e));
    let mut policy = cell_policy(&args.policy);
    let dir = std::path::PathBuf::from(args.out.as_deref().unwrap_or("snapshots"));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    });
    let scale_name = match args.scale {
        Scale::Smoke => "smoke",
        Scale::Paper => "paper",
    };
    let mut written = 0usize;
    let mut write_err: Option<String> = None;
    let report = {
        let mut sink = |frame: pact_tiersim::MachineSnapshot| {
            let window = frame.window().unwrap_or(0);
            let cell = CellSnapshot {
                workload: args.workload.clone(),
                policy: args.policy.clone(),
                scale: scale_name.into(),
                seed: args.seed,
                fast_pages,
                thp: args.thp,
                track_stalls: true,
                frame,
            };
            let path = dir.join(format!("snap_{window:06}.pactsnap"));
            match std::fs::write(&path, cell.to_bytes()) {
                Ok(()) => written += 1,
                Err(e) => {
                    write_err.get_or_insert(format!("cannot write {}: {e}", path.display()));
                }
            }
        };
        machine.run(RunSpec {
            snapshot_sink: Some(&mut sink),
            ..RunSpec::new(&[wl.as_ref()], policy.as_mut())
        })
    }
    .unwrap_or_else(|e| exit_error(e));
    if let Some(e) = write_err {
        eprintln!("{e}");
        std::process::exit(1);
    }
    let label = format!("{}/{}/{}", args.workload, args.policy, args.ratio);
    print_run_summary(&label, &report);
    println!(
        "wrote {written} snapshots to {} (every {every} windows)",
        dir.display()
    );
}

/// The `resume` subcommand: restores a `tierctl snapshot` file and
/// runs the cell to completion. Corrupt, version-bumped, or
/// wrong-configuration snapshots are rejected with exit 2.
fn run_resume(args: &Args) {
    let Some(path) = &args.from else {
        eprintln!("resume needs --from FILE");
        std::process::exit(2);
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let cell = CellSnapshot::from_bytes(&bytes).unwrap_or_else(|e| exit_error(e));
    let scale = match cell.scale.as_str() {
        "smoke" => Scale::Smoke,
        _ => Scale::Paper,
    };
    let wl = build(&cell.workload, scale, cell.seed);
    let cfg = cell_machine_config(cell.fast_pages, cell.thp, cell.seed, cell.track_stalls, 0);
    let machine = Machine::new(cfg).unwrap_or_else(|e| exit_error(e));
    let mut policy = cell_policy(&cell.policy);
    let report = machine
        .run(RunSpec {
            resume_from: Some(&cell.frame),
            ..RunSpec::new(&[wl.as_ref()], policy.as_mut())
        })
        .unwrap_or_else(|e| exit_error(e));
    let window = cell.frame.window().unwrap_or(0);
    let label = format!(
        "{}/{} (resumed from window {window})",
        cell.workload, cell.policy
    );
    print_run_summary(&label, &report);
}

/// The `fleet` subcommand: a colocated cell whose policy runs inside
/// migration admission control (DESIGN.md §14). Prints one accounting
/// row per tenant, a greppable `admission:` line, and the same
/// deterministic digest `snapshot`/`resume` print.
fn run_fleet(args: &Args) {
    // The default noisy-neighbor cell from EXPERIMENTS.md: a
    // latency-sensitive app, a bandwidth hog, and a skew-drift store.
    let spec = args
        .tenants
        .as_deref()
        .unwrap_or("app:gups:4,hog:mlc-hog:1,store:zipf-drift:2");
    let tenants = pact_bench::parse_tenants(spec).unwrap_or_else(|e| {
        eprintln!("invalid --tenants: {e}");
        std::process::exit(2);
    });
    let workloads: Vec<Box<dyn pact_tiersim::Workload>> = tenants
        .iter()
        .map(|t| build(&t.workload, args.scale, args.seed))
        .collect();
    let refs: Vec<&dyn pact_tiersim::Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let total_footprint: u64 = refs.iter().map(|w| w.footprint_bytes()).sum();
    let fast_pages = args.ratio.fast_pages(total_footprint);
    let cfg = cell_machine_config(fast_pages, false, args.seed, true, 0);
    let machine = Machine::new(cfg).unwrap_or_else(|e| exit_error(e));
    let admission = AdmissionControl {
        budget_per_window: args.budget.unwrap_or(4),
        ..AdmissionControl::default()
    };
    let weights = tenants.iter().map(|t| t.qos_weight).collect();
    let mut policy = Admission::new(cell_policy(&args.policy), admission, weights)
        .unwrap_or_else(|e| exit_error(e));
    let report = machine
        .run(RunSpec::new(&refs, &mut policy))
        .unwrap_or_else(|e| exit_error(e));

    let label = format!(
        "fleet[{}]/{}/{}",
        tenants
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join("+"),
        args.policy,
        args.ratio
    );
    println!("cell {label}");
    println!(
        "tenant            weight    accesses  promoted  demoted  admitted  rejected     stalls"
    );
    for ((t, p), a) in tenants.iter().zip(&report.per_process).zip(policy.lanes()) {
        println!(
            "{:<16} {:>7} {:>11} {:>9} {:>8} {:>9} {:>9} {:>10}",
            t.name,
            t.qos_weight,
            p.accesses,
            p.promotions,
            p.demotions,
            a.admitted,
            a.rejected,
            p.stall_cycles[0] + p.stall_cycles[1],
        );
    }
    let sum = |f: fn(&AdmissionLane) -> u64| -> u64 { policy.lanes().iter().map(f).sum() };
    println!(
        "admission: admitted={} rejected={} dropped={}",
        sum(|a| a.admitted),
        sum(|a| a.rejected),
        sum(|a| a.dropped)
    );
    print_report_digest(&report);
}

struct LintArgs {
    root: Option<String>,
    json: bool,
    rules: Vec<String>,
    list_rules: bool,
    changed_files: Option<Vec<String>>,
}

/// Expands one `--rule` argument against the catalogue: an exact id
/// (`det-rng`), an exact code (`D003`), or a trailing-`*` glob over
/// either (`D*`, `det-*`).
fn expand_rule_pattern(pat: &str) -> Result<Vec<String>, String> {
    let matches: Vec<String> = pact_lint::RULES
        .iter()
        .filter(|r| {
            if let Some(prefix) = pat.strip_suffix('*') {
                r.id.starts_with(prefix) || r.code.starts_with(prefix)
            } else {
                r.id == pat || r.code == pat
            }
        })
        .map(|r| r.id.to_string())
        .collect();
    if matches.is_empty() {
        return Err(format!(
            "unknown rule '{pat}'; see tierctl lint --list-rules"
        ));
    }
    Ok(matches)
}

/// Parses a `--changed-files` value: a comma/newline-separated list,
/// or `-` to read newline-separated paths from stdin (the pre-commit
/// shape). Paths are normalized to workspace-relative forward-slash
/// form; non-`.rs` entries are ignored so `git diff --name-only` can
/// be piped in unfiltered.
fn parse_changed_files(value: &str) -> Result<Vec<String>, String> {
    let raw = if value == "-" {
        let mut buf = String::new();
        use std::io::Read;
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read --changed-files from stdin: {e}"))?;
        buf
    } else {
        value.to_string()
    };
    let mut files: Vec<String> = raw
        .split(['\n', ','])
        .map(|s| s.trim().trim_start_matches("./").replace('\\', "/"))
        .filter(|s| !s.is_empty() && s.ends_with(".rs"))
        .collect();
    files.sort();
    files.dedup();
    Ok(files)
}

fn parse_lint_args(mut it: impl Iterator<Item = String>) -> Result<LintArgs, String> {
    let mut args = LintArgs {
        root: None,
        json: false,
        rules: Vec::new(),
        list_rules: false,
        changed_files: None,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = Some(it.next().ok_or("--root needs a path")?),
            "--json" => args.json = true,
            "--rule" => {
                let pat = it.next().ok_or("--rule needs a rule id, code, or glob")?;
                args.rules.extend(expand_rule_pattern(&pat)?);
            }
            "--changed-files" => {
                let value = it
                    .next()
                    .ok_or("--changed-files needs a list or '-' for stdin")?;
                args.changed_files = Some(parse_changed_files(&value)?);
            }
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err(
                    "usage: tierctl lint [--root DIR] [--json] [--rule ID|CODE|GLOB*]... \
                     [--changed-files LIST|-] [--list-rules]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    args.rules.sort();
    args.rules.dedup();
    Ok(args)
}

/// The `lint` subcommand: the pact-lint workspace pass, file scans
/// fanned out across the bench worker pool (`PACT_JOBS`). Exit 0
/// clean, 1 findings, 2 usage/IO error.
fn run_lint(args: &LintArgs) {
    if args.list_rules {
        print!("{}", pact_lint::LintReport::catalogue());
        return;
    }
    let root = match &args.root {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|e| {
                eprintln!("cannot determine working directory: {e}");
                std::process::exit(2);
            });
            pact_lint::find_workspace_root(&cwd).unwrap_or_else(|| {
                eprintln!("no cargo workspace found above {}", cwd.display());
                std::process::exit(2);
            })
        }
    };
    let cfg = pact_lint::LintConfig {
        enabled_rules: args.rules.clone(),
        ..pact_lint::LintConfig::default()
    };
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    if let Err(e) = pact_lint::ensure_workspace_root(&root) {
        fail(&e);
    }
    let files = pact_lint::workspace_files(&root).unwrap_or_else(|e| fail(&e));
    let jobs = pact_bench::jobs_from_env();
    // Fan the per-file scans out; the merge re-sorts by file/line/col,
    // so the report is byte-identical at any PACT_JOBS.
    let scans = pact_bench::try_run_indexed(files.len(), jobs, |i| {
        let path = root.join(&files[i]);
        std::fs::read_to_string(&path)
            .map(|src| pact_lint::lint_source(&files[i], &src, &cfg))
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
    })
    .unwrap_or_else(|e: String| fail(&e));
    let report = pact_lint::finish_scans(scans, args.changed_files.as_deref());
    if args.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}

struct ReproArgs {
    figures: Vec<&'static Figure>,
    scale: Scale,
    seed: u64,
}

fn parse_repro_args(mut it: impl Iterator<Item = String>) -> Result<ReproArgs, String> {
    let mut args = ReproArgs {
        figures: FIGURES.iter().collect(),
        scale: Scale::Paper,
        seed: 42,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig" => {
                let v = it.next().ok_or("--fig needs NAME[,NAME...]")?;
                let names: Vec<&str> = v.split(',').collect();
                if let Some(bad) = names.iter().find(|&&n| figures::find(n).is_none()) {
                    let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                    return Err(format!(
                        "unknown figure '{bad}' (valid: {})",
                        valid.join(", ")
                    ));
                }
                args.figures = FIGURES.iter().filter(|f| names.contains(&f.name)).collect();
            }
            "--scale" => {
                args.scale = match it.next().as_deref() {
                    Some("smoke") => Scale::Smoke,
                    Some("paper") => Scale::Paper,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).ok_or("bad seed")?,
            "--help" | "-h" => {
                return Err(
                    "usage: tierctl repro [--fig NAME[,NAME...]] [--scale smoke|paper] [--seed N]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// This process's peak resident set (`VmHWM`) in MiB, or `n/a` where
/// `/proc/self/status` cannot be read.
fn peak_rss() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok());
    match kib {
        Some(kib) => format!("{:.1} MiB", kib as f64 / 1024.0),
        None => "n/a".into(),
    }
}

/// Renders the selected figures, prints them in report order, saves
/// them at paper scale, and reports wall time, the lab's totals and the
/// peak RSS on stderr (stdout is byte-compared). A failed figure exits
/// 2 after the others are printed.
fn run_repro(args: &ReproArgs) {
    let lab = Lab::new(args.scale, args.seed).with_trace(pact_bench::env::trace_config());
    let start = std::time::Instant::now();
    let reports = figures::render_all(&lab, &args.figures, pact_bench::jobs_from_env());
    let mut failed = false;
    for (fig, report) in args.figures.iter().zip(reports) {
        match report {
            Ok(text) => {
                print!("{text}");
                save_results(args.scale, fig.file, &text);
            }
            Err(e) => {
                eprintln!("error: {}: {e}", fig.name);
                failed = true;
            }
        }
    }
    let s = lab.stats();
    eprintln!(
        "[repro] {} figures in {:.1}s; cells: {} requested, {} run; {} workload builds, {} harnesses; peak RSS {}",
        args.figures.len(),
        start.elapsed().as_secs_f64(),
        s.cells_requested,
        s.cells_run,
        s.workload_builds,
        s.harnesses,
        peak_rss()
    );
    if failed {
        std::process::exit(2);
    }
}

fn main() {
    // Reject malformed PACT_* hooks before any work happens, then arm
    // the host self-profiler if PACT_PROF asks for it.
    pact_bench::validate_fault_env();
    pact_bench::arm_hostprof_from_env();
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("lint") {
        raw.next();
        let lint_args = parse_lint_args(raw).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        });
        run_lint(&lint_args);
        return;
    }
    if raw.peek().map(String::as_str) == Some("check") {
        raw.next();
        let check_args = parse_check_args(raw).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        });
        run_check(&check_args);
        return;
    }
    if raw.peek().map(String::as_str) == Some("repro") {
        raw.next();
        let repro_args = parse_repro_args(raw).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        });
        run_repro(&repro_args);
        pact_bench::emit_hostprof_summary();
        return;
    }
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    if args.trace_cmd {
        run_trace(&args);
        pact_bench::emit_hostprof_summary();
        return;
    }
    if args.report_cmd {
        run_report(&args);
        pact_bench::emit_hostprof_summary();
        return;
    }
    if args.serve_cmd {
        run_serve_metrics(&args);
        return;
    }
    if args.snapshot_cmd {
        run_snapshot(&args);
        pact_bench::emit_hostprof_summary();
        return;
    }
    if args.resume_cmd {
        run_resume(&args);
        pact_bench::emit_hostprof_summary();
        return;
    }
    if args.fleet_cmd {
        run_fleet(&args);
        pact_bench::emit_hostprof_summary();
        return;
    }
    if let Some(path) = &args.trace_out {
        let wl = build(&args.workload, args.scale, args.seed);
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        let n = pact_tiersim::write_workload_trace(std::io::BufWriter::new(file), wl.as_ref())
            .unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
        println!("wrote {n} accesses of '{}' to {path}", args.workload);
        return;
    }
    let h = cell_harness(&args, false);
    let out = h
        .run_policy(&args.policy, args.ratio, None)
        .unwrap_or_else(|e| exit_run_error(e));
    let cxl = h.cxl_slowdown().or_exit();
    let r = &out.report;
    let c = &r.counters;

    println!(
        "{} / {} @ {}{}",
        args.workload,
        args.policy,
        args.ratio,
        if args.thp { " (THP)" } else { "" }
    );
    println!("  slowdown vs DRAM:   {}", pct(out.slowdown));
    println!("  cxl-only reference: {}", pct(cxl));
    println!("  total cycles:       {}", r.total_cycles);
    println!("  accesses:           {}", count(c.accesses));
    println!(
        "  llc misses:         {} fast + {} slow ({} hits)",
        count(c.llc_misses[0]),
        count(c.llc_misses[1]),
        count(c.llc_hits)
    );
    println!(
        "  measured MLP:       fast {:.1} / slow {:.1}",
        c.tor_mlp(Tier::Fast),
        c.tor_mlp(Tier::Slow)
    );
    println!(
        "  loaded latency:     fast {:.0} / slow {:.0} cycles",
        c.avg_demand_latency(Tier::Fast),
        c.avg_demand_latency(Tier::Slow)
    );
    println!(
        "  migrations:         {} promoted, {} demoted, {} failed",
        count(r.promotions),
        count(r.demotions),
        count(r.failed_promotions)
    );
    println!(
        "  sampling:           {} PEBS samples, {} hint faults",
        count(c.pebs_samples),
        count(c.hint_faults)
    );
    if args.windows {
        println!("\nwindow  promotions  demotions  slow-misses");
        for w in r.windows.iter().step_by((r.windows.len() / 40).max(1)) {
            println!(
                "{:>6}  {:>10}  {:>9}  {:>11}",
                w.index, w.promotions, w.demotions, w.delta.llc_misses[1]
            );
        }
    }
}
