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
//! output before writing, so a test can gate on well-formedness without
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
//! uninterrupted run — the `digest:` line pins it, and the CLI tests
//! (`tests/tierctl_cli.rs`) compare it:
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
//! Exit status: 0 success; 1 a failed `--validate` or `--self-check`,
//! or an unwritable output; 2 invalid usage (an unknown workload,
//! policy, figure or flag value), an unreadable or rejected snapshot,
//! or an invalid configuration.

#![warn(clippy::unwrap_used, clippy::expect_used)]

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
use pact_workloads::suite::{build, check_name, Scale, EXTRA, SUITE};

/// What one `tierctl` invocation does: the one-shot summary, or one of
/// the single-cell subcommands (`repro` has its own parser).
enum Cmd {
    Run,
    Trace,
    Report,
    ServeMetrics,
    Snapshot,
    Resume,
    Fleet,
}

impl Cmd {
    fn from_word(word: &str) -> Option<Cmd> {
        Some(match word {
            "trace" => Cmd::Trace,
            "report" => Cmd::Report,
            "serve-metrics" => Cmd::ServeMetrics,
            "snapshot" => Cmd::Snapshot,
            "resume" => Cmd::Resume,
            "fleet" => Cmd::Fleet,
            _ => return None,
        })
    }
}

struct Args {
    cmd: Cmd,
    workload: String,
    policy: String,
    ratio: TierRatio,
    thp: bool,
    scale: Scale,
    seed: u64,
    windows: bool,
    trace_out: Option<String>,
    // Subcommand flags.
    out: Option<String>,
    format: TraceFormat,
    validate: bool,
    topk: Option<usize>,
    addr: Option<std::net::SocketAddr>,
    self_check: bool,
    every: Option<u64>,
    from: Option<String>,
    tenants: Option<String>,
    budget: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cmd: Cmd::Run,
        workload: "bc-kron".into(),
        policy: "pact".into(),
        ratio: TierRatio::new(1, 1),
        thp: false,
        scale: Scale::Paper,
        seed: 42,
        windows: false,
        trace_out: None,
        out: None,
        format: TraceFormat::Chrome,
        validate: false,
        topk: None,
        addr: None,
        self_check: false,
        every: None,
        from: None,
        tenants: None,
        budget: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    // The inspection subcommands default to smoke scale: their runs
    // exist to be looked at (or scraped), not for paper-scale timing.
    if let Some(cmd) = it.peek().and_then(|w| Cmd::from_word(w)) {
        it.next();
        args.cmd = cmd;
        args.scale = Scale::Smoke;
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" | "-w" => {
                args.workload = it.next().ok_or("--workload needs a value")?;
                check_name(&args.workload)?;
            }
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
                println!("           {} (motivation, fleet)", EXTRA.join(", "));
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
                     [--self-check]\n       \
                     tierctl snapshot [--workload W] [--policy P] [--ratio F:S] [--thp] \
                     [--scale smoke|paper] [--seed N] [--every N] [--out DIR]\n       \
                     tierctl resume --from FILE\n       \
                     tierctl fleet [--tenants NAME:WORKLOAD:WEIGHT,...] [--policy P] \
                     [--ratio F:S] [--scale smoke|paper] [--seed N] [--budget N]\n       \
                     tierctl repro [--fig NAME[,NAME...]] [--scale smoke|paper] [--seed N]"
                    .into())
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
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
    // Greppable one-liner: the migration failures a fault plan caused.
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
/// are sim-domain: a CLI test byte-compares them across runs with and
/// without `PACT_PROF`, under a fault plan.
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
/// a real TCP client, and exits.
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
    #[expect(
        clippy::expect_used,
        reason = "a literal loopback address always parses"
    )]
    let addr = args
        .addr
        .unwrap_or_else(|| "127.0.0.1:9464".parse().expect("valid literal"));
    let server = serve::MetricsServer::bind(addr, body).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let bound = server.local_addr().unwrap_or(addr);
    println!("serving metrics for {label} on http://{bound}/metrics (and /healthz)");
    server.serve(None).unwrap_or_else(|e| {
        eprintln!("serve error: {e}");
        std::process::exit(1);
    });
}

/// FNV-1a over the report's full `Debug` rendering: an order-sensitive
/// digest of every field the run produced (counters, window records,
/// telemetry, metrics, the page-stall oracle). Equal digests between an
/// uninterrupted run and a kill-resume replay are what the CLI tests
/// compare.
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
    match args.cmd {
        Cmd::Run => return run_one_shot(&args),
        Cmd::ServeMetrics => return run_serve_metrics(&args),
        Cmd::Trace => run_trace(&args),
        Cmd::Report => run_report(&args),
        Cmd::Snapshot => run_snapshot(&args),
        Cmd::Resume => run_resume(&args),
        Cmd::Fleet => run_fleet(&args),
    }
    pact_bench::emit_hostprof_summary();
}

/// The one-shot run: the cell's summary, or with `--trace-out` its
/// access trace written to a file.
fn run_one_shot(args: &Args) {
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
    let h = cell_harness(args, false);
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
