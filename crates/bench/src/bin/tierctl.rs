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
//! once and a cell several figures request runs once; figures run one
//! after another, each fanning its runs over `PACT_JOBS` workers
//! without changing a byte of output:
//!
//! ```text
//! tierctl repro                          # everything, paper scale
//! tierctl repro --fig fig04,fig06 --scale smoke --seed 7
//! ```
//!
//! The flags `--workload`, `--policy`, `--ratio` and `--thp` build one
//! `Cell`, the key `Lab::cell` caches outcomes under, exactly as a
//! figure builds it; `--scale` and `--seed` pick the lab (the suite's
//! workload seed), as for `repro`. So `tierctl trace` on a figure's
//! cell traces the run that figure reports. The cell's
//! `workload/policy/ratio` label names the run in every output. Each
//! command takes only the flags it reads (`--help` lists them) and
//! rejects any other with exit 2.
//!
//! `main` resolves the `PACT_*` environment once and every command runs
//! its cells on a `Lab` under it, so a fault plan reaches every run.
//! Exit status: 0 success (`--help` and `--list` included, and a
//! stdout its reader closed early, which ends a command quietly); 1 a
//! failed `--validate` or `--self-check`, or an unwritable output; 2
//! invalid usage (an unknown workload, policy, figure or flag value, or
//! a malformed `PACT_*` value) or an invalid configuration.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::sync::Arc;

use pact_bench::figures::{self, Figure, FIGURES};
use pact_bench::{
    count, pct, save_results, serve, Cell, Env, Lab, Policy, RunError, TierRatio, ALL_POLICIES,
};
use pact_obs::{validate, DEFAULT_RING_CAPACITY};
use pact_tiersim::{
    export_trace, Admission, AdmissionControl, AdmissionLane, CriticalityReport, RunReport,
    RunSpec, SimError, Tier, TraceFormat, Tracer, Workload, DEFAULT_REPORT_TOPK,
};
use pact_workloads::suite::{check_name, Scale, EXTRA, SUITE};

/// How a `tierctl` run ends other than by finishing its work: the exit
/// status and the message, printed on stdout for status 0 (`--help`,
/// `--list`) and on stderr otherwise. Status 1 is a failed check or an
/// unwritable output, 2 invalid usage, a rejected input or an invalid
/// configuration.
struct Exit(i32, String);

impl From<String> for Exit {
    fn from(msg: String) -> Self {
        Exit(2, msg)
    }
}

impl From<&str> for Exit {
    fn from(msg: &str) -> Self {
        Exit(2, msg.into())
    }
}

impl From<SimError> for Exit {
    fn from(e: SimError) -> Self {
        Exit(2, format!("error: {e}"))
    }
}

/// A failed write to stdout. A reader that closed it early (`| head`)
/// has what it wanted, so a broken pipe ends the command quietly with
/// status 0; any other write error is an unwritable output.
impl From<std::io::Error> for Exit {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => Exit(0, String::new()),
            _ => Exit(1, format!("error: cannot write stdout: {e}")),
        }
    }
}

/// `println!` that hands a failed write back as an [`Exit`] instead of
/// panicking.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(Exit::from)
    };
}

/// A bad policy name also lists the known ones.
impl From<RunError> for Exit {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Sim(e) => e.into(),
            e => Exit(
                2,
                format!("{e}; known policies: {}", ALL_POLICIES.join(", ")),
            ),
        }
    }
}

/// One `tierctl` command: its name (empty for the one-shot summary),
/// the flags it reads as the usage lists them, and what runs it.
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args, Env) -> Result<(), Exit>,
}

impl Command {
    /// Whether the command reads `flag` (a long name, `--help` aside).
    fn reads(&self, flag: &str) -> bool {
        let (bare, valued) = (format!("[{flag}]"), format!("[{flag} "));
        self.flags
            .iter()
            .any(|f| f.contains(&bare) || f.contains(&valued))
    }
}

/// The flags that pick one cell.
const CELL: &str = "[--workload W] [--policy P] [--ratio F:S] [--thp] [--scale smoke|paper] \
                    [--seed N]";

/// Every command, in the order the usage lists them.
const COMMANDS: [Command; 6] = [
    Command {
        name: "",
        flags: &[CELL, "[--windows] [--list]"],
        run: run_one_shot,
    },
    Command {
        name: "trace",
        flags: &[CELL, "[--out FILE] [--format chrome|jsonl] [--validate]"],
        run: run_trace,
    },
    Command {
        name: "report",
        flags: &[CELL, "[--out DIR] [--topk N]"],
        run: run_report,
    },
    Command {
        name: "serve-metrics",
        flags: &[CELL, "[--addr HOST:PORT] [--self-check]"],
        run: run_serve_metrics,
    },
    Command {
        name: "fleet",
        flags: &[
            "[--tenants NAME:WORKLOAD:WEIGHT,...] [--policy P] [--ratio F:S]",
            "[--scale smoke|paper] [--seed N] [--budget N]",
        ],
        run: run_fleet,
    },
    Command {
        name: "repro",
        flags: &["[--fig NAME[,NAME...]] [--scale smoke|paper] [--seed N]"],
        run: run_repro,
    },
];

/// One line per command, listing exactly the flags it reads.
fn usage() -> String {
    let lines: Vec<String> = COMMANDS
        .iter()
        .map(|c| {
            let words = std::iter::once(c.name).chain(c.flags.iter().copied());
            let words: Vec<&str> = words.filter(|w| !w.is_empty()).collect();
            format!("tierctl {}", words.join(" "))
        })
        .collect();
    format!("usage: {}", lines.join("\n       "))
}

struct Args {
    cmd: &'static Command,
    /// The cell a single-cell command runs; `fleet` takes its policy,
    /// ratio and machine.
    cell: Cell,
    scale: Scale,
    seed: u64,
    // Flags of one command each.
    windows: bool,
    out: Option<String>,
    format: TraceFormat,
    validate: bool,
    topk: Option<usize>,
    addr: Option<std::net::SocketAddr>,
    self_check: bool,
    tenants: Option<String>,
    budget: Option<u64>,
    figures: Vec<&'static Figure>,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, Exit> {
    let mut it = it.peekable();
    let named = it
        .peek()
        .and_then(|w| COMMANDS.iter().find(|c| !c.name.is_empty() && c.name == w));
    let cmd = named.unwrap_or(&COMMANDS[0]);
    if named.is_some() {
        it.next();
    }
    let mut args = Args {
        cmd,
        cell: Cell::new("bc-kron", "pact", TierRatio::new(1, 1)),
        // The inspection subcommands default to smoke scale: their runs
        // exist to be looked at (or scraped), not for paper-scale timing.
        scale: match cmd.name {
            "" | "repro" => Scale::Paper,
            _ => Scale::Smoke,
        },
        seed: 42,
        windows: false,
        out: None,
        format: TraceFormat::Chrome,
        validate: false,
        topk: None,
        addr: None,
        self_check: false,
        tenants: None,
        budget: None,
        figures: FIGURES.iter().collect(),
    };
    while let Some(a) = it.next() {
        let flag = match a.as_str() {
            "-w" => "--workload",
            "-p" => "--policy",
            "-r" => "--ratio",
            "-o" => "--out",
            "-f" => "--format",
            "-h" => "--help",
            flag => flag,
        };
        if flag == "--help" {
            return Err(Exit(0, usage()));
        }
        if !cmd.reads(flag) {
            return Err(match COMMANDS.iter().any(|c| c.reads(flag)) {
                true if cmd.name.is_empty() => format!("the one-shot run does not take {flag}"),
                true => format!("tierctl {} does not take {flag}", cmd.name),
                false => format!("unknown flag '{a}'"),
            }
            .into());
        }
        match flag {
            "--workload" => {
                let v = it.next().ok_or("--workload needs a value")?;
                check_name(&v)?;
                args.cell.workload = v;
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                args.cell.policy = Policy::from(v.as_str());
            }
            "--ratio" => {
                let v = it.next().ok_or("--ratio needs a value")?;
                let (f, s) = v.split_once(':').ok_or("ratio format is F:S")?;
                args.cell.ratio = TierRatio::new(
                    f.parse().map_err(|_| "bad ratio")?,
                    s.parse().map_err(|_| "bad ratio")?,
                );
                if args.cell.ratio.fast == 0 {
                    Err("ratio F:S needs a non-zero F; the summary's cxl-only line is F = 0")?;
                }
            }
            "--thp" => args.cell.machine.thp = true,
            "--scale" => {
                args.scale = match it.next().as_deref() {
                    Some("smoke") => Scale::Smoke,
                    Some("paper") => Scale::Paper,
                    other => return Err(format!("unknown scale {other:?}").into()),
                }
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).ok_or("bad seed")?,
            "--windows" => args.windows = true,
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--format" => {
                let v = it.next().ok_or("--format needs chrome|jsonl")?;
                args.format = TraceFormat::parse(&v).ok_or(format!("unknown format '{v}'"))?;
            }
            "--validate" => args.validate = true,
            "--topk" => {
                let v = it.next().ok_or("--topk needs a row count")?;
                args.topk = match v.parse::<usize>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return Err(format!("bad topk '{v}': expected a positive integer").into()),
                };
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs host:port")?;
                args.addr = Some(v.parse().map_err(|e| format!("bad addr '{v}': {e}"))?);
            }
            "--self-check" => args.self_check = true,
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
                    _ => {
                        return Err(format!("bad budget '{v}': expected a positive integer").into())
                    }
                };
            }
            "--fig" => {
                let v = it.next().ok_or("--fig needs NAME[,NAME...]")?;
                let names: Vec<&str> = v.split(',').collect();
                if let Some(bad) = names.iter().find(|&&n| figures::find(n).is_none()) {
                    let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                    return Err(
                        format!("unknown figure '{bad}' (valid: {})", valid.join(", ")).into(),
                    );
                }
                args.figures = FIGURES.iter().filter(|f| names.contains(&f.name)).collect();
            }
            "--list" => {
                let list = [
                    format!("workloads: {}", SUITE.join(", ")),
                    format!("           {} (motivation, fleet)", EXTRA.join(", ")),
                    format!("policies:  {}", ALL_POLICIES.join(", ")),
                    "           pact-freq (frequency-ranked PACT)".into(),
                ];
                return Err(Exit(0, list.join("\n")));
            }
            other => unreachable!("{other} is in the flag table but not parsed"),
        }
    }
    // `report` and `fleet` print the criticality oracle's blame.
    args.cell.machine.track_page_stalls = matches!(cmd.name, "report" | "fleet");
    Ok(args)
}

impl Args {
    /// The lab for the flags' `--scale` and `--seed` under `env`.
    fn lab(&self, env: Env) -> Lab {
        Lab::new(self.scale, self.seed).with_env(env)
    }
}

/// Runs the flags' cell for a subcommand that inspects the finished
/// run: no DRAM reference, since none of them prints a slowdown. The
/// policy is built for the cell's fast tier (Soar from the lab's
/// profile).
fn inspect(args: &Args, env: Env, tracer: Option<&mut Tracer>) -> Result<RunReport, Exit> {
    let (lab, cell) = (args.lab(env), &args.cell);
    let mut policy = lab.policy(cell)?;
    let workload = lab.workload(&cell.workload);
    let workloads = [workload.as_ref()];
    let spec = RunSpec {
        tracer,
        ..RunSpec::new(&workloads, policy.as_mut())
    };
    Ok(lab.run(lab.machine(cell), spec)?)
}

/// Writes `body` to `path`, or fails with status 1.
fn write(path: &std::path::Path, body: impl AsRef<[u8]>) -> Result<(), Exit> {
    std::fs::write(path, body).map_err(|e| Exit(1, format!("cannot write {}: {e}", path.display())))
}

/// Creates `dir`, or fails with status 1.
fn create_dir(dir: &std::path::Path) -> Result<(), Exit> {
    std::fs::create_dir_all(dir)
        .map_err(|e| Exit(1, format!("cannot create {}: {e}", dir.display())))
}

/// The `trace` subcommand: one traced run, exported (and optionally
/// validated) to `--out`.
fn run_trace(args: &Args, env: Env) -> Result<(), Exit> {
    let mut tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
    let report = inspect(args, env, Some(&mut tracer))?;
    let label = args.cell.to_string();
    let body = export_trace(&report, &tracer, &label, args.format);
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
            return Err(Exit(1, msg));
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("trace.{}", args.format.extension()));
    write(path.as_ref(), &body)?;
    outln!(
        "traced {label}: {} events ({} overwritten), {} windows, {} cycles",
        tracer.len(),
        tracer.overwritten(),
        report.windows.len(),
        report.total_cycles
    )?;
    if tracer.overwritten() > 0 {
        eprintln!(
            "warning: trace ring overflowed; the {} oldest events were dropped \
             (per-window counts are in each window's trace_dropped_events)",
            tracer.overwritten()
        );
    }
    // Greppable one-liner: the migration failures a fault plan caused.
    outln!(
        "migration health: failed_promotions={} dropped_orders={}",
        report.failed_promotions,
        report.dropped_orders
    )?;
    outln!(
        "wrote {path} ({} bytes, {} format{})",
        body.len(),
        args.format,
        if args.validate { ", validated" } else { "" }
    )?;
    Ok(())
}

/// The `report` subcommand: one run with the criticality oracle armed,
/// folded flamegraph + markdown + JSON written to `--out`. Artifacts
/// are sim-domain: a CLI test byte-compares them across runs with and
/// without `PACT_PROF`, under a fault plan.
fn run_report(args: &Args, env: Env) -> Result<(), Exit> {
    let report = inspect(args, env, None)?;
    let topk = args.topk.unwrap_or(DEFAULT_REPORT_TOPK);
    // Borrow the oracle out of the report — the map can hold an entry
    // per touched page, and the report path must not duplicate it.
    let crit = CriticalityReport::new(&report, topk).ok_or_else(|| {
        Exit(
            1,
            "internal error: report ran without the page-stall oracle".into(),
        )
    })?;
    let dir = std::path::PathBuf::from(args.out.as_deref().unwrap_or("report"));
    create_dir(&dir)?;
    write(&dir.join("report.md"), crit.to_markdown())?;
    write(&dir.join("report.json"), crit.to_json())?;
    write(&dir.join("flame.folded"), crit.folded())?;
    outln!(
        "criticality report for {}: {} blamed stall cycles across {} pages (top-{topk})",
        args.cell,
        crit.total_stalls(),
        report.page_stalls.as_ref().map_or(0, |m| m.len()),
    )?;
    outln!(
        "wrote {}/report.md, report.json, flame.folded",
        dir.display()
    )?;
    Ok(())
}

/// The `serve-metrics` subcommand: one run, then a Prometheus
/// text-exposition endpoint over its metrics (plus `/healthz`).
/// `--self-check` binds an ephemeral port, scrapes both routes through
/// a real TCP client, and exits.
fn run_serve_metrics(args: &Args, env: Env) -> Result<(), Exit> {
    let label = args.cell.to_string();
    let body = serve::render_prometheus(&label, &inspect(args, env, None)?);
    if args.self_check {
        serve::self_check(body)
            .map_err(|e| Exit(1, format!("serve-metrics self-check failed: {e}")))?;
        outln!("serve-metrics self-check ok ({label})")?;
        return Ok(());
    }
    let addr = args
        .addr
        .unwrap_or(std::net::SocketAddr::from(([127, 0, 0, 1], 9464)));
    let server = serve::MetricsServer::bind(addr, body)
        .map_err(|e| Exit(1, format!("cannot bind {addr}: {e}")))?;
    let bound = server.local_addr().unwrap_or(addr);
    outln!("serving metrics for {label} on http://{bound}/metrics (and /healthz)")?;
    server
        .serve(None)
        .map_err(|e| Exit(1, format!("serve error: {e}")))
}

/// The `fleet` subcommand: a colocated cell whose policy runs inside
/// migration admission control (DESIGN.md §14). Prints one accounting
/// row per tenant, a greppable `admission:` line, and a deterministic
/// digest: FNV-1a over the report's full `Debug` rendering, so every
/// field the run produced (counters, window records, telemetry,
/// metrics, the page-stall oracle) moves it.
fn run_fleet(args: &Args, env: Env) -> Result<(), Exit> {
    let lab = &args.lab(env);
    // The default noisy-neighbor cell from EXPERIMENTS.md: a
    // latency-sensitive app, a bandwidth hog, and a skew-drift store.
    let spec = args
        .tenants
        .as_deref()
        .unwrap_or("app:gups:4,hog:mlc-hog:1,store:zipf-drift:2");
    let tenants =
        pact_bench::parse_tenants(spec).map_err(|e| Exit(2, format!("invalid --tenants: {e}")))?;
    let workloads: Vec<Arc<dyn Workload>> =
        tenants.iter().map(|t| lab.workload(&t.workload)).collect();
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let total_footprint: u64 = refs.iter().map(|w| w.footprint_bytes()).sum();
    // A fleet run is not a figure's cell: `--seed` seeds its machine too.
    let mut cfg = args.cell.machine.clone();
    cfg.seed = args.seed;
    cfg.fast_tier_pages = args.cell.ratio.fast_pages(total_footprint);
    let admission = AdmissionControl {
        budget_per_window: args.budget.unwrap_or(4),
        ..AdmissionControl::default()
    };
    let weights = tenants.iter().map(|t| t.qos_weight).collect();
    let mut policy =
        Admission::new(args.cell.policy.build()?, admission, weights).map_err(SimError::Config)?;
    let report = lab.run(cfg, RunSpec::new(&refs, &mut policy))?;

    let label = format!(
        "fleet[{}]/{}/{}",
        tenants
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join("+"),
        args.cell.policy,
        args.cell.ratio
    );
    outln!("cell {label}")?;
    outln!(
        "tenant            weight    accesses  promoted  demoted  admitted  rejected     stalls"
    )?;
    for ((t, p), a) in tenants.iter().zip(&report.per_process).zip(policy.lanes()) {
        outln!(
            "{:<16} {:>7} {:>11} {:>9} {:>8} {:>9} {:>9} {:>10}",
            t.name,
            t.qos_weight,
            p.accesses,
            p.promotions,
            p.demotions,
            a.admitted,
            a.rejected,
            p.stall_cycles[0] + p.stall_cycles[1],
        )?;
    }
    let sum = |f: fn(&AdmissionLane) -> u64| -> u64 { policy.lanes().iter().map(f).sum() };
    outln!(
        "admission: admitted={} rejected={} dropped={}",
        sum(|a| a.admitted),
        sum(|a| a.rejected),
        sum(|a| a.dropped)
    )?;
    outln!(
        "report: windows={} cycles={} promotions={} demotions={} failed={} dropped={}",
        report.windows.len(),
        report.total_cycles,
        report.promotions,
        report.demotions,
        report.failed_promotions,
        report.dropped_orders
    )?;
    let digest = pact_tiersim::fnv1a(format!("{report:?}").as_bytes());
    outln!("digest: {digest:#018x}")?;
    Ok(())
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
fn run_repro(args: &Args, env: Env) -> Result<(), Exit> {
    let lab = Lab::new(args.scale, args.seed).with_env(env);
    let start = std::time::Instant::now();
    let reports = figures::render_all(&lab, &args.figures);
    let mut failed = 0;
    // A closed stdout stops the printing, not the saving.
    let mut printed = Ok(());
    for (fig, report) in args.figures.iter().zip(reports) {
        match report {
            Ok(text) => {
                if printed.is_ok() {
                    printed = write!(std::io::stdout(), "{text}");
                }
                save_results(args.scale, fig.file, &text);
            }
            Err(e) => {
                eprintln!("error: {}: {e}", fig.name);
                failed += 1;
            }
        }
    }
    let s = lab.stats();
    eprintln!(
        "[repro] {} figures in {:.1}s; cells: {} requested, {} run; {} workload builds; peak RSS {}",
        args.figures.len(),
        start.elapsed().as_secs_f64(),
        s.cells_requested,
        s.cells_run,
        s.workload_builds,
        peak_rss()
    );
    match failed {
        0 => printed.map_err(Exit::from),
        n => Err(Exit(2, format!("error: {n} figure(s) failed"))),
    }
}

/// The one-shot run: the cell's summary.
fn run_one_shot(args: &Args, env: Env) -> Result<(), Exit> {
    let lab = &args.lab(env);
    let cell = &args.cell;
    let out = lab.cell(cell)?;
    let cxl = lab.cell(&Cell::cxl(&cell.workload, cell.machine.clone()))?;
    let r = &out.report;
    let c = &r.counters;

    outln!(
        "{} / {} @ {}{}",
        cell.workload,
        cell.policy,
        cell.ratio,
        if cell.machine.thp { " (THP)" } else { "" }
    )?;
    outln!("  slowdown vs DRAM:   {}", pct(out.slowdown))?;
    outln!("  cxl-only reference: {}", pct(cxl.slowdown))?;
    outln!("  total cycles:       {}", r.total_cycles)?;
    outln!("  accesses:           {}", count(c.accesses))?;
    outln!(
        "  llc misses:         {} fast + {} slow ({} hits)",
        count(c.llc_misses[0]),
        count(c.llc_misses[1]),
        count(c.llc_hits)
    )?;
    outln!(
        "  measured MLP:       fast {:.1} / slow {:.1}",
        c.tor_mlp(Tier::Fast),
        c.tor_mlp(Tier::Slow)
    )?;
    outln!(
        "  loaded latency:     fast {:.0} / slow {:.0} cycles",
        c.avg_demand_latency(Tier::Fast),
        c.avg_demand_latency(Tier::Slow)
    )?;
    outln!(
        "  migrations:         {} promoted, {} demoted, {} failed",
        count(r.promotions),
        count(r.demotions),
        count(r.failed_promotions)
    )?;
    outln!(
        "  sampling:           {} PEBS samples, {} hint faults",
        count(c.pebs_samples),
        count(c.hint_faults)
    )?;
    if args.windows {
        outln!("\nwindow  promotions  demotions  slow-misses")?;
        for w in r.windows.iter().step_by((r.windows.len() / 40).max(1)) {
            outln!(
                "{:>6}  {:>10}  {:>9}  {:>11}",
                w.index,
                w.promotions,
                w.demotions,
                w.delta.llc_misses[1]
            )?;
        }
    }
    Ok(())
}

/// Resolves the `PACT_*` environment once, rejecting a malformed value
/// before any work, and runs the command under it.
fn run() -> Result<(), Exit> {
    let env = Env::resolve().map_err(|e| Exit(2, format!("error: {e}")))?;
    pact_obs::hostprof::set_enabled(env.prof);
    let args = parse_args(std::env::args().skip(1))?;
    (args.cmd.run)(&args, env)
}

/// Every path out of `tierctl` passes here: the message, the host
/// self-profile when `PACT_PROF` armed it, then the exit status. The
/// profile goes to stderr: host timings are nondeterministic and must
/// never mix into output that is byte-compared.
fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(Exit(0, msg)) => {
            if !msg.is_empty() {
                // Nothing is left to do if this write fails.
                let _ = writeln!(std::io::stdout(), "{msg}");
            }
            0
        }
        Err(Exit(code, msg)) => {
            eprintln!("{msg}");
            code
        }
    };
    if pact_obs::hostprof::enabled() {
        eprintln!("host self-profile (wall clock, nondeterministic):");
        eprint!("{}", pact_obs::hostprof::summary());
    }
    std::process::exit(code);
}
