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
//! `main` resolves the `PACT_*` environment once and every command runs
//! its cells on a `Lab` under it, so a fault plan reaches every run.
//! Exit status: 0 success (`--help` and `--list` included); 1 a failed
//! `--validate` or `--self-check`, or an unwritable output; 2 invalid
//! usage (an unknown workload, policy, figure or flag value, or a
//! malformed `PACT_*` value), an unreadable or rejected snapshot, or an
//! invalid configuration.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use pact_bench::figures::{self, Figure, FIGURES};
use pact_bench::snapfile::CellSnapshot;
use pact_bench::{
    count, experiment_machine, make_policy, pct, save_results, serve, Env, Harness, Lab, RunError,
    TierRatio, ALL_POLICIES,
};
use pact_obs::{validate, DEFAULT_RING_CAPACITY};
use pact_tiersim::{
    export_trace, Admission, AdmissionControl, AdmissionLane, ConfigError, CriticalityReport,
    MachineConfig, RunReport, RunSpec, SimError, Tier, TieringPolicy, TraceFormat, Tracer,
    Workload, DEFAULT_REPORT_TOPK,
};
use pact_workloads::suite::{check_name, Scale, EXTRA, SUITE};

const USAGE: &str = "usage: tierctl [--workload W] [--policy P] [--ratio F:S] \
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
     tierctl repro [--fig NAME[,NAME...]] [--scale smoke|paper] [--seed N]";

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

impl From<ConfigError> for Exit {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e).into()
    }
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

/// One `tierctl` command: the one-shot summary or a single-cell
/// subcommand (`repro` has its own parser).
type Command = fn(&Args, Env) -> Result<(), Exit>;

/// The subcommand `word` names.
fn subcommand(word: &str) -> Option<Command> {
    Some(match word {
        "trace" => run_trace,
        "report" => run_report,
        "serve-metrics" => run_serve_metrics,
        "snapshot" => run_snapshot,
        "resume" => run_resume,
        "fleet" => run_fleet,
        _ => return None,
    })
}

struct Args {
    cmd: Command,
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

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, Exit> {
    let mut args = Args {
        cmd: run_one_shot,
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
    let mut it = it.peekable();
    // The inspection subcommands default to smoke scale: their runs
    // exist to be looked at (or scraped), not for paper-scale timing.
    if let Some(cmd) = it.peek().and_then(|w| subcommand(w)) {
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
            "--scale" => args.scale = parse_scale(it.next())?,
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
                    _ => return Err(format!("bad topk '{v}': expected a positive integer").into()),
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
                    _ => {
                        return Err(format!("bad cadence '{v}': expected a positive integer").into())
                    }
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
                    _ => {
                        return Err(format!("bad budget '{v}': expected a positive integer").into())
                    }
                };
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
            "--help" | "-h" => return Err(Exit(0, USAGE.into())),
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }
    Ok(args)
}

fn parse_scale(v: Option<String>) -> Result<Scale, Exit> {
    match v.as_deref() {
        Some("smoke") => Ok(Scale::Smoke),
        Some("paper") => Ok(Scale::Paper),
        other => Err(format!("unknown scale {other:?}").into()),
    }
}

/// The experiment machine for a single-workload cell with a fast tier
/// of `fast_pages`: every subcommand that runs one builds it here, so
/// the same flags simulate the same machine. `track_stalls` arms the
/// criticality oracle.
fn cell_config(fast_pages: u64, thp: bool, seed: u64, track_stalls: bool) -> MachineConfig {
    let mut cfg = experiment_machine(fast_pages);
    cfg.thp = thp;
    cfg.seed = seed;
    cfg.track_page_stalls = track_stalls;
    cfg
}

impl Args {
    /// The lab for the flags' `--scale` and `--seed` under `env`.
    fn lab(&self, env: Env) -> Lab {
        Lab::new(self.scale, self.seed).with_env(env)
    }

    /// `workload/policy/ratio`.
    fn label(&self) -> String {
        format!("{}/{}/{}", self.workload, self.policy, self.ratio)
    }

    /// [`cell_config`] for the flags' cell, the fast tier sized by
    /// `--ratio`.
    fn config(&self, lab: &Lab, track_stalls: bool) -> MachineConfig {
        let footprint = lab.workload(&self.workload).footprint_bytes();
        let fast_pages = self.ratio.fast_pages(footprint);
        cell_config(fast_pages, self.thp, self.seed, track_stalls)
    }
}

/// The harness for `workload` on `cfg`, and `policy` built for `cfg`'s
/// fast tier (Soar from the harness's profile).
fn cell<'l>(
    lab: &'l Lab,
    workload: &str,
    policy: &str,
    cfg: &MachineConfig,
) -> Result<(Harness<'l>, Box<dyn TieringPolicy>), Exit> {
    let h = lab.harness_with(workload, cfg.clone())?;
    let policy = h.policy(policy, cfg.fast_tier_pages)?;
    Ok((h, policy))
}

/// Runs the flags' cell for a subcommand that inspects the finished
/// run: no DRAM reference, since none of them prints a slowdown.
fn inspect(
    lab: &Lab,
    args: &Args,
    track_stalls: bool,
    tracer: Option<&mut Tracer>,
) -> Result<RunReport, Exit> {
    let cfg = args.config(lab, track_stalls);
    let (h, mut policy) = cell(lab, &args.workload, &args.policy, &cfg)?;
    let workloads = [h.workload()];
    let spec = RunSpec {
        tracer,
        ..RunSpec::new(&workloads, policy.as_mut())
    };
    Ok(lab.run(cfg, spec)?)
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
    let lab = &args.lab(env);
    let mut tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
    let report = inspect(lab, args, false, Some(&mut tracer))?;
    let label = args.label();
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
    println!(
        "traced {label}: {} events ({} overwritten), {} windows, {} cycles",
        tracer.len(),
        tracer.overwritten(),
        report.windows.len(),
        report.total_cycles
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
        report.failed_promotions, report.dropped_orders
    );
    println!(
        "wrote {path} ({} bytes, {} format{})",
        body.len(),
        args.format,
        if args.validate { ", validated" } else { "" }
    );
    Ok(())
}

/// The `report` subcommand: one run with the criticality oracle armed,
/// folded flamegraph + markdown + JSON written to `--out`. Artifacts
/// are sim-domain: a CLI test byte-compares them across runs with and
/// without `PACT_PROF`, under a fault plan.
fn run_report(args: &Args, env: Env) -> Result<(), Exit> {
    let lab = &args.lab(env);
    let report = inspect(lab, args, true, None)?;
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
    println!(
        "criticality report for {}: {} blamed stall cycles across {} pages (top-{topk})",
        args.label(),
        crit.total_stalls(),
        report.page_stalls.as_ref().map_or(0, |m| m.len()),
    );
    println!(
        "wrote {}/report.md, report.json, flame.folded",
        dir.display()
    );
    Ok(())
}

/// The `serve-metrics` subcommand: one run, then a Prometheus
/// text-exposition endpoint over its metrics (plus `/healthz`).
/// `--self-check` binds an ephemeral port, scrapes both routes through
/// a real TCP client, and exits.
fn run_serve_metrics(args: &Args, env: Env) -> Result<(), Exit> {
    let lab = &args.lab(env);
    let label = args.label();
    let body = serve::render_prometheus(&label, &inspect(lab, args, false, None)?);
    if args.self_check {
        serve::self_check(body)
            .map_err(|e| Exit(1, format!("serve-metrics self-check failed: {e}")))?;
        println!("serve-metrics self-check ok ({label})");
        return Ok(());
    }
    let addr = args
        .addr
        .unwrap_or(std::net::SocketAddr::from(([127, 0, 0, 1], 9464)));
    let server = serve::MetricsServer::bind(addr, body)
        .map_err(|e| Exit(1, format!("cannot bind {addr}: {e}")))?;
    let bound = server.local_addr().unwrap_or(addr);
    println!("serving metrics for {label} on http://{bound}/metrics (and /healthz)");
    server
        .serve(None)
        .map_err(|e| Exit(1, format!("serve error: {e}")))
}

/// The `report:`/`digest:` lines `snapshot`, `resume` and `fleet`
/// print. They must be byte-identical between an uninterrupted run and
/// every resumed replay, which is what the CLI tests compare. The
/// digest is FNV-1a over the report's full `Debug` rendering: an
/// order-sensitive digest of every field the run produced (counters,
/// window records, telemetry, metrics, the page-stall oracle).
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
    let digest = pact_tiersim::fnv1a(format!("{report:?}").as_bytes());
    println!("digest: {digest:#018x}");
}

/// The `snapshot` subcommand: one cell run to completion with the
/// page-stall oracle armed, writing a versioned cell snapshot every
/// `--every` windows (default 16).
fn run_snapshot(args: &Args, env: Env) -> Result<(), Exit> {
    let lab = &args.lab(env);
    let every = args.every.unwrap_or(16);
    let mut cfg = args.config(lab, true);
    cfg.snapshot_every = every;
    let (h, mut policy) = cell(lab, &args.workload, &args.policy, &cfg)?;
    let dir = std::path::PathBuf::from(args.out.as_deref().unwrap_or("snapshots"));
    create_dir(&dir)?;
    let scale_name = match args.scale {
        Scale::Smoke => "smoke",
        Scale::Paper => "paper",
    };
    let fast_pages = cfg.fast_tier_pages;
    let mut written = 0usize;
    let mut write_err: Option<Exit> = None;
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
            match write(&path, cell.to_bytes()) {
                Ok(()) => written += 1,
                Err(e) => {
                    write_err.get_or_insert(e);
                }
            }
        };
        lab.run(
            cfg,
            RunSpec {
                snapshot_sink: Some(&mut sink),
                ..RunSpec::new(&[h.workload()], policy.as_mut())
            },
        )?
    };
    if let Some(e) = write_err {
        return Err(e);
    }
    println!("cell {}", args.label());
    print_report_digest(&report);
    println!(
        "wrote {written} snapshots to {} (every {every} windows)",
        dir.display()
    );
    Ok(())
}

/// The `resume` subcommand: restores a `tierctl snapshot` file and
/// runs the cell to completion. Corrupt, version-bumped, or
/// wrong-configuration snapshots are rejected with exit 2.
fn run_resume(args: &Args, env: Env) -> Result<(), Exit> {
    let path = args.from.as_ref().ok_or("resume needs --from FILE")?;
    let bytes = std::fs::read(path).map_err(|e| Exit(2, format!("cannot read {path}: {e}")))?;
    let snap = CellSnapshot::from_bytes(&bytes).map_err(|e| Exit(2, format!("error: {e}")))?;
    let lab = Lab::new(parse_scale(Some(snap.scale.clone()))?, snap.seed).with_env(env);
    let cfg = cell_config(snap.fast_pages, snap.thp, snap.seed, snap.track_stalls);
    let (h, mut policy) = cell(&lab, &snap.workload, &snap.policy, &cfg)?;
    let report = lab.run(
        cfg,
        RunSpec {
            resume_from: Some(&snap.frame),
            ..RunSpec::new(&[h.workload()], policy.as_mut())
        },
    )?;
    let window = snap.frame.window().unwrap_or(0);
    let label = format!(
        "{}/{} (resumed from window {window})",
        snap.workload, snap.policy
    );
    println!("cell {label}");
    print_report_digest(&report);
    Ok(())
}

/// The `fleet` subcommand: a colocated cell whose policy runs inside
/// migration admission control (DESIGN.md §14). Prints one accounting
/// row per tenant, a greppable `admission:` line, and the same
/// deterministic digest `snapshot`/`resume` print.
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
    let cfg = cell_config(
        args.ratio.fast_pages(total_footprint),
        false,
        args.seed,
        true,
    );
    let admission = AdmissionControl {
        budget_per_window: args.budget.unwrap_or(4),
        ..AdmissionControl::default()
    };
    let weights = tenants.iter().map(|t| t.qos_weight).collect();
    let mut policy = Admission::new(make_policy(&args.policy)?, admission, weights)?;
    let report = lab.run(cfg, RunSpec::new(&refs, &mut policy))?;

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
    Ok(())
}

struct ReproArgs {
    figures: Vec<&'static Figure>,
    scale: Scale,
    seed: u64,
}

fn parse_repro_args(mut it: impl Iterator<Item = String>) -> Result<ReproArgs, Exit> {
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
                    return Err(
                        format!("unknown figure '{bad}' (valid: {})", valid.join(", ")).into(),
                    );
                }
                args.figures = FIGURES.iter().filter(|f| names.contains(&f.name)).collect();
            }
            "--scale" => args.scale = parse_scale(it.next())?,
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).ok_or("bad seed")?,
            "--help" | "-h" => return Err(Exit(0, USAGE.into())),
            other => return Err(format!("unknown flag '{other}'").into()),
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
fn run_repro(args: &ReproArgs, env: Env) -> Result<(), Exit> {
    let lab = Lab::new(args.scale, args.seed).with_env(env);
    let start = std::time::Instant::now();
    let reports = figures::render_all(&lab, &args.figures);
    let mut failed = 0;
    for (fig, report) in args.figures.iter().zip(reports) {
        match report {
            Ok(text) => {
                print!("{text}");
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
        "[repro] {} figures in {:.1}s; cells: {} requested, {} run; {} workload builds, {} harnesses; peak RSS {}",
        args.figures.len(),
        start.elapsed().as_secs_f64(),
        s.cells_requested,
        s.cells_run,
        s.workload_builds,
        s.harnesses,
        peak_rss()
    );
    match failed {
        0 => Ok(()),
        n => Err(Exit(2, format!("error: {n} figure(s) failed"))),
    }
}

/// The one-shot run: the cell's summary, or with `--trace-out` its
/// access trace written to a file.
fn run_one_shot(args: &Args, env: Env) -> Result<(), Exit> {
    let lab = &args.lab(env);
    if let Some(path) = &args.trace_out {
        let wl = lab.workload(&args.workload);
        let file = std::fs::File::create(path)
            .map_err(|e| Exit(1, format!("cannot create {path}: {e}")))?;
        let n = pact_tiersim::write_workload_trace(std::io::BufWriter::new(file), wl.as_ref())
            .map_err(|e| Exit(1, format!("cannot write {path}: {e}")))?;
        println!("wrote {n} accesses of '{}' to {path}", args.workload);
        return Ok(());
    }
    let cfg = args.config(lab, false);
    let h = lab
        .harness_with(&args.workload, cfg)
        .map_err(SimError::Config)?;
    let out = h.run_policy(&args.policy, args.ratio, None)?;
    let cxl = h.cxl_slowdown()?;
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
    Ok(())
}

/// Resolves the `PACT_*` environment once, rejecting a malformed value
/// before any work, and runs the command under it.
fn run() -> Result<(), Exit> {
    let env = Env::resolve().map_err(|e| Exit(2, format!("error: {e}")))?;
    pact_obs::hostprof::set_enabled(env.prof);
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("repro") {
        raw.next();
        return run_repro(&parse_repro_args(raw)?, env);
    }
    let args = parse_args(raw)?;
    (args.cmd)(&args, env)
}

/// Every path out of `tierctl` passes here: the message, the host
/// self-profile when `PACT_PROF` armed it, then the exit status. The
/// profile goes to stderr: host timings are nondeterministic and must
/// never mix into output that is byte-compared.
fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(Exit(0, msg)) => {
            println!("{msg}");
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
