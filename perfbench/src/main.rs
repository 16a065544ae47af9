//! The PACT simulator benchmark: one workload per invocation, measured
//! end to end (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bckron-pact --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The exit
//! code is 0 when every check passed, 1 when one failed, and 2 for bad
//! usage or a `PACT_*` variable that would perturb the run.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use pact_baselines::{soar_profile, Soar, SoarProfile};
use pact_bench::{experiment_machine, make_policy, run_indexed, TierRatio, ALL_POLICIES};
use pact_perfbench::replay::{count_accesses, replay_layers, LayerTimes};
use pact_perfbench::timed::{PolicyTimes, TimedPolicy};
use pact_perfbench::{report_digest, RunChecks};
use pact_tiersim::{
    FirstTouch, Machine, PmuCounters, RunReport, TieringPolicy, Workload, PAGE_BYTES,
};
use pact_workloads::suite::{build, Scale};

/// One benchmark workload: a suite workload and the policies run on it.
struct Spec {
    name: &'static str,
    suite: &'static str,
    policies: &'static [&'static str],
}

const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "bckron-pact",
        suite: "bc-kron",
        policies: &["pact"],
    },
    Spec {
        name: "gpt2-notier",
        suite: "gpt-2",
        policies: &["notier"],
    },
    Spec {
        name: "redis-sweep",
        suite: "redis",
        policies: &ALL_POLICIES,
    },
];

/// Variables that would change what the simulator computes or where it
/// writes; the benchmark refuses to run under any of them.
const FORBIDDEN_ENV: [&str; 5] = [
    "PACT_SHARDS",
    "PACT_FAULTS",
    "PACT_TRACE",
    "PACT_PROF",
    "PACT_SNAPSHOT",
];

/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const RATIO: TierRatio = TierRatio { fast: 1, slow: 1 };

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'\n{}", usage()))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'\n{}", usage())),
        }
    }
    let spec = spec.ok_or_else(usage)?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// The suite seed for a benchmark seed: one SplitMix64 step.
///
/// The suite's generators derive per-thread streams as
/// `seed ^ thread * golden`, which for small seeds can alias two
/// threads onto shifted copies of one sequence; on redis that splits
/// seeds into two regimes whose slowdowns differ by half. Mixing the
/// seed first keeps every benchmark seed in the independent-threads
/// regime.
fn suite_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn forbidden_env() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|v| std::env::var_os(v).is_some())
}

/// The commit the checkout was built from, read from `.git` in the
/// working directory; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().into();
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Host times of one pass over the workload's systems, as a sweep runs
/// them. The reports are checked and dropped as each pass ends, so peak
/// memory does not grow with the number of passes.
struct Pass {
    wall: Duration,
    cell_walls: Vec<Duration>,
    times: PolicyTimes,
}

struct Bench<'a> {
    spec: &'a Spec,
    wl: &'a dyn Workload,
    fast_pages: u64,
    jobs: usize,
}

/// One cell's outcome: its report, its wall time and, when traced, its
/// policy times.
type CellRun = Result<(RunReport, Duration, PolicyTimes), String>;

impl Bench<'_> {
    /// Runs every system once, fanned over `jobs` workers. With `traced`
    /// each policy is wrapped in a [`TimedPolicy`].
    fn pass(&self, traced: bool) -> (Pass, Vec<Result<RunReport, String>>) {
        let start = Instant::now();
        let profile = self
            .spec
            .policies
            .contains(&"soar")
            .then(|| soar_profile(&experiment_machine(0), self.wl));
        let cells = run_indexed(self.spec.policies.len(), self.jobs, |i| {
            self.cell(self.spec.policies[i], profile.as_ref(), traced)
        });
        let mut pass = Pass {
            wall: start.elapsed(),
            cell_walls: Vec::new(),
            times: PolicyTimes::default(),
        };
        let runs = cells
            .into_iter()
            .map(|cell| {
                cell.map(|(report, wall, times)| {
                    pass.cell_walls.push(wall);
                    pass.times.add(&times);
                    report
                })
            })
            .collect();
        (pass, runs)
    }

    fn cell(&self, name: &str, profile: Option<&SoarProfile>, traced: bool) -> CellRun {
        let mut inner: Box<dyn TieringPolicy> = match (name, profile) {
            ("soar", Some(p)) => Box::new(Soar::from_profile(p, self.fast_pages)),
            _ => make_policy(name).map_err(|e| e.to_string())?,
        };
        let machine =
            Machine::new(experiment_machine(self.fast_pages)).map_err(|e| e.to_string())?;
        let start = Instant::now();
        if !traced {
            let report = machine.try_run(self.wl, inner.as_mut());
            let wall = start.elapsed();
            return Ok((
                report.map_err(|e| e.to_string())?,
                wall,
                PolicyTimes::default(),
            ));
        }
        let mut policy = TimedPolicy::new(inner);
        let report = machine.try_run(self.wl, &mut policy);
        let wall = start.elapsed();
        policy.probe_place(self.wl.footprint_bytes().div_ceil(PAGE_BYTES));
        Ok((report.map_err(|e| e.to_string())?, wall, policy.times()))
    }
}

/// Everything the invocation measured.
struct Measured {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// What the benchmark keeps of a cell's report once it is checked, so
/// that peak memory does not depend on how many passes fit the time.
#[derive(Debug, Clone, Copy)]
struct Summary {
    digest: u64,
    total_cycles: u64,
    counters: PmuCounters,
    promotions: u64,
    demotions: u64,
    failed_promotions: u64,
    dropped_orders: u64,
    windows: u64,
}

impl Summary {
    fn of(r: &RunReport) -> Self {
        Self {
            digest: report_digest(r),
            total_cycles: r.total_cycles,
            counters: r.counters,
            promotions: r.promotions,
            demotions: r.demotions,
            failed_promotions: r.failed_promotions,
            dropped_orders: r.dropped_orders,
            windows: r.windows.len() as u64,
        }
    }
}

fn sum_counters(reports: &[Summary]) -> PmuCounters {
    let mut c = PmuCounters::default();
    for r in reports {
        let x = &r.counters;
        c.accesses += x.accesses;
        c.llc_hits += x.llc_hits;
        for t in 0..2 {
            c.llc_misses[t] += x.llc_misses[t];
            c.tor_occupancy[t] += x.tor_occupancy[t];
            c.tor_busy[t] += x.tor_busy[t];
            c.demand_latency_sum[t] += x.demand_latency_sum[t];
            c.prefetches[t] += x.prefetches[t];
        }
        c.hint_faults += x.hint_faults;
        c.pebs_samples += x.pebs_samples;
    }
    c
}

fn run(args: &Args) -> Measured {
    let spec = args.spec;
    let policies = spec.policies;
    let dram_cell = policies.len();
    let mut checks = RunChecks::new(policies.len() + 1);

    // Set-up: what a harness pays before its first cell. The traced
    // pass reports no `setup_s`, so it sets up once.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut build_s = Vec::new();
    let mut dram_s = Vec::new();
    let mut drained = None;
    let mut setup = None;
    for _ in 0..reps {
        // Free the previous set-up's workload before building the next.
        drop(setup.take());
        let start = Instant::now();
        let wl = build(spec.suite, Scale::Paper, suite_seed(args.seed));
        let built = Instant::now();
        let dram = Machine::new(experiment_machine(u64::MAX / PAGE_BYTES))
            .map_err(|e| e.to_string())
            .and_then(|m| {
                m.try_run(wl.as_ref(), &mut FirstTouch::new())
                    .map_err(|e| e.to_string())
            });
        build_s.push(secs(built - start));
        dram_s.push(secs(built.elapsed()));
        let n = *drained.get_or_insert_with(|| count_accesses(wl.as_ref()));
        let dram = checks.check(dram_cell, "dram-only", dram, n);
        setup = Some((wl, dram.as_ref().map(Summary::of)));
    }
    let (wl, dram) = setup.expect("at least one set-up");
    let drained = drained.expect("at least one set-up");

    let nproc = pact_bench::exec::default_jobs();
    let jobs = if policies.len() > 1 { nproc } else { 1 };
    let bench = Bench {
        spec,
        wl: wl.as_ref(),
        fast_pages: RATIO.fast_pages(wl.footprint_bytes()),
        jobs,
    };
    println!(
        "perfbench workload={} seed={} nproc={nproc} jobs={jobs} commit={} trace={}",
        spec.name,
        args.seed,
        commit(),
        u8::from(args.trace)
    );

    // Timed passes, untraced, until the time is up.
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut reports: Vec<Option<Summary>> = vec![None; policies.len()];
    loop {
        let (pass, runs) = bench.pass(false);
        for (i, run) in runs.into_iter().enumerate() {
            let label = format!("{}/{}/{RATIO}", spec.suite, policies[i]);
            if let Some(r) = checks.check(i, &label, run, drained) {
                reports[i].get_or_insert_with(|| Summary::of(&r));
            }
        }
        println!("pass {} wall_s={}", passes.len(), secs(pass.wall));
        passes.push(pass);
        if start.elapsed() >= deadline {
            break;
        }
    }

    let dram_cycles = dram.as_ref().map_or(0, |d| d.total_cycles);
    let slowdown_pct = |r: &Summary| (r.total_cycles as f64 / dram_cycles as f64 - 1.0) * 100.0;
    for (i, r) in reports.iter().enumerate() {
        if let Some(r) = r {
            println!(
                "cell {}/{}/{RATIO} digest={:#018x} accesses={} sim_slowdown_pct={}",
                spec.suite,
                policies[i],
                r.digest,
                r.counters.accesses,
                slowdown_pct(r)
            );
        }
    }
    if let Some(d) = &dram {
        println!(
            "cell {}/dram-only digest={:#018x} accesses={}",
            spec.suite, d.digest, d.counters.accesses
        );
    }

    let good: Vec<Summary> = reports.iter().flatten().copied().collect();
    let accesses_per_pass = sum_counters(&good).accesses as f64;
    let acc_per_s = median(
        &passes
            .iter()
            .map(|p| accesses_per_pass / secs(p.wall))
            .collect::<Vec<_>>(),
    );
    let setup_s = median(
        &build_s
            .iter()
            .zip(&dram_s)
            .map(|(b, d)| b + d)
            .collect::<Vec<_>>(),
    );
    // The median over a sweep's systems: TPP's redis cell swings from
    // 136% to 271% across seeds, which would dominate a mean.
    let sim_slowdown = if good.len() == policies.len() {
        median(&good.iter().map(slowdown_pct).collect::<Vec<_>>())
    } else {
        f64::NAN
    };

    let mut metrics = Vec::new();
    if !args.trace {
        metrics.push(("acc_per_s", acc_per_s, "1/s"));
        metrics.push(("setup_s", setup_s, "s"));
        metrics.push(("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB"));
        metrics.push(("sim_slowdown_pct", sim_slowdown, "%"));
    } else {
        let layers = replay_layers(wl.as_ref(), &experiment_machine(bench.fast_pages));
        let (traced, runs) = bench.pass(true);
        for (i, run) in runs.into_iter().enumerate() {
            let label = format!("{}/{}/{RATIO} traced", spec.suite, policies[i]);
            checks.check(i, &label, run, drained);
        }
        metrics = layer_metrics(&passes, &traced, &layers, &good, jobs);
        metrics.push(("bench.build_s", median(&build_s), "s"));
        metrics.push(("bench.dram_ref_s", median(&dram_s), "s"));
    }
    for e in &checks.errors {
        eprintln!("check failed: {e}");
    }
    Measured {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    }
}

fn layer_metrics(
    passes: &[Pass],
    traced: &Pass,
    layers: &LayerTimes,
    reports: &[Summary],
    jobs: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let c = sum_counters(reports);
    let accesses = c.accesses as f64;
    let times = &traced.times;
    let cell_wall = |p: &Pass| p.cell_walls.iter().copied().map(secs).sum::<f64>();
    let untraced_cell_s = median(&passes.iter().map(cell_wall).collect::<Vec<_>>());
    let untraced_wall_s = median(&passes.iter().map(|p| secs(p.wall)).collect::<Vec<_>>());
    let busy = median(
        &passes
            .iter()
            .map(|p| cell_wall(p) / (secs(p.wall) * jobs as f64))
            .collect::<Vec<_>>(),
    );
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let stream_ns = per(layers.stream_ns as f64, layers.accesses);
    let policy_ns = times.total_ns();
    let self_ns = (untraced_cell_s * 1e9 - policy_ns - stream_ns * accesses) / accesses;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let sum = |f: fn(&Summary) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    vec![
        ("workloads.stream_ns_per_access", stream_ns, "ns"),
        (
            "cache.llc_ns_per_access",
            per(layers.llc_ns as f64, layers.accesses),
            "ns",
        ),
        (
            "mem.page_ns_per_access",
            per(layers.page_ns as f64, layers.accesses),
            "ns",
        ),
        ("policy.sample_calls", times.sample_calls as f64, "count"),
        (
            "policy.sample_ns_per_call",
            per(times.sample_ns as f64, times.sample_calls),
            "ns",
        ),
        ("policy.window_calls", times.window_calls as f64, "count"),
        (
            "policy.window_ns_per_call",
            per(times.window_ns as f64, times.window_calls),
            "ns",
        ),
        ("policy.place_calls", times.place_calls as f64, "count"),
        (
            "policy.host_share_pct",
            policy_ns / (cell_wall(traced) * 1e9) * 100.0,
            "%",
        ),
        ("machine.self_ns_per_access", self_ns, "ns"),
        ("workloads.accesses", accesses, "count"),
        (
            "cache.llc_hit_ratio",
            ratio(c.llc_hits, c.accesses),
            "ratio",
        ),
        (
            "cache.prefetch_fills",
            (c.prefetches[0] + c.prefetches[1]) as f64,
            "count",
        ),
        ("tier.misses_fast", c.llc_misses[0] as f64, "count"),
        ("tier.misses_slow", c.llc_misses[1] as f64, "count"),
        (
            "tier.mlp_slow",
            ratio(c.tor_occupancy[1], c.tor_busy[1]),
            "ratio",
        ),
        (
            "tier.latency_slow_cycles",
            ratio(c.demand_latency_sum[1], c.llc_misses[1]),
            "cycles",
        ),
        ("pmu.pebs_samples", c.pebs_samples as f64, "count"),
        ("pmu.hint_faults", c.hint_faults as f64, "count"),
        ("mem.promotions", sum(|r| r.promotions), "pages"),
        ("mem.demotions", sum(|r| r.demotions), "pages"),
        (
            "mem.failed_promotions",
            sum(|r| r.failed_promotions),
            "count",
        ),
        ("mem.dropped_orders", sum(|r| r.dropped_orders), "count"),
        ("machine.windows", sum(|r| r.windows), "count"),
        ("machine.sim_cycles", sum(|r| r.total_cycles), "cycles"),
        ("bench.exec_busy_ratio", busy, "ratio"),
        (
            "trace.overhead_pct",
            (secs(traced.wall) / untraced_wall_s - 1.0) * 100.0,
            "%",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = forbidden_env() {
        eprintln!("error: {var} is set; the benchmark runs with it unset");
        return ExitCode::from(2);
    }
    let m = run(&args);
    let correct = m.failed == 0 && m.metrics.iter().all(|(_, v, _)| v.is_finite());
    let failed_pct = m.failed as f64 / m.attempted.max(1) as f64 * 100.0;
    println!("metric failed_runs_pct={failed_pct} % (lower is better)");
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.attempted, m.failed
    );
    for (i, (name, value, unit)) in m.metrics.iter().enumerate() {
        println!("metric {name}={value} {unit}");
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
