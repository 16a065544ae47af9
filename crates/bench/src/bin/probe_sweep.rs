//! Sweep-executor perf probe: times a fixed smoke-scale policy × ratio
//! sweep serially (`jobs = 1`) and in parallel (`PACT_JOBS`, default 4),
//! checks the two results are bit-identical, and records wall time and
//! simulated-cycles-per-second in `BENCH_sweep.json`.
//!
//! ```text
//! cargo run --release -p pact-bench --bin probe_sweep
//! PACT_JOBS=8 cargo run --release -p pact-bench --bin probe_sweep
//! cargo run --release -p pact-bench --bin probe_sweep -- --check-against BENCH_sweep.json
//! ```
//!
//! With `--check-against PATH` the probe becomes the CI
//! perf-regression gate: instead of overwriting `BENCH_sweep.json` it
//! compares the fresh measurement against the committed baseline at
//! `PATH` and exits 1 if parallel execution stopped being
//! bit-identical or serial `sim_cycles_per_sec` regressed by more than
//! 20%.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;

use pact_bench::{env, gate, ratio_sweep, Harness, JsonWriter, OrExit, SweepResult, TierRatio};
use pact_workloads::suite::{build, Scale};

const POLICIES: [&str; 5] = ["pact", "colloid", "memtis", "tpp", "notier"];

/// Total simulated cycles across the sweep, reconstructed from the
/// normalized slowdowns (`cycles = dram * (1 + slowdown)`).
fn sim_cycles(sweep: &SweepResult, dram: u64) -> u64 {
    sweep
        .slowdown
        .iter()
        .flatten()
        .map(|s| (dram as f64 * (1.0 + s)) as u64)
        .sum()
}

/// Compares a fresh probe against the committed baseline; returns an
/// error line per violated gate.
fn check_against(baseline_json: &str, fresh_identical: bool, fresh_serial_cps: f64) -> Vec<String> {
    gate::check_against(
        baseline_json,
        "\"serial\":",
        "serial",
        "parallel sweep is no longer bit-identical to serial",
        fresh_identical,
        fresh_serial_cps,
    )
}

fn main() {
    let check_path = gate::check_path_from_args("probe_sweep");
    pact_bench::validate_fault_env();
    pact_bench::arm_hostprof_from_env();
    let jobs = pact_bench::env::jobs_override().ok().flatten().unwrap_or(4);
    let ratios = [
        TierRatio::new(4, 1),
        TierRatio::new(1, 1),
        TierRatio::new(1, 4),
    ];
    eprintln!(
        "[probe_sweep] bc-kron smoke, {} policies x {} ratios, serial vs {jobs} jobs",
        POLICIES.len(),
        ratios.len()
    );
    let h = Harness::new(build("bc-kron", Scale::Smoke, 42));
    let dram = h.dram_cycles().or_exit(); // warm the shared baseline outside both timings

    let t = Instant::now();
    let trace = env::trace_config();
    let sweep = |jobs| ratio_sweep(&h, &POLICIES, &ratios, jobs, trace.as_ref()).or_exit();
    let serial = sweep(1);
    let serial_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let parallel = sweep(jobs);
    let parallel_secs = t.elapsed().as_secs_f64();

    let identical = serial == parallel
        && serial
            .slowdown
            .iter()
            .flatten()
            .zip(parallel.slowdown.iter().flatten())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let cycles = sim_cycles(&serial, dram);
    let speedup = serial_secs / parallel_secs;
    eprintln!(
        "[probe_sweep] serial {serial_secs:.2}s, {jobs} jobs {parallel_secs:.2}s \
         (speedup {speedup:.2}x), identical: {identical}"
    );
    // Both sweeps have run; emit the PACT_PROF self-profile (stderr)
    // before any gate path can exit.
    pact_bench::emit_hostprof_summary();

    let timing = |j: &mut JsonWriter, njobs: u64, secs: f64| {
        j.begin_object();
        j.field_u64("jobs", njobs);
        j.field_f64("wall_seconds", secs);
        j.field_f64("sim_cycles_per_sec", cycles as f64 / secs);
        j.end_object();
    };
    if let Some(path) = &check_path {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let fresh_cps = cycles as f64 / serial_secs;
        let errors = check_against(&baseline, identical, fresh_cps);
        if errors.is_empty() {
            println!(
                "[probe_sweep] perf gate vs {path} OK: bit_identical, \
                 serial {fresh_cps:.0} cycles/s within tolerance"
            );
            return;
        }
        for e in &errors {
            eprintln!("[probe_sweep] perf gate FAIL: {e}");
        }
        std::process::exit(1);
    }

    let mut j = JsonWriter::new();
    j.begin_object();
    j.field_str("workload", "bc-kron");
    j.field_str("scale", "smoke");
    j.field_u64("policies", POLICIES.len() as u64);
    j.field_u64("ratios", ratios.len() as u64);
    j.field_u64("cells", (POLICIES.len() * ratios.len()) as u64);
    j.field_u64("host_parallelism", pact_bench::exec::default_jobs() as u64);
    j.field_u64("sim_cycles", cycles);
    j.key("serial");
    timing(&mut j, 1, serial_secs);
    j.key("parallel");
    timing(&mut j, jobs as u64, parallel_secs);
    j.field_f64("speedup", speedup);
    j.field_bool("bit_identical", identical);
    j.end_object();
    let mut json = j.finish();
    json.push('\n');
    match std::fs::write("BENCH_sweep.json", &json) {
        Ok(()) => println!("[saved BENCH_sweep.json]"),
        Err(e) => eprintln!("warning: could not write BENCH_sweep.json: {e}"),
    }
    print!("{json}");
    assert!(identical, "parallel sweep diverged from serial");
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"workload":"bc-kron","serial":{"jobs":1,"wall_seconds":0.25,"sim_cycles_per_sec":22750166.0},"parallel":{"jobs":4,"wall_seconds":0.2,"sim_cycles_per_sec":27000000.0},"speedup":1.2,"bit_identical":true}"#;

    // The shared extraction/threshold mechanics are pinned in
    // `pact_bench::gate`; these cover this probe's labels and anchors.

    #[test]
    fn gate_passes_within_tolerance() {
        assert!(check_against(BASELINE, true, 22_000_000.0).is_empty());
        // Exactly at the floor still passes.
        assert!(check_against(BASELINE, true, 22_750_166.0 * 0.8).is_empty());
    }

    #[test]
    fn gate_fails_on_regression_or_divergence() {
        let errs = check_against(BASELINE, true, 10_000_000.0);
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("serial sim_cycles_per_sec regressed"),
            "{}",
            errs[0]
        );
        let errs = check_against(BASELINE, false, 22_000_000.0);
        assert!(errs.iter().any(|e| e.contains("bit-identical")));
    }

    #[test]
    fn gate_rejects_a_broken_baseline() {
        let errs = check_against("{}", true, 1.0);
        assert_eq!(errs.len(), 2);
        let bad = BASELINE.replace("true", "false");
        let errs = check_against(&bad, true, 22_000_000.0);
        assert!(errs.iter().any(|e| e.contains("baseline recorded")));
    }
}
