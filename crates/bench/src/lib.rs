//! # pact-bench — the experiment harness of the PACT reproduction
//!
//! Every table and figure of the paper's evaluation is a function in
//! [`figures`] (see `DESIGN.md` for the experiment index), run by one
//! driver, `tierctl repro`. This library provides the shared pieces:
//!
//! * [`Harness`] / [`TierRatio`] — builds the Skylake+CXL machine at
//!   the paper's tier ratios, caches the DRAM-only baseline, runs any
//!   policy by name (including Soar's two-phase profile-then-place);
//! * [`Lab`] — the cache behind the driver: each workload is built
//!   once and each distinct cell runs once across all figures;
//! * [`Table`], [`sparkline`], [`cdf_lines`] — plain-text rendering of
//!   the rows/series each figure reports.
//!
//! Reproduce the evaluation, or part of it, with:
//!
//! ```text
//! cargo run --release -p pact-bench --bin tierctl -- repro
//! cargo run --release -p pact-bench --bin tierctl -- repro --fig fig04,fig06 --scale smoke
//! ```

#![warn(missing_docs)]

mod cli;
pub mod env;
pub mod exec;
pub mod figures;
pub mod gate;
mod lab;
mod report;
mod runner;
pub mod serve;
pub mod snapfile;

pub use cli::{
    arm_hostprof_from_env, emit_hostprof_summary, exit_invalid_config, parse_tenants,
    validate_fault_env, OrExit, TenantArg,
};
pub use exec::{jobs_from_env, run_indexed, try_run_indexed};
pub use lab::{Lab, LabHarness, LabStats};
pub use report::{banner, cdf_lines, count, pct, save_results, sparkline, JsonWriter, Table};
pub use runner::{
    experiment_machine, is_runnable_policy, make_policy, ratio_sweep, Cells, Harness, Outcome,
    RunError, SweepResult, TierRatio, ALL_POLICIES,
};
