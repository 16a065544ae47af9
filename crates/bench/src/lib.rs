//! # pact-bench — the experiment harness of the PACT reproduction
//!
//! Every table and figure of the paper's evaluation is a function in
//! [`figures`] (see `DESIGN.md` for the experiment index), run by one
//! driver, `tierctl repro`. This library provides the shared pieces:
//!
//! * [`Lab`] — the one builder of machines: it applies the run's
//!   resolved environment ([`env::Env`]) to every run, builds each
//!   workload once, and hands out [`Harness`]es that run each
//!   distinct cell once across all figures;
//! * [`Harness`] / [`TierRatio`] — runs any policy by name at the
//!   paper's tier ratios (including Soar's two-phase
//!   profile-then-place), normalised against a cached DRAM-only
//!   baseline;
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
#![warn(clippy::unwrap_used, clippy::expect_used)]

#[cfg(clippy)]
mod canary;
mod cli;
pub mod env;
pub mod exec;
pub mod figures;
mod lab;
mod report;
mod runner;
pub mod serve;
pub mod snapfile;

pub use cli::{parse_tenants, TenantArg};
pub use env::Env;
pub use exec::run_indexed;
pub use lab::{Harness, Lab, LabStats};
pub use report::{banner, cdf_lines, count, pct, save_results, sparkline, Table};
pub use runner::{
    experiment_machine, make_policy, ratio_sweep, Outcome, RunError, SweepResult, TierRatio,
    ALL_POLICIES,
};
