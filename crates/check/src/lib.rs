//! # pact-check — deterministic validation for the PACT reproduction
//!
//! The simulator stack is only as trustworthy as the checks around it.
//! This crate is the validation subsystem the CI pipeline gates on,
//! with three complementary attacks on the same question — *is the
//! simulation still telling the truth?*
//!
//! 1. **Runtime invariants** (implemented in
//!    [`pact_tiersim::InvariantSet`], armed via
//!    `MachineConfig::invariants`): conservation laws checked at every
//!    window boundary — page-count conservation, migration-order
//!    ledger balance, channel bandwidth ≤ capacity, MSHR bounds,
//!    counter monotonicity, and window-record/registry agreement.
//! 2. **Differential oracles** ([`differential`]): the same cell run
//!    under observation variants that must not change the answer —
//!    tracing on/off, invariant checking on/off, an inert fault plan
//!    on/off — byte-compared; plus cross-configuration dominance
//!    (an all-local run must never lose to an all-remote run) and
//!    kill-resume crash recovery (a run killed at a snapshot boundary
//!    and resumed must finish byte-identically).
//! 3. **A deterministic config fuzzer** ([`fuzz`]): SplitMix64-driven
//!    generation of valid-but-adversarial machine configurations,
//!    fault plans, and synthetic workloads, each run with the full
//!    invariant set armed; failing seeds print as one-line repro
//!    commands.
//!
//! Everything is seed-deterministic: the same `(cases, seed)` pair
//! always produces the same ledger, so a CI failure reproduces exactly
//! on a laptop.
//!
//! The `tierctl check` subcommand in `pact-bench` is the CLI front end.

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod differential;
pub mod fuzz;

pub use differential::{
    attribution_oracle, check_cell, dominance_oracle, kill_resume_oracle,
    tenant_conservation_oracle, DiffLedger,
};
pub use fuzz::{case_seed, run_case, run_fuzz, CaseSummary, FuzzLedger, FuzzOptions};
