//! Umbrella crate: see `examples/` and `tests/`. Re-exports the workspace crates.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub use pact_baselines as baselines;
pub use pact_core as core;
pub use pact_stats as stats;
pub use pact_tiersim as tiersim;
pub use pact_workloads as workloads;
