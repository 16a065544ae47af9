//! # pact-core — the PACT criticality-first tiering policy
//!
//! This crate is the reproduction of the paper's primary contribution
//! (PACT, ASPLOS '26): online, page-granular, criticality-first tiered
//! memory management built on **Per-page Access Criticality (PAC)**.
//!
//! * [`estimate_tier_stalls`] — Equation 1, the per-tier stall model
//!   `stalls = k · misses / MLP` with MLP measured from CHA/TOR
//!   occupancy counters;
//! * [`PacStore`] — the per-page tracking hash table of §4.3.6 with
//!   proportional or latency-weighted stall attribution (Algorithm 1
//!   and the §4.3.7 extension) and distance-triggered cooling (§5.7);
//! * [`AdaptiveBins`] — reservoir-sampled Freedman–Diaconis promotion
//!   binning with the scaling optimization (Algorithm 3);
//! * [`PactPolicy`] — the complete policy: eager demotion and adaptive
//!   promotion (Algorithm 2), pluggable into any
//!   [`Machine`](pact_tiersim::Machine).
//!
//! The frequency-only ablation of §5.6 is the same policy with
//! [`RankBy::Frequency`].
//!
//! # Example
//!
//! ```
//! use pact_core::{PactConfig, PactPolicy};
//! use pact_tiersim::{Access, Machine, MachineConfig, TraceWorkload};
//!
//! # fn main() -> Result<(), String> {
//! let trace: Vec<Access> = (0..50_000u64)
//!     .map(|i| Access::dependent_load((i.wrapping_mul(2654435761) % 256) * 4096))
//!     .collect();
//! let wl = TraceWorkload::new("chase", 256 * 4096, trace);
//! let machine = Machine::new(MachineConfig::skylake_cxl(64)).unwrap();
//! let mut pact = PactPolicy::new(PactConfig::default())?;
//! let report = machine.try_run(&wl, &mut pact).unwrap();
//! assert_eq!(report.policy, "pact");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![expect(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` is deliberate where NaN must fail validation"
)]
#![cfg_attr(
    test,
    expect(
        clippy::field_reassign_with_default,
        reason = "tests build counter fixtures by mutating a Default value"
    )
)]

mod binning;
mod config;
mod pac;
mod policy;
mod store;

pub use binning::AdaptiveBins;
pub use config::{Attribution, BinningMode, Cooling, PactConfig, RankBy, SamplingSource};
pub use pac::{estimate_tier_stalls, estimate_tier_stalls_from_delta};
pub use policy::PactPolicy;
pub use store::{PacStore, PageEntry};
