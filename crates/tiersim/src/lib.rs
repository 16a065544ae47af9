//! # pact-tiersim — a deterministic tiered-memory system simulator
//!
//! This crate is the hardware/OS substrate of the PACT (ASPLOS '26)
//! reproduction. It stands in for everything the paper's prototype gets
//! from a real Skylake server and a patched Linux 5.15 kernel:
//!
//! * an out-of-order core's memory behaviour, modelled as a bounded-MSHR
//!   miss engine with explicit dependency chains — memory-level
//!   parallelism *emerges* from the access stream instead of being a knob;
//! * a set-associative last-level cache with a stride prefetcher;
//! * two memory tiers (DRAM + NUMA/CXL) with unloaded latency and a
//!   bandwidth channel whose queuing inflates loaded latency under
//!   contention;
//! * the PMU surface PACT samples (Table 1 of the paper): per-tier LLC
//!   misses, CHA/TOR occupancy counters for per-tier MLP, and PEBS-style
//!   1-in-N load-miss sampling;
//! * kernel facilities: first-touch page allocation, 4 KiB and 2 MiB
//!   (THP) pages, CLOCK-approximated LRU lists, NUMA hint-fault
//!   scanning, and a budgeted `move_pages()`-style migration daemon.
//!
//! Tiering systems implement [`TieringPolicy`] and are driven by the
//! [`Machine`], which delivers sampled events and per-window counter
//! snapshots and charges every mechanism cost (hint faults, migration
//! bandwidth, TLB shootdowns) to the simulated application.
//!
//! Runs are fully deterministic given [`MachineConfig::seed`].
//!
//! # Example
//!
//! ```
//! use pact_tiersim::{Access, FirstTouch, Machine, MachineConfig, TraceWorkload};
//!
//! // A page-sized pointer chase over 256 pages.
//! let trace: Vec<Access> = (0..50_000u64)
//!     .map(|i| Access::dependent_load((i.wrapping_mul(2654435761) % 256) * 4096))
//!     .collect();
//! let wl = TraceWorkload::new("chase", 256 * 4096, trace);
//!
//! // Fast tier holds only 64 of the 256 pages.
//! let machine = Machine::new(MachineConfig::skylake_cxl(64)).unwrap();
//! let report = machine.try_run(&wl, &mut FirstTouch::new()).unwrap();
//! assert!(report.counters.total_misses() > 0);
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

mod admission;
mod attribution;
mod cache;
mod chmu;
mod config;
mod error;
mod fault;
mod invariant;
mod machine;
mod mem;
mod observe;
mod pmu;
mod policy;
mod tier;
mod types;
mod workload;

pub use admission::{Admission, AdmissionControl, AdmissionLane, MAX_DEFERRALS};
pub use attribution::{CriticalityReport, DEFAULT_REPORT_TOPK};
pub use cache::{line_of, Llc, StrideDetector};
pub use chmu::{Chmu, SpaceSaving};
pub use config::{
    config_fingerprint, fnv1a, ConfigError, LlcConfig, MachineConfig, MigrationConfig, PebsConfig,
    PebsScope, PrefetchConfig, TierConfig,
};
pub use error::SimError;
pub use fault::{FaultPlan, StallFault, FAULTS_ENV};
pub use invariant::InvariantViolation;
pub use machine::{Machine, ProcessReport, RunReport, RunSpec, WindowRecord};
pub use mem::Memory;
pub use observe::export_trace;
pub use pact_obs::{
    EventKind, MetricId, MetricKind, MetricsRegistry, TraceEvent, TraceFormat, Tracer,
};
pub use pmu::{PebsSampler, PmuCounters, SampleEvent};
pub use policy::{FirstTouch, MachineInfo, MigrationOrder, PolicyCtx, TieringPolicy, WindowStats};
pub use tier::Channel;
pub use types::{Access, AccessKind, PageId, ProcId, Tier, HUGE_PAGE_SPAN, LINE_BYTES, PAGE_BYTES};
pub use workload::{AccessStream, Region, TraceWorkload, VecStream, Workload};
