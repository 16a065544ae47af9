//! # pact-obs — deterministic tracing and metrics for the PACT substrate
//!
//! The paper's evaluation lives on visibility into the simulated
//! machine: CHA/TOR occupancy, PEBS batches, migration-daemon
//! behaviour, per-window policy telemetry (Figs 2, 8, 9, 11). This
//! crate is the observability layer every other crate threads through:
//!
//! * [`Tracer`] — a preallocated ring buffer of typed, sim-cycle
//!   stamped [`TraceEvent`]s (window boundaries, migration order
//!   issued/completed/dropped, promotion rejections, channel-saturation
//!   episodes, PEBS sample batches, policy telemetry). A disabled
//!   tracer never allocates and compiles to a single branch on the hot
//!   path.
//! * [`MetricsRegistry`] — named counters, gauges, and histograms
//!   (reusing `pact-stats` histograms) that the machine, channels,
//!   CHMU, migration daemon, and policies register into; snapshotted at
//!   every sampling window.
//! * [`export`] — Chrome-trace JSON (open in `chrome://tracing` or
//!   Perfetto) and JSONL exporters, selected at runtime via the
//!   `PACT_TRACE` / `PACT_TRACE_FORMAT` environment variables.
//! * [`json`] — the dependency-free JSON writer/validator the
//!   exporters and the bench harness share.
//! * [`attribution`] — collapsed-stack ("folded") flamegraph text and
//!   deterministic top-K selection, the building blocks of the
//!   criticality report (DESIGN.md §12).
//! * [`hostprof`] — the host-side span profiler, the one sanctioned
//!   wall-clock reader in the deterministic crates. Host profiles time
//!   the simulator itself and never feed sim-domain artifacts.
//!
//! Determinism is load-bearing: events carry only simulation state
//! (cycles, pages, counters — never wall-clock time or addresses of
//! host objects), so two runs of the same seed emit byte-identical
//! traces regardless of host, thread count, or scheduling. The
//! integration tests pin this.

#![warn(missing_docs)]

pub mod attribution;
pub mod export;
pub mod hostprof;
mod intern;
pub mod json;
mod metrics;
mod tracer;

pub use attribution::{top_k_desc, FoldedStacks};
pub use export::{
    chrome_trace, jsonl, TraceConfig, TraceFormat, WindowRow, TRACE_ENV, TRACE_FORMAT_ENV,
};
pub use intern::intern;
pub use json::{validate, JsonError, JsonWriter};
pub use metrics::{HistogramNames, MetricId, MetricKind, MetricsRegistry};
pub use tracer::{EventKind, TraceEvent, Tracer, DEFAULT_RING_CAPACITY};
