//! The `PACT_*` environment-variable registry.
//!
//! Every environment read in the workspace happens in this module —
//! clippy's `disallowed_methods` (D004 `det-env-read`, DESIGN.md §11)
//! rejects `env::var` anywhere else — so the full runtime surface of
//! the reproduction is auditable in one table:
//!
//! | Variable            | Read by              | Meaning                                             |
//! |---------------------|----------------------|-----------------------------------------------------|
//! | `PACT_JOBS`         | [`jobs_override`]    | Sweep worker count (positive integer; `1` = serial) |
//! | `PACT_TRACE`        | [`trace_config`]     | Trace output path (file for one run, dir for sweeps)|
//! | `PACT_TRACE_FORMAT` | [`trace_config`]     | `chrome` (default) or `jsonl`                       |
//! | `PACT_FAULTS`       | [`fault_plan`]       | Fault-injection spec (see `tiersim::fault`)         |
//! | `PACT_PROF`         | [`prof_enabled`]     | `1`/`true` arms the host self-profiler (`hostprof`) |
//! | `PACT_CI_STAGES`    | `ci/run.sh` only     | Space-separated CI stage subset (validated roster)  |
//!
//! A setting that one subcommand reads is a `tierctl` flag instead
//! (`--topk`, `--addr`, `--every`, `--tenants`), not a variable.
//!
//! Library crates below `pact-bench` (`tiersim`, `obs`, …) never read
//! the environment: they take parsed values (a [`FaultPlan`], a
//! [`TraceConfig`]) through their APIs, which keeps simulation results
//! a pure function of explicit configuration. Binaries resolve the
//! environment here, once, at the edge.

#![expect(
    clippy::disallowed_methods,
    reason = "the PACT_* registry is the one module that reads the environment"
)]

use pact_obs::{TraceConfig, TraceFormat, TRACE_ENV, TRACE_FORMAT_ENV};
use pact_tiersim::{FaultPlan, SimError, FAULTS_ENV};

/// `PACT_JOBS`: worker-count override for sweep executors.
pub const JOBS_ENV: &str = "PACT_JOBS";

/// `PACT_PROF`: arms the host-side self-profiler
/// (`pact_obs::hostprof`). Host profiles are wall-clock measurements of
/// the simulator itself and never feed a deterministic artifact.
pub const PROF_ENV: &str = "PACT_PROF";

/// The one sanctioned environment read.
fn read(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty())
}

/// The `PACT_JOBS` override: `Ok(Some(n))` for a positive integer,
/// `Ok(None)` when unset.
///
/// # Errors
///
/// A non-integer or zero value is a configuration error naming the
/// variable; binaries exit 2 (library callers may degrade with a
/// warning since the binary already validated at startup).
pub fn jobs_override() -> Result<Option<usize>, String> {
    match read(JOBS_ENV) {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!(
                "invalid {JOBS_ENV}={v:?}: expected a positive integer worker count"
            )),
        },
    }
}

/// Where and how to write traces, from `PACT_TRACE` /
/// `PACT_TRACE_FORMAT`. `None` when tracing is not requested; an
/// unknown format warns and falls back to Chrome trace.
pub fn trace_config() -> Option<TraceConfig> {
    let path = read(TRACE_ENV)?;
    let format = match read(TRACE_FORMAT_ENV) {
        Some(v) => TraceFormat::parse(v.trim()).unwrap_or_else(|| {
            eprintln!("warning: unknown {TRACE_FORMAT_ENV}={v:?}; using chrome trace format");
            TraceFormat::Chrome
        }),
        None => TraceFormat::Chrome,
    };
    Some(TraceConfig {
        path: path.into(),
        format,
    })
}

/// The `PACT_FAULTS` fault-injection plan. `Ok(None)` when unset or
/// empty — the zero-cost disabled path.
///
/// # Errors
///
/// Returns the parse error of a malformed specification, so binaries
/// can exit with a structured message instead of running an
/// experiment the operator did not ask for.
pub fn fault_plan() -> Result<Option<FaultPlan>, SimError> {
    match read(FAULTS_ENV) {
        Some(v) => FaultPlan::parse(v.trim()).map(Some),
        None => Ok(None),
    }
}

/// Whether `PACT_PROF` arms the host self-profiler: `1`/`true` on,
/// `0`/`false` off, unset off.
///
/// # Errors
///
/// Any other value is a configuration error (the profiler silently
/// staying off would make its absence in output ambiguous), reported
/// like a malformed `PACT_FAULTS`: binaries exit 2.
pub fn prof_enabled() -> Result<bool, String> {
    match read(PROF_ENV).as_deref().map(str::trim) {
        None => Ok(false),
        Some("1") | Some("true") => Ok(true),
        Some("0") | Some("false") => Ok(false),
        Some(v) => Err(format!(
            "invalid {PROF_ENV}={v:?}: expected 1/true or 0/false"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Set/unset round-trips are unsafe under the parallel test runner,
    // so only unset paths are exercised; the CLI tests drive the set
    // paths through spawned tierctl processes.

    #[test]
    fn unset_variables_resolve_to_none() {
        if std::env::var(JOBS_ENV).is_err() {
            assert_eq!(jobs_override(), Ok(None));
        }
        if std::env::var(TRACE_ENV).is_err() {
            assert_eq!(trace_config(), None);
        }
        if std::env::var(FAULTS_ENV).is_err() {
            assert_eq!(fault_plan().unwrap(), None);
        }
        if std::env::var(PROF_ENV).is_err() {
            assert_eq!(prof_enabled(), Ok(false));
        }
    }
}
