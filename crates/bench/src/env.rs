//! The `PACT_*` environment-variable registry.
//!
//! Every environment read in the workspace happens in this module —
//! clippy's `disallowed_methods` (D004 `det-env-read`, DESIGN.md §11)
//! rejects `env::var` anywhere else — so the full runtime surface of
//! the reproduction is auditable in one table:
//!
//! | Variable            | Resolved into        | Meaning                                             |
//! |---------------------|----------------------|-----------------------------------------------------|
//! | `PACT_JOBS`         | [`Env::jobs`]        | Sweep worker count (positive integer; `1` = serial) |
//! | `PACT_TRACE`        | [`Env::trace`]       | Trace output path (file for one run, dir for sweeps)|
//! | `PACT_TRACE_FORMAT` | [`Env::trace`]       | `chrome` (default) or `jsonl`                       |
//! | `PACT_FAULTS`       | [`Env::faults`]      | Fault-injection spec (see `tiersim::fault`)         |
//! | `PACT_PROF`         | [`Env::prof`]        | `1`/`true` arms the host self-profiler (`hostprof`) |
//! | `PACT_CI_STAGES`    | `ci/run.sh` only     | Space-separated CI stage subset (validated roster)  |
//!
//! [`Env::resolve`] reads them all once; `tierctl`'s `main` calls it
//! before any work and hands the result to the [`Lab`](crate::Lab),
//! which applies the plan, the trace root and the worker count to every
//! run it makes. Nothing else in the crate reads the environment.
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
use pact_tiersim::{FaultPlan, FAULTS_ENV};

/// `PACT_JOBS`: worker-count override for sweep executors.
const JOBS_ENV: &str = "PACT_JOBS";

/// `PACT_PROF`: arms the host-side self-profiler
/// (`pact_obs::hostprof`), whose wall-clock measurements of the
/// simulator never feed a deterministic artifact.
const PROF_ENV: &str = "PACT_PROF";

/// A process's resolved `PACT_*` environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// The fault plan every run applies unless its configuration
    /// carries one of its own; `None` is the zero-cost clean path.
    pub faults: Option<FaultPlan>,
    /// Where sweeps write their traces; `None` when not tracing.
    pub trace: Option<TraceConfig>,
    /// Worker count for sweeps and figures.
    pub jobs: usize,
    /// Whether the host self-profiler is armed.
    pub prof: bool,
}

impl Default for Env {
    /// No plan, no trace, no profiler, and one worker per available
    /// core: what a run sees with every variable unset.
    fn default() -> Self {
        Self {
            faults: None,
            trace: None,
            jobs: crate::exec::default_jobs(),
            prof: false,
        }
    }
}

impl Env {
    /// Reads and validates every variable of the registry.
    ///
    /// # Errors
    ///
    /// A malformed `PACT_FAULTS`, `PACT_PROF` or `PACT_JOBS` is a
    /// one-line message naming the variable and value; `tierctl` exits
    /// 2 on it before doing any work. An unknown `PACT_TRACE_FORMAT`
    /// only warns and falls back to Chrome trace.
    pub fn resolve() -> Result<Env, String> {
        let faults = read(FAULTS_ENV)
            .map(|v| FaultPlan::parse(v.trim()))
            .transpose()
            .map_err(|e| e.to_string())?;
        let prof = match read(PROF_ENV).as_deref().map(str::trim) {
            None | Some("0") | Some("false") => false,
            Some("1") | Some("true") => true,
            Some(v) => {
                return Err(format!(
                    "invalid {PROF_ENV}={v:?}: expected 1/true or 0/false"
                ))
            }
        };
        let jobs = match read(JOBS_ENV) {
            None => crate::exec::default_jobs(),
            Some(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    return Err(format!(
                        "invalid {JOBS_ENV}={v:?}: expected a positive integer worker count"
                    ))
                }
            },
        };
        let trace = read(TRACE_ENV).map(|path| {
            let format = read(TRACE_FORMAT_ENV).map_or(TraceFormat::Chrome, |v| {
                TraceFormat::parse(v.trim()).unwrap_or_else(|| {
                    eprintln!(
                        "warning: unknown {TRACE_FORMAT_ENV}={v:?}; using chrome trace format"
                    );
                    TraceFormat::Chrome
                })
            });
            TraceConfig {
                path: path.into(),
                format,
            }
        });
        Ok(Env {
            faults,
            trace,
            jobs,
            prof,
        })
    }
}

/// The one sanctioned environment read.
fn read(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Set/unset round-trips are unsafe under the parallel test runner,
    // so only the unset path is exercised; the CLI tests drive the set
    // paths through spawned tierctl processes.

    #[test]
    fn unset_variables_resolve_to_the_default() {
        let vars = [JOBS_ENV, TRACE_ENV, FAULTS_ENV, PROF_ENV];
        if vars.iter().all(|v| std::env::var(v).is_err()) {
            assert_eq!(Env::resolve(), Ok(Env::default()));
        }
    }
}
