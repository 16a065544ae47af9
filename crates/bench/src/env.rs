//! The `PACT_*` environment-variable registry.
//!
//! Every environment read in the workspace happens in this module —
//! the `det-env-read` lint rule (DESIGN.md §11) rejects `env::var`
//! anywhere else — so the full runtime surface of the reproduction is
//! auditable in one table:
//!
//! | Variable            | Read by              | Meaning                                             |
//! |---------------------|----------------------|-----------------------------------------------------|
//! | `PACT_JOBS`         | [`jobs_override`]    | Sweep worker count (positive integer; `1` = serial) |
//! | `PACT_TRACE`        | [`trace_config`]     | Trace output path (file for one run, dir for sweeps)|
//! | `PACT_TRACE_FORMAT` | [`trace_config`]     | `chrome` (default) or `jsonl`                       |
//! | `PACT_FAULTS`       | [`fault_plan`]       | Fault-injection spec (see `tiersim::fault`)         |
//! | `PACT_PROF`         | [`prof_enabled`]     | `1`/`true` arms the host self-profiler (`hostprof`) |
//! | `PACT_METRICS_ADDR` | [`metrics_addr`]     | `host:port` bind address for `tierctl serve-metrics`|
//! | `PACT_REPORT_TOPK`  | [`report_topk`]      | Rows in `tierctl report` top-K tables (integer ≥ 1) |
//! | `PACT_SNAPSHOT`     | [`snapshot_every`]   | Crash-recovery snapshot cadence in windows (≥ 1)    |
//! | `PACT_TENANTS`      | [`tenants_spec`]     | Fleet tenant list: `name:workload:weight,...`       |
//! | `PACT_CI_STAGES`    | `ci/run.sh` only     | Space-separated CI stage subset (validated roster)  |
//!
//! Library crates below `pact-bench` (`tiersim`, `obs`, …) never read
//! the environment: they take parsed values (a [`FaultPlan`], a
//! [`TraceConfig`]) through their APIs, which keeps simulation results
//! a pure function of explicit configuration. Binaries resolve the
//! environment here, once, at the edge.

use pact_obs::{TraceConfig, TraceFormat, TRACE_ENV, TRACE_FORMAT_ENV};
use pact_tiersim::{FaultPlan, SimError, FAULTS_ENV};

/// `PACT_JOBS`: worker-count override for sweep executors.
pub const JOBS_ENV: &str = "PACT_JOBS";

/// `PACT_CI_STAGES`: consumed by `ci/run.sh` (never by Rust code);
/// registered here so the table above stays complete.
pub const CI_STAGES_ENV: &str = "PACT_CI_STAGES";

/// `PACT_PROF`: arms the host-side self-profiler
/// (`pact_obs::hostprof`). Host profiles are wall-clock measurements of
/// the simulator itself and never feed a deterministic artifact.
pub const PROF_ENV: &str = "PACT_PROF";

/// `PACT_METRICS_ADDR`: bind address for the Prometheus text-exposition
/// endpoint (`tierctl serve-metrics`).
pub const METRICS_ADDR_ENV: &str = "PACT_METRICS_ADDR";

/// `PACT_REPORT_TOPK`: number of rows in the criticality report's
/// top-K tables (`tierctl report`).
pub const REPORT_TOPK_ENV: &str = "PACT_REPORT_TOPK";

/// `PACT_SNAPSHOT`: crash-recovery snapshot cadence in completed
/// windows (`tiersim::snapshot`, DESIGN.md §13). Resolved into
/// [`MachineConfig::snapshot_every`](pact_tiersim::MachineConfig) by
/// the binaries that install a snapshot sink (`tierctl snapshot`).
pub const SNAPSHOT_ENV: &str = "PACT_SNAPSHOT";

/// `PACT_TENANTS`: fleet tenant list for `tierctl fleet`, as
/// comma-separated `name:workload:weight` triples (see
/// [`tenants_spec`]). The `--tenants` flag takes precedence.
pub const TENANTS_ENV: &str = "PACT_TENANTS";

/// The one sanctioned environment read.
fn read(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty())
}

/// One fleet tenant parsed from a `name:workload:weight` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantArg {
    /// Tenant name as it appears in reports and metric names.
    pub name: String,
    /// Suite workload name (see [`pact_workloads::suite::build`]).
    pub workload: String,
    /// QoS weight (≥ 1) for the admission-control budget split.
    pub qos_weight: u32,
}

/// Parses a fleet tenant list: comma-separated `name:workload:weight`
/// triples, e.g. `a:gups:4,hog:mlc-hog:1,zd:zipf-drift:2`. Used by
/// both the `--tenants` flag and the `PACT_TENANTS` variable.
///
/// # Errors
///
/// Returns a message naming the offending fragment for an empty list,
/// a malformed triple, an empty field, a zero/invalid weight, or a
/// duplicate tenant name.
pub fn parse_tenants(spec: &str) -> Result<Vec<TenantArg>, String> {
    let mut out: Vec<TenantArg> = Vec::new();
    for frag in spec.split(',') {
        let frag = frag.trim();
        if frag.is_empty() {
            return Err(format!("empty tenant entry in {spec:?}"));
        }
        let parts: Vec<&str> = frag.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "invalid tenant {frag:?}: expected name:workload:weight"
            ));
        }
        let (name, workload) = (parts[0].trim(), parts[1].trim());
        if name.is_empty() || workload.is_empty() {
            return Err(format!("invalid tenant {frag:?}: empty name or workload"));
        }
        let qos_weight = match parts[2].trim().parse::<u32>() {
            Ok(w) if w >= 1 => w,
            _ => {
                return Err(format!(
                    "invalid tenant {frag:?}: weight must be a positive integer"
                ))
            }
        };
        if out.iter().any(|t| t.name == name) {
            return Err(format!("duplicate tenant name {name:?} in {spec:?}"));
        }
        out.push(TenantArg {
            name: name.to_string(),
            workload: workload.to_string(),
            qos_weight,
        });
    }
    if out.is_empty() {
        return Err("tenant list is empty".to_string());
    }
    Ok(out)
}

/// The `PACT_TENANTS` fleet tenant list: `Ok(None)` when unset.
///
/// # Errors
///
/// See [`parse_tenants`]; binaries exit 2 on a malformed list.
pub fn tenants_spec() -> Result<Option<Vec<TenantArg>>, String> {
    match read(TENANTS_ENV) {
        None => Ok(None),
        Some(v) => parse_tenants(v.trim())
            .map(Some)
            .map_err(|e| format!("invalid {TENANTS_ENV}: {e}")),
    }
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

/// The `PACT_SNAPSHOT` crash-recovery snapshot cadence: `Ok(Some(n))`
/// windows between captures, `Ok(None)` when unset (snapshotting off).
///
/// # Errors
///
/// A non-integer or zero value is a configuration error naming the
/// variable; binaries exit 2. (`0` is rejected rather than treated as
/// "off" so a typo'd cadence never silently disables recovery.)
pub fn snapshot_every() -> Result<Option<u64>, String> {
    match read(SNAPSHOT_ENV) {
        None => Ok(None),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!(
                "invalid {SNAPSHOT_ENV}={v:?}: expected a positive window count"
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

/// The `PACT_METRICS_ADDR` bind address for `tierctl serve-metrics`:
/// `Ok(None)` when unset (the command falls back to its `--addr`
/// flag or the loopback default).
///
/// # Errors
///
/// A value that does not parse as `host:port` is a configuration
/// error; binaries exit 2.
pub fn metrics_addr() -> Result<Option<std::net::SocketAddr>, String> {
    match read(METRICS_ADDR_ENV) {
        None => Ok(None),
        Some(v) => v
            .trim()
            .parse::<std::net::SocketAddr>()
            .map(Some)
            .map_err(|e| format!("invalid {METRICS_ADDR_ENV}={v:?}: {e}")),
    }
}

/// The `PACT_REPORT_TOPK` table-size override for `tierctl report`:
/// `Ok(None)` when unset (the report uses
/// [`pact_tiersim::DEFAULT_REPORT_TOPK`]).
///
/// # Errors
///
/// A non-integer or zero value is a configuration error; binaries
/// exit 2.
pub fn report_topk() -> Result<Option<usize>, String> {
    match read(REPORT_TOPK_ENV) {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!(
                "invalid {REPORT_TOPK_ENV}={v:?}: expected a positive integer"
            )),
        },
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
        if std::env::var(SNAPSHOT_ENV).is_err() {
            assert_eq!(snapshot_every(), Ok(None));
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
        if std::env::var(METRICS_ADDR_ENV).is_err() {
            assert_eq!(metrics_addr(), Ok(None));
        }
        if std::env::var(REPORT_TOPK_ENV).is_err() {
            assert_eq!(report_topk(), Ok(None));
        }
        if std::env::var(TENANTS_ENV).is_err() {
            assert_eq!(tenants_spec(), Ok(None));
        }
    }

    #[test]
    fn tenant_list_parses_and_validates() {
        let ts = parse_tenants("a:gups:4, hog:mlc-hog:1 ,zd:zipf-drift:2").unwrap();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].name, "a");
        assert_eq!(ts[1].workload, "mlc-hog");
        assert_eq!(ts[2].qos_weight, 2);
        assert!(parse_tenants("").is_err());
        assert!(parse_tenants("a:gups").is_err());
        assert!(parse_tenants("a:gups:0").is_err());
        assert!(parse_tenants(":gups:1").is_err());
        assert!(parse_tenants("a:gups:1,a:silo:2").is_err());
    }
}
