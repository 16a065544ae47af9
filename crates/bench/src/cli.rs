//! Startup checks, exit conventions and flag parsers shared by the
//! binaries.

/// Exits with status 2 if any of the parsed `PACT_*` hooks —
/// `PACT_FAULTS`, `PACT_PROF`, `PACT_JOBS` — is set but unparseable,
/// so every binary rejects a bad environment before doing any work.
/// Valid values are left for the harness to apply per run.
pub fn validate_fault_env() {
    if let Err(e) = crate::env::fault_plan() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let hook_errs = [
        crate::env::prof_enabled().err(),
        crate::env::jobs_override().err(),
    ];
    if let Some(e) = hook_errs.into_iter().flatten().next() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// Arms the host self-profiler (`pact_obs::hostprof`) when `PACT_PROF`
/// asks for it. Call once at binary startup, after
/// [`validate_fault_env`] (which rejects malformed values); an error
/// here is therefore unreachable and treated as "off".
pub fn arm_hostprof_from_env() {
    if crate::env::prof_enabled().unwrap_or(false) {
        pact_obs::hostprof::set_enabled(true);
    }
}

/// Prints the host self-profile summary to stderr when the profiler is
/// armed. Stderr, not stdout: host timings are nondeterministic and
/// must never mix into artifacts that CI byte-compares.
pub fn emit_hostprof_summary() {
    if pact_obs::hostprof::enabled() {
        eprintln!("host self-profile (wall clock, nondeterministic):");
        eprint!("{}", pact_obs::hostprof::summary());
    }
}

/// Reports a configuration error and exits with status 2.
///
/// The probe and check binaries build and run machines and policies
/// from hard-coded experiment configs; when that does fail (e.g. a bad
/// edit to an experiment constant), this turns the failure into a
/// one-line structured message instead of a panic backtrace.
pub fn exit_invalid_config(e: impl std::fmt::Display) -> ! {
    eprintln!("error: invalid configuration: {e}");
    std::process::exit(2);
}

/// `unwrap` for binaries: the `Ok` value, or the error reported through
/// [`exit_invalid_config`] (exit 2) instead of a panic.
pub trait OrExit<T> {
    /// Returns the `Ok` value or exits with status 2.
    fn or_exit(self) -> T;
}

impl<T, E: std::fmt::Display> OrExit<T> for Result<T, E> {
    fn or_exit(self) -> T {
        self.unwrap_or_else(|e| exit_invalid_config(e))
    }
}

/// One fleet tenant parsed from a `name:workload:weight` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantArg {
    /// Tenant name as it appears in the fleet report.
    pub name: String,
    /// Suite workload name (see [`pact_workloads::suite::build`]).
    pub workload: String,
    /// QoS weight (≥ 1) for the admission-control budget split.
    pub qos_weight: u32,
}

/// Parses a fleet tenant list: comma-separated `name:workload:weight`
/// triples, e.g. `a:gups:4,hog:mlc-hog:1,zd:zipf-drift:2` (the
/// `tierctl fleet --tenants` flag).
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

#[cfg(test)]
mod tests {
    use super::*;

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
