//! Startup checks and exit conventions shared by the binaries.

/// Exits with status 2 if any of the parsed `PACT_*` hooks —
/// `PACT_FAULTS`, `PACT_PROF`, `PACT_METRICS_ADDR`,
/// `PACT_REPORT_TOPK`, `PACT_JOBS`, `PACT_SNAPSHOT` — is set but
/// unparseable, so every binary rejects a bad
/// environment before doing any work. Valid values are left for the
/// harness to apply per run.
pub fn validate_fault_env() {
    if let Err(e) = crate::env::fault_plan() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let hook_errs = [
        crate::env::prof_enabled().err(),
        crate::env::metrics_addr().err(),
        crate::env::report_topk().err(),
        crate::env::jobs_override().err(),
        crate::env::snapshot_every().err(),
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
