//! Minimal command-line parsing shared by the figure binaries.

use pact_workloads::suite::Scale;

/// Common options of every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Workload scale (`--scale smoke|paper`).
    pub scale: Scale,
    /// Base RNG seed (`--seed N`).
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: Scale::Paper,
            seed: 42,
        }
    }
}

/// Parses `std::env::args`, exiting with usage help on error.
///
/// Also validates the `PACT_FAULTS` fault-injection spec so a typo in
/// the environment is a hard startup error rather than a warning lost
/// in sweep output.
///
/// Recognized flags: `--scale smoke|paper`, `--seed <u64>`, `--help`.
pub fn parse_options() -> Options {
    validate_fault_env();
    parse_from(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        eprintln!("usage: <bin> [--scale smoke|paper] [--seed N]");
        std::process::exit(2);
    })
}

/// Exits with status 2 if any of the parsed `PACT_*` hooks —
/// `PACT_FAULTS`, `PACT_PROF`, `PACT_METRICS_ADDR`,
/// `PACT_REPORT_TOPK`, `PACT_JOBS`, `PACT_SNAPSHOT` — is set but
/// unparseable, so every experiment binary rejects a bad
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
/// Figure binaries build and run machines and policies from hard-coded
/// experiment configs; when that does fail (e.g. a bad edit to an
/// experiment constant), this turns the failure into a one-line
/// structured message instead of a panic backtrace.
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

fn parse_from(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = match v.as_str() {
                    "smoke" => Scale::Smoke,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--help" | "-h" => {
                return Err("PACT reproduction experiment binary".to_string());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn parses_flags() {
        let o = parse(&["--scale", "smoke", "--seed", "7"]).unwrap();
        assert_eq!(o.scale, Scale::Smoke);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale", "big"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
