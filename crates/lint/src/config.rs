//! Lint configuration: which crates are deterministic, where the
//! registry modules live, and which rules are enabled.

/// Scoping decisions for one file, derived from its workspace-relative
/// path by [`LintConfig::classify`].
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate the file belongs to (directory name under `crates/`, or
    /// `pact-repro` for the root `src/`).
    pub crate_name: String,
    /// Subject to the D-rules (simulation/policy/statistics code whose
    /// behavior must be bit-reproducible).
    pub deterministic: bool,
    /// The one module allowed to read `PACT_*` environment variables.
    pub env_registry: bool,
    /// The one module allowed to own randomness primitives.
    pub rng_registry: bool,
    /// Crate allowed to print to the terminal.
    pub print_allowed: bool,
    /// File subject to the `counter-truncation` rule.
    pub truncation_scoped: bool,
    /// The one module allowed to read the host wall clock (the host
    /// self-profiler); `det-wall-clock` is waived here and only here.
    pub wall_clock_sanctioned: bool,
}

/// The configurable rule set: scoping tables plus an enabled-rule
/// filter. [`LintConfig::default`] encodes this workspace's policy;
/// fixture tests construct narrower configs.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates whose source must be bit-deterministic (D-rules apply).
    pub deterministic_crates: Vec<String>,
    /// Workspace-relative files allowed to read `PACT_*` env vars.
    pub env_registry_files: Vec<String>,
    /// Workspace-relative files allowed to own RNG primitives.
    pub rng_registry_files: Vec<String>,
    /// Crates allowed to use `println!`/`eprintln!`.
    pub print_crates: Vec<String>,
    /// Workspace-relative files under the `counter-truncation` rule
    /// (PMU/CHMU counter arithmetic).
    pub truncation_files: Vec<String>,
    /// Workspace-relative files allowed to read the host wall clock
    /// despite living in a deterministic crate. The host self-profiler
    /// (`pact-obs::hostprof`) is the only sanctioned entry: it times
    /// the simulator itself and never feeds sim-domain output.
    pub wall_clock_files: Vec<String>,
    /// Enabled rule ids; empty means every rule in the catalogue.
    pub enabled_rules: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect();
        Self {
            deterministic_crates: s(&[
                "tiersim",
                "core",
                "baselines",
                "workloads",
                "stats",
                "obs",
                "check",
            ]),
            env_registry_files: s(&["crates/bench/src/env.rs"]),
            rng_registry_files: s(&["crates/stats/src/rng.rs"]),
            print_crates: s(&["bench"]),
            truncation_files: s(&["crates/tiersim/src/pmu.rs", "crates/tiersim/src/chmu.rs"]),
            wall_clock_files: s(&["crates/obs/src/hostprof.rs"]),
            enabled_rules: Vec::new(),
        }
    }
}

impl LintConfig {
    /// Whether `id` passes the enabled-rule filter.
    pub fn rule_enabled(&self, id: &str) -> bool {
        self.enabled_rules.is_empty() || self.enabled_rules.iter().any(|r| r == id)
    }

    /// Derives the scoping decisions for a workspace-relative path
    /// (forward slashes, e.g. `crates/tiersim/src/machine.rs`).
    pub fn classify(&self, rel_path: &str) -> FileClass {
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next())
            .unwrap_or("pact-repro")
            .to_string();
        FileClass {
            deterministic: self.deterministic_crates.contains(&crate_name),
            env_registry: self.env_registry_files.iter().any(|f| f == rel_path),
            rng_registry: self.rng_registry_files.iter().any(|f| f == rel_path),
            print_allowed: self.print_crates.contains(&crate_name),
            truncation_scoped: self.truncation_files.iter().any(|f| f == rel_path),
            wall_clock_sanctioned: self.wall_clock_files.iter().any(|f| f == rel_path),
            crate_name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_classification() {
        let cfg = LintConfig::default();
        let c = cfg.classify("crates/tiersim/src/machine.rs");
        assert!(c.deterministic && !c.print_allowed && !c.env_registry);
        assert_eq!(c.crate_name, "tiersim");
        let b = cfg.classify("crates/bench/src/env.rs");
        assert!(!b.deterministic && b.print_allowed && b.env_registry);
        let r = cfg.classify("src/lib.rs");
        assert_eq!(r.crate_name, "pact-repro");
        assert!(!r.deterministic);
        let p = cfg.classify("crates/tiersim/src/pmu.rs");
        assert!(p.truncation_scoped);
        let g = cfg.classify("crates/stats/src/rng.rs");
        assert!(g.rng_registry && g.deterministic);
        let w = cfg.classify("crates/obs/src/hostprof.rs");
        assert!(w.wall_clock_sanctioned && w.deterministic);
        assert!(!c.wall_clock_sanctioned, "machine.rs must stay under D002");
    }

    #[test]
    fn rule_filter() {
        let mut cfg = LintConfig::default();
        assert!(cfg.rule_enabled("naked-unwrap"));
        cfg.enabled_rules = vec!["det-rng".into()];
        assert!(cfg.rule_enabled("det-rng"));
        assert!(!cfg.rule_enabled("naked-unwrap"));
    }
}
