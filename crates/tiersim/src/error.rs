//! Typed simulator errors.
//!
//! Invalid configurations, malformed fault specifications, and degenerate
//! workload sets surface as [`SimError`] values from
//! [`Machine::run`](crate::Machine::run) and
//! [`Machine::try_run`](crate::Machine::try_run) instead of process
//! aborts; no run entry point panics.

use crate::config::ConfigError;
use crate::invariant::InvariantViolation;

/// Everything that can go wrong while configuring or running a
/// simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The machine configuration failed validation.
    Config(ConfigError),
    /// A `PACT_FAULTS`-style fault specification could not be parsed or
    /// failed validation.
    FaultSpec {
        /// The offending specification fragment.
        spec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A run was requested with no workloads at all.
    NoWorkloads,
    /// The workloads produced no access streams.
    NoStreams,
    /// Every workload is a background co-runner; at least one foreground
    /// workload must bound the run.
    NoForeground,
    /// A runtime invariant armed via
    /// [`MachineConfig::invariants`](crate::MachineConfig::invariants)
    /// failed at a window boundary.
    Invariant(InvariantViolation),
    /// A crash-recovery snapshot could not be captured or restored
    /// (corrupt frame, version/configuration mismatch, or a policy
    /// without snapshot support).
    Snapshot(String),
    /// An [`Admission`](crate::Admission) policy carries a different
    /// number of QoS weights than the run has colocated workloads.
    WeightMismatch {
        /// QoS weights the policy was built with.
        weights: usize,
        /// Colocated workloads passed to the run.
        workloads: usize,
    },
    /// A workload stream emitted an address beyond its declared
    /// footprint.
    AddressOutOfRange {
        /// Name of the offending workload.
        workload: String,
        /// The emitted virtual address.
        vaddr: u64,
        /// The workload's declared footprint in bytes.
        footprint: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::FaultSpec { spec, reason } => {
                write!(f, "invalid fault spec '{spec}': {reason}")
            }
            SimError::NoWorkloads => write!(f, "need at least one workload"),
            SimError::NoStreams => write!(f, "workloads produced no streams"),
            SimError::NoForeground => {
                write!(f, "at least one foreground workload is required")
            }
            SimError::Invariant(v) => write!(f, "{v}"),
            SimError::Snapshot(reason) => write!(f, "snapshot error: {reason}"),
            SimError::WeightMismatch { weights, workloads } => write!(
                f,
                "admission control has {weights} qos weights but {workloads} workloads are colocated"
            ),
            SimError::AddressOutOfRange {
                workload,
                vaddr,
                footprint,
            } => write!(
                f,
                "workload {workload} emitted vaddr {vaddr:#x} beyond footprint {footprint:#x}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> Self {
        SimError::Invariant(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_stable() {
        let e = SimError::AddressOutOfRange {
            workload: "bad".into(),
            vaddr: 0x2000,
            footprint: 0x1000,
        };
        // The "beyond footprint" phrasing is pinned by the machine's
        // out-of-range panic test; keep it stable.
        assert!(e.to_string().contains("beyond footprint"));
        assert!(SimError::NoWorkloads.to_string().contains("workload"));
        let f = SimError::FaultSpec {
            spec: "drop=x".into(),
            reason: "bad probability".into(),
        };
        assert!(f.to_string().contains("drop=x"));
    }

    #[test]
    fn config_error_converts() {
        let cfg_err = {
            let mut cfg = crate::MachineConfig::default();
            cfg.mshrs = 0;
            cfg.validate().unwrap_err()
        };
        let e: SimError = cfg_err.into();
        assert!(matches!(e, SimError::Config(_)));
        assert!(e.to_string().contains("invalid machine configuration"));
    }
}
