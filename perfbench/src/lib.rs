//! Building blocks of the PACT simulator benchmark: the checks every
//! run must pass, the report digest, and the per-layer probes that time
//! the simulator's layers from outside ([`timed`], [`replay`]).

pub mod replay;
pub mod timed;

use pact_tiersim::RunReport;

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of everything a run reports: the FNV-1a hash of
/// [`RunReport::to_json`].
pub fn report_digest(report: &RunReport) -> u64 {
    fnv1a64(report.to_json().as_bytes())
}

/// The report must count exactly the accesses the workload emits.
pub fn check_accesses(report: &RunReport, drained: u64) -> Result<(), String> {
    if report.counters.accesses == drained {
        Ok(())
    } else {
        Err(format!(
            "report counts {} accesses, the workload emits {drained}",
            report.counters.accesses
        ))
    }
}

/// Tallies the runs of one invocation and checks each of them.
///
/// Runs are grouped into cells (one policy on one machine, or the
/// DRAM-only reference). Every run of a cell, traced or not, must have
/// the same [`report_digest`] as the cell's first run, and every run
/// must count the accesses its workload emits. Only the first digest is
/// kept, so memory does not grow with the number of runs.
#[derive(Debug)]
pub struct RunChecks {
    reference: Vec<Option<u64>>,
    /// Runs checked.
    pub attempted: u64,
    /// Runs that returned an error or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl RunChecks {
    /// Checks for `cells` cells.
    pub fn new(cells: usize) -> Self {
        Self {
            reference: vec![None; cells],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Checks one run of `cell`, returning its report if it passes.
    pub fn check(
        &mut self,
        cell: usize,
        label: &str,
        run: Result<RunReport, String>,
        drained: u64,
    ) -> Option<RunReport> {
        self.attempted += 1;
        let verdict = run.and_then(|report| {
            check_accesses(&report, drained)?;
            let digest = report_digest(&report);
            match self.reference[cell] {
                None => self.reference[cell] = Some(digest),
                Some(first) if first != digest => {
                    return Err(format!(
                        "report digest {digest:#018x} differs from the first run's {first:#018x}"
                    ))
                }
                Some(_) => {}
            }
            Ok(report)
        });
        match verdict {
            Ok(report) => Some(report),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{label}: {e}"));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use pact_tiersim::{Access, FirstTouch, Machine, MachineConfig, TraceWorkload};

    use super::*;

    fn report(n: u64) -> RunReport {
        let trace: Vec<Access> = (0..n).map(|i| Access::load(i * 4096 % 65_536)).collect();
        let wl = TraceWorkload::new("scan", 65_536, trace);
        Machine::new(MachineConfig::skylake_cxl(4))
            .expect("valid config")
            .try_run(&wl, &mut FirstTouch::new())
            .expect("run succeeds")
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn matching_runs_pass() {
        let mut checks = RunChecks::new(1);
        assert!(checks.check(0, "a", Ok(report(1000)), 1000).is_some());
        assert!(checks.check(0, "a", Ok(report(1000)), 1000).is_some());
        assert_eq!((checks.attempted, checks.failed), (2, 0));
    }

    #[test]
    fn mismatched_access_count_fails() {
        let mut checks = RunChecks::new(1);
        assert!(checks.check(0, "a", Ok(report(1000)), 999).is_none());
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        assert!(checks.errors[0].contains("999"), "{:?}", checks.errors);
    }

    #[test]
    fn mismatched_digest_fails() {
        let mut checks = RunChecks::new(2);
        assert!(checks.check(0, "a", Ok(report(1000)), 1000).is_some());
        let mut other = report(1000);
        other.total_cycles += 1;
        assert!(checks.check(0, "a", Ok(other), 1000).is_none());
        assert!(checks.errors[0].contains("digest"), "{:?}", checks.errors);
        // Cells are checked independently.
        assert!(checks.check(1, "b", Ok(report(2000)), 2000).is_some());
        assert_eq!((checks.attempted, checks.failed), (3, 1));
    }

    #[test]
    fn run_errors_count_as_failed() {
        let mut checks = RunChecks::new(1);
        assert!(checks.check(0, "a", Err("boom".into()), 0).is_none());
        assert_eq!(checks.errors, ["a: boom"]);
    }
}
