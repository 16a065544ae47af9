//! Unit-test scaffolding shared by the policy modules.
#![cfg(test)]

use pact_tiersim::{Machine, MachineConfig, RunReport, TieringPolicy, Workload};

/// A small machine (16 KiB LLC so working sets miss, 100k-cycle
/// windows) whose fast tier holds `fast` pages.
pub fn cfg(fast: u64) -> MachineConfig {
    let mut c = MachineConfig::skylake_cxl(fast);
    c.llc.size_bytes = 16 * 1024;
    c.window_cycles = 100_000;
    c
}

/// Runs `wl` under `policy` on a machine built from `cfg`.
pub fn run(cfg: &MachineConfig, wl: &dyn Workload, policy: &mut dyn TieringPolicy) -> RunReport {
    let machine = Machine::new(cfg.clone()).expect("test config is valid");
    machine.try_run(wl, policy).expect("run succeeds")
}
