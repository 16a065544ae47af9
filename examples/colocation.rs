//! Colocation: two processes with opposite memory behaviour sharing one
//! fast tier (the paper's §5.9 study).
//!
//! ```text
//! cargo run --release --example colocation
//! ```
//!
//! A streaming Masim process and a pointer-chasing Masim process
//! compete for a fast tier that holds only half their combined
//! footprint. The criticality-first policy should give the fast tier to
//! the chaser — its accesses are the ones that stall a core — while the
//! streamer's high-MLP accesses tolerate the slow tier.

use pact_baselines::{Colloid, NoTier};
use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    Machine, MachineConfig, RunReport, RunSpec, TieringPolicy, Workload, PAGE_BYTES,
};
use pact_workloads::{Masim, MasimPattern};

fn cycles_of(report: &RunReport, name: &str) -> u64 {
    report
        .per_process
        .iter()
        .find(|p| p.name == name)
        .expect("process ran")
        .cycles
}

fn main() {
    let buf = 4 << 20; // 4 MiB per process
    let seq = Masim::single("streamer", MasimPattern::Sequential, buf, 6_000_000, 1);
    let rnd = Masim::single("chaser", MasimPattern::RandomChase, buf, 250_000, 2);
    let total_pages = (seq.footprint_bytes() + rnd.footprint_bytes()).div_ceil(PAGE_BYTES);

    let dram = Machine::new(MachineConfig::dram_only()).unwrap();
    let base = dram
        .run(RunSpec::new(&[&seq, &rnd], &mut NoTier::new()))
        .unwrap();

    let machine = Machine::new(MachineConfig::skylake_cxl(total_pages / 2)).unwrap();
    let mut policies: Vec<Box<dyn TieringPolicy>> = vec![
        Box::new(PactPolicy::new(PactConfig::default()).unwrap()),
        Box::new(Colloid::new()),
        Box::new(NoTier::new()),
    ];
    println!(
        "{:10} {:>14} {:>14} {:>10}",
        "policy", "streamer slow%", "chaser slow%", "promoted"
    );
    for policy in policies.iter_mut() {
        let r = machine
            .run(RunSpec::new(&[&seq, &rnd], policy.as_mut()))
            .unwrap();
        let s = |name| (cycles_of(&r, name) as f64 / cycles_of(&base, name) as f64 - 1.0) * 100.0;
        println!(
            "{:10} {:>13.1}% {:>13.1}% {:>10}",
            r.policy,
            s("streamer"),
            s("chaser"),
            r.promotions
        );
    }
    println!(
        "\nUniform stall attribution still finds the dominant criticality\n\
         source under colocation: the chaser's pages (paper Fig. 12)."
    );
}
