//! CHMU sampling: running PACT from CXL 3.2 device-side hotness
//! counters instead of PEBS (the paper's §4.3.5 future-work path).
//!
//! ```text
//! cargo run --release --example chmu_sampling
//! ```
//!
//! The CXL Hotness Monitoring Unit counts slow-tier accesses on the
//! *device controller* — exact per-page counts, zero application
//! overhead — where PEBS delivers a 1-in-N sample with a per-sample
//! CPU cost. This example runs the same workload both ways.

use pact_core::{PactConfig, PactPolicy, SamplingSource};
use pact_tiersim::{FirstTouch, Machine, MachineConfig, Workload, PAGE_BYTES};
use pact_workloads::graph::{kronecker, Csr, GraphWorkload, Kernel};

fn main() {
    let workload = GraphWorkload::new(
        "bc-kron",
        Csr::from_edges(kronecker(14, 8, 42), true),
        Kernel::Bc {
            sources: 2,
            threads: 4,
        },
        42,
    );
    let pages = workload.footprint_bytes().div_ceil(PAGE_BYTES);

    let dram = Machine::new(MachineConfig::dram_only()).unwrap();
    let base = dram
        .try_run(&workload, &mut FirstTouch::new())
        .unwrap()
        .total_cycles;

    println!(
        "{:12} {:>10} {:>10} {:>14} {:>12}",
        "source", "slowdown", "promoted", "observations", "pebs cost"
    );
    for (label, sampling, chmu_counters) in [
        ("pebs", SamplingSource::Pebs, 0usize),
        ("chmu", SamplingSource::Chmu, 2_048),
    ] {
        let mut cfg = MachineConfig::skylake_cxl(pages / 2);
        cfg.chmu_counters = chmu_counters;
        let machine = Machine::new(cfg).unwrap();
        let mut pact = PactPolicy::new(PactConfig {
            sampling,
            ..PactConfig::default()
        })
        .unwrap();
        let r = machine.try_run(&workload, &mut pact).unwrap();
        println!(
            "{:12} {:>9.1}% {:>10} {:>14} {:>11}cy",
            label,
            (r.total_cycles as f64 / base as f64 - 1.0) * 100.0,
            r.promotions,
            pact.store().global_samples(),
            r.counters.pebs_samples * 30, // per-sample overhead charged
        );
    }
    println!(
        "\nThe CHMU path sees every slow-tier miss (orders of magnitude more\n\
         observations) without charging the application a cycle — the\n\
         hardware direction the paper points to for future PAC sampling."
    );
}
