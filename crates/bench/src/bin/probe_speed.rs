//! Engine throughput probe: times one bc-kron paper-scale run under
//! NoTier and PACT and prints accesses/second, to size experiments.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;

use pact_bench::{Harness, OrExit, TierRatio};
use pact_workloads::suite::{build, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--smoke") {
        Scale::Smoke
    } else {
        Scale::Paper
    };
    let t0 = Instant::now();
    let wl = build("bc-kron", scale, 42);
    eprintln!(
        "build: {:?} footprint {} MiB",
        t0.elapsed(),
        wl.footprint_bytes() >> 20
    );
    let h = Harness::new(wl);
    // DRAM-only reference with full counters.
    {
        let out = h
            .run_custom(&mut pact_baselines::NoTier::new(), u64::MAX / 4096, None)
            .or_exit();
        let c = &out.report.counters;
        let cyc = out.report.total_cycles;
        eprintln!(
            "dram-only cycles {} misses F/S {}/{} lat F {:.0} mlp F {:.1} util F {:.2}",
            cyc,
            c.llc_misses[0],
            c.llc_misses[1],
            c.avg_demand_latency(pact_tiersim::Tier::Fast),
            c.tor_mlp(pact_tiersim::Tier::Fast),
            (c.bytes[0] / 64) as f64 * 2.7 / cyc as f64,
        );
    }
    for policy in [
        "notier", "pact", "colloid", "nbt", "tpp", "memtis", "alto", "nomad", "soar",
    ] {
        let t = Instant::now();
        let out = h.run_policy(policy, TierRatio::new(1, 1), None).or_exit();
        let c = &out.report.counters;
        let cyc = out.report.total_cycles as f64;
        let gbps = |b: u64| b as f64 / (cyc / 2.2e9) / 1e9;
        eprintln!(
            "{policy:8} slowdown {:6.1}% promos {:9} (failed {}, faults {}) in {:?} ({:.1} M acc/s)",
            out.slowdown * 100.0,
            out.promotions,
            out.report.failed_promotions,
            out.report.counters.hint_faults,
            t.elapsed(),
            c.accesses as f64 / t.elapsed().as_secs_f64() / 1e6
        );
        eprintln!(
            "         misses F/S {:>9}/{:<9} stalls F/S {:>11}/{:<11} hits {}",
            c.llc_misses[0], c.llc_misses[1], c.llc_stalls[0], c.llc_stalls[1], c.llc_hits
        );
        eprintln!(
            "         BW F/S {:5.1}/{:5.1} GB/s  prefetch F/S {}/{}  mlp F/S {:.1}/{:.1}  lat F/S {:.0}/{:.0}",
            gbps(c.bytes[0]), gbps(c.bytes[1]),
            c.prefetches[0], c.prefetches[1],
            c.tor_mlp(pact_tiersim::Tier::Fast), c.tor_mlp(pact_tiersim::Tier::Slow),
            c.avg_demand_latency(pact_tiersim::Tier::Fast), c.avg_demand_latency(pact_tiersim::Tier::Slow),
        );
    }
    let cxl = h.cxl_slowdown().or_exit();
    eprintln!("cxl-only slowdown: {:.1}%", cxl * 100.0);
    eprintln!("total: {:?}", t0.elapsed());
}
