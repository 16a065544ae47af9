//! Ratio-sweep probe for calibration: key policies across tier ratios.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use pact_bench::{Harness, OrExit, TierRatio};
use pact_workloads::suite::{build, Scale};

fn main() {
    let wl_name = std::env::args().nth(1).unwrap_or_else(|| "bc-kron".into());
    let h = Harness::new(build(&wl_name, Scale::Paper, 42));
    eprintln!(
        "{wl_name}: cxl-only {:.1}%",
        h.cxl_slowdown().or_exit() * 100.0
    );
    let policies = ["notier", "pact", "memtis", "colloid", "nbt", "soar"];
    eprint!("{:8}", "ratio");
    for p in policies {
        eprint!("  {p:>12}");
    }
    eprintln!();
    for ratio in [
        TierRatio::new(4, 1),
        TierRatio::new(1, 1),
        TierRatio::new(1, 4),
    ] {
        eprint!("{:8}", format!("{ratio}"));
        for p in policies {
            let out = h.run_policy(p, ratio, None).or_exit();
            let c = &out.report.counters;
            eprint!(
                "  {:>5.1}% p{:>5} d{:>5} f{:>5} m{:>4}+{:<4}",
                out.slowdown * 100.0,
                pact_bench::count(out.promotions),
                pact_bench::count(out.demotions),
                pact_bench::count(out.report.failed_promotions),
                pact_bench::count(c.llc_misses[0]),
                pact_bench::count(c.llc_misses[1]),
            );
        }
        eprintln!();
    }
}
