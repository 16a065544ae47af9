//! THP calibration probe: bc-kron at 1:1 and 1:4 under huge-page mode.

use pact_bench::{experiment_machine, Harness, OrExit, TierRatio};
use pact_workloads::suite::{build, Scale};

fn main() {
    let mut cfg = experiment_machine(0);
    cfg.thp = true;
    let h = Harness::new(build("bc-kron", Scale::Paper, 42))
        .with_machine(cfg)
        .or_exit();
    for ratio in [TierRatio::new(1, 1), TierRatio::new(1, 4)] {
        for p in ["pact", "memtis", "nbt", "colloid", "notier"] {
            let o = h.run_policy(p, ratio, None).or_exit();
            eprintln!(
                "{ratio} {p:8} {:6.1}%  promos {:>8}",
                o.slowdown * 100.0,
                o.promotions
            );
        }
    }
}
