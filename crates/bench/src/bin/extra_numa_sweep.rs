//! Extra experiment — **slow-tier latency robustness.**
//!
//! The paper evaluates on emulated CXL (190 ns); its model study
//! (Figure 2) also covers cross-socket NUMA (140 ns). This harness
//! re-runs the bc-kron comparison with the slow tier at NUMA latency to
//! check that PACT's advantage is not an artifact of one latency point:
//! the gap to hotness systems should shrink with the latency gap but
//! the ordering should hold.

use std::sync::Arc;

use pact_bench::{
    banner, count, parse_options, pct, save_results, Harness, OrExit, Table, TierRatio,
};
use pact_tiersim::{MachineConfig, Workload};
use pact_workloads::suite::build;

fn main() {
    let opts = parse_options();
    let ratio = TierRatio::new(1, 1);
    // One graph shared across both latency configurations.
    let bc: Arc<dyn Workload> = Arc::from(build("bc-kron", opts.scale, opts.seed));
    let mut out = String::new();
    let mut t = Table::new(vec![
        "slow tier",
        "policy",
        "slowdown",
        "promotions",
        "(cxl-only)",
    ]);
    for (label, cfg) in [
        ("CXL 190ns", MachineConfig::skylake_cxl(0)),
        ("NUMA 140ns", MachineConfig::skylake_numa(0)),
    ] {
        let h = Harness::from_arc(bc.clone()).with_machine(cfg).or_exit();
        let all_slow = h.cxl_slowdown().or_exit();
        for policy in ["pact", "memtis", "nbt", "colloid", "notier"] {
            let o = h.run_policy(policy, ratio, None).or_exit();
            t.row(vec![
                label.to_string(),
                policy.to_string(),
                pct(o.slowdown),
                count(o.promotions),
                pct(all_slow),
            ]);
        }
    }
    out.push_str(&banner(
        "Extra: bc-kron @ 1:1 with the slow tier at NUMA vs CXL latency",
    ));
    out.push_str(&t.render());
    out.push_str(
        "\nexpected: every slowdown shrinks with the 140ns tier; the policy\n\
         ordering (PACT lowest) is preserved at both latencies.\n",
    );
    print!("{out}");
    save_results(opts.scale, "extra_numa_sweep.txt", &out);
}
