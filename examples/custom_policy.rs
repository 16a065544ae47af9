//! Writing your own tiering policy against the simulator's policy API.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```
//!
//! Implements a miniature "sampled-hotness" policy from scratch — a few
//! dozen lines — and benches it against PACT and first-touch on a
//! Zipf-skewed key-value workload. The same `TieringPolicy` trait is
//! what PACT and all seven paper baselines are built on.

use std::collections::BTreeMap;

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    FirstTouch, Machine, MachineConfig, PageId, PolicyCtx, SampleEvent, Tier, TieringPolicy,
    WindowStats, Workload, PAGE_BYTES,
};
use pact_workloads::KvStore;

/// Promote any slow-tier page seen in `threshold` PEBS samples; demote
/// kernel-LRU-cold pages to make room. That's the whole policy.
struct SampledHotness {
    counts: BTreeMap<PageId, u32>,
    threshold: u32,
}

impl TieringPolicy for SampledHotness {
    fn name(&self) -> &str {
        "sampled-hotness"
    }

    fn on_sample(&mut self, ev: &SampleEvent, _ctx: &mut PolicyCtx) {
        if let SampleEvent::Pebs { page, .. } = *ev {
            *self.counts.entry(page).or_insert(0) += 1;
        }
    }

    fn on_window(&mut self, _win: &WindowStats, ctx: &mut PolicyCtx) {
        let hot: Vec<PageId> = self
            .counts
            .iter()
            .filter(|&(p, &c)| c >= self.threshold && ctx.tier_of(*p) == Some(Tier::Slow))
            .map(|(p, _)| *p)
            .take(64)
            .collect();
        if ctx.fast_free() < hot.len() as u64 {
            let deficit = hot.len() - ctx.fast_free() as usize;
            for cold in ctx.cold_fast_units(deficit) {
                ctx.demote(cold);
            }
        }
        for page in hot {
            ctx.promote(page);
            self.counts.remove(&page); // re-earn hotness after promotion
        }
    }
}

fn main() {
    let workload = KvStore::redis_ycsb_c(20_000, 300_000, 7);
    let pages = workload.footprint_bytes().div_ceil(PAGE_BYTES);

    let dram = Machine::new(MachineConfig::dram_only()).unwrap();
    let base = dram
        .try_run(&workload, &mut FirstTouch::new())
        .unwrap()
        .total_cycles;
    let machine = Machine::new(MachineConfig::skylake_cxl(pages / 2)).unwrap();

    let mut mine = SampledHotness {
        counts: BTreeMap::new(),
        threshold: 3,
    };
    let mut pact = PactPolicy::new(PactConfig::default()).unwrap();

    println!("{:16} {:>10} {:>10}", "policy", "slowdown", "promoted");
    for (r, name) in [
        (
            machine.try_run(&workload, &mut FirstTouch::new()).unwrap(),
            "notier",
        ),
        (
            machine.try_run(&workload, &mut mine).unwrap(),
            "sampled-hotness",
        ),
        (machine.try_run(&workload, &mut pact).unwrap(), "pact"),
    ] {
        println!(
            "{:16} {:>9.1}% {:>10}",
            name,
            (r.total_cycles as f64 / base as f64 - 1.0) * 100.0,
            r.promotions
        );
    }
    println!(
        "\nOn a Zipf key-value workload hotness and criticality mostly agree,\n\
         so even this 40-line policy is competitive; the gap opens on\n\
         workloads whose hot pages are latency-tolerant (see the\n\
         graph_tiering and quickstart examples)."
    );
}
