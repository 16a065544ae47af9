//! Performance-monitoring model: aggregate counters, CHA/TOR occupancy,
//! and PEBS-style event sampling.
//!
//! The counters mirror what the paper reads on real hardware (Table 1):
//! per-tier LLC misses, `TOR_OCCUPANCY` (`T1`, the cycle-integral of
//! outstanding requests in the CHA's Table-Of-Requests) and
//! `TOR_OCCUPANCY_COUNTER0` (`T2`, cycles with at least one outstanding
//! entry), from which per-tier MLP is `ΔT1 / ΔT2`. The simulator also
//! exposes ground-truth per-tier stall cycles — something real hardware
//! does *not* provide — so the harness can validate PACT's stall model
//! (Figure 2) against truth. Policies should not consult
//! [`PmuCounters::llc_stalls`]; PACT itself never does.

#![warn(clippy::cast_possible_truncation)]

use crate::config::{PebsConfig, PebsScope};
use crate::types::Tier;

/// Aggregate hardware counters, cumulative since the start of a run.
///
/// Obtain deltas by subtracting snapshots ([`PmuCounters::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmuCounters {
    /// Retired accesses (loads + stores).
    pub accesses: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Demand LLC hits.
    pub llc_hits: u64,
    /// Demand load LLC misses per tier.
    pub llc_misses: [u64; 2],
    /// Ground-truth CPU stall cycles attributable to each tier's misses.
    /// Not observable on real hardware at this granularity; used only for
    /// model validation and reporting.
    pub llc_stalls: [u64; 2],
    /// `T1`: cycle-integral of in-flight demand requests per tier.
    pub tor_occupancy: [u64; 2],
    /// `T2`: cycles with at least one outstanding request per tier.
    pub tor_busy: [u64; 2],
    /// Sum of loaded (queuing-inclusive) latencies of demand misses.
    pub demand_latency_sum: [u64; 2],
    /// Bytes moved per tier, including prefetch and migration traffic.
    pub bytes: [u64; 2],
    /// Prefetch fills issued per tier.
    pub prefetches: [u64; 2],
    /// NUMA hint faults taken.
    pub hint_faults: u64,
    /// PEBS samples delivered.
    pub pebs_samples: u64,
}

impl PmuCounters {
    /// Component-wise difference `self - earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter went backwards.
    pub fn delta_since(&self, earlier: &PmuCounters) -> PmuCounters {
        fn d(a: u64, b: u64) -> u64 {
            debug_assert!(a >= b, "counter went backwards");
            a - b
        }
        fn d2(a: [u64; 2], b: [u64; 2]) -> [u64; 2] {
            [d(a[0], b[0]), d(a[1], b[1])]
        }
        PmuCounters {
            accesses: d(self.accesses, earlier.accesses),
            loads: d(self.loads, earlier.loads),
            stores: d(self.stores, earlier.stores),
            llc_hits: d(self.llc_hits, earlier.llc_hits),
            llc_misses: d2(self.llc_misses, earlier.llc_misses),
            llc_stalls: d2(self.llc_stalls, earlier.llc_stalls),
            tor_occupancy: d2(self.tor_occupancy, earlier.tor_occupancy),
            tor_busy: d2(self.tor_busy, earlier.tor_busy),
            demand_latency_sum: d2(self.demand_latency_sum, earlier.demand_latency_sum),
            bytes: d2(self.bytes, earlier.bytes),
            prefetches: d2(self.prefetches, earlier.prefetches),
            hint_faults: d(self.hint_faults, earlier.hint_faults),
            pebs_samples: d(self.pebs_samples, earlier.pebs_samples),
        }
    }

    /// Adds every counter of `other` into `self`: run totals are sums of
    /// per-process counter lanes.
    pub(crate) fn add(&mut self, other: &PmuCounters) {
        fn a2(a: &mut [u64; 2], b: [u64; 2]) {
            a[0] += b[0];
            a[1] += b[1];
        }
        let PmuCounters {
            accesses,
            loads,
            stores,
            llc_hits,
            llc_misses,
            llc_stalls,
            tor_occupancy,
            tor_busy,
            demand_latency_sum,
            bytes,
            prefetches,
            hint_faults,
            pebs_samples,
        } = *other;
        self.accesses += accesses;
        self.loads += loads;
        self.stores += stores;
        self.llc_hits += llc_hits;
        a2(&mut self.llc_misses, llc_misses);
        a2(&mut self.llc_stalls, llc_stalls);
        a2(&mut self.tor_occupancy, tor_occupancy);
        a2(&mut self.tor_busy, tor_busy);
        a2(&mut self.demand_latency_sum, demand_latency_sum);
        a2(&mut self.bytes, bytes);
        a2(&mut self.prefetches, prefetches);
        self.hint_faults += hint_faults;
        self.pebs_samples += pebs_samples;
    }

    /// Per-tier memory-level parallelism measured the paper's way:
    /// `MLP = T1 / T2` (average in-flight requests per busy cycle).
    ///
    /// Returns 1.0 when the tier saw no traffic, the natural floor for a
    /// divisor in Equation 1.
    pub fn tor_mlp(&self, tier: Tier) -> f64 {
        let i = tier.index();
        if self.tor_busy[i] == 0 {
            1.0
        } else {
            (self.tor_occupancy[i] as f64 / self.tor_busy[i] as f64).max(1.0)
        }
    }

    /// Average loaded latency of demand misses to `tier`, in cycles.
    pub fn avg_demand_latency(&self, tier: Tier) -> f64 {
        let i = tier.index();
        if self.llc_misses[i] == 0 {
            0.0
        } else {
            self.demand_latency_sum[i] as f64 / self.llc_misses[i] as f64
        }
    }

    /// Little's-law MLP estimate from bandwidth and latency counters
    /// (the AMD-portability path of §4.2 and the gray line of Figure 3):
    /// `MLP ≈ (bytes/64 / cycles) × avg_latency`. Overestimates demand MLP
    /// because `bytes` includes prefetch traffic.
    pub fn littles_law_mlp(&self, tier: Tier, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let i = tier.index();
        let requests_per_cycle = self.bytes[i] as f64 / 64.0 / cycles as f64;
        requests_per_cycle * self.avg_demand_latency(tier)
    }

    /// Total demand LLC misses across tiers.
    pub fn total_misses(&self) -> u64 {
        self.llc_misses[0] + self.llc_misses[1]
    }

    /// Total ground-truth LLC stall cycles across tiers.
    pub fn total_stalls(&self) -> u64 {
        self.llc_stalls[0] + self.llc_stalls[1]
    }
}

/// A sampled memory event delivered to the active tiering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleEvent {
    /// A PEBS sample of a demand load LLC miss.
    Pebs {
        /// Process-local virtual address of the sampled load.
        vaddr: u64,
        /// Global page the address maps to.
        page: crate::types::PageId,
        /// Tier that serviced the miss.
        tier: Tier,
        /// Loaded (queuing-inclusive) latency of the sampled miss in
        /// cycles — the per-load latency modern PEBS reports (§4.3.7).
        latency: u32,
    },
    /// A NUMA hint fault taken by the application on a scan-poisoned page.
    HintFault {
        /// Global page that faulted.
        page: crate::types::PageId,
        /// Tier the page resides on.
        tier: Tier,
    },
}

impl SampleEvent {
    /// The page this event refers to.
    pub fn page(&self) -> crate::types::PageId {
        match *self {
            SampleEvent::Pebs { page, .. } => page,
            SampleEvent::HintFault { page, .. } => page,
        }
    }

    /// The tier the event was observed on.
    pub fn tier(&self) -> Tier {
        match *self {
            SampleEvent::Pebs { tier, .. } => tier,
            SampleEvent::HintFault { tier, .. } => tier,
        }
    }
}

/// Deterministic 1-in-N event sampler modelling PEBS.
#[derive(Debug, Clone)]
pub struct PebsSampler {
    cfg: PebsConfig,
    countdown: u64,
}

impl PebsSampler {
    /// Creates a sampler with the given configuration.
    pub fn new(cfg: PebsConfig) -> Self {
        Self {
            countdown: cfg.rate,
            cfg,
        }
    }

    /// Observes one qualifying-candidate miss; returns `true` if this miss
    /// is sampled. Misses outside the configured scope never sample.
    #[inline]
    pub fn observe(&mut self, tier: Tier) -> bool {
        if self.cfg.scope == PebsScope::SlowOnly && tier == Tier::Fast {
            return false;
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.cfg.rate;
            true
        } else {
            false
        }
    }

    /// Per-sample overhead charged to the sampled thread.
    pub fn overhead_cycles(&self) -> u32 {
        self.cfg.sample_overhead_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_componentwise() {
        let mut a = PmuCounters::default();
        a.accesses = 10;
        a.llc_misses = [3, 4];
        let mut b = a;
        b.accesses = 25;
        b.llc_misses = [5, 9];
        let d = b.delta_since(&a);
        assert_eq!(d.accesses, 15);
        assert_eq!(d.llc_misses, [2, 5]);
    }

    #[test]
    fn tor_mlp_ratio() {
        let mut c = PmuCounters::default();
        c.tor_occupancy = [80, 30];
        c.tor_busy = [10, 30];
        assert_eq!(c.tor_mlp(Tier::Fast), 8.0);
        assert_eq!(c.tor_mlp(Tier::Slow), 1.0);
    }

    #[test]
    fn tor_mlp_defaults_to_one_without_traffic() {
        let c = PmuCounters::default();
        assert_eq!(c.tor_mlp(Tier::Fast), 1.0);
    }

    #[test]
    fn tor_mlp_floors_at_one() {
        let mut c = PmuCounters::default();
        c.tor_occupancy = [5, 0];
        c.tor_busy = [10, 0];
        assert_eq!(c.tor_mlp(Tier::Fast), 1.0);
    }

    #[test]
    fn pebs_samples_every_nth_in_scope() {
        let mut s = PebsSampler::new(PebsConfig {
            rate: 3,
            scope: PebsScope::SlowOnly,
            sample_overhead_cycles: 0,
        });
        // Fast-tier misses never sampled and don't advance the counter.
        assert!(!s.observe(Tier::Fast));
        assert!(!s.observe(Tier::Slow));
        assert!(!s.observe(Tier::Slow));
        assert!(s.observe(Tier::Slow));
        assert!(!s.observe(Tier::Slow));
        assert!(!s.observe(Tier::Slow));
        assert!(s.observe(Tier::Slow));
    }

    #[test]
    fn pebs_both_tiers_scope() {
        let mut s = PebsSampler::new(PebsConfig {
            rate: 2,
            scope: PebsScope::BothTiers,
            sample_overhead_cycles: 0,
        });
        assert!(!s.observe(Tier::Fast));
        assert!(s.observe(Tier::Slow));
    }

    #[test]
    fn avg_latency_and_littles_law() {
        let mut c = PmuCounters::default();
        c.llc_misses = [0, 100];
        c.demand_latency_sum = [0, 41_800];
        c.bytes = [0, 100 * 64];
        assert_eq!(c.avg_demand_latency(Tier::Slow), 418.0);
        // 100 requests over 41_800 cycles at 418 cycles each ~ MLP 1.
        let mlp = c.littles_law_mlp(Tier::Slow, 41_800);
        assert!((mlp - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_event_accessors() {
        use crate::types::PageId;
        let e = SampleEvent::Pebs {
            vaddr: 4096,
            page: PageId(77),
            tier: Tier::Slow,
            latency: 418,
        };
        assert_eq!(e.page(), PageId(77));
        assert_eq!(e.tier(), Tier::Slow);
        let f = SampleEvent::HintFault {
            page: PageId(3),
            tier: Tier::Fast,
        };
        assert_eq!(f.page(), PageId(3));
        assert_eq!(f.tier(), Tier::Fast);
    }
}
