//! Memtis (SOSP '23): PEBS-driven hotness classification.
//!
//! Memtis samples LLC misses on *both* tiers with PEBS, maintains
//! per-page access counts in log-scale histogram bins, and picks the
//! hot threshold so the estimated hot set just fits the fast tier.
//! Counts are periodically halved (cooling). Promotions are
//! conservative — pages crossing the threshold — which is why the paper
//! measures Memtis at thousands (not millions) of migrations, decent
//! with THP where its huge-page awareness pays off.

use std::collections::BTreeMap;

use pact_tiersim::{
    MachineInfo, PageId, PebsScope, PolicyCtx, SampleEvent, Tier, TieringPolicy, WindowStats,
};

/// Tuning knobs for [`Memtis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemtisConfig {
    /// Windows between count-halving cooling passes.
    pub cooling_period: u64,
    /// Promotion rate limit per window, in units.
    pub promo_limit: usize,
    /// Internal PEBS throttling: Memtis keeps sampling overhead under a
    /// strict budget, so it processes only one in `subsample` delivered
    /// samples (PACT's §4.6 kernel optimizations are what let it afford
    /// denser sampling).
    pub subsample: u32,
}

impl Default for MemtisConfig {
    fn default() -> Self {
        Self {
            cooling_period: 40,
            promo_limit: 8,
            subsample: 8,
        }
    }
}

/// Number of log2 histogram bins for access counts.
const HIST_BINS: usize = 16;

/// The Memtis policy.
#[derive(Debug, Clone)]
pub struct Memtis {
    cfg: MemtisConfig,
    // BTreeMap, not HashMap: on_window iterates these counts, and the
    // iteration order must be a function of the keys alone for the
    // bit-determinism contract (D001 in the root clippy.toml).
    counts: BTreeMap<PageId, u32>,
    fast_units: u64,
    span: u64,
    sample_tick: u32,
}

impl Memtis {
    /// Creates Memtis with default tuning.
    pub fn new() -> Self {
        Self::with_config(MemtisConfig::default())
    }

    /// Creates Memtis with explicit tuning.
    pub fn with_config(cfg: MemtisConfig) -> Self {
        Self {
            cfg,
            counts: BTreeMap::new(),
            fast_units: 0,
            span: 1,
            sample_tick: 0,
        }
    }

    /// Log2 bin of an access count.
    fn bin(count: u32) -> usize {
        (32 - count.leading_zeros()) as usize % HIST_BINS
    }

    /// Picks the smallest count bin such that pages in that bin and
    /// above fit the fast tier; returns the threshold count.
    fn hot_threshold(&self) -> u32 {
        let mut hist = [0u64; HIST_BINS];
        for &c in self.counts.values() {
            hist[Self::bin(c)] += 1;
        }
        let mut cum = 0u64;
        for b in (0..HIST_BINS).rev() {
            cum += hist[b];
            if cum > self.fast_units {
                // Bin b overflows capacity: threshold above it.
                return 1u32 << b.min(30);
            }
        }
        1
    }
}

impl Default for Memtis {
    fn default() -> Self {
        Self::new()
    }
}

impl TieringPolicy for Memtis {
    fn name(&self) -> &str {
        "memtis"
    }

    fn pebs_scope(&self) -> Option<PebsScope> {
        Some(PebsScope::BothTiers)
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.counts.clear();
        self.span = info.unit_span;
        self.fast_units = info.fast_tier_pages / self.span;
        self.sample_tick = 0;
    }

    fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        if let SampleEvent::Pebs { page, .. } = *ev {
            self.sample_tick += 1;
            if !self.sample_tick.is_multiple_of(self.cfg.subsample.max(1)) {
                return; // PEBS-overhead throttling
            }
            let unit = ctx.unit_head(page);
            *self.counts.entry(unit).or_insert(0) += 1;
        }
    }

    fn on_window(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        let threshold = self.hot_threshold();
        // Promote hot slow-tier units, demote-first to make room.
        let mut hot_slow: Vec<(PageId, u32)> = self
            .counts
            .iter()
            .filter(|&(p, &c)| c >= threshold && ctx.tier_of(*p) == Some(Tier::Slow))
            .map(|(p, &c)| (*p, c))
            .collect();
        // Deterministic order: count-descending, page id tie-break
        // (map iteration order must not leak into decisions).
        hot_slow.sort_by_key(|&(p, c)| (std::cmp::Reverse(c), p.0));
        hot_slow.truncate(self.cfg.promo_limit);
        let needed = hot_slow.len() as u64 * self.span;
        if ctx.fast_free() < needed {
            let deficit_units = (needed - ctx.fast_free()).div_ceil(self.span) as usize;
            for cold in ctx.cold_fast_units(deficit_units) {
                ctx.demote(cold);
            }
        }
        for (p, _) in hot_slow {
            ctx.promote(p);
        }
        // Periodic cooling: halve all counts.
        if win.index > 0 && win.index.is_multiple_of(self.cfg.cooling_period) {
            self.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
        ctx.telemetry("memtis_threshold", threshold as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run;
    use pact_tiersim::{Access, MachineConfig, TraceWorkload, PAGE_BYTES};

    fn skewed_trace(pages: u64, n: u64) -> TraceWorkload {
        // 10% of pages get 90% of accesses.
        let mut trace = Vec::new();
        let mut x = 3u64;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            let hot = (x >> 60) < 14; // ~87.5%
            let p = if hot {
                x % (pages / 10).max(1)
            } else {
                x % pages
            };
            trace.push(Access::dependent_load(
                p * PAGE_BYTES + ((x >> 30) % 64) * 64,
            ));
        }
        TraceWorkload::new("skewed", pages * PAGE_BYTES, trace)
    }

    fn cfg(fast: u64) -> MachineConfig {
        let mut c = crate::testing::cfg(fast);
        c.pebs.rate = 20;
        c
    }

    #[test]
    fn bin_is_log2() {
        assert_eq!(Memtis::bin(1), 1);
        assert_eq!(Memtis::bin(2), 2);
        assert_eq!(Memtis::bin(3), 2);
        assert_eq!(Memtis::bin(1024), 11);
    }

    #[test]
    fn memtis_promotes_hot_pages_conservatively() {
        let r = run(&cfg(128), &skewed_trace(1024, 150_000), &mut Memtis::new());
        assert!(r.promotions > 0, "never promoted");
        // Conservative: far fewer promotions than accesses/100.
        assert!(
            r.promotions < 5_000,
            "memtis should migrate little, got {}",
            r.promotions
        );
    }

    #[test]
    fn memtis_beats_first_touch_on_skew() {
        let r_m = run(&cfg(150), &skewed_trace(1024, 200_000), &mut Memtis::new());
        let r_ft = run(
            &cfg(150),
            &skewed_trace(1024, 200_000),
            &mut pact_tiersim::FirstTouch::new(),
        );
        assert!(
            r_m.total_cycles < r_ft.total_cycles,
            "memtis {} vs notier {}",
            r_m.total_cycles,
            r_ft.total_cycles
        );
    }

    #[test]
    fn cooling_halves_counts() {
        let mut m = Memtis::with_config(MemtisConfig {
            cooling_period: 1,
            promo_limit: 8,
            subsample: 1,
        });
        m.fast_units = 4;
        m.counts.insert(PageId(1), 9);
        // Simulate a cooling pass via the public path: threshold calc
        // still works and counts halve on window boundaries (exercised
        // in the machine-driven tests above); here check retain math.
        m.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        assert_eq!(m.counts[&PageId(1)], 4);
    }

    #[test]
    fn threshold_and_hot_set_ignore_insertion_order() {
        // The bit-determinism contract: policy decisions must be a
        // function of the count *values*, never of the order counts
        // were recorded in. Feed the same multiset of page counts in
        // three different insertion orders and pin identical output.
        let pages: Vec<(u64, u32)> = (0..64).map(|i| (i, 1 + (i as u32 * 7) % 40)).collect();
        let mut orders = vec![pages.clone(), pages.iter().rev().cloned().collect()];
        let mut shuffled = pages.clone();
        // Deterministic permutation: swap by a fixed stride walk.
        for i in 0..shuffled.len() {
            let j = (i * 29 + 13) % shuffled.len();
            shuffled.swap(i, j);
        }
        orders.push(shuffled);

        let snapshots: Vec<(u32, Vec<(PageId, u32)>)> = orders
            .into_iter()
            .map(|order| {
                let mut m = Memtis::new();
                m.fast_units = 16;
                for (p, c) in order {
                    m.counts.insert(PageId(p), c);
                }
                let t = m.hot_threshold();
                let hot: Vec<(PageId, u32)> = m
                    .counts
                    .iter()
                    .filter(|&(_, &c)| c >= t)
                    .map(|(p, &c)| (*p, c))
                    .collect();
                (t, hot)
            })
            .collect();
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
    }
}
