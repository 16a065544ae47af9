//! Linux NUMA Balancing Tiering (NBT): the upstream kernel's
//! memory-tiering mode (`numa_balancing=2`).
//!
//! Slow-tier pages are sampled via NUMA hint faults; a page is promoted
//! after its second fault within a recency window (the kernel's
//! two-touch filter), rate-limited per window. Demotion is
//! watermark-driven kernel reclaim from the LRU tail.

use pact_tiersim::{MachineInfo, PolicyCtx, SampleEvent, Tier, TieringPolicy, WindowStats};

use crate::common::{demote_to_watermark, TwoTouchTracker};

/// Tuning knobs for [`Nbt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NbtConfig {
    /// Slow-tier pages poisoned for hint faulting per window.
    pub scan_pages_per_window: u64,
    /// Windows within which two faults count as "hot".
    pub two_touch_span: u64,
    /// Promotion rate limit per window, in units.
    pub promo_limit: usize,
    /// Free-page watermark as a fraction of fast capacity.
    pub watermark: f64,
}

impl Default for NbtConfig {
    fn default() -> Self {
        Self {
            scan_pages_per_window: 64,
            two_touch_span: 128,
            promo_limit: 128,
            watermark: 0.02,
        }
    }
}

/// The NBT policy.
#[derive(Debug, Clone)]
pub struct Nbt {
    cfg: NbtConfig,
    tracker: TwoTouchTracker,
    pending_promotions: Vec<pact_tiersim::PageId>,
    target_free: u64,
}

impl Nbt {
    /// Creates NBT with default kernel-ish tuning.
    pub fn new() -> Self {
        Self::with_config(NbtConfig::default())
    }

    /// Creates NBT with explicit tuning.
    pub fn with_config(cfg: NbtConfig) -> Self {
        Self {
            tracker: TwoTouchTracker::new(cfg.two_touch_span),
            pending_promotions: Vec::new(),
            target_free: 0,
            cfg,
        }
    }
}

impl Default for Nbt {
    fn default() -> Self {
        Self::new()
    }
}

impl TieringPolicy for Nbt {
    fn name(&self) -> &str {
        "nbt"
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.tracker = TwoTouchTracker::new(self.cfg.two_touch_span);
        self.pending_promotions.clear();
        self.target_free = (info.fast_tier_pages as f64 * self.cfg.watermark) as u64;
    }

    fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        if let SampleEvent::HintFault {
            page,
            tier: Tier::Slow,
        } = *ev
        {
            let unit = ctx.unit_head(page);
            if self.tracker.record(unit, ctx.window_index()) {
                self.pending_promotions.push(unit);
            }
        }
    }

    fn on_window(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        ctx.set_hint_scan_rate(self.cfg.scan_pages_per_window);
        // Take this window's batch: candidates that are still slow.
        let mut batch = Vec::new();
        while batch.len() < self.cfg.promo_limit {
            let Some(page) = self.pending_promotions.pop() else {
                break;
            };
            if ctx.tier_of(page) == Some(Tier::Slow) {
                batch.push(page);
            }
        }
        // Kernel reclaim is demand-driven: demote only enough cold
        // pages to serve this batch of promotions (plus the configured
        // watermark slack while promotions are flowing).
        if !batch.is_empty() {
            let needed = batch.len() as u64 * ctx.unit_span() + self.target_free;
            demote_to_watermark(ctx, needed.max(1));
        }
        for page in batch {
            ctx.promote(page);
        }
        if win.index.is_multiple_of(64) {
            self.tracker.expire(win.index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{cfg, run};
    use pact_tiersim::{Access, TraceWorkload, PAGE_BYTES};

    fn hot_cold_trace() -> TraceWorkload {
        // Pages 0..64 are touched once; pages 64..96 are hammered.
        let mut trace = Vec::new();
        for p in 0..64u64 {
            trace.push(Access::load(p * PAGE_BYTES));
        }
        let mut x = 5u64;
        for _ in 0..120_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p = 64 + x % 32;
            trace.push(Access::dependent_load(p * PAGE_BYTES + (x >> 40) % 64 * 64));
        }
        TraceWorkload::new("hotcold", 96 * PAGE_BYTES, trace)
    }

    #[test]
    fn nbt_promotes_refaulted_pages() {
        let r = run(&cfg(64), &hot_cold_trace(), &mut Nbt::new());
        assert!(r.counters.hint_faults > 0, "no hint faults taken");
        assert!(r.promotions > 0, "no promotions");
    }

    #[test]
    fn nbt_improves_over_first_touch_on_inverted_working_set() {
        // First-touch fills fast tier with the cold pages 0..64; NBT
        // should migrate the hot set in.
        let r_nbt = run(&cfg(64), &hot_cold_trace(), &mut Nbt::new());
        let r_ft = run(
            &cfg(64),
            &hot_cold_trace(),
            &mut pact_tiersim::FirstTouch::new(),
        );
        assert!(
            r_nbt.total_cycles < r_ft.total_cycles,
            "nbt {} vs notier {}",
            r_nbt.total_cycles,
            r_ft.total_cycles
        );
    }

    #[test]
    fn promotions_are_rate_limited() {
        let limited = Nbt::with_config(NbtConfig {
            promo_limit: 1,
            ..NbtConfig::default()
        });
        let mut limited = limited;
        let r = run(&cfg(64), &hot_cold_trace(), &mut limited);
        for w in &r.windows {
            assert!(w.promotions <= 2, "window promoted {}", w.promotions);
        }
    }
}
