//! Colloid (SOSP '24): "access latency is the key".
//!
//! Colloid balances *loaded* access latency across tiers: when the
//! slow tier's (latency × access share) exceeds the fast tier's, it
//! promotes aggressively, and vice versa. Per-tier loaded latency is
//! observable on real hardware from CHA occupancy/insert counters, as
//! in our PMU model. Candidates come from NUMA hint faults (Colloid is
//! built on the kernel's tiering path). The aggressive, imbalance-
//! proportional promotion rate is what gives Colloid its strong
//! mid-pack performance and its millions of migrations (Table 2).

use std::collections::VecDeque;

use pact_tiersim::{MachineInfo, PageId, PolicyCtx, SampleEvent, Tier, TieringPolicy, WindowStats};

use crate::common::demote_to_watermark;

/// Tuning knobs for [`Colloid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColloidConfig {
    /// Slow-tier pages poisoned for hint faulting per window.
    pub scan_pages_per_window: u64,
    /// Maximum promotions per window (units) at full imbalance.
    pub max_promo_per_window: usize,
    /// Free-page watermark fraction.
    pub watermark: f64,
    /// Candidate queue bound.
    pub queue_cap: usize,
}

impl Default for ColloidConfig {
    fn default() -> Self {
        Self {
            scan_pages_per_window: 96,
            max_promo_per_window: 256,
            watermark: 0.02,
            queue_cap: 1 << 15,
        }
    }
}

/// The Colloid policy.
#[derive(Debug, Clone)]
pub struct Colloid {
    cfg: ColloidConfig,
    candidates: VecDeque<PageId>,
    target_free: u64,
    /// Promotion-rate multiplier hook used by Alto (1.0 = plain Colloid).
    rate_scale: f64,
}

impl Colloid {
    /// Creates Colloid with default tuning.
    pub fn new() -> Self {
        Self::with_config(ColloidConfig::default())
    }

    /// Creates Colloid with explicit tuning.
    pub fn with_config(cfg: ColloidConfig) -> Self {
        Self {
            cfg,
            candidates: VecDeque::new(),
            target_free: 0,
            rate_scale: 1.0,
        }
    }

    /// Scales the promotion rate (Alto's MLP regulation multiplies this
    /// down when latency is well amortized).
    pub(crate) fn set_rate_scale(&mut self, scale: f64) {
        self.rate_scale = scale.clamp(0.0, 1.0);
    }

    /// Colloid's balance signal: positive while the slow tier's loaded
    /// latency exceeds the fast tier's (promote toward the cheaper
    /// tier), zero/negative once fast-tier contention has equalized
    /// them. Loaded latencies come from the CHA occupancy counters.
    fn imbalance(win: &WindowStats) -> f64 {
        let d = &win.delta;
        if d.llc_misses[1] == 0 {
            return 0.0; // nothing on the slow tier to promote
        }
        let l_fast = d.avg_demand_latency(Tier::Fast).max(1.0);
        let l_slow = d.avg_demand_latency(Tier::Slow).max(1.0);
        (l_slow - l_fast) / (l_slow + l_fast)
    }

    pub(crate) fn window_impl(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        ctx.set_hint_scan_rate(self.cfg.scan_pages_per_window);
        let imb = Self::imbalance(win);
        ctx.telemetry("colloid_imbalance", imb);
        if imb <= 0.0 {
            // Fast tier is the bottleneck (or idle): hold promotions.
            return;
        }
        let budget =
            ((self.cfg.max_promo_per_window as f64) * imb * self.rate_scale).round() as usize;
        let batch = budget.min(self.candidates.len());
        if batch == 0 {
            return;
        }
        let span = ctx.unit_span();
        demote_to_watermark(ctx, self.target_free.max(batch as u64 * span));
        let mut promoted = 0;
        while promoted < batch {
            let Some(page) = self.candidates.pop_front() else {
                break;
            };
            if ctx.tier_of(page) == Some(Tier::Slow) {
                ctx.promote(page);
                promoted += 1;
            }
        }
    }

    pub(crate) fn sample_impl(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        if let SampleEvent::HintFault {
            page,
            tier: Tier::Slow,
        } = *ev
        {
            if self.candidates.len() < self.cfg.queue_cap {
                self.candidates.push_back(ctx.unit_head(page));
            }
        }
    }

    pub(crate) fn prepare_impl(&mut self, info: &MachineInfo) {
        self.candidates.clear();
        self.target_free = (info.fast_tier_pages as f64 * self.cfg.watermark) as u64;
    }
}

impl Default for Colloid {
    fn default() -> Self {
        Self::new()
    }
}

impl TieringPolicy for Colloid {
    fn name(&self) -> &str {
        "colloid"
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.prepare_impl(info);
    }

    fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        self.sample_impl(ev, ctx);
    }

    fn on_window(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        self.window_impl(win, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{cfg, run};
    use pact_tiersim::{Access, PmuCounters, TraceWorkload, PAGE_BYTES};

    fn chase_trace(pages: u64, n: u64) -> TraceWorkload {
        let mut trace = Vec::new();
        let mut x = 17u64;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
            trace.push(Access::dependent_load(
                (x % pages) * PAGE_BYTES + ((x >> 40) % 64) * 64,
            ));
        }
        TraceWorkload::new("chase", pages * PAGE_BYTES, trace)
    }

    #[test]
    fn imbalance_sign_follows_latency_pressure() {
        // Slow tier slower than fast: promote.
        let mut d = PmuCounters::default();
        d.llc_misses = [100, 1000];
        d.demand_latency_sum = [100 * 200, 1000 * 420];
        let win = WindowStats {
            index: 0,
            end_cycles: 0,
            delta: d,
            cumulative: &d,
        };
        assert!(Colloid::imbalance(&win) > 0.3);
        // Fast tier so contended its loaded latency exceeds the slow
        // tier's: stop promoting.
        let mut d2 = PmuCounters::default();
        d2.llc_misses = [1000, 10];
        d2.demand_latency_sum = [1000 * 500, 10 * 420];
        let win2 = WindowStats {
            index: 0,
            end_cycles: 0,
            delta: d2,
            cumulative: &d2,
        };
        assert!(Colloid::imbalance(&win2) < 0.0);
        // No slow traffic at all: hold.
        let d3 = PmuCounters::default();
        let win3 = WindowStats {
            index: 0,
            end_cycles: 0,
            delta: d3,
            cumulative: &d3,
        };
        assert_eq!(Colloid::imbalance(&win3), 0.0);
    }

    #[test]
    fn colloid_migrates_aggressively() {
        let r = run(&cfg(256), &chase_trace(1024, 200_000), &mut Colloid::new());
        assert!(r.promotions > 500, "promotions {}", r.promotions);
    }

    #[test]
    fn rate_scale_caps_per_window_promotion_rate() {
        let mut full = Colloid::new();
        let r_full = run(&cfg(256), &chase_trace(1024, 200_000), &mut full);
        let mut scaled = Colloid::new();
        scaled.set_rate_scale(0.01); // budget ~10/window, below arrival rate
                                     // rate_scale is reset-safe: prepare() does not clear it.
        let r_scaled = run(&cfg(256), &chase_trace(1024, 200_000), &mut scaled);
        let peak =
            |r: &pact_tiersim::RunReport| r.windows.iter().map(|w| w.promotions).max().unwrap_or(0);
        assert!(
            peak(&r_scaled) < peak(&r_full),
            "scaled peak {} vs full peak {}",
            peak(&r_scaled),
            peak(&r_full)
        );
    }

    #[test]
    fn no_promotion_without_slow_pressure() {
        // Everything fits in fast: imbalance <= 0, no promotions.
        let r = run(&cfg(4096), &chase_trace(512, 50_000), &mut Colloid::new());
        assert_eq!(r.promotions, 0);
    }
}
