//! TPP: Transparent Page Placement (ASPLOS '23).
//!
//! TPP promotes a slow-tier page *on its first NUMA hint fault*,
//! synchronously in the fault path, and keeps fast-tier headroom with
//! eager watermark demotion. On workloads whose slow-tier accesses are
//! spread wide (irregular graphs), first-touch promotion turns into a
//! migration storm whose fault + sync-migration cost lands on the
//! application's critical path — the paper measures TPP at up to ~800%
//! slowdown on bc-kron with 100M+ promotions (Table 2).

use pact_tiersim::{MachineInfo, PolicyCtx, SampleEvent, Tier, TieringPolicy, WindowStats};

use crate::common::demote_to_watermark;

/// Tuning knobs for [`Tpp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TppConfig {
    /// Slow-tier pages poisoned for hint faulting per window (TPP scans
    /// aggressively).
    pub scan_pages_per_window: u64,
    /// Free-page watermark as a fraction of fast capacity (TPP reserves
    /// real headroom).
    pub watermark: f64,
}

impl Default for TppConfig {
    fn default() -> Self {
        Self {
            scan_pages_per_window: 384,
            watermark: 0.04,
        }
    }
}

/// The TPP policy.
#[derive(Debug, Clone, Default)]
pub struct Tpp {
    cfg: TppConfig,
    target_free: u64,
}

impl Tpp {
    /// Creates TPP with default tuning.
    pub fn new() -> Self {
        Self::with_config(TppConfig::default())
    }

    /// Creates TPP with explicit tuning.
    pub fn with_config(cfg: TppConfig) -> Self {
        Self {
            cfg,
            target_free: 0,
        }
    }
}

impl TieringPolicy for Tpp {
    fn name(&self) -> &str {
        "tpp"
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.target_free = (info.fast_tier_pages as f64 * self.cfg.watermark) as u64;
    }

    fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        if let SampleEvent::HintFault {
            page,
            tier: Tier::Slow,
        } = *ev
        {
            // Promote-on-first-fault, synchronously in the fault path.
            ctx.promote_sync(ctx.unit_head(page));
        }
    }

    fn on_window(&mut self, _win: &WindowStats, ctx: &mut PolicyCtx) {
        ctx.set_hint_scan_rate(self.cfg.scan_pages_per_window);
        demote_to_watermark(ctx, self.target_free.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{cfg, run};
    use pact_tiersim::{Access, TraceWorkload, PAGE_BYTES};

    fn wide_random_trace(pages: u64, n: u64) -> TraceWorkload {
        let mut trace = Vec::new();
        let mut x = 11u64;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            trace.push(Access::dependent_load((x % pages) * PAGE_BYTES));
        }
        TraceWorkload::new("wide", pages * PAGE_BYTES, trace)
    }

    #[test]
    fn tpp_promotes_on_first_fault() {
        let r = run(&cfg(256), &wide_random_trace(512, 100_000), &mut Tpp::new());
        assert!(r.promotions > 0);
        // Promotion attempts track faults (1 per fault on slow pages);
        // attempts fail when reclaim finds no cold page to make room.
        assert!(
            r.promotions + r.failed_promotions >= r.counters.hint_faults / 2,
            "attempts {}+{} vs faults {}",
            r.promotions,
            r.failed_promotions,
            r.counters.hint_faults
        );
    }

    #[test]
    fn tpp_migration_storm_on_wide_working_set() {
        // On a uniformly random working set much larger than fast tier,
        // TPP storms: it attempts a migration on every fault (most fail
        // for lack of reclaimable space) and ends up slower than the
        // two-touch-filtered NBT.
        let r_tpp = run(
            &cfg(128),
            &wide_random_trace(1024, 150_000),
            &mut Tpp::new(),
        );
        let r_nbt = run(
            &cfg(128),
            &wide_random_trace(1024, 150_000),
            &mut crate::Nbt::new(),
        );
        let tpp_attempts = r_tpp.promotions + r_tpp.failed_promotions;
        assert!(
            tpp_attempts > r_tpp.counters.hint_faults / 2,
            "attempts {} vs faults {}",
            tpp_attempts,
            r_tpp.counters.hint_faults
        );
        assert!(
            r_tpp.total_cycles > r_nbt.total_cycles,
            "tpp {} vs nbt {} cycles",
            r_tpp.total_cycles,
            r_nbt.total_cycles
        );
    }

    #[test]
    fn tpp_keeps_headroom() {
        let r = run(&cfg(256), &wide_random_trace(512, 100_000), &mut Tpp::new());
        assert!(r.demotions > 0, "watermark demotion never ran");
    }
}
