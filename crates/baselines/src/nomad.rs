//! Nomad (OSDI '24): non-exclusive tiering via transactional page
//! migration.
//!
//! Nomad promotes like the kernel's two-touch path but copies pages
//! *transactionally*: the slow-tier original stays valid ("shadow"
//! copy) until the transaction commits, and a write during the copy
//! aborts it. Two consequences the paper measures on migration-heavy
//! graph workloads: very few promotions complete (Table 2 shows
//! thousands, not millions) and the shadow copies consume fast-tier
//! capacity, so the usable fast tier shrinks — slowdowns exceed 100%.

use pact_stats::SplitMix64;
use pact_tiersim::{MachineInfo, PageId, PolicyCtx, SampleEvent, Tier, TieringPolicy, WindowStats};

use crate::common::{demote_to_watermark, TwoTouchTracker};

/// Tuning knobs for [`Nomad`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NomadConfig {
    /// Slow-tier pages poisoned for hint faulting per window.
    pub scan_pages_per_window: u64,
    /// Two-touch recency span in windows.
    pub two_touch_span: u64,
    /// Probability a transactional copy aborts because the page was
    /// touched/written mid-copy (heavily-accessed candidates — exactly
    /// the ones worth promoting — abort most).
    pub abort_probability: f64,
    /// Fraction of fast-tier capacity consumed by shadow copies and
    /// therefore unusable for exclusive placement.
    pub shadow_fraction: f64,
    /// Promotion attempts per window.
    pub promo_limit: usize,
    /// RNG seed for abort draws.
    pub seed: u64,
}

impl Default for NomadConfig {
    fn default() -> Self {
        Self {
            scan_pages_per_window: 64,
            two_touch_span: 128,
            abort_probability: 0.6,
            shadow_fraction: 0.35,
            promo_limit: 64,
            seed: 0x4012,
        }
    }
}

/// The Nomad policy.
#[derive(Debug, Clone)]
pub struct Nomad {
    cfg: NomadConfig,
    tracker: TwoTouchTracker,
    pending: Vec<PageId>,
    reserved: u64,
    rng: SplitMix64,
    aborted: u64,
    /// Pages whose transactional copy aborted: too actively used to
    /// move; Nomad backs off from them (cleared periodically).
    /// BTreeSet for deterministic behavior regardless of insertion
    /// order (det-hash-collections).
    abort_backoff: std::collections::BTreeSet<PageId>,
}

impl Nomad {
    /// Creates Nomad with default tuning.
    pub fn new() -> Self {
        Self::with_config(NomadConfig::default())
    }

    /// Creates Nomad with explicit tuning.
    pub fn with_config(cfg: NomadConfig) -> Self {
        Self {
            tracker: TwoTouchTracker::new(cfg.two_touch_span),
            pending: Vec::new(),
            reserved: 0,
            rng: SplitMix64::new(cfg.seed),
            aborted: 0,
            abort_backoff: std::collections::BTreeSet::new(),
            cfg,
        }
    }

    /// Transactional copies aborted so far.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }
}

impl Default for Nomad {
    fn default() -> Self {
        Self::new()
    }
}

impl TieringPolicy for Nomad {
    fn name(&self) -> &str {
        "nomad"
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.tracker = TwoTouchTracker::new(self.cfg.two_touch_span);
        self.pending.clear();
        self.rng = SplitMix64::new(self.cfg.seed);
        self.aborted = 0;
        self.abort_backoff.clear();
        self.reserved = (info.fast_tier_pages as f64 * self.cfg.shadow_fraction) as u64;
    }

    fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        if let SampleEvent::HintFault {
            page,
            tier: Tier::Slow,
        } = *ev
        {
            let unit = ctx.unit_head(page);
            if self.abort_backoff.contains(&unit) {
                return; // transactional copy keeps failing: back off
            }
            if self.tracker.record(unit, ctx.window_index()) {
                self.pending.push(unit);
            }
        }
    }

    fn on_window(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        ctx.set_hint_scan_rate(self.cfg.scan_pages_per_window);
        // Shadow copies occupy `reserved` pages of the fast tier: keep
        // at least that many free (i.e. unusable for exclusive pages).
        demote_to_watermark(ctx, self.reserved.max(1));
        let batch = self.pending.len().min(self.cfg.promo_limit);
        for page in self.pending.drain(..batch) {
            if ctx.tier_of(page) != Some(Tier::Slow) {
                continue;
            }
            if self.rng.random::<f64>() < self.cfg.abort_probability {
                self.aborted += 1; // copy raced with an access: abort
                self.abort_backoff.insert(page);
            } else {
                ctx.promote(page);
            }
        }
        if win.index.is_multiple_of(64) {
            self.tracker.expire(win.index);
        }
        // Forget old aborts occasionally so phase changes get retried.
        if win.index % 512 == 511 {
            self.abort_backoff.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{cfg, run};
    use pact_tiersim::{Access, TraceWorkload, PAGE_BYTES};

    fn chase_trace(pages: u64, n: u64) -> TraceWorkload {
        let mut trace = Vec::new();
        let mut x = 29u64;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            trace.push(Access::dependent_load((x % pages) * PAGE_BYTES));
        }
        TraceWorkload::new("chase", pages * PAGE_BYTES, trace)
    }

    #[test]
    fn nomad_aborts_many_transactions() {
        let mut nomad = Nomad::new();
        let r = run(&cfg(256), &chase_trace(1024, 200_000), &mut nomad);
        assert!(nomad.aborted() > 0, "no aborts recorded");
        assert!(r.promotions > 0);
    }

    #[test]
    fn nomad_promotes_less_than_nbt() {
        let r_nomad = run(&cfg(256), &chase_trace(1024, 200_000), &mut Nomad::new());
        let r_nbt = run(
            &cfg(256),
            &chase_trace(1024, 200_000),
            &mut crate::Nbt::new(),
        );
        assert!(
            r_nomad.promotions < r_nbt.promotions,
            "nomad {} vs nbt {}",
            r_nomad.promotions,
            r_nbt.promotions
        );
    }

    #[test]
    fn shadow_reservation_shrinks_usable_fast_tier() {
        let r = run(&cfg(512), &chase_trace(1024, 150_000), &mut Nomad::new());
        // The watermark demotions triggered by the reservation appear as
        // demotion traffic even though promotions are scarce.
        assert!(r.demotions >= r.promotions);
    }
}
