//! Alto (OSDI '25, "Tiered Memory Management Beyond Hotness"):
//! MLP-regulated promotion, layered on Colloid as in the paper's
//! evaluation ("We use Alto on top of Colloid").
//!
//! Alto observes that when *system-wide* MLP is high, slow-tier latency
//! is amortized and migration buys little, so it throttles Colloid's
//! promotion rate by an MLP-derived factor. Unlike PACT it has no
//! per-tier decomposition and no page-level criticality — it regulates
//! a global rate, which is why it migrates less than Colloid but cannot
//! pick *which* pages matter.

use pact_tiersim::{MachineInfo, PolicyCtx, SampleEvent, TieringPolicy, WindowStats};

use crate::colloid::{Colloid, ColloidConfig};

/// Tuning knobs for [`Alto`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AltoConfig {
    /// Underlying Colloid tuning.
    pub colloid: ColloidConfig,
    /// MLP at (or below) which promotion runs at full rate; the rate
    /// falls off as `mlp_knee / MLP` beyond it.
    pub mlp_knee: f64,
}

impl Default for AltoConfig {
    fn default() -> Self {
        Self {
            colloid: ColloidConfig::default(),
            mlp_knee: 2.0,
        }
    }
}

/// The Alto policy.
#[derive(Debug, Clone)]
pub struct Alto {
    cfg: AltoConfig,
    inner: Colloid,
}

impl Alto {
    /// Creates Alto with default tuning.
    pub fn new() -> Self {
        Self::with_config(AltoConfig::default())
    }

    /// Creates Alto with explicit tuning.
    pub fn with_config(cfg: AltoConfig) -> Self {
        Self {
            inner: Colloid::with_config(cfg.colloid),
            cfg,
        }
    }

    /// System-wide MLP over the window (both tiers pooled) — the
    /// offcore-global metric Alto actually has access to.
    fn system_mlp(win: &WindowStats) -> f64 {
        let d = &win.delta;
        let occ = d.tor_occupancy[0] + d.tor_occupancy[1];
        let busy = d.tor_busy[0] + d.tor_busy[1];
        if busy == 0 {
            1.0
        } else {
            (occ as f64 / busy as f64).max(1.0)
        }
    }
}

impl Default for Alto {
    fn default() -> Self {
        Self::new()
    }
}

impl TieringPolicy for Alto {
    fn name(&self) -> &str {
        "alto"
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.inner.prepare_impl(info);
    }

    fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        self.inner.sample_impl(ev, ctx);
    }

    fn on_window(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        let mlp = Self::system_mlp(win);
        // High MLP => latency already amortized => throttle promotion.
        let scale = (self.cfg.mlp_knee / mlp).clamp(0.05, 1.0);
        self.inner.set_rate_scale(scale);
        ctx.telemetry("alto_mlp", mlp);
        ctx.telemetry("alto_scale", scale);
        self.inner.window_impl(win, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{cfg, run};
    use crate::Colloid as Plain;
    use pact_tiersim::{Access, TraceWorkload, LINE_BYTES, PAGE_BYTES};

    fn chase_trace(pages: u64, n: u64) -> TraceWorkload {
        let mut trace = Vec::new();
        let mut x = 23u64;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            trace.push(Access::dependent_load((x % pages) * PAGE_BYTES));
        }
        TraceWorkload::new("chase", pages * PAGE_BYTES, trace)
    }

    /// Multi-threaded streaming workload: high aggregate MLP.
    #[derive(Debug)]
    struct WideStreams;
    impl pact_tiersim::Workload for WideStreams {
        fn name(&self) -> String {
            "wide-streams".into()
        }
        fn footprint_bytes(&self) -> u64 {
            8 * 512 * PAGE_BYTES
        }
        fn streams(&self) -> Vec<Box<dyn pact_tiersim::AccessStream + '_>> {
            (0..8u64)
                .map(|t| {
                    let base = t * 512 * PAGE_BYTES;
                    let mut trace = Vec::new();
                    for _ in 0..3 {
                        for l in 0..512 * (PAGE_BYTES / LINE_BYTES) {
                            trace.push(Access::load(base + l * LINE_BYTES));
                        }
                    }
                    Box::new(pact_tiersim::VecStream::new(trace))
                        as Box<dyn pact_tiersim::AccessStream + '_>
                })
                .collect()
        }
    }

    #[test]
    fn alto_throttles_on_high_mlp_streams() {
        // Eight concurrent streams keep aggregate MLP high and generate
        // hint faults faster than Alto's throttled budget, so Alto
        // completes fewer promotions than Colloid over the same run.
        let mut c = cfg(512);
        c.prefetch.enabled = false;
        let tuning = ColloidConfig {
            scan_pages_per_window: 8_192,
            max_promo_per_window: 512,
            ..ColloidConfig::default()
        };
        let mut alto = Alto::with_config(AltoConfig {
            colloid: tuning,
            mlp_knee: 0.5,
        });
        let r_alto = run(&c, &WideStreams, &mut alto);
        let r_colloid = run(&c, &WideStreams, &mut Plain::with_config(tuning));
        assert!(
            r_alto.promotions < r_colloid.promotions,
            "alto {} vs colloid {}",
            r_alto.promotions,
            r_colloid.promotions
        );
    }

    #[test]
    fn alto_promotes_on_low_mlp_chases() {
        let r = run(&cfg(128), &chase_trace(512, 150_000), &mut Alto::new());
        assert!(r.promotions > 100, "promotions {}", r.promotions);
    }
}
