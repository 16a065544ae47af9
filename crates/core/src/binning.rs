//! Adaptive promotion binning (Algorithm 3, §4.5).
//!
//! PACT turns the skewed, drifting PAC distribution into a stable
//! supply of promotion candidates with three pieces:
//!
//! 1. a fixed-size **reservoir sample** of recent PAC values (uniform
//!    over the stream without tracking it all);
//! 2. the **Freedman–Diaconis rule** on that sample's quartiles to pick
//!    a statistically principled bin width;
//! 3. a **scaling optimization** that doubles/halves the width when the
//!    ratio of tracked pages to promotion candidates leaves its target
//!    band, preventing both candidate starvation and migration bursts.
//!
//! Pages are binned by `floor(PAC / width)` and the *highest non-empty
//! bin* is the promotion candidate set.

use pact_stats::{freedman_diaconis_width, Reservoir, SplitMix64};

use crate::config::{BinningMode, PactConfig};

/// The adaptive binning engine.
#[derive(Debug, Clone)]
pub struct AdaptiveBins {
    mode: BinningMode,
    reservoir: Reservoir,
    rng: SplitMix64,
    width: f64,
    /// Persistent multiplier adjusted by the scaling optimization.
    scale: f64,
    /// Static mode: width frozen after the first estimate.
    frozen: bool,
    static_bins: usize,
    t_scale: f64,
}

impl AdaptiveBins {
    /// Creates the engine from a PACT configuration.
    pub fn new(cfg: &PactConfig) -> Self {
        Self {
            mode: cfg.binning,
            reservoir: Reservoir::new(cfg.reservoir),
            rng: SplitMix64::new(cfg.seed),
            width: 1.0,
            scale: 1.0,
            frozen: false,
            static_bins: cfg.static_bins,
            t_scale: cfg.t_scale,
        }
    }

    /// Offers freshly updated PAC values to the reservoir.
    pub fn observe(&mut self, pac_values: impl IntoIterator<Item = f64>) {
        for v in pac_values {
            self.reservoir.offer(v, &mut self.rng);
        }
    }

    /// Recomputes the bin width for this period (Algorithm 3 lines 7–9).
    pub fn update_width(&mut self) {
        if self.reservoir.len() < 4 {
            return;
        }
        match self.mode {
            BinningMode::Static => {
                if !self.frozen {
                    // Freeze a width splitting the first observed range
                    // into `static_bins` equal bins.
                    let q = self.reservoir.quantiles();
                    let span = q.max() - q.min();
                    if span > 0.0 {
                        self.width = span / self.static_bins as f64;
                        self.frozen = true;
                    }
                }
            }
            BinningMode::Adaptive | BinningMode::AdaptiveScaled => {
                if let Some(w) = freedman_diaconis_width(self.reservoir.as_slice()) {
                    self.width = w * self.scale;
                }
            }
        }
    }

    /// Applies the scaling optimization (Algorithm 3 lines 10–14) given
    /// this period's tracked-page and candidate counts.
    ///
    /// A dead zone (`[t_scale / 4, t_scale]`) prevents the width from
    /// oscillating every period.
    pub fn apply_scaling(&mut self, n_pages: usize, n_candidates: usize) {
        if self.mode != BinningMode::AdaptiveScaled || n_pages == 0 {
            return;
        }
        let ratio = n_pages as f64 / n_candidates.max(1) as f64;
        if n_candidates == 0 {
            // Width overshot the distribution: every page collapsed
            // into bin 0 and the candidate supply starved. Narrow.
            self.scale /= 2.0;
            self.width /= 2.0;
        } else if ratio > self.t_scale {
            // Candidates are scarce: widen bins so the top bin holds a
            // larger tail chunk.
            self.scale *= 2.0;
            self.width *= 2.0;
        } else if ratio < self.t_scale / 4.0 {
            // Candidate flood: narrow bins to restore selectivity.
            self.scale /= 2.0;
            self.width /= 2.0;
        }
        // Keep the multiplier within sane bounds.
        self.scale = self.scale.clamp(1.0 / 1024.0, 1024.0);
    }

    /// Bin index of a PAC value under the current width.
    pub fn bin_of(&self, pac: f64) -> u32 {
        if !(pac > 0.0) || self.width <= 0.0 {
            return 0;
        }
        // Cap to keep indices bounded under extreme skew.
        (pac / self.width).min(1_000_000.0) as u32
    }

    /// Current bin width (the Figure 8b telemetry series).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Current scale multiplier.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Selects the promotion candidates: the pages whose PAC falls in
    /// the highest non-empty bin among `pages`, which the caller has
    /// pre-filtered to slow-tier residents. Returns `(candidates,
    /// top_bin)`.
    pub fn top_bin_candidates<P: Copy>(&self, pages: &[(P, f64)]) -> (Vec<P>, u32) {
        let mut top = 0u32;
        for &(_, pac) in pages {
            top = top.max(self.bin_of(pac));
        }
        if top == 0 {
            return (Vec::new(), 0);
        }
        let candidates = pages
            .iter()
            .filter(|&&(_, pac)| self.bin_of(pac) == top)
            .map(|&(p, _)| p)
            .collect();
        (candidates, top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: BinningMode) -> PactConfig {
        PactConfig {
            binning: mode,
            ..PactConfig::default()
        }
    }

    #[test]
    fn adaptive_width_tracks_distribution_spread() {
        let mut b = AdaptiveBins::new(&cfg(BinningMode::Adaptive));
        b.observe((0..100).map(|i| i as f64));
        b.update_width();
        let w_narrow = b.width();
        let mut b2 = AdaptiveBins::new(&cfg(BinningMode::Adaptive));
        b2.observe((0..100).map(|i| i as f64 * 10.0));
        b2.update_width();
        assert!(b2.width() > 5.0 * w_narrow);
    }

    #[test]
    fn static_width_freezes() {
        let mut b = AdaptiveBins::new(&cfg(BinningMode::Static));
        b.observe((0..100).map(|i| i as f64)); // range ~99 -> width ~4.95
        b.update_width();
        let w = b.width();
        assert!((w - 99.0 / 20.0).abs() < 0.5);
        b.observe((0..100).map(|i| i as f64 * 100.0));
        b.update_width();
        assert_eq!(b.width(), w, "static width must not adapt");
    }

    #[test]
    fn scaling_narrows_on_empty_top_bin() {
        let mut b = AdaptiveBins::new(&cfg(BinningMode::AdaptiveScaled));
        b.observe((0..100).map(|i| i as f64));
        b.update_width();
        let w = b.width();
        b.apply_scaling(10_000, 0);
        assert_eq!(b.width(), w / 2.0);
    }

    #[test]
    fn scaling_widens_on_starvation() {
        let mut b = AdaptiveBins::new(&cfg(BinningMode::AdaptiveScaled));
        b.observe((0..100).map(|i| i as f64));
        b.update_width();
        let w = b.width();
        // 10_000 pages, 5 candidates: ratio 2000 > t_scale 100.
        b.apply_scaling(10_000, 5);
        assert_eq!(b.width(), 2.0 * w);
    }

    #[test]
    fn scaling_narrows_on_flood() {
        let mut b = AdaptiveBins::new(&cfg(BinningMode::AdaptiveScaled));
        b.observe((0..100).map(|i| i as f64));
        b.update_width();
        let w = b.width();
        // ratio 2 < t_scale/4: narrow.
        b.apply_scaling(1_000, 500);
        assert_eq!(b.width(), w / 2.0);
    }

    #[test]
    fn scaling_dead_zone_holds_width() {
        let mut b = AdaptiveBins::new(&cfg(BinningMode::AdaptiveScaled));
        b.observe((0..100).map(|i| i as f64));
        b.update_width();
        let w = b.width();
        b.apply_scaling(1_000, 20); // ratio 50: inside [25, 100]
        assert_eq!(b.width(), w);
    }

    #[test]
    fn scaling_disabled_outside_scaled_mode() {
        let mut b = AdaptiveBins::new(&cfg(BinningMode::Adaptive));
        b.observe((0..100).map(|i| i as f64));
        b.update_width();
        let w = b.width();
        b.apply_scaling(1_000_000, 1);
        assert_eq!(b.width(), w);
    }

    #[test]
    fn top_bin_selection_picks_extreme_tail() {
        let mut b = AdaptiveBins::new(&cfg(BinningMode::Adaptive));
        b.observe((0..100).map(|i| i as f64));
        b.update_width();
        let pages: Vec<(u32, f64)> = vec![(1, 1.0), (2, 50.0), (3, 1_000.0), (4, 990.0)];
        let (cands, top) = b.top_bin_candidates(&pages);
        assert!(top > 0);
        assert!(cands.contains(&3));
        assert!(!cands.contains(&1));
        assert!(!cands.contains(&2));
    }

    #[test]
    fn zero_pac_pages_never_candidates() {
        let b = AdaptiveBins::new(&cfg(BinningMode::Adaptive));
        let pages: Vec<(u32, f64)> = vec![(1, 0.0), (2, 0.0)];
        let (cands, top) = b.top_bin_candidates(&pages);
        assert!(cands.is_empty());
        assert_eq!(top, 0);
    }

    #[test]
    fn bin_of_handles_degenerate_values() {
        let b = AdaptiveBins::new(&cfg(BinningMode::Adaptive));
        assert_eq!(b.bin_of(f64::NAN), 0);
        assert_eq!(b.bin_of(-5.0), 0);
        assert!(b.bin_of(f64::MAX) <= 1_000_000);
    }
}
