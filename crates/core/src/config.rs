//! PACT configuration.

/// How PACT ranks pages for promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankBy {
    /// Per-page Access Criticality — the paper's contribution.
    Pac,
    /// Access frequency only (the "frequency-only policy within the PACT
    /// framework" of §5.6, used as a controlled comparison in Figure 9).
    Frequency,
}

/// Where PACT's page-access observations come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingSource {
    /// Intel PEBS-style 1-in-N LLC-miss sampling (the paper's prototype).
    Pebs,
    /// The CXL 3.2 Hotness Monitoring Unit: controller-side per-page
    /// counting with zero application overhead (§4.3.5 future work).
    /// Requires a machine configured with `chmu_counters > 0`; per-load
    /// latencies are unavailable, so attribution falls back to
    /// proportional.
    Chmu,
}

/// How the estimated slow-tier stall is split across sampled pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attribution {
    /// Proportional to sampled access counts (Algorithm 1): `S_p = S ·
    /// A_p / A_t`.
    Proportional,
    /// Latency-weighted (§4.3.7 future-work extension): `S_p = S · A_p
    /// l_p / Σ A_i l_i`, using per-load PEBS latencies.
    LatencyWeighted,
}

/// Bin-width strategy for the promotion histogram (§4.5 and the
/// Figure 13 breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinningMode {
    /// "+Static": a fixed bin width frozen from the first sampled
    /// distribution, split into [`PactConfig::static_bins`] bins.
    Static,
    /// "+Adaptive": Freedman–Diaconis width recomputed every period from
    /// the reservoir sample.
    Adaptive,
    /// "+Both": Freedman–Diaconis plus the scaling optimization that
    /// doubles/halves the width to keep the candidate ratio bounded.
    AdaptiveScaled,
}

/// Distance-triggered cooling of stale PAC values (§4.3.4, §5.7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cooling {
    /// No cooling; pure accumulation (the paper's robust default).
    None,
    /// Halve a page's PAC when it has not been sampled for
    /// [`PactConfig::cooling_distance`] samples (α = 0.5).
    Halve,
    /// Reset to zero on the same trigger (α = 0, pure recency).
    Reset,
}

/// Full PACT policy configuration. [`PactConfig::default`] reproduces the
/// paper's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct PactConfig {
    /// Ranking signal (PAC, or frequency for the §5.6 comparison).
    pub rank_by: RankBy,
    /// Access-observation source.
    pub sampling: SamplingSource,
    /// Stall attribution scheme.
    pub attribution: Attribution,
    /// Binning strategy.
    pub binning: BinningMode,
    /// Machine windows per PAC sampling period (the paper's default
    /// period is one 20 ms window; Figure 10b sweeps it).
    pub period_windows: u32,
    /// EWMA factor applied to a page's PAC on update: `PAC <- α·PAC +
    /// S_p` (Algorithm 1 line 8). 1.0 = pure accumulation.
    pub alpha: f64,
    /// Cooling mechanism for pages that stop being sampled.
    pub cooling: Cooling,
    /// Samples without capture before cooling triggers (paper: 200 K,
    /// scaled here with the simulation's sample volume).
    pub cooling_distance: u64,
    /// Demotion aggressiveness `m` of Algorithm 2: extra units demoted
    /// beyond promotion demand to keep fast-tier headroom.
    pub eager_demotion_margin: u64,
    /// Reservoir size for Algorithm 3 (paper: 100).
    pub reservoir: usize,
    /// Bin count used by static binning (paper: 20).
    pub static_bins: usize,
    /// Target upper bound on `N_page / N_candidates` for the scaling
    /// optimization; the width doubles above it and halves below a
    /// quarter of it (dead zone avoids oscillation).
    pub t_scale: f64,
    /// Max units promoted per sampling period (safety valve; the daemon
    /// budget also bounds it).
    pub max_promotions_per_period: usize,
    /// Override of the per-tier stall coefficient `k` (cycles); `None`
    /// uses the slow tier's unloaded latency from the machine info,
    /// which Equation 1 predicts and §4.2 validates.
    pub k_override: Option<f64>,
    /// RNG seed for reservoir sampling.
    pub seed: u64,
}

impl Default for PactConfig {
    fn default() -> Self {
        Self {
            rank_by: RankBy::Pac,
            sampling: SamplingSource::Pebs,
            attribution: Attribution::Proportional,
            binning: BinningMode::AdaptiveScaled,
            period_windows: 1,
            alpha: 1.0,
            cooling: Cooling::None,
            cooling_distance: 20_000,
            eager_demotion_margin: 0,
            reservoir: 100,
            static_bins: 20,
            t_scale: 100.0,
            max_promotions_per_period: 512,
            k_override: None,
            seed: 0x9ac7,
        }
    }
}

impl PactConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.period_windows == 0 {
            return Err("period_windows must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err("alpha must be in [0, 1]".into());
        }
        if self.reservoir == 0 {
            return Err("reservoir must be positive".into());
        }
        if self.static_bins == 0 {
            return Err("static_bins must be positive".into());
        }
        if !(self.t_scale > 1.0) {
            return Err("t_scale must exceed 1".into());
        }
        if self.max_promotions_per_period == 0 {
            return Err("max_promotions_per_period must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PactConfig::default();
        assert_eq!(c.rank_by, RankBy::Pac);
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.cooling, Cooling::None);
        assert_eq!(c.reservoir, 100);
        assert_eq!(c.static_bins, 20);
        assert_eq!(c.eager_demotion_margin, 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        for mutate in [
            (|c: &mut PactConfig| c.period_windows = 0) as fn(&mut PactConfig),
            |c| c.alpha = 1.5,
            |c| c.reservoir = 0,
            |c| c.static_bins = 0,
            |c| c.t_scale = 1.0,
            |c| c.max_promotions_per_period = 0,
        ] {
            let mut c = PactConfig::default();
            mutate(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
