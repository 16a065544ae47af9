//! The PACT tiering policy (Algorithms 1–3 end to end).

use pact_stats::{ByteReader, ByteWriter, State};
use pact_tiersim::{
    MachineInfo, PageId, PmuCounters, PolicyCtx, SampleEvent, Tier, TieringPolicy, WindowStats,
};

use crate::binning::AdaptiveBins;
use crate::config::{Attribution, PactConfig, RankBy, SamplingSource};
use crate::pac::estimate_tier_stalls;
use crate::store::PacStore;

/// PACT: online, page-granular, criticality-first tiered memory
/// management.
///
/// Per sampling period the policy:
///
/// 1. measures slow-tier MLP from TOR counter deltas (`ΔT1/ΔT2`) and
///    estimates slow-tier stalls `S = k · misses / MLP` (Equation 1);
/// 2. attributes `S` across PEBS-sampled pages proportionally to their
///    sampled access counts (Algorithm 1), accumulating per-page PAC;
/// 3. re-derives the promotion bin width from a reservoir sample via
///    Freedman–Diaconis with the scaling optimization (Algorithm 3);
/// 4. promotes the highest non-empty bin's slow-tier pages, eagerly
///    demoting kernel-LRU-cold pages first to guarantee space
///    (Algorithm 2 with aggressiveness `m`).
///
/// # Example
///
/// ```
/// use pact_core::{PactConfig, PactPolicy};
/// use pact_tiersim::{Machine, MachineConfig, TraceWorkload, Access};
///
/// let trace: Vec<Access> = (0..60_000u64)
///     .map(|i| Access::dependent_load((i.wrapping_mul(2654435761) % 512) * 4096))
///     .collect();
/// let wl = TraceWorkload::new("chase", 512 * 4096, trace);
/// let machine = Machine::new(MachineConfig::skylake_cxl(128)).unwrap();
/// let mut pact = PactPolicy::new(PactConfig::default()).unwrap();
/// let report = machine.try_run(&wl, &mut pact).unwrap();
/// assert_eq!(report.policy, "pact");
/// ```
#[derive(Debug, Clone)]
pub struct PactPolicy {
    cfg: PactConfig,
    store: PacStore,
    bins: AdaptiveBins,
    k: f64,
    windows_seen: u32,
    last_period_snapshot: PmuCounters,
    /// Cumulative failed/dropped migration orders observed through
    /// `PolicyCtx` as of the last period (graceful-degradation state).
    failures_seen: u64,
    /// Cumulative admission-control rejections observed as of the last
    /// period. Stays 0 unless PACT runs inside an admission wrapper.
    rejections_seen: u64,
}

impl PactPolicy {
    /// Builds the policy from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error.
    pub fn new(cfg: PactConfig) -> Result<Self, String> {
        cfg.validate()?;
        let bins = AdaptiveBins::new(&cfg);
        Ok(Self {
            cfg,
            // Sized to the machine in `prepare`.
            store: PacStore::for_pages(0),
            bins,
            k: 418.0,
            windows_seen: 0,
            last_period_snapshot: PmuCounters::default(),
            failures_seen: 0,
            rejections_seen: 0,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PactConfig {
        &self.cfg
    }

    /// Read access to the PAC store (diagnostics, Figure 1 harness).
    pub fn store(&self) -> &PacStore {
        &self.store
    }

    /// Current promotion bin width.
    pub fn bin_width(&self) -> f64 {
        self.bins.width()
    }

    /// Post-run consistency audit for the policy's internal state; the
    /// config fuzzer (`tests/config_fuzz.rs`) calls this after every
    /// PACT cell.
    ///
    /// Delegates to [`PacStore::debug_validate`] and additionally checks
    /// that the derived bin width is finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first inconsistency found.
    pub fn audit(&self) -> Result<(), String> {
        self.store
            .debug_validate()
            .map_err(|e| format!("pac store: {e}"))?;
        let w = self.bins.width();
        if !w.is_finite() || w < 0.0 {
            return Err(format!("bin width is invalid: {w}"));
        }
        Ok(())
    }

    fn run_period(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        let delta = win.cumulative.delta_since(&self.last_period_snapshot);
        self.last_period_snapshot = *win.cumulative;

        // CHMU path: pull the device's per-page access counts for this
        // period (PEBS events were ignored in on_sample).
        if self.cfg.sampling == SamplingSource::Chmu {
            if let Some((hot, _total)) = ctx.read_chmu(4_096) {
                for (page, count) in hot {
                    self.store
                        .record_counted(page, count.min(u32::MAX as u64) as u32, 0);
                }
            }
        }

        // Algorithm 1: estimate slow-tier stalls and attribute.
        let mlp = delta.tor_mlp(Tier::Slow);
        let stalls = estimate_tier_stalls(self.k, delta.llc_misses[Tier::Slow.index()], mlp);
        let updated = match self.cfg.attribution {
            Attribution::Proportional => self
                .store
                .attribute_period(stalls, self.cfg.alpha, |e| e.period_samples as f64),
            Attribution::LatencyWeighted => {
                self.store
                    .attribute_period(stalls, self.cfg.alpha, |e| e.period_latency_sum as f64)
            }
        };
        self.store.cool(self.cfg.cooling, self.cfg.cooling_distance);

        // Rank slow-tier tracked migration units by their aggregated
        // signal: per page without THP; summed over the huge page's
        // base pages with it (fine-grained detection, coarse-grained
        // migration, §5.2).
        let span = ctx.unit_span();
        let ranked: Vec<(PageId, f64)> = if span == 1 {
            self.store
                .iter()
                .filter(|(p, _)| ctx.tier_of(**p) == Some(Tier::Slow))
                .map(|(p, e)| {
                    let signal = match self.cfg.rank_by {
                        RankBy::Pac => e.pac,
                        RankBy::Frequency => e.total_samples as f64,
                    };
                    (*p, signal)
                })
                .collect()
        } else {
            // BTreeMap keeps the aggregation order deterministic (it
            // feeds the reservoir sampler downstream).
            let mut units: std::collections::BTreeMap<PageId, f64> =
                std::collections::BTreeMap::new();
            for (p, e) in self.store.iter() {
                let signal = match self.cfg.rank_by {
                    RankBy::Pac => e.pac,
                    RankBy::Frequency => e.total_samples as f64,
                };
                *units.entry(ctx.unit_head(*p)).or_insert(0.0) += signal;
            }
            units
                .into_iter()
                .filter(|(u, _)| ctx.tier_of(*u) == Some(Tier::Slow))
                .collect()
        };
        // Algorithm 3: refresh the adaptive bins from this period's
        // updated values, at the same granularity the ranking uses
        // (unit-aggregated under THP).
        if span == 1 {
            self.bins.observe(updated.iter().map(|&(_, pac)| pac));
        } else {
            let touched: std::collections::BTreeSet<PageId> =
                updated.iter().map(|&(p, _)| ctx.unit_head(p)).collect();
            let unit_vals: Vec<f64> = ranked
                .iter()
                .filter(|(u, _)| touched.contains(u))
                .map(|&(_, v)| v)
                .collect();
            self.bins.observe(unit_vals);
        }
        self.bins.update_width();

        let (mut candidates, _top_bin) = self.bins.top_bin_candidates(&ranked);
        self.bins
            .apply_scaling(ranked.len().max(1), candidates.len());
        candidates.sort_unstable_by_key(|p| p.0);
        // Migration-burst guard: at most a small fraction of the fast
        // tier's units turn over per period (the paper's "stable and
        // bounded supply of promotion candidates").
        let fast_units = (ctx.fast_capacity() / span).max(1);
        let mut per_period_cap =
            (fast_units as usize / 8).clamp(4, self.cfg.max_promotions_per_period);

        // Admission backoff: when admission control rejected orders
        // since the last period (token exhaustion or channel
        // backpressure), halve this period's promotion burst instead of
        // hammering a saturated migration path — deferred orders are
        // already queued for retry and fresh orders would only displace
        // them. Without an admission wrapper there are no rejections,
        // so this changes nothing.
        let rejections = ctx.admission_rejections();
        let new_rejections = rejections.saturating_sub(self.rejections_seen);
        self.rejections_seen = rejections;
        if new_rejections > 0 {
            ctx.telemetry("admission_rejections", new_rejections as f64);
            per_period_cap = (per_period_cap / 2).max(1);
        }
        candidates.truncate(per_period_cap);

        // Graceful degradation: when the migration path sheds or fails
        // orders under an active fault-injection plan (see
        // `tiersim::fault`), widen the eager-demotion margin in
        // proportion to the failures seen this period, so headroom is
        // guaranteed *despite* an unreliable daemon and the policy
        // still converges. The extra margin is bounded so a burst of
        // failures cannot trigger a demotion storm. Keyed on
        // fault_injection_active() so fault-free runs — where a few
        // capacity-induced failures are normal — behave exactly as if
        // this path did not exist.
        let failure_margin = if ctx.fault_injection_active() {
            let failures = ctx.failed_promotions() + ctx.dropped_orders();
            let new_failures = failures.saturating_sub(self.failures_seen);
            self.failures_seen = failures;
            if new_failures > 0 {
                ctx.telemetry("migration_failures", new_failures as f64);
            }
            new_failures.min(16) * span
        } else {
            0
        };

        // Algorithm 2: eager demotion to guarantee promotion headroom.
        // The cold LRU supply comes first; any shortfall is met with
        // direct reclaim — criticality-first means a top-bin page may
        // displace a merely-recent one.
        let needed = candidates.len() as u64 * span;
        let margin = self.cfg.eager_demotion_margin * span + failure_margin;
        if ctx.fast_free() < needed + margin {
            let deficit = needed + margin - ctx.fast_free();
            let units = deficit.div_ceil(span) as usize;
            let mut victims = ctx.cold_fast_units(units);
            // Direct-reclaim escalation, tightly budgeted: when the LRU
            // has nothing cold (every fast page is being re-referenced)
            // a few top-bin candidates may still displace
            // merely-recent pages — without this, a colocated streamer
            // could pin the whole fast tier forever.
            let shortfall = units.saturating_sub(victims.len()).min(8);
            if shortfall > 0 {
                victims.extend(ctx.reclaim_fast_units(shortfall));
            }
            for cold in victims {
                ctx.demote(cold);
                // The kernel LRU said this unit is inactive (or it lost
                // a direct-reclaim race); decay its stale PAC so it
                // must re-earn promotion (prevents promote/demote
                // ping-pong on historical criticality).
                self.store_decay_unit(cold, span);
            }
        }
        for p in &candidates {
            ctx.promote(*p);
        }

        ctx.telemetry("bin_width", self.bins.width());
        ctx.telemetry("candidates", candidates.len() as f64);
        ctx.telemetry("tracked_pages", self.store.tracked_pages() as f64);
        ctx.telemetry("slow_mlp", mlp);
        ctx.telemetry("est_slow_stalls", stalls);

        // Mirror the decision series into the machine's metrics
        // registry so traced runs carry them per window (registration
        // is idempotent; this runs once per period, off the hot path).
        let bin_width = self.bins.width();
        let tracked = self.store.tracked_pages() as f64;
        let ordered = candidates.len() as u64;
        let m = ctx.metrics();
        let c = m.counter("pact/promotions_ordered");
        m.inc(c, ordered);
        let g = m.gauge("pact/bin_width");
        m.set(g, bin_width);
        let t = m.gauge("pact/tracked_pages");
        m.set(t, tracked);
    }

    /// The configuration a frame must have been captured under.
    fn config_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put(&self.cfg);
        w.into_bytes()
    }

    fn store_decay_unit(&mut self, head: PageId, span: u64) {
        for off in 0..span {
            let page = PageId(head.0 + off);
            if self.store.pac(page) > 0.0 {
                let e = self.store.entry(page).copied().unwrap_or_default();
                // Reinsert with halved PAC via the attribution path's
                // invariant-preserving accessor.
                self.store.set_pac(page, e.pac * 0.5);
            }
        }
    }
}

impl TieringPolicy for PactPolicy {
    fn name(&self) -> &str {
        match self.cfg.rank_by {
            RankBy::Pac => "pact",
            RankBy::Frequency => "pact-freq",
        }
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.k = self
            .cfg
            .k_override
            .unwrap_or(info.latency_cycles[Tier::Slow.index()] as f64);
        self.store = PacStore::for_pages(info.total_pages);
        self.bins = AdaptiveBins::new(&self.cfg);
        self.windows_seen = 0;
        self.last_period_snapshot = PmuCounters::default();
        self.failures_seen = 0;
        self.rejections_seen = 0;
    }

    fn on_sample(&mut self, ev: &SampleEvent, _ctx: &mut PolicyCtx) {
        if self.cfg.sampling != SamplingSource::Pebs {
            return; // CHMU mode reads device counters at window ends
        }
        if let SampleEvent::Pebs {
            page,
            tier: Tier::Slow,
            latency,
            ..
        } = *ev
        {
            self.store.record_sample(page, latency);
        }
    }

    fn on_window(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        self.windows_seen += 1;
        if self.windows_seen.is_multiple_of(self.cfg.period_windows) {
            self.run_period(win, ctx);
        }
    }

    /// The configuration's bytes, then the run state.
    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        let mut w = ByteWriter::new();
        w.put(&self.config_bytes());
        self.put_state(&mut w);
        out.extend_from_slice(&w.into_bytes());
        true
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        let mut r = ByteReader::new(state);
        if r.get_bytes().map_err(|e| e.to_string())? != self.config_bytes() {
            return Err("snapshot was captured under a different PACT configuration".into());
        }
        self.get_state(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())
    }
}

pact_stats::codec! {
    impl State for PactPolicy {
        k, windows_seen, failures_seen, rejections_seen, last_period_snapshot,
        store: state, bins: state;
        cfg: _, // checked ahead of the run state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_tiersim::{
        Access, Machine, MachineConfig, PebsScope, RunSpec, TraceWorkload, PAGE_BYTES,
    };

    fn mixed_workload() -> TraceWorkload {
        // Half the pages are pointer-chased (critical), half streamed.
        let mut trace = Vec::new();
        let mut x = 1u64;
        for rep in 0..40u64 {
            // Stream over pages 0..256 (cheap).
            for p in 0..256u64 {
                for l in 0..4u64 {
                    trace.push(Access::load(p * PAGE_BYTES + l * 64).with_work(1));
                }
            }
            // Chase over pages 256..512 (critical).
            for _ in 0..1024 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(rep);
                let p = 256 + x % 256;
                let l = (x >> 32) % 64;
                trace.push(Access::dependent_load(p * PAGE_BYTES + l * 64).with_work(1));
            }
        }
        TraceWorkload::new("mixed", 512 * PAGE_BYTES, trace)
    }

    fn small_cfg(fast_pages: u64) -> MachineConfig {
        let mut cfg = MachineConfig::skylake_cxl(fast_pages);
        cfg.llc.size_bytes = 64 * 1024;
        cfg.window_cycles = 100_000;
        cfg.pebs.rate = 20;
        cfg.pebs.scope = PebsScope::SlowOnly;
        cfg
    }

    #[test]
    fn pact_runs_and_promotes() {
        let wl = mixed_workload();
        let m = Machine::new(small_cfg(128)).unwrap();
        let mut p = PactPolicy::new(PactConfig::default()).unwrap();
        let r = m.try_run(&wl, &mut p).expect("run succeeds");
        assert!(r.promotions > 0, "PACT never promoted");
        assert_eq!(r.policy, "pact");
    }

    #[test]
    fn pact_beats_first_touch_on_mixed_workload() {
        let wl = mixed_workload();
        let m = Machine::new(small_cfg(192)).unwrap();
        let mut pact = PactPolicy::new(PactConfig::default()).unwrap();
        let r_pact = m.try_run(&wl, &mut pact).expect("run succeeds");
        let r_ft = m
            .try_run(&wl, &mut pact_tiersim::FirstTouch::new())
            .expect("run succeeds");
        assert!(
            r_pact.total_cycles < r_ft.total_cycles,
            "pact {} vs first-touch {}",
            r_pact.total_cycles,
            r_ft.total_cycles
        );
    }

    #[test]
    fn pact_prefers_chased_pages() {
        // Profile with no fast tier so promotions cannot mask PAC
        // accumulation: the chased half must accumulate clearly more
        // criticality than the equally-touched streamed half.
        let wl = mixed_workload();
        let m = Machine::new(small_cfg(0)).unwrap();
        let mut p = PactPolicy::new(PactConfig::default()).unwrap();
        let r = m.try_run(&wl, &mut p).expect("run succeeds");
        // Inspect the PAC store: chased pages should carry higher PAC.
        let mut chase_pac = 0.0;
        let mut stream_pac = 0.0;
        for (page, e) in p.store().iter() {
            if page.0 >= 256 {
                chase_pac += e.pac;
            } else {
                stream_pac += e.pac;
            }
        }
        assert!(
            chase_pac > 2.0 * stream_pac,
            "chase {chase_pac:.0} vs stream {stream_pac:.0} (promotions {})",
            r.promotions
        );
    }

    #[test]
    fn frequency_mode_reports_distinct_name() {
        let cfg = PactConfig {
            rank_by: RankBy::Frequency,
            ..PactConfig::default()
        };
        let p = PactPolicy::new(cfg).unwrap();
        assert_eq!(p.name(), "pact-freq");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = PactConfig {
            period_windows: 0,
            ..PactConfig::default()
        };
        assert!(PactPolicy::new(cfg).is_err());
    }

    #[test]
    fn telemetry_includes_bin_width() {
        let wl = mixed_workload();
        let m = Machine::new(small_cfg(128)).unwrap();
        let mut p = PactPolicy::new(PactConfig::default()).unwrap();
        let r = m.try_run(&wl, &mut p).expect("run succeeds");
        let has_width = r
            .windows
            .iter()
            .any(|w| w.telemetry.iter().any(|(k, _)| *k == "bin_width"));
        assert!(has_width);
    }

    #[test]
    fn period_windows_batches_updates() {
        let wl = mixed_workload();
        let m = Machine::new(small_cfg(128)).unwrap();
        let cfg = PactConfig {
            period_windows: 4,
            ..PactConfig::default()
        };
        let mut p = PactPolicy::new(cfg).unwrap();
        let r = m.try_run(&wl, &mut p).expect("run succeeds");
        // Telemetry only lands on period boundaries: at most 1/4 of
        // windows carry it.
        let with_telem = r.windows.iter().filter(|w| !w.telemetry.is_empty()).count();
        assert!(with_telem <= r.windows.len() / 4 + 1);
    }

    #[test]
    fn chmu_sampling_source_works() {
        let wl = mixed_workload();
        let mut cfg = small_cfg(192);
        cfg.chmu_counters = 1_024;
        let m = Machine::new(cfg).unwrap();
        let pact_cfg = PactConfig {
            sampling: crate::SamplingSource::Chmu,
            ..PactConfig::default()
        };
        let mut p = PactPolicy::new(pact_cfg).unwrap();
        let r = m.try_run(&wl, &mut p).expect("run succeeds");
        assert!(r.promotions > 0, "CHMU-driven PACT never promoted");
        // Device-side counting sees every slow miss, so tracking volume
        // exceeds what 1-in-N PEBS sampling would deliver.
        assert!(p.store().global_samples() > r.counters.pebs_samples);
    }

    #[test]
    fn audit_passes_after_a_real_run() {
        let wl = mixed_workload();
        let m = Machine::new(small_cfg(128)).unwrap();
        let mut p = PactPolicy::new(PactConfig::default()).unwrap();
        p.audit().unwrap(); // fresh policy is consistent
        m.try_run(&wl, &mut p).expect("run succeeds");
        p.audit().unwrap();
    }

    #[test]
    fn pact_survives_kill_resume_byte_identically() {
        let wl = mixed_workload();
        let mut mcfg = small_cfg(128);
        mcfg.snapshot_every = 3;
        mcfg.track_page_stalls = true;
        let m = Machine::new(mcfg).unwrap();
        let mut snaps = Vec::new();
        let reference = m
            .run(RunSpec {
                snapshot_sink: Some(&mut |s| snaps.push(s)),
                ..RunSpec::new(&[&wl], &mut PactPolicy::new(PactConfig::default()).unwrap())
            })
            .unwrap();
        assert!(!snaps.is_empty());
        assert!(reference.promotions > 0);
        let ref_dbg = format!("{reference:?}");
        for snap in &snaps {
            let mut p = PactPolicy::new(PactConfig::default()).unwrap();
            let resumed = m
                .run(RunSpec {
                    resume_from: Some(snap),
                    ..RunSpec::new(&[&wl], &mut p)
                })
                .unwrap();
            assert_eq!(
                format!("{resumed:?}"),
                ref_dbg,
                "divergence resuming from window {:?}",
                snap.window()
            );
            p.audit().unwrap();
        }
        // Resuming under a different PACT configuration is rejected.
        let other = PactConfig {
            period_windows: 2,
            ..PactConfig::default()
        };
        let mut p = PactPolicy::new(other).unwrap();
        let err = m
            .run(RunSpec {
                resume_from: Some(&snaps[0]),
                ..RunSpec::new(&[&wl], &mut p)
            })
            .unwrap_err();
        assert!(err.to_string().contains("configuration"), "{err}");
    }

    #[test]
    fn policy_is_reusable_across_runs() {
        let wl = mixed_workload();
        let m = Machine::new(small_cfg(128)).unwrap();
        let mut p = PactPolicy::new(PactConfig::default()).unwrap();
        let r1 = m.try_run(&wl, &mut p).expect("run succeeds");
        let r2 = m.try_run(&wl, &mut p).expect("run succeeds"); // prepare() resets state
        assert_eq!(r1.total_cycles, r2.total_cycles);
        assert_eq!(r1.promotions, r2.promotions);
    }
}
