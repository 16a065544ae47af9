//! Soar (OSDI '25): offline profiling-driven, object-granular memory
//! allocation.
//!
//! Soar is a two-phase system: an offline profiling run scores each
//! allocation ("object") by its Amortized Offcore Latency (AOL =
//! latency / system-wide MLP, accumulated over samples), and the real
//! run *allocates* the highest-criticality-density objects into the
//! fast tier, statically — no runtime migration. The paper uses it as
//! the strongest (if not directly comparable) reference point; it wins
//! when object-level placement captures the workload and loses when a
//! single huge object exceeds the fast tier (their bc-kron analysis).

use pact_tiersim::{
    Machine, MachineConfig, MachineInfo, PageId, PebsScope, PolicyCtx, Region, SampleEvent, Tier,
    TieringPolicy, WindowStats, Workload, PAGE_BYTES,
};

/// One profiled object's criticality.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionScore {
    /// The profiled region.
    pub region: Region,
    /// Accumulated AOL score (sampled latency / system MLP).
    pub score: f64,
}

impl RegionScore {
    /// Criticality density: score per page (Soar packs by density).
    pub fn density(&self) -> f64 {
        let pages = (self.region.bytes / PAGE_BYTES).max(1);
        self.score / pages as f64
    }
}

/// The offline profile of one workload.
#[derive(Debug, Clone, Default)]
pub struct SoarProfile {
    /// Per-region scores, in workload region order.
    pub regions: Vec<RegionScore>,
}

/// Runs Soar's offline profiling pass: the workload executes on a
/// DRAM-only configuration with both-tier PEBS, and every sample's
/// `latency / system-MLP` accrues to its region.
///
/// Single-process only (Soar profiles one application at a time).
///
/// # Panics
///
/// Panics if `workload` cannot run at all (no streams, or an address
/// beyond its declared footprint).
pub fn profile(base_cfg: &MachineConfig, workload: &dyn Workload) -> SoarProfile {
    let mut cfg = base_cfg.clone();
    cfg.fast_tier_pages = u64::MAX / PAGE_BYTES; // DRAM-only profiling box
    cfg.pebs.scope = PebsScope::BothTiers;
    #[expect(
        clippy::expect_used,
        reason = "the profiling box is the caller's validated config with only the fast-tier \
                  size and PEBS scope widened, both to values the constructor accepts"
    )]
    let machine = Machine::new(cfg).expect("profiling config is valid");
    let mut profiler = Profiler::new(workload.regions());
    let run = machine.try_run(workload, &mut profiler);
    #[expect(
        clippy::expect_used,
        reason = "a workload that runs at all runs here too; the bench harness runs its \
                  DRAM-only baseline first and reports its error"
    )]
    run.expect("workload runs on the profiling box");
    profiler.finish()
}

struct Profiler {
    regions: Vec<Region>,
    /// Per-region sampled latency accumulated in the open window.
    window_latency: Vec<f64>,
    scores: Vec<f64>,
}

impl Profiler {
    fn new(regions: Vec<Region>) -> Self {
        let n = regions.len();
        Self {
            regions,
            window_latency: vec![0.0; n],
            scores: vec![0.0; n],
        }
    }

    fn region_of(&self, vaddr: u64) -> Option<usize> {
        // Regions are laid out in address order by LayoutBuilder.
        self.regions
            .binary_search_by(|r| {
                if vaddr < r.start {
                    std::cmp::Ordering::Greater
                } else if vaddr >= r.start + r.bytes {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
    }

    fn finish(self) -> SoarProfile {
        SoarProfile {
            regions: self
                .regions
                .into_iter()
                .zip(self.scores)
                .map(|(region, score)| RegionScore { region, score })
                .collect(),
        }
    }
}

impl TieringPolicy for Profiler {
    fn name(&self) -> &str {
        "soar-profiler"
    }

    fn pebs_scope(&self) -> Option<PebsScope> {
        Some(PebsScope::BothTiers)
    }

    fn on_sample(&mut self, ev: &SampleEvent, _ctx: &mut PolicyCtx) {
        if let SampleEvent::Pebs { vaddr, latency, .. } = *ev {
            if let Some(i) = self.region_of(vaddr) {
                self.window_latency[i] += latency as f64;
            }
        }
    }

    fn on_window(&mut self, win: &WindowStats, _ctx: &mut PolicyCtx) {
        // AOL: amortize this window's sampled latencies by the
        // system-wide MLP of the window (Soar has no per-tier split).
        let d = &win.delta;
        let occ = d.tor_occupancy[0] + d.tor_occupancy[1];
        let busy = d.tor_busy[0] + d.tor_busy[1];
        let mlp = if busy == 0 {
            1.0
        } else {
            (occ as f64 / busy as f64).max(1.0)
        };
        for (score, lat) in self.scores.iter_mut().zip(&mut self.window_latency) {
            *score += *lat / mlp;
            *lat = 0.0;
        }
    }
}

/// The Soar placement policy: allocates profiled-critical objects into
/// the fast tier at first touch and never migrates.
#[derive(Debug, Clone)]
pub struct Soar {
    /// Page ranges (inclusive start, exclusive end) placed fast, sorted.
    fast_ranges: Vec<(u64, u64)>,
}

impl Soar {
    /// Builds the placement from a profile and the fast-tier budget:
    /// regions are packed greedily by criticality density until
    /// `fast_pages` is exhausted (partially fitting regions take their
    /// prefix, mirroring Soar's sub-object splitting fallback).
    pub fn from_profile(profile: &SoarProfile, fast_pages: u64) -> Self {
        let mut scored: Vec<&RegionScore> = profile.regions.iter().collect();
        scored.sort_by(|a, b| {
            b.density()
                .partial_cmp(&a.density())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut budget = fast_pages;
        let mut fast_ranges = Vec::new();
        for rs in scored {
            if budget == 0 {
                break;
            }
            if rs.score <= 0.0 {
                continue;
            }
            let start_page = rs.region.start / PAGE_BYTES;
            let pages = (rs.region.bytes / PAGE_BYTES).max(1);
            let take = pages.min(budget);
            fast_ranges.push((start_page, start_page + take));
            budget -= take;
        }
        fast_ranges.sort_unstable();
        Self { fast_ranges }
    }

    /// The chosen fast page ranges (for inspection).
    pub fn fast_ranges(&self) -> &[(u64, u64)] {
        &self.fast_ranges
    }

    fn is_fast(&self, page: PageId) -> bool {
        let p = page.0;
        self.fast_ranges
            .binary_search_by(|&(s, e)| {
                if p < s {
                    std::cmp::Ordering::Greater
                } else if p >= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }
}

impl TieringPolicy for Soar {
    fn name(&self) -> &str {
        "soar"
    }

    fn prepare(&mut self, _info: &MachineInfo) {}

    fn place(&self, page: PageId) -> Option<Tier> {
        Some(if self.is_fast(page) {
            Tier::Fast
        } else {
            Tier::Slow
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run;
    use pact_tiersim::{Access, AccessStream, FirstTouch, MachineConfig, VecStream};

    /// Two-region workload: region A is streamed once (cold); region B
    /// is pointer-chased heavily (critical). First-touch puts A fast.
    #[derive(Debug)]
    struct TwoRegion;

    impl Workload for TwoRegion {
        fn name(&self) -> String {
            "two-region".into()
        }
        fn footprint_bytes(&self) -> u64 {
            256 * PAGE_BYTES
        }
        fn regions(&self) -> Vec<Region> {
            vec![
                Region::new("cold_stream", 0, 128 * PAGE_BYTES),
                Region::new("hot_chase", 128 * PAGE_BYTES, 128 * PAGE_BYTES),
            ]
        }
        fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
            let mut trace = Vec::new();
            for l in 0..128 * 64u64 {
                trace.push(Access::load(l * 64));
            }
            let mut x = 9u64;
            for _ in 0..150_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(5);
                let p = 128 + x % 128;
                trace.push(Access::dependent_load(
                    p * PAGE_BYTES + ((x >> 40) % 64) * 64,
                ));
            }
            vec![Box::new(VecStream::new(trace))]
        }
    }

    fn cfg(fast: u64) -> MachineConfig {
        let mut c = crate::testing::cfg(fast);
        c.pebs.rate = 20;
        c
    }

    #[test]
    fn profile_scores_chased_region_higher() {
        let p = profile(&cfg(0), &TwoRegion);
        assert_eq!(p.regions.len(), 2);
        let cold = &p.regions[0];
        let hot = &p.regions[1];
        assert!(
            hot.score > 3.0 * cold.score,
            "hot {} vs cold {}",
            hot.score,
            cold.score
        );
    }

    #[test]
    fn placement_packs_by_density() {
        let p = profile(&cfg(0), &TwoRegion);
        let soar = Soar::from_profile(&p, 128);
        // The chased region's pages (128..256) should be chosen.
        assert!(soar.is_fast(PageId(200)));
        assert!(!soar.is_fast(PageId(10)));
    }

    #[test]
    fn soar_beats_first_touch_on_inverted_layout() {
        let p = profile(&cfg(0), &TwoRegion);
        let mut soar = Soar::from_profile(&p, 128);
        let r_soar = run(&cfg(128), &TwoRegion, &mut soar);
        let r_ft = run(&cfg(128), &TwoRegion, &mut FirstTouch::new());
        assert!(
            r_soar.total_cycles < r_ft.total_cycles,
            "soar {} vs first-touch {}",
            r_soar.total_cycles,
            r_ft.total_cycles
        );
        assert_eq!(r_soar.promotions, 0, "Soar never migrates");
    }

    #[test]
    fn partial_region_takes_prefix() {
        let p = SoarProfile {
            regions: vec![RegionScore {
                region: Region::new("big", 0, 100 * PAGE_BYTES),
                score: 10.0,
            }],
        };
        let soar = Soar::from_profile(&p, 40);
        assert_eq!(soar.fast_ranges(), &[(0, 40)]);
    }

    #[test]
    fn zero_score_regions_are_skipped() {
        let p = SoarProfile {
            regions: vec![RegionScore {
                region: Region::new("untouched", 0, 10 * PAGE_BYTES),
                score: 0.0,
            }],
        };
        let soar = Soar::from_profile(&p, 100);
        assert!(soar.fast_ranges().is_empty());
    }
}
