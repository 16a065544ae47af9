//! Machine configuration and hardware presets.

use crate::fault::FaultPlan;
use crate::invariant::InvariantSet;
use crate::types::{Tier, HUGE_PAGE_SPAN, LINE_BYTES, PAGE_BYTES};

/// Configuration of one memory tier: unloaded latency and peak bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Unloaded access latency in nanoseconds.
    pub latency_ns: f64,
    /// Peak bandwidth in GB/s.
    pub bandwidth_gbps: f64,
}

impl TierConfig {
    /// Local DRAM on the paper's Skylake testbed: 90 ns, 52 GB/s.
    pub const LOCAL_DRAM: TierConfig = TierConfig {
        latency_ns: 90.0,
        bandwidth_gbps: 52.0,
    };
    /// Cross-socket NUMA: 140 ns, 32 GB/s.
    pub const REMOTE_NUMA: TierConfig = TierConfig {
        latency_ns: 140.0,
        bandwidth_gbps: 32.0,
    };
    /// Emulated CXL (uncore-throttled remote node): 190 ns, 32 GB/s.
    pub const EMULATED_CXL: TierConfig = TierConfig {
        latency_ns: 190.0,
        bandwidth_gbps: 32.0,
    };

    /// Latency in core cycles at `freq_ghz`.
    pub fn latency_cycles(&self, freq_ghz: f64) -> u64 {
        (self.latency_ns * freq_ghz).round() as u64
    }

    /// Channel occupancy of one 64-byte line transfer, in core cycles.
    pub fn line_transfer_cycles(&self, freq_ghz: f64) -> f64 {
        LINE_BYTES as f64 * freq_ghz / self.bandwidth_gbps
    }
}

/// Last-level cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl LlcConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into at least one set.
    pub fn sets(&self) -> usize {
        let sets = self.size_bytes / (self.ways as u64 * LINE_BYTES);
        assert!(sets > 0, "LLC too small for its associativity");
        sets as usize
    }
}

/// Hardware stride-prefetcher model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchConfig {
    /// Master enable.
    pub enabled: bool,
    /// Consecutive-line streak required before prefetching starts.
    pub trigger: u32,
    /// Lines fetched ahead once streaming.
    pub degree: u32,
    /// Fraction of prefetches that arrive in time to convert a would-be
    /// miss into a hit. Real prefetchers are imperfect; this keeps
    /// streaming phases from becoming miss-free.
    pub coverage: f64,
}

impl PrefetchConfig {
    /// The coverage dice as an integer threshold: a prefetch survives
    /// when the 53-bit draw `x = next_u64() >> 11` is below
    /// `ceil(coverage * 2^53)`. For integer `x < 2^53` and `coverage` in
    /// `[0, 1]`, `x * 2^-53 >= coverage` exactly when
    /// `x >= ceil(coverage * 2^53)`: both products scale by a power of
    /// two and are exact, so this is the f64 draw's event bit for bit.
    pub(crate) fn coverage_threshold(&self) -> u64 {
        (self.coverage * (1u64 << 53) as f64).ceil() as u64
    }
}

/// Which LLC misses the PEBS sampler observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PebsScope {
    /// Sample only slow-tier demand load misses (PACT's default: the
    /// `MEM_LOAD_L3_MISS_RETIRE` remote-node event).
    SlowOnly,
    /// Sample demand load misses to both tiers (Memtis-style).
    BothTiers,
}

/// PEBS-style hardware sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PebsConfig {
    /// Sampling period: one sample is taken every `rate` qualifying events.
    pub rate: u64,
    /// Which tiers' misses qualify.
    pub scope: PebsScope,
    /// Cycles charged to the sampled thread per delivered sample
    /// (buffered PEBS is cheap but not free).
    pub sample_overhead_cycles: u32,
}

/// Page-migration mechanism costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Kernel CPU cycles to move one base page (`move_pages` path:
    /// unmap, copy, remap).
    pub per_page_cycles: u64,
    /// Maximum base pages the background migration daemon can move per
    /// sampling window (its CPU budget).
    pub daemon_pages_per_window: u64,
    /// Cycles a NUMA hint fault costs the faulting thread.
    pub hint_fault_cycles: u64,
    /// Per-page TLB-shootdown cost charged to every running thread when a
    /// mapped page migrates.
    pub shootdown_cycles_per_page: u64,
}

/// Full machine configuration.
///
/// Construct with [`MachineConfig::skylake_cxl`] (the paper's testbed) or
/// [`MachineConfig::default`] and adjust fields as needed. Call
/// [`validate`](Self::validate) after manual edits.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Core frequency in GHz; converts nanoseconds to cycles.
    pub freq_ghz: f64,
    /// Miss-status-holding registers per hardware thread: the per-core
    /// bound on memory-level parallelism.
    pub mshrs: usize,
    /// Cycles charged for an LLC hit (mostly hidden by the OoO window).
    pub hit_cycles: u32,
    /// Minimum cycles per retired access (issue bandwidth).
    pub issue_cycles: u32,
    /// Last-level cache geometry.
    pub llc: LlcConfig,
    /// Stride prefetcher.
    pub prefetch: PrefetchConfig,
    /// Per-tier latency/bandwidth, indexed by [`Tier::index`].
    pub tiers: [TierConfig; 2],
    /// Capacity of the fast tier in base pages. Slow tier is unbounded.
    pub fast_tier_pages: u64,
    /// Allocate and migrate at huge-page granularity.
    pub thp: bool,
    /// Base pages per huge page when `thp` is set. 512 is the real
    /// 2 MiB THP; scaled experiments use a smaller span so footprints
    /// of tens of MB still contain enough migration units (the paper's
    /// 20 GB footprints hold ~10k hugepages).
    pub thp_unit_pages: u64,
    /// Cycles per sampling/decision window (the simulator's analogue of
    /// the paper's 20 ms perf window, scaled to simulated footprints).
    pub window_cycles: u64,
    /// PEBS sampler.
    pub pebs: PebsConfig,
    /// Migration mechanism costs.
    pub migration: MigrationConfig,
    /// Hardware counters in the CXL Hotness Monitoring Unit on the slow
    /// tier's controller (0 = no CHMU; the paper's testbed has none —
    /// it is the §4.3.5 future-work sampling source).
    pub chmu_counters: usize,
    /// Record ground-truth stall cycles per page (simulator-only
    /// oracle; unobservable on real hardware). Used to validate PAC's
    /// proportional attribution (§4.3.2); costs memory and time, so it
    /// is off by default.
    pub track_page_stalls: bool,
    /// Seed for all randomized machine behaviour (prefetch coverage,
    /// hint-fault scan sampling). Runs are deterministic given the seed.
    pub seed: u64,
    /// Capture a crash-recovery snapshot every N completed windows when
    /// a snapshot sink is installed (`0` disables capture, the zero-cost
    /// default). The field is *excluded* from the snapshot
    /// configuration fingerprint, so a run may be resumed under a
    /// different capture cadence.
    pub snapshot_every: u64,
    /// Deterministic fault-injection plan ([`crate::fault`]); `None`
    /// disables injection entirely (the zero-cost default).
    pub fault_plan: Option<FaultPlan>,
    /// Runtime invariant checking ([`crate::invariant`]); `None`
    /// disables it entirely — the zero-cost default, leaving run output
    /// byte-identical to a build without the checking layer.
    pub invariants: Option<InvariantSet>,
}

impl MachineConfig {
    /// The paper's testbed: Skylake-class core (2.2 GHz, 10 MSHRs) with
    /// local DRAM as the fast tier and emulated CXL (190 ns) as the slow
    /// tier, with a fast-tier capacity of `fast_tier_pages` base pages.
    ///
    /// LLC and window sizes are scaled to simulated (tens-of-MB)
    /// footprints rather than the testbed's tens-of-GB ones.
    pub fn skylake_cxl(fast_tier_pages: u64) -> Self {
        Self {
            freq_ghz: 2.2,
            mshrs: 10,
            hit_cycles: 4,
            issue_cycles: 1,
            llc: LlcConfig {
                // Scaled with the simulated footprints (tens of MB) to
                // preserve the testbed's tiny LLC:footprint ratio.
                size_bytes: 256 << 10,
                ways: 16,
            },
            prefetch: PrefetchConfig {
                enabled: true,
                trigger: 3,
                degree: 4,
                coverage: 0.75,
            },
            tiers: [TierConfig::LOCAL_DRAM, TierConfig::EMULATED_CXL],
            fast_tier_pages,
            thp: false,
            thp_unit_pages: 16,
            window_cycles: 250_000,
            pebs: PebsConfig {
                // The paper samples 1-in-400 of billions of misses; the
                // scaled runs have ~1000x fewer misses, so the default
                // period keeps a comparable number of samples per page.
                rate: 50,
                scope: PebsScope::SlowOnly,
                sample_overhead_cycles: 30,
            },
            migration: MigrationConfig {
                per_page_cycles: 5_000,
                daemon_pages_per_window: 4_096,
                hint_fault_cycles: 1_200,
                shootdown_cycles_per_page: 30,
            },
            chmu_counters: 0,
            track_page_stalls: false,
            seed: 0x9ac7_1357,
            snapshot_every: 0,
            fault_plan: None,
            invariants: None,
        }
    }

    /// Same core but cross-socket NUMA (140 ns) as the slow tier.
    pub fn skylake_numa(fast_tier_pages: u64) -> Self {
        let mut cfg = Self::skylake_cxl(fast_tier_pages);
        cfg.tiers[Tier::Slow.index()] = TierConfig::REMOTE_NUMA;
        cfg
    }

    /// Fast tier sized to hold the whole footprint: the ideal DRAM-only
    /// baseline every slowdown is normalized against.
    pub fn dram_only() -> Self {
        Self::skylake_cxl(u64::MAX / PAGE_BYTES)
    }

    /// Latency of `tier` in core cycles.
    pub fn latency_cycles(&self, tier: Tier) -> u64 {
        self.tiers[tier.index()].latency_cycles(self.freq_ghz)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.freq_ghz > 0.0) {
            return Err(ConfigError("freq_ghz must be positive"));
        }
        if self.mshrs == 0 {
            return Err(ConfigError("mshrs must be at least 1"));
        }
        if self.llc.ways == 0 || self.llc.size_bytes < self.llc.ways as u64 * LINE_BYTES {
            return Err(ConfigError("LLC must have at least one set"));
        }
        if !self.llc.sets().is_power_of_two() {
            return Err(ConfigError("LLC set count must be a power of two"));
        }
        if self.window_cycles == 0 {
            return Err(ConfigError("window_cycles must be positive"));
        }
        if self.pebs.rate == 0 {
            return Err(ConfigError("pebs.rate must be positive"));
        }
        for t in self.tiers {
            if !(t.latency_ns > 0.0) || !(t.bandwidth_gbps > 0.0) {
                return Err(ConfigError("tier latency and bandwidth must be positive"));
            }
        }
        if !(0.0..=1.0).contains(&self.prefetch.coverage) {
            return Err(ConfigError("prefetch.coverage must be in [0, 1]"));
        }
        if !self.thp_unit_pages.is_power_of_two() || self.thp_unit_pages > HUGE_PAGE_SPAN {
            return Err(ConfigError(
                "thp_unit_pages must be a power of two no larger than 512",
            ));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate().map_err(ConfigError)?;
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::skylake_cxl(8192)
    }
}

/// Error returned by [`MachineConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError(pub(crate) &'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid machine configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

// The configuration's encoding for the snapshot fingerprint
// (`snapshot::config_fingerprint`).
pact_stats::codec! {
    impl Codec for TierConfig { latency_ns, bandwidth_gbps }
}

pact_stats::codec! {
    impl Codec for LlcConfig { size_bytes, ways }
}

pact_stats::codec! {
    impl Codec for PrefetchConfig { enabled, trigger, degree, coverage }
}

pact_stats::codec! {
    impl Codec for PebsScope { 0 => SlowOnly, 1 => BothTiers }
}

pact_stats::codec! {
    impl Codec for PebsConfig { rate, scope, sample_overhead_cycles }
}

pact_stats::codec! {
    impl Codec for MigrationConfig {
        per_page_cycles, daemon_pages_per_window, hint_fault_cycles, shootdown_cycles_per_page,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_preset_is_valid() {
        assert!(MachineConfig::skylake_cxl(1024).validate().is_ok());
        assert!(MachineConfig::skylake_numa(1024).validate().is_ok());
        assert!(MachineConfig::dram_only().validate().is_ok());
    }

    #[test]
    fn latency_cycles_scale_with_frequency() {
        let cfg = MachineConfig::skylake_cxl(0);
        assert_eq!(cfg.latency_cycles(Tier::Fast), 198); // 90ns * 2.2GHz
        assert_eq!(cfg.latency_cycles(Tier::Slow), 418); // 190ns * 2.2GHz
    }

    #[test]
    fn numa_preset_has_lower_slow_latency() {
        let cxl = MachineConfig::skylake_cxl(0);
        let numa = MachineConfig::skylake_numa(0);
        assert!(numa.latency_cycles(Tier::Slow) < cxl.latency_cycles(Tier::Slow));
    }

    #[test]
    fn transfer_cycles_reflect_bandwidth() {
        let dram = TierConfig::LOCAL_DRAM.line_transfer_cycles(2.2);
        let cxl = TierConfig::EMULATED_CXL.line_transfer_cycles(2.2);
        assert!(cxl > dram);
        assert!((dram - 64.0 * 2.2 / 52.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut cfg = MachineConfig::default();
        cfg.mshrs = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = MachineConfig::default();
        cfg.prefetch.coverage = 2.0;
        assert!(cfg.validate().is_err());
        let mut cfg = MachineConfig::default();
        cfg.pebs.rate = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fault_plan_validation_is_wired() {
        let mut cfg = MachineConfig::default();
        cfg.fault_plan = Some(FaultPlan {
            backoff_windows: 0,
            ..FaultPlan::default()
        });
        assert!(cfg.validate().is_err());
        cfg.fault_plan = Some(FaultPlan::default());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn non_power_of_two_llc_sets_fail_closed() {
        let mut cfg = MachineConfig::default();
        // 192 KiB / (16 ways * 64 B) = 192 sets.
        cfg.llc = LlcConfig {
            size_bytes: 192 << 10,
            ways: 16,
        };
        assert!(cfg.validate().is_err());
        assert!(crate::Machine::new(cfg).is_err());
    }

    #[test]
    fn coverage_threshold_matches_the_f64_draw() {
        // The f64 draw's event: `x * 2^-53 >= coverage` rejects.
        let scale = 1.0 / (1u64 << 53) as f64;
        let mut coverages = Vec::new();
        for c in [0.0f64, 1.0, 0.75] {
            coverages.extend([c.next_down(), c, c.next_up()]);
        }
        let mut rng = pact_stats::SplitMix64::seed_from_u64(5);
        for coverage in coverages {
            let pf = PrefetchConfig {
                enabled: true,
                trigger: 1,
                degree: 1,
                coverage,
            };
            let t = pf.coverage_threshold();
            let edges = [0, 1, t.saturating_sub(1), t, t + 1, (1 << 53) - 1];
            let draws = (0..10_000).map(|_| rng.next_u64() >> 11);
            for x in edges.into_iter().filter(|&x| x < 1 << 53).chain(draws) {
                assert_eq!(
                    x >= t,
                    x as f64 * scale >= coverage,
                    "coverage {coverage:e}, threshold {t}, draw {x}"
                );
            }
        }
    }

    #[test]
    fn llc_sets_computed() {
        let llc = LlcConfig {
            size_bytes: 2 << 20,
            ways: 16,
        };
        assert_eq!(llc.sets(), 2048);
    }
}
