//! Set-associative last-level cache and stride prefetcher.

use crate::config::{LlcConfig, PrefetchConfig};
use crate::types::LINE_BYTES;

const INVALID: u64 = u64::MAX;

/// A set-associative LLC with per-set LRU replacement.
///
/// Tags are full line addresses; storage is a flat array of
/// `sets * ways` tags ordered most-recently-used first within each set,
/// so a probe is a short linear scan and a hit is a rotate-to-front.
#[derive(Debug, Clone)]
pub struct Llc {
    tags: Vec<u64>,
    ways: usize,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the number of sets is not a power of two (required for
    /// mask indexing) or zero.
    pub fn new(cfg: LlcConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "LLC set count must be a power of two"
        );
        Self {
            tags: vec![INVALID; sets * cfg.ways],
            ways: cfg.ways,
            set_mask: sets as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & self.set_mask) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up `line` (a line address, i.e. byte address / 64), updating
    /// LRU state and inserting on miss. Returns `true` on hit.
    pub fn access(&mut self, line: u64) -> bool {
        let range = self.set_range(line);
        let set = &mut self.tags[range];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            // Miss: evict LRU (last slot), insert at MRU.
            set.rotate_right(1);
            set[0] = line;
            self.misses += 1;
            false
        }
    }

    /// Probes without inserting or updating LRU. Returns `true` if present.
    pub fn contains(&self, line: u64) -> bool {
        let range = self.set_range(line);
        self.tags[range].contains(&line)
    }

    /// Inserts `line` at MRU position without counting a demand access
    /// (used for prefetch fills). Returns `true` if it was already present.
    pub fn fill(&mut self, line: u64) -> bool {
        let range = self.set_range(line);
        let set = &mut self.tags[range];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[..=pos].rotate_right(1);
            true
        } else {
            set.rotate_right(1);
            set[0] = line;
            false
        }
    }

    /// Inserts `line`, which the caller knows is absent, at MRU position
    /// without counting a demand access: [`fill`](Self::fill) minus its
    /// presence scan, for a caller that has just probed with
    /// [`contains`](Self::contains).
    pub(crate) fn insert_absent(&mut self, line: u64) {
        let range = self.set_range(line);
        let set = &mut self.tags[range];
        debug_assert!(!set.contains(&line), "line {line} is already cached");
        set.rotate_right(1);
        set[0] = line;
    }

    /// Demand hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

// The tag array and hit/miss counters; the geometry comes from the
// configuration that built the cache.
pact_stats::codec! {
    impl State for Llc {
        tags: fixed, hits, misses;
        ways: _,     // geometry from the configuration on restore
        set_mask: _, // geometry from the configuration on restore
    }
}

/// Multi-stream stride detector driving the hardware prefetcher model.
///
/// Real L2 streamers track many concurrent streams (one per accessed
/// page region), so interleaved scans — an adjacency list walked in
/// lockstep with a weight array and scattered state reads — still
/// prefetch. This detector keeps a small table of recent streams; an
/// access extends the stream whose last line it succeeds, and after
/// `trigger` consecutive extensions the stream prefetches `degree`
/// lines ahead.
#[derive(Debug, Clone)]
pub struct StrideDetector {
    streams: [StreamEntry; STREAM_TABLE],
    clock: u64,
    trigger: u32,
    degree: u32,
    enabled: bool,
}

const STREAM_TABLE: usize = 8;

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    last_line: u64,
    streak: u32,
    last_use: u64,
}

impl StrideDetector {
    /// Creates a detector from the prefetch configuration.
    pub fn new(cfg: &PrefetchConfig) -> Self {
        Self {
            streams: [StreamEntry {
                last_line: u64::MAX - 1,
                streak: 0,
                last_use: 0,
            }; STREAM_TABLE],
            clock: 0,
            trigger: cfg.trigger,
            degree: cfg.degree,
            enabled: cfg.enabled,
        }
    }

    /// Observes a demand access to `line`; returns the range of lines to
    /// prefetch (possibly empty).
    pub fn observe(&mut self, line: u64) -> std::ops::Range<u64> {
        if !self.enabled {
            return 0..0;
        }
        self.clock += 1;
        // Extend an existing stream? The scan also finds the least
        // recently used entry, first on ties, for a new stream.
        let (mut victim, mut victim_use) = (0, u64::MAX);
        for (i, e) in self.streams.iter_mut().enumerate() {
            if line == e.last_line.wrapping_add(1) {
                e.last_line = line;
                e.streak += 1;
                e.last_use = self.clock;
                if e.streak >= self.trigger {
                    return line + 1..line + 1 + self.degree as u64;
                }
                return 0..0;
            }
            if line == e.last_line {
                e.last_use = self.clock;
                return 0..0; // same-line re-access: keep stream state
            }
            if e.last_use < victim_use {
                (victim, victim_use) = (i, e.last_use);
            }
        }
        // New stream: replace the least recently used entry.
        let victim = &mut self.streams[victim];
        victim.last_line = line;
        victim.streak = 0;
        victim.last_use = self.clock;
        0..0
    }
}

pact_stats::codec! {
    impl Codec for StreamEntry { last_line, streak, last_use }
}

// The stream table and detector clock.
pact_stats::codec! {
    impl State for StrideDetector {
        streams, clock;
        // Fixed by the prefetch configuration on restore.
        trigger: _, degree: _, enabled: _,
    }
}

/// Converts a byte address to its line address.
#[inline]
pub fn line_of(vaddr: u64) -> u64 {
    vaddr / LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_stats::{ByteWriter, State};

    fn small_llc() -> Llc {
        // 2 sets x 2 ways.
        Llc::new(LlcConfig {
            size_bytes: 4 * LINE_BYTES,
            ways: 2,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut llc = small_llc();
        assert!(!llc.access(10));
        assert!(llc.access(10));
        assert_eq!(llc.hits(), 1);
        assert_eq!(llc.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut llc = small_llc();
        // Lines 0, 2, 4 all map to set 0 (even line addresses).
        llc.access(0);
        llc.access(2);
        llc.access(0); // 0 becomes MRU; LRU is 2.
        llc.access(4); // evicts 2.
        assert!(llc.contains(0));
        assert!(llc.contains(4));
        assert!(!llc.contains(2));
    }

    #[test]
    fn sets_are_independent() {
        let mut llc = small_llc();
        llc.access(0); // set 0
        llc.access(1); // set 1
        llc.access(3); // set 1
        llc.access(5); // set 1, evicts 1
        assert!(llc.contains(0));
        assert!(!llc.contains(1));
    }

    #[test]
    fn fill_does_not_count_demand() {
        let mut llc = small_llc();
        assert!(!llc.fill(8));
        assert_eq!(llc.misses(), 0);
        assert!(llc.access(8));
        assert_eq!(llc.hits(), 1);
    }

    #[test]
    fn fill_existing_reports_present() {
        let mut llc = small_llc();
        llc.access(8);
        assert!(llc.fill(8));
    }

    #[test]
    fn insert_absent_matches_fill_on_absent_lines() {
        let mut fast = small_llc();
        let mut reference = small_llc();
        let mut rng = pact_stats::SplitMix64::seed_from_u64(3);
        for _ in 0..10_000 {
            let line = rng.next_u64() % 16;
            if rng.next_u64().is_multiple_of(2) {
                assert_eq!(fast.access(line), reference.access(line));
            } else if !fast.contains(line) {
                fast.insert_absent(line);
                assert!(!reference.fill(line));
            }
        }
        let (mut a, mut b) = (ByteWriter::new(), ByteWriter::new());
        fast.put_state(&mut a);
        reference.put_state(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    /// The two-pass `observe` the single-pass scan replaced: match
    /// scan, then `min_by_key` for the victim.
    fn observe_reference(d: &mut StrideDetector, line: u64) -> std::ops::Range<u64> {
        if !d.enabled {
            return 0..0;
        }
        d.clock += 1;
        for e in &mut d.streams {
            if line == e.last_line.wrapping_add(1) {
                e.last_line = line;
                e.streak += 1;
                e.last_use = d.clock;
                if e.streak >= d.trigger {
                    return line + 1..line + 1 + d.degree as u64;
                }
                return 0..0;
            }
            if line == e.last_line {
                e.last_use = d.clock;
                return 0..0;
            }
        }
        let victim = d.streams.iter_mut().min_by_key(|e| e.last_use).unwrap();
        victim.last_line = line;
        victim.streak = 0;
        victim.last_use = d.clock;
        0..0
    }

    #[test]
    fn single_pass_observe_matches_min_by_key_reference() {
        let cfg = PrefetchConfig {
            enabled: true,
            trigger: 2,
            degree: 4,
            coverage: 1.0,
        };
        let mut rng = pact_stats::SplitMix64::seed_from_u64(11);
        let mut fast = StrideDetector::new(&cfg);
        let mut reference = fast.clone();
        // A mix of interleaved sequential streams, re-accesses and
        // jumps; the fresh table's all-zero `last_use` covers ties.
        let mut heads = [0u64, 1_000, 50_000, 7];
        for step in 0..50_000 {
            let k = (rng.next_u64() % heads.len() as u64) as usize;
            let line = match rng.next_u64() % 8 {
                0 => rng.next_u64() % 100_000,
                1 => heads[k],
                _ => {
                    heads[k] += 1;
                    heads[k]
                }
            };
            assert_eq!(
                fast.observe(line),
                observe_reference(&mut reference, line),
                "step {step}"
            );
        }
        let (mut a, mut b) = (ByteWriter::new(), ByteWriter::new());
        fast.put_state(&mut a);
        reference.put_state(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn stride_detector_triggers_after_streak() {
        let cfg = PrefetchConfig {
            enabled: true,
            trigger: 3,
            degree: 2,
            coverage: 1.0,
        };
        let mut d = StrideDetector::new(&cfg);
        assert!(d.observe(100).is_empty());
        assert!(d.observe(101).is_empty());
        assert!(d.observe(102).is_empty());
        let r = d.observe(103); // 3 consecutive strides now
        assert_eq!(r, 104..106);
    }

    #[test]
    fn stride_detector_resets_on_jump() {
        let cfg = PrefetchConfig {
            enabled: true,
            trigger: 2,
            degree: 1,
            coverage: 1.0,
        };
        let mut d = StrideDetector::new(&cfg);
        d.observe(10);
        d.observe(11);
        assert!(!d.observe(12).is_empty());
        // A jump starts a new stream that must re-earn its streak.
        assert!(d.observe(500).is_empty());
        assert!(d.observe(501).is_empty());
        assert!(!d.observe(502).is_empty());
    }

    #[test]
    fn interleaved_streams_both_prefetch() {
        let cfg = PrefetchConfig {
            enabled: true,
            trigger: 2,
            degree: 2,
            coverage: 1.0,
        };
        let mut d = StrideDetector::new(&cfg);
        // Two interleaved sequential streams plus random noise.
        let mut fired = 0;
        for i in 0..10u64 {
            if !d.observe(100 + i).is_empty() {
                fired += 1;
            }
            if !d.observe(9_000 + i).is_empty() {
                fired += 1;
            }
            d.observe(777_000 + i * 131); // noise, non-sequential
        }
        assert!(fired >= 14, "both streams should prefetch, fired {fired}");
    }

    #[test]
    fn repeated_same_line_does_not_reset_streak() {
        let cfg = PrefetchConfig {
            enabled: true,
            trigger: 2,
            degree: 1,
            coverage: 1.0,
        };
        let mut d = StrideDetector::new(&cfg);
        d.observe(10);
        d.observe(11);
        d.observe(12);
        // Same-line re-access emits nothing but keeps the stream alive:
        // the next sequential line still prefetches.
        assert!(d.observe(12).is_empty());
        assert!(
            !d.observe(13).is_empty(),
            "stream state survived the re-access"
        );
    }

    #[test]
    fn disabled_detector_never_prefetches() {
        let cfg = PrefetchConfig {
            enabled: false,
            trigger: 1,
            degree: 8,
            coverage: 1.0,
        };
        let mut d = StrideDetector::new(&cfg);
        for i in 0..100 {
            assert!(d.observe(i).is_empty());
        }
    }

    #[test]
    fn line_of_divides_by_line_size() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_of(4096), 64);
    }
}
