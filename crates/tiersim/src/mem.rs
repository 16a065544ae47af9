//! Physical memory model: page table, tier residency, CLOCK-style LRU
//! lists, huge-page grouping, and hint-fault poisoning state.

use std::collections::VecDeque;

use crate::types::{PageId, Tier};

const FLAG_REF: u8 = 1 << 0;
const FLAG_POISON: u8 = 1 << 1;

const TIER_FAST: u8 = 0;
const TIER_SLOW: u8 = 1;
const NOT_PRESENT: u8 = 2;

/// The simulated memory subsystem: a flat space of base pages, each
/// resident in one tier (or not yet touched), with first-touch allocation,
/// per-unit reference bits feeding a CLOCK list (the kernel's LRU
/// approximation used for demotion), and poison bits for NUMA hint-fault
/// scanning.
///
/// A *unit* is the allocation/migration granule: one base page normally,
/// or a 512-page huge page when THP is enabled.
///
/// Page metadata is laid out struct-of-arrays: residency (`tier`) is
/// read on every access while reference/poison bits and recency stamps
/// are touched far less often, so splitting them keeps the hot
/// residency lookups at one byte per page of cache traffic (and makes
/// [`recount`](Self::recount) a dense single-vector scan).
#[derive(Debug, Clone)]
pub struct Memory {
    /// Residency code per base page (`TIER_*`/`NOT_PRESENT`).
    tier: Vec<u8>,
    /// `FLAG_*` bits per base page (reference, poison), unit-head only.
    flags: Vec<u8>,
    /// Saturating window stamp of the last touch, unit-head only.
    last_window: Vec<u32>,
    fast_capacity: u64,
    fast_used: u64,
    unit_span: u64,
    /// CLOCK list of fast-resident unit heads (approximate LRU).
    fast_clock: VecDeque<PageId>,
    /// Scan list of slow-resident unit heads (for hint-fault poisoning
    /// and promotion scans); entries may be stale and are skipped lazily.
    slow_scan: Vec<PageId>,
    slow_cursor: usize,
}

impl Memory {
    /// Creates a memory with `total_pages` of addressable base pages,
    /// `fast_capacity` base pages of fast tier, and `unit_span` base
    /// pages per allocation/migration unit (1 without THP; the
    /// configured huge-page span with it).
    ///
    /// # Panics
    ///
    /// Panics if `unit_span` is not a power of two.
    pub fn new(total_pages: u64, fast_capacity: u64, unit_span: u64) -> Self {
        assert!(
            unit_span.is_power_of_two(),
            "unit span must be a power of two"
        );
        Self {
            tier: vec![NOT_PRESENT; total_pages as usize],
            flags: vec![0; total_pages as usize],
            last_window: vec![0; total_pages as usize],
            fast_capacity,
            fast_used: 0,
            unit_span,
            fast_clock: VecDeque::new(),
            slow_scan: Vec::new(),
            slow_cursor: 0,
        }
    }

    /// Base pages per allocation/migration unit.
    #[inline]
    pub fn unit_span(&self) -> u64 {
        self.unit_span
    }

    /// Head page of the unit containing `page`.
    #[inline]
    pub fn unit_head(&self, page: PageId) -> PageId {
        PageId(page.0 & !(self.unit_span - 1))
    }

    /// Whether huge-page (multi-page-unit) mode is enabled.
    pub fn thp(&self) -> bool {
        self.unit_span > 1
    }

    /// Fast-tier capacity in base pages.
    pub fn fast_capacity(&self) -> u64 {
        self.fast_capacity
    }

    /// Base pages currently resident in the fast tier.
    pub fn fast_used(&self) -> u64 {
        self.fast_used
    }

    /// Free base pages in the fast tier.
    pub fn fast_free(&self) -> u64 {
        self.fast_capacity - self.fast_used
    }

    /// Total addressable base pages.
    pub fn total_pages(&self) -> u64 {
        self.tier.len() as u64
    }

    /// Full recount of per-tier residency from the page table:
    /// `(fast, slow)` base pages. O(total pages) — the ground truth the
    /// invariant checker compares against the incremental
    /// [`fast_used`](Self::fast_used) bookkeeping.
    pub fn recount(&self) -> (u64, u64) {
        let mut fast = 0u64;
        let mut slow = 0u64;
        for &t in &self.tier {
            match t {
                TIER_FAST => fast += 1,
                TIER_SLOW => slow += 1,
                _ => {}
            }
        }
        (fast, slow)
    }

    /// Residency of `page`, or `None` if never touched.
    #[inline]
    pub fn tier_of(&self, page: PageId) -> Option<Tier> {
        match self.tier[page.0 as usize] {
            TIER_FAST => Some(Tier::Fast),
            TIER_SLOW => Some(Tier::Slow),
            _ => None,
        }
    }

    /// Ensures the unit containing `page` is mapped, allocating by first
    /// touch (fast tier while it has room, slow otherwise). Returns the
    /// page's tier and whether this touch performed the allocation.
    pub fn ensure_mapped(&mut self, page: PageId) -> (Tier, bool) {
        self.ensure_mapped_with(page, None)
    }

    /// Like [`ensure_mapped`](Self::ensure_mapped) but with an optional
    /// placement preference (the policy allocation hook). A `Fast`
    /// preference still falls back to slow when the fast tier is full.
    pub fn ensure_mapped_with(&mut self, page: PageId, prefer: Option<Tier>) -> (Tier, bool) {
        if let Some(t) = self.tier_of(page) {
            return (t, false);
        }
        let head = self.unit_head(page);
        let span = self.unit_span();
        let fits_fast = self.fast_used + span <= self.fast_capacity;
        let tier = match prefer {
            Some(Tier::Slow) => Tier::Slow,
            Some(Tier::Fast) | None if fits_fast => Tier::Fast,
            _ => Tier::Slow,
        };
        self.set_unit_tier(head, span, tier);
        (tier, true)
    }

    fn set_unit_tier(&mut self, head: PageId, span: u64, tier: Tier) {
        let code = match tier {
            Tier::Fast => TIER_FAST,
            Tier::Slow => TIER_SLOW,
        };
        let start = head.0 as usize;
        let end = (head.0 + span).min(self.tier.len() as u64) as usize;
        self.tier[start..end].fill(code);
        let actual = (end - start) as u64;
        match tier {
            Tier::Fast => {
                self.fast_used += actual;
                self.fast_clock.push_back(head);
            }
            Tier::Slow => {
                self.slow_scan.push(head);
            }
        }
    }

    /// Records an access to `page` during `window`: sets the reference bit
    /// on its unit head and stamps the window. The stamp is stored as a
    /// saturating `u32`; past 2^32 windows every stamp pins at the
    /// ceiling rather than wrapping and aliasing recent pages as stale.
    #[inline]
    pub fn touch(&mut self, page: PageId, window: u64) {
        debug_assert!(
            window <= u64::from(u32::MAX),
            "window index {window} exceeds the u32 recency stamp; stamps saturate from here on"
        );
        let head = self.unit_head(page).0 as usize;
        self.flags[head] |= FLAG_REF;
        self.last_window[head] = window.min(u64::from(u32::MAX)) as u32;
    }

    /// Last window in which the unit containing `page` was touched.
    pub fn last_touch_window(&self, page: PageId) -> u32 {
        self.last_window[self.unit_head(page).0 as usize]
    }

    /// Migrates the unit containing `page` to `to`. Returns the number of
    /// base pages moved, or `None` if the move is impossible (unit not
    /// mapped, already there, or fast tier lacks space for a promotion).
    pub fn move_unit(&mut self, page: PageId, to: Tier) -> Option<u64> {
        let head = self.unit_head(page);
        let span = self.unit_span();
        let from = self.tier_of(head)?;
        if from == to {
            return None;
        }
        if to == Tier::Fast && self.fast_used + span > self.fast_capacity {
            return None;
        }
        let code = match to {
            Tier::Fast => TIER_FAST,
            Tier::Slow => TIER_SLOW,
        };
        let start = head.0 as usize;
        let end = (head.0 + span).min(self.tier.len() as u64) as usize;
        self.tier[start..end].fill(code);
        let moved = (end - start) as u64;
        match to {
            Tier::Fast => {
                self.fast_used += moved;
                self.fast_clock.push_back(head);
            }
            Tier::Slow => {
                self.fast_used -= moved;
                self.slow_scan.push(head);
            }
        }
        Some(moved)
    }

    /// Runs the CLOCK hand to find up to `n` cold (unreferenced)
    /// fast-resident unit heads, clearing reference bits as it sweeps.
    ///
    /// This models the kernel's LRU-based demotion candidate selection
    /// that PACT (and TPP/NBT) rely on. Candidates remain resident; the
    /// caller decides whether to actually demote them.
    pub fn pop_cold_fast_units(&mut self, n: usize) -> Vec<PageId> {
        let mut cold = Vec::with_capacity(n);
        // At most one full revolution per call: units referenced since
        // the previous sweep survive, so persistently hot pages are
        // never offered for demotion (promotions stall instead, as in
        // the kernel when reclaim finds no inactive pages).
        let mut sweeps = self.fast_clock.len();
        while cold.len() < n && sweeps > 0 {
            let Some(head) = self.fast_clock.pop_front() else {
                break;
            };
            sweeps -= 1;
            let h = head.0 as usize;
            if self.tier[h] != TIER_FAST {
                continue; // stale entry: unit has moved away
            }
            if self.flags[h] & FLAG_REF != 0 {
                self.flags[h] &= !FLAG_REF;
                self.fast_clock.push_back(head);
            } else {
                // Held out of the clock until the sweep ends so one call
                // never returns the same unit twice.
                cold.push(head);
            }
        }
        self.fast_clock.extend(cold.iter().copied());
        cold
    }

    /// Like [`pop_cold_fast_units`](Self::pop_cold_fast_units) but with
    /// direct-reclaim semantics: after the normal cold sweep, fills the
    /// remaining demand with resident units *regardless of reference
    /// bits*, in clock order (the kernel's behaviour when reclaim
    /// escalates under allocation pressure).
    pub fn reclaim_fast_units(&mut self, n: usize) -> Vec<PageId> {
        let mut units = self.pop_cold_fast_units(n);
        let mut sweeps = self.fast_clock.len();
        while units.len() < n && sweeps > 0 {
            let Some(head) = self.fast_clock.pop_front() else {
                break;
            };
            sweeps -= 1;
            if self.tier[head.0 as usize] != TIER_FAST {
                continue;
            }
            if units.contains(&head) {
                self.fast_clock.push_back(head);
                continue;
            }
            units.push(head);
            self.fast_clock.push_back(head);
        }
        units
    }

    /// Returns up to `n` slow-resident unit heads in round-robin scan
    /// order, for hint-fault poisoning or promotion scans.
    pub fn scan_slow_units(&mut self, n: usize) -> Vec<PageId> {
        let mut out = Vec::with_capacity(n);
        let mut remaining = self.slow_scan.len();
        while out.len() < n && remaining > 0 {
            if self.slow_cursor >= self.slow_scan.len() {
                self.slow_cursor = 0;
            }
            let head = self.slow_scan[self.slow_cursor];
            if self.tier[head.0 as usize] == TIER_SLOW {
                out.push(head);
                self.slow_cursor += 1;
            } else {
                // Stale: remove by swap to keep the list compact.
                self.slow_scan.swap_remove(self.slow_cursor);
            }
            remaining -= 1;
        }
        out
    }

    /// Poisons `page`'s PTE so the next touch takes a hint fault.
    pub fn poison(&mut self, page: PageId) {
        self.flags[page.0 as usize] |= FLAG_POISON;
    }

    /// Whether `page` is poisoned.
    #[inline]
    pub fn is_poisoned(&self, page: PageId) -> bool {
        self.flags[page.0 as usize] & FLAG_POISON != 0
    }

    /// Clears the poison bit (the fault has been taken).
    #[inline]
    pub fn unpoison(&mut self, page: PageId) {
        self.flags[page.0 as usize] &= !FLAG_POISON;
    }
}

// The full memory state (page table, flags, recency stamps, residency
// bookkeeping, CLOCK list and slow-scan list), restored into a memory
// freshly constructed from the same configuration.
pact_stats::codec! {
    impl State for Memory {
        tier: fixed, flags: fixed, last_window: fixed,
        fast_used, fast_clock, slow_scan, slow_cursor;
        fast_capacity: _, // fixed by the configuration on restore
        unit_span: _,     // fixed by the configuration on restore
    } then |m| {
        if let Some(bad) = m.tier.iter().find(|&&t| t > NOT_PRESENT) {
            return Err(format!("memory state: invalid residency code {bad}"));
        }
        if m.fast_used > m.fast_capacity {
            return Err("memory state: fast_used exceeds capacity".to_string());
        }
        let total = m.tier.len() as u64;
        if m.fast_clock.iter().chain(&m.slow_scan).any(|p| p.0 >= total) {
            return Err("memory state: list entry beyond page table".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_stats::codec::{ByteReader, ByteWriter, CodecError, State};

    #[test]
    fn recount_tracks_incremental_bookkeeping() {
        let mut mem = Memory::new(64, 4, 1);
        assert_eq!(mem.recount(), (0, 0));
        for i in 0..10 {
            mem.ensure_mapped(PageId(i));
        }
        let (fast, slow) = mem.recount();
        assert_eq!(fast, mem.fast_used());
        assert_eq!(fast + slow, 10);
        mem.move_unit(PageId(0), Tier::Slow).unwrap();
        mem.move_unit(PageId(7), Tier::Fast).unwrap();
        let (fast, slow) = mem.recount();
        assert_eq!(fast, mem.fast_used());
        assert_eq!(fast + slow, 10);
    }

    #[test]
    fn first_touch_fills_fast_then_slow() {
        let mut mem = Memory::new(100, 2, 1);
        assert_eq!(mem.ensure_mapped(PageId(0)), (Tier::Fast, true));
        assert_eq!(mem.ensure_mapped(PageId(1)), (Tier::Fast, true));
        assert_eq!(mem.ensure_mapped(PageId(2)), (Tier::Slow, true));
        assert_eq!(mem.ensure_mapped(PageId(0)), (Tier::Fast, false));
        assert_eq!(mem.fast_used(), 2);
        assert_eq!(mem.fast_free(), 0);
    }

    #[test]
    fn thp_allocates_whole_units() {
        let mut mem = Memory::new(2048, 512, 512);
        let (tier, fresh) = mem.ensure_mapped(PageId(700));
        assert_eq!((tier, fresh), (Tier::Fast, true));
        // Pages 512..1024 all mapped now.
        assert_eq!(mem.tier_of(PageId(512)), Some(Tier::Fast));
        assert_eq!(mem.tier_of(PageId(1023)), Some(Tier::Fast));
        assert_eq!(mem.tier_of(PageId(0)), None);
        assert_eq!(mem.fast_used(), 512);
        // Next unit no longer fits in fast.
        assert_eq!(mem.ensure_mapped(PageId(0)).0, Tier::Slow);
    }

    #[test]
    fn move_unit_promote_and_demote() {
        let mut mem = Memory::new(10, 1, 1);
        mem.ensure_mapped(PageId(0)); // fast
        mem.ensure_mapped(PageId(1)); // slow
        assert_eq!(mem.move_unit(PageId(1), Tier::Fast), None); // no room
        assert_eq!(mem.move_unit(PageId(0), Tier::Slow), Some(1));
        assert_eq!(mem.tier_of(PageId(0)), Some(Tier::Slow));
        assert_eq!(mem.move_unit(PageId(1), Tier::Fast), Some(1));
        assert_eq!(mem.tier_of(PageId(1)), Some(Tier::Fast));
        assert_eq!(mem.fast_used(), 1);
    }

    #[test]
    fn move_unit_rejects_noop_and_unmapped() {
        let mut mem = Memory::new(10, 4, 1);
        assert_eq!(mem.move_unit(PageId(5), Tier::Fast), None);
        mem.ensure_mapped(PageId(5));
        assert_eq!(mem.move_unit(PageId(5), Tier::Fast), None);
    }

    #[test]
    fn clock_returns_unreferenced_units() {
        let mut mem = Memory::new(10, 4, 1);
        for i in 0..4 {
            mem.ensure_mapped(PageId(i));
        }
        mem.touch(PageId(0), 1);
        mem.touch(PageId(2), 1);
        // First sweep clears ref bits on 0 and 2, returns 1 and 3.
        let cold = mem.pop_cold_fast_units(2);
        assert_eq!(cold, vec![PageId(1), PageId(3)]);
        // Second sweep: everything is now unreferenced, no duplicates.
        let cold2 = mem.pop_cold_fast_units(4);
        let mut sorted = cold2.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "duplicates in {cold2:?}");
    }

    #[test]
    fn clock_skips_migrated_units() {
        let mut mem = Memory::new(10, 4, 1);
        mem.ensure_mapped(PageId(0));
        mem.ensure_mapped(PageId(1));
        mem.move_unit(PageId(0), Tier::Slow);
        let cold = mem.pop_cold_fast_units(4);
        assert_eq!(cold, vec![PageId(1)]);
    }

    #[test]
    fn clock_spares_referenced_units_for_one_sweep() {
        let mut mem = Memory::new(4, 4, 1);
        for i in 0..4 {
            mem.ensure_mapped(PageId(i));
            mem.touch(PageId(i), 1);
        }
        // All referenced: this sweep clears bits but demotes nothing.
        assert!(mem.pop_cold_fast_units(4).is_empty());
        // Still untouched by the next call: now they are cold.
        assert_eq!(mem.pop_cold_fast_units(4).len(), 4);
        // Re-referenced pages are protected again.
        mem.touch(PageId(0), 2);
        let cold = mem.pop_cold_fast_units(4);
        assert!(!cold.contains(&PageId(0)));
    }

    #[test]
    fn slow_scan_round_robin_and_stale_removal() {
        let mut mem = Memory::new(10, 0, 1);
        for i in 0..3 {
            mem.ensure_mapped(PageId(i)); // all slow (capacity 0)
        }
        let s1 = mem.scan_slow_units(2);
        assert_eq!(s1, vec![PageId(0), PageId(1)]);
        let s2 = mem.scan_slow_units(2);
        assert_eq!(s2[0], PageId(2)); // cursor continues
                                      // Promote one; it should disappear from future scans.
        let mut mem2 = Memory::new(10, 5, 1);
        for i in 0..3 {
            mem2.ensure_mapped(PageId(i));
        }
        // capacity 5 so all fast; force some to slow:
        mem2.move_unit(PageId(1), Tier::Slow);
        mem2.move_unit(PageId(1), Tier::Fast);
        let scans = mem2.scan_slow_units(5);
        assert!(scans.is_empty());
    }

    #[test]
    fn reclaim_escalates_past_reference_bits() {
        let mut mem = Memory::new(4, 4, 1);
        for i in 0..4 {
            mem.ensure_mapped(PageId(i));
            mem.touch(PageId(i), 1);
        }
        // Everything referenced: the plain sweep yields nothing, but
        // direct reclaim still produces victims, without duplicates.
        assert!(mem.pop_cold_fast_units(2).is_empty());
        for i in 0..4 {
            mem.touch(PageId(i), 2);
        }
        let v = mem.reclaim_fast_units(3);
        assert_eq!(v.len(), 3);
        let mut d = v.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn poison_roundtrip() {
        let mut mem = Memory::new(4, 4, 1);
        mem.ensure_mapped(PageId(2));
        assert!(!mem.is_poisoned(PageId(2)));
        mem.poison(PageId(2));
        assert!(mem.is_poisoned(PageId(2)));
        mem.unpoison(PageId(2));
        assert!(!mem.is_poisoned(PageId(2)));
    }

    #[test]
    fn last_touch_window_tracks_unit_head() {
        let mut mem = Memory::new(1024, 1024, 512);
        mem.ensure_mapped(PageId(0));
        mem.touch(PageId(17), 42);
        assert_eq!(mem.last_touch_window(PageId(400)), 42);
    }

    #[test]
    fn crafted_list_lengths_are_errors() {
        // The CLOCK list, then the slow-scan list, claims 2^61 pages.
        for list in 0..2 {
            let mut w = ByteWriter::new();
            w.put(&(vec![NOT_PRESENT; 4], vec![0u8; 4], vec![0u32; 4], 0u64));
            if list == 1 {
                w.put(&VecDeque::<PageId>::new());
            }
            w.put(&(1usize << 61));
            let bytes = w.into_bytes();
            let err = Memory::new(4, 2, 1).get_state(&mut ByteReader::new(&bytes));
            assert_eq!(err, Err(CodecError::BadLength), "list {list}");
        }
    }
}
