//! The PAC store: per-page criticality bookkeeping (§4.3.6).
//!
//! Storage is a dense table indexed by page number rather than a hash
//! map: `record_sample` sits on the simulator's per-sample hot path, and
//! an array index beats hashing by an order of magnitude while workload
//! footprints keep page numbers small and contiguous. A separate
//! insertion-order registry preserves deterministic iteration. The paper
//! reports 25 bytes per tracked 4 KiB page; this entry is the same
//! order.

use pact_stats::codec::{ByteReader, ByteWriter, CodecError, State};
use pact_tiersim::PageId;

use crate::config::Cooling;

/// Per-page tracking entry (compact: ~32 bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PageEntry {
    /// Accumulated Per-page Access Criticality, in stall cycles.
    pub pac: f64,
    /// Sampled accesses in the current (open) sampling period.
    pub period_samples: u32,
    /// Sum of sampled per-load latencies in the current period (for
    /// latency-weighted attribution).
    pub period_latency_sum: u64,
    /// Total sampled accesses over the run (frequency signal).
    pub total_samples: u64,
    /// Global sample counter at this page's last capture (cooling).
    pub last_capture: u64,
}

/// The PAC tracking store.
#[derive(Debug, Clone)]
pub struct PacStore {
    /// Dense entry table indexed by page number; untracked slots hold
    /// default entries and are skipped via `tracked`.
    entries: Vec<PageEntry>,
    /// Whether the page at each index is tracked.
    tracked: Vec<bool>,
    /// Tracked pages in first-touch order (deterministic iteration).
    ids: Vec<PageId>,
    /// Pages touched in the open period (keys into `entries`).
    active: Vec<PageId>,
    /// Samples observed in the open period (`A_t`).
    period_total: u64,
    /// Global sample counter across the run.
    global_samples: u64,
    /// Page ids a restored frame may name lie below this bound.
    page_limit: u64,
}

impl PacStore {
    /// Creates an empty store for a machine of `total_pages` pages: a
    /// snapshot naming a page at or beyond it fails to restore.
    pub fn for_pages(total_pages: u64) -> Self {
        Self {
            entries: Vec::new(),
            tracked: Vec::new(),
            ids: Vec::new(),
            active: Vec::new(),
            period_total: 0,
            global_samples: 0,
            page_limit: total_pages,
        }
    }

    #[inline]
    fn slot(&mut self, page: PageId) -> &mut PageEntry {
        let idx = page.0 as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, PageEntry::default());
            self.tracked.resize(idx + 1, false);
        }
        if !self.tracked[idx] {
            self.tracked[idx] = true;
            self.ids.push(page);
        }
        &mut self.entries[idx]
    }

    #[inline]
    fn get(&self, page: PageId) -> Option<&PageEntry> {
        let idx = page.0 as usize;
        if *self.tracked.get(idx)? {
            Some(&self.entries[idx])
        } else {
            None
        }
    }

    /// Records one PEBS sample of `page` with the sampled load latency.
    #[inline]
    pub fn record_sample(&mut self, page: PageId, latency: u32) {
        self.record_counted(page, 1, latency as u64);
    }

    /// Records `count` observed accesses to `page` at once (the CHMU
    /// path, where the device reports exact per-page counts but no
    /// per-load latency — pass 0).
    pub fn record_counted(&mut self, page: PageId, count: u32, latency_sum: u64) {
        if count == 0 {
            return;
        }
        self.global_samples += count as u64;
        self.period_total += count as u64;
        let entry = self.slot(page);
        let newly_active = entry.period_samples == 0;
        entry.period_samples += count;
        entry.period_latency_sum += latency_sum;
        entry.total_samples += count as u64;
        if newly_active {
            self.active.push(page);
        }
    }

    /// Total samples in the open period (`A_t` of Algorithm 1).
    pub fn period_total(&self) -> u64 {
        self.period_total
    }

    /// Total samples over the run.
    pub fn global_samples(&self) -> u64 {
        self.global_samples
    }

    /// Number of distinct tracked pages (`N_page` of Algorithm 3).
    pub fn tracked_pages(&self) -> usize {
        self.ids.len()
    }

    /// Current PAC of `page` (0 if untracked).
    pub fn pac(&self, page: PageId) -> f64 {
        self.get(page).map_or(0.0, |e| e.pac)
    }

    /// Entry lookup for diagnostics.
    pub fn entry(&self, page: PageId) -> Option<&PageEntry> {
        self.get(page)
    }

    /// Overwrites a tracked page's PAC (used by the policy to decay the
    /// criticality of pages the kernel LRU demoted as inactive). No-op
    /// for untracked pages.
    pub fn set_pac(&mut self, page: PageId, pac: f64) {
        let idx = page.0 as usize;
        if self.tracked.get(idx).copied().unwrap_or(false) {
            self.entries[idx].pac = pac;
        }
    }

    /// Closes the sampling period: attributes `stalls` across the pages
    /// sampled this period and returns the per-page shares.
    ///
    /// `weights(entry)` maps a page's period activity to its attribution
    /// weight: `A_p` for proportional attribution, `A_p · l_p` (i.e. the
    /// period latency sum) for latency-weighted. Each sampled page's PAC
    /// is updated as `PAC <- alpha · PAC + S_p`, cooling stamps are
    /// refreshed, and period-local counters reset.
    ///
    /// Returns the list of `(page, new_pac)` for pages updated this
    /// period (the binning stage consumes it).
    pub fn attribute_period(
        &mut self,
        stalls: f64,
        alpha: f64,
        weights: impl Fn(&PageEntry) -> f64,
    ) -> Vec<(PageId, f64)> {
        let total_weight: f64 = self
            .active
            .iter()
            .map(|p| weights(&self.entries[p.0 as usize]))
            .sum();
        let mut updated = Vec::with_capacity(self.active.len());
        let global = self.global_samples;
        for page in self.active.drain(..) {
            let entry = &mut self.entries[page.0 as usize];
            let share = if total_weight > 0.0 {
                stalls * weights(entry) / total_weight
            } else {
                0.0
            };
            entry.pac = alpha * entry.pac + share;
            entry.period_samples = 0;
            entry.period_latency_sum = 0;
            entry.last_capture = global;
            updated.push((page, entry.pac));
        }
        self.period_total = 0;
        updated
    }

    /// Applies distance-triggered cooling (§5.7): pages not captured for
    /// `distance` global samples have their PAC halved or reset. Returns
    /// how many pages were cooled.
    pub fn cool(&mut self, mode: Cooling, distance: u64) -> usize {
        if mode == Cooling::None {
            return 0;
        }
        let global = self.global_samples;
        let mut cooled = 0;
        for page in &self.ids {
            let entry = &mut self.entries[page.0 as usize];
            if global.saturating_sub(entry.last_capture) > distance && entry.pac != 0.0 {
                entry.pac = match mode {
                    Cooling::Halve => entry.pac / 2.0,
                    Cooling::Reset => 0.0,
                    Cooling::None => unreachable!(),
                };
                entry.last_capture = global;
                cooled += 1;
            }
        }
        cooled
    }

    /// Iterates over all tracked pages and their entries in first-touch
    /// order (deterministic, unlike the hash-map layout this replaced).
    pub fn iter(&self) -> impl Iterator<Item = (&PageId, &PageEntry)> {
        self.ids.iter().map(|p| (p, &self.entries[p.0 as usize]))
    }

    /// Approximate bytes of tracking state per page (the paper claims
    /// 25 B/page; ours is the same order).
    pub fn bytes_per_page() -> usize {
        std::mem::size_of::<PageEntry>()
    }

    /// Validates the store's internal bookkeeping invariants; used by
    /// the config fuzzer (`tests/config_fuzz.rs`) after every PACT run.
    ///
    /// Checked: every tracked PAC is finite and non-negative; the
    /// tracked bitmap, insertion-order registry, and active list agree;
    /// open-period counters sum to `period_total`; per-run totals sum to
    /// `global_samples`; and no cooling stamp runs ahead of the global
    /// sample clock.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first violated invariant.
    pub fn debug_validate(&self) -> Result<(), String> {
        let tracked_count = self.tracked.iter().filter(|&&t| t).count();
        if tracked_count != self.ids.len() {
            return Err(format!(
                "tracked bitmap has {tracked_count} pages but registry lists {}",
                self.ids.len()
            ));
        }
        let mut period_sum = 0u64;
        let mut total_sum = 0u64;
        for page in &self.ids {
            let idx = page.0 as usize;
            if !self.tracked.get(idx).copied().unwrap_or(false) {
                return Err(format!("registry lists untracked page {}", page.0));
            }
            let e = &self.entries[idx];
            if !e.pac.is_finite() || e.pac < 0.0 {
                return Err(format!("page {} has invalid pac {}", page.0, e.pac));
            }
            if (e.period_samples as u64) > e.total_samples {
                return Err(format!(
                    "page {} period_samples {} exceeds total_samples {}",
                    page.0, e.period_samples, e.total_samples
                ));
            }
            if e.last_capture > self.global_samples {
                return Err(format!(
                    "page {} last_capture {} is ahead of global clock {}",
                    page.0, e.last_capture, self.global_samples
                ));
            }
            if e.period_samples > 0 && !self.active.contains(page) {
                return Err(format!(
                    "page {} has open-period samples but is not in the active list",
                    page.0
                ));
            }
            period_sum += e.period_samples as u64;
            total_sum += e.total_samples;
        }
        for page in &self.active {
            if !self.tracked.get(page.0 as usize).copied().unwrap_or(false) {
                return Err(format!("active list holds untracked page {}", page.0));
            }
        }
        if period_sum != self.period_total {
            return Err(format!(
                "per-page period samples sum to {period_sum} but period_total is {}",
                self.period_total
            ));
        }
        if total_sum != self.global_samples {
            return Err(format!(
                "per-page totals sum to {total_sum} but global_samples is {}",
                self.global_samples
            ));
        }
        Ok(())
    }
}

pact_stats::codec! {
    impl Codec for PageEntry {
        pac, period_samples, period_latency_sum, total_samples, last_capture,
    }
}

/// Only tracked entries are written, as `(page, entry)` in first-touch
/// order; the dense table is rebuilt on restore, and the restored
/// bookkeeping is re-checked with [`PacStore::debug_validate`].
impl State for PacStore {
    fn put_state(&self, w: &mut ByteWriter) {
        let Self {
            entries,
            tracked: _, // rebuilt from the decoded pages
            ids,
            active,
            period_total,
            global_samples,
            page_limit: _, // set by the policy's `prepare`
        } = self;
        w.put(&ids.len());
        for &page in ids {
            w.put(&(page, entries[page.0 as usize]));
        }
        w.put(active);
        w.put(period_total);
        w.put(global_samples);
    }

    fn get_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let invalid = |msg| Err(CodecError::Invalid(msg));
        let pages: Vec<(PageId, PageEntry)> = r.get()?;
        let mut store = PacStore::for_pages(self.page_limit);
        for (page, entry) in pages {
            if page.0 >= self.page_limit {
                return invalid(format!(
                    "pac store lists page {} on a machine of {} pages",
                    page.0, self.page_limit
                ));
            }
            if store.get(page).is_some() {
                return invalid(format!("pac store lists page {} twice", page.0));
            }
            *store.slot(page) = entry;
        }
        (store.active, store.period_total, store.global_samples) = r.get()?;
        if let Err(err) = store.debug_validate() {
            return invalid(format!("restored pac store is inconsistent: {err}"));
        }
        *self = store;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_attribution_splits_by_frequency() {
        let mut s = PacStore::for_pages(1 << 22);
        for _ in 0..3 {
            s.record_sample(PageId(1), 400);
        }
        s.record_sample(PageId(2), 400);
        assert_eq!(s.period_total(), 4);
        let updated = s.attribute_period(400.0, 1.0, |e| e.period_samples as f64);
        let get = |p: u64| updated.iter().find(|(q, _)| q.0 == p).unwrap().1;
        assert_eq!(get(1), 300.0);
        assert_eq!(get(2), 100.0);
        assert_eq!(s.period_total(), 0);
    }

    #[test]
    fn latency_weighted_attribution_prefers_slow_loads() {
        let mut s = PacStore::for_pages(1 << 22);
        s.record_sample(PageId(1), 100); // fast load
        s.record_sample(PageId(2), 900); // slow load
        let updated = s.attribute_period(1000.0, 1.0, |e| e.period_latency_sum as f64);
        let get = |p: u64| updated.iter().find(|(q, _)| q.0 == p).unwrap().1;
        assert_eq!(get(1), 100.0);
        assert_eq!(get(2), 900.0);
    }

    #[test]
    fn accumulation_across_periods() {
        let mut s = PacStore::for_pages(1 << 22);
        s.record_sample(PageId(7), 400);
        s.attribute_period(50.0, 1.0, |e| e.period_samples as f64);
        s.record_sample(PageId(7), 400);
        s.attribute_period(30.0, 1.0, |e| e.period_samples as f64);
        assert_eq!(s.pac(PageId(7)), 80.0);
        assert_eq!(s.entry(PageId(7)).unwrap().total_samples, 2);
    }

    #[test]
    fn alpha_decays_history() {
        let mut s = PacStore::for_pages(1 << 22);
        s.record_sample(PageId(7), 400);
        s.attribute_period(100.0, 0.5, |e| e.period_samples as f64);
        s.record_sample(PageId(7), 400);
        s.attribute_period(100.0, 0.5, |e| e.period_samples as f64);
        assert_eq!(s.pac(PageId(7)), 150.0); // 0.5*100 + 100
    }

    #[test]
    fn unsampled_pages_keep_pac_without_alpha() {
        let mut s = PacStore::for_pages(1 << 22);
        s.record_sample(PageId(1), 400);
        s.attribute_period(100.0, 0.5, |e| e.period_samples as f64);
        // Page 1 not sampled this period: untouched by attribution.
        s.record_sample(PageId(2), 400);
        s.attribute_period(100.0, 0.5, |e| e.period_samples as f64);
        assert_eq!(s.pac(PageId(1)), 100.0);
    }

    #[test]
    fn cooling_halves_stale_pages() {
        let mut s = PacStore::for_pages(1 << 22);
        s.record_sample(PageId(1), 400);
        s.attribute_period(100.0, 1.0, |e| e.period_samples as f64);
        // Push the global counter past the distance with other pages.
        for i in 0..20 {
            s.record_sample(PageId(100 + i), 400);
        }
        s.attribute_period(1.0, 1.0, |e| e.period_samples as f64);
        assert_eq!(s.cool(Cooling::Halve, 10), 1);
        assert_eq!(s.pac(PageId(1)), 50.0);
        assert_eq!(s.cool(Cooling::None, 0), 0);
    }

    #[test]
    fn cooling_reset_zeroes() {
        let mut s = PacStore::for_pages(1 << 22);
        s.record_sample(PageId(1), 400);
        s.attribute_period(100.0, 1.0, |e| e.period_samples as f64);
        for i in 0..20 {
            s.record_sample(PageId(50 + i), 400);
        }
        s.attribute_period(1.0, 1.0, |e| e.period_samples as f64);
        s.cool(Cooling::Reset, 5);
        assert_eq!(s.pac(PageId(1)), 0.0);
    }

    #[test]
    fn zero_weight_period_attributes_nothing() {
        let mut s = PacStore::for_pages(1 << 22);
        s.record_sample(PageId(1), 0);
        let updated = s.attribute_period(100.0, 1.0, |e| e.period_latency_sum as f64);
        assert_eq!(updated[0].1, 0.0);
    }

    #[test]
    fn counted_records_aggregate() {
        let mut s = PacStore::for_pages(1 << 22);
        s.record_counted(PageId(4), 10, 0);
        s.record_counted(PageId(4), 5, 0);
        s.record_counted(PageId(9), 0, 0); // no-op
        assert_eq!(s.period_total(), 15);
        assert_eq!(s.tracked_pages(), 1);
        let updated = s.attribute_period(300.0, 1.0, |e| e.period_samples as f64);
        assert_eq!(updated, vec![(PageId(4), 300.0)]);
    }

    #[test]
    fn entry_size_is_compact() {
        // The paper claims ~25 bytes of metadata per tracked page.
        assert!(PacStore::bytes_per_page() <= 40);
    }

    #[test]
    fn iteration_is_first_touch_ordered() {
        let mut s = PacStore::for_pages(1 << 22);
        for p in [9u64, 2, 500, 2, 9, 41] {
            s.record_sample(PageId(p), 100);
        }
        let order: Vec<u64> = s.iter().map(|(p, _)| p.0).collect();
        assert_eq!(order, vec![9, 2, 500, 41]);
        assert_eq!(s.tracked_pages(), 4);
    }

    #[test]
    fn debug_validate_accepts_live_store_and_rejects_corruption() {
        let mut s = PacStore::for_pages(1 << 22);
        for p in [1u64, 2, 3] {
            s.record_sample(PageId(p), 400);
        }
        s.debug_validate().unwrap();
        s.attribute_period(100.0, 0.9, |e| e.period_samples as f64);
        s.debug_validate().unwrap();
        // Corrupt a PAC value the way a bad attribution pass would.
        s.entries[2].pac = f64::NAN;
        let err = s.debug_validate().unwrap_err();
        assert!(err.contains("invalid pac"), "{err}");
        s.entries[2].pac = 1.0;
        s.debug_validate().unwrap();
        // Desync the period total.
        s.period_total = 7;
        assert!(s.debug_validate().unwrap_err().contains("period_total"));
    }

    #[test]
    fn sparse_high_page_ids_work() {
        let mut s = PacStore::for_pages(1 << 22);
        s.record_sample(PageId(1_000_000), 400);
        assert_eq!(s.tracked_pages(), 1);
        assert_eq!(s.pac(PageId(999_999)), 0.0);
        assert!(s.entry(PageId(2_000_000)).is_none());
        s.set_pac(PageId(1_000_000), 7.0);
        s.set_pac(PageId(3_000_000), 7.0); // untracked: no-op
        assert_eq!(s.pac(PageId(1_000_000)), 7.0);
    }

    #[test]
    fn crafted_page_ids_are_errors() {
        // One tracked page at `u64::MAX`: rejected before the dense
        // table grows to it.
        let mut w = ByteWriter::new();
        w.put(&vec![(PageId(u64::MAX), PageEntry::default())]);
        w.put(&(Vec::<PageId>::new(), 0u64, 0u64));
        let bytes = w.into_bytes();
        let mut store = PacStore::for_pages(64);
        let err = store.get_state(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid(m) if m.contains("64 pages")),
            "{err:?}"
        );
        // The same page on a machine that has it restores.
        let mut w = ByteWriter::new();
        w.put(&vec![(PageId(63), PageEntry::default())]);
        w.put(&(Vec::<PageId>::new(), 0u64, 0u64));
        let bytes = w.into_bytes();
        store.get_state(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(store.tracked_pages(), 1);
    }
}
