//! CXL Hotness Monitoring Unit (CHMU) model.
//!
//! CXL 3.2 introduces controller-side hotness tracking: the *device*
//! counts accesses per unit with a bounded counter table and reports a
//! hot list to the host, with zero cost on the application's critical
//! path. The paper (§4.3.5) names the CHMU as the promising replacement
//! for PEBS sampling; this module implements it so PACT can run on
//! either source.
//!
//! The bounded counter table uses the Space-Saving algorithm (Metwally
//! et al.): with `k` counters it tracks the top-`k` heavy hitters of
//! the access stream with bounded overestimation error (at most the
//! minimum counter value).

#![warn(clippy::cast_possible_truncation)]

use crate::types::PageId;

/// One occupied counter slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: PageId,
    count: u64,
    /// Overestimation inherited when the page adopted an evicted counter.
    err: u64,
}

/// The position-table index of `page`.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "page ids are below the machine's page count, which fits the host's address space"
)]
fn index(page: PageId) -> usize {
    page.0 as usize
}

/// A Space-Saving heavy-hitter counter table.
///
/// Layout: the slots form a binary min-heap ordered by `(count, page)`,
/// with a dense page-indexed position table for O(1) membership checks.
/// `observe` is called on every slow-tier demand access, so both the
/// hit path (index + sift) and the eviction path (root replacement) are
/// O(log k) instead of the O(k) min-scan a flat map needs. Ordering
/// ties on the page id, so victim selection — and therefore the whole
/// table — is deterministic.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    heap: Vec<Slot>,
    /// page id -> heap index + 1; 0 means untracked. Grown on demand.
    pos: Vec<u32>,
    total: u64,
}

impl SpaceSaving {
    /// Creates a table with `capacity` counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "need at least one counter");
        Self {
            capacity,
            heap: Vec::with_capacity(capacity),
            pos: Vec::new(),
            total: 0,
        }
    }

    #[inline]
    fn less(a: &Slot, b: &Slot) -> bool {
        (a.count, a.page.0) < (b.count, b.page.0)
    }

    #[inline]
    fn set_pos(&mut self, page: PageId, heap_idx: usize) {
        let idx = index(page);
        if idx >= self.pos.len() {
            self.pos.resize(idx + 1, 0);
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "heap indices are bounded by the table capacity, a few thousand entries"
        )]
        let pos = heap_idx as u32 + 1;
        self.pos[idx] = pos;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::less(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                self.set_pos(self.heap[i].page, i);
                i = parent;
            } else {
                break;
            }
        }
        self.set_pos(self.heap[i].page, i);
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && Self::less(&self.heap[l], &self.heap[smallest]) {
                smallest = l;
            }
            if r < self.heap.len() && Self::less(&self.heap[r], &self.heap[smallest]) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            self.set_pos(self.heap[i].page, i);
            i = smallest;
        }
        self.set_pos(self.heap[i].page, i);
    }

    /// Observes one access to `page`.
    pub fn observe(&mut self, page: PageId) {
        self.total += 1;
        let tracked = self.pos.get(index(page)).copied().unwrap_or(0);
        if tracked != 0 {
            let i = tracked as usize - 1;
            self.heap[i].count += 1;
            self.sift_down(i);
            return;
        }
        if self.heap.len() < self.capacity {
            let i = self.heap.len();
            self.heap.push(Slot {
                page,
                count: 1,
                err: 0,
            });
            self.sift_up(i);
            return;
        }
        // Evict the minimum counter (the heap root); the newcomer
        // inherits its count (the classic Space-Saving bound).
        let victim = self.heap[0];
        self.pos[index(victim.page)] = 0;
        self.heap[0] = Slot {
            page,
            count: victim.count + 1,
            err: victim.count,
        };
        self.sift_down(0);
    }

    /// The tracked hot list, hottest first: `(page, count, error_bound)`
    /// where the true count lies in `[count - error_bound, count]`.
    pub fn hot_list(&self) -> Vec<(PageId, u64, u64)> {
        let mut v: Vec<(PageId, u64, u64)> =
            self.heap.iter().map(|s| (s.page, s.count, s.err)).collect();
        v.sort_by_key(|&(p, c, _)| (std::cmp::Reverse(c), p.0));
        v
    }

    /// Total accesses observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of occupied counters.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no accesses have been observed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Clears all counters (the host read and reset the unit).
    pub fn reset(&mut self) {
        for slot in &self.heap {
            self.pos[index(slot.page)] = 0;
        }
        self.heap.clear();
        self.total = 0;
    }
}

/// The device-side hotness monitoring unit: a Space-Saving table fed by
/// every slow-tier demand access, read and reset by the host each
/// sampling window.
#[derive(Debug, Clone)]
pub struct Chmu {
    table: SpaceSaving,
}

impl Chmu {
    /// Creates a CHMU with `counters` hardware counters.
    pub fn new(counters: usize) -> Self {
        Self {
            table: SpaceSaving::new(counters),
        }
    }

    /// Device-side observation of a slow-tier access (free for the CPU).
    #[inline]
    pub fn observe(&mut self, page: PageId) {
        self.table.observe(page);
    }

    /// Host read: the hot list `(page, count)` accumulated since the
    /// last [`reset`](Self::reset), hottest first, truncated to `n`.
    pub fn read_hot(&self, n: usize) -> Vec<(PageId, u64)> {
        self.table
            .hot_list()
            .into_iter()
            .take(n)
            .map(|(p, c, _)| (p, c))
            .collect()
    }

    /// Total accesses observed since the last reset.
    pub fn total(&self) -> u64 {
        self.table.total()
    }

    /// Number of pages currently tracked by the counter table.
    pub fn tracked(&self) -> usize {
        self.table.len()
    }

    /// Host reset after reading.
    pub fn reset(&mut self) {
        self.table.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(8);
        for i in 0..4u64 {
            for _ in 0..=i {
                ss.observe(PageId(i));
            }
        }
        let hot = ss.hot_list();
        assert_eq!(hot[0], (PageId(3), 4, 0));
        assert_eq!(hot[3], (PageId(0), 1, 0));
        assert_eq!(ss.total(), 10);
    }

    #[test]
    fn heavy_hitters_survive_churn() {
        let mut ss = SpaceSaving::new(16);
        let mut x = 7u64;
        for i in 0..50_000u64 {
            // Two heavy hitters amid uniform noise over 10k pages.
            if i % 3 == 0 {
                ss.observe(PageId(1));
            } else if i % 3 == 1 {
                ss.observe(PageId(2));
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ss.observe(PageId(100 + x % 10_000));
            }
        }
        let hot = ss.hot_list();
        let top2: Vec<PageId> = hot.iter().take(2).map(|&(p, _, _)| p).collect();
        assert!(
            top2.contains(&PageId(1)) && top2.contains(&PageId(2)),
            "{top2:?}"
        );
        // Space-Saving overestimates but the bound is reported.
        let (_, count, err) = hot[0];
        assert!(count >= 16_000 && count - err <= 17_000);
    }

    #[test]
    fn eviction_keeps_table_bounded() {
        let mut ss = SpaceSaving::new(4);
        for i in 0..1000u64 {
            ss.observe(PageId(i));
        }
        assert_eq!(ss.len(), 4);
    }

    #[test]
    fn chmu_read_and_reset() {
        let mut chmu = Chmu::new(8);
        for _ in 0..5 {
            chmu.observe(PageId(9));
        }
        chmu.observe(PageId(3));
        let hot = chmu.read_hot(1);
        assert_eq!(hot, vec![(PageId(9), 5)]);
        assert_eq!(chmu.total(), 6);
        chmu.reset();
        assert_eq!(chmu.total(), 0);
        assert!(chmu.read_hot(8).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_counters_rejected() {
        SpaceSaving::new(0);
    }
}
