//! Log-bucketed (HDR-style) histogram with deterministic quantile
//! extraction.
//!
//! Values are `u64` (the simulator's native cycle counts). Buckets are
//! exact for values below 16 and log-spaced above, with 16 linear
//! sub-buckets per power of two — a fixed relative error of at most
//! 1/16 (6.25%). The bucket array is allocated once at construction, so
//! recording is allocation-free and O(1), which lets the per-window
//! metrics hot path feed one of these on every miss.
//!
//! Quantile extraction is exact over the recorded buckets and fully
//! deterministic: `value_at_quantile(q)` walks the cumulative counts to
//! the rank `ceil(q · n)` (clamped to `[1, n]`) and returns that
//! bucket's upper bound, clamped to the largest value actually
//! recorded. Two histograms fed the same values in any order report
//! identical quantiles.

/// Values below this threshold get one exact bucket each.
const LINEAR_MAX: u64 = 16;
/// Linear sub-buckets per power-of-two group above [`LINEAR_MAX`].
const SUB_BUCKETS: usize = 16;
/// Power-of-two groups: values 2^4 ..= 2^63 (group index 4..=63).
const GROUPS: usize = 60;
/// Total bucket count.
const BUCKETS: usize = LINEAR_MAX as usize + GROUPS * SUB_BUCKETS;

/// A log-bucketed histogram of `u64` values with deterministic
/// quantiles.
///
/// # Example
///
/// ```
/// use pact_stats::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 1000);
/// let p50 = h.value_at_quantile(0.5);
/// // Within the 1/16 relative bucket error of the true median.
/// assert!((468..=532).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram. The only allocation this type ever performs.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    /// Bucket index of `v`.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < LINEAR_MAX {
            return v as usize;
        }
        // Highest set bit; v >= 16 so group >= 4.
        let group = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (group - 4)) & (SUB_BUCKETS as u64 - 1)) as usize;
        LINEAR_MAX as usize + (group - 4) * SUB_BUCKETS + sub
    }

    /// Largest value that maps into bucket `i` (the bucket's
    /// representative: quantiles never under-report).
    fn bucket_upper(i: usize) -> u64 {
        if i < LINEAR_MAX as usize {
            return i as u64;
        }
        let rel = i - LINEAR_MAX as usize;
        let group = rel / SUB_BUCKETS + 4;
        let sub = (rel % SUB_BUCKETS) as u64;
        let width = 1u64 << (group - 4);
        (LINEAR_MAX + sub) * width + (width - 1)
    }

    /// Records one observation of `v`. Allocation-free, O(1).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest value recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Clears all buckets without releasing the bucket array.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.max = 0;
    }

    /// The raw state `(counts, total, max)` for crash-recovery
    /// snapshots; feed it back through [`from_parts`](Self::from_parts).
    pub fn to_parts(&self) -> (&[u64], u64, u64) {
        (&self.counts, self.total, self.max)
    }

    /// Rebuilds a histogram from [`to_parts`](Self::to_parts) output.
    /// Returns `None` if the parts are inconsistent (wrong bucket count,
    /// counts that do not sum to `total`, or a `max` outside its
    /// bucket's range), so a corrupted snapshot is rejected instead of
    /// producing quantiles from impossible state.
    pub fn from_parts(counts: Vec<u64>, total: u64, max: u64) -> Option<Self> {
        if counts.len() != BUCKETS {
            return None;
        }
        let mut sum = 0u64;
        for &c in &counts {
            sum = sum.checked_add(c)?;
        }
        if sum != total {
            return None;
        }
        if total > 0 && counts[Self::bucket_of(max)] == 0 {
            return None;
        }
        if total == 0 && max != 0 {
            return None;
        }
        Some(Self { counts, total, max })
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the observation of rank `ceil(q · n)` (rank
    /// clamped to `[1, n]`), clamped to the recorded maximum. Returns 0
    /// for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        for v in 0..LINEAR_MAX {
            // Each small value is its own bucket: the quantile at its
            // rank returns it exactly.
            let q = (v + 1) as f64 / LINEAR_MAX as f64;
            assert_eq!(h.value_at_quantile(q), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        for shift in 0..60u64 {
            let v = 17u64 << shift >> 1; // assorted magnitudes
            h.reset();
            h.record(v);
            let got = h.value_at_quantile(1.0);
            assert!(got >= v, "quantile must not under-report: {got} < {v}");
            assert!(
                got as f64 <= v as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0,
                "relative error too large: {got} vs {v}"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        // Boundary: the 0-count bucket case — no observations at all.
        let h = LogHistogram::new();
        assert!(h.is_empty());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.value_at_quantile(q), 0);
        }
    }

    #[test]
    fn single_observation_dominates_every_quantile() {
        // Boundary: a bucket holding exactly 1 count.
        let mut h = LogHistogram::new();
        h.record(12345);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.value_at_quantile(q);
            assert!((12345..=12345 + 12345 / 16 + 1).contains(&v), "q{q} = {v}");
        }
        // And clamping to the observed max keeps it exact here.
        assert_eq!(h.value_at_quantile(1.0), h.max());
    }

    #[test]
    fn max_count_bucket_absorbs_interior_quantiles() {
        // Boundary: one bucket holds (almost) all the mass; every
        // quantile whose rank lands inside it reports that bucket.
        let mut h = LogHistogram::new();
        for _ in 0..10_000 {
            h.record(7); // exact small-value bucket
        }
        h.record(1_000_000);
        assert_eq!(h.value_at_quantile(0.5), 7);
        assert_eq!(h.value_at_quantile(0.999), 7);
        // Only the very top rank escapes to the outlier.
        assert!(h.value_at_quantile(1.0) >= 1_000_000);
    }

    #[test]
    fn quantiles_are_monotone_and_order_independent() {
        let mut fwd = LogHistogram::new();
        let mut rev = LogHistogram::new();
        let vals: Vec<u64> = (0..500u64).map(|i| i * i % 9973).collect();
        for &v in &vals {
            fwd.record(v);
        }
        for &v in vals.iter().rev() {
            rev.record(v);
        }
        let qs = [0.1, 0.5, 0.9, 0.99, 0.999];
        let mut last = 0;
        for q in qs {
            let a = fwd.value_at_quantile(q);
            assert_eq!(a, rev.value_at_quantile(q), "order-dependent at q{q}");
            assert!(a >= last, "quantiles must be monotone");
            last = a;
        }
    }

    #[test]
    fn reset_clears_state_but_keeps_capacity() {
        let mut h = LogHistogram::new();
        h.record(42);
        h.record(1 << 40);
        assert_eq!(h.total(), 2);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
        assert_eq!(h.value_at_quantile(0.5), 0);
    }

    #[test]
    fn quantiles_never_exceed_recorded_max_at_power_of_two_edges() {
        // Regression guard for the upper-edge reconstruction: a value
        // just past a power of two lands in a bucket whose raw upper
        // bound overshoots it, so without the `.min(max)` clamp the
        // reported p999/max would exceed anything actually recorded.
        for shift in 4..60u64 {
            for v in [(1u64 << shift) - 1, 1u64 << shift, (1u64 << shift) + 1] {
                let mut h = LogHistogram::new();
                for _ in 0..1000 {
                    h.record(v);
                }
                for q in [0.5, 0.99, 0.999, 1.0] {
                    let got = h.value_at_quantile(q);
                    assert!(got <= v, "q{q} over-reports at 2^{shift}: {got} > {v}");
                }
            }
        }
    }

    #[test]
    fn top_quantile_is_clamped_to_max_with_mixed_buckets() {
        // Mixed-magnitude boundary case: the rank-1.0 walk ends in the
        // outlier's bucket, whose upper edge exceeds the outlier itself.
        let mut h = LogHistogram::new();
        for _ in 0..100 {
            h.record(100);
        }
        h.record((1 << 30) + 1); // bucket upper edge is far above this
        assert_eq!(h.value_at_quantile(1.0), (1 << 30) + 1);
        assert_eq!(h.value_at_quantile(1.0), h.max());
    }

    #[test]
    fn parts_round_trip_preserves_quantiles() {
        let mut h = LogHistogram::new();
        for i in 0..5_000u64 {
            h.record(i * 37 % 100_003);
        }
        let (counts, total, max) = h.to_parts();
        let back = LogHistogram::from_parts(counts.to_vec(), total, max).unwrap();
        assert_eq!(back.total(), h.total());
        assert_eq!(back.max(), h.max());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(back.value_at_quantile(q), h.value_at_quantile(q));
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_state() {
        let mut h = LogHistogram::new();
        h.record(1000);
        let (counts, total, max) = h.to_parts();
        let counts = counts.to_vec();
        // Wrong bucket count.
        assert!(LogHistogram::from_parts(vec![0; 3], 0, 0).is_none());
        // Counts do not sum to total.
        assert!(LogHistogram::from_parts(counts.clone(), total + 1, max).is_none());
        // Max claims a bucket with zero count.
        assert!(LogHistogram::from_parts(counts.clone(), total, 5).is_none());
        // Non-zero max on an empty histogram.
        assert!(LogHistogram::from_parts(vec![0; BUCKETS], 0, 9).is_none());
        // The untampered parts are accepted.
        assert!(LogHistogram::from_parts(counts, total, max).is_some());
    }

    #[test]
    fn bucket_upper_inverts_bucket_of() {
        // The representative of a value's bucket is >= the value and
        // maps back to the same bucket.
        for v in [0, 1, 15, 16, 17, 31, 32, 100, 1 << 20, (1 << 50) + 123] {
            let b = LogHistogram::bucket_of(v);
            let upper = LogHistogram::bucket_upper(b);
            assert!(upper >= v, "upper {upper} < value {v}");
            assert_eq!(LogHistogram::bucket_of(upper), b, "v = {v}");
        }
    }
}
