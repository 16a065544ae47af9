//! Fixed-width histograms and the Freedman–Diaconis bin-width rule.

use crate::Quantiles;

/// Computes the Freedman–Diaconis bin width `W = 2 · IQR / n^(1/3)`.
///
/// This is the statistically principled width PACT uses to partition the PAC
/// distribution into promotion-priority bins (Algorithm 3, line 9). It
/// minimizes integrated mean squared error of the histogram density estimate
/// while the IQR keeps it robust to the extreme outliers that skewed PAC
/// distributions exhibit.
///
/// Returns `None` when the rule degenerates: fewer than two samples or zero
/// IQR (all mass at one point), in which case the caller should fall back to
/// its previous width.
///
/// # Example
///
/// ```
/// let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
/// let w = pact_stats::freedman_diaconis_width(&vals).unwrap();
/// assert!((w - 2.0 * 499.5 / 10.0).abs() < 1.0); // IQR ~= 499.5, n^(1/3) = 10
/// ```
pub fn freedman_diaconis_width(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let q = Quantiles::from_unsorted(values);
    if q.len() < 2 {
        return None;
    }
    let iqr = q.iqr();
    if iqr <= 0.0 {
        return None;
    }
    Some(2.0 * iqr / (q.len() as f64).cbrt())
}

/// A fixed-width histogram over `[origin, origin + width · bins)`.
///
/// Values below the range clamp into the first bin and values above clamp
/// into the last bin, mirroring how PACT's priority binning treats extreme
/// PAC values: anything past the top boundary is simply "highest priority".
///
/// # Example
///
/// ```
/// use pact_stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.add(3.0);
/// h.add(47.0);
/// h.add(1_000.0); // clamps into the last bin
/// assert_eq!(h.count(0), 1);
/// assert_eq!(h.count(4), 2);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    origin: f64,
    width: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of `width` starting at `origin`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive/finite or `bins` is zero.
    pub fn new(origin: f64, width: f64, bins: usize) -> Self {
        assert!(
            width > 0.0 && width.is_finite(),
            "bin width must be positive"
        );
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            origin,
            width,
            counts: vec![0; bins],
        }
    }

    /// Index of the bin that `value` falls into (clamped to the range).
    pub fn bin_of(&self, value: f64) -> usize {
        let raw = (value - self.origin) / self.width;
        if raw.is_nan() || raw < 0.0 {
            0
        } else {
            (raw as usize).min(self.counts.len() - 1)
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        let b = self.bin_of(value);
        self.counts[b] += 1;
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All bin counts, lowest bin first.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Configured bin width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Lower edge of bin `i`.
    pub fn bin_lower(&self, i: usize) -> f64 {
        self.origin + self.width * i as f64
    }

    /// Clears all counts, keeping the geometry.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_width_uniform_data() {
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect(); // IQR = 3.5, n^(1/3) = 2
        let w = freedman_diaconis_width(&vals).unwrap();
        assert!((w - 3.5).abs() < 1e-12);
    }

    #[test]
    fn fd_width_degenerate_cases() {
        assert!(freedman_diaconis_width(&[]).is_none());
        assert!(freedman_diaconis_width(&[1.0]).is_none());
        assert!(freedman_diaconis_width(&[5.0; 50]).is_none());
    }

    #[test]
    fn fd_width_shrinks_with_more_samples() {
        // Same spread, more samples => narrower bins.
        let small: Vec<f64> = (0..10).map(|i| i as f64 * 10.0).collect();
        let big: Vec<f64> = (0..1000).map(|i| i as f64 * 0.1).collect();
        let ws = freedman_diaconis_width(&small).unwrap();
        let wb = freedman_diaconis_width(&big).unwrap();
        assert!(wb < ws);
    }

    #[test]
    fn binning_and_clamping() {
        let mut h = Histogram::new(10.0, 5.0, 4); // [10,15) [15,20) [20,25) [25,30)
        h.add(9.0); // below -> bin 0
        h.add(10.0);
        h.add(14.999);
        h.add(22.0);
        h.add(1e9); // above -> last bin
        assert_eq!(h.counts(), &[3, 0, 1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn bin_edges() {
        let h = Histogram::new(2.0, 3.0, 3);
        assert_eq!(h.bin_lower(0), 2.0);
        assert_eq!(h.bin_lower(2), 8.0);
        assert_eq!(h.bin_of(7.999), 1);
        assert_eq!(h.bin_of(8.0), 2);
    }

    #[test]
    fn reset_keeps_geometry() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(0.5);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.bins(), 2);
        assert_eq!(h.width(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        Histogram::new(0.0, 0.0, 3);
    }

    #[test]
    fn nan_clamps_to_bin_zero() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.bin_of(f64::NAN), 0);
    }
}
