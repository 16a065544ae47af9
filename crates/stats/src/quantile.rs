//! Quantile estimation over a finite sample.

/// A sorted sample supporting interpolated quantile queries.
///
/// PACT's adaptive binning (Algorithm 3) needs the first and third quartiles
/// of the reservoir-sampled PAC distribution; the motivation study (Fig. 1)
/// reports min/median/max of per-frequency-group PAC values. Both are served
/// by this type.
///
/// # Example
///
/// ```
/// use pact_stats::Quantiles;
/// let q = Quantiles::from_unsorted(&[4.0, 1.0, 3.0, 2.0, 5.0]);
/// assert_eq!(q.quantile(0.0), 1.0);
/// assert_eq!(q.median(), 3.0);
/// assert_eq!(q.quantile(1.0), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Builds from an unsorted slice, copying and sorting it.
    ///
    /// NaN values are dropped so the internal ordering is total.
    pub fn from_unsorted(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        #[expect(
            clippy::expect_used,
            reason = "NaNs were filtered on the line above, so every remaining pair of values \
                      is comparable"
        )]
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
        Self { sorted }
    }

    /// Number of retained (non-NaN) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Linearly interpolated quantile, `q` in `[0, 1]`.
    ///
    /// Uses the "linear" (type-7) method: the same convention as NumPy's
    /// default, which the paper's analysis scripts would have used.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty sample");
        assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    /// First quartile (25th percentile).
    pub fn q1(&self) -> f64 {
        self.quantile(0.25)
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Third quartile (75th percentile).
    pub fn q3(&self) -> f64 {
        self.quantile(0.75)
    }

    /// Interquartile range `Q3 - Q1`, the robustness core of the
    /// Freedman–Diaconis rule.
    pub fn iqr(&self) -> f64 {
        self.q3() - self.q1()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.quantile(0.0)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.quantile(1.0)
    }

    /// Read-only view of the sorted samples.
    pub fn as_sorted(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_small_sample() {
        let q = Quantiles::from_unsorted(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.q1(), 2.0);
        assert_eq!(q.median(), 3.0);
        assert_eq!(q.q3(), 4.0);
        assert_eq!(q.iqr(), 2.0);
    }

    #[test]
    fn interpolation_between_points() {
        let q = Quantiles::from_unsorted(&[0.0, 10.0]);
        assert_eq!(q.quantile(0.5), 5.0);
        assert_eq!(q.quantile(0.25), 2.5);
    }

    #[test]
    fn single_element() {
        let q = Quantiles::from_unsorted(&[7.0]);
        assert_eq!(q.min(), 7.0);
        assert_eq!(q.median(), 7.0);
        assert_eq!(q.max(), 7.0);
    }

    #[test]
    fn nans_are_dropped() {
        let q = Quantiles::from_unsorted(&[f64::NAN, 1.0, 2.0]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.median(), 1.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Quantiles::from_unsorted(&[]).median();
    }

    #[test]
    fn quantiles_are_monotone() {
        let q = Quantiles::from_unsorted(&[9.0, 3.0, 7.0, 1.0, 5.0, 2.0, 8.0]);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let v = q.quantile(i as f64 / 20.0);
            assert!(v >= last);
            last = v;
        }
    }
}
