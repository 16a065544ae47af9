//! Reservoir sampling (Vitter's Algorithm R).

use crate::{Quantiles, SplitMix64};

/// A fixed-capacity uniform sample over a stream of unknown length.
///
/// This is the exact mechanism of PACT's Algorithm 3: the first `k`
/// observations fill the reservoir; each subsequent observation replaces a
/// random slot with probability `k / n`, guaranteeing that at any point every
/// observation seen so far is present with equal probability. PACT keeps a
/// 100-entry reservoir of PAC values and derives the Freedman–Diaconis bin
/// width from its quartiles.
///
/// The RNG is supplied by the caller on each offer so the structure itself
/// stays deterministic and serializable-in-spirit.
///
/// # Example
///
/// ```
/// use pact_stats::{Reservoir, SplitMix64};
///
/// let mut rng = SplitMix64::seed_from_u64(42);
/// let mut res = Reservoir::new(100);
/// for v in 0..10_000 {
///     res.offer(v as f64, &mut rng);
/// }
/// assert_eq!(res.len(), 100);
/// // The sample mean should be near the stream mean.
/// let mean: f64 = res.as_slice().iter().sum::<f64>() / 100.0;
/// assert!((mean - 4999.5).abs() < 1500.0);
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
}

impl Reservoir {
    /// Creates an empty reservoir holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            samples: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
        }
    }

    /// Offers one observation to the reservoir.
    ///
    /// Returns `true` if the value was stored (always true while filling;
    /// probability `capacity / seen` afterwards).
    pub fn offer(&mut self, value: f64, rng: &mut SplitMix64) -> bool {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
            return true;
        }
        // Algorithm 3 line 4: rnd <- rand() % N_page; replace if rnd < k.
        let slot = rng.random_range(0..self.seen);
        if (slot as usize) < self.capacity {
            self.samples[slot as usize] = value;
            true
        } else {
            false
        }
    }

    /// Number of samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been stored yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total number of observations offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current sample, in insertion order.
    pub fn as_slice(&self) -> &[f64] {
        &self.samples
    }

    /// Sorted quantile view of the current sample.
    ///
    /// Algorithm 3 sorts the reservoir and reads `Q1`/`Q3` from it every
    /// update; callers here get the same thing as a [`Quantiles`].
    pub fn quantiles(&self) -> Quantiles {
        Quantiles::from_unsorted(&self.samples)
    }

    /// Clears all samples and the observation count.
    pub fn reset(&mut self) {
        self.samples.clear();
        self.seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity_then_stays() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut r = Reservoir::new(10);
        for i in 0..5 {
            assert!(r.offer(i as f64, &mut rng));
        }
        assert_eq!(r.len(), 5);
        for i in 5..1000 {
            r.offer(i as f64, &mut rng);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.seen(), 1000);
    }

    #[test]
    fn uniformity_over_stream() {
        // Offer 0..10_000 and check that the retained sample is spread across
        // the whole range rather than biased to the head or tail.
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut r = Reservoir::new(200);
        for i in 0..10_000u64 {
            r.offer(i as f64, &mut rng);
        }
        let q = r.quantiles();
        assert!(q.median() > 2_500.0 && q.median() < 7_500.0);
        assert!(q.min() < 2_000.0);
        assert!(q.max() > 8_000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        Reservoir::new(0);
    }

    #[test]
    fn reset_clears_state() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let mut r = Reservoir::new(4);
        for i in 0..100 {
            r.offer(i as f64, &mut rng);
        }
        r.reset();
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut rng = SplitMix64::seed_from_u64(99);
            let mut r = Reservoir::new(16);
            for i in 0..500 {
                r.offer((i * 3 % 97) as f64, &mut rng);
            }
            r.as_slice().to_vec()
        };
        assert_eq!(run(), run());
    }
}
