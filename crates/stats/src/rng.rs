//! A tiny, cloneable, deterministic RNG.
//!
//! This is the *only* randomness source in the workspace: workloads,
//! the machine's prefetch-coverage dice, baselines, and the binning
//! reservoir all draw from [`SplitMix64`], so the whole build is
//! hermetic (no external `rand` dependency) and every run is
//! reproducible from a `u64` seed.

/// SplitMix64: a fast, high-quality 64-bit PRNG with trivially
/// serializable state.
///
/// Used where the PACT components need a deterministic RNG that is also
/// `Clone` (e.g. so a configured policy can be duplicated across runs).
///
/// # Example
///
/// ```
/// use pact_stats::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = a.clone();
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x: f64 = a.random();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Alias for [`new`](Self::new), mirroring the constructor name the
    /// workloads use for per-stream seeding.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed)
    }

    /// The raw generator state. `SplitMix64::new(rng.state())` yields a
    /// generator that continues the exact same output sequence — the
    /// round-trip crash-recovery snapshots rely on.
    pub fn state(&self) -> u64 {
        self.state
    }

    fn step(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.step()
    }

    /// Next 32-bit output (high half of the 64-bit step).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.step() >> 32) as u32
    }

    /// A uniform draw of `T` over its natural domain (`[0, 1)` for
    /// floats, the full range for integers, fair coin for `bool`).
    #[inline]
    pub fn random<T: Uniform>(&mut self) -> T {
        T::uniform(self)
    }

    /// A uniform draw from a half-open `start..end` range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Types [`SplitMix64::random`] can draw uniformly.
pub trait Uniform {
    /// Draws one value.
    fn uniform(rng: &mut SplitMix64) -> Self;
}

impl Uniform for f64 {
    #[inline]
    fn uniform(rng: &mut SplitMix64) -> Self {
        // 53 mantissa bits -> [0, 1).
        (rng.step() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Uniform for f32 {
    #[inline]
    fn uniform(rng: &mut SplitMix64) -> Self {
        (rng.step() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Uniform for u64 {
    #[inline]
    fn uniform(rng: &mut SplitMix64) -> Self {
        rng.step()
    }
}

impl Uniform for u32 {
    #[inline]
    fn uniform(rng: &mut SplitMix64) -> Self {
        rng.next_u32()
    }
}

impl Uniform for bool {
    #[inline]
    fn uniform(rng: &mut SplitMix64) -> Self {
        rng.step() & 1 == 1
    }
}

/// Ranges [`SplitMix64::random_range`] can sample from.
pub trait UniformRange {
    /// The element type produced.
    type Output;
    /// Draws one value from the range.
    fn sample(self, rng: &mut SplitMix64) -> Self::Output;
}

macro_rules! impl_uniform_range {
    ($($t:ty),*) => {$(
        impl UniformRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SplitMix64) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.step() % span) as $t
            }
        }
    )*};
}

impl_uniform_range!(u8, u16, u32, u64, usize);

impl UniformRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut SplitMix64) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.random::<f64>() * (self.end - self.start)
    }
}

/// The generator's whole state: the stream resumes exactly.
impl crate::codec::Codec for SplitMix64 {
    fn put(&self, w: &mut crate::codec::ByteWriter) {
        w.put(&self.state);
    }
    fn get(r: &mut crate::codec::ByteReader<'_>) -> Result<Self, crate::codec::CodecError> {
        r.get().map(Self::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn clone_snapshots_state() {
        let mut a = SplitMix64::new(1);
        a.next_u64();
        let mut b = a;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn state_round_trips_the_sequence() {
        let mut a = SplitMix64::new(0xDEAD_BEEF);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = SplitMix64::new(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn random_draws_are_in_domain() {
        let mut r = SplitMix64::new(5);
        let x: f64 = r.random();
        assert!((0.0..1.0).contains(&x));
        let y = r.random_range(0..10u32);
        assert!(y < 10);
        let z = r.random_range(5..6usize);
        assert_eq!(z, 5);
        let f = r.random_range(-2.0f64..3.0);
        assert!((-2.0..3.0).contains(&f));
    }

    #[test]
    fn output_looks_uniform() {
        let mut r = SplitMix64::new(123);
        let mut ones = 0u32;
        for _ in 0..1000 {
            ones += r.next_u64().count_ones();
        }
        let avg = ones as f64 / 1000.0;
        assert!((avg - 32.0).abs() < 1.0, "avg bit count {avg}");
    }

    #[test]
    fn float_draws_stay_in_unit_interval() {
        let mut r = SplitMix64::new(77);
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_draws_cover_span() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.random_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
