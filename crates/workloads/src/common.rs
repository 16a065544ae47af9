//! Shared workload-construction helpers: address-space layout, Zipf
//! sampling, and a buffered stream adapter for incremental generators.

use pact_stats::SplitMix64;
use pact_tiersim::{Access, AccessStream, Region, PAGE_BYTES};

/// Allocates named, page-aligned regions in a workload's virtual address
/// space and produces the matching [`Region`] list for object-granular
/// policies (Soar).
#[derive(Debug, Default)]
pub struct LayoutBuilder {
    cursor: u64,
    regions: Vec<Region>,
}

impl LayoutBuilder {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves `bytes` (rounded up to a whole page) under `name`;
    /// returns the region's start address.
    pub fn region(&mut self, name: impl Into<String>, bytes: u64) -> u64 {
        let start = self.cursor;
        let len = bytes.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        self.regions.push(Region::new(name, start, len));
        self.cursor += len;
        start
    }

    /// Total footprint in bytes and the region list.
    pub fn finish(self) -> (u64, Vec<Region>) {
        (self.cursor.max(PAGE_BYTES), self.regions)
    }
}

/// A Zipf(θ) sampler over `{0, .., n-1}` using the classic two-constant
/// approximation (Gray et al.), the standard YCSB key-chooser.
///
/// θ = 0.99 is YCSB's default skew.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or θ is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty universe");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; integral approximation beyond.
        const EXACT: u64 = 10_000;
        let exact_n = n.min(EXACT);
        let mut z = 0.0;
        for i in 1..=exact_n {
            z += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            // ∫ x^-θ dx from EXACT to n.
            z += ((n as f64).powf(1.0 - theta) - (EXACT as f64).powf(1.0 - theta)) / (1.0 - theta);
        }
        z
    }

    /// Draws one rank; rank 0 is the most popular item.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Approximate probability mass of rank `i` (for tests/analysis).
    pub fn mass(&self, i: u64) -> f64 {
        let _ = self.zeta2;
        1.0 / ((i + 1) as f64).powf(self.theta) / self.zetan
    }
}

/// Adapter turning an incremental generator into an [`AccessStream`]:
/// the generator refills a buffer one work unit at a time, so large
/// workloads never materialize full traces.
pub struct BufferedStream<G> {
    generator: G,
    buf: std::collections::VecDeque<Access>,
}

/// An incremental access generator: each [`refill`](Self::refill) call
/// appends the accesses of one unit of algorithmic work (one vertex, one
/// query, one stencil row) and returns `false` when the work is done.
pub trait Generator {
    /// Emits the next unit of work into `out`; returns `false` when
    /// exhausted (nothing may be appended in that case).
    fn refill(&mut self, out: &mut std::collections::VecDeque<Access>) -> bool;
}

impl<G: Generator> BufferedStream<G> {
    /// Wraps a generator.
    pub fn new(generator: G) -> Self {
        Self {
            generator,
            buf: std::collections::VecDeque::new(),
        }
    }
}

impl<G: Generator> AccessStream for BufferedStream<G> {
    fn next_access(&mut self) -> Option<Access> {
        while self.buf.is_empty() {
            if !self.generator.refill(&mut self.buf) {
                return None;
            }
        }
        self.buf.pop_front()
    }
}

/// A prologue generator: sequential line-granular reads ("load the
/// input data") and writes ("allocate and zero the state arrays") over
/// whole regions, in the order they were added. This is what performs a
/// process's first touches in allocation order, the behaviour that
/// strands late-allocated hot state in the slow tier under first-touch
/// placement.
#[derive(Debug, Clone, Default)]
pub struct InitPhase {
    ops: Vec<(u64, u64, bool)>,
    op: usize,
    line: u64,
}

impl InitPhase {
    /// Creates an empty phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sequential read pass over `[start, start + bytes)`.
    pub fn read(mut self, start: u64, bytes: u64) -> Self {
        self.ops.push((start, bytes, false));
        self
    }

    /// Appends a sequential write (zeroing/population) pass.
    pub fn zero(mut self, start: u64, bytes: u64) -> Self {
        self.ops.push((start, bytes, true));
        self
    }

    /// Wraps the phase into a boxed stream.
    pub fn into_stream<'a>(self) -> Box<dyn AccessStream + 'a> {
        Box::new(BufferedStream::new(self))
    }
}

impl Generator for InitPhase {
    fn refill(&mut self, out: &mut std::collections::VecDeque<Access>) -> bool {
        use pact_tiersim::LINE_BYTES;
        loop {
            let Some(&(start, bytes, write)) = self.ops.get(self.op) else {
                return false;
            };
            let lines = bytes.div_ceil(LINE_BYTES);
            if self.line >= lines {
                self.op += 1;
                self.line = 0;
                continue;
            }
            let batch = (lines - self.line).min(64);
            for i in 0..batch {
                let addr = start + (self.line + i) * LINE_BYTES;
                if write {
                    out.push_back(Access::store(addr));
                } else {
                    out.push_back(Access::load(addr).with_work(1));
                }
            }
            self.line += batch;
            return true;
        }
    }
}

/// Deterministic pseudo-random permutation of `0..n` (cycle-walking
/// multiplicative hash). Real key-value stores hash their keys, so the
/// popular (low-rank) keys scatter uniformly across the value heap
/// instead of clustering at its start — without this, first-touch
/// placement would trivially capture the entire hot set.
pub fn scramble(rank: u64, n: u64) -> u64 {
    assert!(n > 0);
    let mask = n.next_power_of_two() - 1;
    let mut x = rank;
    loop {
        // Each step is a bijection on the power-of-two domain (xorshift
        // and odd multiplication mod 2^k), so cycle-walking terminates
        // and the whole map is a permutation of 0..n.
        x ^= x >> 7;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
        x ^= x >> 5;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & mask;
        if x < n {
            return x;
        }
    }
}

/// Deterministic per-(seed, stream) RNG used across workloads so every
/// run of a workload emits the identical access sequence.
pub fn stream_rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_page_aligned_and_disjoint() {
        let mut lb = LayoutBuilder::new();
        let a = lb.region("a", 100);
        let b = lb.region("b", PAGE_BYTES + 1);
        let (fp, regions) = lb.finish();
        assert_eq!(a, 0);
        assert_eq!(b, PAGE_BYTES);
        assert_eq!(fp, PAGE_BYTES + 2 * PAGE_BYTES);
        assert_eq!(regions.len(), 2);
        assert!(regions[0].contains(0) && !regions[0].contains(PAGE_BYTES));
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(100_000, 0.99);
        let mut rng = stream_rng(1, 0);
        let mut head = 0u64;
        const DRAWS: u64 = 50_000;
        for _ in 0..DRAWS {
            let r = z.sample(&mut rng);
            assert!(r < 100_000);
            if r < 100 {
                head += 1;
            }
        }
        // Under Zipf(0.99), the top 0.1% of keys draw a large share.
        let frac = head as f64 / DRAWS as f64;
        assert!(frac > 0.25, "head fraction {frac}");
    }

    #[test]
    fn zipf_covers_tail() {
        let z = Zipf::new(1000, 0.5);
        let mut rng = stream_rng(2, 0);
        let mut seen_tail = false;
        for _ in 0..20_000 {
            if z.sample(&mut rng) > 500 {
                seen_tail = true;
                break;
            }
        }
        assert!(seen_tail);
    }

    #[test]
    fn zipf_mass_decreases() {
        let z = Zipf::new(1000, 0.9);
        assert!(z.mass(0) > z.mass(1));
        assert!(z.mass(1) > z.mass(100));
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipf_rejects_bad_theta() {
        Zipf::new(10, 1.0);
    }

    #[test]
    fn buffered_stream_drains_generator() {
        struct Counter(u32);
        impl Generator for Counter {
            fn refill(&mut self, out: &mut std::collections::VecDeque<Access>) -> bool {
                if self.0 == 0 {
                    return false;
                }
                self.0 -= 1;
                out.push_back(Access::load(self.0 as u64 * 64));
                out.push_back(Access::load(self.0 as u64 * 64 + 8));
                true
            }
        }
        let mut s = BufferedStream::new(Counter(3));
        let mut n = 0;
        while s.next_access().is_some() {
            n += 1;
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn scramble_is_a_permutation() {
        let n = 1000;
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            let k = scramble(r, n);
            assert!(k < n);
            assert!(!seen[k as usize], "collision at rank {r}");
            seen[k as usize] = true;
        }
        // Hot ranks scatter: the top-10 keys are not contiguous.
        let hot: Vec<u64> = (0..10).map(|r| scramble(r, n)).collect();
        let spread = hot.iter().max().unwrap() - hot.iter().min().unwrap();
        assert!(spread > 100, "hot keys clustered: {hot:?}");
    }

    #[test]
    fn stream_rng_is_deterministic_and_distinct() {
        let mut a = stream_rng(42, 0);
        let mut b = stream_rng(42, 0);
        let mut c = stream_rng(42, 1);
        let (x, y, z): (u64, u64, u64) = (a.random(), b.random(), c.random());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }
}
