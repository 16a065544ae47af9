//! Synthetic graph generators: Kronecker (R-MAT), uniform random, and
//! power-law ("twitter-like") graphs.
//!
//! These stand in for the GAP Benchmark Suite inputs the paper uses
//! (`-kron`, `-urand`, `-twitter`): the Kronecker generator follows the
//! Graph500/GAPBS R-MAT recipe, and the power-law generator produces the
//! heavy-tailed degree distribution that makes the real Twitter graph
//! interesting for tiering (hub pages with serialized access).

use pact_stats::SplitMix64;

use crate::common::Zipf;

/// A replayable edge source: a vertex count and an iterator of directed
/// edges over `0..n`, which may contain duplicates and self-loops (the
/// CSR builder cleans them up).
///
/// **Replay contract:** a clone taken before iteration yields exactly the
/// same edges in the same order. [`Csr::from_edges`] walks a clone to
/// count degrees and then the original to place the edges, so no edge
/// list is ever materialised. The generators below keep all their state,
/// RNG included, inside the iterator, which makes `Clone` a replay.
///
/// [`Csr::from_edges`]: super::Csr::from_edges
#[derive(Debug, Clone)]
pub struct Edges<I> {
    n: u32,
    iter: I,
}

impl<I: Iterator<Item = (u32, u32)> + Clone> Edges<I> {
    /// Wraps `iter`, whose endpoints must lie in `0..n`, as an edge source
    /// over `n` vertices.
    pub fn new(n: u32, iter: I) -> Self {
        Self { n, iter }
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> u32 {
        self.n
    }
}

impl<I: Iterator<Item = (u32, u32)>> Iterator for Edges<I> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        self.iter.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

/// Generates a Kronecker (R-MAT) graph with `2^scale` vertices and
/// `edge_factor * 2^scale` directed edges, using the Graph500
/// probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05).
///
/// Edges are drawn lazily, one `[0, 1)` draw per bit of each endpoint
/// pair; a clone of the returned source replays them.
pub fn kronecker(
    scale: u32,
    edge_factor: u32,
    seed: u64,
) -> Edges<impl Iterator<Item = (u32, u32)> + Clone> {
    assert!(scale > 0 && scale < 31, "scale out of range");
    let n = 1u32 << scale;
    let m = n as u64 * edge_factor as u64;
    let mut rng = SplitMix64::seed_from_u64(seed);
    Edges::new(n, (0..m).map(move |_| rmat_edge(&mut rng, scale)))
}

/// One R-MAT edge: each bit, from the top, picks a quadrant of the
/// adjacency matrix with probabilities (a, b, c, d). The quadrant's
/// source bit is set in c and d (`r >= a+b`), its destination bit in b
/// and d (`a <= r < a+b` or `r >= a+b+c`), so the pick is branch-free.
#[inline]
fn rmat_edge(rng: &mut SplitMix64, scale: u32) -> (u32, u32) {
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let mut src = 0u32;
    let mut dst = 0u32;
    for _ in 0..scale {
        let r: f64 = rng.random();
        let si = r >= A + B;
        let di = (A..A + B).contains(&r) | (r >= A + B + C);
        src = src << 1 | si as u32;
        dst = dst << 1 | di as u32;
    }
    (src, dst)
}

/// Generates a uniform random graph: `m` directed edges with endpoints
/// drawn uniformly from `0..n` (the GAPBS `-urand` input). A clone of
/// the returned source replays the edges.
pub fn uniform(n: u32, m: u64, seed: u64) -> Edges<impl Iterator<Item = (u32, u32)> + Clone> {
    assert!(n > 1, "need at least two vertices");
    let mut rng = SplitMix64::seed_from_u64(seed);
    Edges::new(
        n,
        (0..m).map(move |_| (rng.random_range(0..n), rng.random_range(0..n))),
    )
}

/// Generates a power-law graph: edge destinations drawn Zipf(θ) over the
/// vertex set, sources uniform. θ near 0.9 yields the hub-dominated
/// degree distribution of social graphs like Twitter. A clone of the
/// returned source replays the edges.
pub fn power_law(
    n: u32,
    m: u64,
    theta: f64,
    seed: u64,
) -> Edges<impl Iterator<Item = (u32, u32)> + Clone> {
    assert!(n > 1, "need at least two vertices");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let zipf = Zipf::new(n as u64, theta);
    Edges::new(
        n,
        (0..m).map(move |_| {
            let src = rng.random_range(0..n);
            let dst = zipf.sample(&mut rng) as u32;
            (src, dst)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degree_counts(edges: Edges<impl Iterator<Item = (u32, u32)> + Clone>) -> Vec<u32> {
        let mut deg = vec![0u32; edges.num_vertices() as usize];
        for (_, d) in edges {
            deg[d as usize] += 1;
        }
        deg
    }

    #[test]
    fn kronecker_shape() {
        let g = kronecker(10, 8, 1);
        let n = g.num_vertices();
        assert_eq!(n, 1024);
        let edges: Vec<(u32, u32)> = g.collect();
        assert_eq!(edges.len(), 8192);
        assert!(edges.iter().all(|&(s, d)| s < n && d < n));
    }

    #[test]
    fn kronecker_is_skewed() {
        let g = kronecker(12, 16, 2);
        let mut deg = degree_counts(g);
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: u64 = deg[..deg.len() / 100].iter().map(|&d| d as u64).sum();
        let total: u64 = deg.iter().map(|&d| d as u64).sum();
        assert!(
            top1pct as f64 / total as f64 > 0.10,
            "R-MAT should concentrate degree: top1% holds {top1pct}/{total}"
        );
    }

    #[test]
    fn uniform_is_not_skewed() {
        let g = uniform(4096, 65_536, 3);
        let deg = degree_counts(g);
        let max = *deg.iter().max().unwrap();
        assert!(max < 64, "uniform max degree should be modest, got {max}");
    }

    #[test]
    fn power_law_has_hubs() {
        let g = power_law(4096, 65_536, 0.9, 4);
        let deg = degree_counts(g);
        let max = *deg.iter().max().unwrap() as u64;
        let total: u64 = deg.iter().map(|&d| d as u64).sum();
        assert!(
            max as f64 / total as f64 > 0.01,
            "hub should absorb >1% of edges, got {max}/{total}"
        );
    }

    /// Two sources built from the same arguments, and a source and its
    /// clone, yield the same edges.
    fn assert_replays(
        make: impl Fn() -> Vec<(u32, u32)>,
        source: impl Iterator<Item = (u32, u32)> + Clone,
    ) {
        let replay: Vec<(u32, u32)> = source.clone().collect();
        assert_eq!(source.collect::<Vec<_>>(), replay);
        assert_eq!(make(), replay);
    }

    #[test]
    fn generators_are_deterministic_and_clones_replay() {
        assert_replays(|| kronecker(8, 4, 7).collect(), kronecker(8, 4, 7));
        assert_replays(|| uniform(100, 500, 7).collect(), uniform(100, 500, 7));
        assert_replays(
            || power_law(100, 500, 0.8, 7).collect(),
            power_law(100, 500, 0.8, 7),
        );
    }

    #[test]
    fn branch_free_quadrant_pick_matches_the_if_chain() {
        // The R-MAT recipe as the Graph500 reference writes it.
        fn if_chain(rng: &mut SplitMix64, scale: u32) -> (u32, u32) {
            let (mut src, mut dst) = (0u32, 0u32);
            for bit in (0..scale).rev() {
                let r: f64 = rng.random();
                let (si, di) = if r < 0.57 {
                    (0, 0)
                } else if r < 0.57 + 0.19 {
                    (0, 1)
                } else if r < 0.57 + 0.19 + 0.19 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                src |= si << bit;
                dst |= di << bit;
            }
            (src, dst)
        }
        let mut a = SplitMix64::seed_from_u64(11);
        let mut b = a;
        for _ in 0..20_000 {
            assert_eq!(rmat_edge(&mut a, 12), if_chain(&mut b, 12));
        }
    }
}
