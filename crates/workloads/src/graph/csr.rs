//! Compressed-sparse-row graph representation.

use super::gen::Edges;

/// A CSR graph: `offsets[v]..offsets[v+1]` indexes `neighbors`.
///
/// Built from an [`Edges`] source with optional symmetrization;
/// self-loops and duplicate edges are removed and adjacency lists are
/// sorted (which the triangle-counting kernel requires). Both arrays are
/// allocated at their exact final size.
#[derive(Debug, Clone)]
pub struct Csr {
    n: u32,
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from `edges`. When `symmetric` is true every edge is
    /// inserted in both directions (GAPBS kernels run on symmetrized
    /// graphs).
    ///
    /// The build streams the source twice, as GAPBS does, and never
    /// holds an edge list:
    /// 1. a clone of `edges` counts each vertex's degree, and a prefix
    ///    sum turns the counts into `offsets`;
    /// 2. `edges` itself is scattered into a neighbor array of exactly
    ///    that size;
    /// 3. each adjacency list is sorted and deduplicated in place, the
    ///    lists are compacted to the front, and the array is truncated.
    ///
    /// The peak is the raw neighbor array (duplicates included) plus
    /// `offsets`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint lies outside `0..n`, or if the clone and
    /// the source yield different edge counts, which breaks the replay
    /// contract of [`Edges`].
    pub fn from_edges<I>(edges: Edges<I>, symmetric: bool) -> Self
    where
        I: Iterator<Item = (u32, u32)> + Clone,
    {
        let n = edges.num_vertices();
        let nv = n as usize;
        // Pass 1: degree counts one slot up, so the prefix sum leaves
        // each vertex's start in offsets[v].
        let mut offsets = vec![0u64; nv + 1];
        let mut counted = 0u64;
        for (s, d) in edges.clone().filter(|(s, d)| s != d) {
            offsets[s as usize + 1] += 1;
            if symmetric {
                offsets[d as usize + 1] += 1;
            }
            counted += 1;
        }
        for v in 0..nv {
            offsets[v + 1] += offsets[v];
        }
        // Pass 2: scatter, with offsets[v] as v's write cursor. Each
        // cursor ends at its vertex's end, the next vertex's start.
        let mut neighbors = vec![0u32; offsets[nv] as usize];
        let mut place = |s: u32, d: u32| {
            let slot = &mut offsets[s as usize];
            neighbors[*slot as usize] = d;
            *slot += 1;
        };
        let mut scattered = 0u64;
        for (s, d) in edges.filter(|(s, d)| s != d) {
            place(s, d);
            if symmetric {
                place(d, s);
            }
            scattered += 1;
        }
        assert_eq!(
            counted, scattered,
            "edge source replayed {scattered} edges after counting {counted}"
        );
        offsets.copy_within(0..nv, 1);
        offsets[0] = 0;
        // Pass 3: sort and dedup each list, compacting it down to
        // `write`. offsets[v + 1] still holds v's old end here; it is
        // rewritten with the next vertex's compacted start.
        let mut write = 0usize;
        let mut start = 0usize;
        for v in 0..nv {
            let end = offsets[v + 1] as usize;
            neighbors[start..end].sort_unstable();
            let first = write;
            offsets[v] = first as u64;
            for i in start..end {
                let u = neighbors[i];
                if write == first || neighbors[write - 1] != u {
                    neighbors[write] = u;
                    write += 1;
                }
            }
            start = end;
        }
        offsets[nv] = write as u64;
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        Self {
            n,
            offsets,
            neighbors,
        }
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> u32 {
        self.n
    }

    /// Directed edge count after cleanup.
    pub fn num_edges(&self) -> u64 {
        self.neighbors.len() as u64
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Index of `v`'s first neighbor in the neighbor array.
    pub fn offset(&self, v: u32) -> u64 {
        self.offsets[v as usize]
    }

    /// Sorted adjacency list of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The vertex with the largest out-degree (a stable BFS/BC source).
    pub fn max_degree_vertex(&self) -> u32 {
        (0..self.n).max_by_key(|&v| self.degree(v)).unwrap_or(0)
    }

    /// `count` distinct source vertices with non-zero degree, chosen
    /// deterministically and spread across the ID space.
    pub fn pick_sources(&self, count: usize) -> Vec<u32> {
        let mut sources = Vec::with_capacity(count);
        let mut v = 0u64;
        let stride = (self.n as u64 / (count as u64 + 1)).max(1);
        while sources.len() < count {
            let cand = (v * stride + stride / 2) % self.n as u64;
            let cand = cand as u32;
            if self.degree(cand) > 0 && !sources.contains(&cand) {
                sources.push(cand);
            }
            v += 1;
            if v > 4 * self.n as u64 {
                break; // pathological graph: give up gracefully
            }
        }
        sources
    }
}

#[cfg(test)]
mod tests {
    use pact_stats::SplitMix64;

    use super::super::gen::kronecker;
    use super::*;

    /// A small edge list as a replayable source.
    fn edges(n: u32, list: Vec<(u32, u32)>) -> Edges<std::vec::IntoIter<(u32, u32)>> {
        Edges::new(n, list.into_iter())
    }

    fn tiny() -> Edges<std::vec::IntoIter<(u32, u32)>> {
        edges(4, vec![(0, 1), (0, 2), (1, 2), (2, 3), (0, 1), (3, 3)])
    }

    #[test]
    fn builds_directed_csr() {
        let g = Csr::from_edges(tiny(), false);
        assert_eq!(g.num_vertices(), 4);
        // (0,1),(0,2),(1,2),(2,3); dup and self-loop dropped.
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn symmetrization_doubles_edges() {
        let g = Csr::from_edges(tiny(), true);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = Csr::from_edges(kronecker(10, 8, 5), true);
        for v in 0..g.num_vertices() {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn offsets_are_consistent() {
        let g = Csr::from_edges(kronecker(8, 4, 1), false);
        let mut total = 0;
        for v in 0..g.num_vertices() {
            assert_eq!(
                g.offset(v) + g.degree(v),
                g.offset(v) + g.neighbors(v).len() as u64
            );
            total += g.degree(v);
        }
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn sources_are_distinct_and_valid() {
        let g = Csr::from_edges(kronecker(10, 8, 2), true);
        let s = g.pick_sources(4);
        assert_eq!(s.len(), 4);
        for &v in &s {
            assert!(g.degree(v) > 0);
        }
        let mut d = s.clone();
        d.dedup();
        assert_eq!(d.len(), 4);
    }

    /// The builder's contract spelled out the slow way: drop self-loops,
    /// add the reverse of every edge when symmetric, sort and dedup the
    /// pairs, and group them by source.
    fn reference(n: u32, list: &[(u32, u32)], symmetric: bool) -> Vec<Vec<u32>> {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for &(s, d) in list.iter().filter(|(s, d)| s != d) {
            pairs.push((s, d));
            if symmetric {
                pairs.push((d, s));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut adj = vec![Vec::new(); n as usize];
        for (s, d) in pairs {
            adj[s as usize].push(d);
        }
        adj
    }

    /// A random edge list over `0..n` whose endpoints stay below a random
    /// bound (the vertices above it are isolated), with self-loops and
    /// repeats of earlier edges mixed in.
    fn random_edges(rng: &mut SplitMix64, n: u32) -> Vec<(u32, u32)> {
        let hi = rng.random_range(0..n) + 1;
        let m = rng.random_range(0..4 * n as usize + 2);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
        for _ in 0..m {
            let s = rng.random_range(0..hi);
            let edge = match rng.random_range(0..8u32) {
                0 => (s, s),
                1 | 2 if !edges.is_empty() => edges[rng.random_range(0..edges.len())],
                _ => (s, rng.random_range(0..hi)),
            };
            edges.push(edge);
        }
        edges
    }

    #[test]
    fn builder_matches_a_sort_and_dedup_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x00C5_2B11);
        for case in 0..300 {
            let n = if case % 10 == 0 {
                1
            } else {
                rng.random_range(1..80u32)
            };
            let list = random_edges(&mut rng, n);
            for symmetric in [false, true] {
                let g = Csr::from_edges(edges(n, list.clone()), symmetric);
                let want = reference(n, &list, symmetric);
                assert_eq!(g.num_vertices(), n);
                let total: usize = want.iter().map(Vec::len).sum();
                assert_eq!(g.num_edges(), total as u64, "case {case}");
                for v in 0..n {
                    assert_eq!(
                        g.neighbors(v),
                        want[v as usize].as_slice(),
                        "case {case}, vertex {v}, symmetric {symmetric}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_degree_vertex_is_max() {
        let g = Csr::from_edges(tiny(), true);
        let m = g.max_degree_vertex();
        for v in 0..4 {
            assert!(g.degree(v) <= g.degree(m));
        }
    }
}
