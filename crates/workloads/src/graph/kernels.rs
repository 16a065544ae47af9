//! GAPBS-style graph kernels as simulated workloads.
//!
//! Each kernel executes the actual algorithm over the host-resident
//! graph while emitting the accesses it performs against the simulated
//! address space: offset lookups, adjacency-list line scans, and random,
//! partially dependent accesses into *shared* per-vertex state arrays.
//! As in GAPBS, the traversal kernels (BFS, BC, SSSP) process one
//! source at a time with all threads cooperating on the shared frontier
//! — sources are sequential execution phases, levels are partitioned
//! across threads. The mix of streaming (adjacency) and pointer-chasing
//! (vertex state) pages is exactly the structure the paper exploits:
//! frequency treats both alike, criticality separates them.

use std::collections::VecDeque;
use std::rc::Rc;

use pact_tiersim::{Access, AccessStream, Region, Workload};

use super::csr::Csr;
use super::emit::{
    load_elem4, load_elem8, scan_lines4, starts_line, store_elem4, store_elem8, IDS_PER_LINE,
};
use super::gen::Edges;
use crate::common::{BufferedStream, Generator, InitPhase, LayoutBuilder};

/// Which kernel a [`GraphWorkload`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Breadth-first search: `sources` sequential roots, each traversal
    /// partitioned across `threads`.
    Bfs {
        /// Sequential BFS roots.
        sources: usize,
        /// Cooperating threads.
        threads: usize,
    },
    /// Brandes betweenness-centrality approximation (forward BFS plus
    /// reverse dependency accumulation per source).
    Bc {
        /// Sequential BC roots.
        sources: usize,
        /// Cooperating threads.
        threads: usize,
    },
    /// Bellman-Ford-style single-source shortest paths with an active
    /// frontier.
    Sssp {
        /// Sequential SSSP roots.
        sources: usize,
        /// Cooperating threads.
        threads: usize,
    },
    /// Pull-based PageRank.
    PageRank {
        /// Iterations to run.
        iterations: u32,
        /// Threads partitioning the vertex range.
        threads: usize,
    },
    /// Triangle counting over a degree-ordered graph.
    TriangleCount {
        /// Threads partitioning the vertex range.
        threads: usize,
        /// Per-thread cap on emitted accesses (hub-heavy graphs are
        /// otherwise unbounded at simulation scale).
        budget: u64,
    },
}

/// A graph kernel bound to a concrete graph and address-space layout.
#[derive(Debug, Clone)]
pub struct GraphWorkload {
    name: String,
    csr: Csr,
    kernel: Kernel,
    offsets_base: u64,
    neighbors_base: u64,
    weights_base: u64,
    depth_base: u64,
    sigma_base: u64,
    delta_base: u64,
    dist_base: u64,
    pr_score: u64,
    pr_next: u64,
    footprint: u64,
    regions: Vec<Region>,
    seed: u64,
}

impl GraphWorkload {
    /// Lays out `csr` and the kernel's shared state arrays in a fresh
    /// address space. TriangleCount inputs are relabelled by decreasing
    /// degree (the GAPBS preprocessing step).
    pub fn new(name: impl Into<String>, csr: Csr, kernel: Kernel, seed: u64) -> Self {
        let csr = match kernel {
            Kernel::TriangleCount { .. } => relabel_by_degree(&csr),
            _ => csr,
        };
        let n = csr.num_vertices() as u64;
        let m = csr.num_edges();
        let mut lb = LayoutBuilder::new();
        let offsets_base = lb.region("offsets", (n + 1) * 8);
        let neighbors_base = lb.region("neighbors", m.max(1) * 4);
        let mut weights_base = 0;
        let mut depth_base = 0;
        let mut sigma_base = 0;
        let mut delta_base = 0;
        let mut dist_base = 0;
        let mut pr_score = 0;
        let mut pr_next = 0;
        match kernel {
            Kernel::Bfs { .. } => {
                depth_base = lb.region("depth", n * 4);
            }
            Kernel::Bc { .. } => {
                depth_base = lb.region("depth", n * 4);
                sigma_base = lb.region("sigma", n * 8);
                delta_base = lb.region("delta", n * 8);
            }
            Kernel::Sssp { .. } => {
                weights_base = lb.region("weights", m.max(1) * 4);
                dist_base = lb.region("dist", n * 4);
            }
            Kernel::PageRank { .. } => {
                pr_score = lb.region("pr_score", n * 8);
                pr_next = lb.region("pr_next", n * 8);
            }
            Kernel::TriangleCount { .. } => {}
        }
        let (footprint, regions) = lb.finish();
        Self {
            name: name.into(),
            csr,
            kernel,
            offsets_base,
            neighbors_base,
            weights_base,
            depth_base,
            sigma_base,
            delta_base,
            dist_base,
            pr_score,
            pr_next,
            footprint,
            regions,
            seed,
        }
    }

    /// The underlying graph.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }
}

impl Workload for GraphWorkload {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    /// Graph construction then state-array allocation, as in GAPBS: the
    /// CSR is read in, then per-trial arrays are zeroed. Under
    /// first-touch placement the adjacency data claims the fast tier
    /// and the (criticality-heavy) state arrays land in the slow tier.
    fn prologue(&self) -> Option<Box<dyn AccessStream + '_>> {
        let mut init = InitPhase::new();
        for r in &self.regions {
            init = match r.name.as_str() {
                "offsets" | "neighbors" | "weights" => init.read(r.start, r.bytes),
                _ => init.zero(r.start, r.bytes),
            };
        }
        Some(init.into_stream())
    }

    fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
        match self.kernel {
            Kernel::Bfs { sources, threads } | Kernel::Bc { sources, threads } => {
                let is_bc = matches!(self.kernel, Kernel::Bc { .. });
                let roots = self.csr.pick_sources(sources);
                let plan = Rc::new(
                    roots
                        .into_iter()
                        .map(|root| HostBfs::run(&self.csr, root))
                        .collect::<Vec<_>>(),
                );
                (0..threads)
                    .map(|t| {
                        Box::new(BufferedStream::new(TraversalGen {
                            wl: self,
                            plan: Rc::clone(&plan),
                            is_bc,
                            thread: t,
                            threads,
                            cursor: TraversalCursor::default(),
                        })) as Box<dyn AccessStream + '_>
                    })
                    .collect()
            }
            Kernel::Sssp { sources, threads } => {
                let roots = self.csr.pick_sources(sources);
                let plan = Rc::new(
                    roots
                        .into_iter()
                        .map(|root| HostSssp::run(&self.csr, root))
                        .collect::<Vec<_>>(),
                );
                (0..threads)
                    .map(|t| {
                        Box::new(BufferedStream::new(SsspGen {
                            wl: self,
                            plan: Rc::clone(&plan),
                            thread: t,
                            threads,
                            source: 0,
                            round: 0,
                            pos: t,
                        })) as Box<dyn AccessStream + '_>
                    })
                    .collect()
            }
            Kernel::PageRank {
                iterations,
                threads,
            } => (0..threads)
                .map(|t| {
                    Box::new(BufferedStream::new(PrGen::new(
                        self, t, threads, iterations,
                    ))) as Box<dyn AccessStream + '_>
                })
                .collect(),
            Kernel::TriangleCount { threads, budget } => (0..threads)
                .map(|t| {
                    Box::new(BufferedStream::new(TcGen::new(self, t, threads, budget)))
                        as Box<dyn AccessStream + '_>
                })
                .collect(),
        }
    }
}

/// Emits one vertex's adjacency walk: the offset lookup, interleaved
/// neighbor-line loads, and a per-neighbor state visit driven by
/// `visit(out, neighbor, position, dep)`, where `dep` marks the first
/// neighbor of each adjacency line (its ID arrives with that line).
fn walk_vertex<F: FnMut(&mut VecDeque<Access>, u64, u64, bool)>(
    out: &mut VecDeque<Access>,
    wl: &GraphWorkload,
    v: u32,
    mut visit: F,
) {
    load_elem8(out, wl.offsets_base, v as u64, false, 2);
    let off = wl.csr.offset(v);
    for (pos, &u) in wl.csr.neighbors(v).iter().enumerate() {
        let pos = pos as u64;
        if starts_line(pos) {
            // New adjacency line: its address is known once the offset
            // (first line) or the running pointer (later lines) is ready.
            let mut a = Access::load(wl.neighbors_base + (off + pos) * 4).with_work(2);
            a.dep = pos == 0;
            out.push_back(a);
        }
        visit(out, u as u64, pos, starts_line(pos));
    }
}

// --- Host-side BFS (shared by BFS and BC) -----------------------------

/// The result of one source's BFS, computed on the host: per-level
/// vertex lists, depths, the designated discoverer of each vertex, and
/// shortest-path counts for BC.
#[derive(Debug)]
struct HostBfs {
    levels: Vec<Vec<u32>>,
    depth: Vec<i32>,
    /// `discoverer[u] == v` iff `v`'s visit first reached `u`.
    discoverer: Vec<u32>,
}

impl HostBfs {
    fn run(csr: &Csr, root: u32) -> Self {
        let n = csr.num_vertices() as usize;
        let mut depth = vec![-1i32; n];
        let mut discoverer = vec![u32::MAX; n];
        depth[root as usize] = 0;
        let mut levels = vec![vec![root]];
        loop {
            let mut next = Vec::new();
            #[expect(
                clippy::expect_used,
                reason = "levels starts with the root level and only grows, so last() always exists"
            )]
            let cur = levels.last().expect("at least the root level");
            let d = levels.len() as i32 - 1;
            for &v in cur {
                for &u in csr.neighbors(v) {
                    if depth[u as usize] < 0 {
                        depth[u as usize] = d + 1;
                        discoverer[u as usize] = v;
                        next.push(u);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            levels.push(next);
        }
        Self {
            levels,
            depth,
            discoverer,
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct TraversalCursor {
    source: usize,
    /// Phase within a source: forward levels, then (BC only) backward.
    backward: bool,
    level: usize,
    pos: usize,
}

/// Emits the parallel traversal (BFS or BC) for one thread: the
/// thread's slice of every level, forward and — for BC — backward.
struct TraversalGen<'w> {
    wl: &'w GraphWorkload,
    plan: Rc<Vec<HostBfs>>,
    is_bc: bool,
    thread: usize,
    threads: usize,
    cursor: TraversalCursor,
}

impl TraversalGen<'_> {
    fn emit_forward(&self, bfs: &HostBfs, v: u32, out: &mut VecDeque<Access>) {
        let d = bfs.depth[v as usize];
        let wl = self.wl;
        let is_bc = self.is_bc;
        walk_vertex(out, wl, v, |out, u, _pos, dep| {
            load_elem4(out, wl.depth_base, u, dep, 2);
            let ui = u as usize;
            if bfs.depth[ui] == d + 1 {
                if bfs.discoverer[ui] == v {
                    store_elem4(out, wl.depth_base, u);
                }
                if is_bc {
                    // sigma[u] += sigma[v] on every tree/cross edge.
                    load_elem8(out, wl.sigma_base, u, false, 2);
                    store_elem8(out, wl.sigma_base, u);
                }
            }
        });
    }

    fn emit_backward(&self, bfs: &HostBfs, w: u32, out: &mut VecDeque<Access>) {
        let dw = bfs.depth[w as usize];
        let wl = self.wl;
        walk_vertex(out, wl, w, |out, u, _pos, dep| {
            load_elem4(out, wl.depth_base, u, dep, 2);
            if bfs.depth[u as usize] == dw - 1 {
                // Predecessor: delta[u] += sigma[u]/sigma[w] (1+delta[w]).
                load_elem8(out, wl.sigma_base, u, false, 3);
                load_elem8(out, wl.delta_base, u, false, 3);
                store_elem8(out, wl.delta_base, u);
            }
        });
    }
}

impl Generator for TraversalGen<'_> {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        loop {
            let c = self.cursor;
            let Some(bfs) = self.plan.get(c.source) else {
                return false;
            };
            // Backward pass walks levels deepest-first. The cursor's
            // level index is always in bounds: it resets on advance.
            let level_idx = if c.backward {
                bfs.levels.len() - 1 - c.level
            } else {
                c.level
            };
            let level = &bfs.levels[level_idx];
            // This thread's slice of the level.
            let idx = c.pos * self.threads + self.thread;
            if idx < level.len() {
                let v = level[idx];
                if c.backward {
                    self.emit_backward(bfs, v, out);
                } else {
                    self.emit_forward(bfs, v, out);
                }
                self.cursor.pos += 1;
                if !out.is_empty() {
                    return true;
                }
                continue; // zero-degree vertex: keep going
            }
            // Advance level / phase / source.
            self.cursor.pos = 0;
            self.cursor.level += 1;
            if self.cursor.level >= bfs.levels.len() {
                self.cursor.level = 0;
                if self.is_bc && !c.backward {
                    self.cursor.backward = true;
                } else {
                    self.cursor.backward = false;
                    self.cursor.source += 1;
                }
            }
        }
    }
}

// --- Host-side SSSP -----------------------------------------------------

/// Deterministic edge weight in `1..=15` derived from the edge index.
fn edge_weight(idx: u64) -> u64 {
    (idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) + 1
}

/// Counts triangles of an (assumed symmetric) graph by degree-ordered
/// merge intersection — the reference the TC workload's emission
/// follows. Exposed for validation and for callers who want the count
/// without simulating.
pub fn count_triangles(csr: &Csr) -> u64 {
    let g = relabel_by_degree(csr);
    let mut triangles = 0u64;
    for u in 0..g.num_vertices() {
        let adj_u = g.neighbors(u);
        for (pos, &v) in adj_u.iter().enumerate() {
            if v >= u {
                break;
            }
            let adj_v = g.neighbors(v);
            let vlen = adj_v.iter().take_while(|&&w| w < v).count();
            let (mut i, mut j) = (0usize, 0usize);
            while i < pos && j < vlen {
                match adj_u[i].cmp(&adj_v[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    triangles
}

/// One source's Bellman-Ford schedule: per round, the active vertices
/// and, per active vertex, which neighbors it successfully relaxed.
#[derive(Debug)]
struct HostSssp {
    rounds: Vec<Vec<(u32, Vec<u32>)>>,
    /// Final distances (kept for validation tests).
    #[allow(dead_code, reason = "read only by the validation tests")]
    dist: Vec<u64>,
}

impl HostSssp {
    fn run(csr: &Csr, root: u32) -> Self {
        let n = csr.num_vertices() as usize;
        let mut dist = vec![u64::MAX; n];
        dist[root as usize] = 0;
        let mut active = vec![root];
        let mut rounds = Vec::new();
        for _ in 0..64 {
            if active.is_empty() {
                break;
            }
            let mut round = Vec::with_capacity(active.len());
            let mut next = Vec::new();
            for &v in &active {
                let dv = dist[v as usize];
                let off = csr.offset(v);
                let mut relaxed = Vec::new();
                for (pos, &u) in csr.neighbors(v).iter().enumerate() {
                    let w = edge_weight(off + pos as u64);
                    if dv.saturating_add(w) < dist[u as usize] {
                        dist[u as usize] = dv + w;
                        relaxed.push(u);
                        next.push(u);
                    }
                }
                round.push((v, relaxed));
            }
            rounds.push(round);
            next.sort_unstable();
            next.dedup();
            active = next;
        }
        Self { rounds, dist }
    }
}

struct SsspGen<'w> {
    wl: &'w GraphWorkload,
    plan: Rc<Vec<HostSssp>>,
    thread: usize,
    threads: usize,
    source: usize,
    round: usize,
    pos: usize,
}

impl Generator for SsspGen<'_> {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        loop {
            let Some(sssp) = self.plan.get(self.source) else {
                return false;
            };
            let Some(round) = sssp.rounds.get(self.round) else {
                self.source += 1;
                self.round = 0;
                self.pos = self.thread;
                continue;
            };
            if self.pos >= round.len() {
                self.round += 1;
                self.pos = self.thread;
                continue;
            }
            let (v, relaxed) = &round[self.pos];
            self.pos += self.threads;
            let wl = self.wl;
            let mut r = 0usize;
            walk_vertex(out, wl, *v, |out, u, pos, dep| {
                // Weight array scanned in lockstep with the adjacency
                // list: one line load per IDS_PER_LINE neighbors.
                if pos % IDS_PER_LINE == 0 {
                    let off = wl.csr.offset(*v);
                    out.push_back(Access::load(wl.weights_base + (off + pos) * 4).with_work(1));
                }
                load_elem4(out, wl.dist_base, u, dep, 3);
                if r < relaxed.len() && relaxed[r] as u64 == u {
                    store_elem4(out, wl.dist_base, u);
                    r += 1;
                }
            });
            if !out.is_empty() {
                return true;
            }
        }
    }
}

// --- PageRank ----------------------------------------------------------

struct PrGen<'w> {
    wl: &'w GraphWorkload,
    lo: u32,
    hi: u32,
    v: u32,
    iters_left: u32,
}

impl<'w> PrGen<'w> {
    fn new(wl: &'w GraphWorkload, thread: usize, threads: usize, iterations: u32) -> Self {
        let n = wl.csr.num_vertices();
        let lo = (n as u64 * thread as u64 / threads as u64) as u32;
        let hi = (n as u64 * (thread as u64 + 1) / threads as u64) as u32;
        Self {
            wl,
            lo,
            hi,
            v: lo,
            iters_left: iterations,
        }
    }
}

impl Generator for PrGen<'_> {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        if self.iters_left == 0 {
            return false;
        }
        if self.v >= self.hi {
            self.v = self.lo;
            self.iters_left -= 1;
            if self.iters_left == 0 {
                return false;
            }
        }
        let v = self.v;
        self.v += 1;
        let score_base = self.wl.pr_score;
        walk_vertex(out, self.wl, v, |out, u, _pos, dep| {
            load_elem8(out, score_base, u, dep, 3);
        });
        store_elem8(out, self.wl.pr_next, v as u64);
        true
    }
}

// --- Triangle counting ---------------------------------------------------

/// Relabels a graph so vertex IDs decrease with degree; the GAPBS TC
/// preprocessing that bounds intersection work. The old graph's edges,
/// mapped through the rank table, stream straight into the builder.
fn relabel_by_degree(csr: &Csr) -> Csr {
    let n = csr.num_vertices();
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(csr.degree(v)));
    let mut rank = vec![0u32; n as usize];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    let rank = &rank;
    let edges = (0..n).flat_map(move |v| {
        csr.neighbors(v)
            .iter()
            .map(move |&u| (rank[v as usize], rank[u as usize]))
    });
    // Already has both directions if the input did.
    Csr::from_edges(Edges::new(n, edges), false)
}

struct TcGen<'w> {
    wl: &'w GraphWorkload,
    u: u32,
    stride: u32,
    budget: u64,
    emitted: u64,
    triangles: u64,
}

impl<'w> TcGen<'w> {
    fn new(wl: &'w GraphWorkload, thread: usize, threads: usize, budget: u64) -> Self {
        let _ = wl.seed;
        Self {
            wl,
            u: thread as u32,
            stride: threads as u32,
            budget,
            emitted: 0,
            triangles: 0,
        }
    }
}

impl Generator for TcGen<'_> {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        let n = self.wl.csr.num_vertices();
        if self.u >= n || self.emitted >= self.budget {
            return false;
        }
        let u = self.u;
        self.u += self.stride;
        let adj_u = self.wl.csr.neighbors(u);
        let off_u = self.wl.csr.offset(u);
        load_elem8(out, self.wl.offsets_base, u as u64, false, 2);
        for (pos, &v) in adj_u.iter().enumerate() {
            if v >= u {
                break; // count each triangle once (v < u < w ordering)
            }
            if starts_line(pos as u64) {
                let mut a =
                    Access::load(self.wl.neighbors_base + (off_u + pos as u64) * 4).with_work(2);
                a.dep = pos == 0;
                out.push_back(a);
            }
            // Look up v's adjacency and merge-intersect with u's.
            load_elem8(out, self.wl.offsets_base, v as u64, true, 2);
            let off_v = self.wl.csr.offset(v);
            let adj_v = self.wl.csr.neighbors(v);
            let vlen = adj_v.iter().take_while(|&&w| w < v).count() as u64;
            let ulen = pos as u64;
            scan_lines4(out, self.wl.neighbors_base, off_v, vlen.max(1), true, 4);
            scan_lines4(out, self.wl.neighbors_base, off_u, ulen.max(1), false, 4);
            // Host-side intersection for the actual triangle count.
            let (mut i, mut j) = (0usize, 0usize);
            while i < ulen as usize && j < vlen as usize {
                match adj_u[i].cmp(&adj_v[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        self.triangles += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        self.emitted += out.len() as u64;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::gen::{kronecker, power_law, uniform};
    use super::*;

    fn small_graph() -> Csr {
        Csr::from_edges(kronecker(10, 8, 1), true)
    }

    fn drain_all(wl: &GraphWorkload) -> Vec<Vec<Access>> {
        wl.streams()
            .into_iter()
            .map(|mut s| {
                let mut v = Vec::new();
                while let Some(a) = s.next_access() {
                    assert!(a.vaddr < wl.footprint_bytes(), "access out of range");
                    v.push(a);
                }
                v
            })
            .collect()
    }

    #[test]
    fn bfs_threads_cover_every_edge_of_each_source() {
        let g = small_graph();
        let edges = g.num_edges();
        let wl = GraphWorkload::new(
            "bfs",
            g,
            Kernel::Bfs {
                sources: 2,
                threads: 4,
            },
            1,
        );
        let traces = drain_all(&wl);
        assert_eq!(traces.len(), 4);
        let total: usize = traces.iter().map(|t| t.len()).sum();
        // Two traversals over ~all edges, state loads included.
        assert!(
            total as u64 > edges,
            "total accesses {total} vs edges {edges}"
        );
        // Work is roughly balanced across threads.
        let max = traces.iter().map(|t| t.len()).max().unwrap();
        let min = traces.iter().map(|t| t.len()).min().unwrap();
        assert!(max < 3 * min + 100, "imbalance: {min}..{max}");
    }

    #[test]
    fn bfs_state_is_shared_across_threads() {
        let wl = GraphWorkload::new(
            "bfs",
            small_graph(),
            Kernel::Bfs {
                sources: 1,
                threads: 2,
            },
            1,
        );
        let depth = wl
            .regions()
            .iter()
            .find(|r| r.name == "depth")
            .unwrap()
            .clone();
        let traces = drain_all(&wl);
        for t in &traces {
            assert!(
                t.iter().any(|a| depth.contains(a.vaddr)),
                "every thread touches the shared depth array"
            );
        }
    }

    #[test]
    fn bfs_has_dependent_state_accesses() {
        let wl = GraphWorkload::new(
            "bfs",
            small_graph(),
            Kernel::Bfs {
                sources: 1,
                threads: 1,
            },
            1,
        );
        let t = &drain_all(&wl)[0];
        let deps = t.iter().filter(|a| a.dep).count();
        assert!(deps * 20 > t.len(), "expected >5% dependent accesses");
    }

    #[test]
    fn bc_runs_forward_and_backward() {
        let g = small_graph();
        let bc = GraphWorkload::new(
            "bc",
            g.clone(),
            Kernel::Bc {
                sources: 1,
                threads: 1,
            },
            1,
        );
        let bfs = GraphWorkload::new(
            "bfs",
            g,
            Kernel::Bfs {
                sources: 1,
                threads: 1,
            },
            1,
        );
        let t_bc: usize = drain_all(&bc).iter().map(|t| t.len()).sum();
        let t_bfs: usize = drain_all(&bfs).iter().map(|t| t.len()).sum();
        assert!(
            t_bc as f64 > 1.6 * t_bfs as f64,
            "BC ({t_bc}) should be ~2x BFS ({t_bfs})"
        );
    }

    #[test]
    fn bc_touches_sigma_and_delta_regions() {
        let wl = GraphWorkload::new(
            "bc",
            small_graph(),
            Kernel::Bc {
                sources: 1,
                threads: 2,
            },
            1,
        );
        let regions = wl.regions();
        let sigma = regions.iter().find(|r| r.name == "sigma").unwrap().clone();
        let delta = regions.iter().find(|r| r.name == "delta").unwrap().clone();
        let all: Vec<Access> = drain_all(&wl).into_iter().flatten().collect();
        assert!(all.iter().any(|a| sigma.contains(a.vaddr)));
        assert!(all.iter().any(|a| delta.contains(a.vaddr)));
    }

    #[test]
    fn sssp_relaxes_and_terminates() {
        let wl = GraphWorkload::new(
            "sssp",
            Csr::from_edges(uniform(2048, 16_384, 3), true),
            Kernel::Sssp {
                sources: 2,
                threads: 2,
            },
            1,
        );
        let traces = drain_all(&wl);
        assert_eq!(traces.len(), 2);
        let total: usize = traces.iter().map(|t| t.len()).sum();
        assert!(total > 10_000);
        let stores: usize = traces
            .iter()
            .flatten()
            .filter(|a| a.kind == pact_tiersim::AccessKind::Store)
            .count();
        assert!(stores > 1_000, "relaxations recorded: {stores}");
    }

    #[test]
    fn pagerank_iterations_scale_trace_length() {
        let g = small_graph();
        let wl1 = GraphWorkload::new(
            "pr",
            g.clone(),
            Kernel::PageRank {
                iterations: 1,
                threads: 2,
            },
            1,
        );
        let wl3 = GraphWorkload::new(
            "pr",
            g,
            Kernel::PageRank {
                iterations: 3,
                threads: 2,
            },
            1,
        );
        let t1: usize = drain_all(&wl1).iter().map(|t| t.len()).sum();
        let t3: usize = drain_all(&wl3).iter().map(|t| t.len()).sum();
        assert!((t3 as f64 / t1 as f64 - 3.0).abs() < 0.2);
    }

    #[test]
    fn tc_respects_budget_and_counts_triangles() {
        let g = Csr::from_edges(power_law(2048, 32_768, 0.8, 2), true);
        let wl = GraphWorkload::new(
            "tc",
            g,
            Kernel::TriangleCount {
                threads: 2,
                budget: 50_000,
            },
            1,
        );
        let traces = drain_all(&wl);
        for t in &traces {
            // Budget is approximate (checked per work unit) but bounding.
            assert!(t.len() < 80_000, "budget overrun: {}", t.len());
            assert!(t.len() > 1_000);
        }
    }

    #[test]
    fn deterministic_replay() {
        let wl = GraphWorkload::new(
            "bc",
            small_graph(),
            Kernel::Bc {
                sources: 2,
                threads: 2,
            },
            9,
        );
        assert_eq!(
            drain_all(&wl).iter().map(|t| t.len()).collect::<Vec<_>>(),
            drain_all(&wl).iter().map(|t| t.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn relabel_preserves_edge_count_and_orders_by_degree() {
        let g = Csr::from_edges(power_law(512, 8_192, 0.9, 5), true);
        let r = relabel_by_degree(&g);
        assert_eq!(r.num_edges(), g.num_edges());
        // Vertex 0 in the relabelled graph has the max degree.
        let max_deg = (0..r.num_vertices()).map(|v| r.degree(v)).max().unwrap();
        assert_eq!(r.degree(0), max_deg);
    }

    #[test]
    fn host_bfs_depths_are_consistent() {
        let g = small_graph();
        let root = g.max_degree_vertex();
        let b = HostBfs::run(&g, root);
        assert_eq!(b.depth[root as usize], 0);
        for (d, level) in b.levels.iter().enumerate() {
            for &v in level {
                assert_eq!(b.depth[v as usize], d as i32);
                if d > 0 {
                    let disc = b.discoverer[v as usize];
                    assert_eq!(b.depth[disc as usize], d as i32 - 1);
                }
            }
        }
    }

    #[test]
    fn triangle_count_matches_brute_force() {
        let g = Csr::from_edges(power_law(128, 1_500, 0.8, 3), true);
        // Brute force: ordered vertex triples with all three edges.
        let mut brute = 0u64;
        let n = g.num_vertices();
        let has_edge = |a: u32, b: u32| g.neighbors(a).binary_search(&b).is_ok();
        for a in 0..n {
            for &b in g.neighbors(a) {
                if b <= a {
                    continue;
                }
                for &c in g.neighbors(b) {
                    if c > b && has_edge(a, c) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(count_triangles(&g), brute);
    }

    #[test]
    fn host_sssp_distances_match_dijkstra() {
        let g = Csr::from_edges(uniform(256, 2_000, 9), true);
        let root = g.max_degree_vertex();
        let host = HostSssp::run(&g, root);
        // Reference Dijkstra with the same deterministic edge weights.
        let n = g.num_vertices() as usize;
        let mut dist = vec![u64::MAX; n];
        dist[root as usize] = 0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, root)));
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            let off = g.offset(v);
            for (pos, &u) in g.neighbors(v).iter().enumerate() {
                let w = edge_weight(off + pos as u64);
                if d + w < dist[u as usize] {
                    dist[u as usize] = d + w;
                    heap.push(std::cmp::Reverse((d + w, u)));
                }
            }
        }
        assert_eq!(host.dist, dist);
    }

    #[test]
    fn host_sssp_rounds_shrink_distances() {
        let g = Csr::from_edges(uniform(512, 4_096, 1), true);
        let root = g.max_degree_vertex();
        let s = HostSssp::run(&g, root);
        assert!(!s.rounds.is_empty());
        // Every relaxed target appears among some later round's actives
        // or is terminal; at minimum the schedule is non-trivial.
        let relaxations: usize = s
            .rounds
            .iter()
            .flat_map(|r| r.iter().map(|(_, rel)| rel.len()))
            .sum();
        assert!(relaxations >= 511, "graph should be mostly reachable");
    }
}
