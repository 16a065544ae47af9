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
//!
//! A traversal kernel's per-source plan is computed on demand, when a
//! thread reaches the source, and each `refill` emits at most one
//! adjacency line, so a stream holds at most the plans of the sources
//! its threads are on and a buffer of one line's accesses.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

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
                let plans = Plans::new(&self.csr, sources, HostBfs::run);
                (0..threads)
                    .map(|t| {
                        Box::new(BufferedStream::new(TraversalGen::new(
                            self, &plans, is_bc, t, threads,
                        ))) as Box<dyn AccessStream + '_>
                    })
                    .collect()
            }
            Kernel::Sssp { sources, threads } => {
                let plans = Plans::new(&self.csr, sources, HostSssp::run);
                (0..threads)
                    .map(|t| {
                        Box::new(BufferedStream::new(SsspGen::new(self, &plans, t, threads)))
                            as Box<dyn AccessStream + '_>
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

/// Emits one adjacency line of `v`'s walk, the one that starts at
/// neighbor `pos` (a multiple of [`IDS_PER_LINE`]): the offset lookup
/// first when `pos == 0`, then the line load and a per-neighbor state
/// visit driven by `visit(out, neighbor, position, dep)`, where `dep`
/// marks the line's first neighbor (its ID arrives with the line).
/// Returns where the next line starts, or `None` after `v`'s last line
/// (a vertex without neighbors emits only the lookup).
fn walk_line<F: FnMut(&mut VecDeque<Access>, u64, u64, bool)>(
    out: &mut VecDeque<Access>,
    wl: &GraphWorkload,
    v: u32,
    pos: u64,
    mut visit: F,
) -> Option<u64> {
    if pos == 0 {
        load_elem8(out, wl.offsets_base, v as u64, false, 2);
    }
    let adj = wl.csr.neighbors(v);
    let end = (pos + IDS_PER_LINE).min(adj.len() as u64);
    if pos < end {
        // The line's address is known once the offset (first line) or
        // the running pointer (later lines) is ready.
        let mut a = Access::load(wl.neighbors_base + (wl.csr.offset(v) + pos) * 4).with_work(2);
        a.dep = pos == 0;
        out.push_back(a);
    }
    for (p, &u) in (pos..end).zip(&adj[pos as usize..end as usize]) {
        visit(out, u as u64, p, p == pos);
    }
    (end < adj.len() as u64).then_some(end)
}

// --- Per-source plans, on demand ----------------------------------------

/// The per-source plans of one `streams()` call. A thread computes
/// source `s`'s plan when it reaches `s`, unless another thread still
/// holds it, and holds it while on `s`. Threads the machine interleaves
/// therefore share one computation, a plan is freed when the last
/// thread leaves its source, and about two plans are live at once. A
/// sequential drain holds one plan at a time and recomputes it per
/// thread: a plan is a pure function of the graph and its root, so
/// every copy is the same.
struct Plans<'w, P> {
    csr: &'w Csr,
    roots: Vec<u32>,
    compute: fn(&Csr, u32) -> P,
    live: RefCell<Vec<Weak<P>>>,
}

impl<'w, P> Plans<'w, P> {
    fn new(csr: &'w Csr, sources: usize, compute: fn(&Csr, u32) -> P) -> Rc<Self> {
        let roots = csr.pick_sources(sources);
        let live = RefCell::new(roots.iter().map(|_| Weak::new()).collect());
        Rc::new(Self {
            csr,
            roots,
            compute,
            live,
        })
    }

    /// Source `s`'s plan, shared if a thread holds it and computed
    /// otherwise; `None` past the last source.
    fn get(&self, s: usize) -> Option<Rc<P>> {
        let root = *self.roots.get(s)?;
        let mut live = self.live.borrow_mut();
        if let Some(plan) = live[s].upgrade() {
            return Some(plan);
        }
        let plan = Rc::new((self.compute)(self.csr, root));
        live[s] = Rc::downgrade(&plan);
        Some(plan)
    }
}

/// One thread's place in the source sequence, and the plan it holds
/// while there.
struct OnSource<'w, P> {
    plans: Rc<Plans<'w, P>>,
    index: usize,
    plan: Option<Rc<P>>,
}

impl<'w, P> OnSource<'w, P> {
    fn new(plans: &Rc<Plans<'w, P>>) -> Self {
        Self {
            plans: Rc::clone(plans),
            index: 0,
            plan: None,
        }
    }

    /// The current source's plan; `None` once every source is done.
    fn plan(&mut self) -> Option<Rc<P>> {
        if self.plan.is_none() {
            self.plan = self.plans.get(self.index);
        }
        self.plan.clone()
    }

    /// Lets go of the current source's plan and moves to the next.
    fn advance(&mut self) {
        self.plan = None;
        self.index += 1;
    }
}

// --- Host-side BFS (shared by BFS and BC) -----------------------------

/// The result of one source's BFS, computed on the host: the reached
/// vertices level by level, depths, and the designated discoverer of
/// each vertex.
#[derive(Debug)]
struct HostBfs {
    /// Reached vertices in level order, root first, exact-size.
    order: Vec<u32>,
    /// `order[level_starts[l]..level_starts[l + 1]]` is level `l`.
    level_starts: Vec<u32>,
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
        // The order is its own queue: level `d` is the stretch that
        // level `d - 1`'s visits appended.
        let mut order = Vec::with_capacity(n);
        order.push(root);
        let mut level_starts = vec![0u32];
        let mut d = 0i32;
        loop {
            let (start, end) = (level_starts[d as usize] as usize, order.len());
            for i in start..end {
                let v = order[i];
                for &u in csr.neighbors(v) {
                    if depth[u as usize] < 0 {
                        depth[u as usize] = d + 1;
                        discoverer[u as usize] = v;
                        order.push(u);
                    }
                }
            }
            level_starts.push(end as u32);
            if order.len() == end {
                break;
            }
            d += 1;
        }
        order.shrink_to_fit();
        Self {
            order,
            level_starts,
            depth,
            discoverer,
        }
    }

    fn levels(&self) -> usize {
        self.level_starts.len() - 1
    }

    fn level(&self, l: usize) -> &[u32] {
        &self.order[self.level_starts[l] as usize..self.level_starts[l + 1] as usize]
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct TraversalCursor {
    /// Phase within a source: forward levels, then (BC only) backward.
    backward: bool,
    level: usize,
    /// The thread's vertex within the level's slice.
    pos: usize,
    /// Where the vertex's next adjacency line starts.
    nbr: u64,
}

/// Emits the parallel traversal (BFS or BC) for one thread: the
/// thread's slice of every level, forward and — for BC — backward.
struct TraversalGen<'w> {
    wl: &'w GraphWorkload,
    source: OnSource<'w, HostBfs>,
    is_bc: bool,
    thread: usize,
    threads: usize,
    cursor: TraversalCursor,
}

impl<'w> TraversalGen<'w> {
    fn new(
        wl: &'w GraphWorkload,
        plans: &Rc<Plans<'w, HostBfs>>,
        is_bc: bool,
        thread: usize,
        threads: usize,
    ) -> Self {
        Self {
            wl,
            source: OnSource::new(plans),
            is_bc,
            thread,
            threads,
            cursor: TraversalCursor::default(),
        }
    }

    fn emit_forward(
        &self,
        bfs: &HostBfs,
        v: u32,
        nbr: u64,
        out: &mut VecDeque<Access>,
    ) -> Option<u64> {
        let d = bfs.depth[v as usize];
        let wl = self.wl;
        let is_bc = self.is_bc;
        walk_line(out, wl, v, nbr, |out, u, _pos, dep| {
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
        })
    }

    fn emit_backward(
        &self,
        bfs: &HostBfs,
        w: u32,
        nbr: u64,
        out: &mut VecDeque<Access>,
    ) -> Option<u64> {
        let dw = bfs.depth[w as usize];
        let wl = self.wl;
        walk_line(out, wl, w, nbr, |out, u, _pos, dep| {
            load_elem4(out, wl.depth_base, u, dep, 2);
            if bfs.depth[u as usize] == dw - 1 {
                // Predecessor: delta[u] += sigma[u]/sigma[w] (1+delta[w]).
                load_elem8(out, wl.sigma_base, u, false, 3);
                load_elem8(out, wl.delta_base, u, false, 3);
                store_elem8(out, wl.delta_base, u);
            }
        })
    }
}

impl Generator for TraversalGen<'_> {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        loop {
            let Some(bfs) = self.source.plan() else {
                return false;
            };
            let c = self.cursor;
            // Backward pass walks levels deepest-first. The cursor's
            // level index is always in bounds: it resets on advance.
            let level_idx = if c.backward {
                bfs.levels() - 1 - c.level
            } else {
                c.level
            };
            // This thread's slice of the level.
            let idx = c.pos * self.threads + self.thread;
            if let Some(&v) = bfs.level(level_idx).get(idx) {
                let next = if c.backward {
                    self.emit_backward(&bfs, v, c.nbr, out)
                } else {
                    self.emit_forward(&bfs, v, c.nbr, out)
                };
                match next {
                    Some(nbr) => self.cursor.nbr = nbr,
                    None => {
                        self.cursor.nbr = 0;
                        self.cursor.pos += 1;
                    }
                }
                return true;
            }
            // Advance level / phase / source.
            self.cursor.pos = 0;
            self.cursor.level += 1;
            if self.cursor.level >= bfs.levels() {
                self.cursor.level = 0;
                if self.is_bc && !c.backward {
                    self.cursor.backward = true;
                } else {
                    self.cursor.backward = false;
                    self.source.advance();
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

/// One source's Bellman-Ford schedule, round by round.
#[derive(Debug)]
struct HostSssp {
    rounds: Vec<Round>,
}

/// One Bellman-Ford round: the active vertices in order, and the
/// neighbors each successfully relaxed, in adjacency order —
/// `relaxed[starts[i]..starts[i + 1]]` for `vertices[i]`. Each array is
/// exact-size.
#[derive(Debug)]
struct Round {
    vertices: Vec<u32>,
    starts: Vec<u32>,
    relaxed: Vec<u32>,
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
            let mut starts = Vec::with_capacity(active.len() + 1);
            let mut relaxed = Vec::new();
            for &v in &active {
                starts.push(relaxed.len() as u32);
                let dv = dist[v as usize];
                let off = csr.offset(v);
                for (pos, &u) in csr.neighbors(v).iter().enumerate() {
                    let w = edge_weight(off + pos as u64);
                    if dv.saturating_add(w) < dist[u as usize] {
                        dist[u as usize] = dv + w;
                        relaxed.push(u);
                    }
                }
            }
            starts.push(relaxed.len() as u32);
            let mut next = relaxed.clone();
            next.sort_unstable();
            next.dedup();
            next.shrink_to_fit();
            relaxed.shrink_to_fit();
            rounds.push(Round {
                vertices: active,
                starts,
                relaxed,
            });
            active = next;
        }
        Self { rounds }
    }
}

struct SsspGen<'w> {
    wl: &'w GraphWorkload,
    source: OnSource<'w, HostSssp>,
    thread: usize,
    threads: usize,
    round: usize,
    /// The thread's active vertex: an index into the round's vertices.
    pos: usize,
    /// Where the vertex's next adjacency line starts.
    nbr: u64,
    /// The vertex's next relaxed neighbor: an index into the round's
    /// relaxed ids.
    relaxed: usize,
}

impl<'w> SsspGen<'w> {
    fn new(
        wl: &'w GraphWorkload,
        plans: &Rc<Plans<'w, HostSssp>>,
        thread: usize,
        threads: usize,
    ) -> Self {
        Self {
            wl,
            source: OnSource::new(plans),
            thread,
            threads,
            round: 0,
            pos: thread,
            nbr: 0,
            relaxed: 0,
        }
    }
}

impl Generator for SsspGen<'_> {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        loop {
            let Some(sssp) = self.source.plan() else {
                return false;
            };
            let Some(round) = sssp.rounds.get(self.round) else {
                self.source.advance();
                self.round = 0;
                self.pos = self.thread;
                continue;
            };
            let Some(&v) = round.vertices.get(self.pos) else {
                self.round += 1;
                self.pos = self.thread;
                continue;
            };
            if self.nbr == 0 {
                self.relaxed = round.starts[self.pos] as usize;
            }
            let relaxed = &round.relaxed[..round.starts[self.pos + 1] as usize];
            let wl = self.wl;
            let mut r = self.relaxed;
            let next = walk_line(out, wl, v, self.nbr, |out, u, pos, dep| {
                // Weight array scanned in lockstep with the adjacency
                // list: one line load per IDS_PER_LINE neighbors.
                if pos % IDS_PER_LINE == 0 {
                    let off = wl.csr.offset(v);
                    out.push_back(Access::load(wl.weights_base + (off + pos) * 4).with_work(1));
                }
                load_elem4(out, wl.dist_base, u, dep, 3);
                if relaxed.get(r).is_some_and(|&x| x as u64 == u) {
                    store_elem4(out, wl.dist_base, u);
                    r += 1;
                }
            });
            self.relaxed = r;
            match next {
                Some(nbr) => self.nbr = nbr,
                None => {
                    self.nbr = 0;
                    self.pos += self.threads;
                }
            }
            return true;
        }
    }
}

// --- PageRank ----------------------------------------------------------

struct PrGen<'w> {
    wl: &'w GraphWorkload,
    lo: u32,
    hi: u32,
    v: u32,
    /// Where `v`'s next adjacency line starts.
    nbr: u64,
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
            nbr: 0,
            iters_left: iterations,
        }
    }
}

impl Generator for PrGen<'_> {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        if self.iters_left == 0 {
            return false;
        }
        if self.nbr == 0 && self.v >= self.hi {
            self.v = self.lo;
            self.iters_left -= 1;
            if self.iters_left == 0 {
                return false;
            }
        }
        let v = self.v;
        let score_base = self.wl.pr_score;
        let next = walk_line(out, self.wl, v, self.nbr, |out, u, _pos, dep| {
            load_elem8(out, score_base, u, dep, 3);
        });
        match next {
            Some(nbr) => self.nbr = nbr,
            None => {
                store_elem8(out, self.wl.pr_next, v as u64);
                self.nbr = 0;
                self.v += 1;
            }
        }
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

    /// The most accesses one refill appends: the offset lookup, the
    /// line load, a weight line (SSSP) and up to four state accesses per
    /// neighbor (BC's forward visit).
    const LINE_ACCESSES: usize = 3 + 4 * IDS_PER_LINE as usize;

    /// The largest number of accesses one `refill` of `g` appends.
    fn largest_refill(mut g: impl Generator) -> usize {
        let mut out = VecDeque::new();
        let mut largest = 0;
        while g.refill(&mut out) {
            largest = largest.max(out.len());
            out.clear();
        }
        largest
    }

    #[test]
    fn refills_emit_at_most_one_adjacency_line() {
        let wl = GraphWorkload::new(
            "g",
            small_graph(),
            Kernel::Bfs {
                sources: 2,
                threads: 3,
            },
            1,
        );
        // A hub's whole walk would be dozens of lines.
        let hub = wl.csr.degree(wl.csr.max_degree_vertex());
        assert!(hub > 20 * IDS_PER_LINE, "hub degree {hub}");
        let bfs = Plans::new(&wl.csr, 2, HostBfs::run);
        let sssp = Plans::new(&wl.csr, 2, HostSssp::run);
        for thread in 0..3 {
            let largest = [
                largest_refill(TraversalGen::new(&wl, &bfs, false, thread, 3)),
                largest_refill(TraversalGen::new(&wl, &bfs, true, thread, 3)),
                largest_refill(SsspGen::new(&wl, &sssp, thread, 3)),
                largest_refill(PrGen::new(&wl, thread, 3, 1)),
            ];
            assert!(
                largest.iter().all(|&l| l <= LINE_ACCESSES),
                "thread {thread}: largest refills {largest:?} exceed one line"
            );
        }
    }

    #[test]
    fn plans_are_shared_while_held_and_freed_after() {
        let g = small_graph();
        let plans = Plans::new(&g, 2, HostBfs::run);
        let (mut a, mut b) = (OnSource::new(&plans), OnSource::new(&plans));
        let first = a.plan().unwrap();
        assert!(Rc::ptr_eq(&first, &b.plan().unwrap()), "one computation");
        drop(first);
        a.advance();
        assert!(
            plans.live.borrow()[0].upgrade().is_some(),
            "b still holds it"
        );
        b.advance();
        assert!(plans.live.borrow()[0].upgrade().is_none(), "freed");
        assert!(Rc::ptr_eq(&a.plan().unwrap(), &b.plan().unwrap()));
        a.advance();
        assert!(a.plan().is_none(), "past the last source");
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
        assert_eq!(b.order.capacity(), b.order.len(), "exact-size order");
        let reached = b.depth.iter().filter(|&&d| d >= 0).count();
        assert_eq!(b.order.len(), reached, "every reached vertex once");
        for d in 0..b.levels() {
            for &v in b.level(d) {
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

    /// The distances `plan` leaves behind: its relaxations replayed in
    /// order, each setting the neighbor's distance through the edge it
    /// relaxed (adjacency lists hold each neighbor once).
    fn replay_distances(g: &Csr, root: u32, plan: &HostSssp) -> Vec<u64> {
        let mut dist = vec![u64::MAX; g.num_vertices() as usize];
        dist[root as usize] = 0;
        for round in &plan.rounds {
            for (i, &v) in round.vertices.iter().enumerate() {
                let relaxed =
                    &round.relaxed[round.starts[i] as usize..round.starts[i + 1] as usize];
                let dv = dist[v as usize];
                let mut r = 0;
                for (pos, &u) in g.neighbors(v).iter().enumerate() {
                    if relaxed.get(r) == Some(&u) {
                        dist[u as usize] = dv + edge_weight(g.offset(v) + pos as u64);
                        r += 1;
                    }
                }
                assert_eq!(r, relaxed.len(), "relaxed ids follow adjacency order");
            }
        }
        dist
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
        assert_eq!(replay_distances(&g, root, &host), dist);
    }

    #[test]
    fn host_sssp_rounds_shrink_distances() {
        let g = Csr::from_edges(uniform(512, 4_096, 1), true);
        let root = g.max_degree_vertex();
        let s = HostSssp::run(&g, root);
        assert!(!s.rounds.is_empty());
        // Every relaxed target appears among some later round's actives
        // or is terminal; at minimum the schedule is non-trivial.
        for r in &s.rounds {
            assert_eq!(r.starts.len(), r.vertices.len() + 1);
            assert_eq!(r.starts.last().map(|&e| e as usize), Some(r.relaxed.len()));
        }
        let relaxations: usize = s.rounds.iter().map(|r| r.relaxed.len()).sum();
        assert!(relaxations >= 511, "graph should be mostly reachable");
    }
}
