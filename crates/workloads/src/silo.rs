//! Silo-style in-memory OLTP: B+-tree index probes plus record access.
//!
//! Each transaction performs several index lookups — a root-to-leaf
//! pointer chase through a B+-tree (the classic low-MLP, high-criticality
//! pattern) — followed by record reads/writes. Keys are Zipf-distributed,
//! so upper tree levels stay cache-hot while leaf and record pages spread
//! across the footprint.

use std::collections::VecDeque;

use pact_stats::SplitMix64;
use pact_tiersim::{Access, AccessStream, Region, Workload, LINE_BYTES};

use crate::common::{
    scramble, stream_rng, BufferedStream, Generator, InitPhase, LayoutBuilder, Zipf,
};

/// Bytes per B+-tree node (one line-sized header plus keys; we model a
/// 256-byte node = 4 lines, of which the search touches ~2).
const NODE_BYTES: u64 = 256;

/// The Silo-like OLTP workload.
#[derive(Debug, Clone)]
pub struct Silo {
    rows: u64,
    row_bytes: u64,
    txns: u64,
    threads: usize,
    reads_per_txn: u32,
    writes_per_txn: u32,
    levels: u32,
    level_bases: Vec<u64>,
    level_nodes: Vec<u64>,
    row_base: u64,
    footprint: u64,
    regions: Vec<Region>,
    seed: u64,
}

impl Silo {
    /// Builds a Silo-style store with `rows` records of `row_bytes`,
    /// running `txns` transactions across `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics on an empty table or zero threads.
    pub fn new(rows: u64, row_bytes: u64, txns: u64, threads: usize, seed: u64) -> Self {
        assert!(rows > 16, "need a table");
        assert!(threads > 0);
        // B+-tree fanout 16: levels sized rows/16^i from the leaves up.
        let fanout = 16u64;
        let mut top = rows.div_ceil(fanout); // leaves
        let mut level_sizes = vec![top];
        while top > 1 {
            top = top.div_ceil(fanout);
            level_sizes.push(top);
        }
        level_sizes.reverse(); // root first
        let mut lb = LayoutBuilder::new();
        let mut level_bases = Vec::new();
        for (i, &nodes) in level_sizes.iter().enumerate() {
            level_bases.push(lb.region(format!("btree_l{i}"), nodes * NODE_BYTES));
        }
        let row_base = lb.region("rows", rows * row_bytes.max(LINE_BYTES));
        let (footprint, regions) = lb.finish();
        Self {
            rows,
            row_bytes: row_bytes.max(LINE_BYTES),
            txns,
            threads,
            reads_per_txn: 8,
            writes_per_txn: 2,
            levels: level_sizes.len() as u32,
            level_bases,
            level_nodes: level_sizes,
            row_base,
            footprint,
            regions,
            seed,
        }
    }

    /// The paper-suite configuration at simulation scale.
    pub fn paper_scale(txns: u64, seed: u64) -> Self {
        Self::new(200_000, 128, txns, 4, seed)
    }
}

impl Workload for Silo {
    fn name(&self) -> String {
        "silo".into()
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    /// Database load phase: inner index nodes first, then leaves and
    /// rows interleaved (rows are allocated as they are inserted, so
    /// leaf and row pages mix under first-touch placement).
    fn prologue(&self) -> Option<Box<dyn AccessStream + '_>> {
        let mut init = InitPhase::new();
        let leaves = self.levels as usize - 1;
        for (i, r) in self.regions.iter().enumerate() {
            if i < leaves {
                init = init.zero(r.start, r.bytes);
            }
        }
        let leaf = &self.regions[leaves];
        let rows = &self.regions[leaves + 1];
        const CHUNKS: u64 = 64;
        for i in 0..CHUNKS {
            let l0 = leaf.bytes * i / CHUNKS;
            let l1 = leaf.bytes * (i + 1) / CHUNKS;
            init = init.zero(leaf.start + l0, l1 - l0);
            let r0 = rows.bytes * i / CHUNKS;
            let r1 = rows.bytes * (i + 1) / CHUNKS;
            init = init.zero(rows.start + r0, r1 - r0);
        }
        Some(init.into_stream())
    }

    fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
        let per_thread = self.txns / self.threads as u64;
        (0..self.threads)
            .map(|i| {
                Box::new(BufferedStream::new(SiloGen {
                    wl: self,
                    zipf: Zipf::new(self.rows, 0.9),
                    remaining: per_thread,
                    rng: stream_rng(self.seed, i as u64),
                })) as Box<dyn AccessStream + '_>
            })
            .collect()
    }
}

struct SiloGen<'w> {
    wl: &'w Silo,
    zipf: Zipf,
    remaining: u64,
    rng: SplitMix64,
}

impl SiloGen<'_> {
    /// Emits a root-to-leaf index probe for `key` and returns nothing;
    /// every level below the root is a dependent load.
    fn emit_probe(&self, out: &mut VecDeque<Access>, key: u64) {
        let wl = self.wl;
        for level in 0..wl.levels {
            let nodes = wl.level_nodes[level as usize];
            // The node this key routes through at this level.
            let node = key * nodes / wl.rows;
            let addr = wl.level_bases[level as usize] + node.min(nodes - 1) * NODE_BYTES;
            let mut a = Access::load(addr).with_work(6); // key comparisons
            a.dep = level > 0; // child pointer loaded from the parent
            out.push_back(a);
            // Binary search touches a second line of the node.
            out.push_back(Access::load(addr + LINE_BYTES).with_work(4));
        }
    }

    fn emit_row(&self, out: &mut VecDeque<Access>, key: u64, write: bool) {
        let wl = self.wl;
        let base = wl.row_base + key * wl.row_bytes;
        let mut addr = base;
        let mut first = true;
        while addr < base + wl.row_bytes {
            if write {
                out.push_back(Access::store(addr));
            } else {
                let mut a = Access::load(addr).with_work(3);
                a.dep = first; // row pointer came from the leaf
                out.push_back(a);
            }
            first = false;
            addr += LINE_BYTES;
        }
    }
}

impl Generator for SiloGen<'_> {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        let reads = self.wl.reads_per_txn;
        let writes = self.wl.writes_per_txn;
        for _ in 0..reads {
            let key = scramble(self.zipf.sample(&mut self.rng), self.wl.rows);
            self.emit_probe(out, key);
            self.emit_row(out, key, false);
        }
        for _ in 0..writes {
            let key = scramble(self.zipf.sample(&mut self.rng), self.wl.rows);
            self.emit_probe(out, key);
            self.emit_row(out, key, true);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_tiersim::AccessKind;

    fn drain_one(w: &Silo) -> Vec<Access> {
        let mut s = w.streams().remove(0);
        let mut v = Vec::new();
        while let Some(a) = s.next_access() {
            assert!(a.vaddr < w.footprint_bytes());
            v.push(a);
        }
        v
    }

    #[test]
    fn tree_has_multiple_levels() {
        let w = Silo::new(100_000, 128, 10, 1, 1);
        assert!(w.levels >= 4, "levels: {}", w.levels);
        assert!(w.regions().iter().any(|r| r.name == "btree_l0"));
    }

    #[test]
    fn probes_are_dependent_chains() {
        let w = Silo::new(10_000, 128, 100, 1, 1);
        let t = drain_one(&w);
        let deps = t.iter().filter(|a| a.dep).count();
        assert!(deps > 100, "dependent probe loads: {deps}");
    }

    #[test]
    fn txn_mix_includes_writes() {
        let w = Silo::new(10_000, 128, 200, 1, 2);
        let t = drain_one(&w);
        let stores = t.iter().filter(|a| a.kind == AccessKind::Store).count();
        assert!(stores > 0);
        // 2 writes per 10 row ops; each row is 2 lines of 128B.
        let frac = stores as f64 / t.len() as f64;
        assert!(frac > 0.02 && frac < 0.2, "store fraction {frac}");
    }

    #[test]
    fn root_is_reused_across_txns() {
        let w = Silo::new(50_000, 128, 100, 1, 3);
        let t = drain_one(&w);
        let root = w
            .regions()
            .iter()
            .find(|r| r.name == "btree_l0")
            .unwrap()
            .clone();
        let hits = t.iter().filter(|a| root.contains(a.vaddr)).count();
        // Every probe touches the root twice: 100 txns x 10 ops x 2.
        assert_eq!(hits, 100 * 10 * 2);
    }

    #[test]
    fn deterministic() {
        let w = Silo::new(5_000, 128, 50, 2, 4);
        assert_eq!(drain_one(&w), drain_one(&w));
    }
}
