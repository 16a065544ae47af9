//! Redis-style in-memory key-value store driven by YCSB workloads.
//!
//! The store is an open-chaining hash table: a GET hashes the key
//! (compute), loads the bucket head (random, independent), walks the
//! chain (dependent loads), then reads the value (short sequential
//! burst). YCSB-C is 100% reads with Zipf(0.99) keys — the paper's
//! Redis breakdown study (Figure 13) and part of the 12-workload suite.

use std::collections::VecDeque;

use pact_stats::SplitMix64;
use pact_tiersim::{Access, AccessStream, Region, Workload, LINE_BYTES};

use crate::common::{
    scramble, stream_rng, BufferedStream, Generator, InitPhase, LayoutBuilder, Zipf,
};

/// YCSB operation mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum YcsbMix {
    /// Workload A: 50% reads, 50% updates.
    A,
    /// Workload B: 95% reads, 5% updates.
    B,
    /// Workload C: 100% reads.
    C,
}

impl YcsbMix {
    fn read_fraction(self) -> f64 {
        match self {
            YcsbMix::A => 0.5,
            YcsbMix::B => 0.95,
            YcsbMix::C => 1.0,
        }
    }
}

/// A Redis-like hash-table store under a YCSB driver.
#[derive(Debug, Clone)]
pub struct KvStore {
    keys: u64,
    value_bytes: u64,
    ops: u64,
    threads: usize,
    mix: YcsbMix,
    zipf_theta: f64,
    buckets: u64,
    bucket_base: u64,
    entry_base: u64,
    value_base: u64,
    footprint: u64,
    regions: Vec<Region>,
    seed: u64,
}

/// Bytes per chain entry (key, hash, pointers — one line).
const ENTRY_BYTES: u64 = 64;

impl KvStore {
    /// Builds a store with `keys` records of `value_bytes` each, driven
    /// by `ops` operations split across `threads` YCSB threads.
    ///
    /// # Panics
    ///
    /// Panics on an empty keyspace or zero threads.
    pub fn new(
        keys: u64,
        value_bytes: u64,
        ops: u64,
        threads: usize,
        mix: YcsbMix,
        seed: u64,
    ) -> Self {
        assert!(keys > 1, "need a keyspace");
        assert!(threads > 0);
        let buckets = (keys / 2).next_power_of_two();
        let mut lb = LayoutBuilder::new();
        let bucket_base = lb.region("ht_buckets", buckets * 8);
        let entry_base = lb.region("ht_entries", keys * ENTRY_BYTES);
        let value_base = lb.region("values", keys * value_bytes.max(LINE_BYTES));
        let (footprint, regions) = lb.finish();
        Self {
            keys,
            value_bytes: value_bytes.max(LINE_BYTES),
            ops,
            threads,
            mix,
            zipf_theta: 0.99,
            buckets,
            bucket_base,
            entry_base,
            value_base,
            footprint,
            regions,
            seed,
        }
    }

    /// The paper's Redis/YCSB-C configuration at simulation scale.
    pub fn redis_ycsb_c(keys: u64, ops: u64, seed: u64) -> Self {
        Self::new(keys, 512, ops, 4, YcsbMix::C, seed)
    }
}

impl Workload for KvStore {
    fn name(&self) -> String {
        match self.mix {
            YcsbMix::A => "redis-ycsb-a".into(),
            YcsbMix::B => "redis-ycsb-b".into(),
            YcsbMix::C => "redis".into(),
        }
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    /// YCSB load phase: the store is populated key by key. As in a real
    /// allocator, dict entries and values are allocated *interleaved*,
    /// so under first-touch placement each tier ends up with a mix of
    /// entry and value pages rather than whole regions.
    fn prologue(&self) -> Option<Box<dyn AccessStream + '_>> {
        let mut init = InitPhase::new().zero(self.bucket_base, self.buckets * 8);
        const CHUNKS: u64 = 64;
        let entry_bytes = self.keys * ENTRY_BYTES;
        let value_bytes = self.keys * self.value_bytes;
        for i in 0..CHUNKS {
            let e0 = entry_bytes * i / CHUNKS;
            let e1 = entry_bytes * (i + 1) / CHUNKS;
            init = init.zero(self.entry_base + e0, e1 - e0);
            let v0 = value_bytes * i / CHUNKS;
            let v1 = value_bytes * (i + 1) / CHUNKS;
            init = init.zero(self.value_base + v0, v1 - v0);
        }
        Some(init.into_stream())
    }

    fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
        let per_thread = self.ops / self.threads as u64;
        (0..self.threads)
            .map(|i| {
                Box::new(BufferedStream::new(KvGen {
                    wl: self,
                    zipf: Zipf::new(self.keys, self.zipf_theta),
                    remaining: per_thread,
                    rng: stream_rng(self.seed, i as u64),
                })) as Box<dyn AccessStream + '_>
            })
            .collect()
    }
}

struct KvGen<'w> {
    wl: &'w KvStore,
    zipf: Zipf,
    remaining: u64,
    rng: SplitMix64,
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

impl Generator for KvGen<'_> {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        let wl = self.wl;
        // Zipf rank -> hashed key slot: hot keys scatter over the heap.
        let key = scramble(self.zipf.sample(&mut self.rng), wl.keys);
        let h = mix64(key);
        // Bucket head: random but address-computable (hash).
        let bucket = h % wl.buckets;
        out.push_back(Access::load(wl.bucket_base + bucket * 8).with_work(10));
        // Chain walk: average ~2 entries (load factor 2), dependent.
        let chain_len = 1 + (h >> 48) % 3;
        for step in 0..chain_len {
            let entry = mix64(key.wrapping_add(step * 0x1234_5678)) % wl.keys;
            out.push_back(Access::dependent_load(wl.entry_base + entry * ENTRY_BYTES).with_work(4));
        }
        // Value access: sequential lines of this key's value.
        let is_read = self.rng.random::<f64>() < wl.mix.read_fraction();
        let vbase = wl.value_base + key * wl.value_bytes;
        let mut addr = vbase;
        let mut first = true;
        while addr < vbase + wl.value_bytes {
            if is_read {
                let mut a = Access::load(addr).with_work(2);
                a.dep = first; // value pointer came from the chain entry
                out.push_back(a);
            } else {
                out.push_back(Access::store(addr));
            }
            first = false;
            addr += LINE_BYTES;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_tiersim::AccessKind;

    fn drain_one(w: &KvStore) -> Vec<Access> {
        let mut s = w.streams().remove(0);
        let mut v = Vec::new();
        while let Some(a) = s.next_access() {
            assert!(a.vaddr < w.footprint_bytes());
            v.push(a);
        }
        v
    }

    #[test]
    fn ycsb_c_is_read_only() {
        let w = KvStore::redis_ycsb_c(10_000, 4_000, 1);
        let t = drain_one(&w);
        assert!(t.iter().all(|a| a.kind == AccessKind::Load));
    }

    #[test]
    fn ycsb_a_mixes_writes() {
        let w = KvStore::new(10_000, 256, 8_000, 1, YcsbMix::A, 1);
        let t = drain_one(&w);
        let stores = t.iter().filter(|a| a.kind == AccessKind::Store).count();
        let frac = stores as f64 / t.len() as f64;
        assert!(frac > 0.15 && frac < 0.6, "store fraction {frac}");
    }

    #[test]
    fn hot_keys_dominate_value_traffic_but_scatter() {
        use std::collections::BTreeSet;
        let w = KvStore::redis_ycsb_c(100_000, 20_000, 3);
        let t = drain_one(&w);
        let values = w
            .regions()
            .iter()
            .find(|r| r.name == "values")
            .unwrap()
            .clone();
        let hot_slots: BTreeSet<u64> = (0..1_000)
            .map(|r| crate::common::scramble(r, 100_000))
            .collect();
        let mut hot = 0usize;
        let mut total = 0usize;
        let mut max_slot = 0u64;
        for a in t.iter().filter(|a| values.contains(a.vaddr)) {
            total += 1;
            let slot = (a.vaddr - values.start) / 512;
            max_slot = max_slot.max(slot);
            if hot_slots.contains(&slot) {
                hot += 1;
            }
        }
        assert!(
            hot as f64 / total as f64 > 0.3,
            "top 1% of ranks got {hot}/{total}"
        );
        // The hot set is scattered, not clustered at the heap start.
        assert!(max_slot > 50_000);
    }

    #[test]
    fn chain_walk_is_dependent() {
        let w = KvStore::redis_ycsb_c(1_000, 500, 2);
        let t = drain_one(&w);
        let entries = w
            .regions()
            .iter()
            .find(|r| r.name == "ht_entries")
            .unwrap()
            .clone();
        assert!(t
            .iter()
            .filter(|a| entries.contains(a.vaddr))
            .all(|a| a.dep));
    }

    #[test]
    fn threads_split_ops_evenly() {
        let w = KvStore::new(1_000, 128, 9_000, 3, YcsbMix::C, 5);
        let streams = w.streams();
        assert_eq!(streams.len(), 3);
    }

    #[test]
    fn deterministic() {
        let w = KvStore::redis_ycsb_c(5_000, 1_000, 7);
        assert_eq!(drain_one(&w), drain_one(&w));
    }
}
