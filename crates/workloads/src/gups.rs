//! GUPS (giga-updates per second), modified as in the paper's §3 to
//! alternate between sequential and random phases with a 1:1
//! read/write ratio.

use std::collections::VecDeque;

use pact_stats::SplitMix64;
use pact_tiersim::{Access, AccessStream, Region, Workload, LINE_BYTES};

use crate::common::{stream_rng, BufferedStream, Generator, InitPhase, LayoutBuilder};

/// The GUPS workload: read-modify-write updates over a large table,
/// alternating between a sequential phase and a random phase (50% mix by
/// default, matching the paper's modified GUPS).
///
/// Updates in the random phase use independent addresses (the classic
/// GUPS index stream is computable ahead of the loads), so random phases
/// exhibit high MLP but no spatial locality, while sequential phases add
/// prefetch-friendliness. GUPS performs more computation per element
/// than Masim (`work` cycles), which raises per-access stall cost — the
/// paper's explanation for GUPS's higher PAC values.
#[derive(Debug, Clone)]
pub struct Gups {
    table_bytes: u64,
    updates: u64,
    phase_len: u64,
    random_fraction: f64,
    work: u16,
    threads: usize,
    footprint: u64,
    regions: Vec<Region>,
    seed: u64,
}

impl Gups {
    /// Builds GUPS over a `table_bytes` table with `updates` total
    /// updates split across `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if the table is smaller than one line or `threads == 0`.
    pub fn new(table_bytes: u64, updates: u64, threads: usize, seed: u64) -> Self {
        assert!(table_bytes >= LINE_BYTES, "table too small");
        assert!(threads > 0, "need at least one thread");
        let mut lb = LayoutBuilder::new();
        lb.region("gups_table", table_bytes);
        let (footprint, regions) = lb.finish();
        Self {
            table_bytes,
            updates,
            phase_len: 30_000,
            random_fraction: 0.5,
            work: 8,
            threads,
            footprint,
            regions,
            seed,
        }
    }

    /// Sets updates per phase.
    pub fn with_phase_len(mut self, len: u64) -> Self {
        assert!(len > 0);
        self.phase_len = len;
        self
    }
}

impl Workload for Gups {
    fn name(&self) -> String {
        "gups".into()
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    /// Table allocation/zeroing before the update loop.
    fn prologue(&self) -> Option<Box<dyn AccessStream + '_>> {
        Some(InitPhase::new().zero(0, self.table_bytes).into_stream())
    }

    fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
        let per_thread = self.updates / self.threads as u64;
        (0..self.threads)
            .map(|i| {
                let gen = GupsGen {
                    lines: self.table_bytes / LINE_BYTES,
                    remaining: per_thread,
                    phase_len: self.phase_len,
                    random_fraction: self.random_fraction,
                    work: self.work,
                    cursor: (i as u64) * (self.table_bytes / LINE_BYTES / self.threads as u64),
                    in_phase: 0,
                    random_phase: false,
                    rng: stream_rng(self.seed, i as u64),
                };
                Box::new(BufferedStream::new(gen)) as Box<dyn AccessStream + '_>
            })
            .collect()
    }
}

struct GupsGen {
    lines: u64,
    remaining: u64,
    phase_len: u64,
    random_fraction: f64,
    work: u16,
    cursor: u64,
    in_phase: u64,
    random_phase: bool,
    rng: SplitMix64,
}

impl Generator for GupsGen {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let batch = self.remaining.min(32);
        for _ in 0..batch {
            if self.in_phase == 0 {
                self.random_phase = self.rng.random::<f64>() < self.random_fraction;
                self.in_phase = self.phase_len;
            }
            self.in_phase -= 1;
            let line = if self.random_phase {
                self.rng.random_range(0..self.lines)
            } else {
                self.cursor = (self.cursor + 1) % self.lines;
                self.cursor
            };
            let addr = line * LINE_BYTES;
            // Read-modify-write: load then store to the same line.
            out.push_back(Access::load(addr).with_work(self.work));
            out.push_back(Access::store(addr));
        }
        self.remaining -= batch;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_tiersim::AccessKind;

    fn drain_one(w: &Gups) -> Vec<Access> {
        let mut s = w.streams().remove(0);
        let mut v = Vec::new();
        while let Some(a) = s.next_access() {
            v.push(a);
        }
        v
    }

    #[test]
    fn one_to_one_read_write_ratio() {
        let w = Gups::new(1 << 20, 4_000, 1, 11);
        let t = drain_one(&w);
        let loads = t.iter().filter(|a| a.kind == AccessKind::Load).count();
        let stores = t.iter().filter(|a| a.kind == AccessKind::Store).count();
        assert_eq!(loads, stores);
        assert_eq!(loads, 4_000);
    }

    #[test]
    fn store_follows_load_to_same_line() {
        let w = Gups::new(1 << 20, 100, 1, 11);
        let t = drain_one(&w);
        for pair in t.chunks(2) {
            assert_eq!(pair[0].kind, AccessKind::Load);
            assert_eq!(pair[1].kind, AccessKind::Store);
            assert_eq!(pair[0].vaddr, pair[1].vaddr);
        }
    }

    #[test]
    fn phases_alternate_patterns() {
        let w = Gups::new(1 << 22, 40_000, 1, 3).with_phase_len(1_000);
        let t = drain_one(&w);
        // Detect at least one sequential run and one random phase by
        // looking at address deltas between consecutive loads.
        let loads: Vec<u64> = t
            .iter()
            .filter(|a| a.kind == AccessKind::Load)
            .map(|a| a.vaddr)
            .collect();
        let mut seq_runs = 0;
        let mut jumps = 0;
        for w2 in loads.windows(2) {
            if w2[1] == w2[0] + LINE_BYTES {
                seq_runs += 1;
            } else {
                jumps += 1;
            }
        }
        assert!(seq_runs > 1_000, "sequential accesses: {seq_runs}");
        assert!(jumps > 1_000, "random accesses: {jumps}");
    }

    #[test]
    fn threads_split_updates() {
        let w = Gups::new(1 << 20, 8_000, 4, 1);
        let streams = w.streams();
        assert_eq!(streams.len(), 4);
        let mut total = 0;
        for mut s in streams {
            while s.next_access().is_some() {
                total += 1;
            }
        }
        assert_eq!(total, 2 * 8_000); // load + store per update
    }

    #[test]
    fn deterministic_replay() {
        let w = Gups::new(1 << 20, 1_000, 2, 9);
        let a: Vec<_> = drain_one(&w);
        let b: Vec<_> = drain_one(&w);
        assert_eq!(a, b);
    }
}
