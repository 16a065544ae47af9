//! GUPS (giga-updates per second), modified as in the paper's §3 to
//! alternate between sequential and random phases with a 1:1
//! read/write ratio.

use std::collections::VecDeque;

use pact_stats::SplitMix64;
use pact_tiersim::{Access, AccessStream, Region, Workload, LINE_BYTES};

use crate::common::{stream_rng, BufferedStream, Generator, InitPhase, LayoutBuilder};

/// The GUPS workload: read-modify-write updates over a large table,
/// alternating strictly between a sequential phase and a random phase
/// (a 50% mix, matching the paper's modified GUPS). Each thread's
/// first pattern is drawn from its seeded stream.
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
            work: 8,
            threads,
            footprint,
            regions,
            seed,
        }
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
                let mut rng = stream_rng(self.seed, i as u64);
                let gen = GupsGen {
                    lines: self.table_bytes / LINE_BYTES,
                    remaining: per_thread,
                    phase_len: self.phase_len,
                    work: self.work,
                    cursor: (i as u64) * (self.table_bytes / LINE_BYTES / self.threads as u64),
                    in_phase: self.phase_len,
                    random_phase: rng.random::<bool>(),
                    rng,
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
                self.random_phase = !self.random_phase;
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

    /// Each default-length phase's loads, classified by their address
    /// deltas: `true` for a sequential phase (nearly every delta is one
    /// line), `false` for a random one (almost none is).
    fn phase_patterns(w: &Gups) -> Vec<bool> {
        let loads: Vec<u64> = drain_one(w)
            .iter()
            .filter(|a| a.kind == AccessKind::Load)
            .map(|a| a.vaddr)
            .collect();
        loads
            .chunks(w.phase_len as usize)
            .map(|phase| {
                let steps = phase.windows(2).filter(|p| p[1] == p[0] + LINE_BYTES);
                let share = steps.count() as f64 / (phase.len() - 1) as f64;
                assert!(!(0.1..=0.9).contains(&share), "mixed phase: {share}");
                share > 0.9
            })
            .collect()
    }

    #[test]
    fn phases_alternate_patterns() {
        // Ten default-length phases per seed: consecutive phases never
        // share a pattern, and the first pattern follows the seed.
        let mut firsts = Vec::new();
        for seed in [1, 2, 3, 7, 42] {
            let patterns = phase_patterns(&Gups::new(1 << 22, 300_000, 1, seed));
            assert_eq!(patterns.len(), 10, "seed {seed}");
            for (k, pair) in patterns.windows(2).enumerate() {
                assert_ne!(pair[0], pair[1], "seed {seed}: phases {k} and {}", k + 1);
            }
            firsts.push(patterns[0]);
        }
        assert!(
            firsts.contains(&true) && firsts.contains(&false),
            "first patterns {firsts:?} ignore the seed"
        );
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
