//! The `workloads`, `cache` and `mem` layers timed from outside: a
//! workload's access streams are drained standalone and replayed
//! through the simulator's public LLC, prefetcher and page-table types.
//!
//! Streams are drained one after another (prologue first) in chunks;
//! each chunk is timed three times over — generation, cache replay,
//! page replay — so no layer's time includes another's. The replay
//! follows the machine's per-access calls but not its thread
//! interleaving or prefetch coverage draw, so its hit counts are
//! indicative; its host times are what it measures.

use std::hint::black_box;
use std::time::Instant;

use pact_tiersim::{
    line_of, Access, AccessKind, AccessStream, Llc, MachineConfig, Memory, PageId, StrideDetector,
    Workload, LINE_BYTES, PAGE_BYTES,
};

const CHUNK: usize = 1 << 16;

/// Host time per layer over one drain of a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Accesses the workload's prologue and streams emitted.
    pub accesses: u64,
    /// Host ns spent generating them.
    pub stream_ns: u64,
    /// Host ns spent in `Llc` and `StrideDetector` calls.
    pub llc_ns: u64,
    /// Host ns spent in `Memory` calls.
    pub page_ns: u64,
}

fn all_streams(wl: &dyn Workload) -> Vec<Box<dyn AccessStream + '_>> {
    let mut streams: Vec<_> = wl.prologue().into_iter().collect();
    streams.extend(wl.streams());
    streams
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counts the accesses the workload emits, without replaying them.
pub fn count_accesses(wl: &dyn Workload) -> u64 {
    let mut n = 0u64;
    for mut s in all_streams(wl) {
        while s.next_access().is_some() {
            n += 1;
        }
    }
    n
}

/// Drains `wl` and replays every access through a standalone LLC,
/// prefetcher and page table built from `cfg`.
pub fn replay_layers(wl: &dyn Workload, cfg: &MachineConfig) -> LayerTimes {
    let footprint = wl.footprint_bytes();
    let mut llc = Llc::new(cfg.llc);
    let mut mem = Memory::new(footprint.div_ceil(PAGE_BYTES), cfg.fast_tier_pages, 1);
    let mut times = LayerTimes::default();
    let mut buf: Vec<Access> = Vec::with_capacity(CHUNK);
    let mut hits = 0u64;
    for mut stream in all_streams(wl) {
        let mut detector = StrideDetector::new(&cfg.prefetch);
        loop {
            buf.clear();
            let start = Instant::now();
            while buf.len() < CHUNK {
                match stream.next_access() {
                    Some(a) => buf.push(a),
                    None => break,
                }
            }
            times.stream_ns += ns_since(start);
            if buf.is_empty() {
                break;
            }
            times.accesses += buf.len() as u64;

            let start = Instant::now();
            for a in &buf {
                let line = line_of(a.vaddr);
                hits += u64::from(llc.access(line));
                if a.kind == AccessKind::Load {
                    for pline in detector.observe(line) {
                        if pline * LINE_BYTES < footprint && !llc.contains(pline) {
                            llc.fill(pline);
                        }
                    }
                }
            }
            times.llc_ns += ns_since(start);

            let start = Instant::now();
            for a in &buf {
                let page = PageId(a.vaddr / PAGE_BYTES);
                black_box(mem.ensure_mapped_with(page, None));
                mem.touch(page, 0);
            }
            times.page_ns += ns_since(start);
        }
    }
    black_box(hits);
    black_box(mem.fast_used());
    times
}

#[cfg(test)]
mod tests {
    use pact_bench::experiment_machine;
    use pact_workloads::suite::{build, Scale};

    use super::*;

    #[test]
    fn replay_drains_what_count_counts() {
        let wl = build("gups", Scale::Smoke, 5);
        let times = replay_layers(wl.as_ref(), &experiment_machine(16));
        assert_eq!(times.accesses, count_accesses(wl.as_ref()));
        assert!(times.accesses > 0 && times.llc_ns > 0 && times.page_ns > 0);
    }
}
