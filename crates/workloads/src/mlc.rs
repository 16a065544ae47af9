//! Intel MLC-style bandwidth generator for the contention study
//! (Figure 11): N threads streaming over private buffers, each pushing
//! on the order of 8 GB/s of read traffic, colocated as a *background*
//! process on the fast-tier node.

use std::collections::VecDeque;

use pact_tiersim::{Access, AccessStream, Region, Workload, LINE_BYTES};

use crate::common::{BufferedStream, Generator, LayoutBuilder};

/// The Memory Latency Checker bandwidth hog.
///
/// Buffers are sized to overflow the LLC (so traffic reaches memory) but
/// small enough that first-touch places them in the fast tier, matching
/// the paper's setup of MLC hammering the local DRAM node.
#[derive(Debug, Clone)]
pub struct Mlc {
    threads: usize,
    buffer_bytes: u64,
    loads_per_thread: u64,
    work: u16,
    footprint: u64,
    regions: Vec<Region>,
    background: bool,
}

impl Mlc {
    /// Builds an MLC instance with `threads` streaming threads.
    ///
    /// `work` spaces out loads to tune per-thread bandwidth: 0 saturates;
    /// the default [`Mlc::paper_thread`] spacing approximates one
    /// thread ≈ 8 GB/s on the simulated 2.2 GHz core.
    pub fn new(threads: usize, buffer_bytes: u64, loads_per_thread: u64, work: u16) -> Self {
        assert!(threads > 0, "need at least one thread");
        assert!(buffer_bytes >= LINE_BYTES);
        let mut lb = LayoutBuilder::new();
        for i in 0..threads {
            lb.region(format!("mlc_buf{i}"), buffer_bytes);
        }
        let (footprint, regions) = lb.finish();
        Self {
            threads,
            buffer_bytes,
            loads_per_thread,
            work,
            footprint,
            regions,
            background: true,
        }
    }

    /// One MLC thread ≈ 8 GB/s: a 64-byte line every ~17.6 cycles at
    /// 2.2 GHz, i.e. ~16 work cycles between loads.
    pub fn paper_thread(threads: usize, loads_per_thread: u64) -> Self {
        Self::new(threads, 4 << 20, loads_per_thread, 16)
    }

    /// The fleet-cell antagonist: the same streaming pattern as the
    /// Figure 11 hog, but run as a *foreground* tenant named
    /// `mlc-hog`, so its bounded access stream counts toward the run
    /// and its bandwidth is attributed to its own process lane in
    /// multi-tenant cells.
    pub fn hog(threads: usize, buffer_bytes: u64, loads_per_thread: u64) -> Self {
        let mut m = Self::new(threads, buffer_bytes, loads_per_thread, 0);
        m.background = false;
        m
    }
}

impl Workload for Mlc {
    fn name(&self) -> String {
        if self.background {
            format!("mlc-{}t", self.threads)
        } else {
            "mlc-hog".to_string()
        }
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    fn is_background(&self) -> bool {
        self.background
    }

    fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
        (0..self.threads)
            .map(|i| {
                Box::new(BufferedStream::new(MlcGen {
                    base: i as u64 * self.buffer_bytes,
                    lines: self.buffer_bytes / LINE_BYTES,
                    remaining: self.loads_per_thread,
                    cursor: 0,
                    work: self.work,
                })) as Box<dyn AccessStream + '_>
            })
            .collect()
    }
}

struct MlcGen {
    base: u64,
    lines: u64,
    remaining: u64,
    cursor: u64,
    work: u16,
}

impl Generator for MlcGen {
    fn refill(&mut self, out: &mut VecDeque<Access>) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let batch = self.remaining.min(64);
        for _ in 0..batch {
            out.push_back(Access::load(self.base + self.cursor * LINE_BYTES).with_work(self.work));
            self.cursor = (self.cursor + 1) % self.lines;
        }
        self.remaining -= batch;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_background() {
        assert!(Mlc::paper_thread(1, 100).is_background());
    }

    #[test]
    fn hog_is_a_foreground_tenant() {
        let h = Mlc::hog(2, 1 << 20, 100);
        assert!(!h.is_background());
        assert_eq!(h.name(), "mlc-hog");
    }

    #[test]
    fn per_thread_buffers_are_private() {
        let m = Mlc::new(2, 1 << 20, 100, 0);
        let mut streams = m.streams();
        let a = streams[0].next_access().unwrap();
        let b = streams[1].next_access().unwrap();
        assert_eq!(a.vaddr, 0);
        assert_eq!(b.vaddr, 1 << 20);
    }

    #[test]
    fn stream_wraps_buffer() {
        let m = Mlc::new(1, 2 * LINE_BYTES, 5, 0);
        let mut s = m.streams().remove(0);
        let addrs: Vec<u64> = std::iter::from_fn(|| s.next_access().map(|a| a.vaddr)).collect();
        assert_eq!(addrs, vec![0, 64, 0, 64, 0]);
    }

    #[test]
    fn work_paces_bandwidth() {
        let m = Mlc::paper_thread(1, 10);
        let mut s = m.streams().remove(0);
        assert_eq!(s.next_access().unwrap().work, 16);
    }
}
