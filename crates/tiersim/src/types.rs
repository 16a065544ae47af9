//! Fundamental simulator types: tiers, accesses, page identifiers.

/// Size of a cache line in bytes.
pub const LINE_BYTES: u64 = 64;

/// Size of a base (4 KiB) page in bytes.
pub const PAGE_BYTES: u64 = 4096;

/// Number of base pages in a 2 MiB transparent huge page.
pub const HUGE_PAGE_SPAN: u64 = 512;

/// A memory tier in a two-tier system.
///
/// `Fast` models local DRAM; `Slow` models the far tier (cross-socket NUMA
/// or emulated CXL, depending on the [`TierConfig`](crate::TierConfig) in
/// use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// The fast, capacity-constrained tier (local DRAM).
    Fast,
    /// The slow, large tier (NUMA/CXL).
    Slow,
}

impl Tier {
    /// Both tiers, fast first.
    pub const ALL: [Tier; 2] = [Tier::Fast, Tier::Slow];

    /// Dense index for per-tier arrays: `Fast = 0`, `Slow = 1`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Tier::Fast => 0,
            Tier::Slow => 1,
        }
    }

    /// The other tier.
    #[inline]
    pub fn other(self) -> Tier {
        match self {
            Tier::Fast => Tier::Slow,
            Tier::Slow => Tier::Fast,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tier::Fast => write!(f, "fast"),
            Tier::Slow => write!(f, "slow"),
        }
    }
}

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load. Loads stall the pipeline and are PEBS-sampled.
    Load,
    /// A store. Stores retire through the write buffer and consume
    /// bandwidth but do not stall the core (§4.3.5 of the paper).
    Store,
}

/// One memory access emitted by a workload stream.
///
/// The `dep` flag is how workloads express memory-level parallelism to the
/// simulator: a dependent access (pointer chase) cannot issue before the
/// previous miss of the same stream completes, serializing it; independent
/// accesses overlap up to the MSHR limit. `work` models compute cycles
/// between this access and the previous one, which both spaces out the miss
/// stream and scales the stall cost of the data (the paper's GUPS-vs-Masim
/// contrast in Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Process-local virtual address.
    pub vaddr: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// True if this access must wait for the previous miss in this stream
    /// (address produced by a pointer load).
    pub dep: bool,
    /// Compute cycles spent before issuing this access.
    pub work: u16,
}

impl Access {
    /// Convenience constructor for an independent load with no
    /// preceding compute.
    #[inline]
    pub fn load(vaddr: u64) -> Self {
        Self {
            vaddr,
            kind: AccessKind::Load,
            dep: false,
            work: 0,
        }
    }

    /// Convenience constructor for a dependent (pointer-chasing) load.
    #[inline]
    pub fn dependent_load(vaddr: u64) -> Self {
        Self {
            vaddr,
            kind: AccessKind::Load,
            dep: true,
            work: 0,
        }
    }

    /// Convenience constructor for an independent store.
    #[inline]
    pub fn store(vaddr: u64) -> Self {
        Self {
            vaddr,
            kind: AccessKind::Store,
            dep: false,
            work: 0,
        }
    }

    /// Returns a copy with `work` compute cycles attached.
    #[inline]
    pub fn with_work(mut self, work: u16) -> Self {
        self.work = work;
        self
    }
}

/// Identifier of a process (one colocated workload) inside a machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u16);

/// Global (machine-wide) page number. Each process's virtual pages are
/// mapped into a disjoint, huge-page-aligned range of this space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    /// First base page of the huge page containing this page.
    #[inline]
    pub fn huge_head(self) -> PageId {
        PageId(self.0 & !(HUGE_PAGE_SPAN - 1))
    }

    /// Whether this page is the first base page of its huge page.
    #[inline]
    pub fn is_huge_head(self) -> bool {
        self.0.is_multiple_of(HUGE_PAGE_SPAN)
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_indices_are_dense() {
        assert_eq!(Tier::Fast.index(), 0);
        assert_eq!(Tier::Slow.index(), 1);
        assert_eq!(Tier::Fast.other(), Tier::Slow);
        assert_eq!(Tier::Slow.other(), Tier::Fast);
    }

    #[test]
    fn huge_head_alignment() {
        assert_eq!(PageId(0).huge_head(), PageId(0));
        assert_eq!(PageId(511).huge_head(), PageId(0));
        assert_eq!(PageId(512).huge_head(), PageId(512));
        assert_eq!(PageId(1000).huge_head(), PageId(512));
        assert!(PageId(512).is_huge_head());
        assert!(!PageId(513).is_huge_head());
    }

    #[test]
    fn access_constructors() {
        let a = Access::load(4096).with_work(7);
        assert_eq!(a.vaddr, 4096);
        assert_eq!(a.kind, AccessKind::Load);
        assert!(!a.dep);
        assert_eq!(a.work, 7);
        assert!(Access::dependent_load(0).dep);
        assert_eq!(Access::store(8).kind, AccessKind::Store);
    }

    #[test]
    fn tier_display() {
        assert_eq!(Tier::Fast.to_string(), "fast");
        assert_eq!(Tier::Slow.to_string(), "slow");
    }
}
