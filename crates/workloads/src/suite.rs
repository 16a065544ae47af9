//! The named workload suite used by the evaluation harness.
//!
//! Mirrors the paper's 12-workload evaluation set (§5.3): five GAPBS
//! kernels over Kronecker / uniform / power-law ("twitter") graphs,
//! GPT-2 inference, Redis under YCSB-C, Silo OLTP, and three SPEC
//! CPU 2017 kernels — plus the Masim and GUPS microbenchmarks used in
//! the motivation study (§3).

use pact_tiersim::Workload;

use crate::graph::{kronecker, power_law, uniform, Csr, GraphWorkload, Kernel};
use crate::{Bwaves, Deepsjeng, Gpt2, Gups, KvStore, Masim, Mlc, Silo, Xz, ZipfDrift};

/// Size class of a suite workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// Tiny instances for unit/integration tests (sub-second full suite).
    Smoke,
    /// The benchmark scale used to reproduce the paper's figures
    /// (tens of MB footprints, tens of millions of accesses).
    Paper,
}

/// Names of the 12 evaluation workloads, in the paper's Figure 6 order.
pub const SUITE: [&str; 12] = [
    "bc-kron",
    "bc-urand",
    "bc-twitter",
    "tc-twitter",
    "sssp-kron",
    "pr-twitter",
    "gpt-2",
    "redis",
    "silo",
    "603.bwaves",
    "631.deepsjeng",
    "657.xz",
];

/// Builds a suite workload by name.
///
/// Accepts every name in [`SUITE`] plus the motivation-study workloads
/// `"masim"` and `"gups"`, and the fleet-cell tenants `"mlc-hog"`
/// (foreground bandwidth antagonist) and `"zipf-drift"` (skew-drift
/// Zipf point lookups).
///
/// # Panics
///
/// Panics on an unknown name; use [`SUITE`] to enumerate valid ones.
pub fn build(name: &str, scale: Scale, seed: u64) -> Box<dyn Workload> {
    let s = scale;
    match name {
        "bc-kron" => graph(name, kron_graph(s, seed), bc_kernel(s), seed),
        "bc-urand" => graph(name, urand_graph(s, seed), bc_kernel(s), seed),
        "bc-twitter" => graph(name, twitter_graph(s, seed), bc_kernel(s), seed),
        "tc-twitter" => graph(
            name,
            twitter_graph(s, seed),
            Kernel::TriangleCount {
                threads: 4,
                budget: pick(s, 60_000, 5_000_000),
            },
            seed,
        ),
        "sssp-kron" => graph(
            name,
            kron_graph(s, seed),
            Kernel::Sssp {
                sources: src(s),
                threads: 4,
            },
            seed,
        ),
        "pr-twitter" => graph(
            name,
            twitter_graph(s, seed),
            Kernel::PageRank {
                iterations: pick(s, 2, 3) as u32,
                threads: 4,
            },
            seed,
        ),
        "gpt-2" => match s {
            Scale::Smoke => Box::new(Gpt2::new(2, 128 * 1024, 8)),
            Scale::Paper => Box::new(Gpt2::paper_scale()),
        },
        "redis" => Box::new(KvStore::redis_ycsb_c(
            pick(s, 4_000, 60_000),
            pick(s, 8_000, 800_000),
            seed,
        )),
        "silo" => match s {
            Scale::Smoke => Box::new(Silo::new(8_000, 128, 1_000, 2, seed)),
            Scale::Paper => Box::new(Silo::paper_scale(100_000, seed)),
        },
        "603.bwaves" => match s {
            Scale::Smoke => Box::new(Bwaves::new(1 << 19, 1)),
            Scale::Paper => Box::new(Bwaves::new(8 << 20, 6)),
        },
        "631.deepsjeng" => match s {
            Scale::Smoke => Box::new(Deepsjeng::new(1 << 20, 10_000, 2, seed)),
            Scale::Paper => Box::new(Deepsjeng::paper_scale(3_000_000, seed)),
        },
        "657.xz" => match s {
            Scale::Smoke => Box::new(Xz::new(1 << 20, 1 << 18, seed)),
            Scale::Paper => Box::new(Xz::new(24 << 20, 32 << 20, seed)),
        },
        "masim" => match s {
            Scale::Smoke => Box::new(Masim::figure1(1 << 20, 50_000, seed)),
            Scale::Paper => Box::new(Masim::figure1(16 << 20, 3_000_000, seed)),
        },
        "gups" => match s {
            Scale::Smoke => Box::new(Gups::new(1 << 20, 50_000, 2, seed)),
            Scale::Paper => Box::new(Gups::new(24 << 20, 4_000_000, 2, seed)),
        },
        "mlc-hog" => match s {
            Scale::Smoke => Box::new(Mlc::hog(2, 256 * 1024, 30_000)),
            Scale::Paper => Box::new(Mlc::hog(4, 4 << 20, 2_000_000)),
        },
        "zipf-drift" => match s {
            Scale::Smoke => Box::new(ZipfDrift::new(256, 60_000, 0.99, 10_000, seed)),
            Scale::Paper => Box::new(ZipfDrift::new(6_144, 4_000_000, 0.99, 400_000, seed)),
        },
        other => panic!(
            "unknown workload '{other}'; valid names: {SUITE:?}, masim, gups, mlc-hog, zipf-drift"
        ),
    }
}

fn pick(s: Scale, smoke: u64, paper: u64) -> u64 {
    match s {
        Scale::Smoke => smoke,
        Scale::Paper => paper,
    }
}

fn src(s: Scale) -> usize {
    match s {
        Scale::Smoke => 2,
        Scale::Paper => 4,
    }
}

fn bc_kernel(s: Scale) -> Kernel {
    Kernel::Bc {
        sources: src(s),
        threads: 4,
    }
}

fn kron_graph(s: Scale, seed: u64) -> Csr {
    match s {
        Scale::Smoke => Csr::from_edges(kronecker(11, 8, seed), true),
        Scale::Paper => Csr::from_edges(kronecker(17, 10, seed), true),
    }
}

fn urand_graph(s: Scale, seed: u64) -> Csr {
    match s {
        Scale::Smoke => Csr::from_edges(uniform(2_048, 16_384, seed), true),
        Scale::Paper => Csr::from_edges(uniform(131_072, 1_300_000, seed), true),
    }
}

fn twitter_graph(s: Scale, seed: u64) -> Csr {
    match s {
        Scale::Smoke => Csr::from_edges(power_law(2_048, 16_384, 0.9, seed), true),
        Scale::Paper => Csr::from_edges(power_law(131_072, 1_300_000, 0.9, seed), true),
    }
}

fn graph(name: &str, csr: Csr, kernel: Kernel, seed: u64) -> Box<dyn Workload> {
    Box::new(GraphWorkload::new(name, csr, kernel, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_workload_builds_at_smoke_scale() {
        for name in SUITE {
            let wl = build(name, Scale::Smoke, 1);
            assert_eq!(wl.name(), name);
            assert!(wl.footprint_bytes() > 0);
            let mut streams = wl.streams();
            assert!(!streams.is_empty());
            let first = streams[0].next_access();
            assert!(first.is_some(), "{name} emitted nothing");
        }
    }

    #[test]
    fn motivation_workloads_build() {
        for name in ["masim", "gups"] {
            let wl = build(name, Scale::Smoke, 1);
            assert!(!wl.streams().is_empty());
        }
    }

    #[test]
    fn fleet_tenants_build_as_foreground() {
        for name in ["mlc-hog", "zipf-drift"] {
            let wl = build(name, Scale::Smoke, 1);
            assert_eq!(wl.name(), name);
            assert!(!wl.is_background(), "{name} must bound a fleet run");
            assert!(!wl.streams().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_name_panics() {
        build("nope", Scale::Smoke, 1);
    }

    #[test]
    fn paper_scale_footprints_exceed_llc() {
        // Spot-check two cheap-to-build entries.
        for name in ["gpt-2", "657.xz"] {
            let wl = build(name, Scale::Paper, 1);
            assert!(
                wl.footprint_bytes() > 8 << 20,
                "{name} footprint too small for tiering study"
            );
        }
    }
}
