//! # pact-workloads — the workload suite of the PACT reproduction
//!
//! Implements every application the paper (ASPLOS '26) evaluates or
//! profiles, as [`Workload`](pact_tiersim::Workload) implementations
//! that run real algorithms and emit their memory accesses against the
//! simulated address space:
//!
//! * **Microbenchmarks** (§3 motivation): [`Masim`] pattern threads and
//!   phase-alternating [`Gups`];
//! * **Graph analytics** ([`graph`]): Kronecker / uniform / power-law
//!   generators with BFS, betweenness centrality, SSSP, PageRank, and
//!   triangle-counting kernels (the GAPBS substitute);
//! * **ML inference**: [`Gpt2`]-shaped weight streaming + KV-cache walks;
//! * **In-memory stores**: [`KvStore`] (Redis under YCSB) and [`Silo`]
//!   (B+-tree OLTP);
//! * **SPEC CPU 2017 shapes**: [`Bwaves`], [`Deepsjeng`], [`Xz`];
//! * **Contention**: the [`Mlc`] bandwidth hog (Figure 11);
//! * **Model validation**: [`Phased`] synthetics for the 96-workload
//!   stall-model study (Figure 2) and MLP phase traces (Figure 3).
//!
//! The [`suite`] module names the paper's 12-workload evaluation set.
//!
//! # Example
//!
//! ```
//! use pact_tiersim::{FirstTouch, Machine, MachineConfig, Workload};
//! use pact_workloads::suite::{build, Scale};
//!
//! let wl = build("silo", Scale::Smoke, 42);
//! let fast_pages = wl.footprint_bytes() / 4096 / 2; // 1:1 tier ratio
//! let machine = Machine::new(MachineConfig::skylake_cxl(fast_pages)).unwrap();
//! let report = machine.try_run(wl.as_ref(), &mut FirstTouch::new()).unwrap();
//! assert!(report.counters.total_misses() > 0);
//! ```

#![warn(missing_docs)]

mod common;
mod gpt2;
pub mod graph;
mod gups;
mod kvstore;
mod masim;
mod mlc;
mod phased;
mod silo;
mod spec;
pub mod suite;
mod zipfdrift;

pub use common::{BufferedStream, Generator, LayoutBuilder, Zipf};
pub use gpt2::Gpt2;
pub use gups::Gups;
pub use kvstore::{KvStore, YcsbMix};
pub use masim::{Masim, MasimPattern, MasimThread};
pub use mlc::Mlc;
pub use phased::{Phase, PhasePattern, Phased};
pub use silo::Silo;
pub use spec::{Bwaves, Deepsjeng, Xz};
pub use zipfdrift::ZipfDrift;
