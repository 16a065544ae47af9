//! Graph workloads: generators, CSR representation, and GAPBS-style
//! kernels (BFS, BC, SSSP, PageRank, triangle counting).

mod csr;
mod emit;
mod gen;
mod kernels;

pub use csr::Csr;
pub use gen::{kronecker, power_law, uniform, Edges};
pub use kernels::{count_triangles, GraphWorkload, Kernel};
