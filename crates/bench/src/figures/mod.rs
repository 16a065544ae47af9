//! The paper's evaluation as data: every figure, Table 2, the
//! ablations and the two extra experiments, each a function that
//! renders its report from a shared [`Lab`].
//!
//! [`FIGURES`] lists them in report order; `tierctl repro` renders a
//! selection with [`render_all`], one figure at a time, and prints the
//! reports in that order, so a full reproduction prints exactly the
//! concatenation of the figures run one by one. Each figure fans its
//! own runs over the lab's workers, through [`Lab::cells`] or
//! [`run_indexed`](crate::run_indexed).

use std::time::Instant;

use pact_core::PactConfig;

use crate::Lab;

mod ablations;
mod extra_numa;
mod extra_pac;
mod fig01;
mod fig02;
mod fig03;
mod fig04;
mod fig05;
mod fig06;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;

/// A rendered report, or why the figure could not be produced.
pub type Rendered = Result<String, Box<dyn std::error::Error + Send + Sync>>;

/// One report of the reproduction.
#[derive(Debug)]
pub struct Figure {
    /// The `tierctl repro --fig` name.
    pub name: &'static str,
    /// File under `results/` that a paper-scale run saves the report
    /// to.
    pub file: &'static str,
    /// Renders the report.
    pub render: fn(&Lab) -> Rendered,
}

/// Every report, in the order `tierctl repro` prints them.
pub const FIGURES: [Figure; 16] = [
    figure("fig01", "fig01_pac_vs_freq.txt", fig01::render),
    figure("fig02", "fig02_stall_model.txt", fig02::render),
    figure("fig03", "fig03_tor_mlp.txt", fig03::render),
    figure("fig04", "fig04_bckron_4k.txt", fig04::render),
    figure("fig05", "fig05_bckron_thp.txt", fig05::render),
    figure("fig06", "fig06_all_workloads.txt", fig06::render),
    figure("fig07", "fig07_improvement_cdf.txt", fig07::render),
    figure("fig08", "fig08_adaptivity.txt", fig08::render),
    figure("fig09", "fig09_pac_vs_freq_policy.txt", fig09::render),
    figure("fig10", "fig10_sensitivity.txt", fig10::render),
    figure("fig11", "fig11_bw_contention.txt", fig11::render),
    figure("fig12", "fig12_colocation.txt", fig12::render),
    figure("fig13", "fig13_redis_breakdown.txt", fig13::render),
    figure("ablations", "ablations.txt", ablations::render),
    figure("extra-numa", "extra_numa_sweep.txt", extra_numa::render),
    figure("extra-pac", "extra_pac_accuracy.txt", extra_pac::render),
];

/// Cycles the colocated process `name` ran in `r`.
#[expect(
    clippy::unwrap_used,
    reason = "every caller names a workload of its colocated run, and a colocated run reports \
              one entry per workload"
)]
fn process_cycles(r: &pact_tiersim::RunReport, name: &str) -> u64 {
    r.per_process
        .iter()
        .find(|p| p.name == name)
        .unwrap()
        .cycles
}

/// PACT's default configuration with `set` applied: one point of a
/// sensitivity sweep.
fn pact(set: impl FnOnce(&mut PactConfig)) -> PactConfig {
    let mut cfg = PactConfig::default();
    set(&mut cfg);
    cfg
}

const fn figure(name: &'static str, file: &'static str, render: fn(&Lab) -> Rendered) -> Figure {
    Figure { name, file, render }
}

/// The report called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Renders `figures` one after another, each fanning its own runs
/// over the lab's workers, and returns the reports in the order given.
/// Each figure's wall time goes to stderr as it finishes.
pub fn render_all(lab: &Lab, figures: &[&Figure]) -> Vec<Rendered> {
    figures
        .iter()
        .map(|fig| {
            let start = Instant::now();
            let report = (fig.render)(lab);
            eprintln!("[repro] {} {:.1}s", fig.name, start.elapsed().as_secs_f64());
            report
        })
        .collect()
}
