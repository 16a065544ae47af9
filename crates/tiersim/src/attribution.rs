//! Criticality attribution: folds the simulator's `page_stalls` oracle
//! into flamegraphs and top-K tables (DESIGN.md §12).
//!
//! The raw oracle is a per-page map of stall cycles split by serving
//! tier (`machine.rs`, "`page_stalls` semantics"). This module is the
//! read side: [`CriticalityReport`] *borrows* the map from a finished
//! [`RunReport`] — it never clones it, so reporting on a
//! large-footprint cell costs a handful of `top-K` vectors, not a
//! second copy of the oracle — and renders it as
//!
//! * collapsed-stack ("folded") flamegraph text with the frame
//!   hierarchy `tier;huge-page region;page`, consumable by any
//!   Brendan-Gregg-style `flamegraph.pl`/speedscope toolchain,
//! * deterministic top-K most-critical pages and huge-page regions
//!   ([`pact_obs::top_k_desc`]: weight descending, page ascending on
//!   ties — a total order, so output never depends on sort internals),
//! * a compact JSON document and a human-oriented markdown report, the
//!   two artifacts `tierctl report` writes.
//!
//! Everything here is sim-domain and byte-deterministic: inputs are
//! BTreeMaps keyed by [`PageId`], floats render with Rust's
//! shortest-roundtrip formatting, and no wall-clock or host state is
//! consulted. The `tierctl` CLI test
//! `report_with_prof_emits_summary_on_stderr_only` pins the markdown,
//! JSON and folded bytes with the host profiler armed and disarmed.

use std::collections::BTreeMap;

use pact_obs::{top_k_desc, FoldedStacks, JsonWriter};

use crate::machine::RunReport;
use crate::types::{PageId, Tier};

/// Borrowed view over a run's criticality oracle, ready to render.
///
/// Construction fails (returns `None`) when the run was not configured
/// with [`track_page_stalls`](crate::MachineConfig::track_page_stalls):
/// an empty report would be indistinguishable from "no page ever
/// stalled", which is exactly the confusion the option exists to avoid.
pub struct CriticalityReport<'a> {
    report: &'a RunReport,
    stalls: &'a BTreeMap<PageId, [u64; 2]>,
    topk: usize,
}

/// Default number of rows in the top-K tables when the caller (or
/// `PACT_REPORT_TOPK`) does not say otherwise.
pub const DEFAULT_REPORT_TOPK: usize = 20;

impl<'a> CriticalityReport<'a> {
    /// Builds the view over `report`'s oracle, keeping the `topk`
    /// most-critical pages/regions in the tables (clamped to ≥ 1).
    pub fn new(report: &'a RunReport, topk: usize) -> Option<Self> {
        report.page_stalls.as_ref().map(|stalls| Self {
            report,
            stalls,
            topk: topk.max(1),
        })
    }

    /// Total blamed stall cycles, split by serving tier.
    pub fn tier_totals(&self) -> [u64; 2] {
        let mut t = [0u64; 2];
        for lanes in self.stalls.values() {
            t[0] += lanes[0];
            t[1] += lanes[1];
        }
        t
    }

    /// Total blamed stall cycles across both tiers.
    pub fn total_stalls(&self) -> u64 {
        let [f, s] = self.tier_totals();
        f + s
    }

    /// Collapsed-stack flamegraph text, one line per `(tier, page)`
    /// pair with nonzero blame: `tier;huge#H;page#P cycles`. Lines are
    /// ordered page-ascending with the fast lane first — a fixed order,
    /// so the bytes are identical for every job count.
    #[expect(clippy::unwrap_used, reason = "writing to a String cannot fail")]
    pub fn folded(&self) -> String {
        let mut f = FoldedStacks::new();
        let mut huge = String::new();
        let mut page = String::new();
        for (&p, lanes) in self.stalls {
            use std::fmt::Write as _;
            huge.clear();
            page.clear();
            write!(huge, "huge#{}", p.huge_head().0).unwrap();
            write!(page, "{p}").unwrap();
            for tier in Tier::ALL {
                let cycles = lanes[tier.index()];
                if cycles > 0 {
                    f.line(&[tier_frame(tier), huge.as_str(), page.as_str()], cycles);
                }
            }
        }
        f.finish()
    }

    /// The `topk` pages with the highest total blame (both lanes
    /// summed), most-critical first.
    pub fn top_pages(&self) -> Vec<(PageId, u64)> {
        top_k_desc(
            self.stalls.iter().map(|(&p, l)| (p, l[0] + l[1])),
            self.topk,
        )
    }

    /// The `topk` huge-page regions (keyed by their head page) with the
    /// highest total blame, most-critical first.
    pub fn top_regions(&self) -> Vec<(PageId, u64)> {
        let mut regions: BTreeMap<PageId, u64> = BTreeMap::new();
        for (&p, lanes) in self.stalls {
            *regions.entry(p.huge_head()).or_insert(0) += lanes[0] + lanes[1];
        }
        top_k_desc(regions, self.topk)
    }

    /// Compact JSON rendering: run totals plus the top-K tables (the
    /// full oracle stays in the run report; this is the summary
    /// artifact). Validates against [`pact_obs::validate`].
    pub fn to_json(&self) -> String {
        let totals = self.tier_totals();
        let mut j = JsonWriter::new();
        j.begin_object();
        j.field_str("policy", &self.report.policy);
        j.field_u64("total_cycles", self.report.total_cycles);
        j.field_u64("tracked_pages", self.stalls.len() as u64);
        j.field_u64("total_stall_cycles", totals[0] + totals[1]);
        j.key("tier_stall_cycles");
        j.begin_array();
        j.value_u64(totals[0]);
        j.value_u64(totals[1]);
        j.end_array();
        j.field_u64("topk", self.topk as u64);
        j.key("top_pages");
        j.begin_array();
        for (p, cycles) in self.top_pages() {
            j.begin_object();
            j.field_u64("page", p.0);
            j.field_u64("region", p.huge_head().0);
            j.field_u64("stall_cycles", cycles);
            j.end_object();
        }
        j.end_array();
        j.key("top_regions");
        j.begin_array();
        for (p, cycles) in self.top_regions() {
            j.begin_object();
            j.field_u64("region", p.0);
            j.field_u64("stall_cycles", cycles);
            j.end_object();
        }
        j.end_array();
        j.end_object();
        j.finish()
    }

    /// Markdown criticality report: run header, tier split, and the
    /// top-K tables with per-row share of total blame.
    #[expect(clippy::unwrap_used, reason = "writing to a String cannot fail")]
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let totals = self.tier_totals();
        let total = (totals[0] + totals[1]).max(1);
        let mut out = String::new();
        out.push_str("# Criticality report\n\n");
        writeln!(
            out,
            "- policy: `{}`\n- total cycles: {}\n- tracked pages: {}\n\
             - blamed stall cycles: {} (fast {}, slow {})\n",
            self.report.policy,
            self.report.total_cycles,
            self.stalls.len(),
            totals[0] + totals[1],
            totals[0],
            totals[1],
        )
        .unwrap();
        out.push_str("\n## Most critical pages\n\n");
        out.push_str("| rank | page | region | stall cycles | share |\n");
        out.push_str("|-----:|-----:|-------:|-------------:|------:|\n");
        for (rank, (p, cycles)) in self.top_pages().into_iter().enumerate() {
            writeln!(
                out,
                "| {} | {} | huge#{} | {} | {:.1}% |",
                rank + 1,
                p,
                p.huge_head().0,
                cycles,
                cycles as f64 * 100.0 / total as f64,
            )
            .unwrap();
        }
        out.push_str("\n## Most critical huge-page regions\n\n");
        out.push_str("| rank | region | stall cycles | share |\n");
        out.push_str("|-----:|-------:|-------------:|------:|\n");
        for (rank, (p, cycles)) in self.top_regions().into_iter().enumerate() {
            writeln!(
                out,
                "| {} | huge#{} | {} | {:.1}% |",
                rank + 1,
                p.0,
                cycles,
                cycles as f64 * 100.0 / total as f64,
            )
            .unwrap();
        }
        out
    }
}

/// Static frame name for a tier (folded frames must be `&str` without
/// separators; `Tier`'s `Display` already satisfies that but allocates).
fn tier_frame(t: Tier) -> &'static str {
    match t {
        Tier::Fast => "fast",
        Tier::Slow => "slow",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmu::PmuCounters;

    fn report_with(stalls: Option<BTreeMap<PageId, [u64; 2]>>) -> RunReport {
        RunReport {
            policy: "pact".into(),
            total_cycles: 1_000_000,
            per_process: Vec::new(),
            counters: PmuCounters::default(),
            promotions: 0,
            demotions: 0,
            failed_promotions: 0,
            dropped_orders: 0,
            windows: Vec::new(),
            page_stalls: stalls,
        }
    }

    fn sample_stalls() -> BTreeMap<PageId, [u64; 2]> {
        let mut m = BTreeMap::new();
        m.insert(PageId(5), [100, 0]);
        m.insert(PageId(600), [0, 50]);
        m.insert(PageId(700), [30, 70]);
        m
    }

    #[test]
    fn report_requires_the_oracle() {
        let r = report_with(None);
        assert!(CriticalityReport::new(&r, 10).is_none());
    }

    #[test]
    fn folded_output_is_exact_and_tier_major_per_page() {
        let r = report_with(Some(sample_stalls()));
        let c = CriticalityReport::new(&r, 10).unwrap();
        assert_eq!(
            c.folded(),
            "fast;huge#0;page#5 100\n\
             slow;huge#512;page#600 50\n\
             fast;huge#512;page#700 30\n\
             slow;huge#512;page#700 70\n"
        );
        assert_eq!(c.tier_totals(), [130, 120]);
        assert_eq!(c.total_stalls(), 250);
    }

    #[test]
    fn top_tables_break_ties_by_page_and_respect_k() {
        let r = report_with(Some(sample_stalls()));
        let c = CriticalityReport::new(&r, 2).unwrap();
        // Pages 5 and 700 tie at 100 total; the lower page wins.
        assert_eq!(c.top_pages(), vec![(PageId(5), 100), (PageId(700), 100)]);
        assert_eq!(c.top_regions(), vec![(PageId(512), 150), (PageId(0), 100)]);
    }

    #[test]
    fn json_and_markdown_render_deterministically() {
        let r = report_with(Some(sample_stalls()));
        let c = CriticalityReport::new(&r, 3).unwrap();
        let j = c.to_json();
        pact_obs::validate(&j).unwrap();
        assert!(j.contains("\"total_stall_cycles\":250"));
        assert!(j.contains("\"tier_stall_cycles\":[130,120]"));
        let md = c.to_markdown();
        assert!(md.contains("# Criticality report"));
        assert!(md.contains("| 1 | page#5 | huge#0 | 100 | 40.0% |"));
        assert_eq!(j, c.to_json());
        assert_eq!(md, c.to_markdown());
    }
}
