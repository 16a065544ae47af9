//! Shape-level assertions of the paper's central claims, at test scale.
//!
//! These are the claims the benchmark harness reproduces quantitatively
//! (see `EXPERIMENTS.md`); here they are pinned as fast regression
//! tests so a refactor that silently breaks a mechanism fails CI.

use pact_bench::{experiment_machine, Cell, Lab, TierRatio};
use pact_core::{estimate_tier_stalls, PactConfig, PactPolicy};
use pact_stats::pearson;
use pact_tiersim::{FirstTouch, Machine, MachineConfig, Tier, Workload, PAGE_BYTES};
use pact_workloads::graph::{kronecker, Csr, GraphWorkload, Kernel};
use pact_workloads::suite::Scale;
use pact_workloads::Phased;

fn bc_kron_midsize() -> GraphWorkload {
    // Large enough that a run spans hundreds of sampling windows (PACT
    // needs time to converge) yet small enough for CI.
    GraphWorkload::new(
        "bc-kron",
        Csr::from_edges(kronecker(15, 10, 42), true),
        Kernel::Bc {
            sources: 2,
            threads: 4,
        },
        42,
    )
}

/// §4.2 / Figure 2: Equation 1's predictor correlates with measured
/// stalls far better than raw miss counts across heterogeneous
/// workloads.
#[test]
fn equation_one_beats_raw_misses() {
    let mut misses = Vec::new();
    let mut predictor = Vec::new();
    let mut stalls = Vec::new();
    for variant in (0..96).step_by(4) {
        let wl = Phased::sweep_variant(variant, 1 << 21, 40_000, 1);
        let machine = Machine::new(MachineConfig::skylake_cxl(0)).unwrap();
        let r = machine
            .try_run(&wl, &mut FirstTouch::new())
            .expect("run succeeds");
        let m = r.counters.llc_misses[1] as f64;
        misses.push(m);
        predictor.push(m / r.counters.tor_mlp(Tier::Slow));
        stalls.push(r.counters.llc_stalls[1] as f64);
    }
    let r_raw = pearson(&misses, &stalls).unwrap();
    let r_model = pearson(&predictor, &stalls).unwrap();
    assert!(r_model > 0.95, "model r = {r_model:.3}");
    assert!(
        r_model > r_raw + 0.1,
        "model ({r_model:.3}) should clearly beat raw misses ({r_raw:.3})"
    );
}

/// Equation 1's coefficient k tracks the tier's unloaded latency.
#[test]
fn k_tracks_latency() {
    // 1000 misses at MLP 1 should stall ~1000x the latency.
    let s = estimate_tier_stalls(418.0, 1000, 1.0);
    assert_eq!(s, 418_000.0);
}

/// Figure 4's core shape on a mid-size bc-kron: PACT beats NoTier and
/// the fault-driven Colloid at 1:1 while migrating several times less.
#[test]
fn pact_beats_notier_and_colloid_on_bc_kron() {
    let wl = bc_kron_midsize();
    let pages = wl.footprint_bytes().div_ceil(PAGE_BYTES);
    let machine = Machine::new(MachineConfig::skylake_cxl(pages / 3)).unwrap();
    let mut pact = PactPolicy::new(PactConfig::default()).unwrap();
    let r_pact = machine.try_run(&wl, &mut pact).expect("run succeeds");
    let r_notier = machine
        .try_run(&wl, &mut FirstTouch::new())
        .expect("run succeeds");
    let mut colloid = pact_baselines::Colloid::new();
    let r_colloid = machine.try_run(&wl, &mut colloid).expect("run succeeds");
    assert!(
        r_pact.total_cycles < r_notier.total_cycles,
        "pact {} vs notier {}",
        r_pact.total_cycles,
        r_notier.total_cycles
    );
    assert!(
        r_pact.total_cycles < r_colloid.total_cycles,
        "pact {} vs colloid {}",
        r_pact.total_cycles,
        r_colloid.total_cycles
    );
    assert!(
        r_colloid.promotions > 2 * r_pact.promotions,
        "colloid should migrate much more: {} vs {}",
        r_colloid.promotions,
        r_pact.promotions
    );
}

/// §5.2: TPP's fault-path promotion storms and loses badly on irregular
/// graphs — the paper's worst performer.
#[test]
fn tpp_is_the_pathological_baseline() {
    let wl = bc_kron_midsize();
    let pages = wl.footprint_bytes().div_ceil(PAGE_BYTES);
    let machine = Machine::new(MachineConfig::skylake_cxl(pages / 2)).unwrap();
    let mut tpp = pact_baselines::Tpp::new();
    let r_tpp = machine.try_run(&wl, &mut tpp).expect("run succeeds");
    let r_notier = machine
        .try_run(&wl, &mut FirstTouch::new())
        .expect("run succeeds");
    assert!(
        r_tpp.total_cycles > r_notier.total_cycles,
        "tpp {} should lose to notier {}",
        r_tpp.total_cycles,
        r_notier.total_cycles
    );
}

/// §5.6 / Figure 9: within the same framework, ranking by PAC does not
/// lose to ranking by frequency on a criticality-divergent workload.
#[test]
fn pac_ranking_at_least_matches_frequency_ranking() {
    let lab = Lab::new(Scale::Smoke, 13);
    let run = |policy| lab.cell(&Cell::new("bc-kron", policy, TierRatio::new(1, 2)));
    let pac = run("pact").expect("run succeeds");
    let freq = run("pact-freq").expect("run succeeds");
    assert!(
        pac.report.total_cycles as f64 <= freq.report.total_cycles as f64 * 1.05,
        "pac {} vs freq {}",
        pac.report.total_cycles,
        freq.report.total_cycles
    );
}

/// §5 metrics: the CXL-only run is the worst placement — every policy
/// with any fast tier does at least as well.
#[test]
fn cxl_only_is_the_ceiling() {
    let lab = Lab::new(Scale::Smoke, 17);
    let cxl = lab.cell(&Cell::cxl("bc-kron", experiment_machine(0)));
    let cxl = cxl.expect("run succeeds").slowdown;
    for policy in ["pact", "notier", "memtis"] {
        let out = lab
            .cell(&Cell::new("bc-kron", policy, TierRatio::new(1, 1)))
            .expect("run succeeds");
        assert!(
            out.slowdown <= cxl + 0.05,
            "{policy} ({:.2}) should not exceed cxl-only ({cxl:.2})",
            out.slowdown
        );
    }
}

/// §4.6-ish: PACT's tracking state stays small — same order as the
/// paper's 25 bytes per tracked page.
#[test]
fn pac_tracking_is_compact() {
    assert!(pact_core::PacStore::bytes_per_page() <= 40);
}

/// §4.3.2's validity claim, checked against the simulator's oracle:
/// proportional attribution ranks pages consistently with the true
/// (hardware-unobservable) per-page stall distribution.
#[test]
fn proportional_attribution_ranks_like_ground_truth() {
    let wl = bc_kron_midsize();
    let mut cfg = MachineConfig::skylake_cxl(0); // pure profiling
    cfg.pebs.rate = 25;
    cfg.track_page_stalls = true;
    let machine = Machine::new(cfg).unwrap();
    let mut pact = PactPolicy::new(PactConfig::default()).unwrap();
    let report = machine.try_run(&wl, &mut pact).expect("run succeeds");
    let truth = report.page_stalls.expect("oracle enabled");
    let mut est = Vec::new();
    let mut tru = Vec::new();
    for (page, e) in pact.store().iter() {
        if e.pac > 0.0 {
            est.push(e.pac);
            // The oracle splits blame per serving tier; total
            // criticality is the sum of both lanes.
            tru.push(truth.get(page).map_or(0, |v| v[0] + v[1]) as f64);
        }
    }
    assert!(est.len() > 500, "too few profiled pages: {}", est.len());
    let rho = pact_stats::spearman(&est, &tru).unwrap();
    assert!(rho > 0.5, "PAC vs oracle Spearman = {rho:.3}");
}
