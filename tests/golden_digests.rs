//! Golden report digests: the simulated behaviour of three canonical
//! cells and one fleet cell, pinned bit for bit.
//!
//! Each entry is the FNV-1a hash of `RunReport::to_json` for one suite
//! workload under one policy at `Scale::Smoke`, seed 42, tier ratio 1:1
//! on the experiment machine (the cells `perfbench` times, at smoke
//! scale). The fleet cell is `tierctl fleet`'s default three-tenant
//! admission cell at the same scale, seed and ratio; its report carries
//! the per-tenant lanes the single-workload cells leave empty. A
//! host-side optimisation must leave every digest unchanged.
//! A deliberate change to simulated behaviour updates the values here
//! in the same change, and says why in CHANGES.md.

use pact_bench::{experiment_machine, make_policy, TierRatio};
use pact_tiersim::{AdmissionControl, Machine, RunSpec, TenantSpec, Workload};
use pact_workloads::suite::{build, Scale};

/// `(suite workload, policy, digest)`.
const GOLDEN: [(&str, &str, u64); 3] = [
    ("gpt-2", "notier", 0x3165_97a0_6229_c402),
    ("bc-kron", "pact", 0xbfaf_f57f_a562_495f),
    ("redis", "tpp", 0xcd17_5dcd_e4b1_b1f3),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of `tierctl fleet`'s default cell: tenants
/// `app:gups:4,hog:mlc-hog:1,store:zipf-drift:2` under PACT, page-stall
/// tracking on, an admission budget of 4 orders per window.
const GOLDEN_FLEET: u64 = 0xd5b6_6439_2085_aa13;

fn digest(workload: &str, policy: &str) -> u64 {
    let wl = build(workload, Scale::Smoke, 42);
    let fast = TierRatio::new(1, 1).fast_pages(wl.footprint_bytes());
    let machine = Machine::new(experiment_machine(fast)).expect("experiment machine is valid");
    let mut policy = make_policy(policy).expect("known policy");
    let report = machine
        .try_run(wl.as_ref(), policy.as_mut())
        .expect("run succeeds");
    fnv1a64(report.to_json().as_bytes())
}

#[test]
fn smoke_cells_match_golden_digests() {
    let got: Vec<(&str, &str, u64)> = GOLDEN
        .iter()
        .map(|&(w, p, _)| (w, p, digest(w, p)))
        .collect();
    assert_eq!(got, GOLDEN, "digests (left) differ from the golden values");
}

#[test]
fn fleet_cell_matches_golden_digest() {
    let tenants = [
        ("app", "gups", 4),
        ("hog", "mlc-hog", 1),
        ("store", "zipf-drift", 2),
    ];
    let workloads: Vec<Box<dyn Workload>> = tenants
        .iter()
        .map(|&(_, w, _)| build(w, Scale::Smoke, 42))
        .collect();
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let footprint = refs.iter().map(|w| w.footprint_bytes()).sum();
    let mut cfg = experiment_machine(TierRatio::new(1, 1).fast_pages(footprint));
    cfg.seed = 42;
    cfg.track_page_stalls = true;
    cfg.tenants = tenants
        .iter()
        .map(|&(name, _, weight)| TenantSpec::new(name, weight))
        .collect();
    cfg.admission = Some(AdmissionControl {
        budget_per_window: 4,
        ..AdmissionControl::default()
    });
    let machine = Machine::new(cfg).expect("fleet machine is valid");
    let mut policy = make_policy("pact").expect("known policy");
    let report = machine
        .run(RunSpec::new(&refs, policy.as_mut()))
        .expect("fleet cell runs");
    assert_eq!(report.tenants.len(), 3, "one lane per tenant");
    let got = fnv1a64(report.to_json().as_bytes());
    assert_eq!(
        got, GOLDEN_FLEET,
        "fleet digest {got:#018x} differs from the golden value"
    );
}
