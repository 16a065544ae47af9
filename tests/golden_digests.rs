//! Golden report digests: the simulated behaviour of three canonical
//! cells, one fleet cell and the cheap figures, pinned bit for bit.
//!
//! Each entry is the FNV-1a hash of `RunReport::to_json` for one suite
//! workload under one policy at `Scale::Smoke`, seed 42, tier ratio 1:1
//! on the experiment machine (the cells `perfbench` times, at smoke
//! scale). The fleet cell is `tierctl fleet`'s default three-tenant
//! admission cell at the same scale, seed and ratio; its report carries
//! the per-process lanes a single-workload report leaves out. The
//! figure digests hash the report `tierctl repro --fig NAME --scale
//! smoke` prints at seed 42. The CSR digests hash the graphs the GAPBS
//! workloads run on, array for array. The frame digests hash every
//! crash-recovery snapshot frame three snapshotting cells capture. A
//! host-side optimisation must leave every digest unchanged.
//! A deliberate change to simulated behaviour updates the values here
//! in the same change, and says why in CHANGES.md.

use pact_bench::{experiment_machine, figures, make_policy, Lab, TierRatio};
use pact_core::{PactConfig, PactPolicy, SamplingSource};
use pact_tiersim::{
    fnv1a, Admission, AdmissionControl, AdmissionLane, FaultPlan, InvariantSet, Machine,
    MachineConfig, MachineSnapshot, RunSpec, TieringPolicy, Tracer, Workload,
};
use pact_workloads::graph::{
    count_triangles, kronecker, power_law, uniform, Csr, GraphWorkload, Kernel,
};
use pact_workloads::suite::{build, Scale};

/// `(suite workload, policy, digest)`.
const GOLDEN: [(&str, &str, u64); 3] = [
    ("gpt-2", "notier", 0x3165_97a0_6229_c402),
    ("bc-kron", "pact", 0xbfaf_f57f_a562_495f),
    ("redis", "tpp", 0xcd17_5dcd_e4b1_b1f3),
];

/// FNV-1a of `tierctl fleet`'s default cell: tenants
/// `app:gups:4,hog:mlc-hog:1,store:zipf-drift:2` under PACT inside
/// admission control with a budget of 4 orders per window, page-stall
/// tracking on.
const GOLDEN_FLEET: u64 = 0x28c5_5730_57eb_f1d9;

/// What the fleet cell simulates, pinned apart from how the report lays
/// it out, so a changed [`GOLDEN_FLEET`] with these intact can only
/// mean a changed layout: `(total_cycles, promotions, demotions,
/// failed_promotions)`.
const FLEET_TOTALS: [u64; 4] = [8_168_593, 28, 35, 2];

/// Per process, in colocation order: `(accesses, promoted, demoted,
/// [fast, slow] stall cycles)`.
const FLEET_PROCESSES: [(u64, u64, u64, [u64; 2]); 3] = [
    (116_384, 2, 19, [143_791, 123_202]),
    (60_000, 0, 13, [130_014, 179_137]),
    (60_000, 26, 3, [2_180_280, 5_660_624]),
];

/// `(admitted, rejected, dropped)` orders over the cell, where dropped
/// counts the machine's drops plus admission control's.
const FLEET_ADMISSION: [u64; 3] = [65, 116, 22];

/// `(figure, digest)` for the figures that render in well under a
/// second at smoke scale.
const GOLDEN_FIGURES: [(&str, u64); 5] = [
    ("fig01", 0x2d5c_3167_631f_4dc6),
    ("fig03", 0xbc60_1dee_0990_c510),
    ("fig08", 0xf956_1612_4f42_34a3),
    ("fig12", 0x3711_eaca_bcba_2674),
    ("fig13", 0xc4b7_a783_cb72_00be),
];

/// `(graph, digest)`: FNV-1a of a CSR's `offsets` (little-endian `u64`)
/// followed by its `neighbors` (little-endian `u32`), seed 42.
const GOLDEN_CSRS: [(&str, u64); 5] = [
    ("kron-14-8-sym", 0xc220_0af8_80c0_97df),
    ("urand-16k-131k-sym", 0xbf88_b1d4_fb29_5dae),
    ("plaw-16k-131k-sym", 0xf357_46ec_6feb_bc8d),
    ("kron-14-8-dir", 0x1155_69c2_4437_1032),
    ("plaw-16k-131k-tc", 0x0c4f_25f9_9c91_7cad),
];

/// `(cell, FNV-1a of each frame in capture order)` for the snapshotting
/// cells of [`frame_cells`], captured every 4 windows. Between them the
/// frames carry every optional section: CHMU state, the page-stall
/// oracle, fault state, the invariant checker, a non-empty trace ring,
/// registry histograms, and PACT blobs in PEBS mode, in CHMU mode and
/// inside admission control.
const GOLDEN_FRAMES: [(&str, &[u64]); 3] = [
    (
        "pact-pebs",
        &[
            0x1fd3_053e_887c_6761,
            0x5317_6fd0_8c36_4551,
            0xdfd1_3508_9166_f580,
            0xfc88_0d9e_610b_aff6,
            0xed99_c68e_fd7a_e70a,
            0x7048_d381_e6c3_3318,
            0x1b0b_6d4b_bb83_e409,
            0x0e68_5a83_23b1_c3a4,
            0x1554_91ec_cd47_a19b,
            0xd7ce_c585_057a_89eb,
        ],
    ),
    (
        "pact-chmu",
        &[
            0xc903_eaa5_278a_2c48,
            0x0814_042f_d978_855f,
            0x95df_e817_6c0d_53be,
            0x40b2_dd72_2668_766b,
            0x1671_14b7_c6c5_8f5a,
            0xbcc8_5403_4cd7_9ff1,
            0x073a_0709_79e5_8ef2,
            0xfffb_072e_8152_65d6,
        ],
    ),
    (
        "admission(pact)",
        &[
            0xdcf3_22a7_72ee_3d47,
            0xd089_f9a2_07ef_c6bb,
            0xb17b_1b07_2b43_5d4e,
            0xd197_6a71_8b75_48f6,
            0xcd8b_24dc_4028_4c6b,
            0xb5d4_f45b_c286_0844,
            0x3eb4_4fce_1b95_b31b,
            0x53c5_394a_5041_36ea,
            0x021b_b554_4681_70ff,
        ],
    ),
];

/// Triangles in the symmetric `plaw-16k-131k` graph.
const GOLDEN_TRIANGLES: u64 = 39_086;

fn csr_digest(g: &Csr) -> u64 {
    let mut bytes = Vec::new();
    for v in 0..g.num_vertices() {
        bytes.extend_from_slice(&g.offset(v).to_le_bytes());
    }
    bytes.extend_from_slice(&g.num_edges().to_le_bytes());
    for v in 0..g.num_vertices() {
        for &u in g.neighbors(v) {
            bytes.extend_from_slice(&u.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn digest(workload: &str, policy: &str) -> u64 {
    let wl = build(workload, Scale::Smoke, 42);
    let fast = TierRatio::new(1, 1).fast_pages(wl.footprint_bytes());
    let machine = Machine::new(experiment_machine(fast)).expect("experiment machine is valid");
    let mut policy = make_policy(policy).expect("known policy");
    let report = machine
        .try_run(wl.as_ref(), policy.as_mut())
        .expect("run succeeds");
    fnv1a(report.to_json().as_bytes())
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
    let machine = Machine::new(cfg).expect("fleet machine is valid");
    let admission = AdmissionControl {
        budget_per_window: 4,
        ..AdmissionControl::default()
    };
    let weights = tenants.iter().map(|&(_, _, weight)| weight).collect();
    let mut policy = Admission::new(
        make_policy("pact").expect("known policy"),
        admission,
        weights,
    )
    .expect("admission config is valid");
    let report = machine
        .run(RunSpec::new(&refs, &mut policy))
        .expect("fleet cell runs");
    assert_eq!(report.per_process.len(), 3, "one lane per tenant");
    let totals = [
        report.total_cycles,
        report.promotions,
        report.demotions,
        report.failed_promotions,
    ];
    assert_eq!(totals, FLEET_TOTALS, "fleet totals");
    let processes: Vec<(u64, u64, u64, [u64; 2])> = report
        .per_process
        .iter()
        .map(|p| (p.accesses, p.promotions, p.demotions, p.stall_cycles))
        .collect();
    assert_eq!(processes, FLEET_PROCESSES, "fleet per-process lanes");
    let sum = |f: fn(&AdmissionLane) -> u64| -> u64 { policy.lanes().iter().map(f).sum() };
    let admission = [
        sum(|a| a.admitted),
        sum(|a| a.rejected),
        report.dropped_orders + sum(|a| a.dropped),
    ];
    assert_eq!(admission, FLEET_ADMISSION, "fleet admission counts");
    let got = fnv1a(report.to_json().as_bytes());
    assert_eq!(
        got, GOLDEN_FLEET,
        "fleet digest {got:#018x} differs from the golden value"
    );
}

#[test]
fn cheap_figures_match_golden_digests() {
    let lab = Lab::new(Scale::Smoke, 42);
    let got: Vec<(&str, u64)> = GOLDEN_FIGURES
        .iter()
        .map(|&(name, _)| {
            let figure = figures::find(name).expect("known figure");
            let report = (figure.render)(&lab).expect("figure renders");
            (name, fnv1a(report.as_bytes()))
        })
        .collect();
    assert_eq!(
        got, GOLDEN_FIGURES,
        "figure digests (left) differ from the golden values"
    );
}

#[test]
fn graph_csrs_match_golden_digests() {
    let plaw = || Csr::from_edges(power_law(16_384, 131_072, 0.9, 42), true);
    let tc = GraphWorkload::new(
        "tc",
        plaw(),
        Kernel::TriangleCount {
            threads: 4,
            budget: 1,
        },
        42,
    );
    let graphs = [
        Csr::from_edges(kronecker(14, 8, 42), true),
        Csr::from_edges(uniform(16_384, 131_072, 42), true),
        plaw(),
        Csr::from_edges(kronecker(14, 8, 42), false),
        tc.csr().clone(),
    ];
    let got: Vec<(&str, u64)> = GOLDEN_CSRS
        .iter()
        .zip(&graphs)
        .map(|(&(name, _), g)| (name, csr_digest(g)))
        .collect();
    assert_eq!(
        got, GOLDEN_CSRS,
        "CSR digests (left) differ from the golden values"
    );
    assert_eq!(count_triangles(&plaw()), GOLDEN_TRIANGLES, "triangles");
}

/// One snapshotting cell of [`GOLDEN_FRAMES`]: its workloads (seed),
/// machine and policy.
struct FrameCell {
    name: &'static str,
    workloads: &'static [&'static str],
    seed: u64,
    cfg: MachineConfig,
    policy: Box<dyn TieringPolicy>,
}

fn frame_cells() -> Vec<FrameCell> {
    let pact = |sampling| -> Box<dyn TieringPolicy> {
        let cfg = PactConfig {
            sampling,
            ..PactConfig::default()
        };
        Box::new(PactPolicy::new(cfg).expect("PACT config is valid"))
    };
    let fast = TierRatio::new(1, 1).fast_pages(build("masim", Scale::Smoke, 42).footprint_bytes());
    // PEBS-mode PACT with the CI fault plan, every invariant armed and
    // the page-stall oracle on.
    let mut pebs = experiment_machine(fast);
    pebs.seed = 42;
    pebs.track_page_stalls = true;
    pebs.fault_plan =
        Some(FaultPlan::parse("drop=0.2,fail=0.6,retries=2,backoff=2,seed=7").expect("CI plan"));
    pebs.invariants = Some(InvariantSet::all());
    // CHMU-mode PACT on a machine with a hotness monitoring unit.
    let mut chmu = experiment_machine(fast);
    chmu.seed = 42;
    chmu.chmu_counters = 1_024;
    // The fleet cell of tests/crash_recovery.rs: three tenants under
    // admission control at a budget that keeps orders deferred.
    let mut fleet = MachineConfig::skylake_cxl(128);
    fleet.seed = 7;
    fleet.track_page_stalls = true;
    fleet.fault_plan = Some(FaultPlan {
        seed: 7,
        drop_order: 0.1,
        fail_migration: 0.6,
        max_retries: 2,
        backoff_windows: 2,
        pebs_loss: 0.05,
        ..FaultPlan::default()
    });
    let admission = AdmissionControl {
        budget_per_window: 3,
        ..AdmissionControl::default()
    };
    let admission = Admission::new(pact(SamplingSource::Pebs), admission, vec![4, 1, 2])
        .expect("admission config is valid");
    vec![
        FrameCell {
            name: "pact-pebs",
            workloads: &["masim"],
            seed: 42,
            cfg: pebs,
            policy: pact(SamplingSource::Pebs),
        },
        FrameCell {
            name: "pact-chmu",
            workloads: &["masim"],
            seed: 42,
            cfg: chmu,
            policy: pact(SamplingSource::Chmu),
        },
        FrameCell {
            name: "admission(pact)",
            workloads: &["gups", "mlc-hog", "zipf-drift"],
            seed: 7,
            cfg: fleet,
            policy: Box::new(admission),
        },
    ]
}

#[test]
fn snapshot_frames_match_golden_digests() {
    let got: Vec<(&str, Vec<u64>)> = frame_cells()
        .into_iter()
        .map(|mut cell| {
            let workloads: Vec<_> = cell
                .workloads
                .iter()
                .map(|w| build(w, Scale::Smoke, cell.seed))
                .collect();
            let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
            cell.cfg.snapshot_every = 4;
            let mut tracer = Tracer::ring(1 << 12);
            let mut frames: Vec<MachineSnapshot> = Vec::new();
            Machine::new(cell.cfg)
                .expect("cell config is valid")
                .run(RunSpec {
                    tracer: Some(&mut tracer),
                    snapshot_sink: Some(&mut |s| frames.push(s)),
                    ..RunSpec::new(&refs, cell.policy.as_mut())
                })
                .expect("cell runs");
            assert!(
                !tracer.is_empty(),
                "{}: the trace ring stayed empty",
                cell.name
            );
            let digests = frames.iter().map(|f| fnv1a(f.as_bytes())).collect();
            (cell.name, digests)
        })
        .collect();
    let want: Vec<(&str, Vec<u64>)> = GOLDEN_FRAMES
        .iter()
        .map(|&(name, digests)| (name, digests.to_vec()))
        .collect();
    assert_eq!(
        got, want,
        "frame digests (left) differ from the golden values"
    );
}
