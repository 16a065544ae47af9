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
//! workloads run on, array for array, and the stream digests hash every
//! access their kernels emit. A host-side optimisation must leave every
//! digest unchanged.
//! A deliberate change to simulated behaviour updates the values here
//! in the same change, and says why in CHANGES.md.

use pact_bench::{experiment_machine, figures, make_policy, Lab, TierRatio};
use pact_tiersim::{
    fnv1a, AccessKind, Admission, AdmissionControl, AdmissionLane, Machine, RunSpec, Workload,
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
const GOLDEN_FLEET: u64 = 0x3987_1608_ce83_1333;

/// What the fleet cell simulates, pinned apart from how the report lays
/// it out, so a changed [`GOLDEN_FLEET`] with these intact can only
/// mean a changed layout: `(total_cycles, promotions, demotions,
/// failed_promotions)`.
const FLEET_TOTALS: [u64; 4] = [8_183_979, 30, 40, 5];

/// Per process, in colocation order: `(accesses, promoted, demoted,
/// [fast, slow] stall cycles)`.
const FLEET_PROCESSES: [(u64, u64, u64, [u64; 2]); 3] = [
    (116_384, 3, 10, [130_164, 34_736]),
    (60_000, 0, 28, [98_878, 158_607]),
    (60_000, 27, 2, [2_046_716, 5_808_134]),
];

/// `(admitted, rejected, dropped)` orders over the cell, where dropped
/// counts the machine's drops plus admission control's.
const FLEET_ADMISSION: [u64; 3] = [75, 344, 68];

/// `(figure, digest)` for the figures that render in well under a
/// second at smoke scale.
const GOLDEN_FIGURES: [(&str, u64); 5] = [
    ("fig01", 0x3d56_207c_64e1_b4f0),
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

/// `(workload, digest)`: FNV-1a over every access a workload emits,
/// each as `vaddr` (little-endian `u64`), `kind` (0 load, 1 store),
/// `dep` (0 or 1) and `work` (little-endian `u16`), draining the
/// prologue and then each stream in thread order. Suite workloads at
/// `Scale::Smoke`, seed 42; `bfs-kron-11-8` is a 4-source, 3-thread BFS
/// over the symmetric `kronecker(11, 8)` graph, seed 42.
const GOLDEN_STREAMS: [(&str, u64); 6] = [
    ("bc-kron", 0x78a0_b6d8_2549_644a),
    ("bc-urand", 0xe4eb_b579_65aa_cb5f),
    ("sssp-kron", 0x1ee0_76a4_949c_0814),
    ("pr-twitter", 0x9c9f_fdb1_bfc7_ab2d),
    ("tc-twitter", 0x00eb_d325_aba0_0d28),
    ("bfs-kron-11-8", 0x7095_651d_56e1_6319),
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

/// FNV-1a folded over the accesses of `wl`, in the order
/// [`GOLDEN_STREAMS`] describes.
fn stream_digest(wl: &dyn Workload) -> u64 {
    let mut h = fnv1a(&[]);
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for mut stream in wl.prologue().into_iter().chain(wl.streams()) {
        while let Some(a) = stream.next_access() {
            feed(&a.vaddr.to_le_bytes());
            feed(&[u8::from(a.kind == AccessKind::Store), u8::from(a.dep)]);
            feed(&a.work.to_le_bytes());
        }
    }
    h
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

#[test]
fn graph_streams_match_golden_digests() {
    let got: Vec<(&str, u64)> = GOLDEN_STREAMS
        .iter()
        .map(|&(name, _)| {
            let wl: Box<dyn Workload> = match name {
                "bfs-kron-11-8" => Box::new(GraphWorkload::new(
                    name,
                    Csr::from_edges(kronecker(11, 8, 42), true),
                    Kernel::Bfs {
                        sources: 4,
                        threads: 3,
                    },
                    42,
                )),
                suite => build(suite, Scale::Smoke, 42),
            };
            (name, stream_digest(wl.as_ref()))
        })
        .collect();
    assert_eq!(
        got, GOLDEN_STREAMS,
        "stream digests (left) differ from the golden values"
    );
}
