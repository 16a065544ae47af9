//! Figure 9 — **PAC-based vs frequency-based promotion inside the PACT
//! framework (§5.6).**
//!
//! Runs the same policy machinery ranked by PAC and by raw access
//! frequency at comparable migration volume, on bc-kron plus the
//! generalization set (bc-urand, sssp-kron, silo). The paper reports an
//! 18% improvement on the featured workload and 12-22% across the
//! others, with PAC front-loading its promotions while the frequency
//! policy oscillates.

use pact_bench::{
    banner, exec, parse_options, save_results, sparkline, Harness, OrExit, Table, TierRatio,
};
use pact_workloads::suite::build;

/// Runs the PAC-ranked and frequency-ranked variants over one shared
/// workload, fanning the two independent runs across workers.
fn pac_vs_freq(h: &Harness, ratio: TierRatio) -> (pact_bench::Outcome, pact_bench::Outcome) {
    // Warm the shared baseline before fanning out.
    h.dram_cycles().or_exit();
    let mut outs = exec::try_run_indexed(2, exec::jobs_from_env(), |i| {
        h.run_policy(["pact", "pact-freq"][i], ratio, None)
    })
    .or_exit()
    .into_iter();
    // Invariant: try_run_indexed(2, ..) yields exactly two results.
    (outs.next().unwrap(), outs.next().unwrap())
}

fn main() {
    let opts = parse_options();
    let ratio = TierRatio::new(1, 1);
    let mut out = String::new();

    // Featured workload: timeline comparison.
    {
        let h = Harness::new(build("bc-kron", opts.scale, opts.seed));
        let (pac, freq) = pac_vs_freq(&h, ratio);
        let series = |o: &pact_bench::Outcome| -> Vec<f64> {
            o.report
                .windows
                .iter()
                .map(|w| w.promotions as f64)
                .collect()
        };
        out.push_str(&banner("Figure 9: promotion timelines (bc-kron @ 1:1)"));
        out.push_str(&format!("PAC   {}\n", sparkline(&series(&pac), 72)));
        out.push_str(&format!("freq  {}\n", sparkline(&series(&freq), 72)));
        out.push_str(&format!(
            "PAC:  slowdown {} promotions {}\nfreq: slowdown {} promotions {}\n",
            pact_bench::pct(pac.slowdown),
            pact_bench::count(pac.promotions),
            pact_bench::pct(freq.slowdown),
            pact_bench::count(freq.promotions),
        ));
        let dram = 1.0;
        let improvement = (freq.slowdown + dram - (pac.slowdown + dram)) / (freq.slowdown + dram);
        out.push_str(&format!(
            "runtime improvement of PAC over frequency: {:+.1}% (paper: ~18%)\n",
            improvement * 100.0
        ));
    }

    // Generalization across workloads (paper: 12-22%).
    out.push_str(&banner("PAC vs frequency across workloads @ 1:1"));
    let mut t = Table::new(vec![
        "workload",
        "PAC slowdown",
        "freq slowdown",
        "PAC promos",
        "freq promos",
        "improvement",
    ]);
    for name in ["bc-urand", "sssp-kron", "silo"] {
        eprintln!("[fig09] {name}");
        let h = Harness::new(build(name, opts.scale, opts.seed));
        let (pac, freq) = pac_vs_freq(&h, ratio);
        let improvement = (freq.report.total_cycles as f64 - pac.report.total_cycles as f64)
            / freq.report.total_cycles as f64;
        t.row(vec![
            name.to_string(),
            pact_bench::pct(pac.slowdown),
            pact_bench::pct(freq.slowdown),
            pact_bench::count(pac.promotions),
            pact_bench::count(freq.promotions),
            format!("{:+.1}%", improvement * 100.0),
        ]);
    }
    out.push_str(&t.render());
    print!("{out}");
    save_results(opts.scale, "fig09_pac_vs_freq_policy.txt", &out);
}
