//! Criterion micro-benchmarks of the PACT hot paths: PAC store updates,
//! reservoir + Freedman-Diaconis recomputation, LLC probes, channel
//! bookings, and engine throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pact_core::{AdaptiveBins, PacStore, PactConfig};
use pact_stats::{freedman_diaconis_width, Reservoir, SplitMix64};
use pact_tiersim::{
    Access, Channel, FirstTouch, Llc, LlcConfig, Machine, MachineConfig, PageId, SpaceSaving,
    TraceWorkload,
};
use pact_workloads::Zipf;

fn bench_pac_store(c: &mut Criterion) {
    c.bench_function("pac_store_record_sample", |b| {
        let mut store = PacStore::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E3779B97F4A7C15);
            store.record_sample(PageId(i % 10_000), 418);
        });
    });
    c.bench_function("pac_store_attribute_period_1k_pages", |b| {
        b.iter_batched(
            || {
                let mut store = PacStore::new();
                for i in 0..1_000 {
                    store.record_sample(PageId(i), 418);
                }
                store
            },
            |mut store| black_box(store.attribute_period(1e6, 1.0, |e| e.period_samples as f64)),
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_binning(c: &mut Criterion) {
    c.bench_function("reservoir_offer", |b| {
        let mut r = Reservoir::new(100);
        let mut rng = SplitMix64::new(1);
        let mut x = 0.0;
        b.iter(|| {
            x += 1.0;
            r.offer(x, &mut rng)
        });
    });
    c.bench_function("freedman_diaconis_100", |b| {
        let vals: Vec<f64> = (0..100).map(|i| (i * i) as f64).collect();
        b.iter(|| freedman_diaconis_width(black_box(&vals)));
    });
    c.bench_function("adaptive_bins_update_width", |b| {
        let mut bins = AdaptiveBins::new(&PactConfig::default());
        bins.observe((0..100).map(|i| i as f64));
        b.iter(|| {
            bins.update_width();
            black_box(bins.width())
        });
    });
}

fn bench_llc(c: &mut Criterion) {
    c.bench_function("llc_probe_2mb_16way", |b| {
        let mut llc = Llc::new(LlcConfig {
            size_bytes: 2 << 20,
            ways: 16,
        });
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            llc.access(black_box(x % 100_000))
        });
    });
}

fn bench_channel(c: &mut Criterion) {
    // One clock moving forward, a few bookings per 128-cycle epoch: the
    // steady state of a streaming thread.
    c.bench_function("channel_book_monotone", |b| {
        let mut ch = Channel::new(2.7);
        let mut t = 0u64;
        b.iter(|| {
            t += 37;
            ch.book(black_box(t), 1)
        });
    });
    // Four thread clocks a few epochs apart, booking round-robin: each
    // booking lands behind the newest epoch already folded.
    c.bench_function("channel_book_lagging", |b| {
        let mut ch = Channel::new(2.7);
        let mut clocks = [0u64, 300, 650, 1_000];
        let mut k = 0;
        b.iter(|| {
            k = (k + 1) % clocks.len();
            clocks[k] += 150;
            ch.book(black_box(clocks[k]), 1)
        });
    });
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("machine_100k_chase_accesses", |b| {
        let mut trace = Vec::with_capacity(100_000);
        let mut x = 1u64;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            trace.push(Access::dependent_load(
                (x % 4_000) * 4096 + ((x >> 40) % 64) * 64,
            ));
        }
        let wl = TraceWorkload::new("chase", 4_000 * 4096, trace);
        let machine = Machine::new(MachineConfig::skylake_cxl(1_000)).unwrap();
        b.iter(|| machine.try_run(black_box(&wl), &mut FirstTouch::new()));
    });
    group.finish();
}

fn bench_samplers(c: &mut Criterion) {
    c.bench_function("chmu_space_saving_observe", |b| {
        let mut ss = SpaceSaving::new(2_048);
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ss.observe(PageId(black_box(x % 50_000)));
        });
    });
    c.bench_function("zipf_sample", |b| {
        let z = Zipf::new(1_000_000, 0.99);
        let mut rng = SplitMix64::new(7);
        b.iter(|| black_box(z.sample(&mut rng)));
    });
}

fn bench_top_bin(c: &mut Criterion) {
    c.bench_function("top_bin_candidates_10k_pages", |b| {
        let mut bins = AdaptiveBins::new(&PactConfig::default());
        bins.observe((0..100).map(|i| (i * i) as f64));
        bins.update_width();
        let pages: Vec<(PageId, f64)> = (0..10_000)
            .map(|i| (PageId(i), ((i * 37) % 1_000) as f64))
            .collect();
        b.iter(|| black_box(bins.top_bin_candidates(&pages)));
    });
}

criterion_group!(
    benches,
    bench_pac_store,
    bench_binning,
    bench_llc,
    bench_channel,
    bench_engine,
    bench_samplers,
    bench_top_bin
);
criterion_main!(benches);
