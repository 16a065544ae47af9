//! Property-based tests for the statistics primitives.

use pact_stats::SplitMix64;
use pact_stats::{freedman_diaconis_width, pearson, Histogram, Quantiles, Reservoir};
use proptest::prelude::*;

proptest! {
    /// Pearson r is always within [-1, 1] (modulo float slack).
    #[test]
    fn pearson_bounded(xs in prop::collection::vec(-1e6f64..1e6, 2..64),
                       shift in -10f64..10.0) {
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, &x)| x * 0.5 + shift + (i % 3) as f64).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
        }
    }

    /// Correlation is symmetric in its arguments.
    #[test]
    fn pearson_symmetric(pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..32)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let a = pearson(&xs, &ys);
        let b = pearson(&ys, &xs);
        match (a, b) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
            (None, None) => {}
            _ => prop_assert!(false, "asymmetric None"),
        }
    }

    /// Quantiles are monotone in q and bracketed by min/max of the data.
    #[test]
    fn quantiles_monotone_and_bounded(vals in prop::collection::vec(-1e9f64..1e9, 1..128)) {
        let q = Quantiles::from_unsorted(&vals);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let v = q.quantile(i as f64 / 10.0);
            prop_assert!(v >= prev - 1e-9);
            prop_assert!(v >= lo - 1e-6 && v <= hi + 1e-6);
            prev = v;
        }
    }

    /// A reservoir never exceeds capacity and counts every offer.
    #[test]
    fn reservoir_capacity_invariant(cap in 1usize..64, n in 0u64..2000, seed in any::<u64>()) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut r = Reservoir::new(cap);
        for i in 0..n {
            r.offer(i as f64, &mut rng);
        }
        prop_assert_eq!(r.seen(), n);
        prop_assert_eq!(r.len() as u64, n.min(cap as u64));
        // Every retained sample must have been offered.
        for &s in r.as_slice() {
            prop_assert!(s >= 0.0 && s < n as f64);
        }
    }

    /// Histogram conserves total count and maps values to in-range bins.
    #[test]
    fn histogram_conserves_mass(vals in prop::collection::vec(-1e4f64..1e4, 0..256),
                                width in 0.1f64..100.0, bins in 1usize..40) {
        let mut h = Histogram::new(-5e3, width, bins);
        for &v in &vals {
            let b = h.bin_of(v);
            prop_assert!(b < bins);
            h.add(v);
        }
        prop_assert_eq!(h.total(), vals.len() as u64);
    }

    /// Freedman–Diaconis width is positive and scales with the data spread.
    #[test]
    fn fd_width_positive_and_scales(vals in prop::collection::vec(0f64..1e3, 4..200),
                                    scale in 2f64..50.0) {
        if let Some(w) = freedman_diaconis_width(&vals) {
            prop_assert!(w > 0.0);
            let scaled: Vec<f64> = vals.iter().map(|v| v * scale).collect();
            let w2 = freedman_diaconis_width(&scaled).unwrap();
            prop_assert!((w2 - w * scale).abs() < 1e-6 * w2.max(1.0));
        }
    }
}
