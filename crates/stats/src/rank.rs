//! Rank statistics: Spearman correlation and rank overlap.

use crate::pearson;

/// Assigns average ranks to `values` (ties share the mean rank).
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation: Pearson correlation of the rank vectors.
///
/// Used to quantify how much two page orderings agree — e.g. ranking by
/// PAC vs ranking by access frequency, the disagreement PACT exploits.
///
/// Returns `None` for mismatched lengths, fewer than two points, or a
/// constant series.
///
/// # Example
///
/// ```
/// let a = [1.0, 2.0, 3.0, 4.0];
/// let b = [10.0, 20.0, 25.0, 100.0]; // same order, different values
/// assert!((pact_stats::spearman(&a, &b).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Fraction of elements shared by the top-`k` sets of two scorings
/// (indices compared, higher score = higher rank).
///
/// # Panics
///
/// Panics if the slices differ in length or `k` exceeds it.
pub fn top_k_overlap(xs: &[f64], ys: &[f64], k: usize) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    assert!(k <= xs.len() && k > 0, "k out of range");
    let top = |v: &[f64]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap_or(std::cmp::Ordering::Equal));
        idx.truncate(k);
        // BTreeSet: set semantics with a deterministic layout
        // (det-hash-collections).
        idx.into_iter().collect::<std::collections::BTreeSet<_>>()
    };
    let a = top(xs);
    let b = top(ys);
    a.intersection(&b).count() as f64 / k as f64
}

/// Gini coefficient of a non-negative sample: 0 = perfectly uniform,
/// →1 = all mass on one element. The paper's motivation (§3) rests on
/// PAC distributions being *highly skewed*; this quantifies it.
///
/// Returns `None` on an empty sample or all-zero mass.
///
/// # Example
///
/// ```
/// // One page holds all the criticality: maximal skew.
/// let g = pact_stats::gini(&[0.0, 0.0, 0.0, 100.0]).unwrap();
/// assert!(g > 0.7);
/// // Uniform criticality: no skew.
/// assert!(pact_stats::gini(&[5.0, 5.0, 5.0, 5.0]).unwrap() < 1e-9);
/// ```
pub fn gini(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    #[expect(
        clippy::expect_used,
        reason = "NaNs were filtered on the line above, so every pair of remaining values is \
                  comparable"
    )]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64 + 1.0) * v)
        .sum();
    Some((2.0 * weighted / (n * total) - (n + 1.0) / n).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_detects_monotone_nonlinear_relations() {
        let xs: Vec<f64> = (1..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp().min(1e300)).collect();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-9);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((spearman(&xs, &neg).unwrap() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_degenerate_inputs() {
        assert!(spearman(&[1.0], &[1.0]).is_none());
        assert!(spearman(&[1.0, 1.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn top_k_overlap_bounds() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(top_k_overlap(&a, &b, 4), 1.0); // whole set overlaps
        assert_eq!(top_k_overlap(&a, &b, 2), 0.0); // opposite tops
        assert_eq!(top_k_overlap(&a, &a, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn top_k_rejects_oversized_k() {
        top_k_overlap(&[1.0], &[1.0], 2);
    }

    #[test]
    fn gini_of_known_distributions() {
        // Linear ramp 1..=n has Gini -> 1/3 for large n.
        let ramp: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let g = gini(&ramp).unwrap();
        assert!((g - 1.0 / 3.0).abs() < 0.01, "g = {g}");
        assert!(gini(&[]).is_none());
        assert!(gini(&[0.0, 0.0]).is_none());
    }
}
