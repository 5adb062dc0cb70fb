//! Binned mutual-information estimation.
//!
//! The feature-clustering distance of Eq. 2 and MI-based feature selection
//! both need `MI(F_i, y)` and `MI(F_i, F_j)` on continuous columns. We use
//! the standard equal-frequency ("quantile") binning estimator: discretise
//! each continuous variable into `n_bins` roughly equal-population bins, then
//! compute discrete MI from the joint histogram.

use crate::stats::nan_last_cmp;

/// Default number of quantile bins for continuous variables.
pub const DEFAULT_BINS: usize = 16;

/// Discretise a continuous column into equal-frequency bins.
///
/// Ties at bin boundaries are kept in the lower bin; constant columns map to
/// a single bin, and NaN values rank after every finite value and share one
/// bin. Returns bin indices in `0..n_bins` (fewer distinct values
/// than bins yields fewer populated bins).
pub fn quantile_bins(values: &[f64], n_bins: usize) -> Vec<usize> {
    assert!(n_bins >= 1);
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    let cmp = |a: usize, b: usize| nan_last_cmp(&values[a], &values[b]);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp(a, b));
    let mut bins = vec![0usize; n];
    let per = (n as f64 / n_bins as f64).max(1.0);
    let mut i = 0;
    while i < n {
        // All entries with the same value (NaN included) must land in the
        // same bin so the estimator is invariant to sort tie order.
        let mut j = i;
        while j + 1 < n && cmp(order[j + 1], order[i]).is_eq() {
            j += 1;
        }
        let bin = ((i as f64 / per) as usize).min(n_bins - 1);
        for &k in &order[i..=j] {
            bins[k] = bin;
        }
        i = j + 1;
    }
    bins
}

/// Discrete mutual information (in nats) between two label vectors.
pub fn mi_discrete(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let ka = a.iter().copied().max().unwrap_or(0) + 1;
    let kb = b.iter().copied().max().unwrap_or(0) + 1;
    let mut joint = vec![0.0f64; ka * kb];
    let mut pa = vec![0.0f64; ka];
    let mut pb = vec![0.0f64; kb];
    let inv_n = 1.0 / n as f64;
    for (&x, &y) in a.iter().zip(b) {
        joint[x * kb + y] += inv_n;
        pa[x] += inv_n;
        pb[y] += inv_n;
    }
    let mut mi = 0.0;
    for x in 0..ka {
        if pa[x] == 0.0 {
            continue;
        }
        for y in 0..kb {
            let pxy = joint[x * kb + y];
            if pxy > 0.0 {
                mi += pxy * (pxy / (pa[x] * pb[y])).ln();
            }
        }
    }
    mi.max(0.0)
}

/// Shannon entropy (nats) of a discrete label vector.
pub fn entropy_discrete(a: &[usize]) -> f64 {
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let k = a.iter().copied().max().unwrap_or(0) + 1;
    let mut p = vec![0.0f64; k];
    let inv_n = 1.0 / n as f64;
    for &x in a {
        p[x] += inv_n;
    }
    -p.iter().filter(|&&px| px > 0.0).map(|&px| px * px.ln()).sum::<f64>()
}

/// MI between two continuous columns (binned estimator).
pub fn mi_continuous(a: &[f64], b: &[f64], n_bins: usize) -> f64 {
    mi_discrete(&quantile_bins(a, n_bins), &quantile_bins(b, n_bins))
}

/// MI between a continuous feature and a task target.
///
/// Discrete targets (classification/detection) are used as-is; regression
/// targets are quantile-binned like the feature.
pub fn mi_feature_target(
    feature: &[f64],
    targets: &[f64],
    discrete_target: bool,
    n_bins: usize,
) -> f64 {
    let fb = quantile_bins(feature, n_bins);
    if discrete_target {
        let tb: Vec<usize> = targets.iter().map(|&y| y as usize).collect();
        mi_discrete(&fb, &tb)
    } else {
        mi_discrete(&fb, &quantile_bins(targets, n_bins))
    }
}

/// Relevance scores `MI(F_j, y)` for every feature of a dataset.
pub fn relevance_scores(data: &crate::Dataset, n_bins: usize) -> Vec<f64> {
    let discrete = data.task.is_discrete();
    data.features
        .iter()
        .map(|c| mi_feature_target(&c.values, &data.targets, discrete, n_bins))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngx;

    #[test]
    fn bins_are_balanced() {
        let values: Vec<f64> = (0..160).map(|i| i as f64).collect();
        let bins = quantile_bins(&values, 16);
        let mut counts = vec![0usize; 16];
        for &b in &bins {
            counts[b] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn constant_column_single_bin() {
        let bins = quantile_bins(&[3.0; 50], 8);
        assert!(bins.iter().all(|&b| b == bins[0]));
    }

    #[test]
    fn ties_share_bins() {
        // 50 zeros then 50 ones with 4 bins: each value group must be uniform.
        let mut v = vec![0.0; 50];
        v.extend(vec![1.0; 50]);
        let bins = quantile_bins(&v, 4);
        assert!(bins[..50].iter().all(|&b| b == bins[0]));
        assert!(bins[50..].iter().all(|&b| b == bins[50]));
        assert_ne!(bins[0], bins[50]);
    }

    #[test]
    fn nan_values_bin_the_same_in_any_order() {
        let base: Vec<f64> =
            (0..100).map(|i| if i % 7 == 0 { f64::NAN } else { f64::from(i * 37 % 101) }).collect();
        let expected = quantile_bins(&base, 8);
        let nan_bin = expected[0];
        assert!(base.iter().zip(&expected).all(|(v, &b)| !v.is_nan() || b == nan_bin));
        // Each permutation lists, per position, the index into `base`.
        let reversed: Vec<usize> = (0..100).rev().collect();
        let interleaved: Vec<usize> = (0..100).map(|i| (i * 43) % 100).collect();
        for perm in [reversed, interleaved] {
            let values: Vec<f64> = perm.iter().map(|&i| base[i]).collect();
            let bins = quantile_bins(&values, 8);
            for (k, &i) in perm.iter().enumerate() {
                assert_eq!(bins[k], expected[i], "value {}", base[i]);
            }
        }
    }

    #[test]
    fn mi_of_identical_equals_entropy() {
        let a = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let mi = mi_discrete(&a, &a);
        let h = entropy_discrete(&a);
        assert!((mi - h).abs() < 1e-12);
    }

    #[test]
    fn mi_of_independent_near_zero() {
        let mut r = rngx::rng(11);
        let a = rngx::normal_vec(&mut r, 4000);
        let b = rngx::normal_vec(&mut r, 4000);
        let mi = mi_continuous(&a, &b, 8);
        // Finite-sample bias is positive but small.
        assert!(mi < 0.05, "mi = {mi}");
    }

    #[test]
    fn mi_detects_dependence() {
        let mut r = rngx::rng(12);
        let a = rngx::normal_vec(&mut r, 4000);
        let b: Vec<f64> = a.iter().map(|x| x * x).collect();
        let dep = mi_continuous(&a, &b, 8);
        let c = rngx::normal_vec(&mut r, 4000);
        let indep = mi_continuous(&a, &c, 8);
        assert!(dep > 5.0 * indep + 0.1, "dep={dep} indep={indep}");
    }

    #[test]
    fn mi_symmetry() {
        let a = vec![0, 0, 1, 1, 2, 2, 0, 1];
        let b = vec![1, 0, 1, 0, 1, 0, 1, 0];
        assert!((mi_discrete(&a, &b) - mi_discrete(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn mi_nonnegative_random() {
        let mut r = rngx::rng(13);
        for _ in 0..20 {
            let a = rngx::normal_vec(&mut r, 200);
            let b = rngx::normal_vec(&mut r, 200);
            assert!(mi_continuous(&a, &b, 6) >= 0.0);
        }
    }

    #[test]
    fn entropy_uniform_is_log_k() {
        let a = vec![0, 1, 2, 3, 0, 1, 2, 3];
        assert!((entropy_discrete(&a) - (4.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn relevance_ranks_informative_feature_first() {
        use crate::{Column, Dataset, TaskType};
        let mut r = rngx::rng(21);
        let n = 1000;
        let signal = rngx::normal_vec(&mut r, n);
        let noise = rngx::normal_vec(&mut r, n);
        let y: Vec<f64> = signal.iter().map(|&s| if s > 0.0 { 1.0 } else { 0.0 }).collect();
        let d = Dataset::new(
            "rel",
            vec![Column::new("noise", noise), Column::new("signal", signal)],
            y,
            TaskType::Classification,
            2,
        )
        .unwrap();
        let scores = relevance_scores(&d, DEFAULT_BINS);
        assert!(scores[1] > scores[0] + 0.1, "{scores:?}");
    }
}
