//! Descriptive statistics backing the Fig. 4 state representation.
//!
//! A feature cluster's state is the "stats of stats": compute seven
//! descriptive statistics per column, stack them into a `#features × 7`
//! matrix, then compute the same seven statistics over each of the 7 columns
//! of that matrix, producing a fixed 49-dimensional representation regardless
//! of how many features the cluster holds.

/// Number of descriptive statistics per vector.
pub const N_STATS: usize = 7;

/// Dimension of the fixed cluster / feature-set representation.
pub const REP_DIM: usize = N_STATS * N_STATS;

/// Total order on `f64` with every NaN after every other value and equal
/// to any other NaN; non-NaN values keep their `partial_cmp` order (so
/// `-0.0` and `0.0` tie). Sorting with it never panics and places NaN in
/// one block at the end whatever the input order.
pub fn nan_last_cmp(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Seven descriptive statistics of a value vector:
/// `[mean, std, min, q1, median, q3, max]` (NaN values sort last).
pub fn describe(values: &[f64]) -> [f64; N_STATS] {
    if values.is_empty() {
        return [0.0; N_STATS];
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(nan_last_cmp);
    [
        mean,
        var.sqrt(),
        sorted[0],
        percentile_sorted(&sorted, 0.25),
        percentile_sorted(&sorted, 0.5),
        percentile_sorted(&sorted, 0.75),
        sorted[sorted.len() - 1],
    ]
}

/// Linear-interpolated percentile of a pre-sorted slice, `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The Fig. 4 "stats of stats" representation of a set of columns.
///
/// Returns a fixed [`REP_DIM`]-length vector; an empty column set maps to all
/// zeros so the representation is total.
pub fn rep_of_columns<'a>(columns: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let per_col: Vec<[f64; N_STATS]> = columns.into_iter().map(describe).collect();
    if per_col.is_empty() {
        return vec![0.0; REP_DIM];
    }
    let mut rep = Vec::with_capacity(REP_DIM);
    for s in 0..N_STATS {
        let column_of_stats: Vec<f64> = per_col.iter().map(|row| row[s]).collect();
        rep.extend_from_slice(&describe(&column_of_stats));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_constant() {
        let d = describe(&[5.0; 10]);
        assert_eq!(d, [5.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn describe_known_values() {
        let d = describe(&[1.0, 2.0, 3.0, 4.0]);
        assert!((d[0] - 2.5).abs() < 1e-12); // mean
        assert_eq!(d[2], 1.0); // min
        assert!((d[4] - 2.5).abs() < 1e-12); // median
        assert_eq!(d[6], 4.0); // max
        assert!((d[3] - 1.75).abs() < 1e-12); // q1
        assert!((d[5] - 3.25).abs() < 1e-12); // q3
    }

    #[test]
    fn describe_empty_is_zeros() {
        assert_eq!(describe(&[]), [0.0; N_STATS]);
    }

    #[test]
    fn percentile_endpoints() {
        let s = vec![1.0, 5.0, 9.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 1.0), 9.0);
        assert_eq!(percentile_sorted(&s, 0.5), 5.0);
    }

    #[test]
    fn nan_last_cmp_orders_nan_after_everything() {
        use std::cmp::Ordering::*;
        let nan = f64::NAN;
        assert_eq!(nan_last_cmp(&nan, &nan), Equal);
        assert_eq!(nan_last_cmp(&nan, &f64::INFINITY), Greater);
        assert_eq!(nan_last_cmp(&f64::NEG_INFINITY, &nan), Less);
        assert_eq!(nan_last_cmp(&-0.0, &0.0), Equal);
        assert_eq!(nan_last_cmp(&1.0, &2.0), Less);
    }

    #[test]
    fn describe_with_nans_is_order_independent() {
        // 100 values with 15 NaNs: `partial_cmp(..).unwrap_or(Equal)` is
        // not a total order, and sorting with it may panic on such input.
        let base: Vec<f64> =
            (0..100).map(|i| if i % 7 == 0 { f64::NAN } else { f64::from(i * 37 % 101) }).collect();
        assert_eq!(base.iter().filter(|v| v.is_nan()).count(), 15);
        let reversed: Vec<f64> = base.iter().rev().copied().collect();
        let nan_first: Vec<f64> = {
            let (mut nans, rest): (Vec<f64>, Vec<f64>) = base.iter().partition(|v| v.is_nan());
            nans.extend(rest);
            nans
        };
        let bits = |v: &[f64]| describe(v).map(f64::to_bits);
        for order in [&reversed, &nan_first] {
            assert_eq!(bits(order), bits(&base));
        }
        // NaN sorts last: the minimum is finite, the maximum is NaN.
        let d = describe(&base);
        assert!(d[2].is_finite() && d[6].is_nan(), "{d:?}");
    }

    #[test]
    fn rep_dim_is_fixed() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 5.0, 6.0];
        let one = rep_of_columns([a.as_slice()]);
        let two = rep_of_columns([a.as_slice(), b.as_slice()]);
        assert_eq!(one.len(), REP_DIM);
        assert_eq!(two.len(), REP_DIM);
    }

    #[test]
    fn rep_empty_set_is_zero() {
        let rep = rep_of_columns(std::iter::empty::<&[f64]>());
        assert!(rep.iter().all(|&v| v == 0.0));
        assert_eq!(rep.len(), REP_DIM);
    }

    #[test]
    fn rep_distinguishes_different_sets() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![100.0, 200.0, 300.0, 400.0];
        let ra = rep_of_columns([a.as_slice()]);
        let rb = rep_of_columns([b.as_slice()]);
        assert_ne!(ra, rb);
    }

    #[test]
    fn rep_order_invariant_in_stats_sense() {
        // Reordering rows of a column leaves its describe() unchanged, hence
        // the whole representation unchanged.
        let a = vec![3.0, 1.0, 2.0];
        let a2 = vec![1.0, 2.0, 3.0];
        assert_eq!(rep_of_columns([a.as_slice()]), rep_of_columns([a2.as_slice()]));
    }
}
