//! Quantile binning of feature columns for histogram split finding.
//!
//! A [`BinnedMatrix`] discretises every feature column once per fit into
//! `u8` bin codes: up to `max_bins` (≤ 255) finite-value bins plus one
//! dedicated missing bin per feature that collects NaN. Split search then
//! runs over bin histograms instead of sorted rows (see
//! [`crate::tree`]), which turns the per-node cost from
//! `O(rows · log rows)` per feature into one `O(rows)` histogram pass.
//!
//! Bin thresholds are midpoints between adjacent occupied value ranges, so
//! a tree trained on bins predicts on raw `f64` rows with the usual
//! `value <= threshold` test. NaN compares false against any threshold and
//! therefore always routes right at prediction time; binning mirrors that
//! by giving the missing bin the highest code, so NaN rows sit on the
//! right of every candidate split during training too.

/// A column-major matrix of per-feature bin codes plus the split
/// thresholds that map bin boundaries back to raw feature values.
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    n_rows: usize,
    n_features: usize,
    /// Bin codes, column-major: feature `f`, row `i` at `f * n_rows + i`.
    codes: Vec<u8>,
    /// Finite-value bins per feature (`<= max_bins`); the missing bin has
    /// code `n_finite_bins[f]`.
    n_finite_bins: Vec<usize>,
    /// Per feature: `thresholds[b]` realises the split "bin <= b" as
    /// `value <= thresholds[b]`. The last entry (`b = n_finite_bins - 1`)
    /// is the column's maximum finite value, so the final boundary
    /// separates all finite values from the missing bin.
    thresholds: Vec<Vec<f64>>,
}

/// Largest number of finite bins a `u8` code space can hold while
/// reserving one code for the missing bin.
pub const MAX_BINS_LIMIT: u16 = 255;

impl BinnedMatrix {
    /// Bin `columns` into at most `max_bins` finite bins per feature
    /// (clamped to 1..=255). Each feature additionally gets a missing bin
    /// for NaN values.
    pub fn build(columns: &[Vec<f64>], max_bins: u16) -> BinnedMatrix {
        let max_bins = max_bins.clamp(1, MAX_BINS_LIMIT) as usize;
        let n_rows = columns.first().map_or(0, Vec::len);
        let n_features = columns.len();
        let mut codes = vec![0u8; n_features * n_rows];
        let mut n_finite_bins = Vec::with_capacity(n_features);
        let mut thresholds = Vec::with_capacity(n_features);
        let mut sorted: Vec<f64> = Vec::new();
        for (f, col) in columns.iter().enumerate() {
            sorted.clear();
            sorted.extend(col.iter().copied().filter(|v| !v.is_nan()));
            sorted.sort_by(f64::total_cmp);
            let cuts = column_thresholds(&sorted, max_bins);
            let nb = if cuts.is_empty() { 0 } else { cuts.len() };
            let dst = &mut codes[f * n_rows..(f + 1) * n_rows];
            for (c, &v) in dst.iter_mut().zip(col) {
                *c = if v.is_nan() {
                    nb as u8
                } else {
                    // Internal boundaries only: the final threshold is the
                    // column maximum and every finite value lies at or
                    // below it.
                    cuts[..nb.saturating_sub(1)].partition_point(|&t| t < v) as u8
                };
            }
            n_finite_bins.push(nb);
            thresholds.push(cuts);
        }
        BinnedMatrix { n_rows, n_features, codes, n_finite_bins, thresholds }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Finite-value bins of feature `f` (the missing bin is extra).
    pub fn n_bins(&self, f: usize) -> usize {
        self.n_finite_bins[f]
    }

    /// Raw-value threshold realising the split "bin <= b" of feature `f`.
    pub fn threshold(&self, f: usize, b: usize) -> f64 {
        self.thresholds[f][b]
    }

    /// Bin codes of feature `f`, one per row.
    pub fn codes(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Split thresholds for one sorted (finite, ascending) column: at most
/// `max_bins - 1` internal midpoint boundaries plus the column maximum as
/// the final finite/missing boundary. Empty when the column has no finite
/// values.
fn column_thresholds(sorted: &[f64], max_bins: usize) -> Vec<f64> {
    if sorted.is_empty() {
        return Vec::new();
    }
    let n = sorted.len();
    let mut cuts = Vec::new();
    // Distinct adjacent pairs, subsampled at quantile ranks when the
    // column has more distinct values than bins.
    let mut distinct = 0usize;
    for i in 1..n {
        if sorted[i] != sorted[i - 1] {
            distinct += 1;
        }
    }
    let distinct = distinct + 1;
    if distinct <= max_bins {
        // One bin per distinct value: boundaries are exact-midpoints, so a
        // histogram search sees the same candidate set as sorted search.
        for i in 1..n {
            if sorted[i] != sorted[i - 1] {
                cuts.push(0.5 * (sorted[i - 1] + sorted[i]));
            }
        }
    } else {
        // Quantile cuts: boundary at every n/max_bins rank, snapped to the
        // nearest change in value so bins never split a tied run.
        let mut prev_cut = f64::NEG_INFINITY;
        for b in 1..max_bins {
            let rank = b * n / max_bins;
            if rank == 0 || rank >= n {
                continue;
            }
            let (lo, hi) = (sorted[rank - 1], sorted[rank]);
            if lo == hi {
                continue;
            }
            let cut = 0.5 * (lo + hi);
            if cut > prev_cut {
                cuts.push(cut);
                prev_cut = cut;
            }
        }
    }
    // Final boundary: the column maximum, separating every finite value
    // from the missing bin.
    cuts.push(sorted[n - 1]);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_values_get_own_bins() {
        let cols = vec![vec![3.0, 1.0, 2.0, 1.0, 3.0]];
        let b = BinnedMatrix::build(&cols, 255);
        assert_eq!(b.n_bins(0), 3);
        assert_eq!(b.codes(0), &[2, 0, 1, 0, 2]);
        assert_eq!(b.threshold(0, 0), 1.5);
        assert_eq!(b.threshold(0, 1), 2.5);
        // Final boundary is the column max (finite | missing split).
        assert_eq!(b.threshold(0, 2), 3.0);
    }

    #[test]
    fn nan_routes_to_missing_bin() {
        let cols = vec![vec![1.0, f64::NAN, 2.0, f64::NAN]];
        let b = BinnedMatrix::build(&cols, 255);
        assert_eq!(b.n_bins(0), 2);
        assert_eq!(b.codes(0), &[0, 2, 1, 2]);
    }

    #[test]
    fn all_nan_column_has_no_bins() {
        let cols = vec![vec![f64::NAN, f64::NAN]];
        let b = BinnedMatrix::build(&cols, 255);
        assert_eq!(b.n_bins(0), 0);
        assert_eq!(b.codes(0), &[0, 0]);
    }

    #[test]
    fn quantile_binning_caps_bin_count() {
        let col: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let b = BinnedMatrix::build(std::slice::from_ref(&col), 16);
        assert!(b.n_bins(0) <= 16, "bins {}", b.n_bins(0));
        assert!(b.n_bins(0) >= 15);
        // Codes are monotone in the raw values.
        let codes = b.codes(0);
        for i in 1..codes.len() {
            assert!(codes[i] >= codes[i - 1]);
        }
        // Threshold consistency: v <= threshold(b) iff code(v) <= b.
        for (i, &v) in col.iter().enumerate() {
            for bb in 0..b.n_bins(0) {
                assert_eq!(v <= b.threshold(0, bb), (codes[i] as usize) <= bb, "v={v} b={bb}");
            }
        }
    }

    #[test]
    fn constant_column_single_bin() {
        let b = BinnedMatrix::build(&[vec![7.0; 10]], 255);
        assert_eq!(b.n_bins(0), 1);
        assert!(b.codes(0).iter().all(|&c| c == 0));
    }

    #[test]
    fn tied_runs_never_split() {
        // More distinct values than bins, with heavy ties: every tied run
        // must land in a single bin.
        let mut col = Vec::new();
        for i in 0..40 {
            for _ in 0..5 {
                col.push((i / 2) as f64);
            }
        }
        let b = BinnedMatrix::build(std::slice::from_ref(&col), 8);
        let codes = b.codes(0);
        for i in 0..col.len() {
            for j in 0..col.len() {
                if col[i] == col[j] {
                    assert_eq!(codes[i], codes[j]);
                }
            }
        }
    }
}
