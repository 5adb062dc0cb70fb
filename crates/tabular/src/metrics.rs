//! Evaluation metrics used by the paper (§V "Evaluation Metrics").
//!
//! Classification: F1-score (macro), precision, recall.
//! Regression: 1-RAE, 1-MAE, 1-MSE (higher is better, matching Table I).
//! Detection: AUC (plus precision/F1 reusing the classification paths).

use crate::stats::nan_last_cmp;

/// Which scalar score an evaluation reports. All metrics are oriented so that
/// **higher is better**, as in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Macro-averaged F1 (classification default in Table I).
    F1,
    /// Macro-averaged precision.
    Precision,
    /// Macro-averaged recall.
    Recall,
    /// Plain accuracy.
    Accuracy,
    /// `1 - relative absolute error` (regression default in Table I).
    OneMinusRae,
    /// `1 - mean absolute error`.
    OneMinusMae,
    /// `1 - mean squared error`.
    OneMinusMse,
    /// Area under the ROC curve (detection default in Table I).
    Auc,
}

impl Metric {
    /// The paper's default reporting metric per task type.
    pub fn default_for(task: crate::TaskType) -> Metric {
        match task {
            crate::TaskType::Classification => Metric::F1,
            crate::TaskType::Regression => Metric::OneMinusRae,
            crate::TaskType::Detection => Metric::Auc,
        }
    }

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            Metric::F1 => "F1",
            Metric::Precision => "Precision",
            Metric::Recall => "Recall",
            Metric::Accuracy => "Accuracy",
            Metric::OneMinusRae => "1-RAE",
            Metric::OneMinusMae => "1-MAE",
            Metric::OneMinusMse => "1-MSE",
            Metric::Auc => "AUC",
        }
    }
}

crate::persist_enum!(Metric {
    F1 = 0,
    Precision = 1,
    Recall = 2,
    Accuracy = 3,
    OneMinusRae = 4,
    OneMinusMae = 5,
    OneMinusMse = 6,
    Auc = 7,
});

/// Per-class counts backing the macro-averaged classification metrics.
fn confusion_counts(y_true: &[usize], y_pred: &[usize], n_classes: usize) -> Vec<(f64, f64, f64)> {
    // (tp, fp, fn) per class
    let mut counts = vec![(0.0, 0.0, 0.0); n_classes];
    for (&t, &p) in y_true.iter().zip(y_pred) {
        if t == p {
            counts[t].0 += 1.0;
        } else {
            counts[p].1 += 1.0;
            counts[t].2 += 1.0;
        }
    }
    counts
}

/// Macro-averaged precision over classes that appear in `y_true` or `y_pred`.
pub fn precision_macro(y_true: &[usize], y_pred: &[usize], n_classes: usize) -> f64 {
    macro_avg(y_true, y_pred, n_classes, |tp, fp, _fn| safe_div(tp, tp + fp))
}

/// Macro-averaged recall.
pub fn recall_macro(y_true: &[usize], y_pred: &[usize], n_classes: usize) -> f64 {
    macro_avg(y_true, y_pred, n_classes, |tp, _fp, fn_| safe_div(tp, tp + fn_))
}

/// Macro-averaged F1.
pub fn f1_macro(y_true: &[usize], y_pred: &[usize], n_classes: usize) -> f64 {
    macro_avg(y_true, y_pred, n_classes, |tp, fp, fn_| {
        let p = safe_div(tp, tp + fp);
        let r = safe_div(tp, tp + fn_);
        safe_div(2.0 * p * r, p + r)
    })
}

fn macro_avg(
    y_true: &[usize],
    y_pred: &[usize],
    n_classes: usize,
    per_class: impl Fn(f64, f64, f64) -> f64,
) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let counts = confusion_counts(y_true, y_pred, n_classes);
    // Average over classes present in the ground truth, matching sklearn's
    // behaviour of skipping absent classes only when they never occur.
    let mut present = vec![false; n_classes];
    for &t in y_true {
        present[t] = true;
    }
    let mut sum = 0.0;
    let mut n = 0usize;
    for (c, &(tp, fp, fn_)) in counts.iter().enumerate() {
        if present[c] {
            sum += per_class(tp, fp, fn_);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Plain accuracy.
pub fn accuracy(y_true: &[usize], y_pred: &[usize]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let hits = y_true.iter().zip(y_pred).filter(|(t, p)| t == p).count();
    hits as f64 / y_true.len() as f64
}

/// `1 - RAE` where `RAE = Σ|y-ŷ| / Σ|y-ȳ|` (paper's regression metric).
pub fn one_minus_rae(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let num: f64 = y_true.iter().zip(y_pred).map(|(t, p)| (t - p).abs()).sum();
    let den: f64 = y_true.iter().map(|t| (t - mean).abs()).sum();
    if den == 0.0 {
        if num == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - num / den
    }
}

/// `1 - MAE`.
pub fn one_minus_mae(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let mae =
        y_true.iter().zip(y_pred).map(|(t, p)| (t - p).abs()).sum::<f64>() / y_true.len() as f64;
    1.0 - mae
}

/// `1 - MSE`.
pub fn one_minus_mse(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let mse = y_true.iter().zip(y_pred).map(|(t, p)| (t - p) * (t - p)).sum::<f64>()
        / y_true.len() as f64;
    1.0 - mse
}

/// Area under the ROC curve for binary targets given positive-class scores.
///
/// Computed via the Mann–Whitney U statistic with midrank tie handling, which
/// is exact and O(n log n).
pub fn auc(y_true: &[usize], scores: &[f64]) -> f64 {
    assert_eq!(y_true.len(), scores.len());
    let n_pos = y_true.iter().filter(|&&y| y == 1).count();
    let n_neg = y_true.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5; // undefined; conventional fallback
    }
    let cmp = |a: usize, b: usize| nan_last_cmp(&scores[a], &scores[b]);
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| cmp(a, b));
    // Midranks over tied score groups (NaN scores rank last, as one group).
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && cmp(order[j + 1], order[i]).is_eq() {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0; // ranks are 1-based
        for &k in &order[i..=j] {
            if y_true[k] == 1 {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_pos - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

/// Welch's t-statistic and a two-sided p-value approximation for paired
/// method comparisons — the paper reports a t-stat / p-value row in Table I.
///
/// Returns `(t, p)`. Uses a normal approximation of the t distribution, which
/// is accurate for the df ≥ 20 regime of the 23-dataset comparison.
pub fn paired_t_test(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len());
    assert!(a.len() >= 2, "need at least two pairs");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let n = diffs.len() as f64;
    let mean = diffs.iter().sum::<f64>() / n;
    let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (n - 1.0);
    if var == 0.0 {
        return if mean == 0.0 { (0.0, 1.0) } else { (f64::INFINITY, 0.0) };
    }
    let t = mean / (var / n).sqrt();
    // Two-sided p via the standard normal tail (erfc-based).
    let p = erfc(t.abs() / std::f64::consts::SQRT_2);
    (t, p)
}

/// Complementary error function (Abramowitz–Stegun 7.1.26 rational
/// approximation, |error| < 1.5e-7).
pub fn erfc(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    if sign < 0.0 {
        1.0 + erf
    } else {
        1.0 - erf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn perfect_f1_is_one() {
        let y = vec![0, 1, 2, 1, 0];
        assert!((f1_macro(&y, &y, 3) - 1.0).abs() < 1e-12);
        assert!((precision_macro(&y, &y, 3) - 1.0).abs() < 1e-12);
        assert!((recall_macro(&y, &y, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f1_matches_hand_computation() {
        // class 0: tp=1 fp=1 fn=1 -> p=0.5 r=0.5 f1=0.5
        // class 1: tp=1 fp=1 fn=1 -> f1=0.5
        let t = vec![0, 0, 1, 1];
        let p = vec![0, 1, 1, 0];
        assert!((f1_macro(&t, &p, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f1_skips_absent_classes() {
        // Class 2 never occurs in truth; macro average over {0,1} only.
        let t = vec![0, 1];
        let p = vec![0, 1];
        assert!((f1_macro(&t, &p, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rae_zero_predictor_of_mean() {
        // Predicting the mean everywhere gives RAE = 1 -> score 0.
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let pred = vec![2.5; 4];
        assert!(one_minus_rae(&y, &pred).abs() < 1e-12);
    }

    #[test]
    fn rae_perfect_is_one() {
        let y = vec![1.0, 2.0, 3.0];
        assert!((one_minus_rae(&y, &y) - 1.0).abs() < 1e-12);
        assert!((one_minus_mae(&y, &y) - 1.0).abs() < 1e-12);
        assert!((one_minus_mse(&y, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let y = vec![0, 0, 1, 1];
        assert!((auc(&y, &[0.1, 0.2, 0.8, 0.9]) - 1.0).abs() < 1e-12);
        assert!(auc(&y, &[0.9, 0.8, 0.2, 0.1]).abs() < 1e-12);
    }

    #[test]
    fn auc_ties_give_half() {
        let y = vec![0, 1, 0, 1];
        assert!((auc(&y, &[0.5, 0.5, 0.5, 0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_known_value() {
        // scores: pos {0.8, 0.4}, neg {0.6, 0.2}
        // pairs won: (0.8>0.6),(0.8>0.2),(0.4<0.6 -> 0),(0.4>0.2) = 3/4
        let y = vec![1, 0, 1, 0];
        let s = vec![0.8, 0.6, 0.4, 0.2];
        assert!((auc(&y, &s) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn auc_with_nan_scores_is_order_independent() {
        // 100 scores with 15 NaNs, which rank last as one tied group.
        let y: Vec<usize> = (0..100).map(|i| usize::from(i % 3 == 0)).collect();
        let s: Vec<f64> =
            (0..100).map(|i| if i % 7 == 0 { f64::NAN } else { f64::from(i * 37 % 101) }).collect();
        let expected = auc(&y, &s);
        assert!(expected.is_finite());
        let reversed: Vec<usize> = (0..100).rev().collect();
        let interleaved: Vec<usize> = (0..100).map(|i| (i * 43) % 100).collect();
        for perm in [reversed, interleaved] {
            let yp: Vec<usize> = perm.iter().map(|&i| y[i]).collect();
            let sp: Vec<f64> = perm.iter().map(|&i| s[i]).collect();
            assert_eq!(auc(&yp, &sp).to_bits(), expected.to_bits());
        }
        // All-NaN scores are one tie: chance level.
        assert_eq!(auc(&[0, 1, 0, 1], &[f64::NAN; 4]), 0.5);
    }

    #[test]
    fn auc_degenerate_single_class() {
        assert_eq!(auc(&[1, 1], &[0.3, 0.7]), 0.5);
    }

    #[test]
    fn t_test_direction() {
        let a = vec![0.9, 0.8, 0.85, 0.95, 0.9];
        let b = vec![0.5, 0.55, 0.5, 0.6, 0.52];
        let (t, p) = paired_t_test(&a, &b);
        assert!(t > 3.0, "t = {t}");
        assert!(p < 0.01, "p = {p}");
    }

    #[test]
    fn t_test_identical_samples() {
        let a = vec![0.5, 0.6, 0.7];
        let (t, p) = paired_t_test(&a, &a);
        assert_eq!(t, 0.0);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn erfc_reference_points() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn metric_defaults_match_paper() {
        use crate::TaskType::*;
        assert_eq!(Metric::default_for(Classification), Metric::F1);
        assert_eq!(Metric::default_for(Regression), Metric::OneMinusRae);
        assert_eq!(Metric::default_for(Detection), Metric::Auc);
    }
}
