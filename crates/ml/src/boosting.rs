//! Gradient-boosted trees — the XGBoost stand-in used for Table III's
//! robustness check.
//!
//! Regression boosts squared loss on residuals; classification boosts
//! logistic loss with one score function per class (multinomial "one tree
//! per class per round" scheme) over shallow CART regressors. The training
//! matrix is binned once per fit and shared by every round and class.

use crate::binning::{BinnedMatrix, MAX_BINS_LIMIT};
use crate::linear::softmax;
use crate::tree::{argmax, CartParams, DecisionTreeRegressor};
use fastft_runtime::Runtime;

/// Boosting hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct BoostParams {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage / learning rate.
    pub learning_rate: f64,
    /// Base-learner tree depth.
    pub max_depth: usize,
}

impl Default for BoostParams {
    fn default() -> Self {
        BoostParams { n_rounds: 30, learning_rate: 0.15, max_depth: 3 }
    }
}

/// Fit one base learner against `targets` over the run's shared bins
/// (targets change between rounds, features never do).
fn fit_base(
    params: &BoostParams,
    binned: &BinnedMatrix,
    targets: &[f64],
    seed: u64,
) -> DecisionTreeRegressor {
    let cart = CartParams { max_depth: params.max_depth, ..CartParams::default() };
    let mut tree = DecisionTreeRegressor::new(cart, seed);
    tree.fit_binned(binned, targets, (0..targets.len()).collect());
    tree
}

/// Gradient-boosted regression trees (squared loss).
#[derive(Debug, Clone)]
pub struct GradientBoostingRegressor {
    params: BoostParams,
    seed: u64,
    base: f64,
    trees: Vec<DecisionTreeRegressor>,
}

impl GradientBoostingRegressor {
    /// Create an unfitted booster.
    pub fn new(params: BoostParams, seed: u64) -> Self {
        Self { params, seed, base: 0.0, trees: Vec::new() }
    }

    /// Fit on column-major features and real targets.
    pub fn fit(&mut self, columns: &[Vec<f64>], y: &[f64]) {
        let n = y.len();
        self.base = y.iter().sum::<f64>() / n.max(1) as f64;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
        let mut pred = vec![self.base; n];
        self.trees.clear();
        let binned = BinnedMatrix::build(columns, MAX_BINS_LIMIT);
        for r in 0..self.params.n_rounds {
            let resid: Vec<f64> = y.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let tree = fit_base(&self.params, &binned, &resid, self.seed + r as u64);
            for (p, row) in pred.iter_mut().zip(&rows) {
                *p += self.params.learning_rate * tree.predict_row(row);
            }
            self.trees.push(tree);
        }
    }

    /// Prediction for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.base
            + self.params.learning_rate * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Predictions for a row-major batch.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// [`GradientBoostingRegressor::predict`] with rows chunked over `rt`.
    /// (Fitting itself is stagewise-sequential and does not parallelise.)
    pub fn predict_with(&self, rt: &Runtime, rows: &[Vec<f64>]) -> Vec<f64> {
        crate::forest::par_rows(rt, rows, |r| self.predict_row(r))
    }
}

/// Gradient-boosted classification trees (multinomial logistic loss).
#[derive(Debug, Clone)]
pub struct GradientBoostingClassifier {
    params: BoostParams,
    seed: u64,
    n_classes: usize,
    // trees[round][class]
    trees: Vec<Vec<DecisionTreeRegressor>>,
    priors: Vec<f64>,
}

impl GradientBoostingClassifier {
    /// Create an unfitted booster.
    pub fn new(params: BoostParams, seed: u64) -> Self {
        Self { params, seed, n_classes: 0, trees: Vec::new(), priors: Vec::new() }
    }

    /// Fit on column-major features and integer labels (single-threaded).
    pub fn fit(&mut self, columns: &[Vec<f64>], y: &[usize], n_classes: usize) {
        self.fit_with(&Runtime::new(1), columns, y, n_classes);
    }

    /// Fit with the per-class trees of each round distributed over `rt`.
    ///
    /// Within a round every class tree is fitted against the *round-start*
    /// softmax probabilities and each tree updates only its own class's
    /// score column, so the per-class fits are independent and the result
    /// is identical to [`GradientBoostingClassifier::fit`] for any thread
    /// count. Rounds remain sequential (boosting is stagewise).
    pub fn fit_with(&mut self, rt: &Runtime, columns: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let n = y.len();
        self.n_classes = n_classes;
        // Log-prior initial scores.
        let mut counts = vec![1e-9; n_classes];
        for &yi in y {
            counts[yi] += 1.0;
        }
        self.priors = counts.iter().map(|c| (c / n as f64).ln()).collect();
        let rows: Vec<Vec<f64>> = (0..n).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
        let mut scores: Vec<Vec<f64>> = (0..n).map(|_| self.priors.clone()).collect();
        self.trees.clear();
        let binned = BinnedMatrix::build(columns, MAX_BINS_LIMIT);
        for r in 0..self.params.n_rounds {
            // Gradients of the multinomial log-loss: y_onehot - softmax.
            let probs: Vec<Vec<f64>> = scores.iter().map(|s| softmax(s)).collect();
            let round: Vec<(DecisionTreeRegressor, Vec<f64>)> =
                rt.par_map((0..n_classes).collect(), |c| {
                    let grad: Vec<f64> =
                        (0..n).map(|i| f64::from(u8::from(y[i] == c)) - probs[i][c]).collect();
                    let tree = fit_base(
                        &self.params,
                        &binned,
                        &grad,
                        self.seed + (r * n_classes + c) as u64,
                    );
                    let updates: Vec<f64> = rows.iter().map(|row| tree.predict_row(row)).collect();
                    (tree, updates)
                });
            let mut trees = Vec::with_capacity(n_classes);
            for (c, (tree, updates)) in round.into_iter().enumerate() {
                for (s, u) in scores.iter_mut().zip(updates) {
                    s[c] += self.params.learning_rate * u;
                }
                trees.push(tree);
            }
            self.trees.push(trees);
        }
    }

    /// Class-probability vector for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        let mut s = self.priors.clone();
        for round in &self.trees {
            for (c, tree) in round.iter().enumerate() {
                s[c] += self.params.learning_rate * tree.predict_row(row);
            }
        }
        softmax(&s)
    }

    /// Hard labels for a row-major batch.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| argmax(&self.predict_proba_row(r))).collect()
    }

    /// Positive-class scores for AUC.
    pub fn predict_scores(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let c = 1.min(self.n_classes.saturating_sub(1));
        rows.iter().map(|r| self.predict_proba_row(r)[c]).collect()
    }

    /// [`GradientBoostingClassifier::predict`] with rows chunked over `rt`.
    pub fn predict_with(&self, rt: &Runtime, rows: &[Vec<f64>]) -> Vec<usize> {
        crate::forest::par_rows(rt, rows, |r| argmax(&self.predict_proba_row(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx;

    #[test]
    fn regressor_beats_constant_baseline() {
        let mut rng = rngx::rng(1);
        let x = rngx::normal_vec(&mut rng, 400);
        let y: Vec<f64> = x.iter().map(|v| v.sin() * 3.0).collect();
        let cols = vec![x.clone()];
        let mut m = GradientBoostingRegressor::new(BoostParams::default(), 0);
        m.fit(&cols, &y);
        let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
        let pred = m.predict(&rows);
        let score = fastft_tabular::metrics::one_minus_rae(&y, &pred);
        assert!(score > 0.8, "1-RAE {score}");
    }

    #[test]
    fn classifier_learns_xor() {
        let mut rng = rngx::rng(2);
        let n = 500;
        let a = rngx::normal_vec(&mut rng, n);
        let b = rngx::normal_vec(&mut rng, n);
        let y: Vec<usize> =
            a.iter().zip(&b).map(|(&x, &z)| usize::from((x > 0.0) != (z > 0.0))).collect();
        let cols = vec![a.clone(), b.clone()];
        let mut m = GradientBoostingClassifier::new(BoostParams::default(), 0);
        m.fit(&cols, &y, 2);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![cols[0][i], cols[1][i]]).collect();
        let acc = fastft_tabular::metrics::accuracy(&y, &m.predict(&rows));
        assert!(acc > 0.88, "accuracy {acc}");
    }

    #[test]
    fn classifier_proba_is_distribution() {
        let cols = vec![vec![0.0, 1.0, 2.0, 3.0]];
        let y = vec![0, 0, 1, 1];
        let mut m = GradientBoostingClassifier::new(BoostParams::default(), 0);
        m.fit(&cols, &y, 2);
        let p = m.predict_proba_row(&[1.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multiclass_boosting() {
        let mut rng = rngx::rng(3);
        let x = rngx::normal_vec(&mut rng, 300);
        let y: Vec<usize> = x
            .iter()
            .map(|&v| {
                if v < -0.5 {
                    0
                } else if v < 0.5 {
                    1
                } else {
                    2
                }
            })
            .collect();
        let cols = vec![x.clone()];
        let mut m = GradientBoostingClassifier::new(BoostParams::default(), 0);
        m.fit(&cols, &y, 3);
        let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
        let acc = fastft_tabular::metrics::accuracy(&y, &m.predict(&rows));
        assert!(acc > 0.9, "accuracy {acc}");
    }
}
