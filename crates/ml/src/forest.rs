//! Bagged random forests (the paper's default downstream model).
//!
//! Bootstrap row sampling plus per-split feature subsampling over the CART
//! trees of [`crate::tree`]. Probabilities are averaged leaf distributions,
//! which also provide the ranking scores needed for detection-task AUC.
//!
//! Trees are independent given their seeds, so fitting and prediction
//! parallelise over a [`Runtime`]: every tree draws its bootstrap sample
//! from its own `StdRng::stream(seed, tree_index)`, which makes the fitted
//! forest byte-identical for a given seed regardless of worker count. The
//! training matrix is binned once per fit and shared by every tree.

use crate::binning::{BinnedMatrix, MAX_BINS_LIMIT};
use crate::tree::{self, CartParams, DecisionTreeClassifier, DecisionTreeRegressor};
use fastft_runtime::Runtime;
use fastft_tabular::rngx::StdRng;

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree CART parameters; `max_features = None` here means "use the
    /// √d (classification) / d/3 (regression) heuristic".
    pub cart: CartParams,
    /// Bootstrap sample fraction of the training rows.
    pub sample_frac: f64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 12,
            cart: CartParams { max_depth: 10, ..CartParams::default() },
            sample_frac: 1.0,
        }
    }
}

fn default_max_features(d: usize, classification: bool) -> usize {
    if classification { (d as f64).sqrt().ceil() as usize } else { (d / 3).max(1) }.clamp(1, d)
}

/// Random forest classifier.
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    params: ForestParams,
    seed: u64,
    trees: Vec<DecisionTreeClassifier>,
    n_classes: usize,
    importances: Vec<f64>,
}

impl RandomForestClassifier {
    /// Create an unfitted forest.
    pub fn new(params: ForestParams, seed: u64) -> Self {
        Self { params, seed, trees: Vec::new(), n_classes: 0, importances: Vec::new() }
    }

    /// Fit on column-major features and integer labels (single-threaded).
    pub fn fit(&mut self, columns: &[Vec<f64>], y: &[usize], n_classes: usize) {
        self.fit_with(&Runtime::new(1), columns, y, n_classes);
    }

    /// Fit with trees distributed over `rt`. The result is identical to
    /// [`RandomForestClassifier::fit`] for any thread count: each tree's
    /// bootstrap rows come from its own seed stream.
    pub fn fit_with(&mut self, rt: &Runtime, columns: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let n = y.len();
        let d = columns.len();
        let mut cart = self.params.cart;
        if cart.max_features.is_none() {
            cart.max_features = Some(default_max_features(d, true));
        }
        let n_boot = ((n as f64) * self.params.sample_frac).round().max(1.0) as usize;
        let seed = self.seed;
        let binned = BinnedMatrix::build(columns, MAX_BINS_LIMIT);
        self.trees = rt.par_map_indexed((0..self.params.n_trees).collect(), |_, t| {
            let mut rng = StdRng::stream(seed, t as u64);
            let rows: Vec<usize> = (0..n_boot).map(|_| rng.gen_range(0..n)).collect();
            let mut tree = DecisionTreeClassifier::new(cart, seed.wrapping_add(t as u64 + 1));
            tree.fit_binned(&binned, y, n_classes, rows);
            tree
        });
        self.importances = vec![0.0; d];
        for tree in &self.trees {
            for (acc, imp) in self.importances.iter_mut().zip(tree.feature_importances()) {
                *acc += imp / self.params.n_trees as f64;
            }
        }
        self.n_classes = n_classes;
    }

    /// Averaged class-probability vector for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        self.proba_into(row, &mut acc);
        acc
    }

    /// Write the averaged class-probability vector of `row` into `acc`,
    /// summing leaf distributions in tree order.
    fn proba_into(&self, row: &[f64], acc: &mut [f64]) {
        assert!(!self.trees.is_empty(), "fit first");
        acc.fill(0.0);
        for t in &self.trees {
            for (a, p) in acc.iter_mut().zip(t.predict_proba_row(row)) {
                *a += p;
            }
        }
        let inv = 1.0 / self.trees.len() as f64;
        for a in acc {
            *a *= inv;
        }
    }

    /// Hard labels and positive-class (class 1) scores for a row-major
    /// batch, one forest traversal per row: equal to
    /// [`RandomForestClassifier::predict`] and
    /// [`RandomForestClassifier::predict_scores`] together.
    pub fn predict_with_scores(&self, rows: &[Vec<f64>]) -> (Vec<usize>, Vec<f64>) {
        let mut acc = vec![0.0; self.n_classes];
        rows.iter()
            .map(|r| {
                self.proba_into(r, &mut acc);
                (tree::argmax(&acc), acc[1.min(self.n_classes - 1)])
            })
            .unzip()
    }

    /// Hard labels for a row-major batch.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| tree::argmax(&self.predict_proba_row(r))).collect()
    }

    /// [`RandomForestClassifier::predict`] with rows chunked over `rt`.
    pub fn predict_with(&self, rt: &Runtime, rows: &[Vec<f64>]) -> Vec<usize> {
        par_rows(rt, rows, |r| tree::argmax(&self.predict_proba_row(r)))
    }

    /// Positive-class scores (class 1) for a row-major batch — AUC input.
    pub fn predict_scores(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_proba_row(r)[1.min(self.n_classes - 1)]).collect()
    }

    /// Mean impurity-decrease feature importances across trees.
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }
}

/// Random forest regressor.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    params: ForestParams,
    seed: u64,
    trees: Vec<DecisionTreeRegressor>,
    importances: Vec<f64>,
}

impl RandomForestRegressor {
    /// Create an unfitted forest.
    pub fn new(params: ForestParams, seed: u64) -> Self {
        Self { params, seed, trees: Vec::new(), importances: Vec::new() }
    }

    /// Fit on column-major features and real targets (single-threaded).
    pub fn fit(&mut self, columns: &[Vec<f64>], y: &[f64]) {
        self.fit_with(&Runtime::new(1), columns, y);
    }

    /// Fit with trees distributed over `rt`; identical output to
    /// [`RandomForestRegressor::fit`] for any thread count.
    pub fn fit_with(&mut self, rt: &Runtime, columns: &[Vec<f64>], y: &[f64]) {
        let n = y.len();
        let d = columns.len();
        let mut cart = self.params.cart;
        if cart.max_features.is_none() {
            cart.max_features = Some(default_max_features(d, false));
        }
        let n_boot = ((n as f64) * self.params.sample_frac).round().max(1.0) as usize;
        let seed = self.seed;
        let binned = BinnedMatrix::build(columns, MAX_BINS_LIMIT);
        self.trees = rt.par_map_indexed((0..self.params.n_trees).collect(), |_, t| {
            let mut rng = StdRng::stream(seed, t as u64);
            let rows: Vec<usize> = (0..n_boot).map(|_| rng.gen_range(0..n)).collect();
            let mut tree = DecisionTreeRegressor::new(cart, seed.wrapping_add(t as u64 + 1));
            tree.fit_binned(&binned, y, rows);
            tree
        });
        self.importances = vec![0.0; d];
        for tree in &self.trees {
            for (acc, imp) in self.importances.iter_mut().zip(tree.feature_importances()) {
                *acc += imp / self.params.n_trees as f64;
            }
        }
    }

    /// Mean prediction for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "fit first");
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predictions for a row-major batch.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// [`RandomForestRegressor::predict`] with rows chunked over `rt`.
    pub fn predict_with(&self, rt: &Runtime, rows: &[Vec<f64>]) -> Vec<f64> {
        par_rows(rt, rows, |r| self.predict_row(r))
    }

    /// Mean impurity-decrease feature importances across trees.
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }
}

/// Map `f` over rows in contiguous chunks, one chunk per runtime lane,
/// preserving row order. Prediction has no RNG, so chunking is free to vary
/// with the thread count without affecting the output.
pub(crate) fn par_rows<T, U, F>(rt: &Runtime, rows: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if rt.threads() == 1 || rows.len() <= 1 {
        return rows.iter().map(&f).collect();
    }
    let chunk = rows.len().div_ceil(rt.threads());
    let parts: Vec<&[T]> = rows.chunks(chunk).collect();
    rt.par_map(parts, |part| part.iter().map(&f).collect::<Vec<U>>())
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx;

    #[test]
    fn forest_learns_xor_better_than_chance() {
        let mut rng = rngx::rng(1);
        let n = 600;
        let a = rngx::normal_vec(&mut rng, n);
        let b = rngx::normal_vec(&mut rng, n);
        let y: Vec<usize> =
            a.iter().zip(&b).map(|(&x, &z)| usize::from((x > 0.0) != (z > 0.0))).collect();
        let cols = vec![a.clone(), b.clone()];
        let mut f = RandomForestClassifier::new(ForestParams::default(), 7);
        f.fit(&cols, &y, 2);
        // Fresh test sample from the same distribution.
        let ta = rngx::normal_vec(&mut rng, 200);
        let tb = rngx::normal_vec(&mut rng, 200);
        let ty: Vec<usize> =
            ta.iter().zip(&tb).map(|(&x, &z)| usize::from((x > 0.0) != (z > 0.0))).collect();
        let rows: Vec<Vec<f64>> = ta.iter().zip(&tb).map(|(&x, &z)| vec![x, z]).collect();
        let acc = fastft_tabular::metrics::accuracy(&ty, &f.predict(&rows));
        assert!(acc > 0.85, "test accuracy {acc}");
    }

    #[test]
    fn forest_proba_is_distribution() {
        let cols = vec![vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]];
        let y = vec![0, 0, 0, 1, 1, 1];
        let mut f = RandomForestClassifier::new(ForestParams::default(), 1);
        f.fit(&cols, &y, 2);
        let p = f.predict_proba_row(&[2.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn forest_deterministic_per_seed() {
        let cols = vec![(0..50).map(|i| (i % 7) as f64).collect::<Vec<_>>()];
        let y: Vec<usize> = (0..50).map(|i| i % 2).collect();
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 7) as f64]).collect();
        let mut a = RandomForestClassifier::new(ForestParams::default(), 42);
        a.fit(&cols, &y, 2);
        let mut b = RandomForestClassifier::new(ForestParams::default(), 42);
        b.fit(&cols, &y, 2);
        assert_eq!(a.predict(&rows), b.predict(&rows));
    }

    #[test]
    fn fit_identical_across_thread_counts() {
        let mut rng = rngx::rng(9);
        let a = rngx::normal_vec(&mut rng, 200);
        let b = rngx::normal_vec(&mut rng, 200);
        let y: Vec<usize> = a.iter().map(|&v| usize::from(v > 0.0)).collect();
        let cols = vec![a.clone(), b.clone()];
        let rows: Vec<Vec<f64>> = a.iter().zip(&b).map(|(&x, &z)| vec![x, z]).collect();
        let rt1 = Runtime::new(1);
        let rt4 = Runtime::new(4);
        // Determinism contract: the fitted ensemble is byte-identical for a given
        // seed at any worker count.
        let params = ForestParams::default();
        let mut f1 = RandomForestClassifier::new(params, 11);
        f1.fit_with(&rt1, &cols, &y, 2);
        let mut f4 = RandomForestClassifier::new(params, 11);
        f4.fit_with(&rt4, &cols, &y, 2);
        assert_eq!(f1.predict(&rows), f4.predict_with(&rt4, &rows));
        assert_eq!(f1.feature_importances(), f4.feature_importances());
        let yr: Vec<f64> = a.iter().map(|v| v * v).collect();
        let mut r1 = RandomForestRegressor::new(params, 11);
        r1.fit_with(&rt1, &cols, &yr);
        let mut r4 = RandomForestRegressor::new(params, 11);
        r4.fit_with(&rt4, &cols, &yr);
        assert_eq!(r1.predict(&rows), r4.predict_with(&rt4, &rows));
    }

    #[test]
    fn regressor_forest_fits_quadratic() {
        let mut rng = rngx::rng(2);
        let x = rngx::normal_vec(&mut rng, 500);
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        let cols = vec![x.clone()];
        let mut f = RandomForestRegressor::new(ForestParams::default(), 3);
        f.fit(&cols, &y);
        // Check a few in-range points.
        for v in [-1.5, -0.5, 0.5, 1.5] {
            let p = f.predict_row(&[v]);
            assert!((p - v * v).abs() < 0.5, "f({v}) = {p}");
        }
    }

    #[test]
    fn importances_normalised() {
        let mut rng = rngx::rng(4);
        let a = rngx::normal_vec(&mut rng, 200);
        let b = rngx::normal_vec(&mut rng, 200);
        let y: Vec<usize> = a.iter().map(|&v| usize::from(v > 0.0)).collect();
        let cols = vec![a, b];
        let mut f = RandomForestClassifier::new(ForestParams::default(), 5);
        f.fit(&cols, &y, 2);
        let s: f64 = f.feature_importances().iter().sum();
        assert!((s - 1.0).abs() < 1e-6, "sum {s}");
        assert!(f.feature_importances()[0] > f.feature_importances()[1]);
    }

    #[test]
    fn one_pass_prediction_matches_separate_passes() {
        let mut rng = rngx::rng(8);
        let cols: Vec<Vec<f64>> = (0..4).map(|_| rngx::normal_vec(&mut rng, 200)).collect();
        let y: Vec<usize> = (0..200).map(|i| usize::from(cols[0][i] * cols[1][i] > 0.0)).collect();
        let rows: Vec<Vec<f64>> = (0..200).map(|i| cols.iter().map(|c| c[i]).collect()).collect();
        let mut f = RandomForestClassifier::new(ForestParams::default(), 3);
        f.fit(&cols, &y, 2);
        let (labels, scores) = f.predict_with_scores(&rows);
        assert_eq!(labels, f.predict(&rows));
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&f.predict_scores(&rows)));
        let mut t = DecisionTreeClassifier::new(CartParams::default(), 3);
        t.fit(&cols, &y, 2);
        let (labels, scores) = t.predict_with_scores(&rows);
        assert_eq!(labels, t.predict(&rows));
        let separate: Vec<f64> = rows.iter().map(|r| t.predict_proba_row(r)[1]).collect();
        assert_eq!(bits(&scores), bits(&separate));
    }

    #[test]
    fn scores_order_matches_labels() {
        let cols = vec![(0..100).map(|i| i as f64).collect::<Vec<_>>()];
        let y: Vec<usize> = (0..100).map(|i| usize::from(i >= 90)).collect();
        let mut f = RandomForestClassifier::new(ForestParams::default(), 6);
        f.fit(&cols, &y, 2);
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let scores = f.predict_scores(&rows);
        let auc = fastft_tabular::metrics::auc(&y, &scores);
        assert!(auc > 0.95, "auc {auc}");
    }
}
