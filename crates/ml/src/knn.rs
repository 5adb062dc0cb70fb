//! Brute-force k-nearest-neighbours (standardised Euclidean metric).

use crate::preprocess::Standardizer;
use crate::tree::argmax;
use fastft_tabular::stats::nan_last_cmp;

/// kNN classifier / regressor over standardised features.
#[derive(Debug, Clone)]
pub struct Knn {
    /// Number of neighbours.
    pub k: usize,
    train: Vec<Vec<f64>>,
    targets: Vec<f64>,
    scaler: Option<Standardizer>,
    n_classes: usize,
}

impl Knn {
    /// Create with neighbour count `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self { k, train: Vec::new(), targets: Vec::new(), scaler: None, n_classes: 0 }
    }

    /// Fit = memorise the (standardised) training set. For classification
    /// pass labels as `f64` class indices and the class count; for
    /// regression pass `n_classes = 0`.
    pub fn fit(&mut self, columns: &[Vec<f64>], targets: &[f64], n_classes: usize) {
        let n = targets.len();
        let scaler = Standardizer::fit(columns);
        self.train = (0..n)
            .map(|i| {
                let mut r: Vec<f64> = columns.iter().map(|c| c[i]).collect();
                scaler.transform_row(&mut r);
                r
            })
            .collect();
        self.targets = targets.to_vec();
        self.scaler = Some(scaler);
        self.n_classes = n_classes;
    }

    fn neighbours(&self, row: &[f64]) -> Vec<usize> {
        let scaler = self.scaler.as_ref().expect("fit first");
        let mut r = row.to_vec();
        scaler.transform_row(&mut r);
        let mut dist: Vec<(f64, usize)> = self
            .train
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let d: f64 = t.iter().zip(&r).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, i)
            })
            .collect();
        let k = self.k.min(dist.len());
        dist.select_nth_unstable_by(k - 1, |a, b| nan_last_cmp(&a.0, &b.0));
        dist[..k].iter().map(|&(_, i)| i).collect()
    }

    /// Class-vote distribution for one row (classification fit required).
    pub fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        assert!(self.n_classes >= 2, "classification fit required");
        let nb = self.neighbours(row);
        let mut votes = vec![0.0; self.n_classes];
        for &i in &nb {
            votes[self.targets[i] as usize] += 1.0;
        }
        let inv = 1.0 / nb.len() as f64;
        for v in &mut votes {
            *v *= inv;
        }
        votes
    }

    /// Hard labels for a row-major batch (classification).
    pub fn predict_class(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| argmax(&self.predict_proba_row(r))).collect()
    }

    /// Mean-of-neighbours predictions (regression).
    pub fn predict_value(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter()
            .map(|r| {
                let nb = self.neighbours(r);
                nb.iter().map(|&i| self.targets[i]).sum::<f64>() / nb.len() as f64
            })
            .collect()
    }

    /// Positive-class vote fractions for AUC.
    pub fn predict_scores(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let c = 1.min(self.n_classes.saturating_sub(1));
        rows.iter().map(|r| self.predict_proba_row(r)[c]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_classifies_clusters() {
        let cols = vec![vec![0.0, 0.1, 0.2, 5.0, 5.1, 5.2]];
        let y = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut m = Knn::new(3);
        m.fit(&cols, &y, 2);
        assert_eq!(m.predict_class(&[vec![0.05], vec![5.05]]), vec![0, 1]);
    }

    #[test]
    fn knn_regression_averages() {
        let cols = vec![vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]];
        let y = vec![1.0, 1.0, 1.0, 7.0, 7.0, 7.0];
        let mut m = Knn::new(3);
        m.fit(&cols, &y, 0);
        let pred = m.predict_value(&[vec![1.0], vec![11.0]]);
        assert!((pred[0] - 1.0).abs() < 1e-9);
        assert!((pred[1] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn knn_k_larger_than_train_is_clamped() {
        let cols = vec![vec![0.0, 1.0]];
        let y = vec![0.0, 1.0];
        let mut m = Knn::new(10);
        m.fit(&cols, &y, 2);
        let p = m.predict_proba_row(&[0.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn knn_proba_reflects_votes() {
        let cols = vec![vec![0.0, 0.0, 0.0, 0.1]];
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let mut m = Knn::new(4);
        m.fit(&cols, &y, 2);
        let p = m.predict_proba_row(&[0.0]);
        assert!((p[0] - 0.5).abs() < 1e-9);
        assert!((p[1] - 0.5).abs() < 1e-9);
    }
}
