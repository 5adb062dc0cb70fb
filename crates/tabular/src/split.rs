//! K-fold splitting.
//!
//! The paper evaluates with five-fold cross-validation at a 4:1 train:test
//! ratio (§V "Hyperparameter and Reproducibility").

use crate::rngx;

/// A deterministic k-fold splitter over row indices.
#[derive(Debug, Clone)]
pub struct KFold {
    folds: Vec<Vec<usize>>,
}

impl KFold {
    /// Shuffle `n` rows with `seed` and slice them into `k` contiguous folds
    /// of near-equal size.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(k >= 2, "need at least 2 folds");
        assert!(n >= k, "need at least one row per fold (n={n}, k={k})");
        let mut rng = rngx::rng(seed);
        let idx = rngx::shuffled_indices(&mut rng, n);
        let mut folds = Vec::with_capacity(k);
        let base = n / k;
        let extra = n % k;
        let mut start = 0;
        for f in 0..k {
            let len = base + usize::from(f < extra);
            folds.push(idx[start..start + len].to_vec());
            start += len;
        }
        Self { folds }
    }

    /// Stratified variant: class proportions are preserved per fold. Only
    /// meaningful for discrete targets.
    pub fn stratified(labels: &[usize], k: usize, seed: u64) -> Self {
        assert!(k >= 2);
        let n = labels.len();
        assert!(n >= k);
        let mut rng = rngx::rng(seed);
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
        for (i, &y) in labels.iter().enumerate() {
            per_class[y].push(i);
        }
        let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
        for bucket in &mut per_class {
            // Shuffle within class, then deal round-robin across folds.
            for i in (1..bucket.len()).rev() {
                let j = rng.gen_range(0..=i);
                bucket.swap(i, j);
            }
            for (pos, &row) in bucket.iter().enumerate() {
                folds[pos % k].push(row);
            }
        }
        Self { folds }
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.folds.len()
    }

    /// `(train_indices, test_indices)` for fold `f`.
    pub fn fold(&self, f: usize) -> (Vec<usize>, Vec<usize>) {
        assert!(f < self.folds.len());
        let test = self.folds[f].clone();
        let train: Vec<usize> = self
            .folds
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != f)
            .flat_map(|(_, fold)| fold.iter().copied())
            .collect();
        (train, test)
    }

    /// Iterate `(train, test)` index pairs over all folds.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<usize>, Vec<usize>)> + '_ {
        (0..self.k()).map(move |f| self.fold(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_partition_rows() {
        let kf = KFold::new(103, 5, 1);
        let mut all: Vec<usize> = kf.iter().flat_map(|(_, test)| test).collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn train_and_test_disjoint() {
        let kf = KFold::new(50, 5, 2);
        for (train, test) in kf.iter() {
            assert_eq!(train.len() + test.len(), 50);
            for t in &test {
                assert!(!train.contains(t));
            }
        }
    }

    #[test]
    fn five_fold_matches_paper_ratio() {
        let kf = KFold::new(100, 5, 3);
        let (train, test) = kf.fold(0);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
    }

    #[test]
    fn stratified_preserves_proportions() {
        // 80 of class 0, 20 of class 1, 5 folds -> each fold has 16 + 4.
        let mut labels = vec![0usize; 80];
        labels.extend(vec![1usize; 20]);
        let kf = KFold::stratified(&labels, 5, 4);
        for (_, test) in kf.iter() {
            let pos = test.iter().filter(|&&i| labels[i] == 1).count();
            assert_eq!(test.len(), 20);
            assert_eq!(pos, 4);
        }
    }

    #[test]
    fn stratified_partitions_rows() {
        let labels: Vec<usize> = (0..97).map(|i| i % 3).collect();
        let kf = KFold::stratified(&labels, 4, 9);
        let mut all: Vec<usize> = kf.iter().flat_map(|(_, t)| t).collect();
        all.sort_unstable();
        assert_eq!(all, (0..97).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_folds() {
        let a = KFold::new(40, 4, 42);
        let b = KFold::new(40, 4, 42);
        for f in 0..4 {
            assert_eq!(a.fold(f), b.fold(f));
        }
    }
}
