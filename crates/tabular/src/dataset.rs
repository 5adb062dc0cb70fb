//! Column-major tabular dataset with a task-typed target.

use crate::error::{FastFtError, FastFtResult};
use std::fmt;

/// The downstream task family a dataset is labelled for.
///
/// Mirrors the paper's split of the 23 benchmark datasets into 12
/// classification (C), 7 regression (R) and 4 detection (D) tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskType {
    /// Multi-class classification; targets are class indices stored as `f64`.
    Classification,
    /// Real-valued regression targets.
    Regression,
    /// Anomaly / outlier detection: binary targets with a rare positive
    /// class, evaluated by AUC in the paper.
    Detection,
}

impl TaskType {
    /// Single-letter code used in the paper's Table I ("C" / "R" / "D").
    pub fn code(self) -> char {
        match self {
            TaskType::Classification => 'C',
            TaskType::Regression => 'R',
            TaskType::Detection => 'D',
        }
    }

    /// Whether targets are discrete class indices.
    pub fn is_discrete(self) -> bool {
        !matches!(self, TaskType::Regression)
    }
}

impl fmt::Display for TaskType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskType::Classification => write!(f, "classification"),
            TaskType::Regression => write!(f, "regression"),
            TaskType::Detection => write!(f, "detection"),
        }
    }
}

/// A single named feature column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Human-readable feature name. For generated features this is the
    /// traceable expression string (e.g. `(f3*f9+1)*f4`).
    pub name: String,
    /// One value per sample (row).
    pub values: Vec<f64>,
}

impl Column {
    /// Create a column from a name and values.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column { name: name.into(), values }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True when every value is finite (no NaN / ±inf).
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

/// A column-major dataset `D = <F, y>` (Definition 2 in the paper).
///
/// Features are stored as whole columns because every consumer in this
/// workspace — mutual information, clustering, per-feature statistics, tree
/// split search, feature transformation itself — operates column-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset name (for reporting).
    pub name: String,
    /// Feature columns; all must share the same length.
    pub features: Vec<Column>,
    /// Target vector; class indices stored as `f64` for discrete tasks.
    pub targets: Vec<f64>,
    /// Task family.
    pub task: TaskType,
    /// Number of classes for discrete tasks (`0` for regression).
    pub n_classes: usize,
}

impl Dataset {
    /// Build a dataset, validating that all columns and the target share one
    /// length and that discrete targets are in-range class indices.
    pub fn new(
        name: impl Into<String>,
        features: Vec<Column>,
        targets: Vec<f64>,
        task: TaskType,
        n_classes: usize,
    ) -> FastFtResult<Self> {
        let n = targets.len();
        for c in &features {
            if c.values.len() != n {
                return Err(FastFtError::InvalidData(format!(
                    "column `{}` has {} rows but target has {}",
                    c.name,
                    c.values.len(),
                    n
                )));
            }
        }
        if task.is_discrete() {
            if n_classes < 2 {
                return Err(FastFtError::InvalidData(format!(
                    "discrete task needs >=2 classes, got {n_classes}"
                )));
            }
            for (i, &y) in targets.iter().enumerate() {
                if y.fract() != 0.0 || y < 0.0 || y as usize >= n_classes {
                    return Err(FastFtError::InvalidData(format!(
                        "row {i}: target {y} is not a class index < {n_classes}"
                    )));
                }
            }
        }
        Ok(Dataset { name: name.into(), features, targets, task, n_classes })
    }

    /// Number of samples (rows).
    pub fn n_rows(&self) -> usize {
        self.targets.len()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// `rows × cols`, the dataset "size" used in the paper's Table II.
    pub fn size(&self) -> usize {
        self.n_rows() * self.n_features()
    }

    /// Integer class labels for discrete tasks.
    ///
    /// # Panics
    /// Panics if the task is regression.
    pub fn class_labels(&self) -> Vec<usize> {
        assert!(self.task.is_discrete(), "class_labels on a regression dataset");
        self.targets.iter().map(|&y| y as usize).collect()
    }

    /// Materialise one row as a dense vector (feature order).
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.features.iter().map(|c| c.values[i]).collect()
    }

    /// A new dataset containing only the given row indices (feature columns
    /// and targets are gathered; name and task metadata are kept).
    pub fn select_rows(&self, idx: &[usize]) -> Dataset {
        let features = self
            .features
            .iter()
            .map(|c| Column {
                name: c.name.clone(),
                values: idx.iter().map(|&i| c.values[i]).collect(),
            })
            .collect();
        let targets = idx.iter().map(|&i| self.targets[i]).collect();
        Dataset {
            name: self.name.clone(),
            features,
            targets,
            task: self.task,
            n_classes: self.n_classes,
        }
    }

    /// A new dataset containing only the given feature columns (by index).
    pub fn select_features(&self, idx: &[usize]) -> Dataset {
        Dataset {
            name: self.name.clone(),
            features: idx.iter().map(|&j| self.features[j].clone()).collect(),
            targets: self.targets.clone(),
            task: self.task,
            n_classes: self.n_classes,
        }
    }

    /// Replace the feature set, keeping targets/metadata. Columns must match
    /// the row count.
    pub fn with_features(&self, features: Vec<Column>) -> FastFtResult<Dataset> {
        Dataset::new(self.name.clone(), features, self.targets.clone(), self.task, self.n_classes)
    }

    /// Append a feature column in place.
    ///
    /// # Panics
    /// Panics if the column length differs from the row count.
    pub fn push_feature(&mut self, col: Column) {
        assert_eq!(col.values.len(), self.n_rows(), "column length mismatch");
        self.features.push(col);
    }

    /// Find a feature index by (exact) name.
    pub fn feature_index(&self, name: &str) -> Option<usize> {
        self.features.iter().position(|c| c.name == name)
    }

    /// Clip all feature values into a finite range and replace non-finite
    /// values with 0. Feature transformation (log, divide, exp) can produce
    /// NaN/inf; downstream models require finite input.
    pub fn sanitize(&mut self) {
        const LIM: f64 = 1e12;
        for c in &mut self.features {
            for v in &mut c.values {
                if !v.is_finite() {
                    *v = 0.0;
                } else {
                    *v = v.clamp(-LIM, LIM);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            vec![
                Column::new("a", vec![1.0, 2.0, 3.0, 4.0]),
                Column::new("b", vec![0.5, 0.5, 1.5, 1.5]),
            ],
            vec![0.0, 1.0, 0.0, 1.0],
            TaskType::Classification,
            2,
        )
        .unwrap()
    }

    #[test]
    fn construct_and_shape() {
        let d = toy();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.size(), 8);
        assert_eq!(d.row(2), vec![3.0, 1.5]);
    }

    #[test]
    fn rejects_ragged_columns() {
        let err = Dataset::new(
            "bad",
            vec![Column::new("a", vec![1.0, 2.0])],
            vec![0.0, 1.0, 0.0],
            TaskType::Classification,
            2,
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_out_of_range_class() {
        let err = Dataset::new(
            "bad",
            vec![Column::new("a", vec![1.0, 2.0])],
            vec![0.0, 5.0],
            TaskType::Classification,
            2,
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_fractional_class() {
        let err = Dataset::new(
            "bad",
            vec![Column::new("a", vec![1.0, 2.0])],
            vec![0.0, 0.5],
            TaskType::Detection,
            2,
        );
        assert!(err.is_err());
    }

    #[test]
    fn regression_allows_any_targets() {
        let d = Dataset::new(
            "r",
            vec![Column::new("a", vec![1.0, 2.0])],
            vec![-3.25, 7.5],
            TaskType::Regression,
            0,
        );
        assert!(d.is_ok());
    }

    #[test]
    fn select_rows_gathers() {
        let d = toy();
        let s = d.select_rows(&[3, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.features[0].values, vec![4.0, 1.0]);
        assert_eq!(s.targets, vec![1.0, 0.0]);
    }

    #[test]
    fn select_features_keeps_targets() {
        let d = toy();
        let s = d.select_features(&[1]);
        assert_eq!(s.n_features(), 1);
        assert_eq!(s.features[0].name, "b");
        assert_eq!(s.targets, d.targets);
    }

    #[test]
    fn sanitize_replaces_nonfinite() {
        let mut d = toy();
        d.features[0].values[1] = f64::NAN;
        d.features[1].values[0] = f64::INFINITY;
        d.sanitize();
        assert_eq!(d.features[0].values[1], 0.0);
        assert!(d.features[1].values[0].is_finite());
        assert!(d.features.iter().all(Column::is_finite));
    }

    #[test]
    fn task_codes_match_paper() {
        assert_eq!(TaskType::Classification.code(), 'C');
        assert_eq!(TaskType::Regression.code(), 'R');
        assert_eq!(TaskType::Detection.code(), 'D');
    }

    #[test]
    fn feature_index_lookup() {
        let d = toy();
        assert_eq!(d.feature_index("b"), Some(1));
        assert_eq!(d.feature_index("zzz"), None);
    }
}
