//! Missing-value imputation.
//!
//! Real tabular files carry missing cells; loaders can mark them as `NaN`
//! and impute here before transformation (`Dataset::sanitize` would
//! otherwise zero them, which biases columns whose support excludes 0).

use crate::dataset::Dataset;
use crate::stats::percentile_sorted;

/// Statistic used to fill missing values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImputeStrategy {
    /// Column mean of the observed values.
    Mean,
    /// Column median of the observed values.
    Median,
}

/// Replace every non-finite feature value with the column statistic computed
/// over the finite values. Columns with no finite values become all-zero.
/// Returns the number of cells imputed.
pub fn impute(data: &mut Dataset, strategy: ImputeStrategy) -> usize {
    let mut filled = 0;
    for col in &mut data.features {
        let finite: Vec<f64> = col.values.iter().copied().filter(|v| v.is_finite()).collect();
        let fill = if finite.is_empty() {
            0.0
        } else {
            match strategy {
                ImputeStrategy::Mean => finite.iter().sum::<f64>() / finite.len() as f64,
                ImputeStrategy::Median => {
                    let mut sorted = finite;
                    sorted.sort_by(f64::total_cmp);
                    percentile_sorted(&sorted, 0.5)
                }
            }
        };
        for v in &mut col.values {
            if !v.is_finite() {
                *v = fill;
                filled += 1;
            }
        }
    }
    filled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Column, TaskType};

    fn with_gaps() -> Dataset {
        Dataset::new(
            "gaps",
            vec![
                Column::new("a", vec![1.0, f64::NAN, 3.0, f64::NAN, 10.0]),
                Column::new("b", vec![5.0, 5.0, 5.0, 5.0, 5.0]),
            ],
            vec![0.0, 1.0, 0.0, 1.0, 0.0],
            TaskType::Classification,
            2,
        )
        .unwrap()
    }

    #[test]
    fn median_impute_fills_with_median() {
        let mut d = with_gaps();
        let filled = impute(&mut d, ImputeStrategy::Median);
        assert_eq!(filled, 2);
        // Median of {1, 3, 10} = 3.
        assert_eq!(d.features[0].values[1], 3.0);
        assert_eq!(d.features[0].values[3], 3.0);
        assert!(d.features.iter().all(Column::is_finite));
    }

    #[test]
    fn mean_impute_fills_with_mean() {
        let mut d = with_gaps();
        impute(&mut d, ImputeStrategy::Mean);
        let mean = (1.0 + 3.0 + 10.0) / 3.0;
        assert!((d.features[0].values[1] - mean).abs() < 1e-12);
    }

    #[test]
    fn all_missing_column_becomes_zero() {
        let mut d = Dataset::new(
            "z",
            vec![Column::new("a", vec![f64::NAN, f64::INFINITY])],
            vec![0.0, 1.0],
            TaskType::Classification,
            2,
        )
        .unwrap();
        let filled = impute(&mut d, ImputeStrategy::Median);
        assert_eq!(filled, 2);
        assert_eq!(d.features[0].values, vec![0.0, 0.0]);
    }

    #[test]
    fn clean_data_untouched() {
        let mut d = with_gaps();
        impute(&mut d, ImputeStrategy::Median);
        let before = d.clone();
        let filled = impute(&mut d, ImputeStrategy::Median);
        assert_eq!(filled, 0);
        assert_eq!(d, before);
    }
}
