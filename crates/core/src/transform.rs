//! Group-wise feature crossing (§III-B) and MI-based feature selection.
//!
//! An exploration step selects `(head cluster, operation[, tail cluster])`;
//! crossing applies the operation to every member (unary) or member pair
//! (binary), appending `|a_h|` or `|a_h| × |a_t|` new columns. To keep the
//! feature space bounded — as the GRFG line this paper builds on does — the
//! set is then truncated to the most label-relevant columns by mutual
//! information.

use crate::expr::Expr;
use crate::ops::Op;
use fastft_tabular::dataset::{Column, Dataset};
use fastft_tabular::mi;
use fastft_tabular::rngx::StdRng;
use fastft_tabular::stats::nan_last_cmp;
use std::collections::HashSet;

/// A working feature set: the current dataset plus one expression per
/// column, tracing every feature back to the original columns.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// Current dataset (columns evolve; targets fixed).
    pub data: Dataset,
    /// Expression of each column over the base features.
    pub exprs: Vec<Expr>,
    /// Base (original) columns, kept for re-evaluation of expressions.
    base: Vec<Vec<f64>>,
}

impl FeatureSet {
    /// Start from an original dataset: every column is its own base
    /// expression.
    pub fn from_original(data: &Dataset) -> Self {
        let exprs = (0..data.n_features()).map(Expr::base).collect();
        let base = data.features.iter().map(|c| c.values.clone()).collect();
        FeatureSet { data: data.clone(), exprs, base }
    }

    /// Number of current features.
    pub fn n_features(&self) -> usize {
        self.data.n_features()
    }

    /// Number of base features.
    pub fn n_base(&self) -> usize {
        self.base.len()
    }

    /// The original (base) columns every expression is defined over.
    pub fn base_columns(&self) -> &[Vec<f64>] {
        &self.base
    }

    /// Canonical strings of current expressions (dedup key set).
    pub fn expr_keys(&self) -> HashSet<String> {
        self.exprs.iter().map(Expr::to_string).collect()
    }

    /// Apply group-wise crossing: generate new `(expr, column)` pairs for
    /// `(head, op[, tail])`, skipping expressions already present, capping
    /// the number of generated features at `max_new` (random subsample of
    /// the member pairs, as the full cross product can explode).
    pub fn cross(
        &self,
        head: &[usize],
        op: Op,
        tail: Option<&[usize]>,
        max_new: usize,
        rng: &mut StdRng,
    ) -> Vec<(Expr, Vec<f64>)> {
        let existing = self.expr_keys();
        let mut candidates: Vec<Expr> = match (op.is_binary(), tail) {
            (false, _) => head.iter().map(|&i| Expr::unary(op, self.exprs[i].clone())).collect(),
            (true, Some(tail)) => {
                let mut v = Vec::with_capacity(head.len() * tail.len());
                for &i in head {
                    for &j in tail {
                        v.push(Expr::binary(op, self.exprs[i].clone(), self.exprs[j].clone()));
                    }
                }
                v
            }
            (true, None) => panic!("binary op {op:?} needs a tail cluster"),
        };
        // Subsample if the cross product is too large.
        if candidates.len() > max_new {
            for i in 0..max_new {
                let j = rng.gen_range(i..candidates.len());
                candidates.swap(i, j);
            }
            candidates.truncate(max_new);
        }
        candidates
            .into_iter()
            .filter(|e| !existing.contains(&e.to_string()))
            .filter_map(|e| {
                let mut col = e.eval(&self.base);
                sanitize_column(&mut col);
                // Constant columns carry no information; skip them.
                let first = col[0];
                if col.iter().all(|&v| v == first) {
                    None
                } else {
                    Some((e, col))
                }
            })
            .collect()
    }

    /// Append generated features to the working set.
    pub fn extend(&mut self, generated: Vec<(Expr, Vec<f64>)>) {
        for (e, col) in generated {
            self.data.push_feature(Column::new(e.to_string(), col));
            self.exprs.push(e);
        }
    }

    /// Truncate to the `max_features` most label-relevant columns (MI with
    /// the target). No-op when already within bounds.
    pub fn select_top(&mut self, max_features: usize, n_bins: usize) {
        if self.n_features() <= max_features {
            return;
        }
        let scores = mi::relevance_scores(&self.data, n_bins);
        // Descending by score, NaN last: ascending on negated scores.
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| nan_last_cmp(&-scores[a], &-scores[b]));
        order.truncate(max_features);
        order.sort_unstable();
        self.data = self.data.select_features(&order);
        self.exprs = order.iter().map(|&i| self.exprs[i].clone()).collect();
    }
}

/// Replace non-finite values and clamp extremes (mirrors
/// `Dataset::sanitize` for a single column).
pub fn sanitize_column(col: &mut [f64]) {
    const LIM: f64 = 1e12;
    for v in col {
        if !v.is_finite() {
            *v = 0.0;
        } else {
            *v = v.clamp(-LIM, LIM);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx;
    use fastft_tabular::TaskType;

    fn toy() -> Dataset {
        let mut rng = rngx::rng(1);
        let n = 200;
        let a = rngx::normal_vec(&mut rng, n);
        let b = rngx::normal_vec(&mut rng, n);
        let c = rngx::normal_vec(&mut rng, n);
        let y: Vec<f64> =
            a.iter().zip(&b).map(|(&x, &z)| f64::from(u8::from(x * z > 0.0))).collect();
        Dataset::new(
            "toy",
            vec![Column::new("f0", a), Column::new("f1", b), Column::new("f2", c)],
            y,
            TaskType::Classification,
            2,
        )
        .unwrap()
    }

    #[test]
    fn from_original_has_base_exprs() {
        let fs = FeatureSet::from_original(&toy());
        assert_eq!(fs.n_features(), 3);
        assert!(fs.exprs.iter().all(Expr::is_base));
    }

    #[test]
    fn unary_cross_size() {
        let fs = FeatureSet::from_original(&toy());
        let mut rng = rngx::rng(2);
        let new = fs.cross(&[0, 1], Op::Square, None, 16, &mut rng);
        assert_eq!(new.len(), 2);
        assert_eq!(new[0].0.to_string(), "sq(f0)");
    }

    #[test]
    fn binary_cross_is_cartesian() {
        let fs = FeatureSet::from_original(&toy());
        let mut rng = rngx::rng(3);
        let new = fs.cross(&[0, 1], Op::Multiply, Some(&[1, 2]), 16, &mut rng);
        // 2 × 2 pairs, all distinct expressions.
        assert_eq!(new.len(), 4);
    }

    #[test]
    fn cross_caps_generation() {
        let fs = FeatureSet::from_original(&toy());
        let mut rng = rngx::rng(4);
        let new = fs.cross(&[0, 1, 2], Op::Plus, Some(&[0, 1, 2]), 4, &mut rng);
        assert!(new.len() <= 4);
    }

    #[test]
    fn cross_skips_duplicates() {
        let mut fs = FeatureSet::from_original(&toy());
        let mut rng = rngx::rng(5);
        let new = fs.cross(&[0], Op::Square, None, 16, &mut rng);
        fs.extend(new);
        let again = fs.cross(&[0], Op::Square, None, 16, &mut rng);
        assert!(again.is_empty(), "duplicate sq(f0) regenerated");
    }

    #[test]
    fn generated_columns_match_expressions() {
        let fs = FeatureSet::from_original(&toy());
        let mut rng = rngx::rng(6);
        let new = fs.cross(&[0], Op::Multiply, Some(&[1]), 16, &mut rng);
        let (e, col) = &new[0];
        let expect: Vec<f64> = fs.data.features[0]
            .values
            .iter()
            .zip(&fs.data.features[1].values)
            .map(|(a, b)| a * b)
            .collect();
        assert_eq!(e.to_string(), "(f0*f1)");
        for (x, y) in col.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn extend_then_select_keeps_informative() {
        let mut fs = FeatureSet::from_original(&toy());
        let mut rng = rngx::rng(7);
        // f0*f1 is the planted signal; it should survive aggressive
        // truncation.
        let new = fs.cross(&[0], Op::Multiply, Some(&[1]), 16, &mut rng);
        fs.extend(new);
        assert_eq!(fs.n_features(), 4);
        fs.select_top(2, 8);
        assert_eq!(fs.n_features(), 2);
        assert!(
            fs.exprs.iter().any(|e| e.to_string() == "(f0*f1)"),
            "informative crossing dropped: {:?}",
            fs.exprs.iter().map(Expr::to_string).collect::<Vec<_>>()
        );
        // Dataset and exprs stay aligned.
        assert_eq!(fs.data.n_features(), fs.exprs.len());
        for (c, e) in fs.data.features.iter().zip(&fs.exprs) {
            assert_eq!(c.name, e.to_string());
        }
    }

    #[test]
    fn composed_expressions_reference_base() {
        let mut fs = FeatureSet::from_original(&toy());
        let mut rng = rngx::rng(8);
        let new = fs.cross(&[0], Op::Multiply, Some(&[1]), 16, &mut rng);
        fs.extend(new);
        // Cross the generated feature (index 3) with a base feature.
        let deeper = fs.cross(&[3], Op::Plus, Some(&[2]), 16, &mut rng);
        assert_eq!(deeper[0].0.to_string(), "((f0*f1)+f2)");
        assert_eq!(deeper[0].0.base_features(), vec![0, 1, 2]);
    }

    #[test]
    fn sanitize_column_fixes_nonfinite() {
        let mut col = vec![1.0, f64::NAN, f64::INFINITY, -1e300];
        sanitize_column(&mut col);
        assert!(col.iter().all(|v| v.is_finite()));
        assert_eq!(col[1], 0.0);
    }

    #[test]
    #[should_panic]
    fn binary_without_tail_panics() {
        let fs = FeatureSet::from_original(&toy());
        let mut rng = rngx::rng(9);
        let _ = fs.cross(&[0], Op::Plus, None, 16, &mut rng);
    }
}
