//! OpenFE baseline (§V baseline 8): feature boosting with two-stage pruning
//! (Zhang et al., ICML 2023).
//!
//! Control flow mirrors the original tool: (1) **enumerate** every
//! first-order candidate — all unary ops over all features and all binary
//! ops over all feature pairs, `|O_u|·d + |O_b|·d²` of them (capped, with
//! random subsampling beyond the cap); (2) **stage 1** — successive halving
//! where each round scores the surviving candidates on a *doubling* data
//! subsample and keeps the better half; (3) **stage 2** — the final
//! survivors are evaluated with the real downstream task in small groups,
//! keeping only group additions that improve the score.
//!
//! Because stage 1 touches every candidate on progressively larger slices
//! of the full dataset, OpenFE's runtime grows with both `d²` and `n` —
//! the scalability bottleneck the paper's Fig. 10 demonstrates.

use crate::common::{FeatureTransformMethod, RunContext, RunScope, TransformOutcome};
use fastft_core::{Expr, FeatureSet, Op};
use fastft_tabular::stats::nan_last_cmp;
use fastft_tabular::{mi, rngx, Dataset, FastFtResult};

/// Feature boosting + two-stage pruning.
#[derive(Debug, Clone, Copy)]
pub struct OpenFe {
    /// Hard cap on the enumerated candidate pool (the real tool enumerates
    /// everything; the cap keeps worst-case laptop runs bounded).
    pub pool_cap: usize,
    /// Initial stage-1 subsample size (doubles every halving round).
    pub stage1_initial_rows: usize,
    /// Survivors entering stage 2.
    pub stage2_survivors: usize,
    /// Survivors evaluated per stage-2 group.
    pub group_size: usize,
    /// Feature cap.
    pub max_features_factor: f64,
}

impl Default for OpenFe {
    fn default() -> Self {
        OpenFe {
            pool_cap: 4096,
            stage1_initial_rows: 128,
            stage2_survivors: 16,
            group_size: 2,
            max_features_factor: 2.0,
        }
    }
}

impl FeatureTransformMethod for OpenFe {
    fn name(&self) -> &'static str {
        "OpenFE"
    }

    fn run(&self, data: &Dataset, ctx: &RunContext) -> FastFtResult<TransformOutcome> {
        let mut scope = RunScope::start();
        let mut rng = rngx::rng(ctx.seed);
        let d = data.n_features();
        let n = data.n_rows();
        let cap = (((d as f64) * self.max_features_factor) as usize).max(4);
        let fs = FeatureSet::from_original(data);
        let base_cols = fs.base_columns().to_vec();

        // --- full first-order enumeration -------------------------------
        let mut candidates: Vec<Expr> = Vec::new();
        for op in Op::unary() {
            for i in 0..d {
                candidates.push(Expr::unary(op, Expr::base(i)));
            }
        }
        for op in Op::binary() {
            for i in 0..d {
                // Commutative ops need each unordered pair once.
                let start = if matches!(op, Op::Plus | Op::Multiply) { i } else { 0 };
                for j in start..d {
                    if i == j && matches!(op, Op::Minus | Op::Divide) {
                        continue;
                    }
                    candidates.push(Expr::binary(op, Expr::base(i), Expr::base(j)));
                }
            }
        }
        if candidates.len() > self.pool_cap {
            // Random subsample beyond the cap (partial Fisher–Yates).
            for i in 0..self.pool_cap {
                let j = rng.gen_range(i..candidates.len());
                candidates.swap(i, j);
            }
            candidates.truncate(self.pool_cap);
        }

        // --- stage 1: successive halving on doubling subsamples ---------
        let discrete = data.task.is_discrete();
        let mut rows = self.stage1_initial_rows.min(n);
        let mut pool: Vec<Expr> = candidates;
        while pool.len() > self.stage2_survivors {
            let sub = rngx::sample_without_replacement(&mut rng, n, rows);
            let sub_targets: Vec<f64> = sub.iter().map(|&i| data.targets[i]).collect();
            let mut scored: Vec<(f64, Expr)> = pool
                .into_iter()
                .map(|e| {
                    // Evaluate the candidate on the subsample only — but the
                    // expression itself is computed over those rows of the
                    // full columns, which is what makes stage 1 scale with n
                    // as the rounds progress.
                    let sub_base: Vec<Vec<f64>> =
                        base_cols.iter().map(|c| sub.iter().map(|&i| c[i]).collect()).collect();
                    let mut col = e.eval(&sub_base);
                    fastft_core::transform::sanitize_column(&mut col);
                    let gain = mi::mi_feature_target(&col, &sub_targets, discrete, 10);
                    (gain, e)
                })
                .collect();
            // Descending gain, NaN last.
            scored.sort_by(|a, b| nan_last_cmp(&-a.0, &-b.0));
            let keep = (scored.len() / 2).max(self.stage2_survivors);
            scored.truncate(keep);
            pool = scored.into_iter().map(|(_, e)| e).collect();
            if rows == n {
                break;
            }
            rows = (rows * 2).min(n);
        }
        pool.truncate(self.stage2_survivors);

        // --- stage 2: grouped downstream evaluation ---------------------
        let mut fs = fs;
        let mut best = scope.evaluate(ctx, &fs.data)?;
        for group in pool.chunks(self.group_size) {
            let snapshot = fs.clone();
            for e in group {
                crate::common::try_add_expr(&mut fs, e.clone());
            }
            fs.select_top(cap, 12);
            let score = scope.evaluate(ctx, &fs.data)?;
            if score > best {
                best = score;
            } else {
                fs = snapshot;
            }
        }
        Ok(scope.finish(self.name(), fs, best, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_ml::Evaluator;
    use fastft_runtime::Runtime;
    use fastft_tabular::datagen;

    #[test]
    fn openfe_runs_and_never_regresses() {
        let spec = datagen::by_name("pima_indian").unwrap();
        let mut d = datagen::generate_capped(spec, 200, 0);
        d.sanitize();
        let ev = Evaluator { folds: 3, ..Evaluator::default() };
        let rt = Runtime::new(1);
        let base = ev.evaluate(&d).unwrap();
        let r = OpenFe { stage2_survivors: 6, ..OpenFe::default() }
            .run(&d, &RunContext::new(&ev, &rt, 1))
            .unwrap();
        assert!(r.score >= base);
        // base + one per stage-2 group (6 survivors / group 2 = 3 groups).
        assert_eq!(r.downstream_evals, 4);
        assert!(r.dataset().n_features() <= 16);
    }

    #[test]
    fn enumeration_scales_with_feature_pairs() {
        // On an 8-feature dataset the full enumeration is 8·8 unary +
        // 2·(8·9/2) + 2·(8·8−8) binary-ish candidates; the method should run
        // the halving rounds without blowing up.
        let spec = datagen::by_name("pima_indian").unwrap();
        let mut d = datagen::generate_capped(spec, 300, 2);
        d.sanitize();
        let ev = Evaluator { folds: 3, ..Evaluator::default() };
        let rt = Runtime::new(1);
        let r = OpenFe::default().run(&d, &RunContext::new(&ev, &rt, 3)).unwrap();
        assert!(r.score.is_finite());
        assert!(r.wall_time_secs > 0.0);
    }

    #[test]
    fn stage1_keeps_planted_crossing_often() {
        // The generator plants product/ratio interactions; the survivors
        // should usually include non-base expressions in the final set.
        let spec = datagen::by_name("pima_indian").unwrap();
        let mut d = datagen::generate_capped(spec, 300, 4);
        d.sanitize();
        let ev = Evaluator { folds: 3, ..Evaluator::default() };
        let rt = Runtime::new(1);
        let r = OpenFe::default().run(&d, &RunContext::new(&ev, &rt, 5)).unwrap();
        // Either some crossing was kept, or every group was rejected — both
        // are legal outcomes; the score must never drop below base.
        assert!(r.score >= ev.evaluate(&d).unwrap() - 1e-12);
    }
}
