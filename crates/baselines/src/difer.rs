//! DIFER baseline (§V baseline 7): differentiable feature search in a
//! learned continuous space (Zhu et al., AutoML 2022).
//!
//! DIFER embeds transformation sequences, learns a performance predictor
//! over the embedding, and greedily searches the space. Our CPU-scale
//! version follows the same control flow: an LSTM predictor (the
//! workspace's [`PerformancePredictor`]) scores candidate expressions;
//! candidates are generated by mutating the current elite pool; only the
//! predictor-ranked top survivors are evaluated downstream.

use crate::common::{
    random_expr, try_add_expr, FeatureTransformMethod, RunContext, RunScope, TransformOutcome,
};
use fastft_core::predictor::{PerformancePredictor, PredictorConfig};
use fastft_core::sequence::{encode_feature_set, TokenVocab};
use fastft_core::{Expr, FeatureSet, Op};
use fastft_tabular::rngx::{self, StdRng};
use fastft_tabular::stats::nan_last_cmp;
use fastft_tabular::{Dataset, FastFtResult};

/// Embedding-space greedy feature search.
#[derive(Debug, Clone, Copy)]
pub struct Difer {
    /// Search rounds (each evaluates one survivor set downstream).
    pub rounds: usize,
    /// Candidate expressions scored by the predictor per round.
    pub candidates_per_round: usize,
    /// Survivors added per round.
    pub survivors: usize,
    /// Feature cap.
    pub max_features_factor: f64,
}

impl Default for Difer {
    fn default() -> Self {
        Difer { rounds: 5, candidates_per_round: 24, survivors: 4, max_features_factor: 2.0 }
    }
}

impl FeatureTransformMethod for Difer {
    fn name(&self) -> &'static str {
        "DIFER"
    }

    fn run(&self, data: &Dataset, ctx: &RunContext) -> FastFtResult<TransformOutcome> {
        let mut scope = RunScope::start();
        let mut rng = rngx::rng(ctx.seed);
        let d = data.n_features();
        let cap = (((d as f64) * self.max_features_factor) as usize).max(4);
        let vocab = TokenVocab::new(d);
        let mut predictor = PerformancePredictor::new(
            vocab.size(),
            PredictorConfig { dim: 16, lr: 5e-3, ..PredictorConfig::default() },
            ctx.seed,
        );
        let mut fs = FeatureSet::from_original(data);
        let base = scope.evaluate(ctx, &fs.data)?;
        let mut best = (base, fs.clone());
        let mut prev = base;
        for _ in 0..self.rounds {
            // Generate candidates: mutations of current expressions.
            let mut cands: Vec<Expr> = Vec::with_capacity(self.candidates_per_round);
            for _ in 0..self.candidates_per_round {
                cands.push(mutate(&fs.exprs, &mut rng));
            }
            // Rank by predicted score of the feature set with the candidate
            // appended.
            let mut ranked: Vec<(f64, Expr)> = cands
                .into_iter()
                .map(|e| {
                    let mut exprs = fs.exprs.clone();
                    exprs.push(e.clone());
                    let seq = encode_feature_set(&exprs, &vocab, 128);
                    (predictor.predict(&seq), e)
                })
                .collect();
            // Descending predicted score, NaN last.
            ranked.sort_by(|a, b| nan_last_cmp(&-a.0, &-b.0));
            for (_, e) in ranked.into_iter().take(self.survivors) {
                try_add_expr(&mut fs, e);
            }
            fs.select_top(cap, 12);
            let score = scope.evaluate(ctx, &fs.data)?;
            // Train the predictor on the realised outcome.
            let seq = encode_feature_set(&fs.exprs, &vocab, 128);
            for _ in 0..4 {
                predictor.train_step(&seq, score);
            }
            if score > best.0 {
                best = (score, fs.clone());
            } else if score < prev - 0.02 {
                // Greedy search stalled; restart from the best pool.
                fs = best.1.clone();
            }
            prev = score;
        }
        Ok(scope.finish(self.name(), best.1, best.0, 0.0))
    }
}

/// Mutate the expression pool: either a fresh random crossing or an op swap
/// on an existing generated expression.
fn mutate(exprs: &[Expr], rng: &mut StdRng) -> Expr {
    if rng.gen::<f64>() < 0.5 {
        random_expr(exprs, rng)
    } else {
        match exprs[rng.gen_range(0..exprs.len())].clone() {
            Expr::Unary(_, inner) => {
                let ops: Vec<Op> = Op::unary().collect();
                Expr::unary(ops[rng.gen_range(0..ops.len())], *inner)
            }
            Expr::Binary(_, l, r) => {
                let ops: Vec<Op> = Op::binary().collect();
                Expr::binary(ops[rng.gen_range(0..ops.len())], *l, *r)
            }
            base => {
                let ops: Vec<Op> = Op::unary().collect();
                Expr::unary(ops[rng.gen_range(0..ops.len())], base)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::datagen;

    #[test]
    fn difer_runs_and_never_regresses() {
        let spec = datagen::by_name("pima_indian").unwrap();
        let mut d = datagen::generate_capped(spec, 150, 0);
        d.sanitize();
        let ev = fastft_ml::Evaluator { folds: 3, ..fastft_ml::Evaluator::default() };
        let rt = fastft_runtime::Runtime::new(1);
        let base = ev.evaluate(&d).unwrap();
        let r =
            Difer { rounds: 2, ..Difer::default() }.run(&d, &RunContext::new(&ev, &rt, 1)).unwrap();
        assert!(r.score >= base);
        assert_eq!(r.downstream_evals, 3);
    }

    #[test]
    fn mutate_produces_valid_exprs() {
        let mut rng = rngx::rng(3);
        let pool = vec![Expr::base(0), Expr::unary(Op::Log, Expr::base(1))];
        for _ in 0..50 {
            let e = mutate(&pool, &mut rng);
            assert!(e.size() >= 1);
            assert!(e.base_features().iter().all(|&i| i < 2));
        }
    }
}
