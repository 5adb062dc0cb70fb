//! TTG baseline (§V baseline 6): transformation-graph exploration in the
//! style of Khurana et al. — nodes are feature sets, edges apply one
//! operation set-wide, and a best-first search with an evaluation budget
//! walks the graph.

use crate::common::{FeatureTransformMethod, RunContext, RunScope, TransformOutcome};
use fastft_core::{Expr, FeatureSet, Op};
use fastft_tabular::rngx::{self, StdRng};
use fastft_tabular::stats::nan_last_cmp;
use fastft_tabular::{Dataset, FastFtResult};

/// Transformation-graph search baseline.
#[derive(Debug, Clone, Copy)]
pub struct Ttg {
    /// Node-expansion budget (each expansion evaluates its children).
    pub expansions: usize,
    /// Operations tried per expansion.
    pub ops_per_expansion: usize,
    /// Feature cap.
    pub max_features_factor: f64,
}

impl Default for Ttg {
    fn default() -> Self {
        Ttg { expansions: 4, ops_per_expansion: 3, max_features_factor: 2.0 }
    }
}

impl FeatureTransformMethod for Ttg {
    fn name(&self) -> &'static str {
        "TTG"
    }

    fn run(&self, data: &Dataset, ctx: &RunContext) -> FastFtResult<TransformOutcome> {
        let mut scope = RunScope::start();
        let mut rng = rngx::rng(ctx.seed);
        let cap = (((data.n_features() as f64) * self.max_features_factor) as usize).max(4);
        let root = FeatureSet::from_original(data);
        let root_score = scope.evaluate(ctx, &root.data)?;
        // Frontier of (score, node), best-first.
        let mut frontier = vec![(root_score, root.clone())];
        let mut best = (root_score, root);
        for _ in 0..self.expansions {
            // Pop the best frontier node: ascending score with NaN first,
            // so a NaN-scored node is never taken as the best.
            frontier.sort_by(|a, b| nan_last_cmp(&-b.0, &-a.0));
            let Some((_, node)) = frontier.pop() else { break };
            for _ in 0..self.ops_per_expansion {
                let op = Op::ALL[rng.gen_range(0..Op::COUNT)];
                let mut child = node.clone();
                apply_setwide(&mut child, op, &mut rng);
                child.select_top(cap, 12);
                let score = scope.evaluate(ctx, &child.data)?;
                if score > best.0 {
                    best = (score, child.clone());
                }
                frontier.push((score, child));
            }
        }
        Ok(scope.finish(self.name(), best.1, best.0, 0.0))
    }
}

/// Apply an op across the node's whole feature set: unary over every
/// feature, binary over a shifted pairing of the features.
fn apply_setwide(fs: &mut FeatureSet, op: Op, rng: &mut StdRng) {
    let exprs: Vec<Expr> = fs.exprs.clone();
    let n = exprs.len();
    let mut new = Vec::new();
    if op.is_unary() {
        for e in &exprs {
            new.push(Expr::unary(op, e.clone()));
        }
    } else {
        let shift = 1 + rng.gen_range(0..n.max(2) - 1);
        for (i, e) in exprs.iter().enumerate() {
            new.push(Expr::binary(op, e.clone(), exprs[(i + shift) % n].clone()));
        }
    }
    for e in new {
        crate::common::try_add_expr(fs, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::datagen;

    #[test]
    fn ttg_explores_and_scores() {
        let spec = datagen::by_name("pima_indian").unwrap();
        let mut d = datagen::generate_capped(spec, 150, 0);
        d.sanitize();
        let ev = fastft_ml::Evaluator { folds: 3, ..fastft_ml::Evaluator::default() };
        let rt = fastft_runtime::Runtime::new(1);
        let base = ev.evaluate(&d).unwrap();
        let r = Ttg { expansions: 2, ops_per_expansion: 2, ..Ttg::default() }
            .run(&d, &RunContext::new(&ev, &rt, 1))
            .unwrap();
        assert!(r.score >= base);
        assert!(r.downstream_evals >= 3); // root + children
        assert!(r.dataset().n_features() <= 16);
    }

    #[test]
    fn setwide_unary_doubles_features_up_to_dedup() {
        let spec = datagen::by_name("pima_indian").unwrap();
        let mut d = datagen::generate_capped(spec, 80, 1);
        d.sanitize();
        let mut fs = FeatureSet::from_original(&d);
        let before = fs.n_features();
        let mut rng = rngx::rng(2);
        apply_setwide(&mut fs, Op::Square, &mut rng);
        assert!(fs.n_features() > before);
        assert!(fs.n_features() <= 2 * before);
    }
}
