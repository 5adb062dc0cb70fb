//! FASTFT itself wrapped in the baseline interface, so harnesses can sweep
//! every method — including ours — through one registry.

use crate::common::{FeatureTransformMethod, RunContext, RunScope, TransformOutcome};
use fastft_core::{FastFt, FastFtConfig, FeatureSet};
use fastft_tabular::{Dataset, FastFtResult};

/// The full FASTFT framework as a [`FeatureTransformMethod`].
#[derive(Debug, Clone)]
pub struct FastFtMethod {
    /// Engine configuration (the evaluator and seed fields are overridden
    /// per run).
    pub cfg: FastFtConfig,
}

impl Default for FastFtMethod {
    fn default() -> Self {
        FastFtMethod { cfg: FastFtConfig::quick() }
    }
}

impl FeatureTransformMethod for FastFtMethod {
    fn name(&self) -> &'static str {
        "FASTFT"
    }

    fn run(&self, data: &Dataset, ctx: &RunContext) -> FastFtResult<TransformOutcome> {
        let scope = RunScope::start();
        let cfg = FastFtConfig {
            evaluator: ctx.evaluator.clone(),
            seed: ctx.seed,
            threads: ctx.runtime.threads(),
            ..self.cfg.clone()
        };
        // The run's worker pool matches the harness runtime.
        let result = FastFt::new(cfg).fit(data)?;
        let mut fs = FeatureSet::from_original(data);
        fs.data = result.best_dataset;
        fs.exprs = result.best_exprs;
        let mut out = scope.finish(self.name(), fs, result.best_score, 0.0);
        out.downstream_evals = result.telemetry.downstream_evals;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_core::FastFtConfig;
    use fastft_tabular::datagen;

    #[test]
    fn fastft_method_runs() {
        use fastft_ml::Evaluator;
        let spec = datagen::by_name("pima_indian").unwrap();
        let mut d = datagen::generate_capped(spec, 120, 0);
        d.sanitize();
        let ev = Evaluator { folds: 3, ..Evaluator::default() };
        let rt = fastft_runtime::Runtime::new(1);
        let m = FastFtMethod {
            cfg: FastFtConfig {
                episodes: 3,
                steps_per_episode: 3,
                cold_start_episodes: 1,
                ..FastFtConfig::quick()
            },
        };
        let r = m.run(&d, &RunContext::new(&ev, &rt, 0)).unwrap();
        assert_eq!(r.name, "FASTFT");
        assert!(r.score >= ev.evaluate(&d).unwrap() - 1e-9);
    }
}
