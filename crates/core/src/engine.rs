//! The FASTFT engine façade: cold start (Algorithm 1) and effective
//! exploration with continual training (Algorithm 2).
//!
//! One [`FastFt::fit`] call runs the full pipeline on a dataset:
//!
//! 1. **Cold start** — the cascading agents explore with real downstream
//!    evaluation as reward (Eq. 5), filling the replay buffer and the
//!    evaluation-component training set.
//! 2. **Component training** — the Performance Predictor (Eq. 3) and
//!    Novelty Estimator (Eq. 4) train on the collected sequences.
//! 3. **Effective exploration** — rewards come from the evaluation
//!    components (Eq. 6); downstream evaluation only triggers for
//!    top-α-percentile predicted performance or top-β-percentile novelty.
//!    Critical memories replay by TD-error priority (Eq. 10), and the
//!    components fine-tune every `retrain_every` episodes.
//!
//! The run loop itself lives in [`crate::pipeline`]: a staged
//! [`Driver`](crate::pipeline::Driver) composing
//! [`CandidateSource`](crate::pipeline::CandidateSource),
//! [`RewardModel`](crate::pipeline::RewardModel) and
//! [`Learner`](crate::pipeline::Learner) stages over a single
//! [`SearchState`](crate::pipeline::SearchState). Every run starts in
//! [`Session`]; [`FastFt`] keeps the original one-call API as two one-line
//! calls into it, with no observer attached.

use crate::config::FastFtConfig;
use crate::pipeline::{NullObserver, Session};
use fastft_tabular::{Dataset, FastFtResult};
use std::path::Path;

pub use crate::pipeline::{RunResult, StepRecord, StopReason, Telemetry};

/// The FASTFT framework.
#[derive(Debug, Clone)]
pub struct FastFt {
    /// Run configuration.
    pub cfg: FastFtConfig,
}

impl FastFt {
    /// Create with a configuration.
    pub fn new(cfg: FastFtConfig) -> Self {
        FastFt { cfg }
    }

    /// Run the full pipeline on `data` and return the best transformed
    /// dataset found, with traces and timing: a one-dataset
    /// [`Session::run`] with no observer. Use a `Session` directly to
    /// attach an observer or to run several datasets over one worker pool.
    ///
    /// # Errors
    ///
    /// As [`Session::new`] and [`Session::run`].
    pub fn fit(&self, data: &Dataset) -> FastFtResult<RunResult> {
        Session::new(self.cfg.clone())?.run(data, &mut NullObserver)
    }

    /// Continue the run checkpointed at `path` on `data` with the
    /// checkpoint's own configuration: [`Session::resume`] with no override
    /// and no observer, bitwise identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// As [`Session::resume`].
    pub fn resume(path: impl AsRef<Path>, data: &Dataset) -> FastFtResult<RunResult> {
        Session::resume(path, data, |_| {}, &mut NullObserver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{SearchState, StageCx, TelemetryCollector};
    use fastft_ml::Evaluator;
    use fastft_runtime::Runtime;
    use fastft_tabular::{datagen, FastFtError};

    fn small_data(name: &str, rows: usize, seed: u64) -> Dataset {
        let spec = datagen::by_name(name).unwrap();
        let mut d = datagen::generate_capped(spec, rows, seed);
        d.sanitize();
        d
    }

    fn tiny_cfg() -> FastFtConfig {
        FastFtConfig {
            episodes: 4,
            steps_per_episode: 4,
            cold_start_episodes: 2,
            retrain_every: 1,
            retrain_epochs: 8,
            evaluator: Evaluator { folds: 3, ..Evaluator::default() },
            ..FastFtConfig::default()
        }
    }

    #[test]
    fn fit_improves_or_matches_base_score() {
        let data = small_data("pima_indian", 200, 0);
        let result = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        assert!(result.best_score >= result.base_score);
        assert!(result.best_score <= 1.0);
        assert_eq!(result.episode_best.len(), 4);
        assert_eq!(result.records.len(), 16);
        assert_eq!(result.stop_reason, StopReason::Completed);
        assert_eq!(result.telemetry.eval_faults, 0);
        assert_eq!(result.telemetry.quarantined, 0);
        assert_eq!(result.telemetry.weight_rollbacks, 0);
    }

    #[test]
    fn eval_budget_stops_cleanly_with_best_so_far() {
        let data = small_data("pima_indian", 120, 20);
        let mut cfg = tiny_cfg();
        cfg.max_downstream_evals = 4;
        let r = FastFt::new(cfg.clone()).fit(&data).unwrap();
        assert_eq!(r.stop_reason, StopReason::EvalBudget);
        // Checked at step boundaries, so the budget is exact: the base
        // evaluation plus three cold-start steps.
        assert_eq!(r.telemetry.downstream_evals, 4);
        assert!(r.best_score >= r.base_score);
        assert!(r.records.len() < cfg.episodes * cfg.steps_per_episode);
    }

    #[test]
    fn wall_clock_budget_stops_before_first_step() {
        let data = small_data("pima_indian", 120, 21);
        let mut cfg = tiny_cfg();
        cfg.max_wall_secs = 1e-9;
        let r = FastFt::new(cfg).fit(&data).unwrap();
        assert_eq!(r.stop_reason, StopReason::WallClock);
        // The base evaluation already exceeds the budget, so the run stops
        // at the very first step boundary with the original features.
        assert!(r.records.is_empty());
        assert_eq!(r.best_score, r.base_score);
        assert_eq!(r.best_dataset.n_features(), data.n_features());
    }

    #[test]
    fn budget_stop_prefix_matches_unbudgeted_run() {
        // Budget checks must consume no RNG: the records produced before
        // the stop are bitwise identical to the full run's prefix.
        let data = small_data("pima_indian", 120, 22);
        let full = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        let mut cfg = tiny_cfg();
        cfg.max_downstream_evals = 6;
        let stopped = FastFt::new(cfg).fit(&data).unwrap();
        assert_eq!(stopped.stop_reason, StopReason::EvalBudget);
        assert!(stopped.records.len() < full.records.len());
        for (a, b) in stopped.records.iter().zip(&full.records) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn best_dataset_matches_best_exprs() {
        let data = small_data("pima_indian", 150, 1);
        let result = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        assert_eq!(result.best_dataset.n_features(), result.best_exprs.len());
        for (c, e) in result.best_dataset.features.iter().zip(&result.best_exprs) {
            assert_eq!(c.name, e.to_string());
        }
    }

    #[test]
    fn cold_start_steps_are_all_evaluated() {
        let data = small_data("pima_indian", 150, 2);
        let cfg = tiny_cfg();
        let cold_steps = cfg.cold_start_episodes * cfg.steps_per_episode;
        let result = FastFt::new(cfg).fit(&data).unwrap();
        for r in &result.records[..cold_steps] {
            assert!(!r.predicted, "cold-start step {}.{} was predicted", r.episode, r.step);
        }
    }

    #[test]
    fn predictor_reduces_downstream_evals() {
        let data = small_data("pima_indian", 150, 3);
        let mut cfg = tiny_cfg();
        cfg.episodes = 6;
        let with = FastFt::new(cfg.clone()).fit(&data).unwrap();
        let without = FastFt::new(cfg.without_predictor()).fit(&data).unwrap();
        assert!(
            with.telemetry.downstream_evals < without.telemetry.downstream_evals,
            "with: {}, without: {}",
            with.telemetry.downstream_evals,
            without.telemetry.downstream_evals
        );
        // −PP scores every step downstream (+1 for the base score); repeat
        // feature sets are answered by the memo cache instead of re-running
        // cross-validation.
        assert_eq!(without.telemetry.downstream_evals + without.telemetry.cache_hits, 6 * 4 + 1);
    }

    #[test]
    fn memo_cache_returns_cached_score_without_reeval() {
        let data = small_data("pima_indian", 120, 13);
        let cfg = tiny_cfg();
        let rt = Runtime::new(1);
        let mut state = SearchState::new(&cfg, &data);
        let mut obs = NullObserver;
        let mut cx = StageCx {
            cfg: &cfg,
            original: &data,
            runtime: &rt,
            state: &mut state,
            observer: &mut obs,
        };
        let s1 = cx.evaluate_downstream(&data, Some("k")).unwrap();
        assert_eq!(cx.state.telemetry.downstream_evals, 1);
        assert_eq!(cx.state.telemetry.cache_hits, 0);
        let s2 = cx.evaluate_downstream(&data, Some("k")).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(cx.state.telemetry.downstream_evals, 1);
        assert_eq!(cx.state.telemetry.cache_hits, 1);
        // A distinct key is a miss.
        cx.evaluate_downstream(&data, Some("other")).unwrap();
        assert_eq!(cx.state.telemetry.downstream_evals, 2);
        assert_eq!(cx.state.telemetry.cache_hits, 1);
        // `None` bypasses the cache entirely.
        cx.evaluate_downstream(&data, None).unwrap();
        cx.evaluate_downstream(&data, None).unwrap();
        assert_eq!(cx.state.telemetry.downstream_evals, 4);
        assert_eq!(cx.state.telemetry.cache_hits, 1);
    }

    #[test]
    fn memo_cache_capacity_evicts_and_counts() {
        let data = small_data("pima_indian", 120, 17);
        let mut cfg = tiny_cfg();
        cfg.eval_cache_capacity = 2;
        let rt = Runtime::new(1);
        let mut state = SearchState::new(&cfg, &data);
        let mut obs = NullObserver;
        let mut cx = StageCx {
            cfg: &cfg,
            original: &data,
            runtime: &rt,
            state: &mut state,
            observer: &mut obs,
        };
        cx.evaluate_downstream(&data, Some("a")).unwrap();
        cx.evaluate_downstream(&data, Some("b")).unwrap();
        assert_eq!(cx.state.telemetry.cache_evictions, 0);
        // Third distinct key exceeds the capacity of 2: "a" is evicted.
        cx.evaluate_downstream(&data, Some("c")).unwrap();
        assert_eq!(cx.state.telemetry.cache_evictions, 1);
        // "b" survived (was more recent than "a") and hits.
        cx.evaluate_downstream(&data, Some("b")).unwrap();
        assert_eq!(cx.state.telemetry.cache_hits, 1);
        // "a" was evicted, so it re-evaluates (and evicts "c").
        cx.evaluate_downstream(&data, Some("a")).unwrap();
        assert_eq!(cx.state.telemetry.downstream_evals, 4);
        assert_eq!(cx.state.telemetry.cache_evictions, 2);
    }

    #[test]
    fn fit_rejects_invalid_config() {
        let data = small_data("pima_indian", 120, 14);
        let mut cfg = tiny_cfg();
        cfg.alpha = -3.0;
        let err = FastFt::new(cfg).fit(&data).unwrap_err();
        assert!(matches!(err, FastFtError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn fit_rejects_empty_dataset() {
        use fastft_tabular::TaskType;
        let data =
            Dataset::new("empty", Vec::new(), vec![0.0, 1.0], TaskType::Classification, 2).unwrap();
        let err = FastFt::new(tiny_cfg()).fit(&data).unwrap_err();
        assert!(matches!(err, FastFtError::InvalidData(_)), "{err}");
    }

    #[test]
    fn fit_identical_across_thread_counts() {
        let data = small_data("pima_indian", 120, 15);
        let serial = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        let mut cfg = tiny_cfg();
        cfg.threads = 4;
        let pooled = FastFt::new(cfg).fit(&data).unwrap();
        assert_eq!(serial.base_score, pooled.base_score);
        assert_eq!(serial.best_score, pooled.best_score);
        assert_eq!(serial.records.len(), pooled.records.len());
        for (a, b) in serial.records.iter().zip(&pooled.records) {
            assert_eq!(a.score, b.score);
            assert_eq!(a.reward, b.reward);
            assert_eq!(a.new_exprs, b.new_exprs);
        }
        assert_eq!(serial.telemetry.downstream_evals, pooled.telemetry.downstream_evals);
        assert_eq!(serial.telemetry.cache_hits, pooled.telemetry.cache_hits);
    }

    #[test]
    fn telemetry_times_are_consistent() {
        let data = small_data("pima_indian", 120, 4);
        let result = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        let t = result.telemetry;
        assert!(t.evaluation_secs > 0.0);
        assert!(t.optimization_secs > 0.0);
        assert!(t.total_secs >= t.evaluation_secs);
        assert!(t.downstream_evals >= 1);
    }

    #[test]
    fn ablations_run() {
        let data = small_data("pima_indian", 120, 5);
        for cfg in [
            tiny_cfg().without_novelty(),
            tiny_cfg().without_critical_replay(),
            tiny_cfg().without_predictor(),
        ] {
            let r = FastFt::new(cfg).fit(&data).unwrap();
            assert!(r.best_score >= r.base_score);
        }
    }

    #[test]
    fn q_framework_runs() {
        use crate::agents::RlKind;
        use fastft_rl::QKind;
        let data = small_data("pima_indian", 120, 6);
        let mut cfg = tiny_cfg();
        cfg.rl = RlKind::Q(QKind::DuelingDqn);
        let r = FastFt::new(cfg).fit(&data).unwrap();
        assert!(r.best_score >= r.base_score);
    }

    #[test]
    fn regression_task_runs() {
        let data = small_data("openml_620", 150, 7);
        let r = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        assert!(r.best_score >= r.base_score);
        assert!(r.best_score.is_finite());
    }

    #[test]
    fn detection_task_runs() {
        let data = small_data("thyroid", 400, 8);
        let r = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        assert!(r.best_score >= r.base_score);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = small_data("pima_indian", 120, 9);
        let a = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        let b = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.score, rb.score);
            assert_eq!(ra.new_exprs, rb.new_exprs);
        }
    }

    #[test]
    fn episode_best_is_monotone() {
        let data = small_data("pima_indian", 120, 10);
        let r = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        for w in r.episode_best.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn feature_cap_respected() {
        let data = small_data("pima_indian", 120, 11);
        let cfg = tiny_cfg();
        let cap = crate::config::max_features(data.n_features());
        let r = FastFt::new(cfg).fit(&data).unwrap();
        for rec in &r.records {
            assert!(rec.n_features <= cap, "step has {} features > cap {cap}", rec.n_features);
        }
        assert!(r.best_dataset.n_features() <= cap);
    }

    #[test]
    fn novelty_distances_recorded() {
        let data = small_data("pima_indian", 120, 12);
        let r = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        // First step of the run is maximally novel.
        assert_eq!(r.records[0].novelty_distance, 1.0);
        assert!(r.records.iter().all(|rec| rec.novelty_distance >= 0.0));
        assert!(r.records.iter().any(|rec| rec.new_combination));
    }

    #[test]
    fn session_run_matches_fit() {
        let data = small_data("pima_indian", 120, 16);
        let via_fit = FastFt::new(tiny_cfg()).fit(&data).unwrap();
        let session = Session::new(tiny_cfg()).unwrap();
        let via_session = session.run(&data, &mut NullObserver).unwrap();
        assert_eq!(via_fit.base_score, via_session.base_score);
        assert_eq!(via_fit.best_score, via_session.best_score);
        assert_eq!(via_fit.records, via_session.records);
    }

    #[test]
    fn session_runs_multiple_datasets_on_shared_pool() {
        let a = small_data("pima_indian", 120, 23);
        let b = small_data("openml_620", 120, 24);
        let session = Session::new(tiny_cfg()).unwrap();
        let first = session.run(&a, &mut NullObserver).unwrap();
        // A second, different dataset runs over the same pool.
        let rb = session.run(&b, &mut NullObserver).unwrap();
        assert!(rb.best_score >= rb.base_score);
        // Runs are independent: repeating the first dataset after another
        // run on the pool agrees exactly.
        let again = session.run(&a, &mut NullObserver).unwrap();
        assert_eq!(first.best_score, again.best_score);
        assert_eq!(first.records, again.records);
    }

    #[test]
    fn observer_counters_match_telemetry() {
        let data = small_data("pima_indian", 120, 25);
        let cfg = tiny_cfg();
        let session = Session::new(cfg.clone()).unwrap();
        let mut collector = TelemetryCollector::new();
        let r = session.run(&data, &mut collector).unwrap();
        let t = collector.telemetry();
        assert_eq!(t.downstream_evals, r.telemetry.downstream_evals);
        assert_eq!(t.cache_hits, r.telemetry.cache_hits);
        assert_eq!(t.cache_evictions, r.telemetry.cache_evictions);
        assert_eq!(t.predictor_calls, r.telemetry.predictor_calls);
        assert_eq!(t.eval_faults, r.telemetry.eval_faults);
        assert_eq!(t.quarantined, r.telemetry.quarantined);
        assert_eq!(t.weight_rollbacks, r.telemetry.weight_rollbacks);
        assert_eq!(t.prefix_hits, r.telemetry.prefix_hits);
        assert_eq!(t.prefix_misses, r.telemetry.prefix_misses);
        assert_eq!(t.prefix_evictions, r.telemetry.prefix_evictions);
        assert_eq!(collector.steps(), r.records.len());
        assert_eq!(collector.episodes(), cfg.episodes);
        assert_eq!(collector.checkpoints(), 0);
    }

    #[test]
    fn observers_are_passive() {
        // Attaching an observer must not perturb the decision stream.
        let data = small_data("pima_indian", 120, 26);
        let session = Session::new(tiny_cfg()).unwrap();
        let plain = session.run(&data, &mut NullObserver).unwrap();
        let mut collector = TelemetryCollector::new();
        let observed = session.run(&data, &mut collector).unwrap();
        assert_eq!(plain.best_score, observed.best_score);
        assert_eq!(plain.records, observed.records);
    }
}
