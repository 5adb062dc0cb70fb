//! The three stage roles of a FASTFT step and their paper implementations.
//!
//! A step decomposes into the paper's three concerns:
//!
//! * [`CandidateSource`] — *where do candidate transformations come from?*
//!   [`CascadeSource`] implements §III-B/C: mutual-information clustering,
//!   then the cascading head → operation → tail agent selections, then the
//!   group-wise crossing.
//! * [`RewardModel`] — *what is a candidate worth?* [`AdaptiveRewardModel`]
//!   implements Eq. 5 (cold, real evaluation), Eq. 6 (warm, predictor
//!   difference), the RND novelty bonus, the §III-D α/β percentile
//!   triggers, and the quarantine fallback for faulting evaluations.
//! * [`Learner`] — *how does experience change the policy and components?*
//!   [`ReplayLearner`] implements prioritized replay (Eq. 10), cold-start
//!   component training (Alg. 1) and guarded periodic fine-tuning (Alg. 2).
//!
//! Stages are stateless strategy objects: every piece of mutable run state
//! lives in [`SearchState`] and reaches them through [`StageCx`]. That
//! keeps the decision stream a property of the state (and its single RNG),
//! not of which stage objects happen to be composed — swapping a stage for
//! an ablation variant cannot accidentally perturb the others.

use crate::agents::{MemoryUnit, Role};
use crate::cluster::{cluster_features, MiCache};
use crate::config::{max_features, FastFtConfig};
use crate::ops::Op;
use crate::pipeline::event::{RunEvent, RunObserver};
use crate::pipeline::search_state::SearchState;
use crate::sequence::{canonical_key, encode_feature_set};
use crate::state;
use crate::transform::FeatureSet;
use fastft_ml::Evaluator;
use fastft_rl::schedule::ExpDecay;
use fastft_runtime::Runtime;
use fastft_tabular::{Dataset, FastFtResult};
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Percentile of a sample (linear interpolation, `q` in `[0, 1]`). NaN
/// values sort after every other value.
///
/// Returns `NaN` for an empty sample: every comparison against it is
/// `false`, so an empty history can never fire a percentile trigger.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(fastft_tabular::stats::nan_last_cmp);
    fastft_tabular::stats::percentile_sorted(&sorted, q)
}

/// Everything a stage may touch: the run's configuration and inputs
/// (shared), its mutable [`SearchState`], and the observer sink.
pub struct StageCx<'r> {
    /// Run configuration.
    pub cfg: &'r FastFtConfig,
    /// The original (untransformed) dataset.
    pub original: &'r Dataset,
    /// Worker pool for data-parallel kernels.
    pub runtime: &'r Runtime,
    /// The run's mutable state.
    pub state: &'r mut SearchState,
    /// Event sink (passive; cannot affect the decision stream).
    pub observer: &'r mut dyn RunObserver,
}

impl StageCx<'_> {
    /// Count `event` into the run's telemetry ([`Telemetry::record`]), then
    /// deliver it to the observer.
    ///
    /// [`Telemetry::record`]: crate::pipeline::Telemetry::record
    pub fn emit(&mut self, event: RunEvent<'_>) {
        self.state.telemetry.record(&event);
        self.observer.on_event(&event);
    }

    /// Evaluate `data` downstream, memoised on the canonical feature-set
    /// key when one is supplied. Cache hits return the stored score without
    /// re-running cross-validation (and count as `cache_hits`, not
    /// `downstream_evals`); `None` bypasses the cache entirely. An
    /// evaluation error propagates as a typed error.
    pub fn evaluate_downstream(&mut self, data: &Dataset, key: Option<&str>) -> FastFtResult<f64> {
        let score = self.memoised(key, 1, |ev, rt| ev.evaluate_with(rt, data).map(Some))?;
        Ok(score.expect("the base attempt never reports a soft fault"))
    }

    /// The memo-cache protocol behind every downstream evaluation.
    ///
    /// A score cached under `key` is returned at once (one cache-hit
    /// event). Otherwise `attempt` runs up to `attempts` times, each run
    /// timed into `evaluation_secs` and reported by one
    /// `DownstreamEvaluated` event: `Ok(Some(score))` is stored under `key`
    /// and returned, `Ok(None)` is a fault that moves on to the next
    /// attempt, and `Err` propagates without an event. `Ok(None)` comes
    /// back only when every attempt faulted.
    fn memoised<E>(
        &mut self,
        key: Option<&str>,
        attempts: usize,
        mut attempt: impl FnMut(&Evaluator, &Runtime) -> Result<Option<f64>, E>,
    ) -> Result<Option<f64>, E> {
        if let Some(&score) = key.and_then(|k| self.state.eval_cache.get(k)) {
            self.emit(RunEvent::DownstreamEvaluated {
                cache_hit: true,
                evicted: false,
                faulted: false,
            });
            return Ok(Some(score));
        }
        for _ in 0..attempts {
            let t0 = Instant::now();
            let outcome = attempt(&self.cfg.evaluator, self.runtime);
            self.state.telemetry.evaluation_secs += t0.elapsed().as_secs_f64();
            let score = outcome?;
            let evicted = match (key, score) {
                (Some(k), Some(s)) => self.state.eval_cache.insert(k.to_owned(), s),
                _ => false,
            };
            self.emit(RunEvent::DownstreamEvaluated {
                cache_hit: false,
                evicted,
                faulted: score.is_none(),
            });
            if score.is_some() {
                return Ok(score);
            }
        }
        Ok(None)
    }
}

/// The clustering survey of the current feature space: candidate head
/// groups and their agent-facing representations.
pub struct Survey {
    /// Mutual-information feature clusters (index lists).
    pub clusters: Vec<Vec<usize>>,
    /// Statistical representation of each cluster.
    pub cluster_reps: Vec<Vec<f64>>,
    /// Head-agent candidate vectors, one per cluster.
    pub head_cands: Vec<Vec<f64>>,
    /// Overall feature-space representation the candidates were built on.
    pub overall: Vec<f64>,
}

/// The cascading agents' choice of head cluster, operation and (for binary
/// operations) tail cluster.
pub struct Selection {
    /// Chosen head-cluster index.
    pub head_idx: usize,
    /// Operation-agent candidate vectors (one per [`Op::ALL`] entry).
    pub op_cands: Vec<Vec<f64>>,
    /// Chosen operation index into [`Op::ALL`].
    pub op_idx: usize,
    /// Chosen operation.
    pub op: Op,
    /// Tail candidates and chosen index (binary operations only).
    pub tail: Option<(Vec<Vec<f64>>, usize)>,
}

/// Result of applying a selection to the feature set.
pub struct Crossing {
    /// Traceable expressions added this step.
    pub new_exprs: Vec<String>,
    /// Whether the crossing produced any new feature at all.
    pub produced: bool,
    /// Token encoding of the updated feature set.
    pub seq: Vec<usize>,
    /// Statistical representation of the updated feature space.
    pub next_state: Vec<f64>,
    /// Canonical (order-invariant) key of the updated feature set.
    pub key: String,
}

/// Inputs the reward model needs to value one candidate feature set.
pub struct ScoreInput<'s> {
    /// Episode index (the novelty bonus activates after cold start).
    pub episode: usize,
    /// Whether rewards come from real evaluation (Eq. 5) vs. the
    /// predictor (Eq. 6).
    pub cold: bool,
    /// The candidate's data.
    pub data: &'s Dataset,
    /// The candidate's canonical key (memo cache / quarantine).
    pub key: &'s str,
    /// The candidate's token sequence.
    pub seq: &'s [usize],
    /// The previous step's token sequence.
    pub prev_seq: &'s [usize],
    /// The previous step's performance.
    pub prev_v: f64,
}

/// The reward model's verdict on one candidate.
pub struct Scored {
    /// Performance associated with the step (predicted or evaluated).
    pub v: f64,
    /// Reward for the agents (before the unproductive-step penalty).
    pub reward: f64,
    /// Whether `v` came from the predictor rather than a downstream run.
    pub predicted: bool,
    /// Raw RND novelty of the sequence (0 when the estimator is off).
    pub novelty: f64,
}

/// Produces candidate transformations: surveys the feature space, lets the
/// policy pick, and applies the pick.
///
/// Split into three calls because the driver must interleave replay
/// learning between `survey` and `select` (the pending memory needs this
/// step's head candidates before it can be stored — and storing it samples
/// the replay buffer, which consumes RNG *before* the head selection).
pub trait CandidateSource {
    /// Cluster the current feature space and build candidate
    /// representations. Consumes no RNG.
    fn survey(&mut self, cx: &mut StageCx<'_>, fs: &FeatureSet, prev_state: &[f64]) -> Survey;

    /// Run the policy over the survey (head → op → tail).
    fn select(&mut self, cx: &mut StageCx<'_>, survey: &Survey) -> Selection;

    /// Apply the selection to `fs`: cross, extend, re-select top features,
    /// and re-encode.
    fn apply(
        &mut self,
        cx: &mut StageCx<'_>,
        fs: &mut FeatureSet,
        survey: &Survey,
        sel: &Selection,
    ) -> Crossing;
}

/// Values a candidate feature set and produces the step reward.
pub trait RewardModel {
    /// Score one candidate (see [`ScoreInput`] / [`Scored`]).
    fn score(&mut self, cx: &mut StageCx<'_>, input: ScoreInput<'_>) -> Scored;
}

/// Consumes experience: stores transition memories, optimises the agents,
/// and (re)trains the evaluation components.
pub trait Learner {
    /// Store a completed transition memory and optimise the agents from a
    /// replay sample (Alg. 1 line 9 / Alg. 2 line 17).
    fn absorb(&mut self, cx: &mut StageCx<'_>, mem: MemoryUnit);

    /// Alg. 1 lines 14–19: initial training of both components from the
    /// cold-start collection.
    fn train_cold_start(&mut self, cx: &mut StageCx<'_>);

    /// Alg. 2 lines 19–24: periodic fine-tuning from the memory buffer
    /// (uniform samples).
    fn finetune(&mut self, cx: &mut StageCx<'_>);
}

/// Histogram bins of the mutual-information estimates.
const MI_BINS: usize = 12;
/// Eq. 2 clustering stop threshold.
const CLUSTER_THRESHOLD: f64 = 1.0;
/// Cap on the features one crossing step generates.
const MAX_NEW_PER_STEP: usize = 16;
/// Token-sequence truncation length of the component input.
pub(crate) const MAX_SEQ_LEN: usize = 192;

/// §III-B/C candidate source: MI clustering + cascading agent cascade +
/// group-wise crossing.
#[derive(Debug, Default, Clone, Copy)]
pub struct CascadeSource;

impl CandidateSource for CascadeSource {
    fn survey(&mut self, cx: &mut StageCx<'_>, fs: &FeatureSet, prev_state: &[f64]) -> Survey {
        let t_opt = Instant::now();
        let cache = MiCache::compute_with(cx.runtime, &fs.data, MI_BINS);
        let clusters = cluster_features(&fs.data, &cache, CLUSTER_THRESHOLD, 2);
        let overall = prev_state.to_vec();
        let cluster_reps: Vec<Vec<f64>> =
            clusters.iter().map(|c| state::rep_cluster(&fs.data, c)).collect();
        let head_cands: Vec<Vec<f64>> =
            cluster_reps.iter().map(|cr| state::head_candidate(cr, &overall)).collect();
        cx.state.telemetry.optimization_secs += t_opt.elapsed().as_secs_f64();
        Survey { clusters, cluster_reps, head_cands, overall }
    }

    fn select(&mut self, cx: &mut StageCx<'_>, survey: &Survey) -> Selection {
        let t_opt = Instant::now();
        let st = &mut *cx.state;
        let head_idx = st.agents.select(Role::Head, &survey.head_cands, &mut st.rng);
        let head_rep = &survey.cluster_reps[head_idx];
        let op_cands: Vec<Vec<f64>> =
            Op::ALL.iter().map(|&op| state::op_candidate(head_rep, &survey.overall, op)).collect();
        let op_idx = st.agents.select(Role::Op, &op_cands, &mut st.rng);
        let op = Op::ALL[op_idx];
        let tail = if op.is_binary() {
            let tail_cands: Vec<Vec<f64>> = survey
                .cluster_reps
                .iter()
                .map(|cr| state::tail_candidate(head_rep, &survey.overall, op, cr))
                .collect();
            let tail_idx = st.agents.select(Role::Tail, &tail_cands, &mut st.rng);
            Some((tail_cands, tail_idx))
        } else {
            None
        };
        st.telemetry.optimization_secs += t_opt.elapsed().as_secs_f64();
        Selection { head_idx, op_cands, op_idx, op, tail }
    }

    fn apply(
        &mut self,
        cx: &mut StageCx<'_>,
        fs: &mut FeatureSet,
        survey: &Survey,
        sel: &Selection,
    ) -> Crossing {
        let tail_members = sel.tail.as_ref().map(|(_, i)| survey.clusters[*i].as_slice());
        let generated = fs.cross(
            &survey.clusters[sel.head_idx],
            sel.op,
            tail_members,
            MAX_NEW_PER_STEP,
            &mut cx.state.rng,
        );
        let new_exprs: Vec<String> = generated.iter().map(|(e, _)| e.to_string()).collect();
        let produced = !generated.is_empty();
        fs.extend(generated);
        fs.select_top(max_features(cx.original.n_features()), MI_BINS);

        let seq = encode_feature_set(&fs.exprs, &cx.state.vocab, MAX_SEQ_LEN);
        let next_state = state::rep_overall(&fs.data);
        let key = canonical_key(&fs.exprs);
        Crossing { new_exprs, produced, seq, next_state, key }
    }
}

/// Immediate retries granted to a candidate whose downstream evaluation
/// faulted, before it is quarantined.
const EVAL_RETRIES: usize = 1;

/// The paper's adaptive reward model: Eq. 5 cold / Eq. 6 warm scoring, the
/// normalised RND novelty bonus, §III-D percentile triggers, and the
/// quarantine fallback.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdaptiveRewardModel;

impl AdaptiveRewardModel {
    /// Fault-isolated downstream evaluation of a candidate feature set.
    ///
    /// Panics inside the evaluator, typed evaluation errors and non-finite
    /// scores all count as faults (`eval_faults`): the evaluation retries
    /// up to [`EVAL_RETRIES`] more times and then the candidate is
    /// quarantined (`None`), leaving the step loop to fall back on the
    /// predictor. Quarantine shares the memo cache's canonical
    /// key, so a quarantined feature combination is never re-attempted
    /// while it remains in the bounded set. The *base* evaluation does not
    /// go through here — a dataset whose original features cannot be
    /// scored is a configuration problem and propagates as a typed error.
    fn evaluate_candidate(&self, cx: &mut StageCx<'_>, data: &Dataset, key: &str) -> Option<f64> {
        if cx.state.quarantine.get(key).is_some() {
            return None;
        }
        let attempts = EVAL_RETRIES + 1;
        // A panic, typed evaluation error or non-finite score is a fault.
        let score = cx.memoised(Some(key), attempts, |ev, rt| {
            let outcome = catch_unwind(AssertUnwindSafe(|| ev.evaluate_with(rt, data)));
            Ok::<_, Infallible>(outcome.ok().and_then(Result::ok).filter(|s| s.is_finite()))
        });
        let Ok(score) = score;
        if score.is_none() {
            cx.state.quarantine.insert(key.to_owned(), ());
            cx.emit(RunEvent::CandidateQuarantined);
        }
        score
    }

    /// Predictor-only score for a quarantined candidate, so the episode
    /// keeps moving with a finite reward.
    fn predict_fallback(&self, cx: &mut StageCx<'_>, seq: &[usize]) -> f64 {
        let before = cx.state.score_stats();
        let t0 = Instant::now();
        let pred = cx.state.predictor.predict_cached(seq);
        let elapsed = t0.elapsed().as_secs_f64();
        cx.state.telemetry.predictor_secs += elapsed;
        cx.state.telemetry.estimation_secs += elapsed;
        let scoring = cx.state.score_stats().since(&before);
        cx.emit(RunEvent::PredictorCalled { calls: 1, scoring });
        pred
    }

    /// Should this (predicted performance, novelty) pair trigger a real
    /// downstream evaluation? (§III-D "Adaptively Adopt Two Strategies".)
    fn trigger_downstream(&self, cx: &StageCx<'_>, pred: f64, nov: f64) -> bool {
        // Until enough history exists the percentiles are meaningless;
        // anchor with real evaluations.
        const WARMUP: usize = 8;
        if cx.state.pred_history.len() < WARMUP {
            return cx.cfg.alpha > 0.0 || cx.cfg.beta > 0.0;
        }
        // Strict inequality: sequences are often scored identically early
        // on, and `>=` against a tied percentile would fire on every step.
        let by_perf = cx.cfg.alpha > 0.0
            && pred > percentile(&cx.state.pred_history, 1.0 - cx.cfg.alpha / 100.0);
        let by_nov = cx.cfg.use_novelty
            && cx.cfg.beta > 0.0
            && nov > percentile(&cx.state.nov_history, 1.0 - cx.cfg.beta / 100.0);
        by_perf || by_nov
    }

    /// Normalise a raw RND novelty into a differential bonus: the running
    /// z-score, clamped to ±3. This keeps Eq. 6's novelty term on the same
    /// scale as performance differences regardless of the frozen target's
    /// output magnitude, and — unlike a raw magnitude — rewards *relative*
    /// novelty: above-average novelty earns a positive bonus, familiar
    /// territory a negative one (standard intrinsic-reward normalisation in
    /// the RND literature; DESIGN.md §4).
    fn normalize_novelty(&self, st: &mut SearchState, nov: f64) -> f64 {
        st.nov_count += 1;
        let delta = nov - st.nov_mean;
        st.nov_mean += delta / st.nov_count as f64;
        st.nov_m2 += delta * (nov - st.nov_mean);
        if st.nov_count < 5 {
            return 0.0;
        }
        let std = (st.nov_m2 / (st.nov_count - 1) as f64).sqrt();
        ((nov - st.nov_mean) / (std + 1e-8)).clamp(-3.0, 3.0)
    }
}

impl RewardModel for AdaptiveRewardModel {
    fn score(&mut self, cx: &mut StageCx<'_>, input: ScoreInput<'_>) -> Scored {
        let novelty_weight =
            ExpDecay { start: cx.cfg.eps_start, end: cx.cfg.eps_end, m: cx.cfg.decay_m };
        if input.cold {
            // Fault-isolated real evaluation; a quarantined candidate falls
            // back to the predictor (`predicted` keeps it out of best
            // tracking and training history).
            let (v, predicted) = match self.evaluate_candidate(cx, input.data, input.key) {
                Some(v) => {
                    cx.state.eval_history.push((input.seq.to_vec(), v));
                    (v, false)
                }
                None => (self.predict_fallback(cx, input.seq), true),
            };
            // Eq. 5 (plus the novelty bonus when the estimator is active
            // and trained; during true cold start the estimator is
            // untrained, so only the −PP path adds it).
            let mut r = v - input.prev_v;
            let mut nov = 0.0;
            if cx.cfg.use_novelty && input.episode >= cx.cfg.cold_start_episodes {
                let before = cx.state.score_stats();
                let t_est = Instant::now();
                nov = cx.state.novelty.novelty_cached(input.seq);
                let elapsed = t_est.elapsed().as_secs_f64();
                cx.state.telemetry.novelty_secs += elapsed;
                cx.state.telemetry.estimation_secs += elapsed;
                let scoring = cx.state.score_stats().since(&before);
                cx.emit(RunEvent::PredictorCalled { calls: 1, scoring });
                let normed = self.normalize_novelty(cx.state, nov);
                r += novelty_weight.at(cx.state.global_step) * normed;
                cx.state.nov_history.push(nov);
            }
            Scored { v, reward: r, predicted, novelty: nov }
        } else {
            // Prefix-cached scoring is bitwise identical to plain prediction
            // (`nn_parity`); it only saves time.
            let before = cx.state.score_stats();
            let t_pred = Instant::now();
            let pred = cx.state.predictor.predict_cached(input.seq);
            let pred_prev = cx.state.predictor.predict_cached(input.prev_seq);
            let pred_elapsed = t_pred.elapsed().as_secs_f64();
            cx.state.telemetry.predictor_secs += pred_elapsed;
            let t_nov = Instant::now();
            let nov =
                if cx.cfg.use_novelty { cx.state.novelty.novelty_cached(input.seq) } else { 0.0 };
            let nov_elapsed = t_nov.elapsed().as_secs_f64();
            cx.state.telemetry.novelty_secs += nov_elapsed;
            cx.state.telemetry.estimation_secs += pred_elapsed + nov_elapsed;
            let scoring = cx.state.score_stats().since(&before);
            cx.emit(RunEvent::PredictorCalled { calls: 2, scoring });
            // Eq. 6, with the novelty bonus std-normalised so the two terms
            // share a scale.
            let mut r = pred - pred_prev;
            if cx.cfg.use_novelty {
                let normed = self.normalize_novelty(cx.state, nov);
                r += novelty_weight.at(cx.state.global_step) * normed;
                cx.state.nov_history.push(nov);
            }
            let trigger = self.trigger_downstream(cx, pred, nov);
            cx.state.pred_history.push(pred);
            if trigger {
                // Fault-isolated: a quarantined candidate falls back to its
                // already-computed prediction.
                match self.evaluate_candidate(cx, input.data, input.key) {
                    Some(v) => {
                        cx.state.eval_history.push((input.seq.to_vec(), v));
                        Scored { v, reward: r, predicted: false, novelty: nov }
                    }
                    None => Scored { v: pred, reward: r, predicted: true, novelty: nov },
                }
            } else {
                Scored { v: pred, reward: r, predicted: true, novelty: nov }
            }
        }
    }
}

/// Prioritized-replay learner with guarded component (re)training.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayLearner;

impl ReplayLearner {
    /// Train the components on `items` in order, one Adam step per sample
    /// (Alg. 1/2).
    fn train_components_on(cx: &mut StageCx<'_>, items: &[(Vec<usize>, f64)], train_novelty: bool) {
        for (seq, v) in items {
            if cx.cfg.use_predictor {
                cx.state.predictor.train_step(seq, *v);
            }
            if train_novelty && cx.cfg.use_novelty {
                cx.state.novelty.train_step(seq);
            }
        }
    }

    /// Run a component-training round under a fault guard and report it
    /// as one `ComponentsTrained` event. The predictor and estimator
    /// weights are snapshotted first, and a round that panics or leaves
    /// non-finite parameters is rolled back to the snapshot (one
    /// `weight_rollbacks` count per restored component) instead of
    /// poisoning every score after it.
    fn train_guarded(cx: &mut StageCx<'_>, cold_start: bool, round: impl FnOnce(&mut StageCx<'_>)) {
        let t_est = Instant::now();
        let before = cx.state.score_stats();
        let pred_backup = cx.cfg.use_predictor.then(|| cx.state.predictor.save_state());
        let nov_backup = cx.cfg.use_novelty.then(|| cx.state.novelty.save_state());
        let panicked = catch_unwind(AssertUnwindSafe(|| round(&mut *cx))).is_err();
        let mut rollbacks = 0;
        if let Some(b) = pred_backup {
            if panicked || !cx.state.predictor.params_finite() {
                let _ = cx.state.predictor.load_state(&b);
                rollbacks += 1;
            }
        }
        if let Some(b) = nov_backup {
            if panicked || !cx.state.novelty.params_finite() {
                let _ = cx.state.novelty.load_state(&b);
                rollbacks += 1;
            }
        }
        cx.state.telemetry.estimation_secs += t_est.elapsed().as_secs_f64();
        let scoring = cx.state.score_stats().since(&before);
        cx.emit(RunEvent::ComponentsTrained { cold_start, rollbacks, scoring });
    }
}

impl Learner for ReplayLearner {
    fn absorb(&mut self, cx: &mut StageCx<'_>, mem: MemoryUnit) {
        let t_opt = Instant::now();
        let st = &mut *cx.state;
        let delta = st.agents.td_error(&mem);
        st.memory.push(mem, delta);
        // Alg. 1 line 9 / Alg. 2 line 17: sample from the priority
        // distribution (uniformly for −RCT) and optimise the cascading
        // agents.
        if st.memory.len() >= 2 {
            let sampled = if cx.cfg.prioritized_replay {
                st.memory.sample(&mut st.rng)
            } else {
                st.memory.sample_uniform(&mut st.rng)
            };
            if let Some(sampled) = sampled {
                let sampled = sampled.clone();
                st.agents.learn(&sampled);
            }
        }
        st.telemetry.optimization_secs += t_opt.elapsed().as_secs_f64();
    }

    fn train_cold_start(&mut self, cx: &mut StageCx<'_>) {
        let passes = cx.cfg.retrain_epochs.max(1);
        let history = cx.state.eval_history.clone();
        Self::train_guarded(cx, true, move |cx| {
            for _ in 0..passes {
                Self::train_components_on(cx, &history, true);
            }
        });
    }

    fn finetune(&mut self, cx: &mut StageCx<'_>) {
        // Draw every uniform sample before training; training draws nothing
        // from the run RNG.
        let mut sampled = Vec::with_capacity(cx.cfg.retrain_epochs);
        for _ in 0..cx.cfg.retrain_epochs {
            let st = &mut *cx.state;
            if let Some(mem) = st.memory.sample_uniform(&mut st.rng) {
                sampled.push((mem.seq.clone(), mem.perf));
            }
        }
        let use_predictor = cx.cfg.use_predictor;
        let recent = cx.state.eval_history.len().saturating_sub(cx.cfg.retrain_epochs);
        let tail: Vec<(Vec<usize>, f64)> = cx.state.eval_history[recent..].to_vec();
        Self::train_guarded(cx, false, move |cx| {
            Self::train_components_on(cx, &sampled, true);
            // Anchor the predictor on real downstream results as well, so
            // estimated rewards cannot drift from evaluated ones.
            if use_predictor {
                Self::train_components_on(cx, &tail, false);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_interpolates() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }

    #[test]
    fn percentile_of_empty_is_nan_and_never_triggers() {
        let p = percentile(&[], 0.9);
        assert!(p.is_nan());
        // The trigger comparisons are strict `>`, so NaN can never fire:
        // it is unordered against every value.
        assert_eq!(1.0_f64.partial_cmp(&p), None);
    }

    #[test]
    fn percentile_single_element_is_constant() {
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn percentile_is_order_invariant() {
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.5), 3.0);
    }

    #[test]
    fn percentile_with_nans_is_order_invariant() {
        // NaN sorts last, so the median of {0.5, 1, 2, 3, NaN} is 2 in
        // every input order.
        for v in [
            [f64::NAN, 3.0, 1.0, 2.0, 0.5],
            [3.0, 1.0, f64::NAN, 2.0, 0.5],
            [0.5, 1.0, 2.0, 3.0, f64::NAN],
        ] {
            assert_eq!(percentile(&v, 0.5), 2.0, "{v:?}");
        }
        // 100 values with 15 NaNs in three orders.
        let base: Vec<f64> =
            (0..100).map(|i| if i % 7 == 0 { f64::NAN } else { f64::from(i * 37 % 101) }).collect();
        let reversed: Vec<f64> = base.iter().rev().copied().collect();
        let interleaved: Vec<f64> = (0..100).map(|i| base[(i * 43) % 100]).collect();
        for q in [0.1, 0.5, 0.8] {
            let expected = percentile(&base, q);
            assert!(expected.is_finite());
            for v in [&reversed, &interleaved] {
                assert_eq!(percentile(v, q).to_bits(), expected.to_bits(), "q {q}");
            }
        }
    }
}
