//! The deterministic episode/step loop over composed stages.
//!
//! [`Driver`] owns a [`SearchState`] and three stage strategies, and runs
//! the paper's outer loop: survey → (absorb pending memory) → select →
//! cross → score → record, with component training, best tracking and
//! crash-safe checkpointing at episode boundaries. The loop itself makes
//! no learning decisions — those live in the stages — but it *is* the
//! single owner of RNG-consumption order, which is what makes every
//! composition of stages (full method, ablations, resumed runs) share one
//! decision stream.
//!
//! Both ways into the loop, [`Driver::execute`] and [`Driver::resume`],
//! reject degenerate data before any work, custom stages included.

use crate::agents::{Decision, MemoryUnit};
use crate::checkpoint::{self, Snapshot};
use crate::config::FastFtConfig;
use crate::pipeline::event::{RunEvent, RunObserver};
use crate::pipeline::search_state::SearchState;
use crate::pipeline::stages::{
    AdaptiveRewardModel, CandidateSource, CascadeSource, Learner, ReplayLearner, RewardModel,
    ScoreInput, StageCx, MAX_SEQ_LEN,
};
use crate::pipeline::{RunResult, StepRecord, StopReason};
use crate::sequence::{canonical_key, encode_feature_set};
use crate::state;
use crate::transform::FeatureSet;
use fastft_runtime::Runtime;
use fastft_tabular::{Dataset, FastFtError, FastFtResult};
use std::time::Instant;

/// Degenerate-input guards of every run start: inputs that would
/// otherwise surface as panics or NaN scores deep inside a run are rejected
/// up front with [`FastFtError::InvalidData`].
fn validate_data(data: &Dataset) -> FastFtResult<()> {
    let name = &data.name;
    let problem = if data.n_features() == 0 {
        format!("dataset '{name}' has no feature columns")
    } else if data.n_rows() < 2 {
        let n = data.n_rows();
        format!("dataset '{name}' has {n} row(s); cross-validated evaluation needs at least 2")
    } else if let Some(c) = data.features.iter().find(|c| c.values.iter().any(|v| !v.is_finite())) {
        format!(
            "feature column '{}' contains non-finite values; call Dataset::sanitize() first",
            c.name
        )
    } else if data.targets.iter().any(|t| !t.is_finite()) {
        format!("dataset '{name}' has non-finite target values")
    } else {
        return Ok(());
    };
    Err(FastFtError::InvalidData(problem))
}

/// Which run budget, if any, is exhausted at this step boundary. Pure
/// bookkeeping — no RNG is consumed — so a budget-stopped run stays on
/// the same decision stream as an uninterrupted one up to the stop.
fn budget_reason(
    cfg: &FastFtConfig,
    state: &SearchState,
    t_start: Instant,
    prior_secs: f64,
) -> Option<StopReason> {
    if cfg.max_downstream_evals > 0 && state.telemetry.downstream_evals >= cfg.max_downstream_evals
    {
        return Some(StopReason::EvalBudget);
    }
    if cfg.max_wall_secs > 0.0 && prior_secs + t_start.elapsed().as_secs_f64() >= cfg.max_wall_secs
    {
        return Some(StopReason::WallClock);
    }
    None
}

/// The staged FASTFT run loop.
///
/// Generic over its three stage roles with the paper's implementations as
/// defaults; `Driver::new` composes the full method, ablation and baseline
/// variants compose the same loop with different stages or configurations.
pub struct Driver<'a, S = CascadeSource, R = AdaptiveRewardModel, L = ReplayLearner> {
    cfg: &'a FastFtConfig,
    original: &'a Dataset,
    runtime: &'a Runtime,
    /// The run's mutable state.
    pub state: SearchState,
    source: S,
    reward: R,
    learner: L,
}

impl<'a> Driver<'a> {
    /// Compose the paper's stages over a fresh [`SearchState`].
    pub fn new(cfg: &'a FastFtConfig, data: &'a Dataset, runtime: &'a Runtime) -> Self {
        Driver::with_stages(cfg, data, runtime, CascadeSource, AdaptiveRewardModel, ReplayLearner)
    }
}

impl<'a, S: CandidateSource, R: RewardModel, L: Learner> Driver<'a, S, R, L> {
    /// Compose custom stages over a fresh [`SearchState`].
    pub fn with_stages(
        cfg: &'a FastFtConfig,
        data: &'a Dataset,
        runtime: &'a Runtime,
        source: S,
        reward: R,
        learner: L,
    ) -> Self {
        Driver {
            cfg,
            original: data,
            runtime,
            state: SearchState::new(cfg, data),
            source,
            reward,
            learner,
        }
    }

    /// Run from scratch: check the data, evaluate the base score, then
    /// enter the episode loop at episode 0.
    pub fn execute(mut self, observer: &mut dyn RunObserver) -> FastFtResult<RunResult> {
        validate_data(self.original)?;
        let t_start = Instant::now();
        let base_key = canonical_key(&self.state.best_fs.exprs);
        let base_score = StageCx {
            cfg: self.cfg,
            original: self.original,
            runtime: self.runtime,
            state: &mut self.state,
            observer,
        }
        .evaluate_downstream(self.original, Some(&base_key))?;
        self.state.base_score = base_score;
        self.state.best_score = base_score;
        // The base evaluation counts toward the run's wall time.
        self.state.telemetry.total_secs = t_start.elapsed().as_secs_f64();
        self.run_episodes(observer)
    }

    /// Continue a checkpointed run: check the data, load `snap` into the
    /// state (which checks its dataset fingerprint), then enter the same
    /// episode loop at the checkpointed boundary — one code path, and one
    /// decision stream, for both.
    pub fn resume(
        mut self,
        snap: Snapshot,
        observer: &mut dyn RunObserver,
    ) -> FastFtResult<RunResult> {
        validate_data(self.original)?;
        self.state.restore(snap, self.cfg, self.original)?;
        self.run_episodes(observer)
    }

    /// The episode loop, from `state.next_episode` to the configured end
    /// or the first exhausted budget.
    fn run_episodes(self, observer: &mut dyn RunObserver) -> FastFtResult<RunResult> {
        let t_start = Instant::now();
        let Driver { cfg, original, runtime, mut state, mut source, mut reward, mut learner } =
            self;
        let mut cx = StageCx { cfg, original, runtime, state: &mut state, observer };
        let start_episode = cx.state.next_episode;
        cx.emit(RunEvent::RunStarted { episode: start_episode });
        // Wall time spent before the loop: the base evaluation of a fresh
        // run, everything up to the checkpoint for a resumed one.
        let prior_secs = cx.state.telemetry.total_secs;
        let mut stop = StopReason::Completed;

        'episodes: for episode in start_episode..cfg.episodes {
            let cold = episode < cfg.cold_start_episodes || !cfg.use_predictor;
            cx.emit(RunEvent::EpisodeStarted { episode, cold });
            let mut fs = FeatureSet::from_original(original);
            let mut prev_v = cx.state.base_score;
            let mut prev_seq = encode_feature_set(&fs.exprs, &cx.state.vocab, MAX_SEQ_LEN);
            let mut prev_state = state::rep_overall(&fs.data);
            // Pending memory from the previous step, waiting for its
            // next-step head candidates before insertion.
            let mut pending: Option<MemoryUnit> = None;

            for step in 0..cfg.steps_per_episode {
                if let Some(reason) = budget_reason(cfg, cx.state, t_start, prior_secs) {
                    stop = reason;
                    break 'episodes;
                }
                cx.state.global_step += 1;

                // --- candidate source ----------------------------------
                let survey = source.survey(&mut cx, &fs, &prev_state);
                // Complete the previous step's memory with this step's head
                // candidates, then insert and learn — *before* the head
                // selection, so replay sampling and action selection keep
                // their relative order on the RNG stream.
                if let Some(mut mem) = pending.take() {
                    mem.next_head_candidates = survey.head_cands.clone();
                    learner.absorb(&mut cx, mem);
                }
                let sel = source.select(&mut cx, &survey);
                let crossing = source.apply(&mut cx, &mut fs, &survey, &sel);
                let (nov_dist, new_comb) =
                    cx.state.tracker.observe(crossing.next_state.clone(), &crossing.key);

                // --- reward model --------------------------------------
                let scored = reward.score(
                    &mut cx,
                    ScoreInput {
                        episode,
                        cold,
                        data: &fs.data,
                        key: &crossing.key,
                        seq: &crossing.seq,
                        prev_seq: &prev_seq,
                        prev_v,
                    },
                );
                // Penalise steps that generated nothing new.
                let reward_val =
                    if crossing.produced { scored.reward } else { scored.reward - 0.05 };

                // Best tracking: only real downstream evaluations count.
                if !scored.predicted && scored.v > cx.state.best_score {
                    cx.state.best_score = scored.v;
                    cx.state.best_fs = fs.clone();
                }

                // --- memory --------------------------------------------
                let mem = MemoryUnit {
                    state: prev_state.clone(),
                    next_state: crossing.next_state.clone(),
                    reward: reward_val,
                    head: Decision { candidates: survey.head_cands, action: sel.head_idx },
                    op: Decision { candidates: sel.op_cands, action: sel.op_idx },
                    tail: sel.tail.map(|(cands, idx)| Decision { candidates: cands, action: idx }),
                    next_head_candidates: Vec::new(),
                    seq: crossing.seq.clone(),
                    perf: scored.v,
                };
                pending = Some(mem);

                let record = StepRecord {
                    episode,
                    step,
                    reward: reward_val,
                    score: scored.v,
                    predicted: scored.predicted,
                    novelty: scored.novelty,
                    novelty_distance: nov_dist,
                    new_combination: new_comb,
                    n_features: fs.n_features(),
                    new_exprs: crossing.new_exprs,
                };
                cx.emit(RunEvent::StepCompleted { record: &record });
                cx.state.records.push(record);

                prev_v = scored.v;
                prev_seq = crossing.seq;
                prev_state = crossing.next_state;
            }
            // Episode end: flush the pending memory (terminal transition).
            if let Some(mem) = pending.take() {
                learner.absorb(&mut cx, mem);
            }

            // --- component training -------------------------------------
            let cold_start_end = episode + 1 == cfg.cold_start_episodes;
            let retrain_due = episode + 1 > cfg.cold_start_episodes
                && cfg.retrain_every > 0
                && (episode + 1 - cfg.cold_start_episodes).is_multiple_of(cfg.retrain_every);
            let components_active = cfg.use_predictor || cfg.use_novelty;
            if components_active && cold_start_end {
                learner.train_cold_start(&mut cx);
            } else if components_active && retrain_due {
                learner.finetune(&mut cx);
            }

            let best_score = cx.state.best_score;
            cx.state.episode_best.push(best_score);
            cx.state.next_episode = episode + 1;
            cx.emit(RunEvent::EpisodeCompleted { episode, best_score });

            // Crash-safe checkpoint at the episode boundary. Absolute
            // episode numbering keeps the cadence stable across resumes.
            if cfg.checkpoint_every > 0 && (episode + 1).is_multiple_of(cfg.checkpoint_every) {
                if let Some(path) = cfg.checkpoint_path.clone() {
                    let total = prior_secs + t_start.elapsed().as_secs_f64();
                    let snap = cx.state.snapshot(original, total);
                    checkpoint::write(&path, cfg, &snap)?;
                    cx.emit(RunEvent::CheckpointWritten { next_episode: episode + 1 });
                }
            }
        }

        cx.state.telemetry.total_secs = prior_secs + t_start.elapsed().as_secs_f64();
        cx.emit(RunEvent::RunCompleted { stop, best_score: cx.state.best_score });
        let SearchState {
            base_score, best_score, best_fs, records, episode_best, telemetry, ..
        } = state;
        Ok(RunResult {
            base_score,
            best_score,
            best_dataset: best_fs.data,
            best_exprs: best_fs.exprs,
            records,
            episode_best,
            telemetry,
            stop_reason: stop,
        })
    }
}
