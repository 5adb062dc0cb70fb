//! The staged FASTFT run pipeline (DESIGN.md §11).
//!
//! A run decomposes into explicit layers:
//!
//! * [`SearchState`] — every piece of mutable run state, in one struct.
//!   Checkpointing destructures it exhaustively, so state can't be added
//!   without deciding how it persists.
//! * Stage traits ([`CandidateSource`], [`RewardModel`], [`Learner`]) —
//!   the paper's three roles as stateless strategies over a [`StageCx`];
//!   [`CascadeSource`], [`AdaptiveRewardModel`] and [`ReplayLearner`] are
//!   the paper's implementations.
//! * [`Driver`] — the thin deterministic episode/step loop composing the
//!   stages. It owns RNG-consumption order, so every composition (full
//!   method, ablations, resumes) shares one decision stream.
//! * [`RunEvent`] / [`RunObserver`] — a passive narration of the run;
//!   [`TelemetryCollector`] reconstructs the deterministic telemetry
//!   counters purely from events.
//! * [`Session`] — the one place a run starts: it validates the
//!   configuration once, owns one shared
//!   [`Runtime`](fastft_runtime::Runtime), and runs or resumes any number
//!   of datasets over it with an observer attached. The driver's
//!   [`execute`](Driver::execute) and [`resume`](Driver::resume) check the
//!   data before any work, so a custom-stage driver gets the same guards.
//!
//! [`FastFt`](crate::FastFt)'s `fit` and `resume` are one-line calls into
//! [`Session`]; the refactor from the former monolithic engine is
//! bitwise-invisible — identical results, step records and checkpoint
//! bytes for fixed seeds (pinned by the `pipeline_parity` golden-trace
//! test).

pub mod driver;
pub mod event;
pub mod search_state;
pub mod session;
pub mod stages;

pub use driver::Driver;
pub use event::{NullObserver, RunEvent, RunObserver, TelemetryCollector};
pub use search_state::SearchState;
pub use session::Session;
pub use stages::{
    AdaptiveRewardModel, CandidateSource, CascadeSource, Crossing, Learner, ReplayLearner,
    RewardModel, ScoreInput, Scored, Selection, StageCx, Survey,
};

use crate::expr::Expr;
use fastft_tabular::Dataset;

/// Per-step trace of a run (Figs. 14–15, debugging, case studies).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Episode index.
    pub episode: usize,
    /// Step within the episode.
    pub step: usize,
    /// Reward fed to the agents.
    pub reward: f64,
    /// Performance associated with the step (predicted or evaluated).
    pub score: f64,
    /// Whether `score` came from the predictor rather than a downstream run.
    pub predicted: bool,
    /// RND novelty of the step's sequence (0 when the estimator is off).
    pub novelty: f64,
    /// §VI-H novelty distance of the feature-set embedding.
    pub novelty_distance: f64,
    /// Whether the feature combination was never generated before.
    pub new_combination: bool,
    /// Feature count after the step.
    pub n_features: usize,
    /// Traceable expressions added this step.
    pub new_exprs: Vec<String>,
}

fastft_tabular::persist_struct! {
    StepRecord {
        episode, step, reward, score, predicted, novelty, novelty_distance, new_combination,
        n_features, new_exprs,
    }
}

/// Wall-clock decomposition matching Table II's rows, plus the run's
/// counters.
///
/// The `*_secs` fields are accumulated directly by the code they time. The
/// counter fields change only in [`Telemetry::record`], from the run's
/// [`RunEvent`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Telemetry {
    /// Agent/critic updates ("Optimization").
    pub optimization_secs: f64,
    /// Predictor/estimator forward passes and training ("Estimation").
    pub estimation_secs: f64,
    /// Downstream-task evaluations ("Evaluation").
    pub evaluation_secs: f64,
    /// Whole `fit` duration ("Overall").
    pub total_secs: f64,
    /// Number of downstream evaluations performed.
    pub downstream_evals: usize,
    /// Number of predictor/estimator inference calls.
    pub predictor_calls: usize,
    /// Downstream evaluations answered from the canonical-key memo cache
    /// instead of re-running cross-validation.
    pub cache_hits: usize,
    /// Memo-cache entries evicted to respect
    /// [`FastFtConfig::eval_cache_capacity`](crate::FastFtConfig::eval_cache_capacity).
    pub cache_evictions: usize,
    /// Wall time inside Performance-Predictor inference (subset of
    /// `estimation_secs`).
    pub predictor_secs: f64,
    /// Wall time inside Novelty-Estimator inference (subset of
    /// `estimation_secs`).
    pub novelty_secs: f64,
    /// Scoring calls answered from a cached encoder prefix state.
    pub prefix_hits: u64,
    /// Scoring calls that encoded their sequence from scratch.
    pub prefix_misses: u64,
    /// Prefix-cache states evicted to respect
    /// [`PREFIX_CACHE_CAPACITY`](crate::scoring::PREFIX_CACHE_CAPACITY).
    pub prefix_evictions: u64,
    /// Downstream evaluations that faulted — panicked, returned a typed
    /// evaluation error, or produced a non-finite score — counting retries.
    pub eval_faults: usize,
    /// Candidates quarantined after exhausting the retries a faulting
    /// evaluation is granted.
    pub quarantined: usize,
    /// Component-training rounds rolled back because they panicked or left
    /// non-finite weights (one count per rolled-back component).
    pub weight_rollbacks: usize,
}

impl Telemetry {
    /// Count one event. This is the only code that changes a counter
    /// field: [`StageCx::emit`] applies it to the run's own telemetry and
    /// [`TelemetryCollector`] to its copy, so the two cannot disagree.
    pub fn record(&mut self, event: &RunEvent<'_>) {
        let scoring = match *event {
            RunEvent::DownstreamEvaluated { cache_hit: true, .. } => {
                self.cache_hits += 1;
                return;
            }
            RunEvent::DownstreamEvaluated { cache_hit: false, evicted, faulted } => {
                self.downstream_evals += 1;
                self.cache_evictions += usize::from(evicted);
                self.eval_faults += usize::from(faulted);
                return;
            }
            RunEvent::CandidateQuarantined => {
                self.quarantined += 1;
                return;
            }
            RunEvent::PredictorCalled { calls, scoring } => {
                self.predictor_calls += calls;
                scoring
            }
            RunEvent::ComponentsTrained { rollbacks, scoring, .. } => {
                self.weight_rollbacks += rollbacks;
                scoring
            }
            _ => return,
        };
        self.prefix_hits += scoring.prefix_hits;
        self.prefix_misses += scoring.prefix_misses;
        self.prefix_evictions += scoring.evictions;
    }
}

fastft_tabular::persist_struct! {
    Telemetry {
        optimization_secs, estimation_secs, evaluation_secs, total_secs, downstream_evals,
        predictor_calls, cache_hits, cache_evictions, predictor_secs, novelty_secs, prefix_hits,
        prefix_misses, prefix_evictions, eval_faults, quarantined, weight_rollbacks,
    }
}

/// Why a run returned (all variants return the best-so-far result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// All configured episodes ran.
    Completed,
    /// [`FastFtConfig::max_wall_secs`](crate::FastFtConfig::max_wall_secs)
    /// was exhausted at a step boundary.
    WallClock,
    /// [`FastFtConfig::max_downstream_evals`](crate::FastFtConfig::max_downstream_evals)
    /// was exhausted at a step boundary.
    EvalBudget,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::Completed => "completed",
            StopReason::WallClock => "wall-clock budget",
            StopReason::EvalBudget => "evaluation budget",
        })
    }
}

/// Result of a FASTFT run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Downstream score of the original feature set.
    pub base_score: f64,
    /// Best downstream-evaluated score found.
    pub best_score: f64,
    /// The dataset achieving `best_score`.
    pub best_dataset: Dataset,
    /// Traceable expressions of the best feature set.
    pub best_exprs: Vec<Expr>,
    /// Per-step trace.
    pub records: Vec<StepRecord>,
    /// Best-so-far downstream score after each episode (Fig. 7 curves).
    pub episode_best: Vec<f64>,
    /// Timing decomposition (Table II).
    pub telemetry: Telemetry,
    /// Why the run returned (completed, or which budget stopped it).
    pub stop_reason: StopReason,
}
