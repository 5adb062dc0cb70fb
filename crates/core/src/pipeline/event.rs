//! Run lifecycle events and observers.
//!
//! The [`Driver`](crate::pipeline::Driver) and the stages it coordinates
//! narrate a run as a stream of [`RunEvent`]s delivered to a
//! [`RunObserver`]. Observers are strictly passive: they cannot influence
//! the decision stream, so attaching one never changes what a run computes.
//! Events are also the run's only source of counts: [`Telemetry::record`]
//! turns each event into counter increments, both for the run's own
//! telemetry and for [`TelemetryCollector`].

use crate::pipeline::{StepRecord, StopReason, Telemetry};
use crate::scoring::ScoreStats;

/// One moment in a run's life, emitted by the driver or a stage.
///
/// Borrowed payloads (like [`StepRecord`]s) point into the run's live
/// state; observers that need them beyond the callback must clone.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunEvent<'a> {
    /// The episode loop is about to start (`episode` is 0 for a fresh run,
    /// the checkpointed boundary for a resumed one).
    RunStarted {
        /// First episode the loop will execute.
        episode: usize,
    },
    /// An episode began.
    EpisodeStarted {
        /// Episode index.
        episode: usize,
        /// Whether rewards come from real downstream evaluation (Eq. 5)
        /// rather than the Performance Predictor (Eq. 6).
        cold: bool,
    },
    /// A downstream evaluation was requested.
    DownstreamEvaluated {
        /// Answered from the canonical-key memo cache (no cross-validation
        /// ran).
        cache_hit: bool,
        /// Storing the fresh score evicted an older memo-cache entry.
        evicted: bool,
        /// The evaluation faulted (panic, typed error or non-finite score)
        /// and will retry or quarantine.
        faulted: bool,
    },
    /// A candidate exhausted its evaluation retries and joined the
    /// quarantine set; the step falls back to the predictor.
    CandidateQuarantined,
    /// The predictor/estimator networks ran inference.
    PredictorCalled {
        /// Number of inference calls issued.
        calls: usize,
        /// Prefix-cache and batching counters these calls added.
        scoring: ScoreStats,
    },
    /// A step finished; `record` is its full trace.
    StepCompleted {
        /// The step's trace (clone to retain).
        record: &'a StepRecord,
    },
    /// A component-training round ran (cold-start or periodic fine-tune).
    ComponentsTrained {
        /// Initial cold-start training (Alg. 1) vs. periodic fine-tuning
        /// (Alg. 2).
        cold_start: bool,
        /// Components rolled back because the round panicked or produced
        /// non-finite weights.
        rollbacks: usize,
        /// Prefix-cache counters the round added (distillation targets are
        /// scored through the frozen target network's cache).
        scoring: ScoreStats,
    },
    /// An episode finished.
    EpisodeCompleted {
        /// Episode index.
        episode: usize,
        /// Best downstream-evaluated score so far.
        best_score: f64,
    },
    /// A crash-safe checkpoint was written at an episode boundary.
    CheckpointWritten {
        /// Episode the checkpoint will resume from.
        next_episode: usize,
    },
    /// The run returned.
    RunCompleted {
        /// Why the run returned.
        stop: StopReason,
        /// Final best downstream-evaluated score.
        best_score: f64,
    },
}

/// Passive receiver of [`RunEvent`]s.
pub trait RunObserver {
    /// Called once per event, in emission order.
    fn on_event(&mut self, event: &RunEvent<'_>);
}

/// Observer that ignores every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn on_event(&mut self, _event: &RunEvent<'_>) {}
}

/// Rebuilds the deterministic [`Telemetry`] counters from the event stream
/// alone, through the same [`Telemetry::record`] the run counts with.
///
/// Wall-clock fields stay zero (events carry no timings). For a run started
/// from scratch the counter fields equal the run's own telemetry — asserted
/// by `observer_counters_match_telemetry` in the engine tests. A resumed
/// run starts from the checkpoint's telemetry and the collector sees only
/// the resumed leg's events, so each counter is what that leg added:
/// collector + checkpoint telemetry = the resumed run's telemetry.
#[derive(Debug, Default, Clone)]
pub struct TelemetryCollector {
    telemetry: Telemetry,
    steps: usize,
    episodes: usize,
    checkpoints: usize,
}

impl TelemetryCollector {
    /// Fresh collector with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters reconstructed so far (timing fields are always zero).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Steps completed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Episodes completed.
    pub fn episodes(&self) -> usize {
        self.episodes
    }

    /// Checkpoints written.
    pub fn checkpoints(&self) -> usize {
        self.checkpoints
    }
}

impl RunObserver for TelemetryCollector {
    fn on_event(&mut self, event: &RunEvent<'_>) {
        self.telemetry.record(event);
        match event {
            RunEvent::StepCompleted { .. } => self.steps += 1,
            RunEvent::EpisodeCompleted { .. } => self.episodes += 1,
            RunEvent::CheckpointWritten { .. } => self.checkpoints += 1,
            _ => {}
        }
    }
}
