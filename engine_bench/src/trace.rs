//! Layer spans recorded from outside the program: stage decorators around
//! the public stage traits, and observers that timestamp run events.
//!
//! The untraced run uses [`PlainObserver`] with the paper's stages as they
//! are. The traced run wraps every stage in [`Timed`] and attaches
//! [`TraceObserver`]; both write into one shared [`LayerTrace`].

use crate::stats::ScoreClock;
use fastft_core::agents::MemoryUnit;
use fastft_core::pipeline::{
    CandidateSource, Crossing, Learner, RewardModel, RunEvent, RunObserver, ScoreInput, Scored,
    Selection, StageCx, Survey, TelemetryCollector,
};
use fastft_core::FeatureSet;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Raw spans of one traced search, in seconds since the search began.
#[derive(Debug)]
pub struct LayerTrace {
    epoch: Instant,
    /// When `Driver::execute` was called.
    pub exec_entered: f64,
    /// When the base-score evaluation finished (before `RunStarted`).
    pub base_eval_end: Option<f64>,
    /// When `RunStarted` fired: the end of set-up.
    pub run_started: Option<f64>,
    /// `CandidateSource::survey` durations.
    pub survey: Vec<f64>,
    /// `CandidateSource::select` durations.
    pub select: Vec<f64>,
    /// `CandidateSource::apply` durations.
    pub apply: Vec<f64>,
    /// `apply` calls whose crossing produced a new feature.
    pub produced: usize,
    /// Sum of `score` self time (whole call minus evaluation spans).
    pub reward_self_secs: f64,
    /// Each downstream cross-validation inside `score`.
    pub evals: Vec<f64>,
    /// `Learner::absorb` durations.
    pub absorb: Vec<f64>,
    /// `train_cold_start` / `finetune` durations.
    pub train: Vec<f64>,
    /// Components rolled back by guarded training.
    pub rollbacks: usize,
    /// Gap from `EpisodeCompleted` to `CheckpointWritten`.
    pub ckpt_writes: Vec<f64>,
    episode_done: f64,
    clock: ScoreClock,
}

impl LayerTrace {
    /// Empty trace whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        LayerTrace {
            epoch,
            exec_entered: 0.0,
            base_eval_end: None,
            run_started: None,
            survey: Vec::new(),
            select: Vec::new(),
            apply: Vec::new(),
            produced: 0,
            reward_self_secs: 0.0,
            evals: Vec::new(),
            absorb: Vec::new(),
            train: Vec::new(),
            rollbacks: 0,
            ckpt_writes: Vec::new(),
            episode_done: 0.0,
            clock: ScoreClock::default(),
        }
    }

    /// Busy seconds of every timed layer. With the loop residue
    /// (`driver.other_s`) they add up to the search's wall time: `ml.eval`
    /// and `reward.self` split the `score` calls between them.
    pub fn busy(&self) -> [(&'static str, f64); 8] {
        let total = |v: &[f64]| v.iter().sum::<f64>();
        [
            ("ml.eval.busy_s", total(&self.evals)),
            ("reward.self_s", self.reward_self_secs),
            ("learner.train_s", total(&self.train)),
            ("learner.absorb_s", total(&self.absorb)),
            ("source.survey_s", total(&self.survey)),
            ("source.select_s", total(&self.select)),
            ("source.apply_s", total(&self.apply)),
            ("ckpt.write_s", total(&self.ckpt_writes)),
        ]
    }

    /// Seconds since `epoch`.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn on_event(&mut self, event: &RunEvent<'_>) {
        let t = self.now();
        match event {
            RunEvent::RunStarted { .. } => self.run_started = Some(t),
            RunEvent::DownstreamEvaluated { cache_hit, .. } => {
                if self.clock.active() {
                    self.clock.downstream(t, *cache_hit);
                } else if self.base_eval_end.is_none() {
                    self.base_eval_end = Some(t);
                }
            }
            RunEvent::PredictorCalled { .. } => self.clock.predictor_called(t),
            RunEvent::ComponentsTrained { rollbacks, .. } => self.rollbacks += rollbacks,
            RunEvent::EpisodeCompleted { .. } => self.episode_done = t,
            RunEvent::CheckpointWritten { .. } => self.ckpt_writes.push(t - self.episode_done),
            _ => {}
        }
    }
}

/// Shared handle to the trace of the current search.
pub type SharedTrace = Rc<RefCell<LayerTrace>>;

/// Times every call into the wrapped stage and records it in the trace.
pub struct Timed<T> {
    inner: T,
    trace: SharedTrace,
}

impl<T> Timed<T> {
    /// Wrap `inner`, recording into `trace`.
    pub fn new(inner: T, trace: &SharedTrace) -> Self {
        Timed { inner, trace: Rc::clone(trace) }
    }

    /// Run `f` and push its duration onto the series `pick` selects. The
    /// trace is not borrowed while `f` runs: the observer writes to it then.
    fn span<R>(
        &mut self,
        f: impl FnOnce(&mut T) -> R,
        pick: fn(&mut LayerTrace) -> &mut Vec<f64>,
    ) -> R {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let secs = t0.elapsed().as_secs_f64();
        pick(&mut self.trace.borrow_mut()).push(secs);
        out
    }
}

impl<S: CandidateSource> CandidateSource for Timed<S> {
    fn survey(&mut self, cx: &mut StageCx<'_>, fs: &FeatureSet, prev_state: &[f64]) -> Survey {
        self.span(|s| s.survey(cx, fs, prev_state), |t| &mut t.survey)
    }

    fn select(&mut self, cx: &mut StageCx<'_>, survey: &Survey) -> Selection {
        self.span(|s| s.select(cx, survey), |t| &mut t.select)
    }

    fn apply(
        &mut self,
        cx: &mut StageCx<'_>,
        fs: &mut FeatureSet,
        survey: &Survey,
        sel: &Selection,
    ) -> Crossing {
        let crossing = self.span(|s| s.apply(cx, fs, survey, sel), |t| &mut t.apply);
        self.trace.borrow_mut().produced += usize::from(crossing.produced);
        crossing
    }
}

impl<R: RewardModel> RewardModel for Timed<R> {
    fn score(&mut self, cx: &mut StageCx<'_>, input: ScoreInput<'_>) -> Scored {
        {
            let mut t = self.trace.borrow_mut();
            let now = t.now();
            t.clock.enter(now, input.cold);
        }
        let scored = self.inner.score(cx, input);
        let mut t = self.trace.borrow_mut();
        let now = t.now();
        let split = t.clock.exit(now).expect("score span was entered above");
        t.reward_self_secs += split.self_secs;
        t.evals.extend(split.evals);
        scored
    }
}

impl<L: Learner> Learner for Timed<L> {
    fn absorb(&mut self, cx: &mut StageCx<'_>, mem: MemoryUnit) {
        self.span(|l| l.absorb(cx, mem), |t| &mut t.absorb)
    }

    fn train_cold_start(&mut self, cx: &mut StageCx<'_>) {
        self.span(|l| l.train_cold_start(cx), |t| &mut t.train)
    }

    fn finetune(&mut self, cx: &mut StageCx<'_>) {
        self.span(|l| l.finetune(cx), |t| &mut t.train)
    }
}

/// Observer of the untraced run: timestamps `RunStarted` and counts events
/// for the correctness check, nothing else.
#[derive(Default)]
pub struct PlainObserver {
    /// When `RunStarted` fired.
    pub run_started: Option<Instant>,
    /// Counters rebuilt from the event stream.
    pub collector: TelemetryCollector,
}

impl RunObserver for PlainObserver {
    fn on_event(&mut self, event: &RunEvent<'_>) {
        if let RunEvent::RunStarted { .. } = event {
            self.run_started = Some(Instant::now());
        }
        self.collector.on_event(event);
    }
}

/// Observer of the traced run: feeds every event into the shared trace.
pub struct TraceObserver {
    /// The trace the stage decorators also write to.
    pub trace: SharedTrace,
    /// Counters rebuilt from the event stream.
    pub collector: TelemetryCollector,
}

impl RunObserver for TraceObserver {
    fn on_event(&mut self, event: &RunEvent<'_>) {
        self.trace.borrow_mut().on_event(event);
        self.collector.on_event(event);
    }
}
