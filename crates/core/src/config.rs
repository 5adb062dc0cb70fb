//! FASTFT run configuration.
//!
//! Defaults follow §V "Hyperparameter and Reproducibility": 200 episodes ×
//! 15 steps, cold start through episode 10, evaluation components retrained
//! every 5 episodes, α = 10, β = 5, novelty weight 0.10 → 0.005 over 1000
//! steps, replay memory size 16. Harnesses scale the episode count down for
//! laptop runs (recorded in EXPERIMENTS.md).

use crate::agents::RlKind;
use fastft_ml::Evaluator;
use fastft_nn::EncoderKind;
use fastft_tabular::{FastFtError, FastFtResult};

/// Token-embedding and hidden width of the Performance Predictor and the
/// Novelty Estimator in a search (paper §V: 32).
pub const COMPONENT_DIM: usize = 32;

/// Largest accepted [`FastFtConfig::threads`]: a pool spawns its threads
/// up front, and the value may come from a flag or an untrusted checkpoint.
pub const MAX_THREADS: usize = 1024;

/// Feature-count cap as a multiple of the original width.
const MAX_FEATURES_FACTOR: f64 = 2.0;
/// Absolute feature-count cap.
const MAX_FEATURES_CAP: usize = 48;

/// Feature cap of a search over a dataset with `n_original` columns.
pub fn max_features(n_original: usize) -> usize {
    (((n_original as f64) * MAX_FEATURES_FACTOR) as usize)
        .max(n_original + 4)
        .clamp(4, MAX_FEATURES_CAP)
}

/// Full configuration of a FASTFT run.
#[derive(Debug, Clone)]
pub struct FastFtConfig {
    /// Exploration episodes (paper: 200).
    pub episodes: usize,
    /// Steps per episode (paper: 15).
    pub steps_per_episode: usize,
    /// Episodes of cold start with pure downstream evaluation (paper: 10).
    pub cold_start_episodes: usize,
    /// Fine-tune the evaluation components every this many episodes
    /// (paper: 5).
    pub retrain_every: usize,
    /// Samples drawn per fine-tuning round (Alg. 1/2's `K`).
    pub retrain_epochs: usize,
    /// Downstream-trigger percentile for predicted performance: top-α %
    /// triggers real evaluation (paper: 10).
    pub alpha: f64,
    /// Downstream-trigger percentile for novelty: top-β % triggers real
    /// evaluation (paper: 5).
    pub beta: f64,
    /// Initial novelty-reward weight ε_s (paper: 0.10).
    pub eps_start: f64,
    /// Final novelty-reward weight ε_e (paper: 0.005).
    pub eps_end: f64,
    /// Novelty-weight decay steps M (paper: 1000).
    pub decay_m: f64,
    /// Prioritized-replay memory size S (paper: 16).
    pub memory_size: usize,
    /// Downstream evaluator (model, metric, folds).
    pub evaluator: Evaluator,
    /// Capacity of the downstream-evaluation memo cache (canonical
    /// feature-set key → score). Long runs revisit feature combinations,
    /// so memoisation pays, but the cache must not grow without limit;
    /// least-recently-used entries are evicted past this capacity
    /// (`telemetry.cache_evictions` counts them). `0` disables the cap.
    pub eval_cache_capacity: usize,
    /// Master seed.
    pub seed: u64,
    /// Ablation: disable the Performance Predictor (FASTFT⁻ᴾᴾ — every step
    /// is evaluated downstream).
    pub use_predictor: bool,
    /// Ablation: disable the Novelty Estimator (FASTFT⁻ᴺᴱ — reward is
    /// performance-only and novelty never triggers evaluation).
    pub use_novelty: bool,
    /// Ablation: uniform instead of prioritized replay (FASTFT⁻ᴿᶜᵀ).
    pub prioritized_replay: bool,
    /// Sequence encoder of both evaluation components (Fig. 8).
    pub encoder: EncoderKind,
    /// RL framework of the cascading agents (Fig. 7).
    pub rl: RlKind,
    /// Worker-pool size for parallel hot paths (forest trees, CV folds, MI
    /// matrix). `0` means "resolve from `FASTFT_THREADS`, falling back to
    /// the machine's available parallelism". Results are byte-identical for
    /// a given seed regardless of this value. At most [`MAX_THREADS`].
    pub threads: usize,
    /// Write a crash-safe checkpoint every this many completed episodes
    /// (`0` disables checkpointing). Requires `checkpoint_path`.
    pub checkpoint_every: usize,
    /// Destination of the checkpoint file (written atomically via a
    /// temporary sibling + rename).
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Wall-clock budget in seconds, checked at step boundaries (`0.0` =
    /// unlimited). On exhaustion the run stops cleanly with
    /// `StopReason::WallClock` and the best-so-far result.
    pub max_wall_secs: f64,
    /// Downstream-evaluation budget, checked at step boundaries (`0` =
    /// unlimited). On exhaustion the run stops cleanly with
    /// `StopReason::EvalBudget`.
    pub max_downstream_evals: usize,
}

impl Default for FastFtConfig {
    fn default() -> Self {
        FastFtConfig {
            episodes: 200,
            steps_per_episode: 15,
            cold_start_episodes: 10,
            retrain_every: 5,
            retrain_epochs: 32,
            alpha: 10.0,
            beta: 5.0,
            eps_start: 0.10,
            eps_end: 0.005,
            decay_m: 1000.0,
            memory_size: 16,
            evaluator: Evaluator::default(),
            eval_cache_capacity: 1024,
            seed: 0,
            use_predictor: true,
            use_novelty: true,
            prioritized_replay: true,
            encoder: EncoderKind::Lstm { layers: 2 },
            rl: RlKind::ActorCritic,
            threads: 1,
            checkpoint_every: 0,
            checkpoint_path: None,
            max_wall_secs: 0.0,
            max_downstream_evals: 0,
        }
    }
}

impl FastFtConfig {
    /// A laptop-scale configuration used by tests and the quick harnesses:
    /// fewer episodes, same structure.
    pub fn quick() -> Self {
        FastFtConfig {
            episodes: 12,
            steps_per_episode: 8,
            cold_start_episodes: 3,
            retrain_every: 3,
            retrain_epochs: 16,
            ..FastFtConfig::default()
        }
    }

    /// The FASTFT⁻ᴾᴾ ablation of this configuration.
    pub fn without_predictor(mut self) -> Self {
        self.use_predictor = false;
        self
    }

    /// The FASTFT⁻ᴺᴱ ablation of this configuration.
    pub fn without_novelty(mut self) -> Self {
        self.use_novelty = false;
        self
    }

    /// The FASTFT⁻ᴿᶜᵀ ablation of this configuration.
    pub fn without_critical_replay(mut self) -> Self {
        self.prioritized_replay = false;
        self
    }

    /// Check the configuration's invariants. Build a custom configuration
    /// with struct-update syntax and validate it before use:
    /// `FastFtConfig { episodes: 20, ..FastFtConfig::default() }.validate()?`.
    /// Every run, fresh or resumed (after the override), checks it once,
    /// in [`crate::Session::new`], and returns the same error.
    pub fn validate(&self) -> FastFtResult<()> {
        let err = |m: String| Err(FastFtError::InvalidConfig(m));
        if self.episodes == 0 {
            return err("episodes must be >= 1".into());
        }
        if self.steps_per_episode == 0 {
            return err("steps_per_episode must be >= 1".into());
        }
        if !(0.0..=100.0).contains(&self.alpha) {
            return err(format!("alpha must be a percentile in [0, 100], got {}", self.alpha));
        }
        if !(0.0..=100.0).contains(&self.beta) {
            return err(format!("beta must be a percentile in [0, 100], got {}", self.beta));
        }
        if !self.eps_start.is_finite() || self.eps_start < 0.0 {
            return err(format!("eps_start must be finite and >= 0, got {}", self.eps_start));
        }
        if !self.eps_end.is_finite() || self.eps_end < 0.0 {
            return err(format!("eps_end must be finite and >= 0, got {}", self.eps_end));
        }
        if self.eps_end > self.eps_start {
            return err(format!(
                "eps decays downward: eps_end {} must not exceed eps_start {}",
                self.eps_end, self.eps_start
            ));
        }
        if self.decay_m.is_nan() || self.decay_m <= 0.0 {
            return err(format!("decay_m must be > 0, got {}", self.decay_m));
        }
        if self.memory_size == 0 {
            return err("memory_size must be >= 1 (zero-sized replay buffer)".into());
        }
        if self.evaluator.folds < 2 {
            return err(format!("evaluator.folds must be >= 2, got {}", self.evaluator.folds));
        }
        if self.threads > MAX_THREADS {
            return err(format!("threads must be <= {MAX_THREADS}, got {}", self.threads));
        }
        if self.checkpoint_every > 0 && self.checkpoint_path.is_none() {
            return err("checkpoint_every > 0 requires checkpoint_path".into());
        }
        if let Err(m) = self.encoder.validate(COMPONENT_DIM) {
            return err(format!("encoder: {m}"));
        }
        if !self.max_wall_secs.is_finite() || self.max_wall_secs < 0.0 {
            return err(format!(
                "max_wall_secs must be finite and >= 0 (0 = unlimited), got {}",
                self.max_wall_secs
            ));
        }
        Ok(())
    }
}

fastft_tabular::persist_struct! {
    FastFtConfig {
        episodes, steps_per_episode, cold_start_episodes, retrain_every, retrain_epochs, alpha,
        beta, eps_start, eps_end, decay_m, memory_size, evaluator, eval_cache_capacity, seed,
        use_predictor, use_novelty, prioritized_replay, encoder, rl, threads, checkpoint_every,
        checkpoint_path, max_wall_secs, max_downstream_evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FastFtConfig::default();
        assert_eq!(c.episodes, 200);
        assert_eq!(c.steps_per_episode, 15);
        assert_eq!(c.cold_start_episodes, 10);
        assert_eq!(c.retrain_every, 5);
        assert_eq!(c.alpha, 10.0);
        assert_eq!(c.beta, 5.0);
        assert_eq!(c.eps_start, 0.10);
        assert_eq!(c.eps_end, 0.005);
        assert_eq!(c.decay_m, 1000.0);
        assert_eq!(c.memory_size, 16);
    }

    #[test]
    fn max_features_bounds() {
        assert_eq!(max_features(10), 20);
        assert_eq!(max_features(40), 48); // capped
        assert!(max_features(2) >= 6);
    }

    /// `validate` on `FastFtConfig { ..default }` with the given fields.
    macro_rules! valid {
        ($($field:ident: $value:expr),* $(,)?) => {
            FastFtConfig { $($field: $value,)* ..FastFtConfig::default() }.validate().is_ok()
        };
    }

    #[test]
    fn validate_accepts_valid_and_rejects_invalid() {
        assert!(valid!(episodes: 20, threads: 8));
        assert!(!valid!(alpha: -1.0));
        assert!(!valid!(alpha: 101.0));
        assert!(!valid!(beta: 250.0));
        assert!(!valid!(eps_start: f64::NAN));
        assert!(!valid!(eps_start: 0.01, eps_end: 0.5));
        assert!(!valid!(memory_size: 0));
        assert!(!valid!(episodes: 0));
        assert!(!valid!(decay_m: 0.0));
        assert!(valid!(encoder: EncoderKind::Gru { layers: 1 }));
        assert!(valid!(encoder: EncoderKind::Transformer { heads: 4, blocks: 1 }));
        assert!(!valid!(encoder: EncoderKind::Lstm { layers: 0 }));
        assert!(!valid!(encoder: EncoderKind::Rnn { layers: 0 }));
        assert!(!valid!(encoder: EncoderKind::Transformer { heads: 0, blocks: 1 }));
        assert!(!valid!(encoder: EncoderKind::Transformer { heads: 5, blocks: 1 }));
    }

    #[test]
    fn validate_caps_threads() {
        // Checked through `validate` alone: building a pool from an
        // oversized value would spawn its threads.
        assert!(valid!(threads: 0));
        assert!(valid!(threads: MAX_THREADS));
        assert!(!valid!(threads: MAX_THREADS + 1));
        assert!(!valid!(threads: usize::MAX));
    }

    #[test]
    fn default_config_validates() {
        FastFtConfig::default().validate().unwrap();
        FastFtConfig::quick().validate().unwrap();
    }

    #[test]
    fn eval_cache_capacity_knob() {
        assert_eq!(FastFtConfig::default().eval_cache_capacity, 1024);
        assert!(valid!(eval_cache_capacity: 16));
        // 0 disables the cap (unbounded memoisation) and stays valid.
        assert!(valid!(eval_cache_capacity: 0));
    }

    #[test]
    fn robustness_knobs() {
        let c = FastFtConfig::default();
        assert_eq!(c.checkpoint_every, 0);
        assert!(c.checkpoint_path.is_none());
        assert_eq!(c.max_wall_secs, 0.0);
        assert_eq!(c.max_downstream_evals, 0);
        assert!(valid!(
            checkpoint_every: 5,
            checkpoint_path: Some("run.ckpt".into()),
            max_wall_secs: 30.0,
            max_downstream_evals: 100,
        ));
        // Cadence without a destination is a configuration error.
        assert!(!valid!(checkpoint_every: 5));
        assert!(!valid!(max_wall_secs: f64::NAN));
        assert!(!valid!(max_wall_secs: -1.0));
    }

    #[test]
    fn ablation_builders() {
        let c = FastFtConfig::default().without_predictor();
        assert!(!c.use_predictor && c.use_novelty && c.prioritized_replay);
        let c = FastFtConfig::default().without_novelty();
        assert!(c.use_predictor && !c.use_novelty);
        let c = FastFtConfig::default().without_critical_replay();
        assert!(!c.prioritized_replay);
    }
}
