//! The mutable state of one FASTFT run, owned by the
//! [`Driver`](crate::pipeline::Driver) and threaded through every stage.
//!
//! [`SearchState`] is the single home of everything a run mutates — agent
//! and component weights, the replay buffer, the RNG, histories, caches,
//! telemetry, the best-so-far result and the step trace. Checkpointing goes
//! through [`SearchState::snapshot`] / [`SearchState::restore`], which
//! destructure the state and the snapshot exhaustively: adding a field
//! without deciding how it persists is a compile error, not a
//! silently-forgotten piece of state.

use crate::agents::{CascadingAgents, MemoryUnit};
use crate::checkpoint::{self, Snapshot};
use crate::config::{FastFtConfig, COMPONENT_DIM};
use crate::expr::Expr;
use crate::lru::LruCache;
use crate::novelty::NoveltyEstimator;
use crate::novelty_metric::NoveltyTracker;
use crate::parse::parse_expr;
use crate::pipeline::{StepRecord, Telemetry};
use crate::predictor::{PerformancePredictor, PredictorConfig};
use crate::scoring::ScoreStats;
use crate::sequence::TokenVocab;
use crate::transform::FeatureSet;
use fastft_rl::PrioritizedReplay;
use fastft_tabular::rngx;
use fastft_tabular::rngx::StdRng;
use fastft_tabular::{Column, Dataset, FastFtError, FastFtResult};

/// Cap on the quarantine set: plenty for any realistic fault pattern,
/// while bounding memory if a dataset makes *every* candidate fault.
pub(crate) const QUARANTINE_CAPACITY: usize = 256;

/// Hidden width of the cascading agents' actor/critic/Q networks.
const AGENT_HIDDEN: usize = 64;
/// Learning rate of the cascading agents' networks.
const AGENT_LR: f64 = 5e-3;

/// Everything one run mutates, in one place.
///
/// Stages receive it through [`StageCx`](crate::pipeline::StageCx) and
/// mutate it directly; the driver owns it and snapshots it at episode
/// boundaries.
pub struct SearchState {
    /// Token vocabulary for sequence encoding (immutable, sized to the
    /// dataset).
    pub vocab: TokenVocab,
    /// The cascading head/operation/tail agents.
    pub agents: CascadingAgents,
    /// Performance Predictor (Eq. 3).
    pub predictor: PerformancePredictor,
    /// Novelty Estimator (Eq. 4, random network distillation).
    pub novelty: NoveltyEstimator,
    /// Replay buffer of transition memories.
    pub(crate) memory: PrioritizedReplay<MemoryUnit>,
    /// §VI-H novelty-distance tracker over feature-set embeddings.
    pub tracker: NoveltyTracker,
    /// The run's single RNG; consumption order defines the decision stream.
    pub rng: StdRng,
    /// Timing and counter telemetry accumulated so far.
    pub telemetry: Telemetry,
    /// Memoised downstream scores keyed by the canonical (order-invariant)
    /// feature-set key: revisiting a feature combination never pays for
    /// cross-validation twice within a run. Capacity-capped LRU so long
    /// runs cannot grow it without limit (`cfg.eval_cache_capacity`).
    pub eval_cache: LruCache<String, f64>,
    /// Downstream-evaluated (sequence, score) pairs for component training.
    pub eval_history: Vec<(Vec<usize>, f64)>,
    /// Rolling predicted-performance history for the α percentile trigger.
    pub pred_history: Vec<f64>,
    /// Rolling raw-novelty history for the β percentile trigger.
    pub nov_history: Vec<f64>,
    /// Welford running count of raw novelty, for intrinsic-reward
    /// normalisation (standard RND practice; DESIGN.md §4).
    pub nov_count: usize,
    /// Welford running mean of raw novelty.
    pub nov_mean: f64,
    /// Welford running sum of squared deviations of raw novelty.
    pub nov_m2: f64,
    /// Steps taken across all episodes (drives the novelty-weight decay).
    pub global_step: usize,
    /// Canonical keys of candidates whose downstream evaluation kept
    /// faulting. LRU-bounded so pathological data cannot grow it without
    /// limit; quarantined candidates are scored by the predictor instead.
    pub quarantine: LruCache<String, ()>,
    /// First episode the episode loop has yet to run.
    pub next_episode: usize,
    /// Downstream score of the original feature set (`NaN` until the
    /// driver's base evaluation or a restore sets it).
    pub base_score: f64,
    /// Best downstream-evaluated score so far (`NaN` until set with
    /// `base_score`).
    pub best_score: f64,
    /// The feature set achieving `best_score`.
    pub best_fs: FeatureSet,
    /// Per-step trace so far.
    pub records: Vec<StepRecord>,
    /// Best-so-far score after each completed episode.
    pub episode_best: Vec<f64>,
}

impl SearchState {
    /// Fresh state for a run of `cfg` over `data`. Component seeds are
    /// fixed offsets of `cfg.seed` so every stage draws from its own
    /// deterministic stream.
    pub fn new(cfg: &FastFtConfig, data: &Dataset) -> Self {
        let vocab = TokenVocab::new(data.n_features());
        let pc = PredictorConfig {
            dim: COMPONENT_DIM,
            encoder: cfg.encoder,
            prefix_cache: cfg.prefix_cache_capacity,
            ..PredictorConfig::default()
        };
        SearchState {
            vocab,
            agents: CascadingAgents::new(cfg.rl, AGENT_HIDDEN, AGENT_LR, cfg.seed),
            predictor: PerformancePredictor::new(vocab.size(), pc, cfg.seed.wrapping_add(11)),
            novelty: NoveltyEstimator::new(vocab.size(), pc, cfg.seed.wrapping_add(23)),
            memory: PrioritizedReplay::new(cfg.memory_size),
            tracker: NoveltyTracker::new(),
            rng: rngx::rng(cfg.seed.wrapping_add(37)),
            telemetry: Telemetry::default(),
            eval_cache: LruCache::new(cfg.eval_cache_capacity),
            eval_history: Vec::new(),
            pred_history: Vec::new(),
            nov_history: Vec::new(),
            nov_count: 0,
            nov_mean: 0.0,
            nov_m2: 0.0,
            global_step: 0,
            quarantine: LruCache::new(QUARANTINE_CAPACITY),
            next_episode: 0,
            base_score: f64::NAN,
            best_score: f64::NAN,
            best_fs: FeatureSet::from_original(data),
            records: Vec::new(),
            episode_best: Vec::new(),
        }
    }

    /// Prefix-cache and batching counters of the live component caches,
    /// cumulative since they were built. Events carry differences of these.
    pub(crate) fn score_stats(&self) -> ScoreStats {
        self.predictor.stats().merge(&self.novelty.stats())
    }

    /// Capture the complete run state at an episode boundary, with
    /// `total_secs` of wall time spent so far.
    ///
    /// Destructures `self` exhaustively: a new `SearchState` field fails to
    /// compile here until its persistence is decided.
    pub fn snapshot(&mut self, original: &Dataset, total_secs: f64) -> Snapshot {
        let SearchState {
            vocab: _, // derived from the dataset, rebuilt on restore
            agents,
            predictor,
            novelty,
            memory,
            tracker,
            rng,
            telemetry,
            eval_cache,
            eval_history,
            pred_history,
            nov_history,
            nov_count,
            nov_mean,
            nov_m2,
            global_step,
            quarantine,
            next_episode,
            base_score,
            best_score,
            best_fs,
            records,
            episode_best,
        } = self;
        let mut telemetry = *telemetry;
        telemetry.total_secs = total_secs;
        Snapshot {
            data_fingerprint: checkpoint::dataset_fingerprint(original),
            next_episode: *next_episode,
            global_step: *global_step,
            base_score: *base_score,
            best_score: *best_score,
            best_exprs: best_fs.exprs.iter().map(|e| e.to_string()).collect(),
            best_columns: best_fs.data.features.iter().map(|c| c.values.clone()).collect(),
            records: records.clone(),
            episode_best: episode_best.clone(),
            telemetry,
            rng: rng.state(),
            agents: agents.save_state(),
            predictor: predictor.save_state(),
            novelty: novelty.save_state(),
            replay: memory.clone(),
            tracker_history: tracker.history().to_vec(),
            tracker_seen: tracker.seen_keys_sorted().into_iter().map(String::from).collect(),
            eval_cache: eval_cache
                .entries_lru_to_mru()
                .into_iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            eval_history: eval_history.clone(),
            pred_history: pred_history.clone(),
            nov_history: nov_history.clone(),
            nov_count: *nov_count,
            nov_mean: *nov_mean,
            nov_m2: *nov_m2,
            quarantine: quarantine
                .entries_lru_to_mru()
                .into_iter()
                .map(|(k, ())| k.clone())
                .collect(),
        }
    }

    /// Load a checkpoint of a run over `data` into this freshly-built
    /// state. The frozen RND target and the prefix caches were already
    /// rebuilt by [`SearchState::new`]; everything else, including the best
    /// feature set, comes from the snapshot.
    ///
    /// Destructures the snapshot exhaustively, so a new snapshot field
    /// fails to compile here until it is restored. A snapshot of another
    /// dataset is [`FastFtError::InvalidData`], before any state changes.
    pub fn restore(
        &mut self,
        snap: Snapshot,
        cfg: &FastFtConfig,
        data: &Dataset,
    ) -> FastFtResult<()> {
        let bad = |what: &str, e: String| FastFtError::Parse(format!("checkpoint: {what}: {e}"));
        let Snapshot {
            data_fingerprint,
            next_episode,
            global_step,
            base_score,
            best_score,
            best_exprs,
            best_columns,
            records,
            episode_best,
            telemetry,
            rng,
            agents,
            predictor,
            novelty,
            replay,
            tracker_history,
            tracker_seen,
            eval_cache,
            eval_history,
            pred_history,
            nov_history,
            nov_count,
            nov_mean,
            nov_m2,
            quarantine,
        } = snap;
        if data_fingerprint != checkpoint::dataset_fingerprint(data) {
            return Err(FastFtError::InvalidData(
                "checkpoint was written for a different dataset (fingerprint mismatch)".into(),
            ));
        }
        self.best_fs = restore_feature_set(data, best_exprs, best_columns)?;
        self.rng = StdRng::from_state(rng);
        self.agents.load_state(&agents).map_err(|e| bad("agents", e))?;
        self.predictor.load_state(&predictor).map_err(|e| bad("predictor", e))?;
        self.novelty.load_state(&novelty).map_err(|e| bad("novelty estimator", e))?;
        self.memory = replay;
        self.tracker = NoveltyTracker::from_parts(tracker_history, tracker_seen);
        self.eval_cache = LruCache::new(cfg.eval_cache_capacity);
        for (k, v) in eval_cache {
            self.eval_cache.insert(k, v);
        }
        self.quarantine = LruCache::new(QUARANTINE_CAPACITY);
        for k in quarantine {
            self.quarantine.insert(k, ());
        }
        self.eval_history = eval_history;
        self.pred_history = pred_history;
        self.nov_history = nov_history;
        self.nov_count = nov_count;
        self.nov_mean = nov_mean;
        self.nov_m2 = nov_m2;
        self.telemetry = telemetry;
        self.global_step = global_step;
        self.next_episode = next_episode;
        self.base_score = base_score;
        self.best_score = best_score;
        self.records = records;
        self.episode_best = episode_best;
        Ok(())
    }
}

/// Rebuild a checkpointed feature set over `data`: expressions are
/// re-parsed and paired with their stored column values.
fn restore_feature_set(
    data: &Dataset,
    exprs: Vec<String>,
    columns: Vec<Vec<f64>>,
) -> FastFtResult<FeatureSet> {
    if exprs.len() != columns.len() {
        return Err(FastFtError::Parse(
            "checkpoint: best feature set has mismatched expression/column counts".into(),
        ));
    }
    let exprs: Vec<Expr> = exprs.iter().map(|e| parse_expr(e)).collect::<FastFtResult<_>>()?;
    let columns: Vec<Column> =
        exprs.iter().zip(columns).map(|(e, values)| Column::new(e.to_string(), values)).collect();
    let mut fs = FeatureSet::from_original(data);
    fs.data = data.with_features(columns)?;
    fs.exprs = exprs;
    Ok(fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::Decision;
    use fastft_tabular::persist::{Persist, Reader, Writer};

    fn unit(tag: f64) -> MemoryUnit {
        MemoryUnit {
            state: vec![tag],
            next_state: vec![tag + 0.5],
            reward: tag,
            head: Decision { candidates: vec![vec![tag]], action: 0 },
            op: Decision { candidates: vec![vec![tag]], action: 0 },
            tail: None,
            next_head_candidates: Vec::new(),
            seq: vec![tag as usize],
            perf: tag,
        }
    }

    /// Resume regression: the replay buffer must keep its TD-error
    /// priorities *and* slot order across save/restore, so an identically
    /// seeded RNG draws the same sample sequence before and after.
    #[test]
    fn prioritized_sampling_survives_save_restore() {
        let mut mem = PrioritizedReplay::new(16);
        for i in 0..10 {
            // Spread the TD errors so the priority weighting matters.
            mem.push(unit(i as f64), (i as f64 - 4.0) * 1.5);
        }
        // Round-trip through the checkpoint byte codec, exactly as a
        // save/resume cycle would.
        let mut w = Writer::new();
        mem.persist(&mut w);
        let bytes = w.into_bytes();
        let restored: PrioritizedReplay<MemoryUnit> =
            Persist::restore(&mut Reader::new(&bytes)).expect("decode");
        let mut rng_a = rngx::rng(99);
        let mut rng_b = rngx::rng(99);
        for draw in 0..64 {
            let a = mem.sample(&mut rng_a).expect("buffer non-empty");
            let b = restored.sample(&mut rng_b).expect("buffer non-empty");
            assert_eq!(a, b, "draw {draw} diverged after restore");
        }
        // The uniform pathway (−RCT replay, episode-end finetuning) must
        // match too.
        for draw in 0..16 {
            let a = mem.sample_uniform(&mut rng_a).expect("buffer non-empty");
            let b = restored.sample_uniform(&mut rng_b).expect("buffer non-empty");
            assert_eq!(a, b, "uniform draw {draw} diverged after restore");
        }
    }
}
