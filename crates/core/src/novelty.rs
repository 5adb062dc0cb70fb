//! The Novelty Estimator (§III-C): random network distillation over
//! transformation sequences.
//!
//! A frozen, orthogonally-initialised target network `ψ⊥` (gain 16.0 per
//! §V) maps sequences to scalars; the estimator `ψ` is trained to match it
//! on every sequence the framework has seen (Eq. 4). Sequences the
//! estimator has never trained on produce large prediction errors, so the
//! squared distillation error is the novelty score feeding Eq. 6's reward
//! bonus.

use crate::predictor::PredictorConfig;
use crate::scoring::{PrefixCache, ScoreStats};
use fastft_nn::SequenceRegressor;

/// RND novelty estimator: trained estimator + frozen orthogonal target.
#[derive(Debug, Clone)]
pub struct NoveltyEstimator {
    estimator: SequenceRegressor,
    target: SequenceRegressor,
    est_cache: PrefixCache,
    tgt_cache: PrefixCache,
}

impl NoveltyEstimator {
    /// Paper's orthogonal-initialisation scaling factor for the target net.
    pub const TARGET_GAIN: f64 = 16.0;

    /// Build for a vocabulary of `vocab` token ids. The estimator head is
    /// FC 16 → 4 → 1, the target head a single FC (both per §V).
    pub fn new(vocab: usize, cfg: PredictorConfig, seed: u64) -> Self {
        let estimator =
            SequenceRegressor::new(vocab, cfg.dim, cfg.dim, cfg.encoder, &[16, 4, 1], cfg.lr, seed);
        let target = SequenceRegressor::new_orthogonal_target(
            vocab,
            cfg.dim,
            cfg.dim,
            cfg.encoder.depth(),
            &[1],
            Self::TARGET_GAIN,
            seed.wrapping_add(0x5eed),
        );
        NoveltyEstimator {
            estimator,
            target,
            est_cache: PrefixCache::new(cfg.prefix_cache),
            tgt_cache: PrefixCache::new(cfg.prefix_cache),
        }
    }

    /// Novelty score of a sequence: squared distillation error
    /// `(ψ(T) − ψ⊥(T))²`. High on unseen structures, low on familiar ones.
    pub fn novelty(&self, seq: &[usize]) -> f64 {
        let mut e = [0.0];
        let mut t = [0.0];
        self.estimator.predict_into(seq, &mut e);
        self.target.predict_into(seq, &mut t);
        (e[0] - t[0]) * (e[0] - t[0])
    }

    /// [`novelty`], but reusing cached encoder prefix states for both
    /// networks. Bitwise identical to the uncached path.
    ///
    /// [`novelty`]: NoveltyEstimator::novelty
    pub fn novelty_cached(&mut self, seq: &[usize]) -> f64 {
        let mut e = [0.0];
        let mut t = [0.0];
        self.est_cache.score_into(&self.estimator, seq, &mut e);
        self.tgt_cache.score_into(&self.target, seq, &mut t);
        (e[0] - t[0]) * (e[0] - t[0])
    }

    /// One distillation step on a seen sequence (Eq. 4); returns the
    /// pre-update squared error.
    pub fn train_step(&mut self, seq: &[usize]) -> f64 {
        // The target is frozen, so its cache survives training; only the
        // estimator's states go stale.
        let mut t = [0.0];
        self.tgt_cache.score_into(&self.target, seq, &mut t);
        let loss = self.estimator.train_step(seq, &t);
        self.est_cache.invalidate();
        loss
    }

    /// Prefix-cache / batching counters, merged across both networks.
    pub fn stats(&self) -> ScoreStats {
        self.est_cache.stats().merge(&self.tgt_cache.stats())
    }

    /// Capture the estimator's weights + optimiser state (checkpoint
    /// export). The frozen target network is a pure function of the
    /// construction seed and is rebuilt, not captured; the prefix caches
    /// are wall-time optimisations and are likewise skipped.
    pub fn save_state(&mut self) -> fastft_nn::NetState {
        self.estimator.save_state()
    }

    /// Restore a snapshot taken on an identically-configured estimator.
    pub fn load_state(&mut self, state: &fastft_nn::NetState) -> Result<(), String> {
        self.estimator.load_state(state)?;
        self.est_cache.invalidate();
        Ok(())
    }

    /// Whether every trainable parameter is finite (NaN-gradient guard;
    /// the frozen target is finite by construction).
    pub fn params_finite(&mut self) -> bool {
        self.estimator.params_finite()
    }

    /// Parameter count of both networks.
    pub fn n_params(&self) -> usize {
        self.estimator.n_params() + self.target.n_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(seed: u64, n: usize, vocab: usize) -> Vec<Vec<usize>> {
        let mut rng = fastft_nn::init::rng(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(4..10);
                (0..len).map(|_| rng.gen_range(0..vocab / 2)).collect()
            })
            .collect()
    }

    #[test]
    fn training_reduces_novelty_of_seen_sequences() {
        let mut ne = NoveltyEstimator::new(
            20,
            PredictorConfig { dim: 16, lr: 5e-3, ..PredictorConfig::default() },
            1,
        );
        let seen = seqs(2, 12, 20);
        let before: f64 = seen.iter().map(|s| ne.novelty(s)).sum();
        for _ in 0..50 {
            for s in &seen {
                ne.train_step(s);
            }
        }
        let after: f64 = seen.iter().map(|s| ne.novelty(s)).sum();
        assert!(after < 0.2 * before, "before {before}, after {after}");
    }

    #[test]
    fn unseen_sequences_stay_more_novel() {
        let mut ne = NoveltyEstimator::new(
            20,
            PredictorConfig { dim: 16, lr: 5e-3, ..PredictorConfig::default() },
            3,
        );
        let seen = seqs(4, 12, 20);
        for _ in 0..60 {
            for s in &seen {
                ne.train_step(s);
            }
        }
        let seen_nov: f64 = seen.iter().map(|s| ne.novelty(s)).sum::<f64>() / seen.len() as f64;
        // Unseen sequences use the *other half* of the vocabulary, which the
        // estimator never trained on.
        let mut rng = fastft_nn::init::rng(5);
        let unseen: Vec<Vec<usize>> =
            (0..12).map(|_| (0..8).map(|_| rng.gen_range(10..20usize)).collect()).collect();
        let unseen_nov: f64 =
            unseen.iter().map(|s| ne.novelty(s)).sum::<f64>() / unseen.len() as f64;
        assert!(unseen_nov > 2.0 * seen_nov, "seen {seen_nov}, unseen {unseen_nov}");
    }

    #[test]
    fn save_load_round_trips_with_rebuilt_target() {
        let cfg = PredictorConfig { dim: 16, ..PredictorConfig::default() };
        let mut trained = NoveltyEstimator::new(20, cfg, 3);
        for s in seqs(4, 8, 20) {
            trained.train_step(&s);
        }
        let state = trained.save_state();
        // Same construction seed rebuilds the identical frozen target.
        let mut fresh = NoveltyEstimator::new(20, cfg, 3);
        fresh.load_state(&state).unwrap();
        let probe = vec![1, 2, 3, 4];
        assert_eq!(fresh.novelty(&probe), trained.novelty(&probe));
        assert_eq!(fresh.train_step(&probe), trained.train_step(&probe));
        assert_eq!(fresh.novelty(&probe), trained.novelty(&probe));
        assert!(fresh.params_finite());
    }

    #[test]
    fn novelty_is_nonnegative_and_deterministic() {
        let ne = NoveltyEstimator::new(10, PredictorConfig::default(), 7);
        let s = vec![1, 2, 3, 4];
        assert!(ne.novelty(&s) >= 0.0);
        assert_eq!(ne.novelty(&s), ne.novelty(&s));
    }
}
