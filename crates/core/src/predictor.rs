//! The Performance Predictor `φ(T) → ℝ` (§III-C).
//!
//! A token-embedding + 2-layer-LSTM + feed-forward regressor that maps a
//! transformation sequence to predicted downstream performance, replacing
//! the expensive `A(T(F), y)` evaluation after the cold start. The paper's
//! architecture (§V): embedding dim 32, 2 stacked LSTM layers, FC head
//! 16 → 1.

use crate::scoring::{PrefixCache, ScoreStats};
use fastft_nn::{EncoderKind, SequenceRegressor};

/// Architecture hyperparameters for the predictor (and estimator encoder).
#[derive(Debug, Clone, Copy)]
pub struct PredictorConfig {
    /// Token-embedding / LSTM hidden width (paper: 32).
    pub dim: usize,
    /// Encoder variant (paper default: 2-layer LSTM; Fig. 8 swaps this).
    pub encoder: EncoderKind,
    /// Adam learning rate.
    pub lr: f64,
    /// Prefix-state cache capacity for cached scoring (0 = disabled).
    pub prefix_cache: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            dim: 32,
            encoder: EncoderKind::Lstm { layers: 2 },
            lr: 1e-3,
            prefix_cache: 256,
        }
    }
}

/// LSTM performance predictor.
#[derive(Debug, Clone)]
pub struct PerformancePredictor {
    net: SequenceRegressor,
    cache: PrefixCache,
}

impl PerformancePredictor {
    /// Build for a vocabulary of `vocab` token ids.
    pub fn new(vocab: usize, cfg: PredictorConfig, seed: u64) -> Self {
        // FC head 16 → 1 per the paper.
        let net =
            SequenceRegressor::new(vocab, cfg.dim, cfg.dim, cfg.encoder, &[16, 1], cfg.lr, seed);
        PerformancePredictor { net, cache: PrefixCache::new(cfg.prefix_cache) }
    }

    /// Predicted downstream performance ("pseudo-performance") of a token
    /// sequence.
    pub fn predict(&self, seq: &[usize]) -> f64 {
        let mut out = [0.0];
        self.net.predict_into(seq, &mut out);
        out[0]
    }

    /// [`predict`], but reusing cached encoder prefix states. Bitwise
    /// identical to the uncached path; only wall time changes.
    ///
    /// [`predict`]: PerformancePredictor::predict
    pub fn predict_cached(&mut self, seq: &[usize]) -> f64 {
        let mut out = [0.0];
        self.cache.score_into(&self.net, seq, &mut out);
        out[0]
    }

    /// Score several sequences in one call (`out[i]` ← prediction for
    /// `seqs[i]`), through the prefix cache when enabled.
    pub fn predict_batch(&mut self, seqs: &[&[usize]], out: &mut [f64]) {
        self.cache.score_batch_into(&self.net, seqs, out);
    }

    /// One MSE training step toward an observed performance; returns the
    /// pre-update loss (Eq. 3 summand).
    pub fn train_step(&mut self, seq: &[usize], performance: f64) -> f64 {
        let loss = self.net.train_step(seq, &[performance]);
        // Weights moved: every cached encoder state is stale.
        self.cache.invalidate();
        loss
    }

    /// Prefix-cache / batching counters.
    pub fn stats(&self) -> ScoreStats {
        self.cache.stats()
    }

    /// Capture network weights + optimiser state (checkpoint export). The
    /// prefix cache is a pure wall-time optimisation and is not captured.
    pub fn save_state(&mut self) -> fastft_nn::NetState {
        self.net.save_state()
    }

    /// Restore a snapshot taken on an identically-configured predictor.
    pub fn load_state(&mut self, state: &fastft_nn::NetState) -> Result<(), String> {
        self.net.load_state(state)?;
        self.cache.invalidate();
        Ok(())
    }

    /// Whether every network parameter is finite (NaN-gradient guard).
    pub fn params_finite(&mut self) -> bool {
        self.net.params_finite()
    }

    /// Parameter count (Fig. 11 memory accounting).
    pub fn n_params(&self) -> usize {
        self.net.n_params()
    }

    /// Parameter + activation memory estimate in bytes for a sequence of
    /// `seq_len` tokens (Fig. 11).
    pub fn memory_bytes(&self, seq_len: usize) -> usize {
        self.net.memory_bytes(seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic ground truth: performance = fraction of a marker token.
    fn perf_of(seq: &[usize]) -> f64 {
        seq.iter().filter(|&&t| t == 3).count() as f64 / seq.len() as f64
    }

    fn training_data(seed: u64) -> Vec<Vec<usize>> {
        let mut rng = fastft_nn::init::rng(seed);
        (0..30)
            .map(|_| {
                let len = rng.gen_range(4..12);
                (0..len).map(|_| rng.gen_range(0..10usize)).collect()
            })
            .collect()
    }

    #[test]
    fn predictor_learns_sequence_scores() {
        let mut p = PerformancePredictor::new(
            10,
            PredictorConfig { dim: 16, lr: 5e-3, ..PredictorConfig::default() },
            1,
        );
        let data = training_data(2);
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..40 {
            let mut total = 0.0;
            for seq in &data {
                total += p.train_step(seq, perf_of(seq));
            }
            if epoch == 0 {
                first = total;
            }
            last = total;
        }
        assert!(last < 0.3 * first, "first {first}, last {last}");
    }

    #[test]
    fn predict_is_deterministic() {
        let p = PerformancePredictor::new(8, PredictorConfig::default(), 3);
        assert_eq!(p.predict(&[1, 2, 3]), p.predict(&[1, 2, 3]));
    }

    #[test]
    fn save_load_round_trips() {
        let cfg = PredictorConfig { dim: 16, ..PredictorConfig::default() };
        let mut trained = PerformancePredictor::new(10, cfg, 1);
        for seq in training_data(2).iter().take(10) {
            trained.train_step(seq, perf_of(seq));
        }
        let state = trained.save_state();
        let mut fresh = PerformancePredictor::new(10, cfg, 9);
        assert_ne!(fresh.predict(&[1, 2, 3]), trained.predict(&[1, 2, 3]));
        fresh.load_state(&state).unwrap();
        assert_eq!(fresh.predict(&[1, 2, 3]), trained.predict(&[1, 2, 3]));
        // Subsequent training stays bitwise aligned (optimiser state too).
        assert_eq!(fresh.train_step(&[1, 2, 3], 0.5), trained.train_step(&[1, 2, 3], 0.5));
        assert_eq!(fresh.predict(&[3, 3]), trained.predict(&[3, 3]));
        assert!(fresh.params_finite());
    }

    #[test]
    fn memory_reporting_positive_and_monotone() {
        let p = PerformancePredictor::new(20, PredictorConfig::default(), 4);
        assert!(p.n_params() > 0);
        assert!(p.memory_bytes(50) > p.memory_bytes(5));
    }
}
