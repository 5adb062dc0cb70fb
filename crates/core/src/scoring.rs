//! Prefix-cached sequence scoring for the predictor/estimator hot path.
//!
//! The engine scores token sequences that grow by suffix extension: each
//! episode step appends a few tokens to the previous step's sequence and
//! re-scores it. [`PrefixCache`] memoises recurrent encoder states
//! ([`EncoderState`]) keyed on token prefixes in an [`LruCache`], so an
//! extended sequence only runs the encoder over the new suffix. Because the
//! fused kernels in `fastft-nn` use one fixed summation order everywhere,
//! prefix-resumed scoring is **bitwise identical** to a cold
//! [`SequenceRegressor::predict`] — caching changes wall time, never
//! results.

use crate::lru::LruCache;
use fastft_nn::{EncoderState, SequenceRegressor};

/// Encoder states one [`PrefixCache`] holds before it evicts the least
/// recently used.
pub const PREFIX_CACHE_CAPACITY: usize = 256;
// `LruCache::new(0)` means unbounded, so a zero here would quietly lift the
// bound instead of disabling the cache.
const _: () = assert!(PREFIX_CACHE_CAPACITY > 0);

/// Prefix-cache counters. `Copy` so run events can carry the counters one
/// call added.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScoreStats {
    /// Scoring calls that reused a cached (full or partial) prefix state.
    pub prefix_hits: u64,
    /// Scoring calls that ran the encoder from scratch.
    pub prefix_misses: u64,
    /// Encoder states dropped to respect the cache capacity.
    pub evictions: u64,
}

impl ScoreStats {
    /// Element-wise sum of two counter sets.
    pub fn merge(&self, other: &ScoreStats) -> ScoreStats {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference `self − earlier`: the counters added since
    /// `earlier` was read from the same (monotone) counter set.
    pub(crate) fn since(&self, earlier: &ScoreStats) -> ScoreStats {
        self.zip_with(earlier, |a, b| a - b)
    }

    fn zip_with(&self, other: &ScoreStats, f: impl Fn(u64, u64) -> u64) -> ScoreStats {
        ScoreStats {
            prefix_hits: f(self.prefix_hits, other.prefix_hits),
            prefix_misses: f(self.prefix_misses, other.prefix_misses),
            evictions: f(self.evictions, other.evictions),
        }
    }
}

/// Cache of at most [`PREFIX_CACHE_CAPACITY`] recurrent encoder states
/// keyed by token prefix.
///
/// Transformer encoders are never cached because their attention states
/// are not suffix-resumable: their sequences go straight to
/// `SequenceRegressor::predict_into`.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    states: LruCache<Vec<usize>, EncoderState>,
    stats: ScoreStats,
}

impl Default for PrefixCache {
    fn default() -> Self {
        PrefixCache { states: LruCache::new(PREFIX_CACHE_CAPACITY), stats: ScoreStats::default() }
    }
}

impl PrefixCache {
    /// Score `tokens` with `net` into `out`, reusing the longest cached
    /// prefix when possible. Bitwise identical to `net.predict_into`.
    pub fn score_into(&mut self, net: &SequenceRegressor, tokens: &[usize], out: &mut [f64]) {
        if !net.supports_incremental() || tokens.is_empty() {
            net.predict_into(tokens, out);
            return;
        }
        // Longest cached prefix wins; a full-length hit skips the encoder
        // entirely.
        let mut hit_len = 0;
        for l in (1..=tokens.len()).rev() {
            if let Some(state) = self.states.get(&tokens[..l]) {
                if l == tokens.len() {
                    self.stats.prefix_hits += 1;
                    net.predict_state_into(state, out);
                    self.stats.evictions = self.states.evictions();
                    return;
                }
                hit_len = l;
                break;
            }
        }
        let state = if hit_len > 0 {
            self.stats.prefix_hits += 1;
            let prefix = self.states.get(&tokens[..hit_len]).expect("probed above");
            net.encode_state(Some(prefix), &tokens[hit_len..])
        } else {
            self.stats.prefix_misses += 1;
            net.encode_state(None, tokens)
        };
        net.predict_state_into(&state, out);
        self.states.insert(tokens.to_vec(), state);
        self.stats.evictions = self.states.evictions();
    }

    /// Drop every cached state. Call after the underlying network's weights
    /// change — stale states would silently poison future scores.
    pub fn invalidate(&mut self) {
        self.states.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ScoreStats {
        self.stats
    }

    /// Number of cached encoder states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the cache holds no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_nn::EncoderKind;

    fn net(kind: EncoderKind) -> SequenceRegressor {
        SequenceRegressor::new(12, 8, 8, kind, &[6, 1], 1e-3, 9)
    }

    #[test]
    fn cached_scoring_is_bitwise_identical_to_predict() {
        for kind in [
            EncoderKind::Lstm { layers: 2 },
            EncoderKind::Gru { layers: 2 },
            EncoderKind::Rnn { layers: 1 },
        ] {
            let n = net(kind);
            let mut cache = PrefixCache::default();
            let seqs: Vec<Vec<usize>> =
                vec![vec![1, 2, 3], vec![1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 6], vec![7, 8]];
            for seq in &seqs {
                let mut got = [0.0];
                cache.score_into(&n, seq, &mut got);
                assert_eq!(got[0], n.predict(seq)[0], "{kind:?} {seq:?}");
                // Second call is a full-length hit and must agree too.
                let mut again = [0.0];
                cache.score_into(&n, seq, &mut again);
                assert_eq!(again[0], got[0]);
            }
            let s = cache.stats();
            assert!(s.prefix_hits > 0, "suffix extensions should hit");
            assert!(s.prefix_misses > 0);
        }
    }

    #[test]
    fn invalidate_forces_fresh_encoding() {
        let n = net(EncoderKind::Gru { layers: 1 });
        let mut cache = PrefixCache::default();
        let mut out = [0.0];
        cache.score_into(&n, &[1, 2, 3], &mut out);
        assert!(!cache.is_empty());
        cache.invalidate();
        assert!(cache.is_empty());
        cache.score_into(&n, &[1, 2, 3], &mut out);
        assert_eq!(out[0], n.predict(&[1, 2, 3])[0]);
        assert_eq!(cache.stats().prefix_misses, 2);
    }

    #[test]
    fn cache_holds_at_most_its_capacity() {
        let n = net(EncoderKind::Rnn { layers: 1 });
        let mut cache = PrefixCache::default();
        let mut out = [0.0];
        // Distinct three-token sequences share no cached prefix.
        for i in 0..=PREFIX_CACHE_CAPACITY {
            cache.score_into(&n, &[i / 144, i / 12 % 12, i % 12], &mut out);
        }
        assert_eq!(cache.len(), PREFIX_CACHE_CAPACITY);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().prefix_misses, PREFIX_CACHE_CAPACITY as u64 + 1);
    }

    #[test]
    fn transformer_encoder_bypasses_cache() {
        let n = net(EncoderKind::Transformer { blocks: 1, heads: 2 });
        let mut cache = PrefixCache::default();
        let mut out = [0.0];
        cache.score_into(&n, &[1, 2, 3], &mut out);
        assert_eq!(out[0], n.predict(&[1, 2, 3])[0]);
        assert!(cache.is_empty(), "non-incremental encoders are never cached");
    }

    #[test]
    fn stats_merge_sums_counters() {
        let a = ScoreStats { prefix_hits: 3, evictions: 1, ..ScoreStats::default() };
        let b = ScoreStats { prefix_misses: 5, evictions: 2, ..ScoreStats::default() };
        let m = a.merge(&b);
        assert_eq!(m.prefix_hits, 3);
        assert_eq!(m.prefix_misses, 5);
        assert_eq!(m.evictions, 3);
        assert_eq!(m.since(&a), b);
        assert_eq!(m.since(&m), ScoreStats::default());
    }
}
