//! Batched + prefix-cached sequence scoring for the predictor/estimator
//! hot path.
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

/// Number of buckets in the batch-size histogram: sizes 1..=7 land in their
/// own bucket, everything ≥ 8 in the last.
pub const BATCH_HIST_BUCKETS: usize = 8;

/// Counters describing prefix-cache and batching behaviour. `Copy` so run
/// events can carry the counters one call added.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScoreStats {
    /// Scoring calls that reused a cached (full or partial) prefix state.
    pub prefix_hits: u64,
    /// Scoring calls that ran the encoder from scratch.
    pub prefix_misses: u64,
    /// Encoder states dropped to respect the cache capacity.
    pub evictions: u64,
    /// Batched scoring calls issued.
    pub batches: u64,
    /// Histogram of batch sizes (bucket `i` = size `i + 1`, last = `≥ 8`).
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
}

impl ScoreStats {
    /// Record one batched scoring call of `size` sequences.
    pub fn record_batch(&mut self, size: usize) {
        self.batches += 1;
        let bucket = size.clamp(1, BATCH_HIST_BUCKETS) - 1;
        self.batch_hist[bucket] += 1;
    }

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
        let mut batch_hist = self.batch_hist;
        for (h, o) in batch_hist.iter_mut().zip(&other.batch_hist) {
            *h = f(*h, *o);
        }
        ScoreStats {
            prefix_hits: f(self.prefix_hits, other.prefix_hits),
            prefix_misses: f(self.prefix_misses, other.prefix_misses),
            evictions: f(self.evictions, other.evictions),
            batches: f(self.batches, other.batches),
            batch_hist,
        }
    }
}

/// Bounded cache of recurrent encoder states keyed by token prefix.
///
/// `capacity == 0` disables caching entirely (every call falls through to
/// `SequenceRegressor::predict_into`); Transformer encoders are never
/// cached because their attention states are not suffix-resumable.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    states: LruCache<Vec<usize>, EncoderState>,
    enabled: bool,
    stats: ScoreStats,
}

impl PrefixCache {
    /// Cache holding at most `capacity` encoder states (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        // `LruCache::new(0)` means *unbounded*; a disabled cache never
        // inserts, so any nonzero backing capacity works.
        let states = LruCache::new(capacity.max(1));
        PrefixCache { states, enabled: capacity > 0, stats: ScoreStats::default() }
    }

    /// Score `tokens` with `net` into `out`, reusing the longest cached
    /// prefix when possible. Bitwise identical to `net.predict_into`.
    pub fn score_into(&mut self, net: &SequenceRegressor, tokens: &[usize], out: &mut [f64]) {
        if !self.enabled || !net.supports_incremental() || tokens.is_empty() {
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
            let prefix = self.states.get(&tokens[..hit_len]).cloned().expect("probed above");
            net.encode_state(Some(&prefix), &tokens[hit_len..])
        } else {
            self.stats.prefix_misses += 1;
            net.encode_state(None, tokens)
        };
        net.predict_state_into(&state, out);
        self.states.insert(tokens.to_vec(), state);
        self.stats.evictions = self.states.evictions();
    }

    /// Score a batch of equal-output sequences into `out` (row-major,
    /// `net.out_dim()` values per sequence).
    ///
    /// With the cache enabled each sequence goes through [`score_into`]
    /// (the engine's sequences are suffix extensions of each other, so
    /// prefix reuse beats lane-packing); with it disabled the sequences are
    /// packed into length-bucketed lanes via
    /// `SequenceRegressor::predict_batch`.
    ///
    /// [`score_into`]: PrefixCache::score_into
    pub fn score_batch_into(
        &mut self,
        net: &SequenceRegressor,
        seqs: &[&[usize]],
        out: &mut [f64],
    ) {
        let d = net.out_dim();
        assert_eq!(out.len(), seqs.len() * d, "output buffer size mismatch");
        self.stats.record_batch(seqs.len());
        if self.enabled && net.supports_incremental() {
            for (seq, chunk) in seqs.iter().zip(out.chunks_mut(d)) {
                self.score_into(net, seq, chunk);
            }
        } else {
            for (row, chunk) in net.predict_batch(seqs).iter().zip(out.chunks_mut(d)) {
                chunk.copy_from_slice(row);
            }
        }
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
            let mut cache = PrefixCache::new(16);
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
    fn disabled_cache_scores_without_counting() {
        let n = net(EncoderKind::Lstm { layers: 2 });
        let mut cache = PrefixCache::new(0);
        let mut out = [0.0];
        cache.score_into(&n, &[1, 2, 3], &mut out);
        assert_eq!(out[0], n.predict(&[1, 2, 3])[0]);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().prefix_hits + cache.stats().prefix_misses, 0);
    }

    #[test]
    fn batch_scoring_matches_predict_for_both_modes() {
        let n = net(EncoderKind::Lstm { layers: 2 });
        let seqs: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![1, 2, 3, 4], vec![5, 6]];
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let expect: Vec<f64> = seqs.iter().map(|s| n.predict(s)[0]).collect();
        for capacity in [0, 8] {
            let mut cache = PrefixCache::new(capacity);
            let mut out = vec![0.0; seqs.len()];
            cache.score_batch_into(&n, &refs, &mut out);
            assert_eq!(out, expect, "capacity {capacity}");
            assert_eq!(cache.stats().batches, 1);
            assert_eq!(cache.stats().batch_hist[2], 1, "batch of 3 → bucket 2");
        }
    }

    #[test]
    fn invalidate_forces_fresh_encoding() {
        let n = net(EncoderKind::Gru { layers: 1 });
        let mut cache = PrefixCache::new(8);
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
    fn transformer_encoder_bypasses_cache() {
        let n = net(EncoderKind::Transformer { blocks: 1, heads: 2 });
        let mut cache = PrefixCache::new(8);
        let mut out = [0.0];
        cache.score_into(&n, &[1, 2, 3], &mut out);
        assert_eq!(out[0], n.predict(&[1, 2, 3])[0]);
        assert!(cache.is_empty(), "non-incremental encoders are never cached");
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = ScoreStats::default();
        a.record_batch(2);
        a.prefix_hits = 3;
        let mut b = ScoreStats::default();
        b.record_batch(20);
        b.prefix_misses = 5;
        let m = a.merge(&b);
        assert_eq!(m.batches, 2);
        assert_eq!(m.prefix_hits, 3);
        assert_eq!(m.prefix_misses, 5);
        assert_eq!(m.batch_hist[1], 1);
        assert_eq!(m.batch_hist[BATCH_HIST_BUCKETS - 1], 1, "oversize batches clamp");
        assert_eq!(m.since(&a), b);
        assert_eq!(m.since(&m), ScoreStats::default());
    }
}
