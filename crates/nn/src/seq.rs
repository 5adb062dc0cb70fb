//! Sequence-to-scalar regressors: the shared architecture of the paper's
//! Performance Predictor and Novelty Estimator networks.
//!
//! Paper configuration (§V): token embedding dim 32 → 2 stacked LSTM layers
//! → fully-connected head (16 → 1 for the predictor; 16 → 4 → 1 for the RND
//! estimator; a single FC for the frozen RND target, orthogonally
//! initialised with gain 16). [`EncoderKind`] swaps the encoder for the
//! Fig. 8 ablation (RNN / Transformer).
//!
//! Scoring runs on the fused recurrent kernels: [`SequenceRegressor::predict_into`]
//! draws all scratch from an internal pooled [`NnWorkspace`],
//! [`SequenceRegressor::predict_batch`] packs equal-length sequences into
//! time-major lanes for one fused pass per length bucket, and
//! [`SequenceRegressor::encode_state`] / [`SequenceRegressor::predict_state_into`]
//! let callers resume a recurrent encoder from a saved [`EncoderState`] so an
//! extended sequence only pays for its new suffix (the prefix cache in
//! `fastft-core` builds on this). All of these produce bitwise-identical
//! results to one another because every path runs the same kernel with the
//! same summation order.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::activation::Activation;
use crate::dense::Dense;
use crate::embedding::Embedding;
pub use crate::encoder::EncoderKind;
use crate::encoder::{with_stack, AnyRecurrent};
use crate::init;
use crate::lstm::Lstm;
use crate::matrix::{Matrix, Tensor};
use crate::optim::Adam;
use crate::transformer::{add_positional_encoding, TransformerBlock};
use crate::workspace::{LayerState, NnWorkspace};

/// The regressor's encoder: any recurrent stack, or Transformer blocks.
#[derive(Debug, Clone)]
enum Encoder {
    Recurrent(AnyRecurrent),
    Transformer(Vec<TransformerBlock>),
}

impl Encoder {
    /// Pool a `T × width` encoding into one vector: the last hidden state of
    /// a recurrent encoder, the mean over positions of a Transformer.
    fn pool(&self, h: &Matrix) -> Vec<f64> {
        match self {
            Encoder::Recurrent(_) => h.row(h.rows - 1).to_vec(),
            Encoder::Transformer(_) => {
                let mut v = vec![0.0; h.cols];
                for r in 0..h.rows {
                    for (a, &b) in v.iter_mut().zip(h.row(r)) {
                        *a += b;
                    }
                }
                let inv = 1.0 / h.rows as f64;
                v.iter().map(|a| a * inv).collect()
            }
        }
    }
}

/// Snapshot of a recurrent encoder after consuming a token prefix: one
/// [`LayerState`] per stacked layer plus the prefix length. Feeding the
/// remaining suffix through [`SequenceRegressor::encode_state`] reproduces
/// the full-sequence encoding bitwise.
#[derive(Debug, Clone)]
pub struct EncoderState {
    layers: Vec<LayerState>,
    len: usize,
}

impl EncoderState {
    /// Number of tokens consumed to reach this state.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tokens have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Embedding → encoder → pooled state → dense head → scalar(s).
#[derive(Debug, Clone)]
pub struct SequenceRegressor {
    emb: Embedding,
    enc: Encoder,
    head: Vec<Dense>,
    opt: Adam,
    kind: EncoderKind,
    /// Pooled scratch for the inference paths, which take `&self`.
    ws: RefCell<NnWorkspace>,
}

/// Trainable parameters in stable order (embedding → encoder → head). Free
/// function over disjoint fields so callers can still touch `opt` while the
/// borrows are live.
fn collect_params<'a>(
    emb: &'a mut Embedding,
    enc: &'a mut Encoder,
    head: &'a mut [Dense],
) -> Vec<&'a mut Tensor> {
    let mut params = emb.parameters();
    match enc {
        Encoder::Recurrent(r) => params.extend(with_stack!(r, s => s.parameters())),
        Encoder::Transformer(blocks) => {
            for b in blocks.iter_mut() {
                params.extend(b.parameters());
            }
        }
    }
    for layer in head.iter_mut() {
        params.extend(layer.parameters());
    }
    params
}

impl SequenceRegressor {
    /// Build a trainable regressor.
    ///
    /// `head_dims` are the hidden/output widths after the encoder, e.g.
    /// `[16, 1]` for the Performance Predictor. For the Transformer encoder
    /// the model width equals `emb_dim` and `hidden` is ignored.
    pub fn new(
        vocab: usize,
        emb_dim: usize,
        hidden: usize,
        kind: EncoderKind,
        head_dims: &[usize],
        lr: f64,
        seed: u64,
    ) -> Self {
        assert!(!head_dims.is_empty(), "head needs at least an output layer");
        let mut rng = init::rng(seed);
        let emb = Embedding::new(vocab, emb_dim, &mut rng);
        let (enc, enc_out) = match kind {
            EncoderKind::Transformer { heads, blocks } => {
                let bs =
                    (0..blocks).map(|_| TransformerBlock::new(emb_dim, heads, &mut rng)).collect();
                (Encoder::Transformer(bs), emb_dim)
            }
            _ => (Encoder::Recurrent(AnyRecurrent::new(kind, emb_dim, hidden, &mut rng)), hidden),
        };
        let mut head = Vec::with_capacity(head_dims.len());
        let mut prev = enc_out;
        for (i, &d) in head_dims.iter().enumerate() {
            let act = if i + 1 == head_dims.len() { Activation::Linear } else { Activation::Relu };
            head.push(Dense::new(prev, d, act, &mut rng));
            prev = d;
        }
        SequenceRegressor {
            emb,
            enc,
            head,
            opt: Adam::new(lr),
            kind,
            ws: RefCell::new(NnWorkspace::new()),
        }
    }

    /// Build a **frozen random target network** for random network
    /// distillation: LSTM encoder and head are orthogonally initialised
    /// with `gain` (paper: 16.0) and never trained.
    pub fn new_orthogonal_target(
        vocab: usize,
        emb_dim: usize,
        hidden: usize,
        layers: usize,
        head_dims: &[usize],
        gain: f64,
        seed: u64,
    ) -> Self {
        let mut rng = init::rng(seed);
        let emb = Embedding::new(vocab, emb_dim, &mut rng);
        let enc = Lstm::new_orthogonal(emb_dim, hidden, layers, gain, &mut rng);
        let enc = Encoder::Recurrent(AnyRecurrent::Lstm(enc));
        let mut head = Vec::with_capacity(head_dims.len());
        let mut prev = hidden;
        for (i, &d) in head_dims.iter().enumerate() {
            let act = if i + 1 == head_dims.len() { Activation::Linear } else { Activation::Tanh };
            head.push(Dense::new_orthogonal(prev, d, act, gain / (i + 1) as f64, &mut rng));
            prev = d;
        }
        SequenceRegressor {
            emb,
            enc,
            head,
            opt: Adam::new(0.0),
            kind: EncoderKind::Lstm { layers },
            ws: RefCell::new(NnWorkspace::new()),
        }
    }

    /// Encoder variant.
    pub fn kind(&self) -> EncoderKind {
        self.kind
    }

    /// Output dimension of the head.
    pub fn out_dim(&self) -> usize {
        self.head.last().unwrap().out_dim()
    }

    /// Whether the encoder supports incremental (state-resumable) encoding.
    /// Recurrent encoders do; the Transformer re-attends over the whole
    /// sequence and cannot resume from a fixed-size state.
    pub fn supports_incremental(&self) -> bool {
        !matches!(self.kind, EncoderKind::Transformer { .. })
    }

    /// Snapshot all trainable parameters (stable embedding → encoder → head
    /// order) plus the Adam state. The capture is bitwise exact.
    pub fn save_state(&mut self) -> crate::snapshot::NetState {
        let params = collect_params(&mut self.emb, &mut self.enc, &mut self.head);
        crate::snapshot::capture(&params, &self.opt)
    }

    /// Restore a [`SequenceRegressor::save_state`] snapshot. Fails if the
    /// snapshot was taken from a differently-shaped network.
    pub fn load_state(&mut self, state: &crate::snapshot::NetState) -> Result<(), String> {
        let params = collect_params(&mut self.emb, &mut self.enc, &mut self.head);
        crate::snapshot::restore(params, &mut self.opt, state)
    }

    /// Whether every live weight is finite (post-training divergence guard).
    pub fn params_finite(&mut self) -> bool {
        let params = collect_params(&mut self.emb, &mut self.enc, &mut self.head);
        crate::snapshot::params_finite(&params)
    }

    /// Run the dense head on a pooled encoder state, writing into `out`.
    /// Plain k-ascending accumulation so every scoring path sums in the same
    /// order.
    fn head_infer_into(&self, pooled: &[f64], out: &mut [f64], ws: &mut NnWorkspace) {
        let mut cur = ws.take(pooled.len());
        cur.copy_from_slice(pooled);
        for layer in &self.head {
            let w = &layer.w.value;
            let mut next = ws.take(w.cols);
            next.copy_from_slice(&layer.b.value.data);
            w.addmm_into(&cur, 1, &mut next);
            for v in next.iter_mut() {
                *v = layer.act.apply(*v);
            }
            ws.give(cur);
            cur = next;
        }
        out.copy_from_slice(&cur);
        ws.give(cur);
    }

    /// Predict head outputs for a token sequence (no caching; `&self`).
    pub fn predict(&self, tokens: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; self.out_dim()];
        self.predict_into(tokens, &mut out);
        out
    }

    /// [`SequenceRegressor::predict`] writing into a caller-provided slice;
    /// draws all scratch from the internal workspace so steady-state scoring
    /// allocates nothing.
    pub fn predict_into(&self, tokens: &[usize], out: &mut [f64]) {
        assert!(!tokens.is_empty(), "empty token sequence");
        assert_eq!(out.len(), self.out_dim(), "output slice dim mismatch");
        let ws = &mut *self.ws.borrow_mut();
        match &self.enc {
            Encoder::Recurrent(r) => {
                let mut x = ws.take_matrix(tokens.len(), self.emb.dim());
                self.emb.infer_into(tokens, &mut x);
                let h = with_stack!(r, s => s.infer_batch(&x, 1, None, None, ws));
                ws.give_matrix(x);
                self.head_infer_into(h.row(h.rows - 1), out, ws);
                ws.give_matrix(h);
            }
            Encoder::Transformer(blocks) => {
                let mut h = self.emb.infer(tokens);
                add_positional_encoding(&mut h);
                for b in blocks {
                    h = b.infer(&h);
                }
                self.head_infer_into(&self.enc.pool(&h), out, ws);
            }
        }
    }

    /// Score many sequences at once. Sequences are bucketed by length and
    /// each bucket runs as one fused time-major pass, so the per-timestep
    /// GEMMs amortise over all lanes. Every output is bitwise-identical to
    /// calling [`SequenceRegressor::predict`] per sequence.
    pub fn predict_batch(&self, seqs: &[&[usize]]) -> Vec<Vec<f64>> {
        let Encoder::Recurrent(enc) = &self.enc else {
            // A Transformer re-attends over each whole sequence.
            return seqs.iter().map(|s| self.predict(s)).collect();
        };
        let mut out = vec![vec![0.0; self.out_dim()]; seqs.len()];
        let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in seqs.iter().enumerate() {
            assert!(!s.is_empty(), "empty token sequence");
            buckets.entry(s.len()).or_default().push(i);
        }
        let ws = &mut *self.ws.borrow_mut();
        for (&t_len, idxs) in &buckets {
            let lanes = idxs.len();
            let bucket: Vec<&[usize]> = idxs.iter().map(|&i| seqs[i]).collect();
            let mut x = ws.take_matrix(t_len * lanes, self.emb.dim());
            self.emb.infer_batch_into(&bucket, &mut x);
            let h = with_stack!(enc, s => s.infer_batch(&x, lanes, None, None, ws));
            ws.give_matrix(x);
            for (bi, &i) in idxs.iter().enumerate() {
                self.head_infer_into(h.row((t_len - 1) * lanes + bi), &mut out[i], ws);
            }
            ws.give_matrix(h);
        }
        out
    }

    /// Encode `suffix` starting from `prefix` (or from scratch when `None`),
    /// returning the resulting encoder state. The state after
    /// `encode_state(None, &s[..k])` followed by `encode_state(Some(..), &s[k..])`
    /// is bitwise-identical to `encode_state(None, &s)`.
    ///
    /// # Panics
    /// Panics for Transformer encoders (see
    /// [`SequenceRegressor::supports_incremental`]) or an empty suffix.
    pub fn encode_state(&self, prefix: Option<&EncoderState>, suffix: &[usize]) -> EncoderState {
        let Encoder::Recurrent(enc) = &self.enc else {
            panic!("incremental encoding needs a recurrent encoder");
        };
        assert!(!suffix.is_empty(), "empty suffix");
        let ws = &mut *self.ws.borrow_mut();
        let mut x = ws.take_matrix(suffix.len(), self.emb.dim());
        self.emb.infer_into(suffix, &mut x);
        let init: Option<Vec<&[LayerState]>> = prefix.map(|p| vec![p.layers.as_slice()]);
        let mut states: Vec<Vec<LayerState>> = Vec::new();
        let h = with_stack!(enc, s => s.infer_batch(&x, 1, init.as_deref(), Some(&mut states), ws));
        ws.give_matrix(x);
        ws.give_matrix(h);
        EncoderState {
            layers: states.pop().expect("one lane"),
            len: prefix.map_or(0, EncoderState::len) + suffix.len(),
        }
    }

    /// Run the head on a saved encoder state (last layer's hidden is the
    /// pooled representation, as in [`SequenceRegressor::predict`]).
    pub fn predict_state_into(&self, state: &EncoderState, out: &mut [f64]) {
        assert_eq!(out.len(), self.out_dim(), "output slice dim mismatch");
        let ws = &mut *self.ws.borrow_mut();
        self.head_infer_into(&state.layers.last().expect("non-empty state").h, out, ws);
    }

    /// One gradient step minimising MSE against `target`; returns the loss
    /// **before** the update.
    pub fn train_step(&mut self, tokens: &[usize], target: &[f64]) -> f64 {
        assert!(!tokens.is_empty(), "empty token sequence");
        assert_eq!(target.len(), self.out_dim(), "target dim mismatch");
        let ws = self.ws.get_mut();
        // Forward with caches.
        let mut x = self.emb.forward(tokens);
        let h = match &mut self.enc {
            Encoder::Recurrent(r) => with_stack!(r, s => s.forward_ws(&x, ws)),
            Encoder::Transformer(blocks) => {
                add_positional_encoding(&mut x);
                let mut h = x.clone();
                for b in blocks.iter_mut() {
                    h = b.forward(&h);
                }
                h
            }
        };
        let t_len = h.rows;
        let pooled = self.enc.pool(&h);
        ws.give_matrix(h);
        let mut y = Matrix::row_vector(pooled);
        for layer in &mut self.head {
            y = layer.forward(&y);
        }
        // MSE loss and gradient.
        let k = target.len() as f64;
        let loss = y.data.iter().zip(target).map(|(p, t)| (p - t) * (p - t)).sum::<f64>() / k;
        let mut dy =
            Matrix::row_vector(y.data.iter().zip(target).map(|(p, t)| 2.0 * (p - t) / k).collect());
        // Backward.
        for layer in self.head.iter_mut().rev() {
            dy = layer.backward(&dy);
        }
        let d_pooled = dy; // 1 × enc_out
        let mut dh = ws.take_matrix(t_len, d_pooled.cols);
        let dx = match &mut self.enc {
            Encoder::Recurrent(r) => {
                dh.row_mut(t_len - 1).copy_from_slice(d_pooled.row(0));
                with_stack!(r, s => s.backward_ws(&dh, ws))
            }
            Encoder::Transformer(blocks) => {
                let inv = 1.0 / t_len as f64;
                for r in 0..t_len {
                    for (d, &g) in dh.row_mut(r).iter_mut().zip(d_pooled.row(0)) {
                        *d = g * inv;
                    }
                }
                let mut d = dh.clone();
                for b in blocks.iter_mut().rev() {
                    d = b.backward(&d);
                }
                d
            }
        };
        ws.give_matrix(dh);
        self.emb.backward(&dx);
        ws.give_matrix(dx);
        let params = collect_params(&mut self.emb, &mut self.enc, &mut self.head);
        self.opt.step(params);
        loss
    }

    /// Total trainable parameter count (Fig. 11 memory accounting).
    pub fn n_params(&self) -> usize {
        let enc = match &self.enc {
            Encoder::Recurrent(r) => with_stack!(r, s => s.n_params()),
            Encoder::Transformer(blocks) => blocks.iter().map(TransformerBlock::n_params).sum(),
        };
        self.emb.n_params() + enc + self.head.iter().map(Dense::n_params).sum::<usize>()
    }

    /// Estimated forward-pass activation footprint in bytes for a sequence
    /// of `seq_len` tokens (Fig. 11a: memory as a function of sequence
    /// length). Counts `f64` buffers actually materialised by `forward`.
    pub fn activation_bytes(&self, seq_len: usize) -> usize {
        let emb_dim = self.emb.dim();
        let f = std::mem::size_of::<f64>();
        let emb_act = seq_len * emb_dim;
        let enc_act = match &self.enc {
            Encoder::Recurrent(r) => {
                self.kind.depth() * seq_len * with_stack!(r, s => s.token_activations())
            }
            // Attention materialises T×T per head plus Q/K/V and FFN buffers.
            Encoder::Transformer(blocks) => blocks
                .iter()
                .map(|b| {
                    let d = b.dim();
                    // q,k,v,concat + T×T attention + 4d FFN hidden
                    seq_len * (4 * d) + seq_len * seq_len + seq_len * 4 * d
                })
                .sum(),
        };
        let head_act: usize = self.head.iter().map(Dense::out_dim).sum();
        (emb_act + enc_act + head_act) * f
    }

    /// Total memory estimate: parameters + activations, in bytes.
    pub fn memory_bytes(&self, seq_len: usize) -> usize {
        self.n_params() * std::mem::size_of::<f64>() + self.activation_bytes(seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx::StdRng;

    /// Target function: fraction of even tokens in the sequence.
    fn target_of(tokens: &[usize]) -> f64 {
        tokens.iter().filter(|&&t| t % 2 == 0).count() as f64 / tokens.len() as f64
    }

    fn random_tokens(rng: &mut StdRng, vocab: usize) -> Vec<usize> {
        let len = rng.gen_range(3..10);
        (0..len).map(|_| rng.gen_range(0..vocab)).collect()
    }

    fn trains_to_low_loss(kind: EncoderKind) {
        let vocab = 12;
        let mut m = SequenceRegressor::new(vocab, 8, 8, kind, &[8, 1], 0.01, 1);
        let mut rng = init::rng(2);
        let data: Vec<Vec<usize>> = (0..40).map(|_| random_tokens(&mut rng, vocab)).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..30 {
            let mut total = 0.0;
            for toks in &data {
                total += m.train_step(toks, &[target_of(toks)]);
            }
            if epoch == 0 {
                first = total;
            }
            last = total;
        }
        assert!(last < 0.5 * first, "{}: first {first}, last {last}", kind.label());
    }

    #[test]
    fn lstm_regressor_trains() {
        trains_to_low_loss(EncoderKind::Lstm { layers: 2 });
    }

    #[test]
    fn rnn_regressor_trains() {
        trains_to_low_loss(EncoderKind::Rnn { layers: 2 });
    }

    #[test]
    fn gru_regressor_trains() {
        trains_to_low_loss(EncoderKind::Gru { layers: 2 });
    }

    #[test]
    fn transformer_regressor_trains() {
        trains_to_low_loss(EncoderKind::Transformer { heads: 2, blocks: 1 });
    }

    #[test]
    fn predict_is_pure() {
        let m =
            SequenceRegressor::new(10, 8, 8, EncoderKind::Lstm { layers: 2 }, &[16, 1], 0.01, 3);
        let toks = vec![1, 2, 3];
        assert_eq!(m.predict(&toks), m.predict(&toks));
    }

    #[test]
    fn predict_into_matches_predict() {
        for kind in [
            EncoderKind::Lstm { layers: 2 },
            EncoderKind::Gru { layers: 2 },
            EncoderKind::Rnn { layers: 1 },
            EncoderKind::Transformer { heads: 2, blocks: 1 },
        ] {
            let m = SequenceRegressor::new(10, 8, 8, kind, &[8, 1], 0.01, 3);
            let toks = [1usize, 2, 3, 4, 5];
            let mut out = [0.0];
            m.predict_into(&toks, &mut out);
            assert_eq!(out.to_vec(), m.predict(&toks), "{}", kind.label());
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let m = SequenceRegressor::new(10, 8, 8, EncoderKind::Lstm { layers: 2 }, &[8, 1], 0.01, 5);
        let seqs: Vec<Vec<usize>> =
            vec![vec![1, 2, 3], vec![4, 5], vec![6, 7, 8], vec![9], vec![2, 4]];
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let batched = m.predict_batch(&refs);
        for (seq, b) in seqs.iter().zip(&batched) {
            assert_eq!(*b, m.predict(seq));
        }
    }

    #[test]
    fn encode_state_resumes_bitwise() {
        for kind in [
            EncoderKind::Lstm { layers: 2 },
            EncoderKind::Gru { layers: 2 },
            EncoderKind::Rnn { layers: 2 },
        ] {
            let m = SequenceRegressor::new(10, 8, 8, kind, &[8, 1], 0.01, 7);
            let toks = [3usize, 1, 4, 1, 5, 9];
            let cold = m.encode_state(None, &toks);
            let prefix = m.encode_state(None, &toks[..4]);
            assert_eq!(prefix.len(), 4);
            let resumed = m.encode_state(Some(&prefix), &toks[4..]);
            assert_eq!(resumed.len(), 6);
            let mut a = [0.0];
            let mut b = [0.0];
            m.predict_state_into(&cold, &mut a);
            m.predict_state_into(&resumed, &mut b);
            assert_eq!(a, b, "{}", kind.label());
            // State-based scoring equals the plain predict path.
            assert_eq!(a.to_vec(), m.predict(&toks), "{}", kind.label());
        }
    }

    #[test]
    fn orthogonal_target_is_nontrivial_and_fixed() {
        let t = SequenceRegressor::new_orthogonal_target(10, 8, 8, 2, &[1], 16.0, 4);
        let a = t.predict(&[1, 2, 3]);
        let b = t.predict(&[3, 2, 1]);
        assert_eq!(a.len(), 1);
        assert!(a[0].is_finite());
        // Different sequences map to different outputs (w.h.p. for an
        // orthogonal random net).
        assert_ne!(a, b);
        // Same input, same output (frozen).
        assert_eq!(a, t.predict(&[1, 2, 3]));
    }

    #[test]
    fn distillation_reduces_error_on_seen_sequences() {
        // RND sanity: train the estimator to match the frozen target on a
        // small set; prediction error on those sequences must fall.
        let vocab = 10;
        let target = SequenceRegressor::new_orthogonal_target(vocab, 8, 8, 2, &[1], 4.0, 5);
        let mut est = SequenceRegressor::new(
            vocab,
            8,
            8,
            EncoderKind::Lstm { layers: 2 },
            &[8, 4, 1],
            0.01,
            6,
        );
        let mut rng = init::rng(7);
        let seen: Vec<Vec<usize>> = (0..15).map(|_| random_tokens(&mut rng, vocab)).collect();
        let err = |est: &SequenceRegressor| -> f64 {
            seen.iter()
                .map(|t| {
                    let d = est.predict(t)[0] - target.predict(t)[0];
                    d * d
                })
                .sum()
        };
        let before = err(&est);
        for _ in 0..40 {
            for toks in &seen {
                let t = target.predict(toks);
                est.train_step(toks, &t);
            }
        }
        let after = err(&est);
        assert!(after < 0.3 * before, "before {before}, after {after}");
    }

    #[test]
    fn memory_grows_slowly_with_sequence_for_lstm() {
        let m =
            SequenceRegressor::new(30, 32, 32, EncoderKind::Lstm { layers: 2 }, &[16, 1], 0.01, 8);
        let m10 = m.memory_bytes(10);
        let m100 = m.memory_bytes(100);
        // Recurrent activations are linear in T and dominated by parameters.
        assert!(m100 < 3 * m10, "m10 {m10}, m100 {m100}");
    }

    #[test]
    fn transformer_memory_grows_quadratically() {
        let m = SequenceRegressor::new(
            30,
            32,
            32,
            EncoderKind::Transformer { heads: 2, blocks: 1 },
            &[16, 1],
            0.01,
            9,
        );
        let a10 = m.activation_bytes(10);
        let a100 = m.activation_bytes(100);
        assert!(a100 > 10 * a10, "a10 {a10}, a100 {a100}");
    }

    #[test]
    #[should_panic]
    fn empty_sequence_panics() {
        let m = SequenceRegressor::new(5, 4, 4, EncoderKind::Lstm { layers: 1 }, &[1], 0.01, 10);
        let _ = m.predict(&[]);
    }
}
