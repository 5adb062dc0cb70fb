//! One fused recurrent layer and one stack, shared by the LSTM, GRU and
//! tanh RNN encoders.
//!
//! A cell with `G` gate blocks stores its per-gate weights concatenated
//! (`wx`: `in_dim × G·hidden`, `wh`: `hidden × G·hidden`). [`RecurrentLayer`]
//! owns what the cells share: the input projection `Z = b ⊕ X Wx`, hoisted
//! out of the time loop as one GEMM; time-major batched lanes (row
//! `t·batch + lane` is timestep `t` of `lane`) with [`LayerState`] resume
//! and snapshots for the prefix-cached scoring in `fastft-core`; caches and
//! scratch from a pooled [`NnWorkspace`]; the backward pass's parameter
//! gradients as whole-sequence GEMMs (`dWx += Xᵀ dZ`,
//! `dWh += H[..T-1]ᵀ dZh[1..]`, `db += Σ_t dz_t`, `dX = dZ Wxᵀ`); and the
//! per-step recurrent gradient `dh_{t-1} += dZh_t Whᵀ`.
//! [`Recurrent`] stacks layers. A cell ([`crate::lstm::LstmCell`],
//! [`crate::gru::GruCell`], [`crate::rnn::RnnCell`]) supplies its gate
//! count, initialisation and per-timestep gate math, including its own
//! recurrent GEMM `h_prev Wh`: the LSTM and RNN accumulate it into `Z`, the
//! GRU builds it apart, and the two summation orders round differently.
//!
//! Every product here runs the blocked accumulate kernel of
//! [`crate::matrix`], so each element adds its terms in ascending
//! reduction index from its starting value. The products against
//! transposed weights (`dZh_t Whᵀ`, `dZ Wxᵀ`) run it over weights
//! transposed once per backward call, from accumulators seeded with `-0.0`:
//! that is where `Iterator::sum` starts, so their bits are those of the dot
//! products `Σ_j W[k][j]·dz[j]` over weight rows, down to the sign of an
//! all-zero sum.

use std::marker::PhantomData;

use crate::matrix::{accumulate, Matrix, Tensor};
use crate::workspace::{LayerState, NnWorkspace};
use fastft_tabular::rngx::StdRng;

pub(crate) use cell::{Cache, Cell};

/// The cell contract. The module is private, so no type outside this crate
/// can implement [`Cell`].
mod cell {
    use crate::matrix::{Matrix, Tensor};
    use fastft_tabular::rngx::StdRng;

    /// Per-timestep gate math of one recurrent cell.
    pub trait Cell: Clone + std::fmt::Debug {
        /// Gate blocks in the fused weights.
        const GATES: usize;
        /// Whether a cell state `c` rides beside `h` (LSTM): it is resumed
        /// from and saved to [`crate::LayerState::c`], cached per step, and
        /// carries its own gradient `dc` backwards.
        const HAS_C: bool;
        /// Whether the recurrent pre-activation `Zh = h_prev Wh` is kept
        /// apart from `Z` (GRU): the cell then gets a `Zh` scratch, its last
        /// gate block is cached per step, and a separate `dZh` feeds `dWh`.
        const SEPARATE_ZH: bool;
        /// `f64`s per hidden unit and token that one training forward keeps
        /// in its [`Cache`] beside the input `x` (which the layer below, or
        /// the embedding, already counts), as counted by
        /// `SequenceRegressor::activation_bytes`.
        const ACTIVATIONS: usize;

        /// `[wx, wh, b]` of a fresh layer, drawn from `rng` in the cell's
        /// own order.
        fn init(in_dim: usize, hidden: usize, rng: &mut StdRng) -> [Tensor; 3];

        /// Advance every lane one timestep. `z` (`batch × G·hidden`) holds
        /// this step's `b ⊕ x Wx` and is left holding the activated gates;
        /// `h` (`batch × hidden`) goes from `h_{t-1}` to `h_t`, and so does
        /// `c` if `HAS_C` (else empty). `zh` is the `Zh` scratch if
        /// `SEPARATE_ZH` (else empty). `tc` is empty except on the training
        /// path of a `HAS_C` cell, where it receives `tanh(c_t)` for the
        /// backward pass.
        fn forward_step(
            wh: &Matrix,
            z: &mut [f64],
            zh: &mut [f64],
            h: &mut [f64],
            c: &mut [f64],
            tc: &mut [f64],
        );

        /// Back-propagate timestep `t` up to the recurrent product: `dh`
        /// holds the total gradient of `h_t` and is left holding the part of
        /// `h_{t-1}`'s gradient that bypasses `Wh` (`-0.0`, the additive
        /// identity, if none); the layer then adds `dZh_t Whᵀ`. `dc` goes
        /// from `c_t` to `c_{t-1}` if `HAS_C` (else empty). Writes row `t`
        /// of `dZ` into `dz` and, if `SEPARATE_ZH`, of `dZh` into `dzh`
        /// (else empty, and `dZh` is `dZ`).
        fn backward_step(
            cache: &Cache,
            t: usize,
            dh: &mut [f64],
            dc: &mut [f64],
            dz: &mut [f64],
            dzh: &mut [f64],
        );
    }

    /// What a training forward pass keeps for backward.
    #[derive(Debug, Clone)]
    pub struct Cache {
        /// `T × in_dim` input.
        pub x: Matrix,
        /// `T × G·hidden` activated gates.
        pub gates: Matrix,
        /// `T × hidden`: `c_t` if `HAS_C`, the last gate block of `Zh` if
        /// `SEPARATE_ZH`, else `T × 0`.
        pub extra: Matrix,
        /// `T × hidden` `tanh(c_t)` if `HAS_C`, else `T × 0`.
        pub tanh_c: Matrix,
        /// `T × hidden` hidden states.
        pub hiddens: Matrix,
    }
}

/// One fused recurrent layer over cell `C`.
#[derive(Debug, Clone)]
pub struct RecurrentLayer<C> {
    /// Input-to-gates weights (`in_dim × G·hidden`).
    pub wx: Tensor,
    /// Hidden-to-gates weights (`hidden × G·hidden`).
    pub wh: Tensor,
    /// Gate bias (`1 × G·hidden`).
    pub b: Tensor,
    cache: Option<Cache>,
    cell: PhantomData<C>,
}

impl<C: Cell> RecurrentLayer<C> {
    /// Layer with the cell's default initialisation.
    pub fn new(in_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let [wx, wh, b] = C::init(in_dim, hidden, rng);
        Self::from_params(wx, wh, b)
    }

    /// Layer from given weights.
    pub(crate) fn from_params(wx: Tensor, wh: Tensor, b: Tensor) -> Self {
        RecurrentLayer { wx, wh, b, cache: None, cell: PhantomData }
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.wh.value.rows
    }

    /// Run the layer over a `T × in_dim` sequence, returning the `T × hidden`
    /// hidden-state sequence and caching everything needed for
    /// [`RecurrentLayer::backward`].
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut ws = NnWorkspace::new();
        self.forward_ws(x, &mut ws)
    }

    /// [`RecurrentLayer::forward`] drawing scratch from a shared workspace.
    pub fn forward_ws(&mut self, x: &Matrix, ws: &mut NnWorkspace) -> Matrix {
        let (out, cache) = self.run(x, 1, None, true, None, ws);
        self.cache = cache;
        out
    }

    /// Inference-only forward (no cache).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut ws = NnWorkspace::new();
        self.run(x, 1, None, false, None, &mut ws).0
    }

    /// Fused forward over a time-major `(T·batch) × in_dim` input. `init`
    /// resumes each lane from a saved state; each lane's final state is
    /// pushed onto its `states_out` entry. The training path (`keep`) is
    /// batch-of-one from t = 0.
    fn run(
        &self,
        x: &Matrix,
        batch: usize,
        init: Option<&[&LayerState]>,
        keep: bool,
        states_out: Option<&mut [Vec<LayerState>]>,
        ws: &mut NnWorkspace,
    ) -> (Matrix, Option<Cache>) {
        let h = self.hidden();
        let g = C::GATES * h;
        let rows = x.rows;
        assert!(
            batch >= 1 && rows.is_multiple_of(batch),
            "rows {rows} not a multiple of batch {batch}"
        );
        let t_len = rows / batch;
        if keep {
            assert!(batch == 1 && init.is_none(), "training path is batch-of-one from t = 0");
        }
        // Input projection hoisted over the whole sequence: Z = b ⊕ X Wx.
        let mut z = ws.take_matrix(rows, g);
        for r in 0..rows {
            z.row_mut(r).copy_from_slice(&self.b.value.data);
        }
        self.wx.value.addmm_into(&x.data, rows, &mut z.data);
        let mut h_prev = ws.take(batch * h);
        let mut c_prev = ws.take(if C::HAS_C { batch * h } else { 0 });
        if let Some(states) = init {
            assert_eq!(states.len(), batch, "one init state per lane");
            for (bi, st) in states.iter().enumerate() {
                h_prev[bi * h..(bi + 1) * h].copy_from_slice(&st.h);
                if C::HAS_C {
                    c_prev[bi * h..(bi + 1) * h].copy_from_slice(&st.c);
                }
            }
        }
        let mut zh = ws.take(if C::SEPARATE_ZH { batch * g } else { 0 });
        let mut out = ws.take_matrix(rows, h);
        let extra_cols = if C::HAS_C || C::SEPARATE_ZH { h } else { 0 };
        let mut extra = keep.then(|| ws.take_matrix(t_len, extra_cols));
        let mut tanh_c = keep.then(|| ws.take_matrix(t_len, if C::HAS_C { h } else { 0 }));
        for t in 0..t_len {
            let z_rows = &mut z.data[t * batch * g..(t + 1) * batch * g];
            let tc = tanh_c.as_mut().map_or(&mut [][..], |m| m.row_mut(t));
            C::forward_step(&self.wh.value, z_rows, &mut zh, &mut h_prev, &mut c_prev, tc);
            out.data[t * batch * h..(t + 1) * batch * h].copy_from_slice(&h_prev);
            // keep ⇒ batch == 1, so these are the one lane's rows.
            if let Some(extra) = extra.as_mut().filter(|e| e.cols > 0) {
                let src = if C::HAS_C { &c_prev[..] } else { &zh[g - h..] };
                extra.row_mut(t).copy_from_slice(src);
            }
        }
        if let Some(states) = states_out {
            for (bi, lane) in states.iter_mut().enumerate() {
                let c = if C::HAS_C { c_prev[bi * h..(bi + 1) * h].to_vec() } else { Vec::new() };
                lane.push(LayerState { h: h_prev[bi * h..(bi + 1) * h].to_vec(), c });
            }
        }
        ws.give(h_prev);
        ws.give(c_prev);
        ws.give(zh);
        let cache = if let (Some(extra), Some(tanh_c)) = (extra, tanh_c) {
            // Cache snapshots come from the pool too, so repeated train steps
            // recycle the same buffers instead of growing the pool.
            let xc = ws.take_copy(x);
            let hc = ws.take_copy(&out);
            Some(Cache { x: xc, gates: z, extra, tanh_c, hiddens: hc })
        } else {
            ws.give_matrix(z);
            None
        };
        (out, cache)
    }

    /// BPTT given the gradient w.r.t. the full hidden sequence (`T × hidden`).
    /// Accumulates parameter gradients and returns `dX` (`T × in_dim`).
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let mut ws = NnWorkspace::new();
        self.backward_ws(d_out, &mut ws)
    }

    /// [`RecurrentLayer::backward`] drawing scratch from a shared workspace.
    /// The per-step loop fills `dz_t` rows and propagates the state
    /// gradients; the parameter gradients and `dX` are whole-sequence
    /// products afterwards. The products against transposed weights
    /// (`dh_{t-1} += dZh_t Whᵀ`, `dX = dZ Wxᵀ`) run the matrix kernel over
    /// weights transposed once per call, seeded with `-0.0` (see the module
    /// docs).
    pub fn backward_ws(&mut self, d_out: &Matrix, ws: &mut NnWorkspace) -> Matrix {
        let cache = self.cache.take().expect("forward before backward");
        let t_len = cache.x.rows;
        assert_eq!(d_out.rows, t_len);
        let h = self.hidden();
        let g = C::GATES * h;
        let wh_t = ws.take_transpose(&self.wh.value);
        let mut dz_all = ws.take_matrix(t_len, g);
        let mut dzh_all = ws.take_matrix(if C::SEPARATE_ZH { t_len } else { 0 }, g);
        // h_t's gradient and the product dZh_t Whᵀ share one buffer, and
        // the loop's buffers go back before `Wxᵀ` and `dX` are taken: the
        // pool keeps every buffer it ever handed out, so fewer in flight
        // means a smaller pool.
        let mut dh_buf = ws.take(2 * h);
        let mut dc_next = ws.take(if C::HAS_C { h } else { 0 });
        for t in (0..t_len).rev() {
            let (dh, dh_rec) = dh_buf.split_at_mut(h);
            // Total gradient of h_t: from the output, plus from step t + 1.
            for (d, &o) in dh.iter_mut().zip(d_out.row(t)) {
                *d += o;
            }
            let dzh = if C::SEPARATE_ZH { dzh_all.row_mut(t) } else { &mut [] };
            C::backward_step(&cache, t, dh, &mut dc_next, dz_all.row_mut(t), dzh);
            let dzh = if C::SEPARATE_ZH { dzh_all.row(t) } else { dz_all.row(t) };
            dh_rec.fill(-0.0);
            wh_t.addmm_into(dzh, 1, dh_rec);
            for (d, &r) in dh.iter_mut().zip(&*dh_rec) {
                *d += r;
            }
        }
        ws.give(dh_buf);
        ws.give(dc_next);
        ws.give_matrix(wh_t);
        cache.x.add_matmul_tn(&dz_all, &mut self.wx.grad);
        // dWh += H[..T-1]ᵀ dZh[1..]: the shifted rows, read transposed.
        let dzh_all_ref = if C::SEPARATE_ZH { &dzh_all } else { &dz_all };
        let h_rows = &cache.hiddens.data[..t_len.saturating_sub(1) * h];
        let dzh_rows = dzh_all_ref.data.get(g..).unwrap_or(&[]);
        accumulate(h_rows, (1, h), dzh_rows, g, &mut self.wh.grad.data);
        for t in 0..t_len {
            for (gv, &dv) in self.b.grad.data.iter_mut().zip(dz_all.row(t)) {
                *gv += dv;
            }
        }
        let wx_t = ws.take_transpose(&self.wx.value);
        let mut dx = ws.take_matrix(t_len, cache.x.cols);
        dx.data.fill(-0.0);
        wx_t.addmm_into(&dz_all.data, t_len, &mut dx.data);
        let Cache { x, gates, extra, tanh_c, hiddens } = cache;
        for m in [wx_t, dz_all, dzh_all, x, gates, extra, tanh_c, hiddens] {
            ws.give_matrix(m);
        }
        dx
    }

    /// Trainable parameters.
    pub fn parameters(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }

    /// Parameter count.
    pub fn n_params(&self) -> usize {
        self.wx.len() + self.wh.len() + self.b.len()
    }
}

/// A stack of recurrent layers over cell `C` (the paper uses 2 LSTM
/// layers).
#[derive(Debug, Clone)]
pub struct Recurrent<C> {
    pub(crate) layers: Vec<RecurrentLayer<C>>,
}

impl<C: Cell> Recurrent<C> {
    /// Stack `n_layers` layers; the first maps `in_dim → hidden`, the rest
    /// `hidden → hidden`.
    pub fn new(in_dim: usize, hidden: usize, n_layers: usize, rng: &mut StdRng) -> Self {
        Self::build(in_dim, hidden, n_layers, |d| RecurrentLayer::new(d, hidden, rng))
    }

    /// Stack `n_layers` layers made by `layer(in_dim)` in order.
    pub(crate) fn build(
        in_dim: usize,
        hidden: usize,
        n_layers: usize,
        mut layer: impl FnMut(usize) -> RecurrentLayer<C>,
    ) -> Self {
        assert!(n_layers >= 1);
        let layers = (0..n_layers).map(|i| layer(if i == 0 { in_dim } else { hidden })).collect();
        Recurrent { layers }
    }

    /// Hidden size of the final layer.
    pub fn hidden(&self) -> usize {
        self.layers.last().unwrap().hidden()
    }

    /// Borrow the layer stack (read-only), e.g. for the unfused reference
    /// implementation in [`crate::reference`].
    pub fn layers(&self) -> &[RecurrentLayer<C>] {
        &self.layers
    }

    /// Forward through the stack (`T × in_dim` → `T × hidden`).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut ws = NnWorkspace::new();
        self.forward_ws(x, &mut ws)
    }

    /// [`Recurrent::forward`] drawing scratch from a shared workspace.
    pub fn forward_ws(&mut self, x: &Matrix, ws: &mut NnWorkspace) -> Matrix {
        let mut h: Option<Matrix> = None;
        for layer in &mut self.layers {
            let out = layer.forward_ws(h.as_ref().unwrap_or(x), ws);
            if let Some(prev) = h.replace(out) {
                ws.give_matrix(prev);
            }
        }
        h.expect("at least one layer")
    }

    /// Inference-only forward.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut ws = NnWorkspace::new();
        self.infer_batch(x, 1, None, None, &mut ws)
    }

    /// Batched inference over a time-major `(T·batch) × in_dim` packed input
    /// (row `t·batch + lane` is timestep `t` of `lane`). `init` optionally
    /// resumes each lane from per-layer [`LayerState`]s (outer index = lane,
    /// inner = layer); `states_out`, when present, is filled with each lane's
    /// final per-layer states so callers can snapshot and later resume.
    pub fn infer_batch(
        &self,
        x: &Matrix,
        batch: usize,
        init: Option<&[&[LayerState]]>,
        mut states_out: Option<&mut Vec<Vec<LayerState>>>,
        ws: &mut NnWorkspace,
    ) -> Matrix {
        let n_layers = self.layers.len();
        if let Some(init) = init {
            assert_eq!(init.len(), batch, "one init lane per batch row");
            for lane in init {
                assert_eq!(lane.len(), n_layers, "one init state per layer");
            }
        }
        if let Some(states) = states_out.as_deref_mut() {
            states.clear();
            states.resize_with(batch, || Vec::with_capacity(n_layers));
        }
        let mut h: Option<Matrix> = None;
        for (li, layer) in self.layers.iter().enumerate() {
            let init_states: Option<Vec<&LayerState>> =
                init.map(|lanes| lanes.iter().map(|lane| &lane[li]).collect());
            let input = h.as_ref().unwrap_or(x);
            let states = states_out.as_deref_mut().map(Vec::as_mut_slice);
            let (out, _) = layer.run(input, batch, init_states.as_deref(), false, states, ws);
            if let Some(prev) = h.replace(out) {
                ws.give_matrix(prev);
            }
        }
        h.expect("at least one layer")
    }

    /// Backward through the stack.
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let mut ws = NnWorkspace::new();
        self.backward_ws(d_out, &mut ws)
    }

    /// [`Recurrent::backward`] drawing scratch from a shared workspace.
    pub fn backward_ws(&mut self, d_out: &Matrix, ws: &mut NnWorkspace) -> Matrix {
        let mut d: Option<Matrix> = None;
        for layer in self.layers.iter_mut().rev() {
            let grad = layer.backward_ws(d.as_ref().unwrap_or(d_out), ws);
            if let Some(prev) = d.replace(grad) {
                ws.give_matrix(prev);
            }
        }
        d.expect("at least one layer")
    }

    /// All trainable parameters (stable order: layer by layer, `wx, wh, b`).
    pub fn parameters(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(RecurrentLayer::parameters).collect()
    }

    /// Parameter count.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(RecurrentLayer::n_params).sum()
    }

    /// `f64`s one layer keeps per token on the training path.
    pub(crate) fn token_activations(&self) -> usize {
        C::ACTIVATIONS * self.hidden()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gru::GruCell;
    use crate::init;
    use crate::lstm::LstmCell;
    use crate::rnn::RnnCell;

    /// `f64`s per token that one training forward keeps in a layer's
    /// [`Cache`], beside the input copy `x`, and the layer's hidden size.
    fn kept_per_token<C: Cell>() -> (usize, usize) {
        let (t_len, in_dim, hidden) = (6, 3, 5);
        let mut layer = RecurrentLayer::<C>::new(in_dim, hidden, &mut init::rng(1));
        let x =
            Matrix::from_vec(t_len, in_dim, (0..t_len * in_dim).map(|i| i as f64 / 9.0).collect());
        layer.forward(&x);
        // Exhaustive, so a new cache buffer must be counted here too.
        let Cache { x, gates, extra, tanh_c, hiddens } = layer.cache.take().expect("cache");
        assert_eq!((x.rows, x.cols), (t_len, in_dim));
        let kept = [gates, extra, tanh_c, hiddens].iter().map(|m| m.data.len()).sum::<usize>();
        assert_eq!(kept % t_len, 0);
        (kept / t_len, hidden)
    }

    #[test]
    fn activations_match_the_buffers_a_training_forward_keeps() {
        for (name, (kept, hidden), activations) in [
            ("lstm", kept_per_token::<LstmCell>(), LstmCell::ACTIVATIONS),
            ("gru", kept_per_token::<GruCell>(), GruCell::ACTIVATIONS),
            ("rnn", kept_per_token::<RnnCell>(), RnnCell::ACTIVATIONS),
        ] {
            assert_eq!(activations * hidden, kept, "{name}");
        }
    }
}
