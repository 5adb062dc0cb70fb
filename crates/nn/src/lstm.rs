//! Stacked LSTM: the gate math of [`LstmCell`] on the shared
//! [`crate::recurrent`] layer and stack.
//!
//! Gate layout inside the fused weights is `[i | f | g | o]` (input,
//! forget, candidate, output). Each step accumulates `h_prev Wh` straight
//! into the projected `Z` rows and carries the cell state `c` beside `h`.
//! On the training path the step also keeps `tanh(c_t)`, which it computes
//! for `h_t` anyway, in the layer's cache, so the backward pass reads it
//! instead of calling `tanh` again (the same value, so the same bits).

use crate::activation::sigmoid;
use crate::init;
use crate::matrix::{Matrix, Tensor};
use crate::recurrent::{Cache, Cell, Recurrent, RecurrentLayer};
use fastft_tabular::rngx::StdRng;

/// LSTM gate math (`[i | f | g | o]`, cell state `c`).
#[derive(Debug, Clone)]
pub struct LstmCell;

/// One LSTM layer.
pub type LstmLayer = RecurrentLayer<LstmCell>;

/// A stack of LSTM layers (the paper uses 2).
pub type Lstm = Recurrent<LstmCell>;

impl Cell for LstmCell {
    const GATES: usize = 4;
    const HAS_C: bool = true;
    const SEPARATE_ZH: bool = false;
    const GATES_ARE_HIDDENS: bool = false;
    // Gates 4H + cell H + tanh(cell) H + hidden H.
    const ACTIVATIONS: usize = 7;

    /// Xavier initialisation with forget-gate bias 1 (standard trick for
    /// gradient flow on short sequences).
    fn init(in_dim: usize, hidden: usize, rng: &mut StdRng) -> [Tensor; 3] {
        let mut b = Tensor::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b.value.data[j] = 1.0;
        }
        let wx = Tensor::from_matrix(init::xavier(rng, in_dim, 4 * hidden));
        let wh = Tensor::from_matrix(init::xavier(rng, hidden, 4 * hidden));
        [wx, wh, b]
    }

    fn forward_step(
        wh: &Matrix,
        z: &mut [f64],
        _zh: &mut [f64],
        hs: &mut [f64],
        cs: &mut [f64],
        tcs: &mut [f64],
    ) {
        let h = wh.rows;
        wh.addmm_into(hs, 1, z);
        for j in 0..h {
            let i = sigmoid(z[j]);
            let f = sigmoid(z[h + j]);
            let gg = z[2 * h + j].tanh();
            let o = sigmoid(z[3 * h + j]);
            z[j] = i;
            z[h + j] = f;
            z[2 * h + j] = gg;
            z[3 * h + j] = o;
            let c = f * cs[j] + i * gg;
            cs[j] = c;
            let tc = c.tanh();
            hs[j] = o * tc;
            if let Some(slot) = tcs.get_mut(j) {
                *slot = tc;
            }
        }
    }

    fn backward_step(
        cache: &Cache,
        t: usize,
        dh_next: &mut [f64],
        dc_next: &mut [f64],
        dz: &mut [f64],
        _dzh: &mut [f64],
    ) {
        let h = dh_next.len();
        let gates = cache.gates.row(t);
        let cells = &cache.extra;
        let tanh_c = cache.tanh_c.row(t);
        for j in 0..h {
            let dh = dh_next[j];
            let i = gates[j];
            let f = gates[h + j];
            let gg = gates[2 * h + j];
            let o = gates[3 * h + j];
            let tc = tanh_c[j];
            let d_o = dh * tc;
            let dc = dh * o * (1.0 - tc * tc) + dc_next[j];
            let d_i = dc * gg;
            let d_g = dc * i;
            let d_f = dc * if t == 0 { 0.0 } else { cells[(t - 1, j)] };
            dc_next[j] = dc * f;
            dz[j] = d_i * i * (1.0 - i);
            dz[h + j] = d_f * f * (1.0 - f);
            dz[2 * h + j] = d_g * (1.0 - gg * gg);
            dz[3 * h + j] = d_o * o * (1.0 - o);
        }
        // h_{t-1} reaches the loss only through Wh.
        dh_next.fill(-0.0);
    }
}

impl LstmLayer {
    /// Orthogonally-initialised layer (RND target networks).
    pub fn new_orthogonal(in_dim: usize, hidden: usize, gain: f64, rng: &mut StdRng) -> Self {
        let wx = Tensor::from_matrix(init::orthogonal(rng, in_dim, 4 * hidden, gain));
        let wh = Tensor::from_matrix(init::orthogonal(rng, hidden, 4 * hidden, gain));
        Self::from_params(wx, wh, Tensor::zeros(1, 4 * hidden))
    }
}

impl Lstm {
    /// Orthogonally-initialised stack (RND target network).
    pub fn new_orthogonal(
        in_dim: usize,
        hidden: usize,
        n_layers: usize,
        gain: f64,
        rng: &mut StdRng,
    ) -> Self {
        Self::build(in_dim, hidden, n_layers, |d| LstmLayer::new_orthogonal(d, hidden, gain, rng))
    }
}

// The tests below resume through these.
#[cfg(test)]
use crate::workspace::{LayerState, NnWorkspace};

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-driven perturbation loops
mod tests {
    use super::*;

    fn seq(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = init::rng(seed);
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen::<f64>() - 0.5).collect())
    }

    fn loss(y: &Matrix, c: &Matrix) -> f64 {
        y.data.iter().zip(&c.data).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn forward_shapes() {
        let mut l = Lstm::new(3, 5, 2, &mut init::rng(1));
        let x = seq(7, 3, 2);
        let y = l.forward(&x);
        assert_eq!((y.rows, y.cols), (7, 5));
    }

    #[test]
    fn infer_matches_forward() {
        let mut l = Lstm::new(3, 4, 2, &mut init::rng(3));
        let x = seq(5, 3, 4);
        let a = l.forward(&x);
        let b = l.infer(&x);
        for (u, v) in a.data.iter().zip(&b.data) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn resumed_inference_matches_full_sequence() {
        // Running the first T-1 steps, snapshotting the state, then feeding
        // only the last step must reproduce the full-sequence hidden exactly.
        let l = Lstm::new(3, 4, 2, &mut init::rng(13));
        let x = seq(6, 3, 14);
        let mut ws = NnWorkspace::new();
        let full = l.infer_ws(&x, None, None, &mut ws);
        let prefix = Matrix::from_vec(5, 3, x.data[..15].to_vec());
        let mut states: Vec<LayerState> = Vec::new();
        let _ = l.infer_ws(&prefix, None, Some(&mut states), &mut ws);
        let last = Matrix::from_vec(1, 3, x.data[15..].to_vec());
        let resumed = l.infer_ws(&last, Some(&states), None, &mut ws);
        assert_eq!(resumed.row(0), full.row(5));
    }

    #[test]
    fn gradcheck_single_layer() {
        let mut layer = LstmLayer::new(2, 3, &mut init::rng(5));
        let x = seq(4, 2, 6);
        let c = seq(4, 3, 7); // random upstream gradient
        let y = layer.forward(&x);
        let _ = y;
        let dx = layer.backward(&c);
        let eps = 1e-6;
        // Check every Wx, Wh, b entry.
        let analytic_wx = layer.wx.grad.clone();
        let analytic_wh = layer.wh.grad.clone();
        let analytic_b = layer.b.grad.clone();
        for idx in 0..layer.wx.value.data.len() {
            let orig = layer.wx.value.data[idx];
            layer.wx.value.data[idx] = orig + eps;
            let plus = loss(&layer.infer(&x), &c);
            layer.wx.value.data[idx] = orig - eps;
            let minus = loss(&layer.infer(&x), &c);
            layer.wx.value.data[idx] = orig;
            let num = (plus - minus) / (2.0 * eps);
            assert!((num - analytic_wx.data[idx]).abs() < 1e-6, "wx[{idx}]");
        }
        for idx in 0..layer.wh.value.data.len() {
            let orig = layer.wh.value.data[idx];
            layer.wh.value.data[idx] = orig + eps;
            let plus = loss(&layer.infer(&x), &c);
            layer.wh.value.data[idx] = orig - eps;
            let minus = loss(&layer.infer(&x), &c);
            layer.wh.value.data[idx] = orig;
            let num = (plus - minus) / (2.0 * eps);
            assert!((num - analytic_wh.data[idx]).abs() < 1e-6, "wh[{idx}]");
        }
        for idx in 0..layer.b.value.data.len() {
            let orig = layer.b.value.data[idx];
            layer.b.value.data[idx] = orig + eps;
            let plus = loss(&layer.infer(&x), &c);
            layer.b.value.data[idx] = orig - eps;
            let minus = loss(&layer.infer(&x), &c);
            layer.b.value.data[idx] = orig;
            let num = (plus - minus) / (2.0 * eps);
            assert!((num - analytic_b.data[idx]).abs() < 1e-6, "b[{idx}]");
        }
        // Check input gradient.
        for idx in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let plus = loss(&layer.infer(&xp), &c);
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let minus = loss(&layer.infer(&xm), &c);
            let num = (plus - minus) / (2.0 * eps);
            assert!((num - dx.data[idx]).abs() < 1e-6, "x[{idx}]");
        }
    }

    #[test]
    fn gradcheck_stacked() {
        let mut l = Lstm::new(2, 3, 2, &mut init::rng(8));
        let x = seq(3, 2, 9);
        let c = seq(3, 3, 10);
        l.forward(&x);
        let dx = l.backward(&c);
        let eps = 1e-6;
        // Spot-check a handful of parameters across both layers, reading the
        // analytic gradients accumulated by the single backward call above.
        for (li, pi, idx) in [(0usize, 0usize, 0usize), (0, 1, 3), (1, 0, 5), (1, 2, 1)] {
            let analytic = l.layers[li].parameters()[pi].grad.data[idx];
            let perturb = |e: f64| {
                let mut l2 = l.clone();
                l2.layers[li].parameters()[pi].value.data[idx] += e;
                loss(&l2.infer(&x), &c)
            };
            let num = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
            assert!((num - analytic).abs() < 1e-6, "layer {li} param {pi} idx {idx}");
        }
        // Input gradient spot checks.
        for idx in [0, 2, 5] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let num = (loss(&l.infer(&xp), &c) - loss(&l.infer(&xm), &c)) / (2.0 * eps);
            assert!((num - dx.data[idx]).abs() < 1e-6, "x[{idx}]");
        }
    }

    #[test]
    fn lstm_learns_sequence_sum_sign() {
        // Train a 1-layer LSTM + linear readout (implicit via last hidden
        // weighting) to track whether the running input sum is positive.
        use crate::optim::Adam;
        let mut rng = init::rng(11);
        let mut l = Lstm::new(1, 8, 1, &mut init::rng(12));
        let mut w_out = Tensor::from_matrix(init::xavier(&mut rng, 8, 1));
        let mut opt = Adam::new(0.02);
        let mut last_loss = f64::MAX;
        for epoch in 0..60 {
            let mut total = 0.0;
            for s in 0..20 {
                let t_len = 4 + (s % 3);
                let vals: Vec<f64> = (0..t_len).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
                let target = if vals.iter().sum::<f64>() > 0.0 { 1.0 } else { -1.0 };
                let x = Matrix::from_vec(t_len, 1, vals);
                let h = l.forward(&x);
                let last = Matrix::row_vector(h.row(t_len - 1).to_vec());
                let pred = last.matmul(&w_out.value).data[0];
                let err = pred - target;
                total += err * err;
                // d pred/d w_out = lastᵀ ; d pred/d last = w_outᵀ
                for (g, &hv) in w_out.grad.data.iter_mut().zip(last.data.iter()) {
                    *g += 2.0 * err * hv;
                }
                let mut dh = Matrix::zeros(t_len, 8);
                for j in 0..8 {
                    dh[(t_len - 1, j)] = 2.0 * err * w_out.value.data[j];
                }
                l.backward(&dh);
                let mut params = l.parameters();
                params.push(&mut w_out);
                opt.step(params);
            }
            if epoch == 0 {
                last_loss = total;
            }
        }
        // Loss after training should be well below the first epoch's.
        let mut final_total = 0.0;
        for _ in 0..20 {
            let t_len = 5;
            let vals: Vec<f64> = (0..t_len).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let target = if vals.iter().sum::<f64>() > 0.0 { 1.0 } else { -1.0 };
            let x = Matrix::from_vec(t_len, 1, vals);
            let h = l.infer(&x);
            let pred: f64 =
                h.row(t_len - 1).iter().zip(&w_out.value.data).map(|(a, b)| a * b).sum();
            final_total += (pred - target) * (pred - target);
        }
        assert!(final_total < 0.6 * last_loss, "final {final_total} vs first-epoch {last_loss}");
    }
}
