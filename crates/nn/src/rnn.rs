//! Vanilla tanh RNN (the FASTFTᴿ ablation encoder of Fig. 8):
//! `h_t = tanh(x_t Wx + h_{t-1} Wh + b)`, the gate math of [`RnnCell`] on
//! the shared [`crate::recurrent`] layer and stack.

use crate::init;
use crate::matrix::{Matrix, Tensor};
use crate::recurrent::{Cache, Cell, Recurrent, RecurrentLayer};
use fastft_tabular::rngx::StdRng;

/// Tanh RNN step (one gate block: the hidden state itself).
#[derive(Debug, Clone)]
pub struct RnnCell;

/// One tanh RNN layer.
pub type RnnLayer = RecurrentLayer<RnnCell>;

/// A stack of tanh RNN layers.
pub type Rnn = Recurrent<RnnCell>;

impl Cell for RnnCell {
    const GATES: usize = 1;
    const HAS_C: bool = false;
    const SEPARATE_ZH: bool = false;
    // The activated gate block H + hidden H (the same values, kept twice).
    const ACTIVATIONS: usize = 2;

    /// Xavier input weights; orthogonal recurrent weights keep vanilla RNNs
    /// stable.
    fn init(in_dim: usize, hidden: usize, rng: &mut StdRng) -> [Tensor; 3] {
        let wx = Tensor::from_matrix(init::xavier(rng, in_dim, hidden));
        let wh = Tensor::from_matrix(init::orthogonal(rng, hidden, hidden, 1.0));
        [wx, wh, Tensor::zeros(1, hidden)]
    }

    fn forward_step(
        wh: &Matrix,
        z: &mut [f64],
        _zh: &mut [f64],
        hs: &mut [f64],
        _cs: &mut [f64],
        _tc: &mut [f64],
    ) {
        wh.addmm_into(hs, hs.len() / wh.rows, z);
        for zv in z.iter_mut() {
            *zv = zv.tanh();
        }
        hs.copy_from_slice(z);
    }

    fn backward_step(
        cache: &Cache,
        t: usize,
        dh_next: &mut [f64],
        _dc: &mut [f64],
        dz: &mut [f64],
        _dzh: &mut [f64],
    ) {
        let h_t = cache.hiddens.row(t);
        for (j, dzv) in dz.iter_mut().enumerate() {
            *dzv = dh_next[j] * (1.0 - h_t[j] * h_t[j]);
        }
        // h_{t-1} reaches the loss only through Wh.
        dh_next.fill(-0.0);
    }
}

// The tests below resume and batch through these.
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
    fn shapes_and_infer_parity() {
        let mut r = Rnn::new(3, 6, 2, &mut init::rng(1));
        let x = seq(5, 3, 2);
        let a = r.forward(&x);
        assert_eq!((a.rows, a.cols), (5, 6));
        let b = r.infer(&x);
        for (u, v) in a.data.iter().zip(&b.data) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn resumed_inference_matches_full_sequence() {
        let r = Rnn::new(3, 4, 2, &mut init::rng(13));
        let x = seq(6, 3, 14);
        let mut ws = NnWorkspace::new();
        let full = r.infer_batch(&x, 1, None, None, &mut ws);
        let prefix = Matrix::from_vec(5, 3, x.data[..15].to_vec());
        let mut states = Vec::new();
        let _ = r.infer_batch(&prefix, 1, None, Some(&mut states), &mut ws);
        let last = Matrix::from_vec(1, 3, x.data[15..].to_vec());
        let init: Vec<&[LayerState]> = vec![&states[0]];
        let resumed = r.infer_batch(&last, 1, Some(&init), None, &mut ws);
        assert_eq!(resumed.row(0), full.row(5));
    }

    #[test]
    fn zero_gradients_keep_the_signs_of_dot_products() {
        // `dh_{t-1}` and `dX` are dot products over weight rows, summed from
        // -0.0 as `Iterator::sum` does. With a -0.0 upstream gradient on a
        // 1×1 layer, every term is a signed zero: dz_1 = +0, so
        // dh_0 = -0 + (+0 · -0.5) = -0, dz_0 = -0, and
        // dX = [-0 + (-0 · -0.5), -0 + (+0 · -0.5)] = [+0, -0]. A +0.0 seed
        // for either product flips one of them.
        let mut layer = RnnLayer::new(1, 1, &mut init::rng(1));
        layer.wx.value.data[0] = -0.5;
        layer.wh.value.data[0] = -0.5;
        layer.forward(&Matrix::from_vec(2, 1, vec![0.3, -0.2]));
        let dx = layer.backward(&Matrix::from_vec(2, 1, vec![-0.0, -0.0]));
        let bits: Vec<u64> = dx.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0.0f64.to_bits(), (-0.0f64).to_bits()]);
    }

    #[test]
    fn gradcheck_rnn() {
        let mut r = Rnn::new(2, 3, 1, &mut init::rng(3));
        let x = seq(4, 2, 4);
        let c = seq(4, 3, 5);
        r.forward(&x);
        let dx = r.backward(&c);
        let eps = 1e-6;
        // Full check of all parameters of the single layer, using the
        // gradients accumulated by the backward call above.
        let analytic: Vec<Vec<f64>> = r.parameters().iter().map(|p| p.grad.data.clone()).collect();
        for (pi, grads) in analytic.iter().enumerate() {
            for idx in 0..grads.len() {
                let perturb = |e: f64| {
                    let mut r2 = r.clone();
                    r2.parameters()[pi].value.data[idx] += e;
                    loss(&r2.infer(&x), &c)
                };
                let num = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
                assert!((num - grads[idx]).abs() < 1e-6, "param {pi} idx {idx}");
            }
        }
        for idx in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let num = (loss(&r.infer(&xp), &c) - loss(&r.infer(&xm), &c)) / (2.0 * eps);
            assert!((num - dx.data[idx]).abs() < 1e-6, "x[{idx}]");
        }
    }
}
