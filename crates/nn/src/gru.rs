//! Gated recurrent unit (Cho et al., 2014) — an additional sequence encoder
//! beyond the paper's LSTM/RNN/Transformer trio, exposed through
//! [`crate::seq::EncoderKind::Gru`] for extended encoder ablations.
//!
//! The gate math of [`GruCell`] runs on the shared [`crate::recurrent`]
//! layer and stack. Gate layout inside the fused weights is `[r | z | n]`
//! (reset, update, candidate), with the PyTorch-style candidate
//! `n = tanh(x Wxn + r ⊙ (h Whn) + bn)`, so each step builds `Zh = h_prev Wh`
//! from zero apart from the projected `Zx` rows.

use crate::activation::sigmoid;
use crate::init;
use crate::matrix::{Matrix, Tensor};
use crate::recurrent::{Cache, Cell, Recurrent, RecurrentLayer};
use fastft_tabular::rngx::StdRng;

/// GRU gate math (`[r | z | n]`).
#[derive(Debug, Clone)]
pub struct GruCell;

/// One GRU layer.
pub type GruLayer = RecurrentLayer<GruCell>;

/// A stack of GRU layers.
pub type Gru = Recurrent<GruCell>;

impl Cell for GruCell {
    const GATES: usize = 3;
    const HAS_C: bool = false;
    const SEPARATE_ZH: bool = true;
    // Gates 3H + candidate linear H + hidden H.
    const ACTIVATIONS: usize = 5;

    /// Xavier initialisation, zero bias.
    fn init(in_dim: usize, hidden: usize, rng: &mut StdRng) -> [Tensor; 3] {
        let wx = Tensor::from_matrix(init::xavier(rng, in_dim, 3 * hidden));
        let wh = Tensor::from_matrix(init::xavier(rng, hidden, 3 * hidden));
        [wx, wh, Tensor::zeros(1, 3 * hidden)]
    }

    fn forward_step(
        wh: &Matrix,
        zx: &mut [f64],
        zh: &mut [f64],
        hs: &mut [f64],
        _cs: &mut [f64],
        _tc: &mut [f64],
    ) {
        let h = wh.rows;
        let g = 3 * h;
        let batch = hs.len() / h;
        // Recurrent GEMM for this step's lanes: Zh = h_prev Wh.
        zh.iter_mut().for_each(|v| *v = 0.0);
        wh.addmm_into(hs, batch, zh);
        for bi in 0..batch {
            let zxr = &mut zx[bi * g..(bi + 1) * g];
            let zhr = &zh[bi * g..(bi + 1) * g];
            let hp = &mut hs[bi * h..(bi + 1) * h];
            for j in 0..h {
                let r = sigmoid(zxr[j] + zhr[j]);
                let z = sigmoid(zxr[h + j] + zhr[h + j]);
                let hn_lin = zhr[2 * h + j];
                let n = (zxr[2 * h + j] + r * hn_lin).tanh();
                zxr[j] = r;
                zxr[h + j] = z;
                zxr[2 * h + j] = n;
                hp[j] = (1.0 - z) * n + z * hp[j];
            }
        }
    }

    /// `dzx` and `dzh` share the `r`/`z` slots; the `n` slot of `dzh` is
    /// scaled by `r`, which multiplies `h Whn` inside the candidate.
    fn backward_step(
        cache: &Cache,
        t: usize,
        dh_next: &mut [f64],
        _dc: &mut [f64],
        dzx: &mut [f64],
        dzh: &mut [f64],
    ) {
        let h = dh_next.len();
        let gates = cache.gates.row(t);
        let hn_lin = cache.extra.row(t);
        for j in 0..h {
            let dh = dh_next[j];
            let r = gates[j];
            let z = gates[h + j];
            let n = gates[2 * h + j];
            let h_prev = if t == 0 { 0.0 } else { cache.hiddens[(t - 1, j)] };
            // h = (1-z) n + z h_prev
            let dz = dh * (h_prev - n);
            let dn = dh * (1.0 - z);
            // n = tanh(a), a = zx_n + r * hn_lin
            let da = dn * (1.0 - n * n);
            dzx[2 * h + j] = da;
            let dr = da * hn_lin[j];
            dzh[2 * h + j] = da * r;
            // r = σ(zx_r + zh_r), z = σ(zx_z + zh_z)
            let dzr = dr * r * (1.0 - r);
            let dzz = dz * z * (1.0 - z);
            dzx[j] = dzr;
            dzh[j] = dzr;
            dzx[h + j] = dzz;
            dzh[h + j] = dzz;
            // Direct h_prev pathway through the update gate; the layer adds
            // the Whᵀ pathway once dzh_t is complete.
            dh_next[j] = dh * z;
        }
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
        let mut g = Gru::new(3, 5, 2, &mut init::rng(1));
        let x = seq(6, 3, 2);
        let a = g.forward(&x);
        assert_eq!((a.rows, a.cols), (6, 5));
        let b = g.infer(&x);
        for (u, v) in a.data.iter().zip(&b.data) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn resumed_inference_matches_full_sequence() {
        let g = Gru::new(3, 4, 2, &mut init::rng(13));
        let x = seq(6, 3, 14);
        let mut ws = NnWorkspace::new();
        let full = g.infer_batch(&x, 1, None, None, &mut ws);
        let prefix = Matrix::from_vec(4, 3, x.data[..12].to_vec());
        let mut states = Vec::new();
        let _ = g.infer_batch(&prefix, 1, None, Some(&mut states), &mut ws);
        let tail = Matrix::from_vec(2, 3, x.data[12..].to_vec());
        let init: Vec<&[LayerState]> = vec![&states[0]];
        let resumed = g.infer_batch(&tail, 1, Some(&init), None, &mut ws);
        assert_eq!(resumed.row(0), full.row(4));
        assert_eq!(resumed.row(1), full.row(5));
    }

    #[test]
    fn gradcheck_single_layer_full() {
        let mut g = GruLayer::new(2, 3, &mut init::rng(3));
        let x = seq(4, 2, 4);
        let c = seq(4, 3, 5);
        g.forward(&x);
        let dx = g.backward(&c);
        let eps = 1e-6;
        let analytic: Vec<Vec<f64>> = g.parameters().iter().map(|p| p.grad.data.clone()).collect();
        for (pi, grads) in analytic.iter().enumerate() {
            for idx in 0..grads.len() {
                let perturb = |e: f64| {
                    let mut g2 = g.clone();
                    g2.parameters()[pi].value.data[idx] += e;
                    loss(&g2.infer(&x), &c)
                };
                let num = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
                assert!(
                    (num - grads[idx]).abs() < 1e-6,
                    "param {pi} idx {idx}: {num} vs {}",
                    grads[idx]
                );
            }
        }
        for idx in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let num = (loss(&g.infer(&xp), &c) - loss(&g.infer(&xm), &c)) / (2.0 * eps);
            assert!((num - dx.data[idx]).abs() < 1e-6, "x[{idx}]");
        }
    }

    #[test]
    fn gradcheck_stacked_spot() {
        let mut g = Gru::new(2, 3, 2, &mut init::rng(6));
        let x = seq(3, 2, 7);
        let c = seq(3, 3, 8);
        g.forward(&x);
        let dx = g.backward(&c);
        let eps = 1e-6;
        for (li, pi, idx) in [(0usize, 0usize, 0usize), (0, 1, 2), (1, 0, 4), (1, 2, 1)] {
            let analytic = g.layers[li].parameters()[pi].grad.data[idx];
            let perturb = |e: f64| {
                let mut g2 = g.clone();
                g2.layers[li].parameters()[pi].value.data[idx] += e;
                loss(&g2.infer(&x), &c)
            };
            let num = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
            assert!((num - analytic).abs() < 1e-6, "layer {li} param {pi} idx {idx}");
        }
        for idx in [0, 3, 5] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let num = (loss(&g.infer(&xp), &c) - loss(&g.infer(&xm), &c)) / (2.0 * eps);
            assert!((num - dx.data[idx]).abs() < 1e-6, "x[{idx}]");
        }
    }
}
