//! Optimizers operating on ordered parameter lists.
//!
//! Every network exposes `parameters() -> Vec<&mut Tensor>` with a stable
//! ordering; optimizers keep per-parameter state indexed by that order.

use crate::matrix::Tensor;

/// Plain SGD with optional gradient clipping.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// Global-norm clip threshold (`None` = no clipping).
    pub clip: Option<f64>,
}

impl Sgd {
    /// Create with learning rate `lr`.
    pub fn new(lr: f64) -> Self {
        Sgd { lr, clip: None }
    }

    /// Apply one update and zero the gradients.
    pub fn step(&mut self, mut params: Vec<&mut Tensor>) {
        let scale = clip_scale(&params, self.clip);
        for p in &mut params {
            for (v, g) in p.value.data.iter_mut().zip(&p.grad.data) {
                *v -= self.lr * g * scale;
            }
            p.zero_grad();
        }
    }
}

/// Per-parameter Adam moment vectors `(m, v)`, in parameter-list order
/// (empty before the first step).
pub type AdamMoments = Vec<(Vec<f64>, Vec<f64>)>;

/// Adam (Kingma & Ba) with bias correction and optional global-norm clip.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    /// Global-norm clip threshold (`None` = no clipping).
    pub clip: Option<f64>,
    t: u64,
    state: AdamMoments, // (m, v) per parameter tensor
}

impl Adam {
    /// Create with learning rate `lr` and standard betas.
    pub fn new(lr: f64) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, clip: Some(5.0), t: 0, state: Vec::new() }
    }

    /// Apply one update and zero the gradients. The update runs over
    /// zipped slices, one element at a time in the same arithmetic order,
    /// so the compiler vectorises it without changing a bit.
    ///
    /// # Panics
    /// Panics if the parameter list shape changes between calls.
    pub fn step(&mut self, params: Vec<&mut Tensor>) {
        if self.state.is_empty() {
            self.state = params.iter().map(|p| (vec![0.0; p.len()], vec![0.0; p.len()])).collect();
        }
        assert_eq!(self.state.len(), params.len(), "parameter list changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let scale = clip_scale(&params, self.clip);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        for (p, (m, v)) in params.into_iter().zip(&mut self.state) {
            assert_eq!(p.len(), m.len(), "parameter shape changed");
            assert_eq!(p.len(), v.len(), "parameter shape changed");
            let moments = m.iter_mut().zip(v.iter_mut());
            for ((w, gr), (m, v)) in p.value.data.iter_mut().zip(&mut p.grad.data).zip(moments) {
                let g = *gr * scale;
                *gr = 0.0;
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mh = *m / bc1;
                let vh = *v / bc2;
                *w -= lr * mh / (vh.sqrt() + eps);
            }
        }
    }

    /// Snapshot the optimizer's mutable state: the step count and the
    /// per-parameter `(m, v)` moment vectors (empty before the first step).
    pub fn snapshot(&self) -> (u64, AdamMoments) {
        (self.t, self.state.clone())
    }

    /// Restore a state captured with [`Adam::snapshot`]. The moment list may
    /// be empty (optimizer never stepped); otherwise its shape must match
    /// the parameter list passed to future [`Adam::step`] calls.
    pub fn restore(&mut self, t: u64, state: AdamMoments) {
        self.t = t;
        self.state = state;
    }
}

fn clip_scale(params: &[&mut Tensor], clip: Option<f64>) -> f64 {
    match clip {
        None => 1.0,
        Some(limit) => {
            let norm: f64 = params
                .iter()
                .map(|p| p.grad.data.iter().map(|g| g * g).sum::<f64>())
                .sum::<f64>()
                .sqrt();
            if norm > limit {
                limit / norm
            } else {
                1.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn quadratic_grad(t: &mut Tensor) {
        // L = Σ x², dL/dx = 2x
        for (g, v) in t.grad.data.iter_mut().zip(&t.value.data) {
            *g = 2.0 * v;
        }
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut t = Tensor::from_matrix(Matrix::row_vector(vec![5.0, -3.0]));
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            quadratic_grad(&mut t);
            opt.step(vec![&mut t]);
        }
        assert!(t.value.data.iter().all(|v| v.abs() < 1e-4), "{:?}", t.value.data);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut t = Tensor::from_matrix(Matrix::row_vector(vec![5.0, -3.0]));
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            quadratic_grad(&mut t);
            opt.step(vec![&mut t]);
        }
        assert!(t.value.data.iter().all(|v| v.abs() < 1e-2), "{:?}", t.value.data);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut t = Tensor::from_matrix(Matrix::row_vector(vec![1.0]));
        t.grad.data[0] = 2.0;
        Sgd::new(0.1).step(vec![&mut t]);
        assert_eq!(t.grad.data[0], 0.0);
    }

    #[test]
    fn clipping_bounds_update() {
        let mut t = Tensor::from_matrix(Matrix::row_vector(vec![0.0]));
        t.grad.data[0] = 1e9;
        let mut opt = Sgd::new(1.0);
        opt.clip = Some(1.0);
        opt.step(vec![&mut t]);
        assert!((t.value.data[0].abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn adam_rejects_changed_param_count() {
        let mut a = Tensor::zeros(1, 1);
        let mut b = Tensor::zeros(1, 1);
        let mut opt = Adam::new(0.1);
        opt.step(vec![&mut a]);
        opt.step(vec![&mut a, &mut b]);
    }
}
