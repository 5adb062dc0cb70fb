//! Elementwise activations with cached-output backward passes.

use crate::matrix::Matrix;

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no-op).
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Apply elementwise, returning a new matrix.
    pub fn forward(self, x: &Matrix) -> Matrix {
        let data = x.data.iter().map(|&v| self.apply(v)).collect();
        Matrix { rows: x.rows, cols: x.cols, data }
    }

    /// Scalar application.
    pub fn apply(self, v: f64) -> f64 {
        match self {
            Activation::Linear => v,
            Activation::Relu => v.max(0.0),
            Activation::Tanh => v.tanh(),
            Activation::Sigmoid => sigmoid(v),
        }
    }

    /// Gradient through the activation given the **forward output** `y` and
    /// upstream gradient `dy`. (All four functions have output-expressible
    /// derivatives, avoiding an input cache.)
    pub fn backward(self, y: &Matrix, dy: &Matrix) -> Matrix {
        assert_eq!((y.rows, y.cols), (dy.rows, dy.cols));
        let data = y
            .data
            .iter()
            .zip(&dy.data)
            .map(|(&yv, &dv)| dv * self.derivative_from_output(yv))
            .collect();
        Matrix { rows: y.rows, cols: y.cols, data }
    }

    /// `f'(x)` expressed through `y = f(x)`.
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

/// Numerically-stable logistic sigmoid: `1 / (1 + e^-v)` for `v ≥ 0`,
/// `e^v / (1 + e^v)` below. Both branches exponentiate `-|v|`, so the one
/// `exp` is taken before the sign test and the branch only selects a
/// quotient, which compiles without a data-dependent jump.
pub fn sigmoid(v: f64) -> f64 {
    let e = (-v.abs()).exp();
    let d = 1.0 + e;
    if v >= 0.0 {
        1.0 / d
    } else {
        e / d
    }
}

/// In-place softmax over a slice.
pub fn softmax_inplace(xs: &mut [f64]) {
    let max = xs.iter().cloned().fold(f64::MIN, f64::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// Backward through a softmax row: given softmax output `p` and upstream
/// gradient `dp`, returns the gradient w.r.t. the logits.
pub fn softmax_backward_row(p: &[f64], dp: &[f64]) -> Vec<f64> {
    let dot: f64 = p.iter().zip(dp).map(|(a, b)| a * b).sum();
    p.iter().zip(dp).map(|(&pi, &di)| pi * (di - dot)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_matches_two_branch_form_bitwise() {
        let two_branch = |v: f64| {
            if v >= 0.0 {
                1.0 / (1.0 + (-v).exp())
            } else {
                let e = v.exp();
                e / (1.0 + e)
            }
        };
        let specials = [0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 800.0, -800.0];
        let sweep = (-400..=400).map(|i| f64::from(i) * 0.0731);
        for v in specials.into_iter().chain(sweep).chain([f64::INFINITY, f64::NEG_INFINITY]) {
            assert_eq!(sigmoid(v).to_bits(), two_branch(v).to_bits(), "sigmoid({v})");
        }
        assert!(sigmoid(f64::NAN).is_nan());
    }

    #[test]
    fn sigmoid_extremes_stable() {
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relu_forward_backward() {
        let x = Matrix::row_vector(vec![-1.0, 0.0, 2.0]);
        let y = Activation::Relu.forward(&x);
        assert_eq!(y.data, vec![0.0, 0.0, 2.0]);
        let dy = Matrix::row_vector(vec![1.0, 1.0, 1.0]);
        let dx = Activation::Relu.backward(&y, &dy);
        assert_eq!(dx.data, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_derivative_via_finite_difference() {
        let x: f64 = 0.37;
        let eps = 1e-6;
        let numeric = ((x + eps).tanh() - (x - eps).tanh()) / (2.0 * eps);
        let analytic = Activation::Tanh.derivative_from_output(x.tanh());
        assert!((numeric - analytic).abs() < 1e-8);
    }

    #[test]
    fn sigmoid_derivative_via_finite_difference() {
        let x = -0.8;
        let eps = 1e-6;
        let numeric = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
        let analytic = Activation::Sigmoid.derivative_from_output(sigmoid(x));
        assert!((numeric - analytic).abs() < 1e-8);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut xs);
        assert!((xs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let logits = [0.2, -0.5, 1.3, 0.0];
        let dp = [0.7, -0.3, 0.1, 0.5];
        let mut p = logits.to_vec();
        softmax_inplace(&mut p);
        let analytic = softmax_backward_row(&p, &dp);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut plus = logits.to_vec();
            plus[i] += eps;
            softmax_inplace(&mut plus);
            let mut minus = logits.to_vec();
            minus[i] -= eps;
            softmax_inplace(&mut minus);
            let f_plus: f64 = plus.iter().zip(&dp).map(|(a, b)| a * b).sum();
            let f_minus: f64 = minus.iter().zip(&dp).map(|(a, b)| a * b).sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!((numeric - analytic[i]).abs() < 1e-6, "i={i}: {numeric} vs {}", analytic[i]);
        }
    }
}
