//! Row-major `f64` matrices and gradient-carrying parameter tensors.
//!
//! Every dense product on the recurrent hot path ([`Matrix::addmm_into`],
//! [`Matrix::add_matmul_tn`], and through them the recurrent layers'
//! backward products) runs one register-blocked kernel, `accumulate`. It
//! walks each output row in strips of `STRIP` columns and holds a strip
//! in a local array across the whole reduction, so the reduction loop
//! neither reloads nor stores its outputs and the compiler keeps them in
//! vector registers. Blocking changes only which elements are in flight,
//! never how one element is summed: each output element starts from its
//! current value and adds its `a·b` terms one at a time in ascending
//! reduction index, with no fused multiply-add and no reassociation, so
//! the result is bitwise that of the naive k-ascending loop. A caller that
//! wants `Iterator::sum`'s bits seeds `out` with `-0.0`, the value that
//! sum starts from (the additive identity, so `-0.0 + x` is `x` for every
//! `x`, zeros of either sign included).
//!
//! The kernel body is compiled twice: once for the build's baseline target
//! (SSE2 on x86-64: two `f64` lanes) and once inside a
//! `#[target_feature(enable = "avx2")]` function (four lanes). `accumulate`
//! picks the AVX2 build when the CPU reports AVX2 at run time. Both builds
//! run the same source, and since Rust never contracts `a * b + c` into a
//! fused multiply-add (and `fma` is not enabled), only the vector width
//! differs: every element's sum, and so every result bit, is the same.

use std::ops::{Index, IndexMut};

/// Output columns the `accumulate` kernel keeps in registers at a time.
const STRIP: usize = 16;

/// `out[i][j] += Σ_k A(i, k) · b[k][j]`: `b` is row-major with `n`
/// columns and `b.len() / n` rows (the reduction depth), `out` is
/// row-major with `n` columns, and `A(i, k) = a[i·a_row + k·a_k]` for
/// `strides = (a_row, a_k)`, so `(depth, 1)` reads `a` row-major and
/// `(1, rows)` reads it transposed (each strided row of `A` is gathered
/// into a contiguous buffer first). Each output element adds its terms in
/// ascending `k`, starting from its value in `out` (see the module docs).
///
/// Runs [`accumulate_portable`] compiled for AVX2 when the CPU has it (see
/// the module docs), else the portable build of the same body.
///
/// # Panics
/// Panics if `b` or `out` is not a whole number of `n`-wide rows, or if `a`
/// is too short for the strides.
pub(crate) fn accumulate(a: &[f64], strides: (usize, usize), b: &[f64], n: usize, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `accumulate_avx2` only requires the CPU to support AVX2,
        // which was detected at run time just above.
        return unsafe { accumulate_avx2(a, strides, b, n, out) };
    }
    accumulate_portable(a, strides, b, n, out)
}

/// The body of [`accumulate`] compiled with AVX2 enabled: the same source,
/// with 4-lane vectors. Only `avx2`, not `fma`; Rust never fuses `a * b + c`
/// on its own, so the bits are those of the portable build.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn accumulate_avx2(a: &[f64], strides: (usize, usize), b: &[f64], n: usize, out: &mut [f64]) {
    accumulate_portable(a, strides, b, n, out)
}

/// The portable body of [`accumulate`], inlined into each caller so that
/// every build of it takes the caller's target features.
#[inline(always)]
fn accumulate_portable(
    a: &[f64],
    (a_row, a_k): (usize, usize),
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    if n == 0 || out.is_empty() {
        return;
    }
    assert!(b.len().is_multiple_of(n) && out.len().is_multiple_of(n), "accumulate shape");
    let (rows, depth) = (out.len() / n, b.len() / n);
    if depth == 0 {
        return;
    }
    assert!((rows - 1) * a_row + (depth - 1) * a_k < a.len(), "accumulate lhs shape");
    let mut gathered = Vec::new();
    for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
        let a_i = if a_k == 1 {
            &a[i * a_row..i * a_row + depth]
        } else {
            gathered.clear();
            gathered.extend(a[i * a_row..].iter().step_by(a_k).take(depth));
            &gathered[..]
        };
        accumulate_row(a_i, b, n, o_row);
    }
}

/// One output row of `accumulate`: `o_row[j] += Σ_k a[k] · b[k][j]`,
/// one `STRIP`-wide strip at a time, then the narrower tail.
#[inline(always)]
fn accumulate_row(a: &[f64], b: &[f64], n: usize, o_row: &mut [f64]) {
    let (strips, tail) = o_row.as_chunks_mut::<STRIP>();
    for (s, o) in strips.iter_mut().enumerate() {
        let j0 = s * STRIP;
        let mut acc = *o;
        for (&av, b_row) in a.iter().zip(b.chunks_exact(n)) {
            let b_strip: &[f64; STRIP] =
                b_row[j0..j0 + STRIP].try_into().expect("a strip is STRIP wide");
            for (acc, &bv) in acc.iter_mut().zip(b_strip) {
                *acc += av * bv;
            }
        }
        *o = acc;
    }
    if !tail.is_empty() {
        let (j0, w) = (n - tail.len(), tail.len());
        let mut acc = [0.0; STRIP];
        acc[..w].copy_from_slice(tail);
        for (&av, b_row) in a.iter().zip(b.chunks_exact(n)) {
            for (acc, &bv) in acc[..w].iter_mut().zip(&b_row[j0..]) {
                *acc += av * bv;
            }
        }
        tail.copy_from_slice(&acc[..w]);
    }
}

/// A dense row-major matrix of `f64`. Activations and intermediate values
/// use this type; trainable parameters use [`Tensor`].
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let cols = data.len();
        Matrix { rows: 1, cols, data }
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — standard matrix product.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // The zero-skip below drops `0 · b` terms, which is only sound while
        // `b` is finite (`0 · ∞` and `0 · NaN` are NaN and must propagate).
        // Scanned lazily so all-nonzero inputs never pay for it.
        let mut b_finite: Option<bool> = None;
        // ikj loop order: the inner loop walks both `other` and `out` rows
        // contiguously (perf-book cache-friendly traversal).
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0
                    && *b_finite.get_or_insert_with(|| other.data.iter().all(|v| v.is_finite()))
                {
                    continue;
                }
                let b_row = other.row(k);
                let o_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ otherᵀ`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                out.data[i * other.rows + j] = a_row.iter().zip(b_row).map(|(a, b)| a * b).sum();
            }
        }
        out
    }

    /// `selfᵀ @ other`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape");
        let mut out = Matrix::zeros(self.cols, other.cols);
        // Same lazily-checked finiteness gate as [`Matrix::matmul`]: the
        // zero-skip must not swallow `0 · ∞ = NaN` terms from `other`.
        let mut b_finite: Option<bool> = None;
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0
                    && *b_finite.get_or_insert_with(|| other.data.iter().all(|v| v.is_finite()))
                {
                    continue;
                }
                let o_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `out += selfᵀ @ other` — dense accumulate (no zero-skip), used by the
    /// fused recurrent backward passes to hoist `dW += Xᵀ dZ` out of the
    /// time loop. Runs the `accumulate` kernel, so each element sums over
    /// rows in ascending order.
    pub fn add_matmul_tn(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "add_matmul_tn shape");
        assert_eq!((out.rows, out.cols), (self.cols, other.cols), "add_matmul_tn out shape");
        accumulate(&self.data, (1, self.cols), &other.data, other.cols, &mut out.data);
    }

    /// `out += a @ self` over a flat row-major slice pair: `a` is
    /// `rows × self.rows`, `out` is `rows × self.cols`. Dense accumulate
    /// (no zero-skip) through the `accumulate` kernel, so the fused
    /// recurrent kernels and the prefix-resumed paths built on them
    /// all share one bitwise-deterministic, k-ascending summation order.
    pub fn addmm_into(&self, a: &[f64], rows: usize, out: &mut [f64]) {
        assert_eq!(a.len(), rows * self.rows, "addmm_into lhs shape");
        assert_eq!(out.len(), rows * self.cols, "addmm_into out shape");
        accumulate(a, (self.rows, 1), &self.data, self.cols, out);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out.data);
        out
    }

    /// Write the transpose (`cols × rows`, row-major) into `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != rows * cols`.
    pub(crate) fn transpose_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.data.len(), "transpose_into shape");
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
    }

    /// Elementwise addition in place.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scale all entries in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Add a 1×cols row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// A trainable parameter: value plus accumulated gradient of the same shape.
#[derive(Debug, Clone)]
pub struct Tensor {
    /// Parameter values.
    pub value: Matrix,
    /// Accumulated gradient (zeroed by [`crate::optim`] helpers).
    pub grad: Matrix,
}

impl Tensor {
    /// Zero-initialised parameter.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { value: Matrix::zeros(rows, cols), grad: Matrix::zeros(rows, cols) }
    }

    /// Wrap an existing value matrix.
    pub fn from_matrix(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows, value.cols);
        Tensor { value, grad }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.data.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.value.data.is_empty()
    }

    /// Reset the gradient to zero.
    pub fn zero_grad(&mut self) {
        for g in &mut self.grad.data {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(f64::from).collect());
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 4, (0..12).map(f64::from).collect());
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_broadcast() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.data, vec![1., 2., 3., 1., 2., 3.]);
    }

    #[test]
    fn indexing() {
        let mut a = Matrix::zeros(2, 2);
        a[(1, 0)] = 5.0;
        assert_eq!(a[(1, 0)], 5.0);
        assert_eq!(a.row(1), &[5.0, 0.0]);
    }

    #[test]
    fn tensor_zero_grad() {
        let mut t = Tensor::zeros(2, 2);
        t.grad.data[0] = 3.0;
        t.zero_grad();
        assert!(t.grad.data.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn matmul_propagates_nan_through_zero_rows() {
        // Regression: the zero-skip fast path used to drop `0 · NaN` and
        // `0 · ∞` terms, silently producing finite output from poisoned B.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![f64::NAN, f64::INFINITY, 2.0, 3.0]);
        let c = a.matmul(&b);
        assert!(c.data[0].is_nan(), "0·NaN must propagate, got {}", c.data[0]);
        assert!(c.data[1].is_nan(), "0·∞ + finite must stay NaN, got {}", c.data[1]);
    }

    #[test]
    fn matmul_tn_propagates_nan_through_zero_rows() {
        let a = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![f64::NAN, f64::INFINITY, 2.0, 3.0]);
        let c = a.matmul_tn(&b);
        assert!(c.data[0].is_nan() && c.data[1].is_nan());
    }

    #[test]
    fn matmul_zero_skip_still_exact_on_finite_inputs() {
        let a = Matrix::from_vec(2, 3, vec![0.0, 2.0, 0.0, 1.0, 0.0, 3.0]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let dense = {
            let mut out = Matrix::zeros(2, 2);
            b.addmm_into(&a.data, 2, &mut out.data);
            out
        };
        assert_eq!(a.matmul(&b), dense);
    }

    #[test]
    fn addmm_into_accumulates() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut out = vec![1.0; 4];
        b.addmm_into(&a.data, 2, &mut out);
        assert_eq!(out, vec![59., 65., 140., 155.]);
    }

    #[test]
    fn add_matmul_tn_accumulates() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 4, (0..12).map(f64::from).collect());
        let mut out = Matrix::zeros(2, 4);
        a.add_matmul_tn(&b, &mut out);
        let mut expect = a.matmul_tn(&b);
        a.add_matmul_tn(&b, &mut out);
        expect.add_assign(&a.matmul_tn(&b));
        assert_eq!(out, expect);
    }

    /// Deterministic values spread over many binades, so that any change
    /// in summation order shows in the low bits.
    fn spread(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                unit * f64::powi(2.0, (state % 21) as i32 - 10)
            })
            .collect()
    }

    /// `out[i][j] += Σ_k a(i, k) · b[k][j]`, one term at a time in
    /// ascending `k`: the order the blocked kernel must reproduce.
    fn naive(a: impl Fn(usize, usize) -> f64, b: &Matrix, out: &mut [f64]) {
        for (i, o_row) in out.chunks_exact_mut(b.cols).enumerate() {
            for (j, o) in o_row.iter_mut().enumerate() {
                for k in 0..b.rows {
                    *o += a(i, k) * b[(k, j)];
                }
            }
        }
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    #[test]
    fn blocked_kernel_matches_naive_loops_bitwise() {
        for n in [1, 5, 15, 16, 17, 33, 128] {
            for rows in [1, 3, 100] {
                for depth in [1, 9, 40] {
                    let what = format!("n {n}, rows {rows}, depth {depth}");
                    let seed = (n * 1000 + rows * 10 + depth) as u64;
                    let b = Matrix::from_vec(depth, n, spread(depth * n, seed));
                    let init = spread(rows * n, seed + 1);

                    // addmm_into: out += A B, A row-major rows × depth.
                    let a = Matrix::from_vec(rows, depth, spread(rows * depth, seed + 2));
                    let mut got = init.clone();
                    b.addmm_into(&a.data, rows, &mut got);
                    let mut want = init.clone();
                    naive(|i, k| a[(i, k)], &b, &mut want);
                    assert_bits(&got, &want, &format!("addmm_into {what}"));

                    // add_matmul_tn: out += Aᵀ B, A depth × rows.
                    let at = Matrix::from_vec(depth, rows, spread(depth * rows, seed + 3));
                    let mut got = Matrix::from_vec(rows, n, init.clone());
                    at.add_matmul_tn(&b, &mut got);
                    let mut want = init.clone();
                    naive(|i, k| at[(k, i)], &b, &mut want);
                    assert_bits(&got.data, &want, &format!("add_matmul_tn {what}"));

                    // The transposed product of the recurrent backward:
                    // dot products over the rows of W (n × depth), run as
                    // A Wᵀ from -0.0, must equal `Iterator::sum`.
                    let w = b.transpose();
                    let mut got = vec![-0.0; rows * n];
                    b.addmm_into(&a.data, rows, &mut got);
                    let want: Vec<f64> = (0..rows)
                        .flat_map(|i| (0..n).map(move |j| (i, j)))
                        .map(|(i, j)| w.row(j).iter().zip(a.row(i)).map(|(w, a)| w * a).sum())
                        .collect();
                    assert_bits(&got, &want, &format!("transposed product {what}"));
                }
            }
        }
    }

    /// The dispatched entry (the AVX2 build where the CPU has it) against
    /// the portable body, on the shape grid above, with non-finite inputs
    /// and `-0.0` seeds. Without AVX2 both calls run the portable body.
    #[test]
    fn dispatched_kernel_matches_portable_body_bitwise() {
        // Equal bits, except that a NaN matches any NaN: Rust does not pin
        // which operand's payload an arithmetic NaN carries.
        let same = |x: &f64, y: &f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        let poison = |v: &mut [f64], seed: usize| {
            for (i, x) in v.iter_mut().enumerate() {
                match (i * 7 + seed) % 29 {
                    0 => *x = f64::NAN,
                    1 => *x = f64::INFINITY,
                    2 => *x = f64::NEG_INFINITY,
                    3 => *x = -0.0,
                    4 => *x = 0.0,
                    _ => {}
                }
            }
        };
        for n in [1, 5, 15, 16, 17, 33, 128] {
            for rows in [1, 3, 100] {
                for depth in [1, 9, 40] {
                    let seed = (n * 1000 + rows * 10 + depth) as u64;
                    for poisoned in [false, true] {
                        let mut a = spread(rows * depth, seed + 2);
                        let mut b = spread(depth * n, seed);
                        let mut init = spread(rows * n, seed + 1);
                        if poisoned {
                            poison(&mut a, 1);
                            poison(&mut b, 2);
                            poison(&mut init, 3);
                        }
                        let seeds = [init, vec![-0.0; rows * n]];
                        // Row-major and transposed reads of `a`.
                        for strides in [(depth, 1), (1, rows)] {
                            for (s, seed_out) in seeds.iter().enumerate() {
                                let mut got = seed_out.clone();
                                accumulate(&a, strides, &b, n, &mut got);
                                let mut want = seed_out.clone();
                                accumulate_portable(&a, strides, &b, n, &mut want);
                                assert!(
                                    got.iter().zip(&want).all(|(g, w)| same(g, w)),
                                    "n {n}, rows {rows}, depth {depth}, poisoned {poisoned}, \
                                     strides {strides:?}, seed {s}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_kernel_propagates_nan_and_infinity() {
        // Width 17: one full strip plus a one-column tail.
        let n = 17;
        let mut b = Matrix::from_vec(3, n, spread(3 * n, 5));
        b[(0, 0)] = f64::NAN;
        b[(0, 16)] = f64::INFINITY;
        b[(1, 3)] = f64::INFINITY;
        b[(2, 3)] = f64::NEG_INFINITY;
        b[(1, 5)] = f64::INFINITY;
        let a = [0.0, 1.0, 0.5];
        let mut got = vec![0.0; n];
        b.addmm_into(&a, 1, &mut got);
        assert!(got[0].is_nan(), "0·NaN must propagate");
        assert!(got[16].is_nan(), "0·∞ must propagate in the tail");
        assert!(got[3].is_nan(), "∞ − ∞ is NaN");
        assert_eq!(got[5], f64::INFINITY);
        let mut want = vec![0.0; n];
        naive(|_, k| a[k], &b, &mut want);
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()), "col {j}");
        }
        // A NaN already in `out` survives the accumulation.
        let mut out = vec![f64::NAN; n];
        b.addmm_into(&[1.0, 1.0, 1.0], 1, &mut out);
        assert!(out.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn all_zero_products_keep_the_sign_of_iterator_sum() {
        // Every product is -0.0 (0 · negative) in columns 0..16 and +0.0 in
        // the 3-wide tail: `Iterator::sum` gives -0.0 and +0.0, and so must
        // the kernel seeded with -0.0. A +0.0 seed would turn -0.0 into +0.0.
        let (depth, n) = (4, 19);
        let b = Matrix::from_vec(
            depth,
            n,
            (0..depth * n).map(|i| if i % n < 16 { -1.5 } else { 2.0 }).collect(),
        );
        let a = vec![0.0; depth];
        let mut got = vec![-0.0; n];
        b.addmm_into(&a, 1, &mut got);
        let w = b.transpose();
        let want: Vec<f64> =
            (0..n).map(|j| w.row(j).iter().zip(&a).map(|(w, a)| w * a).sum()).collect();
        assert_bits(&got, &want, "zero products");
        assert!(got[..16].iter().all(|v| v.is_sign_negative()));
        assert!(got[16..].iter().all(|v| v.is_sign_positive()));
        // An empty reduction leaves the seed: `Iterator::sum` of nothing.
        let mut empty = vec![-0.0; 3];
        Matrix::zeros(0, 3).addmm_into(&[], 1, &mut empty);
        assert_bits(&empty, &[std::iter::empty::<f64>().sum::<f64>(); 3], "empty sum");
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
