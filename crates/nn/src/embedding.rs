//! Token embedding table for transformation-sequence encoders.

use crate::init;
use crate::matrix::{Matrix, Tensor};
use fastft_tabular::rngx::StdRng;

/// Lookup table mapping token ids to dense rows (`vocab × dim`).
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The table itself.
    pub table: Tensor,
    cache_tokens: Vec<usize>,
}

impl Embedding {
    /// Xavier-initialised table.
    pub fn new(vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        Embedding {
            table: Tensor::from_matrix(init::xavier(rng, vocab, dim)),
            cache_tokens: Vec::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.value.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.value.cols
    }

    /// Embed a token sequence into a `T × dim` matrix; caches the tokens for
    /// the backward pass.
    ///
    /// # Panics
    /// Panics on out-of-vocabulary ids.
    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        let out = self.infer(tokens);
        self.cache_tokens = tokens.to_vec();
        out
    }

    /// Embed without caching.
    pub fn infer(&self, tokens: &[usize]) -> Matrix {
        let dim = self.dim();
        let mut out = Matrix::zeros(tokens.len(), dim);
        for (t, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.vocab(), "token {tok} out of vocab {}", self.vocab());
            out.row_mut(t).copy_from_slice(self.table.value.row(tok));
        }
        out
    }

    /// Embed into a caller-provided `T × dim` matrix (no allocation).
    ///
    /// # Panics
    /// Panics on out-of-vocabulary ids or a shape mismatch.
    pub fn infer_into(&self, tokens: &[usize], out: &mut Matrix) {
        assert_eq!((out.rows, out.cols), (tokens.len(), self.dim()), "infer_into shape");
        for (t, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.vocab(), "token {tok} out of vocab {}", self.vocab());
            out.row_mut(t).copy_from_slice(self.table.value.row(tok));
        }
    }

    /// Scatter-add the upstream gradient onto the used table rows.
    pub fn backward(&mut self, d_out: &Matrix) {
        assert_eq!(d_out.rows, self.cache_tokens.len(), "backward before forward");
        let dim = self.dim();
        for (t, &tok) in self.cache_tokens.iter().enumerate() {
            let g_row = &mut self.table.grad.data[tok * dim..(tok + 1) * dim];
            for (g, d) in g_row.iter_mut().zip(d_out.row(t)) {
                *g += d;
            }
        }
    }

    /// Trainable parameters.
    pub fn parameters(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.table]
    }

    /// Parameter count.
    pub fn n_params(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_rows() {
        let mut e = Embedding::new(5, 3, &mut init::rng(1));
        let x = e.forward(&[2, 0, 2]);
        assert_eq!(x.rows, 3);
        assert_eq!(x.row(0), e.table.value.row(2));
        assert_eq!(x.row(0), x.row(2));
    }

    #[test]
    fn backward_scatters_and_accumulates() {
        let mut e = Embedding::new(4, 2, &mut init::rng(2));
        e.forward(&[1, 1, 3]);
        let d = Matrix::from_vec(3, 2, vec![1.0, 2.0, 10.0, 20.0, 5.0, 6.0]);
        e.backward(&d);
        assert_eq!(e.table.grad.row(1), &[11.0, 22.0]); // two uses of token 1
        assert_eq!(e.table.grad.row(3), &[5.0, 6.0]);
        assert_eq!(e.table.grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn infer_into_matches_infer() {
        let e = Embedding::new(5, 3, &mut init::rng(4));
        let tokens = [4, 1, 0, 1];
        let mut out = Matrix::zeros(4, 3);
        e.infer_into(&tokens, &mut out);
        assert_eq!(out, e.infer(&tokens));
    }

    #[test]
    #[should_panic]
    fn oov_panics() {
        let mut e = Embedding::new(3, 2, &mut init::rng(3));
        e.forward(&[7]);
    }
}
