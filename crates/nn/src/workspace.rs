//! Pooled scratch buffers for the neural hot path.
//!
//! [`NnWorkspace`] is a free-list of buffers: every transient buffer the
//! fused recurrent kernels need (input-projection matrices, recurrent
//! states, per-timestep gradient rows) is taken from the pool and given
//! back when the call returns, so steady-state predict/train reuses the
//! same handful of allocations instead of allocating per timestep.

use crate::matrix::Matrix;

/// A free-list of `Vec<f64>` buffers shared by forward, backward, and
/// inference kernels. Buffers are zero-filled on [`NnWorkspace::take`] so
/// callers can treat them as fresh.
#[derive(Debug, Clone, Default)]
pub struct NnWorkspace {
    pool: Vec<Vec<f64>>,
}

impl NnWorkspace {
    /// Empty workspace; buffers are created lazily on first use.
    pub fn new() -> Self {
        NnWorkspace::default()
    }

    /// Take a zeroed buffer of length `len`, reusing pooled capacity. An
    /// empty request leaves the pool alone.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let mut v = self.pop_fitting(len);
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// Remove the pooled buffer that best holds `len` values: the smallest
    /// whose capacity is at least `len`, else the largest, which the caller
    /// then grows. Taking whichever buffer is on top would grow every
    /// buffer towards the largest request it ever served.
    fn pop_fitting(&mut self, len: usize) -> Vec<f64> {
        let best = self.pool.iter().enumerate().min_by_key(|(_, v)| {
            let cap = v.capacity();
            if cap >= len {
                (false, cap)
            } else {
                (true, usize::MAX - cap)
            }
        });
        match best {
            Some((i, _)) => self.pool.swap_remove(i),
            None => Vec::new(),
        }
    }

    /// Take a zeroed `rows × cols` matrix backed by a pooled buffer.
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: self.take(rows * cols) }
    }

    /// Take a pooled copy of `src` (same shape and contents). Used by the
    /// training kernels to snapshot inputs/outputs into their caches without
    /// allocating fresh buffers every step.
    pub fn take_copy(&mut self, src: &Matrix) -> Matrix {
        let mut v = self.pop_fitting(src.data.len());
        v.clear();
        v.extend_from_slice(&src.data);
        Matrix { rows: src.rows, cols: src.cols, data: v }
    }

    /// Take a pooled transpose of `src` (`src.cols × src.rows`). The
    /// recurrent backward passes transpose their weights once per call so
    /// the per-step `dZ Whᵀ` products stream rows instead of columns.
    pub(crate) fn take_transpose(&mut self, src: &Matrix) -> Matrix {
        let mut t = self.take_matrix(src.cols, src.rows);
        src.transpose_into(&mut t.data);
        t
    }

    /// Return a buffer to the pool for reuse.
    pub fn give(&mut self, v: Vec<f64>) {
        if v.capacity() > 0 {
            self.pool.push(v);
        }
    }

    /// Return a matrix's backing buffer to the pool.
    pub fn give_matrix(&mut self, m: Matrix) {
        self.give(m.data);
    }

    /// Number of buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// Per-layer recurrent state (`h`, plus `c` for LSTM cells; `c` stays empty
/// for GRU/RNN layers). Snapshotting these after a forward pass lets a later
/// call resume mid-sequence, which is what the prefix-state cache in
/// `fastft-core` stores per token prefix.
#[derive(Debug, Clone, Default)]
pub struct LayerState {
    /// Hidden state, `hidden` long.
    pub h: Vec<f64>,
    /// Cell state (LSTM only), `hidden` long or empty.
    pub c: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_and_reuses_capacity() {
        let mut ws = NnWorkspace::new();
        let mut v = ws.take(8);
        v.iter().for_each(|&x| assert_eq!(x, 0.0));
        v[3] = 7.0;
        let ptr = v.as_ptr();
        ws.give(v);
        assert_eq!(ws.pooled(), 1);
        let v2 = ws.take(8);
        assert_eq!(v2.as_ptr(), ptr, "pooled buffer should be reused");
        assert!(v2.iter().all(|&x| x == 0.0), "reused buffer must be re-zeroed");
        assert_eq!(ws.pooled(), 0);
    }

    /// A small and a large buffer given back in swapped order must not
    /// both grow to the large size: each take picks the buffer that fits.
    #[test]
    fn swapped_gives_keep_pooled_capacity_at_small_plus_large() {
        const SMALL: usize = 4;
        const LARGE: usize = 1000;
        let pooled_capacity = |ws: &NnWorkspace| ws.pool.iter().map(Vec::capacity).sum::<usize>();
        let mut ws = NnWorkspace::new();
        let mut bound = None;
        for cycle in 0..6 {
            let small = if cycle % 2 == 0 {
                ws.take(SMALL)
            } else {
                ws.take_copy(&Matrix::from_vec(1, SMALL, vec![0.0; SMALL])).data
            };
            let large = ws.take(LARGE);
            assert_eq!((small.len(), large.len()), (SMALL, LARGE));
            assert!(small.iter().chain(&large).all(|&x| x == 0.0));
            // Small first, so the large buffer is on top for the next take.
            ws.give(small);
            ws.give(large);
            let total = pooled_capacity(&ws);
            let bound = *bound.get_or_insert(total);
            assert!(bound < 2 * LARGE);
            assert!(total <= bound, "cycle {cycle}: pooled capacity {total} > {bound}");
        }
    }

    #[test]
    fn take_matrix_roundtrip() {
        let mut ws = NnWorkspace::new();
        let m = ws.take_matrix(3, 4);
        assert_eq!((m.rows, m.cols), (3, 4));
        assert!(m.data.iter().all(|&x| x == 0.0));
        ws.give_matrix(m);
        assert_eq!(ws.pooled(), 1);
    }
}
