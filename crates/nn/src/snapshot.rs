//! Weight + optimizer snapshots for checkpointing and rollback.
//!
//! Every network in the workspace exposes `parameters() -> Vec<&mut Tensor>`
//! with a stable ordering (see [`crate::optim`]). [`NetState`] captures the
//! parameter values in that order together with the paired [`Adam`] state,
//! which is enough to (a) persist a network to a checkpoint and (b) roll a
//! network back to its last good weights after a diverged training step.
//! Values are copied verbatim (`f64` by `f64`), so a capture/restore
//! round-trip is bitwise exact.

use crate::matrix::Tensor;
use crate::optim::Adam;

/// A flat, order-preserving snapshot of one network's mutable state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetState {
    /// Parameter tensor values, in the network's stable `parameters()` order.
    pub params: Vec<Vec<f64>>,
    /// Adam step count.
    pub opt_t: u64,
    /// Adam first moments per parameter (empty if the optimizer never
    /// stepped).
    pub opt_m: Vec<Vec<f64>>,
    /// Adam second moments per parameter (same shape as `opt_m`).
    pub opt_v: Vec<Vec<f64>>,
}

impl NetState {
    /// Whether every captured parameter value is finite.
    pub fn is_finite(&self) -> bool {
        self.params.iter().all(|p| p.iter().all(|v| v.is_finite()))
    }
}

/// Capture `params` (a network's stable-order parameter view) and `opt`.
pub fn capture(params: &[&mut Tensor], opt: &Adam) -> NetState {
    let (opt_t, moments) = opt.snapshot();
    let (opt_m, opt_v) = moments.into_iter().unzip();
    NetState { params: params.iter().map(|p| p.value.data.clone()).collect(), opt_t, opt_m, opt_v }
}

/// Restore a snapshot into `params`/`opt`. Fails (without partial writes)
/// if the snapshot's parameter count or any tensor length disagrees with
/// the live network, or if its Adam moments are neither absent nor one
/// `(m, v)` pair per parameter with the parameter's length: a moment of
/// the wrong length would make the next [`Adam::step`] panic.
pub fn restore(params: Vec<&mut Tensor>, opt: &mut Adam, state: &NetState) -> Result<(), String> {
    if params.len() != state.params.len() {
        return Err(format!(
            "snapshot has {} parameter tensors, network has {}",
            state.params.len(),
            params.len()
        ));
    }
    for (i, (p, s)) in params.iter().zip(&state.params).enumerate() {
        if p.len() != s.len() {
            return Err(format!(
                "parameter {i}: snapshot len {} != network len {}",
                s.len(),
                p.len()
            ));
        }
    }
    let (m, v) = (&state.opt_m, &state.opt_v);
    if m.len() != v.len() || !(m.is_empty() || m.len() == params.len()) {
        return Err("optimizer moment count disagrees with parameter count".into());
    }
    for (i, ((p, m), v)) in params.iter().zip(m).zip(v).enumerate() {
        if m.len() != p.len() || v.len() != p.len() {
            return Err(format!(
                "parameter {i}: moment lens {}/{} != network len {}",
                m.len(),
                v.len(),
                p.len()
            ));
        }
    }
    for (p, s) in params.into_iter().zip(&state.params) {
        p.value.data.copy_from_slice(s);
        p.zero_grad();
    }
    let moments = state.opt_m.iter().cloned().zip(state.opt_v.iter().cloned()).collect();
    opt.restore(state.opt_t, moments);
    Ok(())
}

/// Whether every live parameter value in `params` is finite. Used as the
/// post-training guard: a non-finite weight means the last update diverged
/// and the caller should roll back to its pre-training [`NetState`].
pub fn params_finite(params: &[&mut Tensor]) -> bool {
    params.iter().all(|p| p.value.data.iter().all(|v| v.is_finite()))
}

fastft_tabular::persist_struct!(NetState { params, opt_t, opt_m, opt_v });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::mlp::Mlp;

    #[test]
    fn capture_restore_round_trips_bitwise() {
        let mut net = Mlp::new(&[3, 4, 1], 7);
        let mut opt = Adam::new(0.05);
        // Step once so the optimizer has moments.
        let y = net.forward(&Matrix::row_vector(vec![1.0, -2.0, 0.5]));
        net.backward(&Matrix::row_vector(vec![2.0 * (y.data[0] - 1.0)]));
        opt.step(net.parameters());
        let snap = capture(&net.parameters(), &opt);
        assert!(snap.is_finite());
        let before: Vec<Vec<f64>> = net.parameters().iter().map(|p| p.value.data.clone()).collect();

        // Diverge the network, then restore.
        for _ in 0..5 {
            let y = net.forward(&Matrix::row_vector(vec![1.0, -2.0, 0.5]));
            net.backward(&Matrix::row_vector(vec![2.0 * (y.data[0] - 1.0)]));
            opt.step(net.parameters());
        }
        restore(net.parameters(), &mut opt, &snap).unwrap();
        let after: Vec<Vec<f64>> = net.parameters().iter().map(|p| p.value.data.clone()).collect();
        assert_eq!(before, after);
        let again = capture(&net.parameters(), &opt);
        assert_eq!(snap, again);
    }

    #[test]
    fn restore_before_first_step_keeps_lazy_optimizer() {
        let mut net = Mlp::new(&[2, 3, 1], 1);
        let mut opt = Adam::new(0.01);
        let snap = capture(&net.parameters(), &opt);
        assert_eq!(snap.opt_t, 0);
        assert!(snap.opt_m.is_empty());
        restore(net.parameters(), &mut opt, &snap).unwrap();
        // The optimizer must still lazily initialise and step fine.
        let y = net.forward(&Matrix::row_vector(vec![1.0, 0.0]));
        net.backward(&Matrix::row_vector(vec![y.data[0]]));
        opt.step(net.parameters());
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let mut a = Mlp::new(&[2, 3, 1], 1);
        let mut b = Mlp::new(&[2, 4, 1], 1);
        let opt_a = Adam::new(0.01);
        let mut opt_b = Adam::new(0.01);
        let snap = capture(&a.parameters(), &opt_a);
        assert!(restore(b.parameters(), &mut opt_b, &snap).is_err());
    }

    #[test]
    fn restore_rejects_moment_length_mismatch() {
        let mut net = Mlp::new(&[2, 3, 1], 1);
        let mut opt = Adam::new(0.01);
        let y = net.forward(&Matrix::row_vector(vec![1.0, 0.0]));
        net.backward(&Matrix::row_vector(vec![y.data[0]]));
        opt.step(net.parameters());
        let snap = capture(&net.parameters(), &opt);
        let mut long_m = snap.clone();
        long_m.opt_m[0].push(0.0);
        let mut short_v = snap.clone();
        short_v.opt_v[3].pop();
        let mut v_without_m = snap.clone();
        v_without_m.opt_m.clear();
        for bad in [long_m, short_v, v_without_m] {
            assert!(restore(net.parameters(), &mut opt, &bad).is_err());
        }
        // The rejected restores left the optimizer able to step.
        let y = net.forward(&Matrix::row_vector(vec![1.0, 0.0]));
        net.backward(&Matrix::row_vector(vec![y.data[0]]));
        opt.step(net.parameters());
    }

    #[test]
    fn params_finite_detects_nan() {
        let mut net = Mlp::new(&[2, 3, 1], 1);
        assert!(params_finite(&net.parameters()));
        net.parameters()[0].value.data[0] = f64::NAN;
        assert!(!params_finite(&net.parameters()));
    }
}
