//! DQN-family learners for the Fig. 7 RL-framework ablation: DQN, Double
//! DQN, Dueling DQN and Dueling Double DQN, all over the same
//! candidate-scoring formulation as [`crate::actor_critic`].
//!
//! Each candidate vector (state ⊕ action features) passes through a shared
//! trunk; the plain variants read `Q` from a single value head, the dueling
//! variants aggregate `Q_i = V_i + (A_i − mean_j A_j)` across the candidate
//! set. Double variants decouple argmax (online net) from evaluation
//! (target net).

use crate::actor_critic::argmax;
use fastft_nn::activation::Activation;
use fastft_nn::dense::Dense;
use fastft_nn::init;
use fastft_nn::matrix::{Matrix, Tensor};
use fastft_nn::{snapshot, Adam, NetState};
use fastft_tabular::rngx::StdRng;

/// Which Q-learning variant an agent runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QKind {
    /// Vanilla deep Q-learning.
    Dqn,
    /// Double DQN (decoupled argmax/evaluation).
    DoubleDqn,
    /// Dueling value/advantage decomposition.
    DuelingDqn,
    /// Dueling + double.
    DuelingDoubleDqn,
}

impl QKind {
    /// All four variants, in the order Fig. 7 plots them.
    pub const ALL: [QKind; 4] =
        [QKind::Dqn, QKind::DoubleDqn, QKind::DuelingDqn, QKind::DuelingDoubleDqn];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            QKind::Dqn => "DQN",
            QKind::DoubleDqn => "DDQN",
            QKind::DuelingDqn => "DuelingDQN",
            QKind::DuelingDoubleDqn => "DuelingDDQN",
        }
    }

    fn dueling(self) -> bool {
        matches!(self, QKind::DuelingDqn | QKind::DuelingDoubleDqn)
    }

    fn double(self) -> bool {
        matches!(self, QKind::DoubleDqn | QKind::DuelingDoubleDqn)
    }
}

/// Trunk + value head (+ advantage head for dueling variants).
#[derive(Debug, Clone)]
struct QNet {
    trunk: Dense,
    v_head: Dense,
    a_head: Option<Dense>,
}

impl QNet {
    fn new(in_dim: usize, hidden: usize, dueling: bool, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        QNet {
            trunk: Dense::new(in_dim, hidden, Activation::Relu, &mut rng),
            v_head: Dense::new(hidden, 1, Activation::Linear, &mut rng),
            a_head: dueling.then(|| Dense::new(hidden, 1, Activation::Linear, &mut rng)),
        }
    }

    /// Q values for a candidate batch (inference path).
    fn q_infer(&self, batch: &Matrix) -> Vec<f64> {
        let h = self.trunk.infer(batch);
        let v = self.v_head.infer(&h);
        match &self.a_head {
            None => v.data,
            Some(a_head) => {
                let a = a_head.infer(&h);
                let mean = a.data.iter().sum::<f64>() / a.data.len() as f64;
                v.data.iter().zip(&a.data).map(|(vv, av)| vv + av - mean).collect()
            }
        }
    }

    /// Forward with caches; returns Q values.
    fn q_forward(&mut self, batch: &Matrix) -> Vec<f64> {
        let h = self.trunk.forward(batch);
        let v = self.v_head.forward(&h);
        match &mut self.a_head {
            None => v.data,
            Some(a_head) => {
                let a = a_head.forward(&h);
                let mean = a.data.iter().sum::<f64>() / a.data.len() as f64;
                v.data.iter().zip(&a.data).map(|(vv, av)| vv + av - mean).collect()
            }
        }
    }

    /// Backward the TD loss gradient `dq` (per candidate) through the net.
    fn backward(&mut self, dq: &[f64]) {
        let n = dq.len();
        let dv = Matrix::from_vec(n, 1, dq.to_vec());
        let mut dh = self.v_head.backward(&dv);
        if let Some(a_head) = &mut self.a_head {
            // Q_i = V_i + A_i − mean(A): dA_i = dq_i − mean(dq).
            let mean_dq = dq.iter().sum::<f64>() / n as f64;
            let da = Matrix::from_vec(n, 1, dq.iter().map(|&d| d - mean_dq).collect());
            dh.add_assign(&a_head.backward(&da));
        }
        self.trunk.backward(&dh);
    }

    fn parameters(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.trunk.parameters();
        p.extend(self.v_head.parameters());
        if let Some(a_head) = &mut self.a_head {
            p.extend(a_head.parameters());
        }
        p
    }
}

/// A Q-learning agent over candidate sets, with a periodically-synced target
/// network.
#[derive(Debug, Clone)]
pub struct QAgent {
    /// Variant.
    pub kind: QKind,
    online: QNet,
    target: QNet,
    opt: Adam,
    /// Discount factor γ.
    pub gamma: f64,
    /// Hard target-network sync period (update steps).
    pub sync_every: usize,
    updates: usize,
}

impl QAgent {
    /// Create an agent for `action_dim`-dimensional candidate vectors.
    pub fn new(kind: QKind, action_dim: usize, hidden: usize, lr: f64, seed: u64) -> Self {
        let online = QNet::new(action_dim, hidden, kind.dueling(), seed);
        let target = online.clone();
        QAgent { kind, online, target, opt: Adam::new(lr), gamma: 0.99, sync_every: 50, updates: 0 }
    }

    fn batch(candidates: &[Vec<f64>]) -> Matrix {
        assert!(!candidates.is_empty(), "empty candidate set");
        let dim = candidates[0].len();
        let mut m = Matrix::zeros(candidates.len(), dim);
        for (r, c) in candidates.iter().enumerate() {
            m.row_mut(r).copy_from_slice(c);
        }
        m
    }

    /// Online-network Q values for a candidate set.
    pub fn q_values(&self, candidates: &[Vec<f64>]) -> Vec<f64> {
        self.online.q_infer(&Self::batch(candidates))
    }

    /// ε-greedy action selection.
    pub fn select(&self, candidates: &[Vec<f64>], epsilon: f64, rng: &mut StdRng) -> usize {
        if rng.gen::<f64>() < epsilon {
            rng.gen_range(0..candidates.len())
        } else {
            argmax(&self.q_values(candidates))
        }
    }

    /// TD target for a transition whose next decision offers
    /// `next_candidates` (empty slice = terminal).
    pub fn td_target(&self, reward: f64, next_candidates: &[Vec<f64>]) -> f64 {
        if next_candidates.is_empty() {
            return reward;
        }
        let batch = Self::batch(next_candidates);
        let q_next = if self.kind.double() {
            let a_star = argmax(&self.online.q_infer(&batch));
            self.target.q_infer(&batch)[a_star]
        } else {
            let q = self.target.q_infer(&batch);
            q[argmax(&q)]
        };
        reward + self.gamma * q_next
    }

    /// One TD update on `(candidates, action, target)`; returns the TD error
    /// before the update.
    pub fn update(&mut self, candidates: &[Vec<f64>], action: usize, target: f64) -> f64 {
        let batch = Self::batch(candidates);
        let q = self.online.q_forward(&batch);
        let delta = q[action] - target;
        let mut dq = vec![0.0; q.len()];
        dq[action] = 2.0 * delta;
        self.online.backward(&dq);
        self.opt.step(self.online.parameters());
        self.updates += 1;
        if self.updates.is_multiple_of(self.sync_every) {
            self.target = self.online.clone();
        }
        -delta
    }

    /// Snapshot online net + optimizer, target net weights and the update
    /// counter that drives target syncing (bitwise exact).
    pub fn save_state(&mut self) -> QAgentState {
        QAgentState {
            online: snapshot::capture(&self.online.parameters(), &self.opt),
            target: self.target.parameters().iter().map(|p| p.value.data.clone()).collect(),
            updates: self.updates as u64,
        }
    }

    /// Restore a [`QAgent::save_state`] snapshot.
    pub fn load_state(&mut self, state: &QAgentState) -> Result<(), String> {
        snapshot::restore(self.online.parameters(), &mut self.opt, &state.online)?;
        let params = self.target.parameters();
        if params.len() != state.target.len() {
            return Err("target net parameter count mismatch".into());
        }
        for (p, s) in params.into_iter().zip(&state.target) {
            if p.len() != s.len() {
                return Err("target net parameter shape mismatch".into());
            }
            p.value.data.copy_from_slice(s);
            p.zero_grad();
        }
        self.updates = state.updates as usize;
        Ok(())
    }
}

/// Checkpoint snapshot of a [`QAgent`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QAgentState {
    /// Online network weights + Adam state.
    pub online: NetState,
    /// Target network weights (no optimizer), stable parameter order.
    pub target: Vec<Vec<f64>>,
    /// Update counter (drives the periodic hard target sync).
    pub updates: u64,
}

fastft_tabular::persist_enum!(QKind {
    Dqn = 0,
    DoubleDqn = 1,
    DuelingDqn = 2,
    DuelingDoubleDqn = 3,
});

fastft_tabular::persist_struct!(QAgentState { online, target, updates });

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx::StdRng;

    fn candidates_for(ctx: usize) -> Vec<Vec<f64>> {
        (0..2)
            .map(|a| vec![ctx as f64, f64::from(u8::from(a == 0)), f64::from(u8::from(a == 1))])
            .collect()
    }

    fn learns_bandit(kind: QKind) {
        let mut agent = QAgent::new(kind, 3, 16, 0.02, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for step in 0..1200 {
            let ctx = step % 2;
            let cands = candidates_for(ctx);
            let eps = (1.0 - step as f64 / 600.0).max(0.05);
            let a = agent.select(&cands, eps, &mut rng);
            let r = f64::from(u8::from(a == ctx));
            let target = agent.td_target(r, &[]); // one-step episodes
            agent.update(&cands, a, target);
        }
        for ctx in 0..2 {
            let q = agent.q_values(&candidates_for(ctx));
            assert_eq!(argmax(&q), ctx, "{}: ctx {ctx}, q {q:?}", kind.label());
        }
    }

    #[test]
    fn dqn_learns_bandit() {
        learns_bandit(QKind::Dqn);
    }

    #[test]
    fn ddqn_learns_bandit() {
        learns_bandit(QKind::DoubleDqn);
    }

    #[test]
    fn dueling_dqn_learns_bandit() {
        learns_bandit(QKind::DuelingDqn);
    }

    #[test]
    fn dueling_ddqn_learns_bandit() {
        learns_bandit(QKind::DuelingDoubleDqn);
    }

    #[test]
    fn td_target_discounts_future() {
        let agent = QAgent::new(QKind::Dqn, 2, 4, 0.01, 3);
        let next = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let q = agent.q_values(&next);
        let max_q = q[argmax(&q)];
        let t = agent.td_target(1.0, &next);
        assert!((t - (1.0 + 0.99 * max_q)).abs() < 1e-9);
        assert_eq!(agent.td_target(0.5, &[]), 0.5);
    }

    #[test]
    fn epsilon_one_is_uniform() {
        let agent = QAgent::new(QKind::Dqn, 2, 4, 0.01, 4);
        let cands = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let mut rng = StdRng::seed_from_u64(5);
        let firsts = (0..1000).filter(|_| agent.select(&cands, 1.0, &mut rng) == 0).count();
        assert!((350..650).contains(&firsts), "firsts {firsts}");
    }

    #[test]
    fn update_returns_negative_of_delta() {
        let mut agent = QAgent::new(QKind::Dqn, 2, 4, 0.01, 6);
        let cands = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let q_before = agent.q_values(&cands)[0];
        let d = agent.update(&cands, 0, q_before + 1.0);
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn variable_candidate_counts_supported() {
        let agent = QAgent::new(QKind::DuelingDqn, 2, 4, 0.01, 7);
        assert_eq!(agent.q_values(&vec![vec![0.0, 1.0]; 3]).len(), 3);
        assert_eq!(agent.q_values(&vec![vec![0.0, 1.0]; 7]).len(), 7);
    }
}
