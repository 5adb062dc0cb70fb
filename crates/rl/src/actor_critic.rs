//! Actor-critic learner over candidate-scoring policies (Eq. 9).
//!
//! FASTFT's agents choose among a *variable* number of candidates (feature
//! clusters or operations), each described by its own feature vector
//! `Rep(candidate) ⊕ Rep(state)`. The actor is therefore a scoring network:
//! an MLP maps each candidate vector to a logit, and the policy is the
//! softmax over the candidate set. The critic maps the state representation
//! to a scalar value `V(s)`; advantages `A = r + γV(s') − V(s)` weight the
//! policy gradient, and the same TD error is the replay priority (Eq. 10).
//!
//! [`Actor`] and [`Critic`] are separate types because the cascading
//! system shares one critic across its three actors.

use fastft_nn::activation::softmax_inplace;
use fastft_nn::matrix::Matrix;
use fastft_nn::{snapshot, Adam, Mlp, NetState};
use fastft_tabular::rngx::StdRng;

/// A softmax candidate-scoring policy.
#[derive(Debug, Clone)]
pub struct Actor {
    net: Mlp,
    opt: Adam,
}

impl Actor {
    /// Create a policy over `candidate_dim`-dimensional candidate vectors.
    pub fn new(candidate_dim: usize, hidden: usize, lr: f64, seed: u64) -> Self {
        Actor { net: Mlp::new(&[candidate_dim, hidden, 1], seed), opt: Adam::new(lr) }
    }

    /// Softmax policy over a candidate set. All candidates are scored with
    /// one batched MLP pass; each row is bitwise identical to scoring it
    /// alone.
    pub fn policy(&self, candidates: &[Vec<f64>]) -> Vec<f64> {
        assert!(!candidates.is_empty(), "empty candidate set");
        let dim = candidates[0].len();
        let mut batch = Matrix::zeros(candidates.len(), dim);
        for (r, c) in candidates.iter().enumerate() {
            batch.row_mut(r).copy_from_slice(c);
        }
        let mut logits = self.net.infer(&batch).data;
        softmax_inplace(&mut logits);
        logits
    }

    /// Sample an action from the softmax policy.
    pub fn select(&self, candidates: &[Vec<f64>], rng: &mut StdRng) -> usize {
        sample_categorical(&self.policy(candidates), rng)
    }

    /// Policy-gradient step: `L_π = −log π(a|s) · A` (Eq. 9, actor update).
    pub fn update(&mut self, candidates: &[Vec<f64>], action: usize, advantage: f64) {
        let n = candidates.len();
        assert!(action < n);
        let dim = candidates[0].len();
        let mut batch = Matrix::zeros(n, dim);
        for (r, c) in candidates.iter().enumerate() {
            batch.row_mut(r).copy_from_slice(c);
        }
        let logits = self.net.forward(&batch);
        let mut probs: Vec<f64> = logits.data.clone();
        softmax_inplace(&mut probs);
        // d(−logπ(a)·A)/d logit_i = A · (π_i − 1[i = a])
        let dlogits: Vec<f64> = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| advantage * (p - f64::from(u8::from(i == action))))
            .collect();
        self.net.backward(&Matrix::from_vec(n, 1, dlogits));
        self.opt.step(self.net.parameters());
    }

    /// Snapshot policy weights + optimizer state (bitwise exact).
    pub fn save_state(&mut self) -> NetState {
        snapshot::capture(&self.net.parameters(), &self.opt)
    }

    /// Restore a [`Actor::save_state`] snapshot.
    pub fn load_state(&mut self, state: &NetState) -> Result<(), String> {
        snapshot::restore(self.net.parameters(), &mut self.opt, state)
    }
}

/// A state-value estimator `V(s)`.
#[derive(Debug, Clone)]
pub struct Critic {
    net: Mlp,
    opt: Adam,
}

impl Critic {
    /// Create over `state_dim`-dimensional state vectors.
    pub fn new(state_dim: usize, hidden: usize, lr: f64, seed: u64) -> Self {
        Critic { net: Mlp::new(&[state_dim, hidden, 1], seed), opt: Adam::new(lr) }
    }

    /// Value estimate.
    pub fn value(&self, state: &[f64]) -> f64 {
        self.net.infer_vec(state)[0]
    }

    /// Regression step toward `target = r + γ·V(s')` (Eq. 9, critic
    /// update). Returns the pre-update squared error.
    pub fn update(&mut self, state: &[f64], target: f64) -> f64 {
        let x = Matrix::row_vector(state.to_vec());
        let v = self.net.forward(&x);
        let err = v.data[0] - target;
        self.net.backward(&Matrix::row_vector(vec![2.0 * err]));
        self.opt.step(self.net.parameters());
        err * err
    }

    /// Snapshot value-net weights + optimizer state (bitwise exact).
    pub fn save_state(&mut self) -> NetState {
        snapshot::capture(&self.net.parameters(), &self.opt)
    }

    /// Restore a [`Critic::save_state`] snapshot.
    pub fn load_state(&mut self, state: &NetState) -> Result<(), String> {
        snapshot::restore(self.net.parameters(), &mut self.opt, state)
    }
}

/// Sample an index from a normalised probability vector.
pub fn sample_categorical(probs: &[f64], rng: &mut StdRng) -> usize {
    let mut target = rng.gen::<f64>();
    for (i, &p) in probs.iter().enumerate() {
        target -= p;
        if target <= 0.0 {
            return i;
        }
    }
    probs.len() - 1
}

/// Index of the maximum element.
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx::StdRng;

    /// Contextual bandit: two contexts, two actions; reward 1 when the
    /// action index matches the context.
    fn candidates_for(ctx: usize) -> Vec<Vec<f64>> {
        (0..2)
            .map(|a| vec![ctx as f64, f64::from(u8::from(a == 0)), f64::from(u8::from(a == 1))])
            .collect()
    }

    #[test]
    fn policy_is_distribution() {
        let actor = Actor::new(3, 8, 0.01, 1);
        let p = actor.policy(&candidates_for(0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn learns_contextual_bandit() {
        let mut actor = Actor::new(3, 16, 0.02, 2);
        let mut critic = Critic::new(1, 16, 0.02, 3);
        let mut rng = StdRng::seed_from_u64(3);
        for step in 0..1500 {
            let ctx = step % 2;
            let cands = candidates_for(ctx);
            let a = actor.select(&cands, &mut rng);
            let r = f64::from(u8::from(a == ctx));
            let state = vec![ctx as f64];
            // One-step episode: advantage = r − V(s).
            let adv = r - critic.value(&state);
            actor.update(&cands, a, adv);
            critic.update(&state, r);
        }
        for ctx in 0..2 {
            let p = actor.policy(&candidates_for(ctx));
            assert_eq!(argmax(&p), ctx, "ctx {ctx}");
            assert!(p[ctx] > 0.8, "π(correct|{ctx}) = {}", p[ctx]);
        }
    }

    #[test]
    fn critic_regresses_to_target() {
        let mut critic = Critic::new(2, 8, 0.05, 5);
        for _ in 0..400 {
            critic.update(&[1.0, 0.0], 3.0);
            critic.update(&[0.0, 1.0], -1.0);
        }
        assert!((critic.value(&[1.0, 0.0]) - 3.0).abs() < 0.2);
        assert!((critic.value(&[0.0, 1.0]) + 1.0).abs() < 0.2);
    }

    #[test]
    fn sample_categorical_respects_mass() {
        let mut rng = StdRng::seed_from_u64(6);
        let hits =
            (0..1000).filter(|_| sample_categorical(&[0.05, 0.9, 0.05], &mut rng) == 1).count();
        assert!(hits > 830, "hits {hits}");
    }

    #[test]
    fn standalone_actor_learns_bandit() {
        // Pure REINFORCE with a constant baseline of 0.5.
        let mut actor = Actor::new(3, 16, 0.02, 7);
        let mut rng = StdRng::seed_from_u64(8);
        for step in 0..1500 {
            let ctx = step % 2;
            let cands = candidates_for(ctx);
            let a = actor.select(&cands, &mut rng);
            let r = f64::from(u8::from(a == ctx));
            actor.update(&cands, a, r - 0.5);
        }
        assert_eq!(argmax(&actor.policy(&candidates_for(0))), 0);
        assert_eq!(argmax(&actor.policy(&candidates_for(1))), 1);
    }

    #[test]
    fn batched_policy_matches_per_candidate_scoring() {
        let actor = Actor::new(3, 8, 0.01, 9);
        for ctx in 0..2 {
            let cands = candidates_for(ctx);
            let p = actor.policy(&cands);
            let mut logits: Vec<f64> = cands.iter().map(|c| actor.net.infer_vec(c)[0]).collect();
            softmax_inplace(&mut logits);
            assert_eq!(p, logits);
        }
    }

    #[test]
    #[should_panic]
    fn empty_candidates_panics() {
        let actor = Actor::new(2, 4, 0.01, 7);
        let _ = actor.policy(&[]);
    }
}
