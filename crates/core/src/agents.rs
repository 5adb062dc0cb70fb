//! The cascading multi-agent system (Definition 3, Fig. 3d).
//!
//! Three agents act in sequence — head cluster, operation, tail cluster —
//! each conditioning on the previous selections through its candidate
//! vectors (see [`crate::state`]). The default learner is actor-critic with
//! a shared critic over `Rep(F̂)` (Eq. 9); the DQN family backs the Fig. 7
//! ablation.

use crate::state::{HEAD_DIM, OP_DIM, TAIL_DIM};
use fastft_nn::NetState;
use fastft_rl::actor_critic::{Actor, Critic};
use fastft_rl::dqn::{QAgent, QAgentState, QKind};
use fastft_rl::schedule::LinearDecay;
use fastft_tabular::persist::{Persist, PersistResult, Reader, Writer};
use fastft_tabular::rngx::StdRng;

/// Which reinforcement-learning framework drives the cascading agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RlKind {
    /// Actor-critic (the paper's framework).
    ActorCritic,
    /// One of the Q-learning variants (Fig. 7 ablation).
    Q(QKind),
}

/// Which of the three cascading decisions a candidate set belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Head feature-cluster selection.
    Head,
    /// Operation selection.
    Op,
    /// Tail feature-cluster selection (binary ops only).
    Tail,
}

/// One remembered decision: the candidate set shown to an agent and the
/// index it chose.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Candidate vectors at selection time.
    pub candidates: Vec<Vec<f64>>,
    /// Chosen index.
    pub action: usize,
}

/// A full memory unit `m = <s, a, r, s', T, v>` (§III-D "Memory
/// Collection") — the three decisions plus reward, state pair, the token
/// sequence and its (estimated or evaluated) performance.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryUnit {
    /// `Rep(F̂)` before the step.
    pub state: Vec<f64>,
    /// `Rep(F̂)` after the step.
    pub next_state: Vec<f64>,
    /// Step reward (Eq. 5 or Eq. 6).
    pub reward: f64,
    /// Head decision.
    pub head: Decision,
    /// Operation decision.
    pub op: Decision,
    /// Tail decision (binary ops only).
    pub tail: Option<Decision>,
    /// Head-agent candidates of the *next* step (empty at episode end) —
    /// used by the Q-family bootstrap.
    pub next_head_candidates: Vec<Vec<f64>>,
    /// Transformation token sequence after the step.
    pub seq: Vec<usize>,
    /// Performance associated with the sequence.
    pub perf: f64,
}

impl Persist for RlKind {
    fn persist(&self, w: &mut Writer) {
        // Fixed-width two-byte encoding: framework tag + Q-variant tag
        // (zero for actor-critic).
        match self {
            RlKind::ActorCritic => {
                w.u8(0);
                w.u8(0);
            }
            RlKind::Q(q) => {
                w.u8(1);
                q.persist(w);
            }
        }
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        let tag = r.u8()?;
        match tag {
            0 => {
                r.u8()?;
                Ok(RlKind::ActorCritic)
            }
            1 => Ok(RlKind::Q(fastft_rl::QKind::restore(r)?)),
            t => Err(format!("unknown rl tag {t}")),
        }
    }
}

fastft_tabular::persist_struct!(Decision { candidates, action });

fastft_tabular::persist_struct! {
    MemoryUnit {
        state, next_state, reward, head, op, tail, next_head_candidates, seq, perf,
    }
}

impl Persist for AgentsState {
    fn persist(&self, w: &mut Writer) {
        match self {
            AgentsState::Ac { head, op, tail, critic } => {
                w.u8(0);
                head.persist(w);
                op.persist(w);
                tail.persist(w);
                critic.persist(w);
            }
            AgentsState::Q { head, op, tail, eps_step } => {
                w.u8(1);
                head.persist(w);
                op.persist(w);
                tail.persist(w);
                eps_step.persist(w);
            }
        }
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        Ok(match r.u8()? {
            0 => AgentsState::Ac {
                head: Persist::restore(r)?,
                op: Persist::restore(r)?,
                tail: Persist::restore(r)?,
                critic: Persist::restore(r)?,
            },
            1 => AgentsState::Q {
                head: Persist::restore(r)?,
                op: Persist::restore(r)?,
                tail: Persist::restore(r)?,
                eps_step: Persist::restore(r)?,
            },
            t => return Err(format!("unknown agents tag {t}")),
        })
    }
}

// One instance per engine run; the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Learner {
    Ac { head: Actor, op: Actor, tail: Actor, critic: Critic },
    Q(Box<QTriple>),
}

struct QTriple {
    head: QAgent,
    op: QAgent,
    tail: QAgent,
    eps: LinearDecay,
    step: usize,
}

/// The cascading agent system.
pub struct CascadingAgents {
    learner: Learner,
    /// Discount factor γ.
    pub gamma: f64,
}

/// Snapshot of every learnable parameter of the cascading system, matching
/// the active [`RlKind`] (checkpoint/resume support).
#[derive(Debug, Clone, PartialEq)]
pub enum AgentsState {
    /// Actor-critic weights: three actors plus the shared critic.
    Ac {
        /// Head-actor network.
        head: NetState,
        /// Operation-actor network.
        op: NetState,
        /// Tail-actor network.
        tail: NetState,
        /// Shared critic network.
        critic: NetState,
    },
    /// Q-family weights plus the ε-greedy schedule position.
    Q {
        /// Head Q-agent (online + target nets).
        head: QAgentState,
        /// Operation Q-agent.
        op: QAgentState,
        /// Tail Q-agent.
        tail: QAgentState,
        /// ε-decay schedule step.
        eps_step: u64,
    },
}

impl CascadingAgents {
    /// Build a system with the given framework and hidden width.
    pub fn new(kind: RlKind, hidden: usize, lr: f64, seed: u64) -> Self {
        let learner = match kind {
            RlKind::ActorCritic => Learner::Ac {
                head: Actor::new(HEAD_DIM, hidden, lr, seed),
                op: Actor::new(OP_DIM, hidden, lr, seed.wrapping_add(1)),
                tail: Actor::new(TAIL_DIM, hidden, lr, seed.wrapping_add(2)),
                critic: Critic::new(
                    crate::state::CLUSTER_REP_DIM,
                    hidden,
                    lr,
                    seed.wrapping_add(3),
                ),
            },
            RlKind::Q(q) => Learner::Q(Box::new(QTriple {
                head: QAgent::new(q, HEAD_DIM, hidden, lr, seed),
                op: QAgent::new(q, OP_DIM, hidden, lr, seed.wrapping_add(1)),
                tail: QAgent::new(q, TAIL_DIM, hidden, lr, seed.wrapping_add(2)),
                eps: LinearDecay { start: 1.0, end: 0.05, steps: 600 },
                step: 0,
            })),
        };
        CascadingAgents { learner, gamma: 0.99 }
    }

    /// Which framework is active.
    pub fn kind(&self) -> RlKind {
        match &self.learner {
            Learner::Ac { .. } => RlKind::ActorCritic,
            Learner::Q(q) => RlKind::Q(q.head.kind),
        }
    }

    /// Select an action for `role` from its candidate set. Q-family agents
    /// advance their ε-greedy schedule on head selections (one per step).
    pub fn select(&mut self, role: Role, candidates: &[Vec<f64>], rng: &mut StdRng) -> usize {
        match &mut self.learner {
            Learner::Ac { head, op, tail, .. } => match role {
                Role::Head => head.select(candidates, rng),
                Role::Op => op.select(candidates, rng),
                Role::Tail => tail.select(candidates, rng),
            },
            Learner::Q(q) => {
                let e = q.eps.at(q.step);
                match role {
                    Role::Head => {
                        q.step += 1;
                        q.head.select(candidates, e, rng)
                    }
                    Role::Op => q.op.select(candidates, e, rng),
                    Role::Tail => q.tail.select(candidates, e, rng),
                }
            }
        }
    }

    /// State value used for TD errors. Q-family agents bootstrap from the
    /// head Q-network, so pass the next head candidates; actor-critic uses
    /// the shared critic on `Rep(F̂)`.
    pub fn state_value(&self, state: &[f64], head_candidates: &[Vec<f64>]) -> f64 {
        match &self.learner {
            Learner::Ac { critic, .. } => critic.value(state),
            Learner::Q(q) => {
                if head_candidates.is_empty() {
                    0.0
                } else {
                    let qs = q.head.q_values(head_candidates);
                    qs.iter().cloned().fold(f64::MIN, f64::max)
                }
            }
        }
    }

    /// TD error `δ = r + γ·V(s') − V(s)` for a memory unit (the Eq. 10
    /// priority).
    pub fn td_error(&self, mem: &MemoryUnit) -> f64 {
        let v_next = self.state_value(&mem.next_state, &mem.next_head_candidates);
        let v = self.state_value(&mem.state, &mem.head.candidates);
        mem.reward + self.gamma * v_next - v
    }

    /// One optimisation step from a (replayed) memory unit: actor-critic
    /// updates all three actors with the shared advantage and regresses the
    /// critic (Eq. 9); Q agents update toward their TD targets, with the
    /// head network bootstrapping from the next step's head candidates and
    /// the op/tail networks treated one-step (their "next state" is the
    /// *within-step* cascade, whose value the shared reward already
    /// reflects — a simplification documented in DESIGN.md).
    pub fn learn(&mut self, mem: &MemoryUnit) {
        match &mut self.learner {
            Learner::Ac { head, op, tail, critic } => {
                let v_next = critic.value(&mem.next_state);
                let target = mem.reward + self.gamma * v_next;
                let advantage = target - critic.value(&mem.state);
                head.update(&mem.head.candidates, mem.head.action, advantage);
                op.update(&mem.op.candidates, mem.op.action, advantage);
                if let Some(t) = &mem.tail {
                    tail.update(&t.candidates, t.action, advantage);
                }
                critic.update(&mem.state, target);
            }
            Learner::Q(q) => {
                let target = q.head.td_target(mem.reward, &mem.next_head_candidates);
                q.head.update(&mem.head.candidates, mem.head.action, target);
                q.op.update(&mem.op.candidates, mem.op.action, mem.reward);
                if let Some(t) = &mem.tail {
                    q.tail.update(&t.candidates, t.action, mem.reward);
                }
            }
        }
    }

    /// Capture every learnable parameter (checkpoint export).
    pub fn save_state(&mut self) -> AgentsState {
        match &mut self.learner {
            Learner::Ac { head, op, tail, critic } => AgentsState::Ac {
                head: head.save_state(),
                op: op.save_state(),
                tail: tail.save_state(),
                critic: critic.save_state(),
            },
            Learner::Q(q) => AgentsState::Q {
                head: q.head.save_state(),
                op: q.op.save_state(),
                tail: q.tail.save_state(),
                eps_step: q.step as u64,
            },
        }
    }

    /// Restore from a snapshot taken on an identically-configured system.
    /// Fails when the snapshot's framework or any network shape does not
    /// match (each network validates shapes before writing).
    pub fn load_state(&mut self, state: &AgentsState) -> Result<(), String> {
        match (&mut self.learner, state) {
            (
                Learner::Ac { head, op, tail, critic },
                AgentsState::Ac { head: h, op: o, tail: t, critic: c },
            ) => {
                head.load_state(h)?;
                op.load_state(o)?;
                tail.load_state(t)?;
                critic.load_state(c)
            }
            (Learner::Q(q), AgentsState::Q { head: h, op: o, tail: t, eps_step }) => {
                q.head.load_state(h)?;
                q.op.load_state(o)?;
                q.tail.load_state(t)?;
                q.step = *eps_step as usize;
                Ok(())
            }
            _ => Err("agents snapshot does not match the configured RL framework".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx;

    fn dummy_mem(reward: f64) -> MemoryUnit {
        let head =
            Decision { candidates: vec![vec![0.1; HEAD_DIM], vec![0.2; HEAD_DIM]], action: 1 };
        let op = Decision { candidates: vec![vec![0.1; OP_DIM]; 3], action: 0 };
        let tail = Some(Decision { candidates: vec![vec![0.3; TAIL_DIM]; 2], action: 0 });
        MemoryUnit {
            state: vec![0.0; crate::state::CLUSTER_REP_DIM],
            next_state: vec![1.0; crate::state::CLUSTER_REP_DIM],
            reward,
            head,
            op,
            tail,
            next_head_candidates: vec![vec![0.1; HEAD_DIM]],
            seq: vec![0, 1],
            perf: 0.5,
        }
    }

    #[test]
    fn select_returns_valid_indices_for_all_kinds() {
        let mut rng = rngx::rng(1);
        for kind in [RlKind::ActorCritic, RlKind::Q(QKind::Dqn), RlKind::Q(QKind::DuelingDoubleDqn)]
        {
            let mut agents = CascadingAgents::new(kind, 16, 0.01, 2);
            assert_eq!(agents.kind(), kind);
            let cands = vec![vec![0.1; HEAD_DIM]; 4];
            for _ in 0..20 {
                let a = agents.select(Role::Head, &cands, &mut rng);
                assert!(a < 4);
            }
            let cands = vec![vec![0.1; OP_DIM]; 3];
            assert!(agents.select(Role::Op, &cands, &mut rng) < 3);
            let cands = vec![vec![0.1; TAIL_DIM]; 2];
            assert!(agents.select(Role::Tail, &cands, &mut rng) < 2);
        }
    }

    #[test]
    fn learn_runs_for_all_kinds() {
        for kind in [RlKind::ActorCritic, RlKind::Q(QKind::DoubleDqn), RlKind::Q(QKind::DuelingDqn)]
        {
            let mut agents = CascadingAgents::new(kind, 8, 0.01, 3);
            let mem = dummy_mem(1.0);
            for _ in 0..5 {
                agents.learn(&mem);
            }
            // TD error stays finite after updates.
            assert!(agents.td_error(&mem).is_finite());
        }
    }

    #[test]
    fn positive_reward_increases_action_probability() {
        let mut agents = CascadingAgents::new(RlKind::ActorCritic, 16, 0.05, 4);
        let mem = dummy_mem(5.0);
        let before = match &agents.learner {
            Learner::Ac { head, .. } => head.policy(&mem.head.candidates)[mem.head.action],
            _ => unreachable!(),
        };
        for _ in 0..30 {
            agents.learn(&mem);
        }
        let after = match &agents.learner {
            Learner::Ac { head, .. } => head.policy(&mem.head.candidates)[mem.head.action],
            _ => unreachable!(),
        };
        assert!(after > before, "π(a) before {before}, after {after}");
    }

    #[test]
    fn save_load_round_trips_for_all_kinds() {
        for kind in [RlKind::ActorCritic, RlKind::Q(QKind::DoubleDqn)] {
            let mut trained = CascadingAgents::new(kind, 8, 0.01, 7);
            let mem = dummy_mem(2.0);
            for _ in 0..10 {
                trained.learn(&mem);
            }
            let state = trained.save_state();
            let mut fresh = CascadingAgents::new(kind, 8, 0.01, 99);
            assert_ne!(fresh.td_error(&mem), trained.td_error(&mem));
            fresh.load_state(&state).unwrap();
            assert_eq!(fresh.td_error(&mem), trained.td_error(&mem));
            assert_eq!(fresh.save_state(), state);
            // Restored agents select identically under the same RNG stream.
            let mut r1 = rngx::rng(11);
            let mut r2 = rngx::rng(11);
            let cands = vec![vec![0.2; HEAD_DIM]; 4];
            for _ in 0..10 {
                assert_eq!(
                    trained.select(Role::Head, &cands, &mut r1),
                    fresh.select(Role::Head, &cands, &mut r2)
                );
            }
        }
    }

    #[test]
    fn load_rejects_framework_mismatch() {
        let mut ac = CascadingAgents::new(RlKind::ActorCritic, 8, 0.01, 1);
        let mut q = CascadingAgents::new(RlKind::Q(QKind::Dqn), 8, 0.01, 1);
        let qs = q.save_state();
        assert!(ac.load_state(&qs).is_err());
        assert!(q.load_state(&ac.save_state()).is_err());
    }

    #[test]
    fn td_error_formula() {
        let mut agents = CascadingAgents::new(RlKind::ActorCritic, 8, 0.05, 5);
        agents.gamma = 0.5;
        let mem = dummy_mem(2.0);
        let Learner::Ac { critic, .. } = &mut agents.learner else { unreachable!() };
        for _ in 0..300 {
            critic.update(&mem.state, 1.0);
            critic.update(&mem.next_state, 4.0);
        }
        let (v, v_next) = (critic.value(&mem.state), critic.value(&mem.next_state));
        let delta = agents.td_error(&mem);
        assert_eq!(delta, 2.0 + 0.5 * v_next - v);
        // δ = 2 + 0.5·4 − 1 = 3
        assert!((delta - 3.0).abs() < 0.2, "delta {delta}");
    }

    #[test]
    fn td_error_uses_reward() {
        let agents = CascadingAgents::new(RlKind::ActorCritic, 8, 0.01, 5);
        let lo = agents.td_error(&dummy_mem(0.0));
        let hi = agents.td_error(&dummy_mem(10.0));
        assert!((hi - lo - 10.0).abs() < 1e-9);
    }
}
