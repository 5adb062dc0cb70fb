//! Reinforcement-learning substrate for FASTFT.
//!
//! - [`replay`]: one fixed-size replay memory, drawn by TD-error priority
//!   (Eq. 10) or uniformly for the FASTFT⁻ᴿᶜᵀ ablation.
//! - [`actor_critic`]: the actor and critic networks of the paper's default
//!   learner (Eq. 9) over candidate-scoring policies.
//! - [`dqn`]: DQN / Double / Dueling / DuelingDouble variants for the Fig. 7
//!   framework ablation.
//! - [`schedule`]: the Eq. 6 exponential novelty-weight decay and an
//!   ε-greedy linear schedule.

pub mod actor_critic;
pub mod dqn;
pub mod replay;
pub mod schedule;

pub use dqn::{QAgent, QAgentState, QKind};
pub use replay::PrioritizedReplay;
pub use schedule::ExpDecay;
