//! Minimal neural-network stack with hand-written forward/backward passes.
//!
//! The paper's evaluation components are small sequence models — a 2-layer
//! LSTM with dim-32 embeddings feeding a feed-forward head (Performance
//! Predictor), the same encoder inside a random-network-distillation pair
//! (Novelty Estimator), plus RNN and Transformer variants for the Fig. 8
//! ablation — and the RL agents are small MLPs. Everything here is sized for
//! that regime: `f64` precision, batch-of-one sequences, explicit caches,
//! finite-difference-checked gradients.
//!
//! Layers expose `forward` / `backward` pairs and a `parameters()` view that
//! optimizers consume; see [`optim::Adam`].

pub mod activation;
pub mod dense;
pub mod embedding;
mod encoder;
pub mod gradcheck;
pub mod gru;
pub mod init;
pub mod lstm;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod recurrent;
pub mod reference;
pub mod rnn;
pub mod seq;
pub mod snapshot;
pub mod transformer;
pub mod workspace;

pub use dense::Dense;
pub use matrix::{Matrix, Tensor};
pub use mlp::Mlp;
pub use optim::{Adam, Sgd};
pub use seq::{EncoderKind, EncoderState, SequenceRegressor};
pub use snapshot::NetState;
pub use workspace::{LayerState, NnWorkspace};
