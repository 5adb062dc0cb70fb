//! # FASTFT — accelerating reinforced feature transformation
//!
//! A from-scratch Rust implementation of the ICDE 2025 paper "FASTFT:
//! Accelerating Reinforced Feature Transformation via Advanced Exploration
//! Strategies".
//!
//! Three cascading reinforcement-learning agents ([`agents`]) select a head
//! feature cluster, a mathematical operation and a tail cluster each step,
//! producing traceable feature crossings ([`expr`], [`transform`]). The
//! expensive downstream-task reward is replaced after a cold start by a
//! **Performance Predictor** ([`predictor`]) and a **Novelty Estimator**
//! ([`novelty`], random network distillation), with real evaluation
//! triggered only for top-percentile candidates; critical transformations
//! replay from a prioritized buffer. [`engine::FastFt`] ties it all
//! together.
//!
//! ```no_run
//! use fastft_core::{FastFt, FastFtConfig};
//! use fastft_tabular::{datagen, FastFtResult};
//!
//! fn main() -> FastFtResult<()> {
//!     let spec = datagen::by_name("pima_indian").unwrap();
//!     let data = datagen::generate(spec, 0);
//!     let cfg = FastFtConfig { episodes: 20, threads: 4, ..FastFtConfig::default() };
//!     cfg.validate()?;
//!     let result = FastFt::new(cfg).fit(&data)?;
//!     println!("{} -> {}", result.base_score, result.best_score);
//!     for e in &result.best_exprs {
//!         println!("  {e}");
//!     }
//!     Ok(())
//! }
//! ```

pub mod agents;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod expr;
pub mod lru;
pub mod novelty;
pub mod novelty_metric;
pub mod ops;
pub mod parse;
pub mod pipeline;
pub mod predictor;
pub mod report;
pub mod scoring;
pub mod search_stats;
pub mod sequence;
pub mod state;
pub mod transform;

pub use agents::RlKind;
pub use config::FastFtConfig;
pub use engine::{FastFt, RunResult, StepRecord, StopReason, Telemetry};
pub use expr::Expr;
pub use fastft_tabular::{FastFtError, FastFtResult};
pub use ops::Op;
pub use parse::parse_expr;
pub use pipeline::Session;
pub use transform::FeatureSet;
