//! Tabular-data substrate for the FASTFT reproduction.
//!
//! This crate provides everything the feature-transformation framework needs
//! to talk about data:
//!
//! - [`Dataset`]: a column-major table of `f64` features plus a task-typed
//!   target vector.
//! - [`metrics`]: the evaluation metrics used in the paper (F1 / precision /
//!   recall for classification, 1-RAE / 1-MAE / 1-MSE for regression, AUC for
//!   detection).
//! - [`mi`]: a binned mutual-information estimator used by the feature
//!   clustering of Eq. 2 and by MI-based feature selection.
//! - [`stats`]: descriptive column statistics that back the state
//!   representation of Fig. 4.
//! - [`datagen`]: seeded synthetic analogs of the paper's 23 public datasets
//!   with planted non-linear feature interactions (see DESIGN.md §1 for the
//!   substitution rationale).
//! - [`split`]: train/test and stratified k-fold splitting.
//! - [`csvio`]: minimal CSV import/export.

pub mod csvio;
pub mod datagen;
pub mod dataset;
pub mod error;
pub mod impute;
pub mod metrics;
pub mod mi;
pub mod noise;
pub mod persist;
pub mod rngx;
pub mod split;
pub mod stats;

pub use dataset::{Column, Dataset, TaskType};
pub use error::{FastFtError, FastFtResult};
pub use metrics::Metric;
pub use split::KFold;
