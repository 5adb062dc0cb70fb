//! From-scratch downstream machine-learning models.
//!
//! These models are the paper's "downstream task": the expensive evaluation
//! `A(T(F), y)` whose runtime FASTFT works to avoid. Implemented here:
//!
//! - [`tree`]: CART decision trees (gini / variance criteria) with impurity
//!   feature importances and histogram split search over the quantile bins
//!   of [`binning`]; a column-subsampled node builds histograms only for
//!   its sampled features, straight from its rows.
//! - [`binning`]: once-per-fit quantile discretisation of feature columns
//!   into `u8` bin codes (plus a missing bin for NaN).
//! - [`forest`]: bagged random forests, the default evaluator model used in
//!   the paper's main tables.
//! - [`boosting`]: gradient-boosted trees (the XGBoost stand-in of
//!   Table III).
//! - [`linear`]: logistic regression, ridge regression/classifier, linear
//!   SVM.
//! - [`knn`]: brute-force k-nearest-neighbours.
//! - [`evaluator`]: the unified k-fold cross-validation evaluator producing
//!   the paper's metrics.

pub mod binning;
pub mod boosting;
pub mod evaluator;
pub mod fault;
pub mod forest;
pub mod knn;
pub mod linear;
pub mod preprocess;
pub mod tree;

pub use binning::BinnedMatrix;
pub use evaluator::{Evaluator, ModelKind};
pub use fault::{FaultKind, FaultPlan};
pub use forest::{RandomForestClassifier, RandomForestRegressor};
pub use tree::{CartParams, DecisionTreeClassifier, DecisionTreeRegressor};
