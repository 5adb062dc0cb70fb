//! The unified downstream-task evaluator `A(T(F), y)`.
//!
//! The paper evaluates every generated feature set with five-fold
//! cross-validation on a downstream model and reports F1 / 1-RAE / AUC
//! (§V). This module packages that into a single [`Evaluator`] so the core
//! framework, every baseline and every harness score feature sets the same
//! way — and so the "runtime bottleneck" the paper talks about is a single
//! well-defined code path we can time.

use crate::boosting::{BoostParams, GradientBoostingClassifier, GradientBoostingRegressor};
use crate::forest::{ForestParams, RandomForestClassifier, RandomForestRegressor};
use crate::knn::Knn;
use crate::linear::{LinearSvm, LogisticRegression, RidgeClassifier, RidgeRegressor};
use crate::tree::{CartParams, DecisionTreeClassifier, DecisionTreeRegressor};
use fastft_runtime::Runtime;
use fastft_tabular::dataset::Dataset;
use fastft_tabular::metrics::{self, Metric};
use fastft_tabular::persist::{Persist, PersistResult, Reader, Writer};
use fastft_tabular::split::KFold;
use fastft_tabular::{FastFtError, FastFtResult, TaskType};

/// Downstream model family (Table III's model axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Random forest (`RFC` in Table III; the default evaluator).
    RandomForest,
    /// Gradient-boosted trees (`XGBC` stand-in).
    GradientBoosting,
    /// Single CART tree (`DT-C`).
    DecisionTree,
    /// Multinomial logistic regression (`LR`).
    Logistic,
    /// Ridge classifier / regressor (`Ridge-C`).
    Ridge,
    /// Linear SVM (`SVM-C`).
    LinearSvm,
    /// k-nearest neighbours.
    Knn,
}

impl ModelKind {
    /// All models exercised by the Table III robustness check.
    pub const TABLE3: [ModelKind; 6] = [
        ModelKind::RandomForest,
        ModelKind::GradientBoosting,
        ModelKind::Logistic,
        ModelKind::LinearSvm,
        ModelKind::Ridge,
        ModelKind::DecisionTree,
    ];

    /// Display label matching the paper's Table III headers.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::RandomForest => "RFC",
            ModelKind::GradientBoosting => "XGBC",
            ModelKind::DecisionTree => "DT-C",
            ModelKind::Logistic => "LR",
            ModelKind::Ridge => "Ridge-C",
            ModelKind::LinearSvm => "SVM-C",
            ModelKind::Knn => "KNN",
        }
    }
}

/// K-fold cross-validation evaluator producing a single scalar score
/// (higher is better) for a dataset's current feature set.
#[derive(Debug, Clone)]
pub struct Evaluator {
    /// Downstream model family.
    pub model: ModelKind,
    /// Reporting metric; `None` selects the paper default for the task.
    pub metric: Option<Metric>,
    /// Number of CV folds (paper: 5).
    pub folds: usize,
    /// Seed controlling folds and model randomness.
    pub seed: u64,
    /// Test-only fault-injection hook (see [`crate::fault`]); always `None`
    /// in production configs.
    pub fault_plan: Option<crate::fault::FaultPlan>,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator {
            model: ModelKind::RandomForest,
            metric: None,
            folds: 5,
            seed: 0,
            fault_plan: None,
        }
    }
}

impl Persist for ModelKind {
    fn persist(&self, w: &mut Writer) {
        w.u8(match self {
            ModelKind::RandomForest => 0,
            ModelKind::GradientBoosting => 1,
            ModelKind::DecisionTree => 2,
            ModelKind::Logistic => 3,
            ModelKind::Ridge => 4,
            ModelKind::LinearSvm => 5,
            ModelKind::Knn => 6,
        });
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        Ok(match r.u8()? {
            0 => ModelKind::RandomForest,
            1 => ModelKind::GradientBoosting,
            2 => ModelKind::DecisionTree,
            3 => ModelKind::Logistic,
            4 => ModelKind::Ridge,
            5 => ModelKind::LinearSvm,
            6 => ModelKind::Knn,
            t => return Err(format!("unknown model tag {t}")),
        })
    }
}

impl Persist for Evaluator {
    fn persist(&self, w: &mut Writer) {
        // Exhaustive destructure: adding an Evaluator field without
        // deciding how (or whether) to persist it is a compile error.
        let Evaluator { model, metric, folds, seed, fault_plan: _ } = self;
        model.persist(w);
        // Optional metric packed into one byte (255 = None), predating the
        // generic two-byte `Option` encoding.
        match metric {
            None => w.u8(255),
            Some(m) => w.u8(m.persist_tag()),
        }
        folds.persist(w);
        seed.persist(w);
        // `fault_plan` is a test-only hook with process-local state; it is
        // never persisted. `FastFt::resume_with` can reattach one.
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        Ok(Evaluator {
            model: Persist::restore(r)?,
            metric: match r.u8()? {
                255 => None,
                tag => Some(Metric::from_persist_tag(tag)?),
            },
            folds: Persist::restore(r)?,
            seed: Persist::restore(r)?,
            fault_plan: None,
        })
    }
}

impl Evaluator {
    /// Random-forest evaluator with the paper's 5-fold protocol.
    pub fn new(model: ModelKind) -> Self {
        Evaluator { model, ..Evaluator::default() }
    }

    /// The metric this evaluator reports for `task`.
    pub fn metric_for(&self, task: TaskType) -> Metric {
        self.metric.unwrap_or_else(|| Metric::default_for(task))
    }

    /// Mean k-fold CV score of the dataset's feature set (single-threaded).
    pub fn evaluate(&self, data: &Dataset) -> FastFtResult<f64> {
        self.evaluate_with(&Runtime::new(1), data)
    }

    /// Mean k-fold CV score with the folds distributed over `rt`.
    ///
    /// Fold randomness comes entirely from `self.seed`, so the result is
    /// identical to [`Evaluator::evaluate`] for any thread count.
    pub fn evaluate_with(&self, rt: &Runtime, data: &Dataset) -> FastFtResult<f64> {
        if let Some(plan) = &self.fault_plan {
            // Test-only hook: may panic (injected evaluator crash), stall
            // (stuck fold) or substitute a corrupt score.
            if let Some(injected) = plan.before_eval() {
                return Ok(injected);
            }
        }
        if data.n_features() == 0 {
            return Err(FastFtError::Evaluation(format!(
                "dataset `{}` has no feature columns",
                data.name
            )));
        }
        let folds = self.folds.max(2);
        if data.n_rows() < folds {
            return Err(FastFtError::Evaluation(format!(
                "dataset `{}` has {} rows; {folds}-fold cross-validation needs at least {folds}",
                data.name,
                data.n_rows()
            )));
        }
        let kf = if data.task.is_discrete() {
            KFold::stratified(&data.class_labels(), folds, self.seed)
        } else {
            KFold::new(data.n_rows(), folds, self.seed)
        };
        let splits: Vec<(Vec<usize>, Vec<usize>)> = kf.iter().collect();
        // Stratified dealing leaves a fold empty when every class has fewer
        // rows than folds; averaging in an empty fold would skew the score.
        if let Some(empty) = splits.iter().position(|(_, test)| test.is_empty()) {
            return Err(FastFtError::Evaluation(format!(
                "dataset `{}`: test fold {empty} of {folds} is empty (every class has fewer \
                 than {folds} rows); use fewer folds",
                data.name
            )));
        }
        let scores: FastFtResult<Vec<f64>> = rt
            .par_map(splits, |(train_idx, test_idx)| {
                self.evaluate_fold(data, &train_idx, &test_idx)
            })
            .into_iter()
            .collect();
        Ok(scores?.iter().sum::<f64>() / folds as f64)
    }

    /// Score one train/test split (exposed for single-split workflows).
    pub fn evaluate_fold(
        &self,
        data: &Dataset,
        train_idx: &[usize],
        test_idx: &[usize],
    ) -> FastFtResult<f64> {
        let metric = self.metric_for(data.task);
        let train_cols: Vec<Vec<f64>> = data
            .features
            .iter()
            .map(|c| train_idx.iter().map(|&i| c.values[i]).collect())
            .collect();
        let test_rows: Vec<Vec<f64>> = test_idx.iter().map(|&i| data.row(i)).collect();
        match data.task {
            TaskType::Regression => {
                let y_train: Vec<f64> = train_idx.iter().map(|&i| data.targets[i]).collect();
                let y_test: Vec<f64> = test_idx.iter().map(|&i| data.targets[i]).collect();
                let pred = self.fit_predict_regression(&train_cols, &y_train, &test_rows);
                score_regression(metric, &y_test, &pred)
            }
            TaskType::Classification | TaskType::Detection => {
                let y_train: Vec<usize> =
                    train_idx.iter().map(|&i| data.targets[i] as usize).collect();
                let y_test: Vec<usize> =
                    test_idx.iter().map(|&i| data.targets[i] as usize).collect();
                let (pred, scores) = self.fit_predict_classification(
                    &train_cols,
                    &y_train,
                    data.n_classes,
                    &test_rows,
                );
                score_classification(metric, &y_test, &pred, &scores, data.n_classes)
            }
        }
    }

    fn fit_predict_regression(
        &self,
        train_cols: &[Vec<f64>],
        y: &[f64],
        test_rows: &[Vec<f64>],
    ) -> Vec<f64> {
        match self.model {
            ModelKind::RandomForest => {
                let mut m = RandomForestRegressor::new(ForestParams::default(), self.seed);
                m.fit(train_cols, y);
                m.predict(test_rows)
            }
            ModelKind::GradientBoosting => {
                let mut m = GradientBoostingRegressor::new(BoostParams::default(), self.seed);
                m.fit(train_cols, y);
                m.predict(test_rows)
            }
            ModelKind::DecisionTree => {
                let mut m = DecisionTreeRegressor::new(CartParams::default(), self.seed);
                m.fit(train_cols, y);
                m.predict(test_rows)
            }
            // Logistic / SVM have no regression form; Ridge is the linear
            // regression model in this workspace.
            ModelKind::Logistic | ModelKind::Ridge | ModelKind::LinearSvm => {
                let mut m = RidgeRegressor::new(1.0);
                m.fit(train_cols, y);
                m.predict(test_rows)
            }
            ModelKind::Knn => {
                let mut m = Knn::new(5);
                m.fit(train_cols, y, 0);
                m.predict_value(test_rows)
            }
        }
    }

    fn fit_predict_classification(
        &self,
        train_cols: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        test_rows: &[Vec<f64>],
    ) -> (Vec<usize>, Vec<f64>) {
        match self.model {
            ModelKind::RandomForest => {
                let mut m = RandomForestClassifier::new(ForestParams::default(), self.seed);
                m.fit(train_cols, y, n_classes);
                (m.predict(test_rows), m.predict_scores(test_rows))
            }
            ModelKind::GradientBoosting => {
                let mut m = GradientBoostingClassifier::new(BoostParams::default(), self.seed);
                m.fit(train_cols, y, n_classes);
                (m.predict(test_rows), m.predict_scores(test_rows))
            }
            ModelKind::DecisionTree => {
                let mut m = DecisionTreeClassifier::new(CartParams::default(), self.seed);
                m.fit(train_cols, y, n_classes);
                let pred = m.predict(test_rows);
                let scores = test_rows
                    .iter()
                    .map(|r| m.predict_proba_row(r)[1.min(n_classes - 1)])
                    .collect();
                (pred, scores)
            }
            ModelKind::Logistic => {
                let mut m = LogisticRegression::new(self.seed);
                m.fit(train_cols, y, n_classes);
                (m.predict(test_rows), m.predict_scores(test_rows))
            }
            ModelKind::Ridge => {
                let mut m = RidgeClassifier::new(1.0);
                m.fit(train_cols, y, n_classes);
                (m.predict(test_rows), m.predict_scores(test_rows))
            }
            ModelKind::LinearSvm => {
                let mut m = LinearSvm::new(self.seed);
                m.fit(train_cols, y, n_classes);
                (m.predict(test_rows), m.predict_scores(test_rows))
            }
            ModelKind::Knn => {
                let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
                let mut m = Knn::new(5);
                m.fit(train_cols, &yf, n_classes);
                (m.predict_class(test_rows), m.predict_scores(test_rows))
            }
        }
    }
}

fn score_regression(metric: Metric, y: &[f64], pred: &[f64]) -> FastFtResult<f64> {
    match metric {
        Metric::OneMinusRae => Ok(metrics::one_minus_rae(y, pred)),
        Metric::OneMinusMae => Ok(metrics::one_minus_mae(y, pred)),
        Metric::OneMinusMse => Ok(metrics::one_minus_mse(y, pred)),
        other => {
            Err(FastFtError::Evaluation(format!("metric {other:?} is not a regression metric")))
        }
    }
}

fn score_classification(
    metric: Metric,
    y: &[usize],
    pred: &[usize],
    scores: &[f64],
    n_classes: usize,
) -> FastFtResult<f64> {
    match metric {
        Metric::F1 => Ok(metrics::f1_macro(y, pred, n_classes)),
        Metric::Precision => Ok(metrics::precision_macro(y, pred, n_classes)),
        Metric::Recall => Ok(metrics::recall_macro(y, pred, n_classes)),
        Metric::Accuracy => Ok(metrics::accuracy(y, pred)),
        Metric::Auc => Ok(metrics::auc(y, scores)),
        other => {
            Err(FastFtError::Evaluation(format!("metric {other:?} is not a classification metric")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::datagen;

    fn small(name: &str, rows: usize) -> Dataset {
        let spec = datagen::by_name(name).unwrap();
        let mut d = datagen::generate_capped(spec, rows, 0);
        d.sanitize();
        d
    }

    #[test]
    fn rf_beats_chance_on_classification() {
        let d = small("pima_indian", 300);
        let score = Evaluator::default().evaluate(&d).unwrap();
        // Binary F1 at chance level with balanced-ish classes is ~0.5.
        assert!(score > 0.55, "score {score}");
        assert!(score <= 1.0);
    }

    #[test]
    fn regression_evaluator_positive() {
        let d = small("openml_589", 300);
        let score = Evaluator::default().evaluate(&d).unwrap();
        assert!(score > 0.0 && score <= 1.0, "1-RAE {score}");
    }

    #[test]
    fn detection_auc_above_half() {
        let d = small("thyroid", 500);
        let score = Evaluator::default().evaluate(&d).unwrap();
        assert!(score > 0.5, "auc {score}");
    }

    #[test]
    fn evaluator_is_deterministic() {
        let d = small("svmguide3", 200);
        let e = Evaluator::default();
        assert_eq!(e.evaluate(&d).unwrap(), e.evaluate(&d).unwrap());
    }

    #[test]
    fn all_models_run_on_classification() {
        let d = small("pima_indian", 150);
        for model in ModelKind::TABLE3 {
            let e = Evaluator { model, folds: 3, ..Evaluator::default() };
            let s = e.evaluate(&d).unwrap();
            assert!((0.0..=1.0).contains(&s), "{model:?} -> {s}");
        }
    }

    #[test]
    fn all_models_run_on_regression() {
        let d = small("openml_620", 150);
        for model in ModelKind::TABLE3 {
            let e = Evaluator { model, folds: 3, ..Evaluator::default() };
            let s = e.evaluate(&d).unwrap();
            assert!(s.is_finite(), "{model:?} -> {s}");
        }
    }

    #[test]
    fn knn_model_runs() {
        let d = small("pima_indian", 120);
        let e = Evaluator { model: ModelKind::Knn, folds: 3, ..Evaluator::default() };
        let s = e.evaluate(&d).unwrap();
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn metric_override_is_used() {
        let d = small("pima_indian", 150);
        let acc = Evaluator { metric: Some(Metric::Accuracy), folds: 3, ..Evaluator::default() }
            .evaluate(&d)
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn informative_feature_raises_score() {
        // Appending the (hidden) score-like crossing should not hurt and
        // typically helps: check it at least runs and stays in range.
        let mut d = small("pima_indian", 300);
        let base = Evaluator::default().evaluate(&d).unwrap();
        let cross: Vec<f64> =
            d.features[0].values.iter().zip(&d.features[1].values).map(|(a, b)| a * b).collect();
        d.push_feature(fastft_tabular::Column::new("f0*f1", cross));
        let with = Evaluator::default().evaluate(&d).unwrap();
        assert!(with >= base - 0.1, "base {base}, with {with}");
    }
}
