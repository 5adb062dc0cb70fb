//! Degenerate-input hardening: datasets that cannot be searched are
//! rejected up front with a typed, actionable error instead of panicking
//! (or worse, silently producing NaN scores) deep inside a run — and
//! merely *awkward* data (constant columns) still completes normally.

use fastft_core::{FastFt, FastFtConfig, StopReason};
use fastft_ml::Evaluator;
use fastft_tabular::dataset::{Column, Dataset};
use fastft_tabular::{FastFtError, TaskType};

fn cfg() -> FastFtConfig {
    FastFtConfig {
        episodes: 3,
        steps_per_episode: 3,
        cold_start_episodes: 1,
        retrain_every: 2,
        retrain_epochs: 8,
        evaluator: Evaluator { folds: 2, ..Evaluator::default() },
        ..FastFtConfig::default()
    }
}

fn classification(columns: Vec<Column>, targets: Vec<f64>) -> Dataset {
    Dataset::new("degenerate", columns, targets, TaskType::Classification, 2).unwrap()
}

fn expect_invalid(data: &Dataset, needle: &str) {
    match FastFt::new(cfg()).fit(data) {
        Err(FastFtError::InvalidData(msg)) => {
            assert!(msg.contains(needle), "expected {needle:?} in: {msg}")
        }
        Err(e) => panic!("expected InvalidData, got {e:?}"),
        Ok(_) => panic!("expected InvalidData, run succeeded"),
    }
}

#[test]
fn single_row_dataset_is_rejected() {
    let data = classification(vec![Column::new("a", vec![1.0])], vec![0.0]);
    expect_invalid(&data, "row");
}

#[test]
fn nan_feature_values_are_rejected_with_a_sanitize_hint() {
    let data = classification(
        vec![
            Column::new("a", vec![1.0, f64::NAN, 3.0, 4.0]),
            Column::new("b", vec![1.0, 2.0, 3.0, 4.0]),
        ],
        vec![0.0, 1.0, 0.0, 1.0],
    );
    expect_invalid(&data, "sanitize");
}

#[test]
fn infinite_feature_values_are_rejected() {
    let data = classification(
        vec![Column::new("a", vec![1.0, f64::INFINITY, 3.0, 4.0])],
        vec![0.0, 1.0, 0.0, 1.0],
    );
    expect_invalid(&data, "sanitize");
}

#[test]
fn non_finite_targets_are_rejected() {
    let data = Dataset::new(
        "degenerate",
        vec![Column::new("a", vec![1.0, 2.0, 3.0, 4.0])],
        vec![0.5, f64::NAN, 0.25, 1.0],
        TaskType::Regression,
        0,
    )
    .unwrap();
    expect_invalid(&data, "target");
}

#[test]
fn constant_columns_complete_normally() {
    // Constant features carry no signal, but they must not crash the
    // search, the novelty estimator, or the downstream evaluator.
    let n = 40;
    let targets: Vec<f64> = (0..n).map(|i| f64::from(i % 2)).collect();
    let varying: Vec<f64> = (0..n).map(|i| f64::from(i) + f64::from(i % 2) * 10.0).collect();
    let data = classification(
        vec![
            Column::new("const_a", vec![1.0; n as usize]),
            Column::new("const_b", vec![0.0; n as usize]),
            Column::new("x", varying),
        ],
        targets,
    );
    let result = FastFt::new(cfg()).fit(&data).unwrap();
    assert_eq!(result.stop_reason, StopReason::Completed);
    assert!(result.best_score.is_finite());
    assert!(result.best_score >= result.base_score);
    assert!(result.records.iter().all(|r| r.score.is_finite() && r.reward.is_finite()));
}

#[test]
fn fewer_rows_than_folds_is_an_evaluation_error() {
    // 3 rows cannot fill 5 folds; this used to panic inside `KFold::new`.
    let data = Dataset::new(
        "tiny",
        vec![Column::new("a", vec![1.0, 2.0, 3.0])],
        vec![0.5, 1.5, 2.5],
        TaskType::Regression,
        0,
    )
    .unwrap();
    let five = Evaluator { folds: 5, ..Evaluator::default() };
    let err = five.evaluate(&data).unwrap_err();
    assert!(matches!(&err, FastFtError::Evaluation(m) if m.contains("3 rows")), "{err:?}");
    let cfg = FastFtConfig { evaluator: five, ..cfg() };
    let err = FastFt::new(cfg).fit(&data).unwrap_err();
    assert!(matches!(err, FastFtError::Evaluation(_)), "{err:?}");
}

#[test]
fn empty_stratified_fold_is_an_evaluation_error() {
    // Two classes of 3 rows dealt into 5 stratified folds leave folds 3
    // and 4 empty; averaging them in used to score 0.133 silently.
    let data = classification(
        vec![Column::new("a", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])],
        vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
    );
    let err = Evaluator { folds: 5, ..Evaluator::default() }.evaluate(&data).unwrap_err();
    assert!(matches!(&err, FastFtError::Evaluation(m) if m.contains("empty")), "{err:?}");
    // Three folds fit: every fold gets one row of each class.
    assert!(Evaluator { folds: 3, ..Evaluator::default() }.evaluate(&data).is_ok());
}
