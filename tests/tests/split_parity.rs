//! Histogram-vs-exact parity across the downstream tree stack: the
//! histogram backend must deliver its speedup without moving the scores
//! the rest of the system optimises against, and must keep the
//! worker-count determinism contract.
//!
//! The exact sorted-rows search is no longer a production backend; the
//! tree module's tests keep it as a live oracle. Here the ensemble-level
//! comparison runs against the exact backend's CV means, captured before
//! it left production code and pinned as `f64` bit patterns.

use fastft_ml::evaluator::ModelKind;
use fastft_ml::Evaluator;
use fastft_runtime::Runtime;
use fastft_tabular::datagen;

fn load_seeded(name: &str, rows: usize, seed: u64) -> fastft_tabular::Dataset {
    let spec = datagen::by_name(name).unwrap();
    let mut d = datagen::generate_capped(spec, rows, seed);
    d.sanitize();
    d
}

fn load(name: &str, rows: usize) -> fastft_tabular::Dataset {
    load_seeded(name, rows, 0)
}

fn eval(model: ModelKind, data: &fastft_tabular::Dataset) -> f64 {
    Evaluator { model, folds: 3, ..Evaluator::default() }.evaluate(data).unwrap()
}

/// Generator seeds each mean is taken over.
const SEEDS: u64 = 5;

/// Per model: `(model, exact mean as f64 bits, tolerance)`.
type ModelMeans = [(ModelKind, u64, f64); 3];

/// 3-fold CV means of the exact sorted-rows backend over generator seeds
/// `0..SEEDS`, per `(dataset, rows)`.
const EXACT_MEANS: [(&str, usize, ModelMeans); 4] = [
    (
        "pima_indian", // classification
        400,
        [
            (ModelKind::RandomForest, 0x3fe8a53c91c206dc, 0.01),
            (ModelKind::GradientBoosting, 0x3fe8da3b2aa01fea, 0.01),
            (ModelKind::DecisionTree, 0x3fe7a89c0fe4a3f4, 0.03),
        ],
    ),
    (
        "svmguide3", // classification, wider
        400,
        [
            (ModelKind::RandomForest, 0x3fe446887606a472, 0.01),
            (ModelKind::GradientBoosting, 0x3fe540d919caf7d3, 0.01),
            (ModelKind::DecisionTree, 0x3fe3d220a23ad2ee, 0.03),
        ],
    ),
    (
        "openml_589", // regression (1-RAE)
        400,
        [
            (ModelKind::RandomForest, 0x3fc1d5b24e8deb64, 0.01),
            (ModelKind::GradientBoosting, 0x3fc5c146da893c94, 0.01),
            (ModelKind::DecisionTree, 0xbfb2e0539e69a382, 0.03),
        ],
    ),
    (
        "thyroid", // detection (AUC)
        500,
        [
            (ModelKind::RandomForest, 0x3fec1f8e9ce8a368, 0.01),
            (ModelKind::GradientBoosting, 0x3febfda707d72910, 0.01),
            (ModelKind::DecisionTree, 0x3fe886d1ec1c7ea6, 0.03),
        ],
    ),
];

/// CV scores from the binned backend stay within tolerance of the exact
/// baseline on the planted-interaction generators, for every tree-stack
/// model and every task family the evaluator serves. Scores are averaged
/// over several generator seeds so the comparison captures the systematic
/// backend difference, not single-fold noise. Ensembles average away
/// threshold jitter and get the tight bound; a single tree's score
/// (especially detection AUC, ranked off a handful of leaf probabilities)
/// is granular, so it gets a looser one.
#[test]
fn histogram_scores_match_exact_within_tolerance() {
    for (name, rows, models) in EXACT_MEANS {
        for (model, exact_bits, tolerance) in models {
            let exact_mean = f64::from_bits(exact_bits);
            let hist_mean =
                (0..SEEDS).map(|seed| eval(model, &load_seeded(name, rows, seed))).sum::<f64>()
                    / SEEDS as f64;
            assert!(
                (exact_mean - hist_mean).abs() <= tolerance,
                "{model:?} on {name}: exact {exact_mean} vs histogram {hist_mean}"
            );
        }
    }
}

/// Determinism contract: the same seed gives byte-identical scores at any
/// worker count.
#[test]
fn evaluator_deterministic_across_worker_counts() {
    let data = load("pima_indian", 300);
    let rt1 = Runtime::new(1);
    let rt4 = Runtime::new(4);
    for model in [ModelKind::RandomForest, ModelKind::GradientBoosting] {
        let ev = Evaluator { model, folds: 3, ..Evaluator::default() };
        let a = ev.evaluate_with(&rt1, &data).unwrap();
        let b = ev.evaluate_with(&rt4, &data).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "{model:?} differs across worker counts: {a} vs {b}");
    }
}

/// Repeated evaluation is reproducible (no hidden state leaks from the
/// shared binning caches).
#[test]
fn histogram_evaluation_is_repeatable() {
    let data = load("svmguide3", 250);
    let ev = Evaluator { folds: 3, ..Evaluator::default() };
    let a = ev.evaluate(&data).unwrap();
    let b = ev.evaluate(&data).unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
}
