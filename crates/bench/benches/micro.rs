//! Std-only micro-benchmarks over the workspace's hot paths — most
//! importantly the paper's central speed claim: one Performance-Predictor
//! forward pass vs one full downstream evaluation — plus the parallel-layer
//! scaling check (random-forest fit and 5-fold CV, serial vs 4 workers).
//!
//! Runs offline via `cargo bench -p fastft-bench` (`harness = false`); no
//! external benchmarking crate. Each benchmark reports the median of
//! `reps` timed runs after one warm-up.

use fastft_core::predictor::{PerformancePredictor, PredictorConfig};
use fastft_core::sequence::{encode_feature_set, TokenVocab};
use fastft_core::transform::FeatureSet;
use fastft_core::{cluster, Op};
use fastft_ml::forest::{ForestParams, RandomForestClassifier};
use fastft_ml::Evaluator;
use fastft_nn::init;
use fastft_nn::lstm::Lstm;
use fastft_nn::matrix::Matrix;
use fastft_runtime::Runtime;
use fastft_tabular::{datagen, mi, rngx};
use std::time::Instant;

/// Median wall time in microseconds of `reps` runs of `f` (one warm-up).
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn report(group: &str, name: &str, us: f64) {
    if us >= 1e6 {
        println!("{group}/{name:<28} {:>10.3} s", us / 1e6);
    } else if us >= 1e3 {
        println!("{group}/{name:<28} {:>10.3} ms", us / 1e3);
    } else {
        println!("{group}/{name:<28} {:>10.1} us", us);
    }
}

fn dataset(rows: usize) -> fastft_tabular::Dataset {
    let spec = datagen::by_name("pima_indian").unwrap();
    let mut d = datagen::generate_capped(spec, rows, 0);
    d.sanitize();
    d
}

/// The paper's Table II in microcosm: predictor forward vs downstream CV.
fn bench_predictor_vs_downstream() {
    let data = dataset(400);
    let vocab = TokenVocab::new(data.n_features());
    let fs = FeatureSet::from_original(&data);
    let seq = encode_feature_set(&fs.exprs, &vocab, 192);
    let predictor = PerformancePredictor::new(vocab.size(), PredictorConfig::default(), 0);
    report(
        "reward_source",
        "predictor_forward",
        time_us(10, || {
            std::hint::black_box(predictor.predict(&seq));
        }),
    );
    let evaluator = Evaluator { folds: 5, ..Evaluator::default() };
    report(
        "reward_source",
        "downstream_5fold_rf",
        time_us(10, || {
            std::hint::black_box(evaluator.evaluate(&data).unwrap());
        }),
    );
}

/// The runtime crate's scaling claim: the same deterministic result, timed
/// serial vs 4 workers, for the two downstream hot paths.
fn bench_parallel_scaling() {
    let data = dataset(600);
    let cols: Vec<Vec<f64>> = data.features.iter().map(|c| c.values.clone()).collect();
    let y = data.class_labels();
    let rt1 = Runtime::new(1);
    let rt4 = Runtime::new(4);
    let serial = time_us(5, || {
        let mut rf = RandomForestClassifier::new(ForestParams::default(), 0);
        rf.fit_with(&rt1, &cols, &y, data.n_classes);
        std::hint::black_box(rf);
    });
    let parallel = time_us(5, || {
        let mut rf = RandomForestClassifier::new(ForestParams::default(), 0);
        rf.fit_with(&rt4, &cols, &y, data.n_classes);
        std::hint::black_box(rf);
    });
    report("parallel", "rf_fit_serial", serial);
    report("parallel", "rf_fit_4workers", parallel);
    println!("parallel/rf_fit speedup at 4 workers: {:.2}x", serial / parallel);

    let evaluator = Evaluator { folds: 5, ..Evaluator::default() };
    let serial = time_us(5, || {
        std::hint::black_box(evaluator.evaluate_with(&rt1, &data).unwrap());
    });
    let parallel = time_us(5, || {
        std::hint::black_box(evaluator.evaluate_with(&rt4, &data).unwrap());
    });
    report("parallel", "cv5_serial", serial);
    report("parallel", "cv5_4workers", parallel);
    println!("parallel/cv5 speedup at 4 workers: {:.2}x", serial / parallel);
}

fn bench_matmul() {
    for n in [32usize, 64, 128] {
        let mut rng = init::rng(1);
        let a = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.gen::<f64>()).collect());
        let b = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.gen::<f64>()).collect());
        report(
            "matmul",
            &format!("{n}x{n}"),
            time_us(20, || {
                std::hint::black_box(a.matmul(&b));
            }),
        );
    }
}

fn bench_lstm_forward() {
    let lstm = Lstm::new(32, 32, 2, &mut init::rng(2));
    for t in [16usize, 64, 192] {
        let mut rng = init::rng(3);
        let x = Matrix::from_vec(t, 32, (0..t * 32).map(|_| rng.gen::<f64>() - 0.5).collect());
        report(
            "lstm_forward",
            &format!("seq{t}"),
            time_us(20, || {
                std::hint::black_box(lstm.infer(&x));
            }),
        );
    }
}

fn bench_mi_and_clustering() {
    let data = dataset(500);
    report(
        "mi",
        "relevance_scores",
        time_us(20, || {
            std::hint::black_box(mi::relevance_scores(&data, 12));
        }),
    );
    report(
        "mi",
        "mi_cache_plus_clustering",
        time_us(20, || {
            let cache = cluster::MiCache::compute(&data, 12);
            std::hint::black_box(cluster::cluster_features(&data, &cache, 1.0, 2));
        }),
    );
}

fn bench_group_crossing() {
    let data = dataset(500);
    let fs = FeatureSet::from_original(&data);
    let head: Vec<usize> = (0..4).collect();
    let tail: Vec<usize> = (4..8).collect();
    report(
        "crossing",
        "binary_4x4",
        time_us(20, || {
            let mut rng = rngx::rng(5);
            std::hint::black_box(fs.cross(&head, Op::Multiply, Some(&tail), 16, &mut rng));
        }),
    );
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    println!("fastft micro-benchmarks (std-only; median of N runs)");
    bench_predictor_vs_downstream();
    bench_parallel_scaling();
    bench_matmul();
    bench_lstm_forward();
    bench_mi_and_clustering();
    bench_group_crossing();
}
