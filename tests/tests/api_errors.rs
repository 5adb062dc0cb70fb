//! The redesigned error-returning API surface: every fallible entry point
//! reports a typed [`FastFtError`] instead of panicking, and
//! `FastFtConfig::validate` checks custom configurations built with
//! struct-update syntax.

use fastft_core::pipeline::NullObserver;
use fastft_core::{FastFt, FastFtConfig, Session};
use fastft_ml::Evaluator;
use fastft_nn::EncoderKind;
use fastft_tabular::{csvio, datagen, Column, Dataset, FastFtError, TaskType};
use std::path::Path;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fastft-api-errors");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn malformed_csv_cell_is_a_parse_error() {
    let p = tmp("bad_cell.csv");
    std::fs::write(&p, "a,b,target\n1.0,2.0,0\nnot_a_number,4.0,1\n").unwrap();
    let err = csvio::read_csv(&p, "bad", TaskType::Classification, 2).unwrap_err();
    assert!(matches!(err, FastFtError::Parse(_)), "got {err:?}");
}

#[test]
fn missing_csv_file_is_an_io_error_with_path() {
    let p = Path::new("/nonexistent/fastft/input.csv");
    let err = csvio::read_csv(p, "missing", TaskType::Classification, 2).unwrap_err();
    match err {
        FastFtError::Io { path, .. } => assert!(path.contains("input.csv")),
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn ragged_columns_are_invalid_data() {
    let cols = vec![Column::new("a", vec![1.0, 2.0, 3.0]), Column::new("b", vec![1.0, 2.0])];
    let err =
        Dataset::new("ragged", cols, vec![0.0, 1.0, 0.0], TaskType::Classification, 2).unwrap_err();
    assert!(matches!(err, FastFtError::InvalidData(_)), "got {err:?}");
}

#[test]
fn validate_rejects_out_of_range_settings() {
    let err = FastFtConfig { alpha: 250.0, ..FastFtConfig::default() }.validate().unwrap_err();
    assert!(matches!(err, FastFtError::InvalidConfig(_)), "got {err:?}");
    let err = FastFtConfig { episodes: 0, ..FastFtConfig::default() }.validate().unwrap_err();
    assert!(matches!(err, FastFtError::InvalidConfig(_)));
    let cfg = FastFtConfig { eps_start: 0.01, eps_end: 0.5, ..FastFtConfig::default() };
    assert!(matches!(cfg.validate().unwrap_err(), FastFtError::InvalidConfig(_)));
}

#[test]
fn struct_update_config_is_runnable() {
    let cfg = FastFtConfig {
        episodes: 2,
        steps_per_episode: 3,
        cold_start_episodes: 1,
        evaluator: Evaluator { folds: 3, ..Evaluator::default() },
        threads: 1,
        ..FastFtConfig::default()
    };
    cfg.validate().unwrap();
    let spec = datagen::by_name("pima_indian").unwrap();
    let mut d = datagen::generate_capped(spec, 120, 0);
    d.sanitize();
    let r = FastFt::new(cfg).fit(&d).unwrap();
    assert!(r.best_score >= r.base_score);
}

#[test]
fn fit_surfaces_invalid_config_instead_of_panicking() {
    let cfg = FastFtConfig { alpha: 101.0, ..FastFtConfig::quick() };
    let spec = datagen::by_name("pima_indian").unwrap();
    let mut d = datagen::generate_capped(spec, 100, 0);
    d.sanitize();
    let err = FastFt::new(cfg).fit(&d).unwrap_err();
    assert!(matches!(err, FastFtError::InvalidConfig(_)), "got {err:?}");
}

#[test]
fn fit_rejects_dataset_without_features() {
    let d = Dataset::new("empty", Vec::new(), vec![0.0, 1.0], TaskType::Classification, 2).unwrap();
    let err = FastFt::new(FastFtConfig::quick()).fit(&d).unwrap_err();
    assert!(matches!(err, FastFtError::InvalidData(_)), "got {err:?}");
}

#[test]
fn errors_display_with_context() {
    let err = FastFtConfig { memory_size: 0, ..FastFtConfig::default() }.validate().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("invalid config"), "{msg}");
    assert!(msg.contains("memory_size"), "{msg}");
}

/// Encoder shapes the evaluation components cannot be built with: a
/// recurrent stack without layers, or a Transformer whose head count is 0 or
/// does not divide the model width of 32.
fn unbuildable_encoders() -> [EncoderKind; 5] {
    [
        EncoderKind::Lstm { layers: 0 },
        EncoderKind::Gru { layers: 0 },
        EncoderKind::Rnn { layers: 0 },
        EncoderKind::Transformer { heads: 0, blocks: 1 },
        EncoderKind::Transformer { heads: 3, blocks: 1 },
    ]
}

#[test]
fn fit_rejects_unbuildable_encoders() {
    let spec = datagen::by_name("pima_indian").unwrap();
    let mut d = datagen::generate_capped(spec, 100, 0);
    d.sanitize();
    for encoder in unbuildable_encoders() {
        let cfg = FastFtConfig { encoder, ..FastFtConfig::quick() };
        let err = FastFt::new(cfg).fit(&d).unwrap_err();
        match err {
            FastFtError::InvalidConfig(m) => assert!(m.contains("encoder"), "{encoder:?}: {m}"),
            other => panic!("{encoder:?}: expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn resume_rejects_unbuildable_encoders() {
    let spec = datagen::by_name("pima_indian").unwrap();
    let mut d = datagen::generate_capped(spec, 100, 0);
    d.sanitize();
    let path = tmp("encoder.ckpt");
    let cfg = FastFtConfig {
        episodes: 2,
        steps_per_episode: 2,
        cold_start_episodes: 1,
        evaluator: Evaluator { folds: 2, ..Evaluator::default() },
        checkpoint_every: 1,
        checkpoint_path: Some(path.clone()),
        ..FastFtConfig::default()
    };
    FastFt::new(cfg).fit(&d).unwrap();
    // A checkpoint whose config names such an encoder is refused the same
    // way, before any network is built.
    for encoder in unbuildable_encoders() {
        let err =
            Session::resume(&path, &d, |c| c.encoder = encoder, &mut NullObserver).unwrap_err();
        assert!(matches!(err, FastFtError::InvalidConfig(_)), "{encoder:?}: got {err:?}");
    }
}

fn pima(rows: usize) -> Dataset {
    let mut d = datagen::generate_capped(datagen::by_name("pima_indian").unwrap(), rows, 0);
    d.sanitize();
    d
}

#[test]
fn evaluate_fold_rejects_empty_train_split() {
    let d = pima(100);
    let test: Vec<usize> = (80..100).collect();
    let err = Evaluator::default().evaluate_fold(&d, &[], &test).unwrap_err();
    assert!(matches!(err, FastFtError::Evaluation(_)), "got {err:?}");
}

#[test]
fn evaluate_fold_rejects_out_of_range_test_index() {
    let d = pima(100);
    let train: Vec<usize> = (0..80).collect();
    let err = Evaluator::default().evaluate_fold(&d, &train, &[90, 100]).unwrap_err();
    match err {
        FastFtError::Evaluation(m) => assert!(m.contains("100"), "{m}"),
        other => panic!("expected Evaluation, got {other:?}"),
    }
}

#[test]
fn evaluate_fold_rejects_empty_test_split() {
    let d = pima(100);
    let train: Vec<usize> = (0..80).collect();
    let err = Evaluator::default().evaluate_fold(&d, &train, &[]).unwrap_err();
    assert!(matches!(err, FastFtError::Evaluation(_)), "got {err:?}");
}
