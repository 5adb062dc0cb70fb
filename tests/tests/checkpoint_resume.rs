//! Crash-safety acceptance gate: a run killed at a checkpoint boundary and
//! resumed must be bitwise-identical to the same run left uninterrupted —
//! same best score, same expressions, same per-step trace, same counters.

use fastft_core::{checkpoint, FastFt, FastFtConfig, StopReason};
use fastft_ml::Evaluator;
use fastft_tabular::{datagen, FastFtError};
use std::path::PathBuf;

fn cfg() -> FastFtConfig {
    FastFtConfig {
        episodes: 6,
        steps_per_episode: 4,
        cold_start_episodes: 2,
        retrain_every: 2,
        retrain_epochs: 8,
        evaluator: Evaluator { folds: 3, ..Evaluator::default() },
        ..FastFtConfig::default()
    }
}

fn load(name: &str, rows: usize, seed: u64) -> fastft_tabular::Dataset {
    let spec = datagen::by_name(name).unwrap();
    let mut d = datagen::generate_capped(spec, rows, seed);
    d.sanitize();
    d
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fastft-it-{tag}-{}.ckpt", std::process::id()))
}

/// Run `base` to completion, then run it again killed by an evaluation
/// budget with a checkpoint at every episode boundary, resume with the
/// budget lifted, and require the two results to agree bit for bit.
fn assert_kill_and_resume_matches(base: FastFtConfig, tag: &str) {
    let data = load("pima_indian", 200, 0);
    let full = FastFt::new(base.clone()).fit(&data).unwrap();
    assert_eq!(full.stop_reason, StopReason::Completed);

    // "Crash" the same run mid-way via an evaluation budget, checkpointing
    // at every episode boundary, then resume with the budget lifted.
    let ckpt = tmp_path(tag);
    let stopped = FastFt::new(FastFtConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(ckpt.clone()),
        max_downstream_evals: 8,
        ..base
    })
    .fit(&data)
    .unwrap();
    assert_eq!(stopped.stop_reason, StopReason::EvalBudget);
    assert!(stopped.records.len() < full.records.len(), "budget did not interrupt the run");

    let resumed = FastFt::resume_with(&ckpt, &data, |c| c.max_downstream_evals = 0).unwrap();
    assert_eq!(resumed.stop_reason, StopReason::Completed);

    // Bitwise parity of everything the search produced...
    assert_eq!(resumed.best_score.to_bits(), full.best_score.to_bits());
    assert_eq!(resumed.best_exprs, full.best_exprs);
    assert_eq!(resumed.records, full.records);
    assert_eq!(resumed.episode_best, full.episode_best);
    // ...and of the deterministic telemetry counters. Prefix-cache hits and
    // misses split differently because the cache restarts cold after a
    // resume, but every cached scoring call still counts exactly once.
    let (a, b) = (resumed.telemetry, full.telemetry);
    assert_eq!(a.downstream_evals, b.downstream_evals);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.cache_evictions, b.cache_evictions);
    assert_eq!(a.predictor_calls, b.predictor_calls);
    assert_eq!(a.score_batches, b.score_batches);
    assert_eq!(a.batch_size_hist, b.batch_size_hist);
    assert_eq!(a.prefix_hits + a.prefix_misses, b.prefix_hits + b.prefix_misses);
    assert_eq!(a.eval_faults, 0);
    assert_eq!(a.quarantined, 0);

    std::fs::remove_file(&ckpt).ok();
}

/// Covers the default (prioritized replay) search and the −RCT ablation,
/// whose replay draws are uniform.
#[test]
fn kill_and_resume_is_bitwise_identical_to_uninterrupted_run() {
    assert_kill_and_resume_matches(cfg(), "parity");
    assert_kill_and_resume_matches(cfg().without_critical_replay(), "parity-no-rct");
}

#[test]
fn resume_from_completed_checkpoint_returns_final_result() {
    let data = load("pima_indian", 150, 1);
    let ckpt = tmp_path("completed");
    let full = FastFt::new(FastFtConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(ckpt.clone()),
        ..cfg()
    })
    .fit(&data)
    .unwrap();

    // The last checkpoint fires on the final episode boundary, so resuming
    // it has no episodes left to run and must reproduce the final result.
    let resumed = FastFt::resume(&ckpt, &data).unwrap();
    assert_eq!(resumed.stop_reason, StopReason::Completed);
    assert_eq!(resumed.best_score.to_bits(), full.best_score.to_bits());
    assert_eq!(resumed.records, full.records);
    assert_eq!(resumed.telemetry.downstream_evals, full.telemetry.downstream_evals);

    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn resume_rejects_a_different_dataset() {
    let data = load("pima_indian", 150, 2);
    let ckpt = tmp_path("fingerprint");
    FastFt::new(FastFtConfig {
        episodes: 2,
        checkpoint_every: 1,
        checkpoint_path: Some(ckpt.clone()),
        ..cfg()
    })
    .fit(&data)
    .unwrap();

    let other = load("svmguide3", 150, 2);
    match FastFt::resume(&ckpt, &other) {
        Err(FastFtError::InvalidData(msg)) => {
            assert!(msg.contains("fingerprint"), "unexpected message: {msg}")
        }
        other => panic!("expected fingerprint mismatch, got {other:?}"),
    }

    // Same content under a different dataset name is still accepted.
    let mut renamed = data.clone();
    renamed.name = "renamed".to_string();
    assert_eq!(checkpoint::dataset_fingerprint(&renamed), checkpoint::dataset_fingerprint(&data));
    FastFt::resume(&ckpt, &renamed).unwrap();

    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn resume_rejects_corrupt_checkpoint_files() {
    let data = load("pima_indian", 150, 3);
    let ckpt = tmp_path("corrupt");

    // Not a checkpoint at all.
    std::fs::write(&ckpt, b"definitely not a checkpoint").unwrap();
    assert!(matches!(FastFt::resume(&ckpt, &data), Err(FastFtError::Parse(_))));

    // A real checkpoint, truncated.
    FastFt::new(FastFtConfig {
        episodes: 2,
        checkpoint_every: 1,
        checkpoint_path: Some(ckpt.clone()),
        ..cfg()
    })
    .fit(&data)
    .unwrap();
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(FastFt::resume(&ckpt, &data), Err(FastFtError::Parse(_))));

    // Missing file maps to an I/O error, not a panic.
    std::fs::remove_file(&ckpt).ok();
    assert!(matches!(FastFt::resume(&ckpt, &data), Err(FastFtError::Io { .. })));
}

#[test]
fn wall_clock_budget_returns_best_so_far() {
    let data = load("pima_indian", 150, 4);
    let result = FastFt::new(FastFtConfig { max_wall_secs: 1e-9, ..cfg() }).fit(&data).unwrap();
    assert_eq!(result.stop_reason, StopReason::WallClock);
    assert!(result.best_score.is_finite());
    assert!(result.best_score >= result.base_score);
}
