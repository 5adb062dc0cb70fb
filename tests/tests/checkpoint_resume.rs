//! Crash-safety acceptance gate: a run killed at a checkpoint boundary and
//! resumed must be bitwise-identical to the same run left uninterrupted —
//! same best score, same expressions, same per-step trace, same counters.

use fastft_core::pipeline::{NullObserver, TelemetryCollector};
use fastft_core::{checkpoint, FastFt, FastFtConfig, RunResult, Session, StopReason, Telemetry};
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
        threads: integration_tests::test_threads(),
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
/// budget lifted on `resume_threads` workers, and require the two results
/// to agree bit for bit.
fn assert_kill_and_resume_matches(base: FastFtConfig, resume_threads: usize, tag: &str) {
    let data = load("pima_indian", 200, 0);
    let full = FastFt::new(base.clone()).fit(&data).unwrap();
    assert_eq!(full.stop_reason, StopReason::Completed);

    // "Crash" the same run mid-way via an evaluation budget, checkpointing
    // at every episode boundary, then resume with the budget lifted.
    let (ckpt, stopped) = budget_stopped_checkpoint(base, &data, tag);
    assert!(stopped.records.len() < full.records.len(), "budget did not interrupt the run");

    let finish = |c: &mut FastFtConfig| {
        c.max_downstream_evals = 0;
        c.threads = resume_threads;
    };
    let resumed = Session::resume(&ckpt, &data, finish, &mut NullObserver).unwrap();
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
    let threads = cfg().threads;
    assert_kill_and_resume_matches(cfg(), threads, "parity");
    assert_kill_and_resume_matches(cfg().without_critical_replay(), threads, "parity-no-rct");
}

/// The worker count is one of the overrides a resume may change: a run
/// killed at one worker and resumed at four replays the uninterrupted
/// one-worker run bit for bit.
#[test]
fn resume_at_four_workers_matches_one_worker_run() {
    assert_kill_and_resume_matches(FastFtConfig { threads: 1, ..cfg() }, 4, "threads-1-to-4");
}

/// A run of `base` on `data` stopped by an evaluation budget, with a
/// checkpoint at every episode boundary: the checkpoint's path and the
/// stopped run's result.
fn budget_stopped_checkpoint(
    base: FastFtConfig,
    data: &fastft_tabular::Dataset,
    tag: &str,
) -> (PathBuf, RunResult) {
    let ckpt = tmp_path(tag);
    let cfg = FastFtConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(ckpt.clone()),
        max_downstream_evals: 8,
        ..base
    };
    let stopped = FastFt::new(cfg).fit(data).unwrap();
    assert_eq!(stopped.stop_reason, StopReason::EvalBudget);
    (ckpt, stopped)
}

/// Resume override that lets a budget-stopped run finish without
/// overwriting its checkpoint, so the same file can be resumed twice.
fn finish_in_place(c: &mut FastFtConfig) {
    c.max_downstream_evals = 0;
    c.checkpoint_every = 0;
}

/// The deterministic counters of `t`, in one comparable list.
fn counters(t: &Telemetry) -> Vec<u64> {
    let mut v = vec![
        t.downstream_evals as u64,
        t.predictor_calls as u64,
        t.cache_hits as u64,
        t.cache_evictions as u64,
        t.prefix_hits,
        t.prefix_misses,
        t.prefix_evictions,
        t.score_batches,
        t.eval_faults as u64,
        t.quarantined as u64,
        t.weight_rollbacks as u64,
    ];
    v.extend_from_slice(&t.batch_size_hist);
    v
}

#[test]
fn observed_resume_is_bitwise_identical_to_unobserved() {
    let data = load("pima_indian", 150, 5);
    let (ckpt, _) = budget_stopped_checkpoint(cfg(), &data, "observed");
    let plain = Session::resume(&ckpt, &data, finish_in_place, &mut NullObserver).unwrap();
    let mut collector = TelemetryCollector::new();
    let observed = Session::resume(&ckpt, &data, finish_in_place, &mut collector).unwrap();
    assert_eq!(observed.stop_reason, StopReason::Completed);
    assert_eq!(observed.base_score.to_bits(), plain.base_score.to_bits());
    assert_eq!(observed.best_score.to_bits(), plain.best_score.to_bits());
    assert_eq!(observed.best_exprs, plain.best_exprs);
    assert_eq!(observed.records, plain.records);
    assert_eq!(observed.episode_best, plain.episode_best);
    assert_eq!(counters(&observed.telemetry), counters(&plain.telemetry));
    std::fs::remove_file(&ckpt).ok();
}

/// An observer attached to a resume sees only the resumed leg, and the run
/// starts from the checkpoint's counters: collector + checkpoint = result,
/// counter by counter.
#[test]
fn observed_resume_counts_exactly_the_resumed_leg() {
    let data = load("pima_indian", 150, 6);
    let (ckpt, _) = budget_stopped_checkpoint(cfg(), &data, "leg-counters");
    let (_, snap) = checkpoint::read(&ckpt).unwrap();
    let mut collector = TelemetryCollector::new();
    let resumed = Session::resume(&ckpt, &data, finish_in_place, &mut collector).unwrap();
    assert_eq!(resumed.stop_reason, StopReason::Completed);
    let leg = counters(collector.telemetry());
    let before = counters(&snap.telemetry);
    let after = counters(&resumed.telemetry);
    for (i, ((l, b), a)) in leg.iter().zip(&before).zip(&after).enumerate() {
        assert_eq!(l + b, *a, "counter {i}: leg {l} + checkpoint {b} != resumed {a}");
    }
    assert!(collector.telemetry().downstream_evals > 0, "the resumed leg evaluated nothing");
    assert_eq!(collector.steps() + snap.records.len(), resumed.records.len());
    assert_eq!(collector.episodes() + snap.next_episode, cfg().episodes);
    assert_eq!(collector.checkpoints(), 0);
    std::fs::remove_file(&ckpt).ok();
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
