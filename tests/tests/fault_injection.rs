//! Fault-isolated evaluation under a deterministic fault schedule: injected
//! panics, NaN scores, stalls and OOM-sized candidates must never crash a
//! run — they are retried, quarantined, and reported in the telemetry.
//!
//! Eval index 0 is the *base* evaluation of the original features, which is
//! deliberately unguarded (a dataset whose raw features cannot be scored is
//! a configuration error), so every schedule here targets index >= 1.

use fastft_core::{FastFt, FastFtConfig, StopReason};
use fastft_ml::{Evaluator, FaultKind, FaultPlan};
use fastft_tabular::datagen;

fn cfg(plan: FaultPlan) -> FastFtConfig {
    FastFtConfig {
        episodes: 5,
        steps_per_episode: 4,
        cold_start_episodes: 2,
        retrain_every: 2,
        retrain_epochs: 8,
        evaluator: Evaluator { folds: 3, fault_plan: Some(plan), ..Evaluator::default() },
        threads: integration_tests::test_threads(),
        ..FastFtConfig::default()
    }
}

fn load(seed: u64) -> fastft_tabular::Dataset {
    let spec = datagen::by_name("pima_indian").unwrap();
    let mut d = datagen::generate_capped(spec, 150, seed);
    d.sanitize();
    d
}

/// Run under `plan`, returning the result and the shared plan handle (its
/// eval counter advances as the engine evaluates).
fn run_with(plan: FaultPlan, seed: u64) -> (fastft_core::RunResult, FaultPlan) {
    let handle = plan.clone();
    let result = FastFt::new(cfg(plan)).fit(&load(seed)).unwrap();
    (result, handle)
}

#[test]
fn single_panic_is_retried_and_the_run_completes() {
    let (result, plan) = run_with(FaultPlan::new(vec![FaultKind::PanicOnEval(2)]), 0);
    assert_eq!(result.stop_reason, StopReason::Completed);
    assert!(result.best_score.is_finite());
    assert!(result.best_score >= result.base_score);
    // The fault fired (if eval 2 was reached) and the one-shot retry — eval
    // index 3 — succeeded, so nothing was quarantined.
    assert_eq!(result.telemetry.eval_faults, plan.scoring_faults_before(plan.evals_seen()));
    assert_eq!(result.telemetry.quarantined, 0);
    assert!(plan.evals_seen() > 2, "schedule never reached the faulted eval");
}

#[test]
fn nan_score_counts_as_a_fault_not_a_result() {
    let (result, plan) = run_with(FaultPlan::new(vec![FaultKind::NanScore(1)]), 1);
    assert_eq!(result.stop_reason, StopReason::Completed);
    assert!(result.best_score.is_finite());
    assert!(result.records.iter().all(|r| r.score.is_finite()));
    assert_eq!(result.telemetry.eval_faults, plan.scoring_faults_before(plan.evals_seen()));
    assert_eq!(result.telemetry.eval_faults, 1);
}

#[test]
fn consecutive_faults_exhaust_retries_and_quarantine_the_candidate() {
    // One retry gives each candidate two attempts; faulting two
    // consecutive eval indices therefore burns both and forces quarantine.
    // The step falls back on the predictor and the run still completes.
    let plan = FaultPlan::new(vec![FaultKind::OomCandidate(3), FaultKind::PanicOnEval(4)]);
    let (result, _plan) = run_with(plan, 2);
    assert_eq!(result.stop_reason, StopReason::Completed);
    assert!(result.best_score.is_finite());
    assert_eq!(result.telemetry.eval_faults, 2);
    assert_eq!(result.telemetry.quarantined, 1);
}

#[test]
fn stalls_are_not_faults() {
    let plan = FaultPlan::new(vec![
        FaultKind::SlowEval { eval: 1, millis: 2 },
        FaultKind::SlowEval { eval: 3, millis: 2 },
    ]);
    let (result, plan) = run_with(plan, 3);
    assert_eq!(result.stop_reason, StopReason::Completed);
    assert_eq!(result.telemetry.eval_faults, 0);
    assert_eq!(result.telemetry.quarantined, 0);
    assert_eq!(plan.scoring_faults_before(usize::MAX), 0);
}

#[test]
fn seeded_schedule_is_survived_and_accounted_for() {
    // Find (deterministically) a seeded plan whose faults avoid the base
    // eval and don't stack on one index, so the engine's fault counter is
    // exactly predictable from the schedule.
    let seed = (0u64..)
        .find(|&s| {
            let faults = FaultPlan::seeded(s, 4, 12);
            let idx: Vec<usize> = faults
                .faults()
                .iter()
                .map(|f| match *f {
                    FaultKind::PanicOnEval(n)
                    | FaultKind::NanScore(n)
                    | FaultKind::OomCandidate(n) => n,
                    FaultKind::SlowEval { eval, .. } => eval,
                })
                .collect();
            idx.iter().all(|&i| i >= 1)
                && idx.iter().collect::<std::collections::HashSet<_>>().len() == idx.len()
        })
        .unwrap();
    let (result, plan) = run_with(FaultPlan::seeded(seed, 4, 12), 4);
    assert_eq!(result.stop_reason, StopReason::Completed);
    assert!(result.best_score.is_finite());
    assert!(result.best_score >= result.base_score);
    assert_eq!(result.telemetry.eval_faults, plan.scoring_faults_before(plan.evals_seen()));
}

#[test]
fn faults_do_not_change_what_an_unfaulted_run_would_report_as_sane() {
    // A heavily faulted run and a clean run on the same data both produce
    // structurally valid results: finite scores everywhere, a best at
    // least as good as base, and a full trace.
    let clean = FastFt::new(cfg(FaultPlan::new(Vec::new()))).fit(&load(5)).unwrap();
    let plan = FaultPlan::new(vec![
        FaultKind::NanScore(2),
        FaultKind::PanicOnEval(5),
        FaultKind::OomCandidate(6),
        FaultKind::NanScore(9),
    ]);
    let (faulted, _) = run_with(plan, 5);
    for r in clean.records.iter().chain(&faulted.records) {
        assert!(r.score.is_finite());
        assert!(r.reward.is_finite());
    }
    assert!(faulted.best_score >= faulted.base_score);
    assert_eq!(faulted.episode_best.len(), clean.episode_best.len());
}
