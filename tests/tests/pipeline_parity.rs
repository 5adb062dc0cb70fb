//! Golden-trace parity for the staged-pipeline refactor.
//!
//! These constants were captured from the pre-refactor monolithic engine
//! (`Run` in `engine.rs`, field-by-field `checkpoint.rs`) on the reference
//! configuration below. The staged pipeline must reproduce them exactly:
//! identical `RunResult` scores, bitwise-identical `StepRecord`s, the same
//! deterministic telemetry counters, and byte-identical checkpoints (after
//! zeroing the wall-clock-only telemetry fields, which legitimately differ
//! between any two runs).
//!
//! To re-capture after an *intentional* trace change, run:
//! `FASTFT_GOLDEN_CAPTURE=1 cargo test -p integration-tests --test pipeline_parity -- --nocapture`
//! and paste the printed constants.

use fastft_core::checkpoint;
use fastft_core::{FastFt, FastFtConfig, RunResult, StepRecord};
use fastft_ml::Evaluator;
use fastft_tabular::datagen;

/// FNV-1a over a byte stream, matching the checkpoint fingerprint hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn golden_data() -> fastft_tabular::Dataset {
    let spec = datagen::by_name("pima_indian").unwrap();
    let mut d = datagen::generate_capped(spec, 120, 0);
    d.sanitize();
    d
}

fn golden_cfg() -> FastFtConfig {
    FastFtConfig {
        episodes: 4,
        steps_per_episode: 4,
        cold_start_episodes: 2,
        retrain_every: 1,
        retrain_epochs: 8,
        evaluator: Evaluator { folds: 3, ..Evaluator::default() },
        threads: integration_tests::test_threads(),
        ..FastFtConfig::default()
    }
}

/// Hash every deterministic field of the step trace.
fn records_hash(records: &[StepRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.u64(r.episode as u64);
        h.u64(r.step as u64);
        h.f64(r.reward);
        h.f64(r.score);
        h.u64(u64::from(r.predicted));
        h.f64(r.novelty);
        h.f64(r.novelty_distance);
        h.u64(u64::from(r.new_combination));
        h.u64(r.n_features as u64);
        for e in &r.new_exprs {
            h.bytes(e.as_bytes());
        }
    }
    h.0
}

/// Hash of the run outcome: scores, per-episode curve and the
/// deterministic telemetry counters (wall times excluded).
fn result_hash(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.f64(r.base_score);
    h.f64(r.best_score);
    for &b in &r.episode_best {
        h.f64(b);
    }
    h.u64(records_hash(&r.records));
    let t = &r.telemetry;
    h.u64(t.downstream_evals as u64);
    h.u64(t.predictor_calls as u64);
    h.u64(t.cache_hits as u64);
    h.u64(t.cache_evictions as u64);
    h.u64(t.prefix_hits);
    h.u64(t.prefix_misses);
    h.u64(t.prefix_evictions);
    h.u64(t.score_batches);
    for &b in &t.batch_size_hist {
        h.u64(b);
    }
    h.u64(t.eval_faults as u64);
    h.u64(t.quarantined as u64);
    h.u64(t.weight_rollbacks as u64);
    h.0
}

/// Read a checkpoint, zero its wall-clock-only telemetry fields, pin its
/// run-local path and worker count, and hash the re-encoded bytes. Everything else in the file — weights, optimiser
/// moments, replay slots, RNG stream, cache recency order, histories — is
/// deterministic and layout-sensitive, so this pins both the trace *and*
/// the binary format.
fn checkpoint_hash(path: &std::path::Path) -> (u64, usize) {
    let (mut cfg, mut snap) = checkpoint::read(path).expect("readable checkpoint");
    cfg.checkpoint_path = Some(std::path::PathBuf::from("golden.ckpt"));
    cfg.threads = 1;
    snap.telemetry.optimization_secs = 0.0;
    snap.telemetry.estimation_secs = 0.0;
    snap.telemetry.evaluation_secs = 0.0;
    snap.telemetry.total_secs = 0.0;
    snap.telemetry.predictor_secs = 0.0;
    snap.telemetry.novelty_secs = 0.0;
    let bytes = checkpoint::encode(&cfg, &snap);
    let mut h = Fnv::new();
    h.bytes(&bytes);
    (h.0, bytes.len())
}

// --- golden constants (captured from the pre-refactor engine) -------------
//
// The two checkpoint constants were re-captured for checkpoint format
// version 2, which dropped the `batched_scoring` flag (1 byte) and the
// snapshot's prefix-cache counter baseline (96 bytes); those counters now
// travel in the snapshot's telemetry. They were re-captured again for
// version 3, which dropped the evaluator's split-method field (a `u8` tag
// and a `u32` bin-count slot: 5 bytes). They were re-captured again for
// version 4, which dropped the replay buffer's variant tag byte (1 byte:
// there is one buffer type, so nothing to tag); the parent format with only
// that byte removed and the version bumped gives exactly these two values.
// They were re-captured again for version 5, which dropped twelve 8-byte
// configuration fields (96 bytes) and writes the evaluator's optional
// metric with the generic `Option` codec (`None` is still one byte, now 0
// instead of 255); the parent format with only those changes and the
// version bumped gives exactly these two values. The run constants are
// unchanged.

const GOLDEN_BASE_SCORE: u64 = 0x3fe47d851b84ad0e;
const GOLDEN_BEST_SCORE: u64 = 0x3fe47d851b84ad0e;
const GOLDEN_RESULT_HASH: u64 = 0xf3d4f6f1bcf534cc;
const GOLDEN_CKPT_HASH: u64 = 0x80593391fdb4b68d;
const GOLDEN_CKPT_LEN: usize = 1789103;

// The FASTFT⁻ᴿᶜᵀ ablation (uniform replay sampling) on the same
// configuration, captured before the two replay buffers were merged into
// one buffer with a sampling switch.
const GOLDEN_RESULT_HASH_NO_RCT: u64 = 0x410e2ea20b81ebe7;

#[test]
fn golden_trace_matches_pre_refactor_engine() {
    let data = golden_data();
    let dir = std::env::temp_dir().join(format!("fastft-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("golden.ckpt");
    let mut cfg = golden_cfg();
    cfg.checkpoint_every = 2;
    cfg.checkpoint_path = Some(ckpt.clone());
    let result = FastFt::new(cfg).fit(&data).unwrap();
    let (ckpt_hash, ckpt_len) = checkpoint_hash(&ckpt);
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_dir(&dir).ok();

    if std::env::var("FASTFT_GOLDEN_CAPTURE").is_ok() {
        println!("const GOLDEN_BASE_SCORE: u64 = {:#018x};", result.base_score.to_bits());
        println!("const GOLDEN_BEST_SCORE: u64 = {:#018x};", result.best_score.to_bits());
        println!("const GOLDEN_RESULT_HASH: u64 = {:#018x};", result_hash(&result));
        println!("const GOLDEN_CKPT_HASH: u64 = {:#018x};", ckpt_hash);
        println!("const GOLDEN_CKPT_LEN: usize = {};", ckpt_len);
        return;
    }

    assert_eq!(result.base_score.to_bits(), GOLDEN_BASE_SCORE, "base_score drifted");
    assert_eq!(result.best_score.to_bits(), GOLDEN_BEST_SCORE, "best_score drifted");
    assert_eq!(result.records.len(), 16, "step count drifted");
    assert_eq!(
        result_hash(&result),
        GOLDEN_RESULT_HASH,
        "RunResult trace drifted from the pre-refactor engine"
    );
    assert_eq!(ckpt_len, GOLDEN_CKPT_LEN, "checkpoint byte length drifted");
    assert_eq!(
        ckpt_hash, GOLDEN_CKPT_HASH,
        "checkpoint bytes drifted from the pre-refactor format"
    );
}

/// The −RCT ablation draws its replay samples uniformly instead of by TD
/// error; its decision stream is pinned separately.
#[test]
fn golden_trace_without_critical_replay() {
    let result = FastFt::new(golden_cfg().without_critical_replay()).fit(&golden_data()).unwrap();
    if std::env::var("FASTFT_GOLDEN_CAPTURE").is_ok() {
        println!("const GOLDEN_RESULT_HASH_NO_RCT: u64 = {:#018x};", result_hash(&result));
        return;
    }
    assert_eq!(result.base_score.to_bits(), GOLDEN_BASE_SCORE, "base_score drifted");
    assert_eq!(result.records.len(), 16, "step count drifted");
    assert_eq!(result_hash(&result), GOLDEN_RESULT_HASH_NO_RCT, "−RCT trace drifted");
}

/// The same trace must come out of the multi-dataset `Session` entry point
/// as out of `FastFt::fit` — the session only shares the worker pool, it
/// never perturbs a run's decision stream.
#[test]
fn session_matches_fastft_fit() {
    let data = golden_data();
    let fit = FastFt::new(golden_cfg()).fit(&data).unwrap();
    assert_eq!(result_hash(&fit), GOLDEN_RESULT_HASH);
}
