//! Crash-safe run checkpoints: a versioned, dependency-free binary
//! snapshot of every piece of engine state that influences the remainder
//! of a run.
//!
//! The engine writes a checkpoint at episode boundaries
//! ([`FastFtConfig::checkpoint_every`]) and
//! [`FastFt::resume`](crate::engine::FastFt::resume) continues a killed
//! run **bitwise identically** to an uninterrupted one: agent/predictor/
//! estimator weights and optimiser moments, the replay buffer (slot
//! order, priorities, write cursor), the RNG stream position, the memo-cache
//! contents in recency order, percentile histories and Welford novelty
//! stats, the best-so-far feature set and the full telemetry counters all
//! round-trip through the file. Wall-time-only state (the encoder prefix
//! caches) is deliberately *not* captured — it is rebuilt cold, which
//! changes how later `prefix_hits`/`prefix_misses` accrue but never a
//! score. The counters accrued before the checkpoint travel in the
//! telemetry.
//!
//! Format: magic `FFTCKPT1`, a `u32` version (currently 5), then the
//! configuration and snapshot in the workspace-wide [`Persist`] layout
//! (little-endian, `f64` as IEEE-754 bits, so floats survive exactly).
//! Every component encodes itself next to its own definition — this module
//! only concatenates the pieces, so it never enumerates another component's
//! internals. Files are written to a temporary sibling, flushed to disk,
//! atomically renamed into place, and the directory entry is flushed too,
//! so neither a crash mid-write nor a power loss after [`write()`] returns
//! leaves a corrupt or missing checkpoint.
//!
//! [`FastFtConfig::checkpoint_every`]: crate::config::FastFtConfig::checkpoint_every

use crate::agents::{AgentsState, MemoryUnit};
use crate::config::FastFtConfig;
use crate::engine::{StepRecord, Telemetry};
use fastft_nn::NetState;
use fastft_rl::PrioritizedReplay;
use fastft_tabular::persist::{Persist, PersistResult, Reader, Writer};
use fastft_tabular::{Dataset, FastFtError, FastFtResult, TaskType};
use std::io::Write as _;
use std::path::Path;

/// File magic: identifies a FASTFT checkpoint.
pub const MAGIC: [u8; 8] = *b"FFTCKPT1";
/// Current format version. Bumped on any layout change; a reader rejects
/// any other version with a typed error instead of misparsing it.
/// Version 2 dropped the configuration flag that switched off batched
/// scoring and the snapshot's separate prefix-cache counter baseline;
/// version 3 dropped the evaluator's split-method field; version 4 dropped
/// the replay buffer's variant tag (there is one buffer type, and the
/// sampling policy comes from the configuration); version 5 dropped twelve
/// 8-byte configuration fields (the batch size of a deleted training path
/// and eleven settings that became constants) and stores the
/// evaluator's optional metric with the generic `Option` codec; version 6
/// dropped the configuration's prefix-cache capacity (a constant now) and
/// the telemetry's scoring-batch counter and batch-size histogram.
pub const VERSION: u32 = 6;

/// Everything the engine needs to continue a run from an episode boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Fingerprint of the dataset the run was fitted on (shape, task,
    /// column names, value bits) — resume rejects a different dataset.
    pub data_fingerprint: u64,
    /// First episode the resumed run should execute.
    pub next_episode: usize,
    /// Global step counter (novelty-weight decay position).
    pub global_step: usize,
    /// Downstream score of the original feature set.
    pub base_score: f64,
    /// Best downstream-evaluated score so far.
    pub best_score: f64,
    /// Expressions of the best feature set (re-parsed on load).
    pub best_exprs: Vec<String>,
    /// Column values of the best feature set, parallel to `best_exprs`.
    pub best_columns: Vec<Vec<f64>>,
    /// Per-step trace so far.
    pub records: Vec<StepRecord>,
    /// Best-so-far score after each completed episode.
    pub episode_best: Vec<f64>,
    /// Telemetry counters and accumulated wall times at the boundary.
    pub telemetry: Telemetry,
    /// xoshiro256++ state of the run RNG.
    pub rng: [u64; 4],
    /// Cascading-agent weights (framework-matched).
    pub agents: AgentsState,
    /// Performance-predictor weights + optimiser state.
    pub predictor: NetState,
    /// Novelty-estimator weights (the frozen target is rebuilt from the
    /// seed).
    pub novelty: NetState,
    /// The replay buffer (slot order, priorities, write cursor).
    pub replay: PrioritizedReplay<MemoryUnit>,
    /// Novelty-tracker embeddings in observation order.
    pub tracker_history: Vec<Vec<f64>>,
    /// Novelty-tracker canonical keys (sorted for determinism).
    pub tracker_seen: Vec<String>,
    /// Downstream memo cache, least recently used first.
    pub eval_cache: Vec<(String, f64)>,
    /// Downstream-evaluated (sequence, score) training pairs.
    pub eval_history: Vec<(Vec<usize>, f64)>,
    /// Predicted-performance history (α-percentile trigger).
    pub pred_history: Vec<f64>,
    /// Raw-novelty history (β-percentile trigger).
    pub nov_history: Vec<f64>,
    /// Welford count of raw novelty observations.
    pub nov_count: usize,
    /// Welford running mean.
    pub nov_mean: f64,
    /// Welford running sum of squared deviations.
    pub nov_m2: f64,
    /// Quarantined candidate keys, least recently used first.
    pub quarantine: Vec<String>,
}

fastft_tabular::persist_struct! {
    Snapshot {
        data_fingerprint, next_episode, global_step, base_score, best_score, best_exprs,
        best_columns, records, episode_best, telemetry, rng, agents, predictor, novelty, replay,
        tracker_history, tracker_seen, eval_cache, eval_history, pred_history, nov_history,
        nov_count, nov_mean, nov_m2, quarantine,
    }
}

/// FNV-1a fingerprint of a dataset's identity: shape, task, class count,
/// column names and the exact bits of every value and target. The dataset
/// *name* is deliberately excluded so a renamed copy still resumes.
pub fn dataset_fingerprint(data: &Dataset) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(data.n_rows() as u64);
    h.write_u64(data.n_features() as u64);
    h.write_u64(match data.task {
        TaskType::Classification => 0,
        TaskType::Regression => 1,
        TaskType::Detection => 2,
    });
    h.write_u64(data.n_classes as u64);
    for c in &data.features {
        h.write_bytes(c.name.as_bytes());
        for &v in &c.values {
            h.write_u64(v.to_bits());
        }
    }
    for &t in &data.targets {
        h.write_u64(t.to_bits());
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Public file API
// ---------------------------------------------------------------------------

/// Serialise a configuration + snapshot to the versioned binary format.
pub fn encode(cfg: &FastFtConfig, snap: &Snapshot) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&MAGIC);
    w.u32(VERSION);
    cfg.persist(&mut w);
    snap.persist(&mut w);
    w.into_bytes()
}

/// Parse bytes produced by [`encode`], verifying magic and version.
pub fn decode(bytes: &[u8]) -> FastFtResult<(FastFtConfig, Snapshot)> {
    let mut r = Reader::new(bytes);
    let run = |r: &mut Reader| -> PersistResult<(FastFtConfig, Snapshot)> {
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err("not a FASTFT checkpoint (bad magic)".into());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version} (expected {VERSION})"));
        }
        let cfg = FastFtConfig::restore(r)?;
        let snap = Snapshot::restore(r)?;
        if !r.is_exhausted() {
            return Err(format!("{} trailing bytes after snapshot", r.remaining()));
        }
        Ok((cfg, snap))
    };
    run(&mut r).map_err(|e| FastFtError::Parse(format!("checkpoint: {e}")))
}

/// Write a checkpoint atomically and durably: encode, write to a `.tmp`
/// sibling and fsync it, rename it over `path`, then fsync the parent
/// directory so the rename itself survives a power loss. A crash at any
/// point leaves either the previous checkpoint or the new one, whole.
pub fn write(path: &Path, cfg: &FastFtConfig, snap: &Snapshot) -> FastFtResult<()> {
    let bytes = encode(cfg, snap);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let io_tmp = |e: std::io::Error| FastFtError::io(&tmp, &e);
    let mut file = std::fs::File::create(&tmp).map_err(io_tmp)?;
    file.write_all(&bytes).map_err(io_tmp)?;
    file.sync_all().map_err(io_tmp)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| FastFtError::io(path, &e))?;
    sync_parent_dir(path)
}

/// Flush the directory entry of `path` to disk. Directories cannot be
/// opened for syncing on Windows; there the rename is already durable
/// once it returns.
fn sync_parent_dir(path: &Path) -> FastFtResult<()> {
    if cfg!(windows) {
        return Ok(());
    }
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| FastFtError::io(dir, &e))
}

/// Read and parse a checkpoint file.
pub fn read(path: &Path) -> FastFtResult<(FastFtConfig, Snapshot)> {
    let bytes = std::fs::read(path).map_err(|e| FastFtError::io(path, &e))?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::Decision;
    use crate::state::{CLUSTER_REP_DIM, HEAD_DIM, OP_DIM};
    use fastft_nn::EncoderKind;
    use fastft_rl::{QAgentState, QKind};
    use fastft_tabular::metrics::Metric;

    fn sample_net() -> NetState {
        NetState {
            params: vec![vec![0.5, -0.25], vec![1.0]],
            opt_t: 3,
            opt_m: vec![vec![0.1, 0.2], vec![0.3]],
            opt_v: vec![vec![0.01, 0.02], vec![0.03]],
        }
    }

    fn sample_mem() -> MemoryUnit {
        MemoryUnit {
            state: vec![0.0; CLUSTER_REP_DIM],
            next_state: vec![1.0; CLUSTER_REP_DIM],
            reward: 0.25,
            head: Decision { candidates: vec![vec![0.1; HEAD_DIM]], action: 0 },
            op: Decision { candidates: vec![vec![0.2; OP_DIM]; 2], action: 1 },
            tail: None,
            next_head_candidates: vec![],
            seq: vec![1, 2, 3],
            perf: 0.75,
        }
    }

    fn sample_snapshot() -> Snapshot {
        let mut replay = PrioritizedReplay::new(16);
        replay.push(sample_mem(), 0.25);
        Snapshot {
            data_fingerprint: 0xDEAD_BEEF,
            next_episode: 2,
            global_step: 8,
            base_score: 0.6,
            best_score: 0.7,
            best_exprs: vec!["f0".into(), "(f0*f1)".into()],
            best_columns: vec![vec![1.0, 2.0], vec![2.0, 6.0]],
            records: vec![StepRecord {
                episode: 0,
                step: 0,
                reward: 0.1,
                score: 0.65,
                predicted: false,
                novelty: 0.3,
                novelty_distance: 1.0,
                new_combination: true,
                n_features: 3,
                new_exprs: vec!["sq(f0)".into()],
            }],
            episode_best: vec![0.65, 0.7],
            telemetry: Telemetry {
                downstream_evals: 9,
                cache_hits: 2,
                eval_faults: 1,
                quarantined: 1,
                prefix_hits: 4,
                total_secs: 1.25,
                ..Telemetry::default()
            },
            rng: [1, 2, 3, 4],
            agents: AgentsState::Ac {
                head: sample_net(),
                op: sample_net(),
                tail: sample_net(),
                critic: sample_net(),
            },
            predictor: sample_net(),
            novelty: sample_net(),
            replay,
            tracker_history: vec![vec![0.1, 0.2]],
            tracker_seen: vec!["a".into(), "b".into()],
            eval_cache: vec![("k1".into(), 0.6), ("k2".into(), 0.7)],
            eval_history: vec![(vec![1, 2], 0.6)],
            pred_history: vec![0.5, 0.6],
            nov_history: vec![0.2],
            nov_count: 3,
            nov_mean: 0.4,
            nov_m2: 0.02,
            quarantine: vec!["bad-key".into()],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let cfg = FastFtConfig::quick();
        let snap = sample_snapshot();
        let bytes = encode(&cfg, &snap);
        let (cfg2, snap2) = decode(&bytes).unwrap();
        assert_eq!(cfg2.episodes, cfg.episodes);
        assert_eq!(cfg2.seed, cfg.seed);
        assert_eq!(cfg2.evaluator.folds, cfg.evaluator.folds);
        assert_eq!(snap2.data_fingerprint, snap.data_fingerprint);
        assert_eq!(snap2.best_exprs, snap.best_exprs);
        assert_eq!(snap2.best_columns, snap.best_columns);
        assert_eq!(snap2.rng, snap.rng);
        assert_eq!(snap2.agents, snap.agents);
        assert_eq!(snap2.predictor, snap.predictor);
        assert_eq!(snap2.replay, snap.replay);
        assert_eq!(snap2.eval_cache, snap.eval_cache);
        assert_eq!(snap2.quarantine, snap.quarantine);
        assert_eq!(snap2.telemetry.downstream_evals, 9);
        assert_eq!(snap2.telemetry.eval_faults, 1);
        assert_eq!(snap2.telemetry.prefix_hits, 4);
        assert_eq!(snap2.nov_m2.to_bits(), snap.nov_m2.to_bits());
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let cfg = FastFtConfig::quick();
        let snap = sample_snapshot();
        let mut bytes = encode(&cfg, &snap);
        assert!(matches!(decode(b"not a checkpoint"), Err(FastFtError::Parse(_))));
        bytes[8] = 99; // clobber the version field
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn decode_rejects_version_1_files() {
        for old in [1u32, 2, 3, 4] {
            let mut bytes = encode(&FastFtConfig::quick(), &sample_snapshot());
            bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&old.to_le_bytes());
            match decode(&bytes) {
                Err(FastFtError::Parse(msg)) => {
                    assert!(
                        msg.contains(&format!("unsupported checkpoint version {old}")),
                        "{msg}"
                    );
                }
                other => panic!("expected a parse error for version {old}, got {other:?}"),
            }
        }
    }

    #[test]
    fn decode_rejects_truncation_anywhere() {
        let bytes = encode(&FastFtConfig::quick(), &sample_snapshot());
        // Every strict prefix must fail cleanly with a parse error, never
        // panic.
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..cut]), Err(FastFtError::Parse(_))),
                "prefix of {cut} bytes did not fail to parse"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode(&long).is_err());
    }

    #[test]
    fn fingerprint_tracks_content_not_name() {
        use fastft_tabular::dataset::Column;
        let d1 = Dataset::new(
            "a",
            vec![Column::new("x", vec![1.0, 2.0])],
            vec![0.0, 1.0],
            TaskType::Classification,
            2,
        )
        .unwrap();
        let mut renamed = d1.clone();
        renamed.name = "b".into();
        assert_eq!(dataset_fingerprint(&d1), dataset_fingerprint(&renamed));
        let mut changed = d1.clone();
        changed.features[0].values[1] = 2.0000001;
        assert_ne!(dataset_fingerprint(&d1), dataset_fingerprint(&changed));
        let mut recol = d1.clone();
        recol.features[0].name = "y".into();
        assert_ne!(dataset_fingerprint(&d1), dataset_fingerprint(&recol));
    }

    #[test]
    fn q_and_uniform_variants_round_trip() {
        let mut cfg = FastFtConfig::quick();
        cfg.rl = crate::agents::RlKind::Q(QKind::DuelingDoubleDqn);
        cfg.prioritized_replay = false;
        cfg.encoder = EncoderKind::Transformer { heads: 2, blocks: 1 };
        cfg.evaluator.metric = Some(Metric::Auc);
        cfg.checkpoint_path = Some("x.ckpt".into());
        let mut snap = sample_snapshot();
        snap.agents = AgentsState::Q {
            head: QAgentState { online: sample_net(), target: vec![vec![1.0]], updates: 5 },
            op: QAgentState::default(),
            tail: QAgentState::default(),
            eps_step: 17,
        };
        snap.replay = PrioritizedReplay::new(8);
        let (cfg2, snap2) = decode(&encode(&cfg, &snap)).unwrap();
        assert_eq!(cfg2.rl, cfg.rl);
        assert_eq!(cfg2.encoder, cfg.encoder);
        assert_eq!(cfg2.evaluator.metric, Some(Metric::Auc));
        assert_eq!(cfg2.checkpoint_path.as_deref(), Some(std::path::Path::new("x.ckpt")));
        assert_eq!(snap2.agents, snap.agents);
        assert_eq!(snap2.replay, snap.replay);
    }

    /// Encode the sample snapshot with its one-item replay section
    /// rewritten field by field (capacity, write cursor, items,
    /// priorities), so a test can lay out a buffer `push` never produces.
    fn encode_with_replay(capacity: usize, write: usize, priority: f64) -> Vec<u8> {
        let snap = sample_snapshot();
        let bytes = encode(&FastFtConfig::quick(), &snap);
        let mut w = Writer::new();
        snap.replay.persist(&mut w);
        let section = w.into_bytes();
        let at = bytes.windows(section.len()).position(|s| s == section).expect("replay section");
        let mut w = Writer::new();
        capacity.persist(&mut w);
        write.persist(&mut w);
        vec![sample_mem()].persist(&mut w);
        vec![priority].persist(&mut w);
        [&bytes[..at], &w.into_bytes(), &bytes[at + section.len()..]].concat()
    }

    fn assert_replay_rejected(bytes: &[u8], expected: &str) {
        match decode(bytes) {
            Err(FastFtError::Parse(msg)) => assert!(msg.contains(expected), "{msg}"),
            other => panic!("expected a parse error ({expected}), got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_inconsistent_replay_buffer() {
        // The rewrite itself is faithful: the live layout decodes.
        assert!(decode(&encode_with_replay(16, 1, 0.5)).is_ok());
        // Write cursor beyond capacity is impossible in a live buffer.
        assert_replay_rejected(&encode_with_replay(4, 9, 0.5), "inconsistent replay buffer");
        // So is a buffer holding more items than its capacity.
        assert_replay_rejected(&encode_with_replay(0, 0, 0.5), "inconsistent replay buffer");
    }

    #[test]
    fn decode_rejects_replay_cursor_off_a_partial_buffer() {
        // One item in 16 slots: `push` always leaves the cursor at 1.
        for write in [0, 2, 15] {
            assert_replay_rejected(
                &encode_with_replay(16, write, 0.5),
                "inconsistent replay buffer",
            );
        }
    }

    #[test]
    fn decode_rejects_replay_priority_below_floor() {
        // `push` stores `|δ| + ε`, so no priority is below ε = 1e-3.
        for priority in [-0.5, 0.0, 1e-4] {
            assert_replay_rejected(&encode_with_replay(16, 1, priority), "below the floor");
        }
    }

    #[test]
    fn write_read_round_trips_on_disk() {
        let path =
            std::env::temp_dir().join(format!("fastft-ckpt-test-{}.bin", std::process::id()));
        let cfg = FastFtConfig::quick();
        let snap = sample_snapshot();
        write(&path, &cfg, &snap).unwrap();
        let (_, snap2) = read(&path).unwrap();
        assert_eq!(snap2.best_exprs, snap.best_exprs);
        // The temporary sibling is gone after the rename.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
