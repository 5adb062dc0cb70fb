//! The one place a run starts. [`Session`] owns a validated
//! [`FastFtConfig`] (its `new` is the only caller of
//! [`FastFtConfig::validate`]) and one [`Runtime`] that every run launched
//! through it shares. [`Session::run`] starts a fresh run and
//! [`Session::resume`] continues a checkpointed one, both with an observer
//! and through the same [`Driver`] loop. Each run gets a fresh
//! [`SearchState`](crate::pipeline::SearchState), so results are identical
//! to running each dataset alone.

use crate::checkpoint;
use crate::config::{FastFtConfig, MAX_THREADS};
use crate::pipeline::driver::Driver;
use crate::pipeline::event::RunObserver;
use crate::pipeline::RunResult;
use fastft_runtime::{Runtime, THREADS_ENV};
use fastft_tabular::{Dataset, FastFtError, FastFtResult};
use std::path::Path;

/// A validated configuration bound to one shared worker pool.
pub struct Session {
    cfg: FastFtConfig,
    runtime: Runtime,
}

impl Session {
    /// Validate `cfg` and build its worker pool (`cfg.threads`, or the
    /// environment default when 0).
    ///
    /// # Errors
    ///
    /// [`fastft_tabular::FastFtError::InvalidConfig`] if the configuration
    /// fails [`FastFtConfig::validate`], or if `cfg.threads` is 0 and the
    /// environment resolves to more than [`MAX_THREADS`] lanes (checked
    /// before any thread is spawned).
    pub fn new(cfg: FastFtConfig) -> FastFtResult<Self> {
        cfg.validate()?;
        let threads = session_threads(cfg.threads, std::env::var(THREADS_ENV).ok().as_deref())?;
        Ok(Session { cfg, runtime: Runtime::new(threads) })
    }

    /// The session's configuration.
    pub fn cfg(&self) -> &FastFtConfig {
        &self.cfg
    }

    /// The shared worker pool.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Run the staged pipeline on one dataset, narrating it to `observer`.
    /// Observers are passive, so the result is identical with any observer.
    ///
    /// # Errors
    ///
    /// [`fastft_tabular::FastFtError::InvalidData`] if `data` is
    /// degenerate, [`fastft_tabular::FastFtError::Evaluation`] if the
    /// *original* feature set cannot be scored (mid-run candidate faults
    /// are quarantined instead), [`fastft_tabular::FastFtError::Io`] if a
    /// configured checkpoint cannot be written.
    pub fn run(&self, data: &Dataset, observer: &mut dyn RunObserver) -> FastFtResult<RunResult> {
        Driver::new(&self.cfg, data, &self.runtime).execute(observer)
    }

    /// Continue the run checkpointed at `path` (see
    /// [`FastFtConfig::checkpoint_every`]) on `data`, the dataset it was
    /// fitted on, narrating the resumed leg to `observer`: each observed
    /// counter is the resumed run's minus the checkpoint's.
    ///
    /// `override_cfg` may adjust the checkpoint's configuration before it
    /// is validated: run budgets, checkpointing, thread count (e.g. lifting
    /// `max_downstream_evals` to let a budget-stopped run finish). The
    /// result is then **bitwise identical** to the uninterrupted run —
    /// decisions, scores, records and deterministic counters — because the
    /// checkpoint captures the RNG stream, all weights with optimiser
    /// state, the replay buffer and the memo cache. Only wall times and the
    /// prefix-cache hit/miss split differ (those caches restart cold).
    /// Changing learning hyperparameters mid-run voids the guarantee.
    ///
    /// # Errors
    ///
    /// [`fastft_tabular::FastFtError::Io`] if the file cannot be read,
    /// [`fastft_tabular::FastFtError::Parse`] if it is not a valid
    /// checkpoint of this format version, `InvalidConfig` as
    /// [`Session::new`], and [`fastft_tabular::FastFtError::InvalidData`] if
    /// `data` is degenerate or not the checkpoint's dataset.
    pub fn resume(
        path: impl AsRef<Path>,
        data: &Dataset,
        override_cfg: impl FnOnce(&mut FastFtConfig),
        observer: &mut dyn RunObserver,
    ) -> FastFtResult<RunResult> {
        let (mut cfg, snap) = checkpoint::read(path.as_ref())?;
        override_cfg(&mut cfg);
        let session = Session::new(cfg)?;
        Driver::new(&session.cfg, data, &session.runtime).resume(snap, observer)
    }
}

/// The lane count of a session with `threads` configured, given the
/// environment's [`THREADS_ENV`] value `env`: `threads`, or when 0 what
/// [`Runtime::env_threads`] resolves `env` to, which may not exceed
/// [`MAX_THREADS`] (the cap [`FastFtConfig::validate`] puts on `threads`).
fn session_threads(threads: usize, env: Option<&str>) -> FastFtResult<usize> {
    if threads > 0 {
        return Ok(threads);
    }
    match Runtime::env_threads(env) {
        n if n > MAX_THREADS => Err(FastFtError::InvalidConfig(format!(
            "threads = 0 resolves to {n} ({THREADS_ENV} or the CPU count), more than {MAX_THREADS}"
        ))),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_threads_caps_the_environment_count() {
        let too_many = (MAX_THREADS + 1).to_string();
        assert!(matches!(
            session_threads(0, Some(&too_many)),
            Err(FastFtError::InvalidConfig(m)) if m.contains(&too_many)
        ));
        assert_eq!(session_threads(0, Some(&MAX_THREADS.to_string())).ok(), Some(MAX_THREADS));
        assert_eq!(session_threads(0, Some(" 4 ")).ok(), Some(4));
        // A configured count wins over the environment.
        assert_eq!(session_threads(3, Some(&too_many)).ok(), Some(3));
        // Unset or invalid falls back to the hardware count, capped alike.
        let hardware = Some(Runtime::env_threads(None)).filter(|&n| n <= MAX_THREADS);
        for env in [None, Some("0"), Some("many")] {
            assert_eq!(session_threads(0, env).ok(), hardware);
        }
    }
}
