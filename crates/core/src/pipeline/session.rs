//! The one place a run starts. [`Session`] owns a validated
//! [`FastFtConfig`] (its `new` is the only caller of
//! [`FastFtConfig::validate`]) and one [`Runtime`] that every run launched
//! through it shares. [`Session::run`] starts a fresh run and
//! [`Session::resume`] continues a checkpointed one, both with an observer
//! and through the same [`Driver`] loop. Each run gets a fresh
//! [`SearchState`](crate::pipeline::SearchState), so results are identical
//! to running each dataset alone.

use crate::checkpoint;
use crate::config::FastFtConfig;
use crate::pipeline::driver::Driver;
use crate::pipeline::event::RunObserver;
use crate::pipeline::RunResult;
use fastft_runtime::Runtime;
use fastft_tabular::{Dataset, FastFtResult};
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
    /// fails [`FastFtConfig::validate`].
    pub fn new(cfg: FastFtConfig) -> FastFtResult<Self> {
        cfg.validate()?;
        let runtime =
            if cfg.threads == 0 { Runtime::from_env() } else { Runtime::new(cfg.threads) };
        Ok(Session { cfg, runtime })
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
