//! The benchmark's workloads: which dataset analog, at what size, under
//! which search shape. Each one loads a different layer of the engine.

use fastft_core::FastFtConfig;
use fastft_ml::Evaluator;
use fastft_tabular::datagen::{self, GenConfig};
use fastft_tabular::{csvio, rngx, Dataset, FastFtResult, Metric};
use std::path::{Path, PathBuf};

/// One fixed-shape FASTFT search setting.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// `datagen` catalog entry whose analog is searched.
    pub dataset: &'static str,
    /// Rows of one input, drawn from a fixed population of
    /// [`POPULATION_FACTOR`] times as many.
    pub rows: usize,
    /// Episodes of one search.
    pub episodes: usize,
    /// Steps per episode.
    pub steps: usize,
    /// Cold-start episodes (real evaluation only).
    pub cold_start: usize,
    /// Fine-tune the predictor and novelty estimator every this many
    /// episodes after cold start.
    pub retrain_every: usize,
    /// Samples per component fine-tuning round, and passes over the
    /// cold-start evaluations.
    pub retrain_epochs: usize,
    /// Downstream metric; `None` keeps the paper's default for the task.
    pub metric: Option<Metric>,
    /// Cross-validation folds of the downstream evaluator.
    pub folds: usize,
    /// Checkpoint after every episode; otherwise only after the last one,
    /// so that resume is measured on every workload.
    pub checkpoint_each_episode: bool,
    /// Generated input datasets per run. One search's time depends on its
    /// data; averaging over several inputs keeps a run's figure steady
    /// from seed to seed.
    pub inputs: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // Downstream cross-validation is about three quarters of wall time and
    // predictor training barely matters: tree and evaluator changes show
    // here.
    Workload {
        name: "eval_bound",
        dataset: "amazon_employee",
        rows: 1000,
        episodes: 5,
        steps: 8,
        cold_start: 2,
        retrain_every: 3,
        retrain_epochs: 8,
        metric: None,
        folds: 5,
        checkpoint_each_episode: false,
        inputs: 5,
    },
    // A long warm phase that fine-tunes after every episode: component
    // training is the largest layer, so `nn` and minibatch changes show
    // here and tree changes should move little.
    Workload {
        name: "train_bound",
        dataset: "pima_indian",
        rows: 768,
        episodes: 8,
        steps: 6,
        cold_start: 1,
        retrain_every: 1,
        retrain_epochs: 32,
        metric: None,
        folds: 5,
        checkpoint_each_episode: false,
        inputs: 4,
    },
    // Wide regression data with a checkpoint per episode: the only
    // workload heavy in MI clustering, crossing, the regression tree path
    // and checkpoint writes beside reads.
    Workload {
        name: "wide_ckpt",
        dataset: "openml_616",
        rows: 500,
        episodes: 6,
        steps: 8,
        cold_start: 1,
        retrain_every: 2,
        retrain_epochs: 16,
        // On this analog 1 - RAE sits near 0.15 and varies between inputs
        // 3.5 times as much, relative to its value, as 1 - MAE does.
        metric: Some(Metric::OneMinusMae),
        // Three folds leave time for five inputs per run; this workload
        // exists for the layers around the evaluator.
        folds: 3,
        checkpoint_each_episode: true,
        inputs: 5,
    },
];

/// Each workload's analog is generated once, from a fixed seed, at this
/// many times the input size; a run's seed draws the input rows from it.
/// Analogs generated from different seeds differ in their planted
/// interactions, and with them in how hard they are: the regression
/// analog's base score ranges from about 0 to 0.3 over seeds. Keeping the
/// structure fixed keeps `best_score` and the work of a search comparable
/// from seed to seed.
pub const POPULATION_FACTOR: usize = 4;

/// Seed of every workload's population.
const POPULATION_SEED: u64 = 0;

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64 finaliser: spreads a run seed and an input index into
/// unrelated 64-bit seeds.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated input of a run, written to CSV.
#[derive(Debug, Clone)]
pub struct Input {
    /// Seed of the data and of the search.
    pub seed: u64,
    /// Where the data was written.
    pub csv: PathBuf,
    /// Where this input's search checkpoints.
    pub checkpoint: PathBuf,
}

impl Workload {
    /// Generate this workload's inputs for the run seeded `seed` into
    /// `dir`: the rows of each are drawn from the fixed population.
    pub fn write_inputs(&self, dir: &Path, seed: u64) -> FastFtResult<Vec<Input>> {
        let spec = datagen::by_name(self.dataset).expect("workload names a catalog dataset");
        let population_rows = self.rows * POPULATION_FACTOR;
        let population = datagen::generate_custom(
            spec.name,
            spec.task,
            population_rows,
            spec.cols,
            spec.n_classes,
            GenConfig::default(),
            &mut rngx::rng(POPULATION_SEED),
        );
        (0..self.inputs)
            .map(|index| {
                let seed = derive_seed(seed, index as u64);
                let mut rng = rngx::rng(seed);
                let rows = rngx::sample_without_replacement(&mut rng, population_rows, self.rows);
                let mut data = population.select_rows(&rows);
                data.sanitize();
                let csv = dir.join(format!("input{index}.csv"));
                csvio::write_csv(&data, &csv)?;
                Ok(Input { seed, csv, checkpoint: dir.join(format!("input{index}.ckpt")) })
            })
            .collect()
    }

    /// Load an input back through the program's CSV reader.
    pub fn load(&self, input: &Input) -> FastFtResult<Dataset> {
        let spec = datagen::by_name(self.dataset).expect("workload names a catalog dataset");
        csvio::read_csv(&input.csv, spec.name, spec.task, spec.n_classes)
    }

    /// The search configuration for `input`: the quick-config shape with
    /// this workload's episodes, one worker thread, and checkpoints.
    pub fn config(&self, input: &Input) -> FastFtConfig {
        FastFtConfig {
            episodes: self.episodes,
            steps_per_episode: self.steps,
            cold_start_episodes: self.cold_start,
            retrain_every: self.retrain_every,
            retrain_epochs: self.retrain_epochs,
            evaluator: Evaluator { metric: self.metric, folds: self.folds, ..Evaluator::default() },
            seed: input.seed,
            threads: 1,
            checkpoint_every: if self.checkpoint_each_episode { 1 } else { self.episodes },
            checkpoint_path: Some(input.checkpoint.clone()),
            ..FastFtConfig::quick()
        }
    }

    /// Checkpoints one search writes.
    pub fn checkpoints(&self) -> usize {
        if self.checkpoint_each_episode {
            self.episodes
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(by_name(w.name).unwrap().name, w.name);
            assert!(datagen::by_name(w.dataset).is_some());
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn derived_seeds_differ_by_input_and_repeat_by_seed() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }
}
