//! Implementation of the `fastft` command-line tool.
//!
//! Subcommands:
//!
//! - `run`      — search for a feature set on a CSV dataset, print a report
//!   and save the traceable expressions.
//! - `apply`    — apply a saved feature set to a CSV, writing the
//!   transformed CSV.
//! - `generate` — emit a synthetic benchmark analog as CSV.
//! - `datasets` — list the built-in benchmark analogs.
//!
//! All argument parsing is dependency-free (`--flag value` pairs only).

use fastft_core::pipeline::NullObserver;
use fastft_core::report::{apply_feature_set, load_feature_set, save_feature_set, summary};
use fastft_core::{FastFt, FastFtConfig, FastFtError, FastFtResult, Session};
use fastft_ml::Evaluator;
use fastft_tabular::{csvio, datagen, impute, TaskType};
use std::path::{Path, PathBuf};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `fastft run --data x.csv --task classification [--classes N]
    /// [--episodes N] [--steps N] [--seed N] [--out features.txt]
    /// [--max-seconds S] [--max-evals N] [--checkpoint ckpt.bin]
    /// [--checkpoint-every N] [--resume ckpt.bin] [--threads N]`
    Run {
        /// Input CSV (last column = target).
        data: PathBuf,
        /// Task type.
        task: TaskType,
        /// Class count for discrete tasks.
        classes: usize,
        /// Episode budget.
        episodes: usize,
        /// Steps per episode.
        steps: usize,
        /// Seed.
        seed: u64,
        /// Where to save the feature set (optional).
        out: Option<PathBuf>,
        /// Wall-clock budget in seconds (0 = unlimited).
        max_seconds: f64,
        /// Downstream-evaluation budget (0 = unlimited).
        max_evals: usize,
        /// Checkpoint file, written every `checkpoint_every` episodes.
        checkpoint: Option<PathBuf>,
        /// Episode cadence for checkpoint writes.
        checkpoint_every: usize,
        /// Resume from this checkpoint instead of starting fresh
        /// (`--episodes`/`--steps`/`--seed` come from the checkpoint).
        resume: Option<PathBuf>,
        /// Worker threads for the runtime pool (0 = auto-detect).
        threads: usize,
    },
    /// `fastft apply --data x.csv --features features.txt --task t
    /// [--classes N] --out transformed.csv`
    Apply {
        /// Input CSV.
        data: PathBuf,
        /// Saved feature-set file.
        features: PathBuf,
        /// Task type.
        task: TaskType,
        /// Class count for discrete tasks.
        classes: usize,
        /// Output CSV path.
        out: PathBuf,
    },
    /// `fastft generate --name pima_indian [--rows N] [--seed N] --out x.csv`
    Generate {
        /// Catalog dataset name.
        name: String,
        /// Row cap.
        rows: usize,
        /// Seed.
        seed: u64,
        /// Output CSV path.
        out: PathBuf,
    },
    /// `fastft datasets`
    Datasets,
    /// `fastft help`
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
fastft — reinforced feature transformation (FASTFT, ICDE 2025)

USAGE:
  fastft run      --data <csv> --task <classification|regression|detection>
                  [--classes N] [--episodes N] [--steps N] [--seed N]
                  [--out features.txt]
                  [--max-seconds S] [--max-evals N]        run budgets (0 = off)
                  [--checkpoint <file>] [--checkpoint-every N]
                  [--resume <file>]     continue a checkpointed run (episode/
                                        step/seed settings come from the file)
                  [--threads N]         worker threads (0 = auto-detect)
  fastft apply    --data <csv> --features <file> --task <t> [--classes N]
                  --out <csv>
  fastft generate --name <dataset> [--rows N] [--seed N] --out <csv>
  fastft datasets
  fastft help

CSV format: numeric columns with a header row; the last column is the target.
";

fn parse_task(s: &str) -> Result<TaskType, String> {
    match s {
        "classification" | "c" | "C" => Ok(TaskType::Classification),
        "regression" | "r" | "R" => Ok(TaskType::Regression),
        "detection" | "d" | "D" => Ok(TaskType::Detection),
        other => Err(format!("unknown task `{other}` (classification|regression|detection)")),
    }
}

/// Parse `argv[1..]` into a [`Command`].
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let mut flags = std::collections::HashMap::new();
    let mut i = 1;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{}`", args[i]))?;
        let value = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    let get = |k: &str| -> Result<String, String> {
        flags.get(k).cloned().ok_or_else(|| format!("missing required --{k}"))
    };
    let get_or = |k: &str, default: &str| flags.get(k).cloned().unwrap_or_else(|| default.into());
    let parse_usize = |k: &str, default: usize| -> Result<usize, String> {
        match flags.get(k) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{k}: {e}")),
        }
    };
    let parse_f64 = |k: &str, default: f64| -> Result<f64, String> {
        match flags.get(k) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{k}: {e}")),
        }
    };
    match cmd.as_str() {
        "run" => Ok(Command::Run {
            data: PathBuf::from(get("data")?),
            task: parse_task(&get("task")?)?,
            classes: parse_usize("classes", 2)?,
            episodes: parse_usize("episodes", 12)?,
            steps: parse_usize("steps", 8)?,
            seed: parse_usize("seed", 0)? as u64,
            out: flags.get("out").map(PathBuf::from),
            max_seconds: parse_f64("max-seconds", 0.0)?,
            max_evals: parse_usize("max-evals", 0)?,
            checkpoint: flags.get("checkpoint").map(PathBuf::from),
            checkpoint_every: parse_usize("checkpoint-every", 1)?,
            resume: flags.get("resume").map(PathBuf::from),
            threads: parse_usize("threads", 0)?,
        }),
        "apply" => Ok(Command::Apply {
            data: PathBuf::from(get("data")?),
            features: PathBuf::from(get("features")?),
            task: parse_task(&get("task")?)?,
            classes: parse_usize("classes", 2)?,
            out: PathBuf::from(get("out")?),
        }),
        "generate" => Ok(Command::Generate {
            name: get("name")?,
            rows: parse_usize("rows", usize::MAX)?,
            seed: parse_usize("seed", 0)? as u64,
            out: PathBuf::from(get_or("out", "dataset.csv")),
        }),
        "datasets" => Ok(Command::Datasets),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command `{other}`; see `fastft help`")),
    }
}

/// Execute a command, writing human output to stdout. Returns a typed
/// [`FastFtError`] on failure (the binary prints it and exits with code 1).
pub fn execute(cmd: Command) -> FastFtResult<()> {
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Datasets => {
            for s in &datagen::PAPER_CATALOG {
                println!(
                    "{:<20} {:<9} {:>7} rows x {:>3} cols  ({})",
                    s.name,
                    s.task.to_string(),
                    s.rows,
                    s.cols,
                    s.source
                );
            }
            Ok(())
        }
        Command::Generate { name, rows, seed, out } => {
            let spec = datagen::by_name(&name)
                .ok_or_else(|| FastFtError::InvalidConfig(format!("unknown dataset `{name}`")))?;
            let data = datagen::generate_capped(spec, rows, seed);
            csvio::write_csv(&data, &out)?;
            println!(
                "wrote {} rows x {} cols to {}",
                data.n_rows(),
                data.n_features(),
                out.display()
            );
            Ok(())
        }
        Command::Run {
            data,
            task,
            classes,
            episodes,
            steps,
            seed,
            out,
            max_seconds,
            max_evals,
            checkpoint,
            checkpoint_every,
            resume,
            threads,
        } => {
            let mut d = load_csv(&data, task, classes)?;
            impute::impute(&mut d, impute::ImputeStrategy::Median);
            d.sanitize();
            println!(
                "loaded {}: {} rows x {} cols ({task})",
                data.display(),
                d.n_rows(),
                d.n_features()
            );
            // Budgets, checkpointing and the thread count apply the same
            // way to a fresh run and a resumed one. On resume they are the
            // only overrides of the checkpoint's configuration, and all are
            // safe to change without breaking resume parity (results are
            // thread-count invariant).
            let run_flags = |cfg: &mut FastFtConfig| {
                cfg.max_wall_secs = max_seconds;
                cfg.max_downstream_evals = max_evals;
                cfg.threads = threads;
                if let Some(path) = checkpoint {
                    cfg.checkpoint_path = Some(path);
                    cfg.checkpoint_every = checkpoint_every.max(1);
                }
            };
            let result = if let Some(ckpt) = resume {
                println!("resuming from {}", ckpt.display());
                Session::resume(&ckpt, &d, run_flags, &mut NullObserver)?
            } else {
                let mut cfg = FastFtConfig {
                    episodes,
                    steps_per_episode: steps,
                    cold_start_episodes: (episodes / 4).max(1),
                    seed,
                    evaluator: Evaluator::default(),
                    ..FastFtConfig::quick()
                };
                run_flags(&mut cfg);
                FastFt::new(cfg).fit(&d)?
            };
            print!("{}", summary(&result));
            if let Some(out) = out {
                std::fs::write(&out, save_feature_set(&result.best_exprs))
                    .map_err(|e| FastFtError::io(&out, &e))?;
                println!("feature set saved to {}", out.display());
            }
            Ok(())
        }
        Command::Apply { data, features, task, classes, out } => {
            let mut d = load_csv(&data, task, classes)?;
            impute::impute(&mut d, impute::ImputeStrategy::Median);
            d.sanitize();
            let text =
                std::fs::read_to_string(&features).map_err(|e| FastFtError::io(&features, &e))?;
            let exprs = load_feature_set(&text)?;
            let transformed = apply_feature_set(&d, &exprs)?;
            csvio::write_csv(&transformed, &out)?;
            println!(
                "applied {} features to {} rows; wrote {}",
                exprs.len(),
                transformed.n_rows(),
                out.display()
            );
            Ok(())
        }
    }
}

fn load_csv(path: &Path, task: TaskType, classes: usize) -> FastFtResult<fastft_tabular::Dataset> {
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "dataset".into());
    let classes = if task == TaskType::Regression { 0 } else { classes.max(2) };
    csvio::read_csv(path, &name, task, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_run_command() {
        let cmd = parse_args(&argv(
            "run --data x.csv --task classification --episodes 5 --seed 3 --out f.txt \
             --threads 4",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                data: PathBuf::from("x.csv"),
                task: TaskType::Classification,
                classes: 2,
                episodes: 5,
                steps: 8,
                seed: 3,
                out: Some(PathBuf::from("f.txt")),
                max_seconds: 0.0,
                max_evals: 0,
                checkpoint: None,
                checkpoint_every: 1,
                resume: None,
                threads: 4,
            }
        );
    }

    #[test]
    fn parses_budget_and_checkpoint_flags() {
        let cmd = parse_args(&argv(
            "run --data x.csv --task c --max-seconds 1.5 --max-evals 40 \
             --checkpoint c.bin --checkpoint-every 2 --resume old.bin",
        ))
        .unwrap();
        let Command::Run { max_seconds, max_evals, checkpoint, checkpoint_every, resume, .. } = cmd
        else {
            panic!("expected run command");
        };
        assert_eq!(max_seconds, 1.5);
        assert_eq!(max_evals, 40);
        assert_eq!(checkpoint, Some(PathBuf::from("c.bin")));
        assert_eq!(checkpoint_every, 2);
        assert_eq!(resume, Some(PathBuf::from("old.bin")));
        let err = parse_args(&argv("run --data x.csv --task c --max-seconds lots")).unwrap_err();
        assert!(err.contains("--max-seconds"), "{err}");
    }

    #[test]
    fn parses_task_aliases() {
        assert_eq!(parse_task("r").unwrap(), TaskType::Regression);
        assert_eq!(parse_task("D").unwrap(), TaskType::Detection);
        assert!(parse_task("x").is_err());
    }

    #[test]
    fn missing_required_flag_is_error() {
        let err = parse_args(&argv("run --task classification")).unwrap_err();
        assert!(err.contains("--data"), "{err}");
    }

    #[test]
    fn unknown_command_is_error() {
        assert!(parse_args(&argv("frobnicate")).is_err());
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn generate_then_run_then_apply_end_to_end() {
        let dir = std::env::temp_dir().join("fastft_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pima.csv");
        let feats = dir.join("features.txt");
        let out = dir.join("transformed.csv");

        execute(Command::Generate {
            name: "pima_indian".into(),
            rows: 120,
            seed: 0,
            out: csv.clone(),
        })
        .unwrap();
        assert!(csv.exists());

        execute(Command::Run {
            data: csv.clone(),
            task: TaskType::Classification,
            classes: 2,
            episodes: 2,
            steps: 2,
            seed: 0,
            out: Some(feats.clone()),
            max_seconds: 0.0,
            max_evals: 0,
            checkpoint: None,
            checkpoint_every: 1,
            resume: None,
            threads: 0,
        })
        .unwrap();
        let text = std::fs::read_to_string(&feats).unwrap();
        assert!(!text.trim().is_empty());

        execute(Command::Apply {
            data: csv.clone(),
            features: feats.clone(),
            task: TaskType::Classification,
            classes: 2,
            out: out.clone(),
        })
        .unwrap();
        let transformed = csvio::read_csv(&out, "t", TaskType::Classification, 2).unwrap();
        assert_eq!(transformed.n_rows(), 120);
        for p in [csv, feats, out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn datasets_and_help_execute() {
        execute(Command::Datasets).unwrap();
        execute(Command::Help).unwrap();
    }

    #[test]
    fn threads_flag_runs_end_to_end_and_is_result_invariant() {
        let dir = std::env::temp_dir().join("fastft_cli_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pima.csv");
        execute(Command::Generate {
            name: "pima_indian".into(),
            rows: 100,
            seed: 0,
            out: csv.clone(),
        })
        .unwrap();

        // Same run twice, differing only in --threads: the pool size must
        // change how work is scheduled, never what features come out.
        let mut outs = Vec::new();
        for threads in [1usize, 2] {
            let feats = dir.join(format!("features_{threads}.txt"));
            let cmd = parse_args(&argv(&format!(
                "run --data {} --task c --episodes 2 --steps 2 --seed 7 --out {} --threads {threads}",
                csv.display(),
                feats.display(),
            )))
            .unwrap();
            let Command::Run { threads: parsed, .. } = &cmd else { panic!("expected run") };
            assert_eq!(*parsed, threads);
            execute(cmd).unwrap();
            outs.push(std::fs::read_to_string(&feats).unwrap());
            std::fs::remove_file(&feats).ok();
        }
        assert!(!outs[0].trim().is_empty());
        assert_eq!(outs[0], outs[1], "feature set must not depend on thread count");
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn run_checkpoints_and_resumes_via_cli() {
        let dir = std::env::temp_dir().join("fastft_cli_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pima.csv");
        let ckpt = dir.join("run.ckpt");
        let feats = dir.join("features.txt");
        execute(Command::Generate {
            name: "pima_indian".into(),
            rows: 100,
            seed: 0,
            out: csv.clone(),
        })
        .unwrap();

        // First run: eval budget stops it early, leaving a checkpoint.
        let budgeted = Command::Run {
            data: csv.clone(),
            task: TaskType::Classification,
            classes: 2,
            episodes: 3,
            steps: 2,
            seed: 0,
            out: None,
            max_seconds: 0.0,
            max_evals: 4,
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: 1,
            resume: None,
            threads: 0,
        };
        execute(budgeted).unwrap();
        assert!(ckpt.exists(), "budget-stopped run should leave a checkpoint");

        // Second run: resume with the budget lifted and finish.
        execute(Command::Run {
            data: csv.clone(),
            task: TaskType::Classification,
            classes: 2,
            episodes: 0, // ignored on resume; the checkpoint's config wins
            steps: 0,
            seed: 99,
            out: Some(feats.clone()),
            max_seconds: 0.0,
            max_evals: 0,
            checkpoint: None,
            checkpoint_every: 1,
            resume: Some(ckpt.clone()),
            threads: 0,
        })
        .unwrap();
        assert!(!std::fs::read_to_string(&feats).unwrap().trim().is_empty());
        for p in [csv, ckpt, feats] {
            std::fs::remove_file(p).ok();
        }
    }
}
