//! Crash-safe runs: stop a search on a budget, then resume it from its
//! checkpoint and finish with a bitwise-identical result.
//!
//! ```text
//! cargo run --release -p fastft-examples --bin checkpoint_resume
//! ```
//!
//! The first run writes a checkpoint at every episode boundary and stops
//! when its downstream-evaluation budget runs out (as a crash would, only
//! politely). The second run resumes from the file with the budget lifted
//! and completes. A third, uninterrupted run confirms the resumed result
//! matches exactly.

use fastft_core::pipeline::NullObserver;
use fastft_core::{FastFt, FastFtConfig, Session, StopReason};
use fastft_tabular::{datagen, FastFtResult};

fn main() -> FastFtResult<()> {
    let spec = datagen::by_name("pima_indian").expect("catalog dataset");
    let mut data = datagen::generate_capped(spec, 150, 0);
    data.sanitize();

    let ckpt = std::env::temp_dir().join(format!("fastft-example-{}.ckpt", std::process::id()));
    let cfg = FastFtConfig {
        episodes: 6,
        steps_per_episode: 4,
        cold_start_episodes: 2,
        checkpoint_every: 1,
        checkpoint_path: Some(ckpt.clone()),
        max_downstream_evals: 10,
        ..FastFtConfig::quick()
    };

    println!("run 1: budget of 10 downstream evaluations, checkpoint per episode");
    let stopped = FastFt::new(cfg.clone()).fit(&data)?;
    println!(
        "  stopped by {:?} after {} records, best {:.4}",
        stopped.stop_reason,
        stopped.records.len(),
        stopped.best_score
    );
    assert_eq!(stopped.stop_reason, StopReason::EvalBudget);

    println!("run 2: resume from {} with the budget lifted", ckpt.display());
    let lift_budget = |c: &mut FastFtConfig| c.max_downstream_evals = 0;
    let resumed = Session::resume(&ckpt, &data, lift_budget, &mut NullObserver)?;
    println!(
        "  completed: {} records, best {:.4} ({:?})",
        resumed.records.len(),
        resumed.best_score,
        resumed.stop_reason
    );

    println!("run 3: the same search uninterrupted, for comparison");
    let mut full_cfg = cfg;
    full_cfg.max_downstream_evals = 0;
    full_cfg.checkpoint_every = 0;
    full_cfg.checkpoint_path = None;
    let full = FastFt::new(full_cfg).fit(&data)?;

    assert_eq!(resumed.best_score, full.best_score);
    assert_eq!(resumed.best_exprs, full.best_exprs);
    assert_eq!(resumed.records, full.records);
    println!(
        "  parity: best {:.4} == {:.4}, {} records identical",
        resumed.best_score,
        full.best_score,
        full.records.len()
    );

    std::fs::remove_file(&ckpt).ok();
    Ok(())
}
