//! Compare FASTFT against the baseline methods on one dataset — a small
//! interactive version of the paper's Table I / Fig. 9.
//!
//! ```text
//! cargo run --release -p fastft-examples --bin compare_methods [dataset]
//! ```

use fastft_baselines::{all_methods, RunContext};
use fastft_ml::Evaluator;
use fastft_runtime::Runtime;
use fastft_tabular::{datagen, FastFtResult};

fn main() -> FastFtResult<()> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "svmguide3".into());
    let spec = datagen::by_name(&name).expect("dataset in the paper catalog");
    let mut data = datagen::generate_capped(spec, 500, 0);
    data.sanitize();
    let evaluator = Evaluator::default();
    let runtime = Runtime::from_env();
    let base = evaluator.evaluate(&data)?;
    println!(
        "dataset: {name} ({} rows x {} cols) | base {} = {base:.4}\n",
        data.n_rows(),
        data.n_features(),
        evaluator.metric_for(data.task).label()
    );
    println!("{:<10} {:>8} {:>10} {:>8}", "method", "score", "time (s)", "evals");
    println!("{}", "-".repeat(40));
    let mut results: Vec<(String, f64, f64, usize)> = Vec::new();
    for method in all_methods() {
        let ctx = RunContext::new(&evaluator, &runtime, 0);
        let r = method.run(&data, &ctx)?;
        results.push((r.name.to_string(), r.score, r.total_time_secs(), r.downstream_evals));
    }
    results.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (n, s, t, e) in results {
        println!("{n:<10} {s:>8.4} {t:>10.2} {e:>8}");
    }
    Ok(())
}
