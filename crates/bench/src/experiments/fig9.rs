//! Fig. 9: downstream performance vs total runtime for every method —
//! the scatter showing FASTFT in the good corner (high score, low time).

use super::methods::lineup;
use crate::report::Table;
use crate::Scale;
use fastft_baselines::RunContext;
use fastft_runtime::Runtime;

/// Run the Fig. 9 reproduction.
pub fn run(scale: Scale) {
    let rt = Runtime::from_env();
    for name in ["pima_indian", "wine_quality_red"] {
        let data = scale.load(name, 0);
        let evaluator = scale.evaluator();
        let mut table = Table::new(["Method", "Score", "Time (s)", "Downstream evals"]);
        let methods = lineup(scale);
        // Per-method fan-out; par_map preserves input order so rows stay
        // deterministic before the score sort below.
        let mut rows: Vec<(String, f64, f64, usize)> =
            rt.par_map(methods.iter().collect::<Vec<_>>(), |method| {
                let ctx = RunContext::new(&evaluator, &rt, 0);
                let r = method.run(&data, &ctx).expect("fig9 method run");
                eprintln!("[fig9] {name}/{} done", method.name());
                (r.name.to_string(), r.score, r.total_time_secs(), r.downstream_evals)
            });
        // Sort by score so the winner is at the top.
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (n, s, t, e) in rows {
            table.row([n, format!("{s:.3}"), format!("{t:.2}"), format!("{e}")]);
        }
        table.print(&format!("Fig. 9 — performance vs time ({name})"));
    }
}
