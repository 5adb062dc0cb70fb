//! Run reporting: human-readable summaries and CSV traces of a
//! [`RunResult`], plus re-application of a saved
//! feature set to new data via the expression parser.

use crate::engine::{RunResult, Telemetry};
use crate::expr::Expr;
use crate::parse::parse_expr;
use crate::transform::sanitize_column;
use fastft_tabular::dataset::{Column, Dataset};
use fastft_tabular::{FastFtError, FastFtResult};
use std::fmt::Write as _;

/// Multi-line human-readable summary of a run.
pub fn summary(result: &RunResult) -> String {
    let t = result.telemetry;
    let mut s = String::new();
    let _ = writeln!(s, "base score : {:.4}", result.base_score);
    let _ = writeln!(
        s,
        "best score : {:.4} ({:+.4})",
        result.best_score,
        result.best_score - result.base_score
    );
    let _ = writeln!(s, "features   : {}", result.best_exprs.len());
    let _ = writeln!(s, "stopped    : {}", result.stop_reason);
    let _ = writeln!(
        s,
        "evals      : {} downstream, {} predictor calls",
        t.downstream_evals, t.predictor_calls
    );
    let other = other_secs(&t);
    let other_pct = if t.total_secs > 0.0 { 100.0 * other / t.total_secs } else { 0.0 };
    let _ = writeln!(
        s,
        "time       : {:.2}s total = {:.2}s evaluation + {:.2}s estimation + {:.2}s optimization + {:.2}s other ({:.1}%)",
        t.total_secs, t.evaluation_secs, t.estimation_secs, t.optimization_secs, other, other_pct
    );
    let _ = writeln!(
        s,
        "scoring    : {:.2}s predictor + {:.2}s novelty; {} batches, prefix cache {} hits / {} misses / {} evictions",
        t.predictor_secs,
        t.novelty_secs,
        t.score_batches,
        t.prefix_hits,
        t.prefix_misses,
        t.prefix_evictions
    );
    if t.eval_faults > 0 || t.quarantined > 0 || t.weight_rollbacks > 0 {
        let _ = writeln!(
            s,
            "faults     : {} eval faults, {} candidates quarantined, {} weight rollbacks",
            t.eval_faults, t.quarantined, t.weight_rollbacks
        );
    }
    if t.score_batches > 0 {
        let _ = write!(s, "batch sizes:");
        for (i, n) in t.batch_size_hist.iter().enumerate() {
            if *n > 0 {
                let label = if i + 1 == t.batch_size_hist.len() {
                    format!("≥{}", i + 1)
                } else {
                    format!("{}", i + 1)
                };
                let _ = write!(s, " {label}×{n}");
            }
        }
        let _ = writeln!(s);
    }
    let _ = writeln!(s, "feature set:");
    for e in &result.best_exprs {
        let _ = writeln!(s, "  {e}");
    }
    s
}

/// Wall time outside Table II's three rows (loop bookkeeping, crossing,
/// checkpoint writes): `total − evaluation − estimation − optimization`.
pub fn other_secs(t: &Telemetry) -> f64 {
    t.total_secs - t.evaluation_secs - t.estimation_secs - t.optimization_secs
}

/// CSV header + rows of the per-step trace (for offline plotting).
pub fn trace_csv(result: &RunResult) -> String {
    let mut s = String::from(
        "episode,step,reward,score,predicted,novelty,novelty_distance,new_combination,n_features\n",
    );
    for r in &result.records {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{},{},{}",
            r.episode,
            r.step,
            r.reward,
            r.score,
            r.predicted,
            r.novelty,
            r.novelty_distance,
            r.new_combination,
            r.n_features
        );
    }
    s
}

/// Export the best feature set as one expression per line (re-loadable with
/// [`load_feature_set`]).
pub fn save_feature_set(exprs: &[Expr]) -> String {
    exprs.iter().map(|e| format!("{e}\n")).collect()
}

/// Parse a feature set saved by [`save_feature_set`].
pub fn load_feature_set(text: &str) -> FastFtResult<Vec<Expr>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(parse_expr)
        .collect()
}

/// Apply a saved feature set to a (new) dataset with the same base schema,
/// producing the transformed dataset. Expressions referencing features
/// beyond the dataset's width are rejected.
pub fn apply_feature_set(data: &Dataset, exprs: &[Expr]) -> FastFtResult<Dataset> {
    let d = data.n_features();
    let base: Vec<Vec<f64>> = data.features.iter().map(|c| c.values.clone()).collect();
    let mut columns = Vec::with_capacity(exprs.len());
    for e in exprs {
        if let Some(&bad) = e.base_features().iter().find(|&&i| i >= d) {
            return Err(FastFtError::InvalidData(format!(
                "expression `{e}` references f{bad} but dataset has {d} features"
            )));
        }
        let mut col = e.eval(&base);
        sanitize_column(&mut col);
        columns.push(Column::new(e.to_string(), col));
    }
    data.with_features(columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use fastft_tabular::TaskType;

    fn toy() -> Dataset {
        Dataset::new(
            "t",
            vec![
                Column::new("a", vec![1.0, 2.0, 3.0, 4.0]),
                Column::new("b", vec![2.0, 2.0, 1.0, 1.0]),
            ],
            vec![0.0, 1.0, 0.0, 1.0],
            TaskType::Classification,
            2,
        )
        .unwrap()
    }

    #[test]
    fn summary_time_terms_sum_to_total() {
        let telemetry = Telemetry {
            total_secs: 5.0,
            evaluation_secs: 3.0,
            estimation_secs: 1.0,
            optimization_secs: 0.5,
            ..Telemetry::default()
        };
        let t = telemetry;
        let other = other_secs(&t);
        assert_eq!(other, 0.5);
        assert_eq!(
            t.evaluation_secs + t.estimation_secs + t.optimization_secs + other,
            t.total_secs
        );
        let result = RunResult {
            base_score: 0.5,
            best_score: 0.6,
            best_dataset: toy(),
            best_exprs: vec![Expr::base(0), Expr::base(1)],
            records: Vec::new(),
            episode_best: Vec::new(),
            telemetry,
            stop_reason: crate::engine::StopReason::Completed,
        };
        let text = summary(&result);
        assert!(
            text.contains(
                "5.00s total = 3.00s evaluation + 1.00s estimation + 0.50s optimization + 0.50s other (10.0%)"
            ),
            "{text}"
        );
    }

    #[test]
    fn feature_set_text_round_trip() {
        let exprs = vec![
            Expr::base(0),
            Expr::binary(Op::Multiply, Expr::base(0), Expr::base(1)),
            Expr::unary(Op::Log, Expr::base(1)),
        ];
        let text = save_feature_set(&exprs);
        let back = load_feature_set(&text).unwrap();
        assert_eq!(back, exprs);
    }

    #[test]
    fn load_skips_comments_and_blanks() {
        let text = "# header\n\nf0\n  (f0+f1)  \n";
        let back = load_feature_set(text).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn apply_feature_set_transforms_new_data() {
        let data = toy();
        let exprs = vec![Expr::binary(Op::Multiply, Expr::base(0), Expr::base(1))];
        let out = apply_feature_set(&data, &exprs).unwrap();
        assert_eq!(out.n_features(), 1);
        assert_eq!(out.features[0].values, vec![2.0, 4.0, 3.0, 4.0]);
        assert_eq!(out.targets, data.targets);
    }

    #[test]
    fn apply_rejects_out_of_range_feature() {
        let data = toy();
        let exprs = vec![Expr::base(5)];
        assert!(apply_feature_set(&data, &exprs).is_err());
    }

    #[test]
    fn trace_csv_has_row_per_record() {
        use crate::config::FastFtConfig;
        use crate::engine::FastFt;
        use fastft_ml::Evaluator;
        let cfg = FastFtConfig {
            episodes: 2,
            steps_per_episode: 2,
            cold_start_episodes: 1,
            evaluator: Evaluator { folds: 3, ..Evaluator::default() },
            ..FastFtConfig::default()
        };
        let spec = fastft_tabular::datagen::by_name("pima_indian").unwrap();
        let mut d = fastft_tabular::datagen::generate_capped(spec, 80, 0);
        d.sanitize();
        let result = FastFt::new(cfg).fit(&d).unwrap();
        let csv = trace_csv(&result);
        assert_eq!(csv.lines().count(), 1 + result.records.len());
        let s = summary(&result);
        assert!(s.contains("best score"));
        assert!(s.contains("scoring"), "summary should report scoring counters:\n{s}");
        assert!(
            s.contains("stopped    : completed"),
            "summary should report the stop reason:\n{s}"
        );
    }
}
