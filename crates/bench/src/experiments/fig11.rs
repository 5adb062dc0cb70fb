//! Fig. 11: spatial complexity of the Performance Predictor.
//!
//! (a) predictor memory (parameters + activations, in KB) as a function of
//! sequence length — the paper's point is the *slow growth* of the
//! recurrent architecture; (b) the trade-off between the predictor's extra
//! memory and the evaluation time it saves. The paper profiles GPU
//! allocation; we account bytes analytically (DESIGN.md §1).

use crate::report::Table;
use crate::Scale;
use fastft_core::predictor::{PerformancePredictor, PredictorConfig};
use fastft_core::FastFt;

/// Run the Fig. 11 reproduction.
pub fn run(scale: Scale) {
    // (a) memory vs sequence length.
    let predictor = PerformancePredictor::new(64, PredictorConfig::default(), 0);
    let mut table =
        Table::new(["Sequence length", "Params (KB)", "Activations (KB)", "Total (KB)"]);
    let param_kb = predictor.n_params() as f64 * 8.0 / 1024.0;
    for len in [8usize, 16, 32, 64, 128, 256, 512] {
        let total_kb = predictor.memory_bytes(len) as f64 / 1024.0;
        table.row([
            format!("{len}"),
            format!("{param_kb:.1}"),
            format!("{:.1}", total_kb - param_kb),
            format!("{total_kb:.1}"),
        ]);
    }
    table.print("Fig. 11a — predictor memory vs sequence length (LSTM encoder)");

    // (b) memory overhead vs evaluation-time saved.
    let data = scale.load("svmguide3", 0);
    let mut cfg = scale.fastft_config(0);
    cfg.episodes = cfg.episodes.clamp(4, 10);
    cfg.cold_start_episodes = cfg.cold_start_episodes.min(cfg.episodes / 2).max(1);
    let with = FastFt::new(cfg.clone()).fit(&data).expect("FASTFT fit");
    let without = FastFt::new(cfg.without_predictor()).fit(&data).expect("FASTFT fit");
    let mem_kb = predictor.memory_bytes(192) as f64 / 1024.0 * 2.0; // predictor + RND pair
    let mut trade = Table::new(["Quantity", "Value"]);
    trade.row(["Extra component memory".into(), format!("{mem_kb:.1} KB")]);
    trade.row([
        "Evaluation time without predictor".to_string(),
        format!("{:.2}s", without.telemetry.evaluation_secs),
    ]);
    trade.row([
        "Evaluation time with predictor".to_string(),
        format!("{:.2}s", with.telemetry.evaluation_secs),
    ]);
    trade.row([
        "Time saved".to_string(),
        format!(
            "{:.2}s ({:.1}%)",
            without.telemetry.evaluation_secs - with.telemetry.evaluation_secs,
            100.0
                * (1.0
                    - with.telemetry.evaluation_secs / without.telemetry.evaluation_secs.max(1e-9))
        ),
    ]);
    trade.print("Fig. 11b — memory/time trade-off (SVMGuide3)");
}
