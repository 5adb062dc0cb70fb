//! Table II: per-episode time breakdown (Optimization / Estimation /
//! Evaluation / Overall) of FASTFT vs FASTFT⁻ᴾᴾ on four datasets of
//! increasing size, with the percentage saved.

use crate::report::Table;
use crate::Scale;
use fastft_core::FastFt;
use fastft_tabular::Dataset;

const DATASETS: [&str; 4] =
    ["svmguide3", "wine_quality_white", "cardiovascular", "amazon_employee"];

/// Table II is specifically about how the saving grows with dataset size,
/// so the four datasets get size-proportional row caps rather than the
/// uniform harness cap.
fn row_caps(scale: Scale) -> [usize; 4] {
    match scale {
        Scale::Quick => [300, 600, 800, 1200],
        Scale::Standard => [1243, 2500, 4000, 6000],
        Scale::Full => [usize::MAX; 4],
    }
}

fn fmt_pct_saved(with: f64, without: f64) -> String {
    if without <= 0.0 {
        return "-".into();
    }
    // Negative percentage = time saved relative to FASTFT-PP (paper's
    // "8.20 -84.15%" convention); positive = slower.
    format!("{:.2} ({:+.2}%)", with, 100.0 * (with / without - 1.0))
}

/// Run the Table II reproduction.
pub fn run(scale: Scale) {
    let mut table = Table::new([
        "Dataset",
        "Size",
        "Method",
        "Optimization",
        "Estimation",
        "Evaluation",
        "Overall",
    ]);
    for (name, cap) in DATASETS.into_iter().zip(row_caps(scale)) {
        let spec = fastft_tabular::datagen::by_name(name).expect("catalog dataset");
        let mut data: Dataset = fastft_tabular::datagen::generate_capped(spec, cap, 0);
        data.sanitize();
        let size = format!("{}", data.size());
        // Keep the cold-start share close to the paper's 5% (10/200) so the
        // steady-state saving dominates the per-episode average.
        let episodes = scale.episodes().clamp(4, 10);
        let mut cfg = scale.fastft_config(0);
        cfg.episodes = episodes;
        cfg.cold_start_episodes = (episodes / 5).max(1);
        let per_ep = |secs: f64| secs / episodes as f64;

        // Both variants compose the same staged pipeline; the ablation is
        // purely the configuration the stages see.
        let without = FastFt::new(cfg.clone().without_predictor()).fit(&data).expect("FASTFT fit");
        let with = FastFt::new(cfg).fit(&data).expect("FASTFT fit");
        let (tw, to) = (with.telemetry, without.telemetry);

        table.row([
            name.to_string(),
            size.clone(),
            "FASTFT-PP".into(),
            format!("{:.2}", per_ep(to.optimization_secs)),
            "-".into(),
            format!("{:.2}", per_ep(to.evaluation_secs)),
            format!("{:.2}", per_ep(to.total_secs)),
        ]);
        table.row([
            name.to_string(),
            size,
            "FASTFT".into(),
            format!("{:.2}", per_ep(tw.optimization_secs)),
            format!("{:.2}", per_ep(tw.estimation_secs)),
            fmt_pct_saved(per_ep(tw.evaluation_secs), per_ep(to.evaluation_secs)),
            fmt_pct_saved(per_ep(tw.total_secs), per_ep(to.total_secs)),
        ]);
        eprintln!(
            "[table2] {name}: downstream evals {} -> {}",
            to.downstream_evals, tw.downstream_evals
        );
    }
    table.print("Table II — per-episode runtime (seconds) FASTFT vs FASTFT-PP");
}
