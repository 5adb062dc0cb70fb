//! Extension experiment (paper §IX future work): robustness of FASTFT to
//! feature noise and label noise — how much of the transformation gain
//! survives as the data is corrupted, compared against the random baseline.

use crate::report::Table;
use crate::Scale;
use fastft_baselines::{expansion::Rfg, FeatureTransformMethod, RunContext};
use fastft_core::pipeline::NullObserver;
use fastft_core::Session;
use fastft_runtime::Runtime;
use fastft_tabular::noise;

/// Run the noise-robustness extension.
pub fn run(scale: Scale) {
    let rt = Runtime::from_env();
    let evaluator = scale.evaluator();
    // One session: all four corrupted datasets run over the same pool.
    let session = Session::new(scale.fastft_config(0)).expect("valid config");
    let mut table = Table::new(["Corruption", "Base", "RFG", "FASTFT", "FASTFT gain"]);
    let settings: [(&str, f64, f64); 4] = [
        ("clean", 0.0, 0.0),
        ("feature noise 0.2", 0.2, 0.0),
        ("label flips 10%", 0.0, 0.10),
        ("both", 0.2, 0.10),
    ];
    for (label, feat_level, flip_frac) in settings {
        let mut data = scale.load("pima_indian", 0);
        if feat_level > 0.0 {
            noise::add_feature_noise(&mut data, feat_level, 1);
        }
        if flip_frac > 0.0 {
            noise::flip_labels(&mut data, flip_frac, 2);
        }
        data.sanitize();
        let base = evaluator.evaluate(&data).expect("base evaluation");
        let ctx = RunContext::new(&evaluator, &rt, 0);
        let rfg = Rfg::default().run(&data, &ctx).expect("RFG run").score;
        let fast = session.run(&data, &mut NullObserver).expect("FASTFT fit").best_score;
        table.row([
            label.to_string(),
            format!("{base:.3}"),
            format!("{rfg:.3}"),
            format!("{fast:.3}"),
            format!("{:+.3}", fast - base),
        ]);
        eprintln!("[ext_noise] {label} done");
    }
    table.print("Extension — noise robustness (Pima Indian analog)");
}
