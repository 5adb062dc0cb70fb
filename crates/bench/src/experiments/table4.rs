//! Table IV: top-10 feature importances on the original vs
//! FASTFT-transformed Wine Quality Red analog — the traceability showcase.

use crate::report::{fmt3, Table};
use crate::Scale;
use fastft_core::FastFt;
use fastft_ml::forest::{ForestParams, RandomForestClassifier};
use fastft_tabular::Dataset;

fn top10(data: &Dataset) -> (Vec<(String, f64)>, f64) {
    let cols: Vec<Vec<f64>> = data.features.iter().map(|c| c.values.clone()).collect();
    let y = data.class_labels();
    let mut rf = RandomForestClassifier::new(ForestParams::default(), 0);
    rf.fit(&cols, &y, data.n_classes);
    let mut ranked: Vec<(String, f64)> = data
        .features
        .iter()
        .zip(rf.feature_importances())
        .map(|(c, &imp)| (c.name.clone(), imp))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked.truncate(10);
    let sum = ranked.iter().map(|(_, i)| i).sum();
    (ranked, sum)
}

/// Run the Table IV reproduction.
pub fn run(scale: Scale) {
    let data = scale.load("wine_quality_red", 0);
    let evaluator = scale.evaluator();
    let base_score = evaluator.evaluate(&data).expect("base evaluation");
    let result = FastFt::new(scale.fastft_config(0)).fit(&data).expect("FASTFT fit");

    let (orig_top, orig_sum) = top10(&data);
    let (ft_top, ft_sum) = top10(&result.best_dataset);

    let mut table = Table::new(["Original feature", "Imp.", "FASTFT feature", "Imp."]);
    for i in 0..10 {
        let (on, oi) = orig_top.get(i).map(|(n, v)| (n.clone(), fmt3(*v))).unwrap_or_default();
        let (fnm, fi) = ft_top.get(i).map(|(n, v)| (n.clone(), fmt3(*v))).unwrap_or_default();
        table.row([on, oi, fnm, fi]);
    }
    table.row([
        format!("F1: {base_score:.3}"),
        format!("Sum: {orig_sum:.3}"),
        format!("F1: {:.3}", result.best_score),
        format!("Sum: {ft_sum:.3}"),
    ]);
    table.print("Table IV — top-10 feature importances, original vs FASTFT (Wine Quality Red)");
}
