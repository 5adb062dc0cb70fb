//! Medical case study in the spirit of the paper's Fig. 15: build a
//! cardiovascular-risk dataset from named physiological columns, let
//! FASTFT discover crossings, and print them with their real column names
//! so a domain expert can read them (e.g. `weight/(active*dbp)`).

use fastft_core::{FastFt, FastFtConfig};
use fastft_tabular::rngx;
use fastft_tabular::{Column, Dataset, TaskType};

/// Substitute column names into a traceable `fN`-style expression string.
fn humanize(expr: &str, names: &[&str]) -> String {
    let mut out = String::with_capacity(expr.len() * 2);
    let bytes = expr.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'f' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            let idx: usize = expr[i + 1..j].parse().unwrap();
            out.push_str(names.get(idx).copied().unwrap_or("?"));
            i = j;
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

fn main() {
    // Named physiological features with a planted risk structure: risk
    // rises with weight-normalised blood pressure and falls with activity —
    // the kind of ratio feature the paper's case study surfaces.
    let names = ["age", "weight", "height", "sbp", "dbp", "active", "chol"];
    let mut rng = rngx::rng(42);
    let n = 800;
    let age: Vec<f64> = (0..n).map(|_| 45.0 + 12.0 * rngx::normal(&mut rng)).collect();
    let height: Vec<f64> = (0..n).map(|_| 1.70 + 0.1 * rngx::normal(&mut rng)).collect();
    let weight: Vec<f64> =
        height.iter().map(|h| 25.0 * h * h + 8.0 * rngx::normal(&mut rng).abs()).collect();
    let active: Vec<f64> = (0..n).map(|_| 1.0 + rngx::normal(&mut rng).abs()).collect();
    let dbp: Vec<f64> = weight
        .iter()
        .zip(&active)
        .map(|(w, a)| 60.0 + 0.3 * w - 5.0 * a + 5.0 * rngx::normal(&mut rng))
        .collect();
    let sbp: Vec<f64> = dbp.iter().map(|d| d + 35.0 + 8.0 * rngx::normal(&mut rng)).collect();
    let chol: Vec<f64> =
        age.iter().map(|a| 3.5 + 0.02 * a + 0.5 * rngx::normal(&mut rng)).collect();

    // Risk: abnormal DBP relative to weight and activity + BMI + age.
    let risk: Vec<f64> = (0..n)
        .map(|i| {
            let bmi = weight[i] / (height[i] * height[i]);
            let dbp_anomaly = dbp[i] / (weight[i] * 0.3 + 60.0 - 5.0 * active[i]);
            0.8 * dbp_anomaly + 0.05 * bmi + 0.01 * age[i] + 0.1 * rngx::normal(&mut rng)
        })
        .collect();
    let cut = {
        let mut s = risk.clone();
        s.sort_by(f64::total_cmp);
        s[n / 2]
    };
    let y: Vec<f64> = risk.iter().map(|&r| f64::from(u8::from(r > cut))).collect();

    let columns: Vec<Column> = names
        .iter()
        .zip([age, weight, height, sbp, dbp, active, chol])
        .map(|(n, v)| Column::new(*n, v))
        .collect();
    let mut data =
        Dataset::new("cardio_case_study", columns, y, TaskType::Classification, 2).unwrap();
    data.sanitize();

    let result = FastFt::new(FastFtConfig::quick()).fit(&data).expect("FASTFT fit");
    println!(
        "cardiovascular case study: F1 {:.4} -> {:.4}\n",
        result.base_score, result.best_score
    );
    println!("traceable features discovered (human-readable):");
    for e in &result.best_exprs {
        let s = e.to_string();
        if s.len() > 2 {
            println!("  {}", humanize(&s, &names));
        }
    }
    println!("\nfeatures generated at the top reward peaks:");
    let mut peaks: Vec<&fastft_core::StepRecord> =
        result.records.iter().filter(|r| !r.new_exprs.is_empty()).collect();
    peaks.sort_by(|a, b| b.reward.total_cmp(&a.reward));
    for rec in peaks.iter().take(3) {
        println!(
            "  episode {} step {} (reward {:+.4}): {}",
            rec.episode,
            rec.step,
            rec.reward,
            rec.new_exprs
                .iter()
                .take(2)
                .map(|e| humanize(e, &names))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}
