//! Seeded synthetic analogs of the paper's 23 benchmark datasets.
//!
//! The raw Kaggle / UCI / LibSVM / OpenML / AutoML files used in Table I are
//! not redistributable and not downloadable in this environment, so each
//! dataset is replaced by a generator with the *same row count, column count
//! and task type*, whose target is driven by **planted non-linear feature
//! interactions** — products, ratios, squares and log-composites of the
//! observable base features — plus linear signal and noise. The observable
//! columns are only the base features; a feature-transformation search must
//! rediscover the planted crossings to climb the metric, which is exactly
//! the capability the paper's experiments measure (DESIGN.md §1).

use crate::dataset::{Column, Dataset, TaskType};
use crate::rngx;
use crate::rngx::StdRng;

/// Static description of one benchmark dataset (one row of the paper's
/// Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name as printed in Table I.
    pub name: &'static str,
    /// Original source archive (for documentation only).
    pub source: &'static str,
    /// Task family.
    pub task: TaskType,
    /// Sample count in the paper.
    pub rows: usize,
    /// Feature count in the paper.
    pub cols: usize,
    /// Class count for discrete tasks (2 for detection).
    pub n_classes: usize,
}

/// The benchmark datasets of Table I, with the paper's row/column counts.
/// (The paper's text says 23 datasets; Table I itself lists 24 rows —
/// 13 classification, 7 regression, 4 detection — and we follow the table.)
pub const PAPER_CATALOG: [DatasetSpec; 24] = [
    DatasetSpec {
        name: "alzheimers",
        source: "Kaggle",
        task: TaskType::Classification,
        rows: 2149,
        cols: 33,
        n_classes: 2,
    },
    DatasetSpec {
        name: "cardiovascular",
        source: "Kaggle",
        task: TaskType::Classification,
        rows: 5000,
        cols: 12,
        n_classes: 2,
    },
    DatasetSpec {
        name: "fetal_health",
        source: "Kaggle",
        task: TaskType::Classification,
        rows: 2126,
        cols: 22,
        n_classes: 3,
    },
    DatasetSpec {
        name: "pima_indian",
        source: "UCIrvine",
        task: TaskType::Classification,
        rows: 768,
        cols: 8,
        n_classes: 2,
    },
    DatasetSpec {
        name: "svmguide3",
        source: "LibSVM",
        task: TaskType::Classification,
        rows: 1243,
        cols: 21,
        n_classes: 2,
    },
    DatasetSpec {
        name: "amazon_employee",
        source: "Kaggle",
        task: TaskType::Classification,
        rows: 32769,
        cols: 9,
        n_classes: 2,
    },
    DatasetSpec {
        name: "german_credit",
        source: "UCIrvine",
        task: TaskType::Classification,
        rows: 1001,
        cols: 24,
        n_classes: 2,
    },
    DatasetSpec {
        name: "wine_quality_red",
        source: "UCIrvine",
        task: TaskType::Classification,
        rows: 999,
        cols: 12,
        n_classes: 4,
    },
    DatasetSpec {
        name: "wine_quality_white",
        source: "UCIrvine",
        task: TaskType::Classification,
        rows: 4898,
        cols: 12,
        n_classes: 4,
    },
    DatasetSpec {
        name: "jannis",
        source: "AutoML",
        task: TaskType::Classification,
        rows: 83733,
        cols: 55,
        n_classes: 4,
    },
    DatasetSpec {
        name: "adult",
        source: "AutoML",
        task: TaskType::Classification,
        rows: 34190,
        cols: 25,
        n_classes: 2,
    },
    DatasetSpec {
        name: "volkert",
        source: "AutoML",
        task: TaskType::Classification,
        rows: 58310,
        cols: 181,
        n_classes: 10,
    },
    DatasetSpec {
        name: "albert",
        source: "AutoML",
        task: TaskType::Classification,
        rows: 425240,
        cols: 79,
        n_classes: 2,
    },
    DatasetSpec {
        name: "openml_618",
        source: "OpenML",
        task: TaskType::Regression,
        rows: 1000,
        cols: 50,
        n_classes: 0,
    },
    DatasetSpec {
        name: "openml_589",
        source: "OpenML",
        task: TaskType::Regression,
        rows: 1000,
        cols: 25,
        n_classes: 0,
    },
    DatasetSpec {
        name: "openml_616",
        source: "OpenML",
        task: TaskType::Regression,
        rows: 500,
        cols: 50,
        n_classes: 0,
    },
    DatasetSpec {
        name: "openml_607",
        source: "OpenML",
        task: TaskType::Regression,
        rows: 1000,
        cols: 50,
        n_classes: 0,
    },
    DatasetSpec {
        name: "openml_620",
        source: "OpenML",
        task: TaskType::Regression,
        rows: 1000,
        cols: 25,
        n_classes: 0,
    },
    DatasetSpec {
        name: "openml_637",
        source: "OpenML",
        task: TaskType::Regression,
        rows: 500,
        cols: 50,
        n_classes: 0,
    },
    DatasetSpec {
        name: "openml_586",
        source: "OpenML",
        task: TaskType::Regression,
        rows: 1000,
        cols: 25,
        n_classes: 0,
    },
    DatasetSpec {
        name: "wbc",
        source: "UCIrvine",
        task: TaskType::Detection,
        rows: 278,
        cols: 30,
        n_classes: 2,
    },
    DatasetSpec {
        name: "mammography",
        source: "OpenML",
        task: TaskType::Detection,
        rows: 11183,
        cols: 6,
        n_classes: 2,
    },
    DatasetSpec {
        name: "thyroid",
        source: "UCIrvine",
        task: TaskType::Detection,
        rows: 3772,
        cols: 6,
        n_classes: 2,
    },
    DatasetSpec {
        name: "smtp",
        source: "UCIrvine",
        task: TaskType::Detection,
        rows: 95156,
        cols: 3,
        n_classes: 2,
    },
];

/// Look up a catalog entry by name.
pub fn by_name(name: &str) -> Option<&'static DatasetSpec> {
    PAPER_CATALOG.iter().find(|s| s.name == name)
}

/// One planted ground-truth interaction term contributing to the target.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// `w * x_i * x_j`
    Prod(usize, usize),
    /// `w * x_i / (|x_j| + 1)`
    Ratio(usize, usize),
    /// `w * x_i^2`
    Square(usize),
    /// `w * ln(|x_i| + 1) * x_j`
    LogProd(usize, usize),
    /// `w * (x_i + x_j) * x_k`
    SumProd(usize, usize, usize),
    /// `w * x_i` (plain linear signal)
    Linear(usize),
}

impl Term {
    fn eval(&self, x: &[Vec<f64>], row: usize) -> f64 {
        match *self {
            Term::Prod(i, j) => x[i][row] * x[j][row],
            Term::Ratio(i, j) => x[i][row] / (x[j][row].abs() + 1.0),
            Term::Square(i) => x[i][row] * x[i][row],
            Term::LogProd(i, j) => (x[i][row].abs() + 1.0).ln() * x[j][row],
            Term::SumProd(i, j, k) => (x[i][row] + x[j][row]) * x[k][row],
            Term::Linear(i) => x[i][row],
        }
    }
}

/// Controls the hardness of the generated problem.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Fraction of additive Gaussian noise relative to the signal std.
    pub noise_frac: f64,
    /// Fraction of columns that are pure nuisance (uninformative).
    pub nuisance_frac: f64,
    /// Positive-class rate for detection tasks.
    pub contamination: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { noise_frac: 0.35, nuisance_frac: 0.3, contamination: 0.05 }
    }
}

/// Generate the synthetic analog of a catalog entry at full paper size.
pub fn generate(spec: &DatasetSpec, seed: u64) -> Dataset {
    generate_sized(spec, spec.rows, seed)
}

/// Generate a row-capped variant (used by the harnesses to keep the large
/// AutoML analogs laptop-sized while preserving the relative size ordering).
pub fn generate_capped(spec: &DatasetSpec, max_rows: usize, seed: u64) -> Dataset {
    generate_sized(spec, spec.rows.min(max_rows), seed)
}

fn generate_sized(spec: &DatasetSpec, rows: usize, seed: u64) -> Dataset {
    // Seed blends the dataset identity so analogs differ across datasets even
    // with the same user seed.
    let name_hash: u64 = spec
        .name
        .bytes()
        .fold(1469598103934665603u64, |h, b| (h ^ b as u64).wrapping_mul(1099511628211));
    let mut rng = rngx::rng(seed ^ name_hash);
    generate_custom(
        spec.name,
        spec.task,
        rows,
        spec.cols,
        spec.n_classes,
        GenConfig::default(),
        &mut rng,
    )
}

/// Fully parameterised generator (used directly by scalability sweeps).
pub fn generate_custom(
    name: &str,
    task: TaskType,
    rows: usize,
    cols: usize,
    n_classes: usize,
    cfg: GenConfig,
    rng: &mut StdRng,
) -> Dataset {
    assert!(rows >= 4, "need at least 4 rows");
    assert!(cols >= 2, "need at least 2 columns");

    // --- base features ----------------------------------------------------
    // A mix of standard normals, uniforms, log-normals and pairwise
    // correlated columns, mimicking the heterogeneous marginals of real
    // tabular data.
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(cols);
    for j in 0..cols {
        let col = match j % 4 {
            0 => rngx::normal_vec(rng, rows),
            1 => (0..rows).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect(),
            2 => (0..rows).map(|_| (rngx::normal(rng) * 0.5).exp() - 1.0).collect(),
            _ => {
                // Correlated with an earlier column.
                let base = rng.gen_range(0..j.max(1));
                (0..rows).map(|r| 0.7 * x[base][r] + 0.3 * rngx::normal(rng)).collect()
            }
        };
        x.push(col);
    }

    // --- planted signal ----------------------------------------------------
    let n_nuisance = ((cols as f64) * cfg.nuisance_frac) as usize;
    let informative = cols - n_nuisance.min(cols.saturating_sub(2));
    let n_inter = (informative / 3).clamp(2, 12);
    let mut terms: Vec<(f64, Term)> = Vec::new();
    for _ in 0..n_inter {
        let i = rng.gen_range(0..informative);
        let j = rng.gen_range(0..informative);
        let k = rng.gen_range(0..informative);
        let t = match rng.gen_range(0..5) {
            0 => Term::Prod(i, j),
            1 => Term::Ratio(i, j),
            2 => Term::Square(i),
            3 => Term::LogProd(i, j),
            _ => Term::SumProd(i, j, k),
        };
        let w = (rng.gen::<f64>() + 0.5) * if rng.gen::<bool>() { 1.0 } else { -1.0 };
        terms.push((w, t));
    }
    // Weak linear signal so the untransformed dataset is learnable but has
    // clear headroom for transformation.
    for i in 0..(informative / 2).max(1) {
        terms.push((0.3 * (rng.gen::<f64>() - 0.5), Term::Linear(i)));
    }

    let mut score: Vec<f64> =
        (0..rows).map(|r| terms.iter().map(|(w, t)| w * t.eval(&x, r)).sum()).collect();
    let mean = score.iter().sum::<f64>() / rows as f64;
    let std =
        (score.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / rows as f64).sqrt().max(1e-9);
    for s in &mut score {
        *s = (*s - mean) / std + cfg.noise_frac * rngx::normal(rng);
    }

    // --- targets ------------------------------------------------------------
    let targets: Vec<f64> = match task {
        TaskType::Regression => score.clone(),
        TaskType::Classification => {
            let k = n_classes.max(2);
            let mut sorted = score.clone();
            sorted.sort_by(f64::total_cmp);
            let cuts: Vec<f64> = (1..k)
                .map(|c| crate::stats::percentile_sorted(&sorted, c as f64 / k as f64))
                .collect();
            score.iter().map(|&s| cuts.iter().take_while(|&&c| s > c).count() as f64).collect()
        }
        TaskType::Detection => {
            let mut sorted = score.clone();
            sorted.sort_by(f64::total_cmp);
            let cut = crate::stats::percentile_sorted(&sorted, 1.0 - cfg.contamination);
            score.iter().map(|&s| if s > cut { 1.0 } else { 0.0 }).collect()
        }
    };

    let features: Vec<Column> =
        x.into_iter().enumerate().map(|(j, values)| Column::new(format!("f{j}"), values)).collect();
    let n_classes = if task == TaskType::Regression { 0 } else { n_classes.max(2) };
    Dataset::new(name, features, targets, task, n_classes)
        .expect("generator produced a consistent dataset")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mi;

    #[test]
    fn catalog_matches_paper_counts() {
        assert_eq!(PAPER_CATALOG.len(), 24);
        let c = PAPER_CATALOG.iter().filter(|s| s.task == TaskType::Classification).count();
        let r = PAPER_CATALOG.iter().filter(|s| s.task == TaskType::Regression).count();
        let d = PAPER_CATALOG.iter().filter(|s| s.task == TaskType::Detection).count();
        assert_eq!((c, r, d), (13, 7, 4)); // per Table I rows
    }

    #[test]
    fn generated_shapes_match_spec() {
        let spec = by_name("pima_indian").unwrap();
        let d = generate(spec, 0);
        assert_eq!(d.n_rows(), 768);
        assert_eq!(d.n_features(), 8);
        assert_eq!(d.task, TaskType::Classification);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = by_name("svmguide3").unwrap();
        let a = generate(spec, 5);
        let b = generate(spec, 5);
        assert_eq!(a, b);
        let c = generate(spec, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn different_datasets_differ_with_same_seed() {
        let a = generate(by_name("openml_589").unwrap(), 1);
        let b = generate(by_name("openml_620").unwrap(), 1);
        assert_ne!(a.features[0].values, b.features[0].values);
    }

    #[test]
    fn classification_targets_are_valid_classes() {
        let spec = by_name("wine_quality_red").unwrap();
        let d = generate(spec, 2);
        for &y in &d.targets {
            assert!(y >= 0.0 && (y as usize) < d.n_classes && y.fract() == 0.0);
        }
        // All classes populated.
        for c in 0..d.n_classes {
            assert!(d.targets.iter().any(|&y| y as usize == c), "class {c} empty");
        }
    }

    #[test]
    fn detection_rate_near_contamination() {
        let spec = by_name("mammography").unwrap();
        let d = generate(spec, 3);
        let pos = d.targets.iter().filter(|&&y| y == 1.0).count() as f64 / d.n_rows() as f64;
        assert!(pos > 0.01 && pos < 0.12, "positive rate {pos}");
    }

    #[test]
    fn capped_generation_limits_rows() {
        let spec = by_name("albert").unwrap();
        let d = generate_capped(spec, 2000, 0);
        assert_eq!(d.n_rows(), 2000);
        assert_eq!(d.n_features(), 79);
    }

    #[test]
    fn values_are_finite() {
        let spec = by_name("openml_616").unwrap();
        let d = generate(spec, 4);
        assert!(d.features.iter().all(crate::Column::is_finite));
        assert!(d.targets.iter().all(|y| y.is_finite()));
    }

    #[test]
    fn planted_interactions_beat_raw_features() {
        // A hand-built crossing of base features should carry more MI with
        // the target than the best single raw feature on a meaningful share
        // of seeds — i.e. there is headroom for feature transformation.
        let spec = by_name("pima_indian").unwrap();
        let mut wins = 0;
        for seed in 0..20 {
            let d = generate(spec, seed);
            let raw = mi::relevance_scores(&d, mi::DEFAULT_BINS);
            let best_raw = raw.iter().cloned().fold(f64::MIN, f64::max);
            let mut best_cross = f64::MIN;
            for i in 0..d.n_features() {
                for j in 0..d.n_features() {
                    let prod: Vec<f64> = d.features[i]
                        .values
                        .iter()
                        .zip(&d.features[j].values)
                        .map(|(a, b)| a * b)
                        .collect();
                    let m = mi::mi_feature_target(&prod, &d.targets, true, mi::DEFAULT_BINS);
                    best_cross = best_cross.max(m);
                }
            }
            if best_cross > best_raw {
                wins += 1;
            }
        }
        assert!(wins >= 2, "crossings beat raw features on only {wins}/20 seeds");
    }
}
