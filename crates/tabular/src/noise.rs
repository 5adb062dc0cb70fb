//! Noise injection — supporting the paper's future-work direction of
//! "noise-robust training strategies" (§IX): controlled corruption of
//! features and labels so robustness can be measured (the `ext_noise`
//! harness in `fastft-bench`).

use crate::dataset::Dataset;
use crate::rngx;

/// Add iid Gaussian noise to every feature, scaled per column:
/// `x ← x + level · std(x) · ε`.
pub fn add_feature_noise(data: &mut Dataset, level: f64, seed: u64) {
    assert!(level >= 0.0);
    let mut rng = rngx::rng(seed);
    for col in &mut data.features {
        let n = col.values.len().max(1) as f64;
        let mean = col.values.iter().sum::<f64>() / n;
        let std = (col.values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
        let scale = level * std;
        for v in &mut col.values {
            *v += scale * rngx::normal(&mut rng);
        }
    }
}

/// Flip a fraction of discrete labels to a uniformly-random *different*
/// class. Returns the number of labels flipped.
///
/// # Panics
/// Panics on regression datasets or `frac` outside `[0, 1]`.
pub fn flip_labels(data: &mut Dataset, frac: f64, seed: u64) -> usize {
    assert!(data.task.is_discrete(), "label flipping needs discrete targets");
    assert!((0.0..=1.0).contains(&frac));
    let mut rng = rngx::rng(seed);
    let n = data.n_rows();
    let k = ((n as f64) * frac).round() as usize;
    let picks = rngx::sample_without_replacement(&mut rng, n, k.min(n));
    for &i in &picks {
        let current = data.targets[i] as usize;
        let mut other = rng.gen_range(0..data.n_classes.max(2) - 1);
        if other >= current {
            other += 1;
        }
        data.targets[i] = other as f64;
    }
    picks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;

    fn load(name: &str) -> Dataset {
        let spec = datagen::by_name(name).unwrap();
        datagen::generate_capped(spec, 200, 0)
    }

    #[test]
    fn feature_noise_changes_values_proportionally() {
        let mut d = load("pima_indian");
        let before = d.features[0].values.clone();
        add_feature_noise(&mut d, 0.1, 1);
        let diffs: Vec<f64> =
            before.iter().zip(&d.features[0].values).map(|(a, b)| (a - b).abs()).collect();
        assert!(diffs.iter().any(|&x| x > 0.0));
        // Noise at level 0 is a no-op.
        let mut d2 = load("pima_indian");
        let before2 = d2.features[0].values.clone();
        add_feature_noise(&mut d2, 0.0, 1);
        assert_eq!(before2, d2.features[0].values);
    }

    #[test]
    fn flip_labels_changes_exact_count_and_stays_valid() {
        let mut d = load("pima_indian");
        let before = d.targets.clone();
        let flipped = flip_labels(&mut d, 0.2, 2);
        assert_eq!(flipped, 40);
        let changed = before.iter().zip(&d.targets).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 40);
        for &y in &d.targets {
            assert!(y.fract() == 0.0 && (y as usize) < d.n_classes);
        }
    }

    #[test]
    fn flip_never_keeps_original_class() {
        let mut d = load("wine_quality_red"); // 4 classes
        let before = d.targets.clone();
        flip_labels(&mut d, 1.0, 3);
        for (a, b) in before.iter().zip(&d.targets) {
            assert_ne!(a, b);
        }
    }

    #[test]
    #[should_panic]
    fn flip_rejects_regression() {
        let mut d = load("openml_620");
        flip_labels(&mut d, 0.1, 0);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut a = load("pima_indian");
        let mut b = load("pima_indian");
        add_feature_noise(&mut a, 0.3, 9);
        add_feature_noise(&mut b, 0.3, 9);
        assert_eq!(a, b);
    }
}
