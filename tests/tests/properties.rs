//! Randomized property tests over the workspace's core invariants.
//!
//! Ported from `proptest` to the in-repo `rngx` generators so the workspace
//! builds offline with zero external dependencies. Each property draws its
//! cases from a seeded [`StdRng`], so failures are reproducible: the case
//! index is part of every assertion message.

use fastft_core::sequence::{canonical_key, encode_feature_set, Token, TokenVocab};
use fastft_core::{Expr, Op};
use fastft_rl::PrioritizedReplay;
use fastft_tabular::metrics;
use fastft_tabular::mi;
use fastft_tabular::rngx::StdRng;

const CASES: u64 = 64;

/// Draw a random expression over `n_base` features with depth ≤ `depth`.
fn arb_expr(rng: &mut StdRng, n_base: usize, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return Expr::base(rng.gen_range(0..n_base));
    }
    if rng.gen_bool(0.5) {
        let unary: Vec<Op> = Op::unary().collect();
        let op = unary[rng.gen_range(0..unary.len())];
        Expr::unary(op, arb_expr(rng, n_base, depth - 1))
    } else {
        let binary: Vec<Op> = Op::binary().collect();
        let op = binary[rng.gen_range(0..binary.len())];
        let a = arb_expr(rng, n_base, depth - 1);
        let b = arb_expr(rng, n_base, depth - 1);
        Expr::binary(op, a, b)
    }
}

fn arb_vec(rng: &mut StdRng, len: std::ops::Range<usize>, range: std::ops::Range<f64>) -> Vec<f64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(range.clone())).collect()
}

#[test]
fn expr_eval_is_always_finite() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    for case in 0..CASES {
        let e = arb_expr(&mut rng, 4, 4);
        let rows = rng.gen_range(1..20usize);
        let base: Vec<Vec<f64>> = (0..4)
            .map(|j| (0..rows).map(|i| ((i * 7 + j * 3) as f64 - 10.0) * 1e3).collect())
            .collect();
        let col = e.eval(&base);
        assert_eq!(col.len(), rows, "case {case}");
        // Guarded ops keep everything finite on finite input.
        assert!(col.iter().all(|v| v.is_finite()), "case {case}: {e} -> {col:?}");
    }
}

#[test]
fn expr_display_roundtrip_consistency() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    for case in 0..CASES {
        let e = arb_expr(&mut rng, 4, 4);
        // Display is injective enough for dedup: equal strings imply equal
        // column semantics.
        let e2 = e.clone();
        assert_eq!(e.to_string(), e2.to_string(), "case {case}");
        assert!(e.base_features().iter().all(|&i| i < 4), "case {case}");
        assert!(e.depth() <= e.size(), "case {case}");
    }
}

#[test]
fn encode_respects_max_len() {
    let mut rng = StdRng::seed_from_u64(0xE3);
    for case in 0..CASES {
        let n = rng.gen_range(1..10usize);
        let es: Vec<Expr> = (0..n).map(|_| arb_expr(&mut rng, 4, 3)).collect();
        let max_len = rng.gen_range(4..64usize);
        let vocab = TokenVocab::new(4);
        let ids = encode_feature_set(&es, &vocab, max_len);
        assert!(ids.len() <= max_len, "case {case}");
        assert!(ids.iter().all(|&id| id < vocab.size()), "case {case}");
        assert_eq!(ids[0], vocab.id(Token::Start), "case {case}");
        assert_eq!(*ids.last().unwrap(), vocab.id(Token::End), "case {case}");
    }
}

#[test]
fn canonical_key_order_invariance() {
    let mut rng = StdRng::seed_from_u64(0xE4);
    for case in 0..CASES {
        let n = rng.gen_range(1..6usize);
        let mut es: Vec<Expr> = (0..n).map(|_| arb_expr(&mut rng, 3, 3)).collect();
        let k1 = canonical_key(&es);
        es.reverse();
        assert_eq!(k1, canonical_key(&es), "case {case}");
    }
}

#[test]
fn replay_never_exceeds_capacity() {
    let mut rng = StdRng::seed_from_u64(0xE5);
    for case in 0..CASES {
        let cap = rng.gen_range(1..16usize);
        let n_pushes = rng.gen_range(0..64usize);
        let mut buf = PrioritizedReplay::new(cap);
        for _ in 0..n_pushes {
            let item = rng.gen::<u32>() as i32;
            let delta = rng.gen_range(-10.0..10.0);
            buf.push(item, delta);
            assert!(buf.len() <= cap, "case {case}");
        }
        let mut sample_rng = StdRng::seed_from_u64(1);
        if !buf.is_empty() {
            assert!(buf.sample(&mut sample_rng).is_some(), "case {case}");
        }
    }
}

#[test]
fn f1_bounded() {
    let mut rng = StdRng::seed_from_u64(0xE6);
    for case in 0..CASES {
        let n = rng.gen_range(1..50usize);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
        let preds: Vec<usize> = labels.iter().map(|_| rng.gen_range(0..3usize)).collect();
        let f1 = metrics::f1_macro(&labels, &preds, 3);
        assert!((0.0..=1.0).contains(&f1), "case {case}");
        let p = metrics::precision_macro(&labels, &preds, 3);
        let r = metrics::recall_macro(&labels, &preds, 3);
        assert!((0.0..=1.0).contains(&p), "case {case}");
        assert!((0.0..=1.0).contains(&r), "case {case}");
    }
}

#[test]
fn auc_bounded_and_flip_symmetric() {
    let mut rng = StdRng::seed_from_u64(0xE7);
    for case in 0..CASES {
        let scores = arb_vec(&mut rng, 2..40, -10.0..10.0);
        let labels: Vec<usize> = scores.iter().map(|_| rng.gen_range(0..2usize)).collect();
        let auc = metrics::auc(&labels, &scores);
        assert!((0.0..=1.0).contains(&auc), "case {case}");
        // Negating the scores reflects the AUC around 0.5 (when both
        // classes are present).
        let n_pos = labels.iter().filter(|&&y| y == 1).count();
        if n_pos > 0 && n_pos < labels.len() {
            let neg: Vec<f64> = scores.iter().map(|s| -s).collect();
            let flipped = metrics::auc(&labels, &neg);
            assert!((auc + flipped - 1.0).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn mi_nonnegative_and_symmetric() {
    let mut rng = StdRng::seed_from_u64(0xE8);
    for case in 0..CASES {
        let a = arb_vec(&mut rng, 10..60, -5.0..5.0);
        let b: Vec<f64> = a.iter().map(|_| rng.gen::<f64>()).collect();
        let ab = mi::mi_continuous(&a, &b, 6);
        let ba = mi::mi_continuous(&b, &a, 6);
        assert!(ab >= 0.0, "case {case}");
        assert!((ab - ba).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn quantile_bins_in_range() {
    let mut rng = StdRng::seed_from_u64(0xE9);
    for case in 0..CASES {
        let values = arb_vec(&mut rng, 1..80, -100.0..100.0);
        let n_bins = rng.gen_range(1..20usize);
        let bins = mi::quantile_bins(&values, n_bins);
        assert_eq!(bins.len(), values.len(), "case {case}");
        assert!(bins.iter().all(|&b| b < n_bins), "case {case}");
        // Equal values always share a bin.
        for (i, vi) in values.iter().enumerate() {
            for (j, vj) in values.iter().enumerate() {
                if vi == vj {
                    assert_eq!(bins[i], bins[j], "case {case}");
                }
            }
        }
    }
}

#[test]
fn parse_display_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xEA);
    for case in 0..CASES {
        let e = arb_expr(&mut rng, 6, 5);
        let text = e.to_string();
        let back = fastft_core::parse_expr(&text).expect("display output parses");
        assert_eq!(back, e, "case {case}");
    }
}

#[test]
fn ops_total_on_arbitrary_finite_scalars() {
    let mut rng = StdRng::seed_from_u64(0xEB);
    for case in 0..CASES {
        let x = rng.gen_range(-1e9..1e9);
        let y = rng.gen_range(-1e9..1e9);
        for op in Op::unary() {
            assert!(op.apply_unary_scalar(x).is_finite(), "case {case}: {op:?}({x})");
        }
        for op in Op::binary() {
            assert!(op.apply_binary_scalar(x, y).is_finite(), "case {case}: {op:?}({x},{y})");
        }
    }
}

#[test]
fn orthogonal_init_is_orthogonal() {
    use fastft_nn::init;
    let mut rng = StdRng::seed_from_u64(0xEC);
    for case in 0..CASES {
        let rows = rng.gen_range(1..8usize);
        let cols = rng.gen_range(1..8usize);
        let seed = rng.gen::<u64>();
        let gain = 2.5;
        let m = init::orthogonal(&mut init::rng(seed), rows, cols, gain);
        let k = rows.min(cols);
        // Gram matrix of the smaller dimension is gain² I.
        let gram = if rows <= cols { m.matmul_nt(&m) } else { m.matmul_tn(&m) };
        for i in 0..k {
            for j in 0..k {
                let expect = if i == j { gain * gain } else { 0.0 };
                assert!(
                    (gram[(i, j)] - expect).abs() < 1e-6,
                    "case {case}: gram[{i}][{j}]={}",
                    gram[(i, j)]
                );
            }
        }
    }
}

#[test]
fn kfold_always_partitions() {
    let mut rng = StdRng::seed_from_u64(0xED);
    for case in 0..CASES {
        let k = rng.gen_range(2..6usize);
        let n = rng.gen_range(k.max(4)..120usize);
        let seed = rng.gen::<u64>();
        let kf = fastft_tabular::KFold::new(n, k, seed);
        let mut all: Vec<usize> = kf.iter().flat_map(|(_, t)| t).collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "case {case}");
        for (train, test) in kf.iter() {
            assert_eq!(train.len() + test.len(), n, "case {case}");
        }
    }
}

#[test]
fn exp_decay_bounded_monotone() {
    let mut rng = StdRng::seed_from_u64(0xEE);
    for case in 0..CASES {
        let start = rng.gen_range(0.01..1.0);
        let end = rng.gen_range(0.0001..0.01);
        let m = rng.gen_range(10.0..5000.0);
        let s = fastft_rl::ExpDecay { start, end, m };
        let mut prev = f64::MAX;
        for i in (0..10_000).step_by(500) {
            let v = s.at(i);
            assert!(v <= prev + 1e-12, "case {case}");
            assert!(v <= start + 1e-12 && v >= end - 1e-12, "case {case}");
            prev = v;
        }
    }
}

#[test]
fn describe_stats_ordered() {
    let mut rng = StdRng::seed_from_u64(0xEF);
    for case in 0..CASES {
        let values = arb_vec(&mut rng, 1..60, -1e6..1e6);
        let d = fastft_tabular::stats::describe(&values);
        // min <= q1 <= median <= q3 <= max, std >= 0.
        assert!(d[2] <= d[3] + 1e-9, "case {case}");
        assert!(d[3] <= d[4] + 1e-9, "case {case}");
        assert!(d[4] <= d[5] + 1e-9, "case {case}");
        assert!(d[5] <= d[6] + 1e-9, "case {case}");
        assert!(d[1] >= 0.0, "case {case}");
        assert!(d[0] >= d[2] - 1e-9 && d[0] <= d[6] + 1e-9, "case {case}");
    }
}
