//! Parity suite for the fused NN hot path (PR 3).
//!
//! The fused kernels, batched inference and prefix-cached scoring are
//! pure performance work: every one of them must produce **bitwise
//! identical** numbers to the straightforward reference path. Each test
//! here pins one of those equivalences at the integration level, across
//! crate boundaries.

use fastft_core::novelty::NoveltyEstimator;
use fastft_core::predictor::{PerformancePredictor, PredictorConfig};
use fastft_core::scoring::PrefixCache;
use fastft_nn::gradcheck::{assert_close, central_difference};
use fastft_nn::lstm::Lstm;
use fastft_nn::matrix::Matrix;
use fastft_nn::{init, reference, EncoderKind, SequenceRegressor};

fn test_input(rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols).map(|i| (i as f64 * 0.37).sin() * 0.8).collect();
    Matrix::from_vec(rows, cols, data)
}

fn sequences() -> Vec<Vec<usize>> {
    vec![
        vec![1, 2, 3],
        vec![1, 2, 3, 4, 5],
        vec![1, 2, 3, 4, 5, 6, 7],
        vec![9, 8, 7, 6],
        vec![5],
        vec![2, 2, 2, 2, 2, 2, 2, 2, 2],
    ]
}

fn encoder_kinds() -> Vec<EncoderKind> {
    vec![
        EncoderKind::Lstm { layers: 2 },
        EncoderKind::Gru { layers: 2 },
        EncoderKind::Rnn { layers: 1 },
        EncoderKind::Transformer { blocks: 1, heads: 2 },
    ]
}

#[test]
fn fused_forward_matches_unfused_reference() {
    let mut rng = init::rng(11);
    let x = test_input(9, 6);
    let lstm = Lstm::new(6, 8, 2, &mut rng);
    assert_eq!(lstm.infer(&x).data, reference::lstm_forward(&lstm, &x).data);
    let gru = fastft_nn::gru::Gru::new(6, 8, 2, &mut rng);
    assert_eq!(gru.infer(&x).data, reference::gru_forward(&gru, &x).data);
    let rnn = fastft_nn::rnn::Rnn::new(6, 8, 2, &mut rng);
    assert_eq!(rnn.infer(&x).data, reference::rnn_forward(&rnn, &x).data);
}

/// Check the fused backward against central differences computed with the
/// *unfused* reference forward: if the fused forward or backward deviated
/// from the reference semantics, the gradients would not match.
#[test]
fn fused_backward_gradchecks_against_reference_forward() {
    let mut rng = init::rng(13);
    let x = test_input(6, 4);
    let mut net = Lstm::new(4, 5, 2, &mut rng);
    let out = net.forward(&x);
    let d_out = Matrix::from_vec(out.rows, out.cols, vec![1.0; out.rows * out.cols]);
    net.backward(&d_out);
    let analytic: Vec<Vec<f64>> = net.parameters().iter().map(|t| t.grad.data.clone()).collect();
    for (p, grads) in analytic.iter().enumerate() {
        let n = grads.len();
        for e in [0, n / 2, n - 1] {
            let numeric = central_difference(
                |d| {
                    net.parameters()[p].value.data[e] += d;
                    let loss: f64 = reference::lstm_forward(&net, &x).data.iter().sum();
                    net.parameters()[p].value.data[e] -= d;
                    loss
                },
                1e-5,
            );
            assert_close(grads[e], numeric, 1e-5, &format!("param {p} elem {e}"));
        }
    }
}

#[test]
fn predict_batch_is_bitwise_identical_to_predict() {
    let seqs = sequences();
    let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
    for kind in encoder_kinds() {
        let net = SequenceRegressor::new(12, 8, 8, kind, &[6, 1], 1e-3, 17);
        let batched = net.predict_batch(&refs);
        for (seq, row) in seqs.iter().zip(&batched) {
            assert_eq!(row, &net.predict(seq), "{kind:?} {seq:?}");
        }
    }
}

#[test]
fn prefix_cached_scoring_is_bitwise_identical_to_cold() {
    for kind in encoder_kinds() {
        let net = SequenceRegressor::new(12, 8, 8, kind, &[6, 1], 1e-3, 19);
        let mut cache = PrefixCache::new(32);
        // Score a growing sequence twice: the second pass runs entirely from
        // cached prefix states.
        let full: Vec<usize> = vec![1, 4, 2, 8, 5, 7, 1, 3];
        for _ in 0..2 {
            for l in 1..=full.len() {
                let mut got = [0.0];
                cache.score_into(&net, &full[..l], &mut got);
                assert_eq!(got[0], net.predict(&full[..l])[0], "{kind:?} len {l}");
            }
        }
    }
}

#[test]
fn predictor_cached_and_batched_paths_match_plain_predict() {
    let mut p = PerformancePredictor::new(12, PredictorConfig::default(), 23);
    let seqs = sequences();
    for seq in &seqs {
        assert_eq!(p.predict_cached(seq), p.predict(seq));
    }
    let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
    let mut out = vec![0.0; seqs.len()];
    p.predict_batch(&refs, &mut out);
    for (seq, got) in seqs.iter().zip(&out) {
        assert_eq!(*got, p.predict(seq));
    }
    // Training invalidates the cache; the cached path must track the new
    // weights instead of serving stale states.
    p.train_step(&seqs[0], 0.5);
    for seq in &seqs {
        assert_eq!(p.predict_cached(seq), p.predict(seq));
    }
}

#[test]
fn novelty_cached_path_matches_plain_novelty() {
    let mut ne = NoveltyEstimator::new(12, PredictorConfig::default(), 29);
    let seqs = sequences();
    for seq in &seqs {
        assert_eq!(ne.novelty_cached(seq), ne.novelty(seq));
    }
    ne.train_step(&seqs[0]);
    for seq in &seqs {
        assert_eq!(ne.novelty_cached(seq), ne.novelty(seq), "stale cache after training");
    }
}

/// FNV-1a over `f64` bit patterns.
fn fnv_f64s(hash: &mut u64, values: &[f64]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Golden output bits for every encoder kind: `predict` on a fixed
/// sequence set, the loss of one `train_step`, the Adam first moments that
/// step left behind (a scaled copy of every parameter gradient), `predict`
/// after the step, and, for the recurrent kinds, `predict_state_into` after
/// a two-part `encode_state`. The constants pin today's kernels bit for
/// bit, so a refactor of the recurrent layers that changes any summation
/// order fails here.
#[test]
fn encoder_outputs_match_golden_bits() {
    let golden: [(EncoderKind, u64); 4] = [
        (EncoderKind::Lstm { layers: 2 }, 0x2cf1_16f9_7b44_ff3c),
        (EncoderKind::Gru { layers: 2 }, 0xb19c_afd8_1a98_1cae),
        (EncoderKind::Rnn { layers: 2 }, 0x0c9c_c902_8ccd_9179),
        (EncoderKind::Transformer { heads: 2, blocks: 1 }, 0x159f_8403_6b6c_6cd3),
    ];
    let seqs = sequences();
    let full: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6];
    let hashes: Vec<(EncoderKind, u64)> = golden
        .iter()
        .map(|&(kind, _)| {
            let mut net = SequenceRegressor::new(12, 8, 8, kind, &[6, 1], 1e-2, 41);
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for seq in &seqs {
                fnv_f64s(&mut hash, &net.predict(seq));
            }
            fnv_f64s(&mut hash, &[net.train_step(&full, &[0.7])]);
            for m in &net.save_state().opt_m {
                fnv_f64s(&mut hash, m);
            }
            for seq in &seqs {
                fnv_f64s(&mut hash, &net.predict(seq));
            }
            if net.supports_incremental() {
                let prefix = net.encode_state(None, &full[..3]);
                let state = net.encode_state(Some(&prefix), &full[3..]);
                let mut out = [0.0];
                net.predict_state_into(&state, &mut out);
                fnv_f64s(&mut hash, &out);
            }
            (kind, hash)
        })
        .collect();
    assert_eq!(hashes, golden, "got {hashes:#x?}");
}

/// Golden bits at the paper's shape (embedding 32, hidden 32, 2 layers,
/// vocab 24) and at an odd shape (embedding 7, hidden 5) whose widths are
/// not multiples of the matrix kernel's strip, for every recurrent kind.
/// Each net takes eight `train_step`s on sequences of 40–100 tokens; the
/// hash covers every loss, the final parameters, both Adam moments,
/// `predict`, a three-lane `predict_batch` and a prefix-resumed
/// `encode_state`. `FASTFT_GOLDEN_CAPTURE=1` prints the live bits instead
/// of asserting.
#[test]
fn training_at_paper_shape_matches_golden_bits() {
    const VOCAB: usize = 24;
    let golden: [(EncoderKind, usize, usize, u64); 6] = [
        (EncoderKind::Lstm { layers: 2 }, 32, 32, 0x7107_c817_945b_030b),
        (EncoderKind::Gru { layers: 2 }, 32, 32, 0xaa92_34c0_a084_f2ea),
        (EncoderKind::Rnn { layers: 2 }, 32, 32, 0x6120_9aa3_993a_777b),
        (EncoderKind::Lstm { layers: 2 }, 7, 5, 0xddd7_2d24_ab4d_c689),
        (EncoderKind::Gru { layers: 2 }, 7, 5, 0x4028_63ff_dd76_cd42),
        (EncoderKind::Rnn { layers: 2 }, 7, 5, 0xc36e_7558_68f8_03d7),
    ];
    // A fixed LCG token stream, so the sequences do not depend on any RNG
    // the crates under test might change.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut tokens = |len: usize| -> Vec<usize> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 33) as usize % VOCAB
            })
            .collect()
    };
    let train: Vec<Vec<usize>> = [40, 47, 55, 63, 71, 80, 90, 100].map(&mut tokens).to_vec();
    let lanes: Vec<Vec<usize>> = (0..3).map(|_| tokens(45)).collect();
    let capture = std::env::var("FASTFT_GOLDEN_CAPTURE").is_ok();
    for (kind, emb, hidden, bits) in golden {
        let mut net = SequenceRegressor::new(VOCAB, emb, hidden, kind, &[16, 1], 1e-2, 43);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (i, seq) in train.iter().enumerate() {
            fnv_f64s(&mut hash, &[net.train_step(seq, &[0.1 * i as f64 - 0.3])]);
        }
        let snap = net.save_state();
        for values in snap.params.iter().chain(&snap.opt_m).chain(&snap.opt_v) {
            fnv_f64s(&mut hash, values);
        }
        for seq in &train {
            fnv_f64s(&mut hash, &net.predict(seq));
        }
        let refs: Vec<&[usize]> = lanes.iter().map(Vec::as_slice).collect();
        for row in net.predict_batch(&refs) {
            fnv_f64s(&mut hash, &row);
        }
        let prefix = net.encode_state(None, &train[7][..60]);
        let resumed = net.encode_state(Some(&prefix), &train[7][60..]);
        let mut out = [0.0];
        net.predict_state_into(&resumed, &mut out);
        fnv_f64s(&mut hash, &out);
        if capture {
            println!("{kind:?} emb {emb} hidden {hidden}: {hash:#018x}");
        } else {
            assert_eq!(hash, bits, "{kind:?} emb {emb} hidden {hidden}: got {hash:#018x}");
        }
    }
}
