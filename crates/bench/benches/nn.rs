//! Fused vs unfused predictor-inference benchmark for the NN hot path,
//! writing machine-readable results to `BENCH_nn.json` at the repository
//! root.
//!
//! Std-only, `harness = false`, like `trees.rs`: each entry is the median
//! wall time of `reps` runs after one warm-up, at the paper's predictor
//! configuration (embedding dim 32, 2-layer LSTM, FC head 16 → 1). The
//! unfused baseline runs the per-gate reference kernels kept in
//! `fastft_nn::reference`; the fused path is
//! `SequenceRegressor::predict_into` (concatenated gate weights, hoisted
//! input GEMM, pooled workspaces). `prefix` measures the engine's
//! suffix-extension pattern through `fastft_core::scoring::PrefixCache`.
//!
//! ```text
//! cargo bench -p fastft-bench --bench nn             # full sweep
//! cargo bench -p fastft-bench --bench nn -- --quick  # CI smoke
//! ```

use fastft_core::scoring::PrefixCache;
use fastft_nn::dense::Dense;
use fastft_nn::embedding::Embedding;
use fastft_nn::lstm::Lstm;
use fastft_nn::matrix::Matrix;
use fastft_nn::{activation::Activation, init, reference, EncoderKind, SequenceRegressor};
use std::cell::Cell;
use std::time::Instant;

const VOCAB: usize = 40;
const DIM: usize = 32;
const LAYERS: usize = 2;
const NSEQ: usize = 32;

/// Median wall time in microseconds of `reps` runs of `f` (one warm-up).
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The pre-fusion predictor inference path: fresh allocations per call,
/// per-gate reference kernels, one matrix per head layer.
struct RefPredictor {
    emb: Embedding,
    lstm: Lstm,
    head: Vec<Dense>,
}

impl RefPredictor {
    fn new(seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let emb = Embedding::new(VOCAB, DIM, &mut rng);
        let lstm = Lstm::new(DIM, DIM, LAYERS, &mut rng);
        let head = vec![
            Dense::new(DIM, 16, Activation::Relu, &mut rng),
            Dense::new(16, 1, Activation::Linear, &mut rng),
        ];
        RefPredictor { emb, lstm, head }
    }

    fn predict(&self, tokens: &[usize]) -> f64 {
        let x = self.emb.infer(tokens);
        let h = reference::lstm_forward(&self.lstm, &x);
        let last = h.data[(h.rows - 1) * h.cols..].to_vec();
        let mut cur = Matrix::from_vec(1, h.cols, last);
        for layer in &self.head {
            cur = layer.infer(&cur);
        }
        cur.data[0]
    }
}

fn fused_predictor(seed: u64) -> SequenceRegressor {
    SequenceRegressor::new(
        VOCAB,
        DIM,
        DIM,
        EncoderKind::Lstm { layers: LAYERS },
        &[16, 1],
        1e-3,
        seed,
    )
}

fn random_seqs(n: usize, len: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = init::rng(seed);
    (0..n).map(|_| (0..len).map(|_| rng.gen_range(0..VOCAB)).collect()).collect()
}

struct Record {
    seq_len: usize,
    ref_predict_us: f64,
    fused_predict_us: f64,
    batch_predict_us: f64,
    ref_extend_us: f64,
    cached_extend_us: f64,
    train_step_us: f64,
}

fn bench_case(seq_len: usize, reps: usize, out: &mut Vec<Record>) {
    println!("== seq_len {seq_len} (dim {DIM}, {LAYERS}-layer LSTM, head 16->1) ==");
    let reference = RefPredictor::new(7);
    let fused = fused_predictor(7);
    let seqs = random_seqs(NSEQ, seq_len, 100 + seq_len as u64);
    let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
    let per_seq = |total: f64| total / NSEQ as f64;

    // Single-sequence inference, NSEQ sequences per rep.
    let ref_predict = per_seq(time_us(reps, || {
        for s in &seqs {
            std::hint::black_box(reference.predict(s));
        }
    }));
    let fused_predict = per_seq(time_us(reps, || {
        let mut got = [0.0];
        for s in &seqs {
            fused.predict_into(s, &mut got);
            std::hint::black_box(got[0]);
        }
    }));
    let batch_predict = per_seq(time_us(reps, || {
        std::hint::black_box(fused.predict_batch(&refs));
    }));
    println!(
        "  predict   ref {ref_predict:>9.1} us | fused {fused_predict:>9.1} us \
         | batch{NSEQ} {batch_predict:>9.1} us | {:.2}x fused",
        ref_predict / fused_predict
    );

    // The engine's suffix-extension pattern: score every prefix of a
    // growing sequence, one new token at a time. The cached path keeps a
    // persistent PrefixCache across reps but sees a *fresh* sequence each
    // rep, matching steady-state engine behaviour (per-prefix cost shown).
    let extend_seqs = random_seqs(reps + 2, seq_len, 200 + seq_len as u64);
    let per_prefix = |total: f64| total / seq_len as f64;
    let ref_extend = per_prefix(time_us(reps, || {
        let s = &extend_seqs[0];
        for l in 1..=s.len() {
            std::hint::black_box(reference.predict(&s[..l]));
        }
    }));
    let mut cache = PrefixCache::new(256);
    let rep_idx = Cell::new(0usize);
    let cached_extend = per_prefix(time_us(reps, || {
        let s = &extend_seqs[rep_idx.get() % extend_seqs.len()];
        rep_idx.set(rep_idx.get() + 1);
        let mut got = [0.0];
        for l in 1..=s.len() {
            cache.score_into(&fused, &s[..l], &mut got);
            std::hint::black_box(got[0]);
        }
    }));
    println!(
        "  extend    ref {ref_extend:>9.1} us | cached {cached_extend:>8.1} us | {:.2}x",
        ref_extend / cached_extend
    );

    // Training: one Adam step per sample.
    let mut trainee = fused_predictor(9);
    let train_step = per_seq(time_us(reps, || {
        for s in &seqs {
            std::hint::black_box(trainee.train_step(s, &[0.5]));
        }
    }));
    println!("  train     step {train_step:>8.1} us");

    out.push(Record {
        seq_len,
        ref_predict_us: ref_predict,
        fused_predict_us: fused_predict,
        batch_predict_us: batch_predict,
        ref_extend_us: ref_extend,
        cached_extend_us: cached_extend,
        train_step_us: train_step,
    });
}

fn write_json(records: &[Record], quick: bool) {
    let mut body = String::from("{\n  \"benchmark\": \"nn_fused_vs_reference\",\n");
    body.push_str(&format!(
        "  \"quick\": {quick},\n  \"config\": {{\"vocab\": {VOCAB}, \"dim\": {DIM}, \
         \"lstm_layers\": {LAYERS}, \"head\": [16, 1]}},\n  \"results\": [\n"
    ));
    for (i, r) in records.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"seq_len\": {}, \"ref_predict_us\": {:.2}, \"fused_predict_us\": {:.2}, \
             \"batch_predict_us\": {:.2}, \"speedup_predict\": {:.2}, \
             \"ref_extend_us\": {:.2}, \"cached_extend_us\": {:.2}, \"speedup_extend\": {:.2}, \
             \"train_step_us\": {:.2}}}{}\n",
            r.seq_len,
            r.ref_predict_us,
            r.fused_predict_us,
            r.batch_predict_us,
            r.ref_predict_us / r.fused_predict_us,
            r.ref_extend_us,
            r.cached_extend_us,
            r.ref_extend_us / r.cached_extend_us,
            r.train_step_us,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    // `cargo bench` runs with the package directory as CWD; anchor the
    // output at the workspace root so CI can pick it up at a fixed path.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nn.json");
    std::fs::write(path, &body).expect("write BENCH_nn.json");
    println!("wrote {path}");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("FASTFT_BENCH_QUICK").is_ok_and(|v| v == "1");
    println!(
        "fastft nn fused-kernel benchmark ({}; median wall time)",
        if quick { "quick" } else { "full" }
    );
    let cases: Vec<(usize, usize)> =
        if quick { vec![(8, 3), (24, 3)] } else { vec![(8, 15), (24, 9), (64, 5)] };
    let mut records = Vec::new();
    for &(seq_len, reps) in &cases {
        bench_case(seq_len, reps, &mut records);
    }
    write_json(&records, quick);
}
