//! Fit-time benchmark for the downstream tree stack (tree / forest /
//! boosting, all on the histogram split search), writing machine-readable
//! results to `BENCH_trees.json` at the repository root.
//!
//! Std-only, `harness = false`, like `micro.rs`: each entry is the median
//! wall time of `reps` fits after one warm-up. Pass `--quick` (or set
//! `FASTFT_BENCH_QUICK=1`) for the reduced CI smoke variant that skips
//! the large configurations.
//!
//! ```text
//! cargo bench -p fastft-bench --bench trees             # full sweep
//! cargo bench -p fastft-bench --bench trees -- --quick  # CI smoke
//! ```

use fastft_ml::boosting::{BoostParams, GradientBoostingClassifier};
use fastft_ml::forest::{ForestParams, RandomForestClassifier};
use fastft_ml::tree::{CartParams, DecisionTreeClassifier};
use fastft_tabular::datagen;
use std::time::Instant;

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

struct BenchCase {
    dataset: &'static str,
    rows: usize,
    /// Models fitted on this config ("tree" always; the ensembles too
    /// unless `false`).
    ensembles: bool,
    reps: usize,
}

struct Record {
    dataset: String,
    rows: usize,
    cols: usize,
    model: &'static str,
    fit_us: f64,
}

fn bench_case(case: &BenchCase, out: &mut Vec<Record>) {
    let spec = datagen::by_name(case.dataset).unwrap();
    let mut data = datagen::generate_capped(spec, case.rows, 0);
    data.sanitize();
    let cols: Vec<Vec<f64>> = data.features.iter().map(|c| c.values.clone()).collect();
    let y = data.class_labels();
    let n = y.len();
    let d = cols.len();
    println!("== {} ({n} rows x {d} cols) ==", case.dataset);
    let mut record = |model: &'static str, fit_us: f64| {
        println!("  {model:<8} {fit_us:>10.1} us");
        out.push(Record { dataset: case.dataset.into(), rows: n, cols: d, model, fit_us });
    };

    record(
        "tree",
        time_us(case.reps, || {
            let mut t = DecisionTreeClassifier::new(CartParams::default(), 0);
            t.fit(&cols, &y, data.n_classes);
            std::hint::black_box(t.n_nodes());
        }),
    );
    if !case.ensembles {
        return;
    }
    record(
        "forest",
        time_us(case.reps, || {
            let mut f = RandomForestClassifier::new(ForestParams::default(), 0);
            f.fit(&cols, &y, data.n_classes);
            std::hint::black_box(f.feature_importances().len());
        }),
    );
    record(
        "boosting",
        time_us(case.reps, || {
            let mut g = GradientBoostingClassifier::new(BoostParams::default(), 0);
            g.fit(&cols, &y, data.n_classes);
            std::hint::black_box(&g);
        }),
    );
}

fn write_json(records: &[Record], quick: bool) {
    let mut body = String::from("{\n  \"benchmark\": \"tree_stack_histogram_fit\",\n");
    body.push_str(&format!("  \"quick\": {quick},\n  \"results\": [\n"));
    for (i, r) in records.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"rows\": {}, \"cols\": {}, \"model\": \"{}\", \
             \"fit_us\": {:.1}}}{}\n",
            r.dataset,
            r.rows,
            r.cols,
            r.model,
            r.fit_us,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    // `cargo bench` runs with the package directory as CWD; anchor the
    // output at the workspace root so CI can pick it up at a fixed path.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trees.json");
    std::fs::write(path, &body).expect("write BENCH_trees.json");
    println!("wrote {path}");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("FASTFT_BENCH_QUICK").is_ok_and(|v| v == "1");
    println!(
        "fastft tree-stack fit benchmark ({}; median wall time)",
        if quick { "quick" } else { "full" }
    );
    let cases: Vec<BenchCase> = if quick {
        vec![BenchCase { dataset: "pima_indian", rows: 500, ensembles: true, reps: 2 }]
    } else {
        vec![
            BenchCase { dataset: "pima_indian", rows: 768, ensembles: true, reps: 5 },
            BenchCase { dataset: "adult", rows: 6000, ensembles: true, reps: 3 },
            // Largest config: single tree only, to keep the full sweep short.
            BenchCase { dataset: "jannis", rows: 20000, ensembles: false, reps: 3 },
        ]
    };
    let mut records = Vec::new();
    for case in &cases {
        bench_case(case, &mut records);
    }
    write_json(&records, quick);
}
