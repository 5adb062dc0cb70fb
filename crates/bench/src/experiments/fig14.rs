//! Fig. 14: the impact of the novelty reward — cumulative average novelty
//! distance, number of unencountered feature combinations, and downstream
//! performance, FASTFT vs FASTFT⁻ᴺᴱ.

use crate::report::Table;
use crate::Scale;
use fastft_core::{FastFt, RunResult};

fn series(r: &RunResult) -> Vec<(usize, f64, usize, f64)> {
    // (step, cumulative avg novelty distance, cumulative new combinations,
    //  best-so-far downstream score)
    let mut out = Vec::with_capacity(r.records.len());
    let mut dist_sum = 0.0;
    let mut new_count = 0usize;
    let mut best = r.base_score;
    for (i, rec) in r.records.iter().enumerate() {
        dist_sum += rec.novelty_distance;
        new_count += usize::from(rec.new_combination);
        if !rec.predicted && rec.score > best {
            best = rec.score;
        }
        out.push((i + 1, dist_sum / (i + 1) as f64, new_count, best));
    }
    out
}

/// Run the Fig. 14 reproduction.
pub fn run(scale: Scale) {
    let data = scale.load("pima_indian", 0);
    // Both variants compose the same staged pipeline; −NE only changes the
    // configuration the reward stage sees.
    let full = FastFt::new(scale.fastft_config(0)).fit(&data).expect("FASTFT fit");
    let no_ne =
        FastFt::new(scale.fastft_config(0).without_novelty()).fit(&data).expect("FASTFT fit");
    let a = series(&full);
    let b = series(&no_ne);
    let mut table = Table::new([
        "Step",
        "AvgNovDist FASTFT",
        "AvgNovDist -NE",
        "NewComb FASTFT",
        "NewComb -NE",
        "Best FASTFT",
        "Best -NE",
    ]);
    let n = a.len().min(b.len());
    let stride = (n / 12).max(1);
    for i in (0..n).step_by(stride).chain(std::iter::once(n - 1)) {
        table.row([
            format!("{}", a[i].0),
            format!("{:.3}", a[i].1),
            format!("{:.3}", b[i].1),
            format!("{}", a[i].2),
            format!("{}", b[i].2),
            format!("{:.3}", a[i].3),
            format!("{:.3}", b[i].3),
        ]);
    }
    table.print("Fig. 14 — novelty distance / unencountered combinations / performance");
    println!(
        "final: FASTFT avg-novelty {:.3}, new-combinations {}; -NE avg-novelty {:.3}, new-combinations {}",
        a.last().unwrap().1,
        a.last().unwrap().2,
        b.last().unwrap().1,
        b.last().unwrap().2,
    );
}
