//! Fig. 15: case study on the Cardiovascular analog — the reward trace with
//! the distinct, traceable features generated at its peaks.

use crate::report::Table;
use crate::Scale;
use fastft_core::FastFt;

/// Run the Fig. 15 reproduction.
pub fn run(scale: Scale) {
    let data = scale.load("cardiovascular", 0);
    let r = FastFt::new(scale.fastft_config(0)).fit(&data).expect("FASTFT fit");
    // Find the reward peaks: the top-5 steps by reward that added features.
    let mut peaks: Vec<usize> =
        (0..r.records.len()).filter(|&i| !r.records[i].new_exprs.is_empty()).collect();
    peaks.sort_by(|&a, &b| r.records[b].reward.total_cmp(&r.records[a].reward));
    peaks.truncate(5);
    peaks.sort_unstable();

    let mut table = Table::new(["Step", "Reward", "Score", "Distinct features generated"]);
    for i in peaks {
        let rec = &r.records[i];
        table.row([
            format!("{}.{}", rec.episode, rec.step),
            format!("{:.4}", rec.reward),
            format!("{:.3}", rec.score),
            rec.new_exprs.iter().take(3).cloned().collect::<Vec<_>>().join(", "),
        ]);
    }
    table.print("Fig. 15 — features generated at reward peaks (Cardiovascular)");
    println!("base {:.3} -> best {:.3}; best feature set:", r.base_score, r.best_score);
    for e in r.best_exprs.iter().take(12) {
        println!("  {e}");
    }
}
