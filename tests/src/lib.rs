//! Host crate for the cross-crate integration tests; the test modules live
//! in the sibling `tests/` directory.

/// Worker lanes for the engine runs of the parity and crash-safety suites:
/// `FASTFT_THREADS` when it holds a positive count, else 1. A plain
/// `cargo test` runs them serially; CI's parallel gate sets
/// `FASTFT_THREADS=4` to run the same suites, with the same golden bits,
/// on four lanes.
pub fn test_threads() -> usize {
    std::env::var("FASTFT_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}
