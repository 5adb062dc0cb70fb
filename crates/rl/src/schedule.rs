//! Exploration / weighting schedules.
//!
//! Eq. 6 of the paper anneals the novelty-reward weight as
//! `ε_i = ε_e + (ε_s − ε_e) · e^{−i/M}` from `ε_s` down to `ε_e` over a
//! decay horizon `M` (defaults ε_s = 0.10, ε_e = 0.005, M = 1000).

/// Exponential decay schedule from `start` to `end` with time constant `m`.
#[derive(Debug, Clone, Copy)]
pub struct ExpDecay {
    /// Initial value `ε_s`.
    pub start: f64,
    /// Asymptotic value `ε_e`.
    pub end: f64,
    /// Decay factor `M` (steps).
    pub m: f64,
}

impl ExpDecay {
    /// Value at step `i` (Eq. 6).
    pub fn at(&self, step: usize) -> f64 {
        self.end + (self.start - self.end) * (-(step as f64) / self.m).exp()
    }
}

/// Linear ε-greedy schedule used by the DQN-family agents.
#[derive(Debug, Clone, Copy)]
pub struct LinearDecay {
    /// Initial exploration rate.
    pub start: f64,
    /// Final exploration rate.
    pub end: f64,
    /// Steps over which to anneal.
    pub steps: usize,
}

impl LinearDecay {
    /// Value at step `i`.
    pub fn at(&self, step: usize) -> f64 {
        if step >= self.steps {
            return self.end;
        }
        let frac = step as f64 / self.steps as f64;
        self.start + (self.end - self.start) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's novelty-weight schedule (§V): 0.10 → 0.005 over 1000
    /// steps.
    const PAPER: ExpDecay = ExpDecay { start: 0.10, end: 0.005, m: 1000.0 };

    #[test]
    fn exp_decay_endpoints() {
        let s = PAPER;
        assert!((s.at(0) - 0.10).abs() < 1e-12);
        assert!((s.at(1_000_000) - 0.005).abs() < 1e-9);
    }

    #[test]
    fn exp_decay_monotone() {
        let s = PAPER;
        let mut prev = f64::MAX;
        for i in (0..5000).step_by(100) {
            let v = s.at(i);
            assert!(v <= prev);
            assert!(v >= s.end && v <= s.start);
            prev = v;
        }
    }

    #[test]
    fn exp_decay_time_constant() {
        let s = ExpDecay { start: 1.0, end: 0.0, m: 100.0 };
        assert!((s.at(100) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn linear_decay_clamps() {
        let s = LinearDecay { start: 1.0, end: 0.1, steps: 10 };
        assert_eq!(s.at(0), 1.0);
        assert!((s.at(5) - 0.55).abs() < 1e-12);
        assert_eq!(s.at(10), 0.1);
        assert_eq!(s.at(100), 0.1);
    }
}
