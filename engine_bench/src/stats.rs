//! The benchmark's own arithmetic: percentiles, the self time of a
//! `RewardModel::score` call with its nested evaluation spans taken out,
//! and `VmHWM` parsing.

/// Percentile of `values` by linear interpolation between the two nearest
/// ranks, `q` in `[0, 1]`. `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (the `VmHWM:` line, which the kernel reports in kB).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// Splits one `RewardModel::score` call into downstream-evaluation time and
/// the reward model's self time.
///
/// Events carry no timings, so evaluation spans are inferred from their
/// order. On the cold path the evaluation is the first thing `score` does,
/// so a span opens at `score` entry. On the warm path it can only follow
/// predictor/novelty inference, so a span opens at the `PredictorCalled`
/// event. Every `DownstreamEvaluated` event closes the open span and opens
/// the next one at once: a faulted evaluation retries immediately. Spans
/// that end in a memo-cache hit ran no cross-validation and stay in self
/// time. Whatever remains open at `score` exit is self time.
#[derive(Debug, Default, Clone)]
pub struct ScoreClock {
    entered: Option<f64>,
    cold: bool,
    open: Option<f64>,
    evals: Vec<f64>,
}

/// One finished `score` call, split by [`ScoreClock`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreSplit {
    /// Time inside downstream cross-validation.
    pub eval_secs: f64,
    /// The rest of the call: inference, trigger, memo lookups.
    pub self_secs: f64,
    /// Duration of each cross-validation run, in order.
    pub evals: Vec<f64>,
}

impl ScoreClock {
    /// `score` was entered at time `t`.
    pub fn enter(&mut self, t: f64, cold: bool) {
        *self = ScoreClock { entered: Some(t), cold, open: cold.then_some(t), ..Self::default() };
    }

    /// Whether a `score` call is in progress.
    pub fn active(&self) -> bool {
        self.entered.is_some()
    }

    /// A `PredictorCalled` event at time `t`.
    pub fn predictor_called(&mut self, t: f64) {
        if self.active() && !self.cold {
            self.open = Some(t);
        }
    }

    /// A `DownstreamEvaluated` event at time `t`.
    pub fn downstream(&mut self, t: f64, cache_hit: bool) {
        if let Some(start) = self.open.replace(t) {
            if !cache_hit {
                self.evals.push(t - start);
            }
        }
    }

    /// `score` returned at time `t`; `None` if it was never entered.
    pub fn exit(&mut self, t: f64) -> Option<ScoreSplit> {
        let entered = self.entered?;
        let evals = std::mem::take(self).evals;
        let eval_secs: f64 = evals.iter().sum();
        Some(ScoreSplit { eval_secs, self_secs: t - entered - eval_secs, evals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert!(close(percentile(&v, 0.25).unwrap(), 1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 1024 MB\n"), None);
    }

    #[test]
    fn cold_score_opens_its_eval_span_at_entry() {
        // entry 0 → CV ends 5 → novelty inference event 6 → exit 7.
        let mut c = ScoreClock::default();
        c.enter(0.0, true);
        c.downstream(5.0, false);
        c.predictor_called(6.0);
        let s = c.exit(7.0).unwrap();
        assert_eq!(s.evals, vec![5.0]);
        assert!(close(s.eval_secs, 5.0) && close(s.self_secs, 2.0));
        assert!(!c.active());
    }

    #[test]
    fn warm_score_opens_its_eval_span_at_inference() {
        // entry 0 → inference event 1 → triggered CV ends 4 → exit 4.5.
        let mut c = ScoreClock::default();
        c.enter(0.0, false);
        c.predictor_called(1.0);
        c.downstream(4.0, false);
        let s = c.exit(4.5).unwrap();
        assert!(close(s.eval_secs, 3.0) && close(s.self_secs, 1.5));
    }

    #[test]
    fn untriggered_warm_score_is_all_self_time() {
        let mut c = ScoreClock::default();
        c.enter(10.0, false);
        c.predictor_called(11.0);
        let s = c.exit(11.25).unwrap();
        assert!(s.evals.is_empty());
        assert!(close(s.eval_secs, 0.0) && close(s.self_secs, 1.25));
    }

    #[test]
    fn retries_and_cache_hits_split_correctly() {
        // Cold: faulted CV ends 2, retry ends 5.
        let mut c = ScoreClock::default();
        c.enter(0.0, true);
        c.downstream(2.0, false);
        c.downstream(5.0, false);
        let s = c.exit(5.5).unwrap();
        assert_eq!(s.evals, vec![2.0, 3.0]);
        assert!(close(s.self_secs, 0.5));
        // Cold memo hit: no CV ran.
        c.enter(0.0, true);
        c.downstream(0.25, true);
        let s = c.exit(1.0).unwrap();
        assert!(s.evals.is_empty() && close(s.self_secs, 1.0));
    }

    #[test]
    fn events_outside_score_are_ignored() {
        // The base evaluation fires before any `score` call.
        let mut c = ScoreClock::default();
        c.downstream(1.0, false);
        c.predictor_called(2.0);
        assert!(!c.active());
        assert_eq!(c.exit(3.0), None);
    }
}
