//! End-to-end benchmark of full FASTFT searches.
//!
//! ```sh
//! cargo run --release --manifest-path engine_bench/Cargo.toml -- \
//!     --workload eval_bound --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run generates its inputs from `--seed`, writes them to CSV under
//! `.bench_work/` in the current directory and loads them back, so the
//! engine only ever sees generated files. It then searches the inputs
//! round-robin for about `--seconds` seconds and checks every search's
//! output.
//! `--trace 0` measures the end-to-end metrics with the paper's stages as
//! they are; `--trace 1` measures the per-layer metrics with every stage
//! wrapped in a timing decorator, alternating with untraced searches to
//! give the tracing overhead. The last line of standard output is one JSON
//! object; the exit code is non-zero if any check failed. See README.md.

mod stats;
mod trace;
mod workload;

use fastft_core::checkpoint;
use fastft_core::pipeline::{
    AdaptiveRewardModel, CascadeSource, Driver, ReplayLearner, TelemetryCollector,
};
use fastft_core::{report, FastFt, RunResult, Session, StopReason};
use fastft_tabular::{Dataset, FastFtResult};
use stats::{median, percentile};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;
use trace::{LayerTrace, PlainObserver, Timed, TraceObserver};
use workload::{Input, Workload};

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Times each search's final checkpoint is read and resumed from.
const RESUME_REPEATS: usize = 15;

/// What one search measured, and which of its checks failed.
struct Search {
    input: usize,
    /// CSV load through `RunStarted`: load, `Session`/`Driver`
    /// construction and the base-score evaluation.
    setup_s: f64,
    /// `RunStarted` until `execute` returned.
    search_s: f64,
    csv_read_s: f64,
    /// `FastFt::resume` from the final checkpoint.
    resume_s: f64,
    /// `checkpoint::read` of the final checkpoint.
    ckpt_read_s: f64,
    ckpt_bytes: u64,
    result: RunResult,
    trace: Option<LayerTrace>,
    failures: Vec<String>,
}

/// Run one search on `input` and check its output.
fn run_search(wl: &Workload, index: usize, input: &Input, traced: bool) -> FastFtResult<Search> {
    let t0 = Instant::now();
    let data = wl.load(input)?;
    let csv_read_s = t0.elapsed().as_secs_f64();
    let session = Session::new(wl.config(input))?;
    let (cfg, runtime) = (session.cfg(), session.runtime());

    let (result, collector, setup_s, search_s, trace) = if traced {
        let shared = Rc::new(RefCell::new(LayerTrace::new(t0)));
        let driver = Driver::with_stages(
            cfg,
            &data,
            runtime,
            Timed::new(CascadeSource, &shared),
            Timed::new(AdaptiveRewardModel, &shared),
            Timed::new(ReplayLearner, &shared),
        );
        let mut obs =
            TraceObserver { trace: Rc::clone(&shared), collector: TelemetryCollector::new() };
        {
            let mut t = shared.borrow_mut();
            t.exec_entered = t.now();
        }
        let result = driver.execute(&mut obs)?;
        let end = shared.borrow().now();
        let TraceObserver { trace: observer_trace, collector } = obs;
        drop(observer_trace);
        let trace = Rc::try_unwrap(shared).expect("the driver and observer are gone").into_inner();
        let started = trace.run_started.expect("every run emits RunStarted");
        (result, collector, started, end - started, Some(trace))
    } else {
        let mut obs = PlainObserver::default();
        let result = Driver::new(cfg, &data, runtime).execute(&mut obs)?;
        let end = Instant::now();
        let started = obs.run_started.expect("every run emits RunStarted");
        let setup_s = (started - t0).as_secs_f64();
        (result, obs.collector, setup_s, (end - started).as_secs_f64(), None)
    };

    let mut failures = check_result(wl, &data, &session, &result, &collector)?;

    // Reads and resumes take milliseconds: time several, keep the median.
    let mut read_times = Vec::new();
    let mut resume_times = Vec::new();
    let mut resumed = None;
    for _ in 0..RESUME_REPEATS {
        let t = Instant::now();
        checkpoint::read(&input.checkpoint)?;
        read_times.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        resumed = Some(FastFt::resume(&input.checkpoint, &data)?);
        resume_times.push(t.elapsed().as_secs_f64());
    }
    let resumed = resumed.expect("RESUME_REPEATS is at least 1");
    let ckpt_read_s = median(&read_times).expect("RESUME_REPEATS is at least 1");
    let resume_s = median(&resume_times).expect("RESUME_REPEATS is at least 1");
    let ckpt_bytes = std::fs::metadata(&input.checkpoint)
        .map_err(|e| fastft_tabular::FastFtError::io(&input.checkpoint, &e))?
        .len();
    if resumed.best_score.to_bits() != result.best_score.to_bits() {
        failures.push(format!(
            "resumed best_score {} != original {}",
            resumed.best_score, result.best_score
        ));
    }
    if resumed.records != result.records {
        failures.push("resumed step records differ from the original run".into());
    }

    Ok(Search {
        input: index,
        setup_s,
        search_s,
        csv_read_s,
        resume_s,
        ckpt_read_s,
        ckpt_bytes,
        result,
        trace,
        failures,
    })
}

/// The correctness checks every search's output must pass.
fn check_result(
    wl: &Workload,
    data: &Dataset,
    session: &Session,
    result: &RunResult,
    collector: &TelemetryCollector,
) -> FastFtResult<Vec<String>> {
    let mut failures = Vec::new();
    if result.stop_reason != StopReason::Completed {
        failures.push(format!("stop_reason {} instead of completed", result.stop_reason));
    }
    let steps = wl.episodes * wl.steps;
    if result.records.len() != steps {
        failures.push(format!("{} step records, expected {steps}", result.records.len()));
    }

    let (t, c) = (&result.telemetry, collector.telemetry());
    let counters = [
        ("downstream_evals", t.downstream_evals, c.downstream_evals),
        ("cache_hits", t.cache_hits, c.cache_hits),
        ("cache_evictions", t.cache_evictions, c.cache_evictions),
        ("predictor_calls", t.predictor_calls, c.predictor_calls),
        ("eval_faults", t.eval_faults, c.eval_faults),
        ("quarantined", t.quarantined, c.quarantined),
        ("weight_rollbacks", t.weight_rollbacks, c.weight_rollbacks),
        ("steps", result.records.len(), collector.steps()),
        ("episodes", wl.episodes, collector.episodes()),
        ("checkpoints", wl.checkpoints(), collector.checkpoints()),
    ];
    for (name, run, events) in counters {
        if run != events {
            failures.push(format!("{name}: run reports {run}, events give {events}"));
        }
    }

    // The best feature set, rebuilt from its expressions and re-scored,
    // must reproduce the reported score bit for bit.
    let rebuilt = report::apply_feature_set(data, &result.best_exprs)?;
    let rescored = session.cfg().evaluator.evaluate_with(session.runtime(), &rebuilt)?;
    if rescored.to_bits() != result.best_score.to_bits() {
        failures
            .push(format!("best_exprs re-score to {rescored}, run reported {}", result.best_score));
    }
    Ok(failures)
}

/// Median per input, then the mean over inputs: each input counts once
/// however many times it was searched.
fn per_input(searches: &[Search], inputs: usize, f: impl Fn(&Search) -> f64) -> f64 {
    let medians: Vec<f64> = (0..inputs)
        .filter_map(|i| {
            let v: Vec<f64> = searches.iter().filter(|s| s.input == i).map(&f).collect();
            median(&v)
        })
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mib() -> Option<f64> {
    stats::parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(wl: &Workload, searches: &[Search], peak_rss_mb: f64) -> Vec<Metric> {
    let n = wl.inputs;
    vec![
        ("search_s", per_input(searches, n, |s| s.search_s), "s"),
        ("setup_s", per_input(searches, n, |s| s.setup_s), "s"),
        ("best_score", per_input(searches, n, |s| s.result.best_score), "score"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("resume_s", per_input(searches, n, |s| s.resume_s), "s"),
    ]
}

/// Per-layer metrics from the traced searches; `_s` metrics and counts are
/// per search, `_p50` metrics over every call of every traced search.
fn per_layer(wl: &Workload, plain: &[Search], traced: &[Search]) -> Vec<Metric> {
    let traces: Vec<&LayerTrace> = traced.iter().filter_map(|s| s.trace.as_ref()).collect();
    let n = traces.len().max(1) as f64;
    let sum = |f: &dyn Fn(&LayerTrace) -> f64| traces.iter().map(|t| f(t)).sum::<f64>();
    let all = |f: &dyn Fn(&LayerTrace) -> &Vec<f64>| -> Vec<f64> {
        traces.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let p50 = |v: Vec<f64>| percentile(&v, 0.5).unwrap_or(0.0);
    let total = |v: &[f64]| v.iter().sum::<f64>();
    let busy = |t: &LayerTrace| t.busy().iter().map(|(_, secs)| secs).sum::<f64>();
    let results = || traced.iter().map(|s| &s.result);
    let count = |f: &dyn Fn(&RunResult) -> usize| results().map(f).sum::<usize>() as f64;

    let search_s: f64 = traced.iter().map(|s| s.search_s).sum();
    let other_s: f64 = traced.iter().zip(&traces).map(|(s, t)| s.search_s - busy(t)).sum();
    let records = count(&|r| r.records.len());
    let evaluated = count(&|r| r.records.iter().filter(|x| !x.predicted).count());
    let improved = count(&|r| {
        let mut best = r.base_score;
        r.records
            .iter()
            .filter(|x| {
                let up = !x.predicted && x.score > best;
                if up {
                    best = x.score;
                }
                up
            })
            .count()
    });
    let hits = count(&|r| r.telemetry.cache_hits);
    let cv_runs = count(&|r| r.telemetry.downstream_evals);
    let prefix_hits = count(&|r| r.telemetry.prefix_hits as usize);
    let prefix_all = prefix_hits + count(&|r| r.telemetry.prefix_misses as usize);
    let rounds = sum(&|t| t.train.len() as f64);
    let train_s = sum(&|t| total(&t.train));
    let applies = sum(&|t| t.apply.len() as f64);
    let untraced_search = per_input(plain, wl.inputs, |s| s.search_s);
    let traced_search = per_input(traced, wl.inputs, |s| s.search_s);

    vec![
        ("ml.eval.calls", sum(&|t| t.evals.len() as f64) / n, "count"),
        ("ml.eval.busy_s", sum(&|t| total(&t.evals)) / n, "s"),
        ("ml.eval.ms_p50", p50(all(&|t| &t.evals)) * 1e3, "ms"),
        ("reward.self_s", sum(&|t| t.reward_self_secs) / n, "s"),
        ("reward.eval_frac", ratio(evaluated, records), "frac"),
        ("reward.cache_hit_frac", ratio(hits, hits + cv_runs), "frac"),
        ("reward.improve_frac", ratio(improved, evaluated), "frac"),
        ("reward.prefix_hit_frac", ratio(prefix_hits, prefix_all), "frac"),
        ("learner.train_s", train_s / n, "s"),
        ("learner.train_rounds", rounds / n, "count"),
        ("learner.train_ms_per_round", ratio(train_s, rounds) * 1e3, "ms"),
        ("learner.rollbacks", sum(&|t| t.rollbacks as f64) / n, "count"),
        ("learner.absorb_s", sum(&|t| total(&t.absorb)) / n, "s"),
        ("learner.absorb_us_p50", p50(all(&|t| &t.absorb)) * 1e6, "us"),
        ("source.survey_s", sum(&|t| total(&t.survey)) / n, "s"),
        ("source.survey_ms_p50", p50(all(&|t| &t.survey)) * 1e3, "ms"),
        ("source.select_s", sum(&|t| total(&t.select)) / n, "s"),
        ("source.apply_s", sum(&|t| total(&t.apply)) / n, "s"),
        ("source.apply_ms_p50", p50(all(&|t| &t.apply)) * 1e3, "ms"),
        ("source.produced_frac", ratio(sum(&|t| t.produced as f64), applies), "frac"),
        ("ckpt.writes", sum(&|t| t.ckpt_writes.len() as f64) / n, "count"),
        ("ckpt.write_ms_p50", p50(all(&|t| &t.ckpt_writes)) * 1e3, "ms"),
        ("ckpt.bytes", traced.iter().map(|s| s.ckpt_bytes as f64).sum::<f64>() / n, "B"),
        (
            "ckpt.read_ms",
            median(&traced.iter().map(|s| s.ckpt_read_s).collect::<Vec<_>>()).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        ("driver.other_s", other_s / n, "s"),
        ("driver.other_frac", ratio(other_s, search_s), "frac"),
        ("setup.csv_read_s", traced.iter().map(|s| s.csv_read_s).sum::<f64>() / n, "s"),
        (
            "setup.base_eval_s",
            sum(&|t| t.base_eval_end.unwrap_or(t.exec_entered) - t.exec_entered) / n,
            "s",
        ),
        ("trace.overhead_frac", ratio(traced_search, untraced_search) - 1.0, "frac"),
    ]
}

/// Human-readable attribution table and the cross-check against the
/// program's own `Telemetry` timers, per traced search.
fn print_attribution(traced: &[Search], layers: &[Metric]) {
    let get = |name: &str| layers.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let n = traced.len().max(1) as f64;
    let search_s = traced.iter().map(|s| s.search_s).sum::<f64>() / n;
    let rows = traced.iter().filter_map(|s| s.trace.as_ref()).map(LayerTrace::busy).reduce(
        |mut sums, busy| {
            for (sum, (_, secs)) in sums.iter_mut().zip(busy) {
                sum.1 += secs;
            }
            sums
        },
    );
    println!("layer attribution over {} traced searches (seconds per search):", traced.len());
    let mut accounted = 0.0;
    let rows = rows.into_iter().flatten().map(|(name, secs)| (name, secs / n));
    for (name, secs) in rows.chain([("driver.other_s", get("driver.other_s"))]) {
        accounted += secs;
        println!("  {name:<20} {secs:>10.4}  {:>6.2}%", 100.0 * ratio(secs, search_s));
    }
    println!("  {:<20} {accounted:>10.4}  = search_s {search_s:.4}", "sum");

    let tel = |f: &dyn Fn(&RunResult) -> f64| traced.iter().map(|s| f(&s.result)).sum::<f64>() / n;
    let cross = [
        (
            "evaluation_secs",
            tel(&|r| r.telemetry.evaluation_secs),
            get("ml.eval.busy_s") + get("setup.base_eval_s"),
            "ml.eval.busy_s + setup.base_eval_s",
        ),
        (
            "estimation_secs",
            tel(&|r| r.telemetry.estimation_secs),
            get("reward.self_s") + get("learner.train_s"),
            "reward.self_s + learner.train_s",
        ),
        (
            "optimization_secs",
            tel(&|r| r.telemetry.optimization_secs),
            get("source.survey_s") + get("source.select_s") + get("learner.absorb_s"),
            "source.survey_s + source.select_s + learner.absorb_s",
        ),
    ];
    println!("cross-check against the run's Telemetry (seconds per search):");
    for (field, program, spans, from) in cross {
        println!(
            "  {field:<18} program {program:.4}  spans {spans:.4}  diff {:+.4}  ({from})",
            spans - program
        );
    }
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { format!("{value}") } else { "null".into() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("engine_bench: {e}");
            eprintln!(
                "usage: --workload <eval_bound|train_bound|wide_ckpt> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("engine_bench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run the benchmark; `Ok(false)` if any search failed a check.
fn run(args: &Args) -> FastFtResult<bool> {
    let wl = &args.workload;
    let dir =
        Path::new(".bench_work").join(format!("{}-{}-{}", wl.name, args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| fastft_tabular::FastFtError::io(&dir, &e))?;
    let work = WorkDir(dir);
    let inputs = wl.write_inputs(&work.0, args.seed)?;

    // The traced run searches half the inputs twice, untraced then traced,
    // so that it takes about as long as an untraced run.
    let measured = if args.trace { inputs.len().div_ceil(2) } else { inputs.len() };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    // Round-robin over the inputs: every input once, then more searches
    // only while the next one is expected to end within `--seconds`.
    // Peak memory after the first search and its checks: the high-water
    // mark then covers a fixed amount of work, however many searches the
    // time allows.
    let mut peak_rss_mb = f64::NAN;
    for (done, i) in (0..measured).cycle().enumerate() {
        let elapsed = t0.elapsed().as_secs_f64();
        if done == 1 {
            peak_rss_mb = peak_rss_mib().unwrap_or(f64::NAN);
        }
        if done >= measured && elapsed * (done + 1) as f64 / done as f64 > args.seconds {
            break;
        }
        plain.push(run_search(wl, i, &inputs[i], false)?);
        if args.trace {
            traced.push(run_search(wl, i, &inputs[i], true)?);
        }
    }

    let searches = plain.iter().chain(&traced);
    let mut failed = 0;
    let mut attempted = 0;
    for s in searches.clone() {
        let t = &s.result.telemetry;
        println!(
            "input {} seed {}: setup {:.4} s, search {:.4} s, best {} (base {}), {} CV runs, {} cache hits, {} eval faults, {} quarantined, resume {:.4} s{}",
            s.input,
            inputs[s.input].seed,
            s.setup_s,
            s.search_s,
            s.result.best_score,
            s.result.base_score,
            t.downstream_evals,
            t.cache_hits,
            t.eval_faults,
            t.quarantined,
            s.resume_s,
            if s.trace.is_some() { " [traced]" } else { "" },
        );
        for f in &s.failures {
            println!("  CHECK FAILED: {f}");
        }
        attempted += t.downstream_evals + 1;
        failed += t.eval_faults + usize::from(!s.failures.is_empty());
    }
    let correct = searches.clone().all(|s| s.failures.is_empty());

    let metrics = if args.trace {
        let layers = per_layer(wl, &plain, &traced);
        print_attribution(&traced, &layers);
        layers
    } else {
        end_to_end(wl, &plain, peak_rss_mb)
    };
    println!(
        "workload {} seed {}: {} searches over {measured} inputs",
        wl.name,
        args.seed,
        plain.len() + traced.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload wide_ckpt --seed 9 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload.name, "wide_ckpt");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload eval_bound --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload eval_bound --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload eval_bound --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("search_s", 1.5, "s"), ("x", f64::NAN, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"search_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
