//! The closed loop behind the end-to-end workloads, and the end-to-end
//! metrics it yields.
//!
//! One client sends one request at a time. Each pass visits every input
//! once, in a seeded order, so machine drift falls on all inputs alike
//! and every input contributes the same number of samples.

use crate::expected::{Fatal, Loaded, Outcome, Tally};
use crate::json::Metric;
use crate::schedule;
use crate::stats::{geomean, median, min, quantile, sorted, tail_quantile};
use std::time::Instant;

/// Fewest passes per run: enough that the tail quantile always lies in
/// the slowest input's band (see [`tail_quantile`]).
pub const MIN_PASSES: usize = 14;
/// Rounds per run. Each round sets up afresh and then sends its share of
/// the traffic, so the set-ups behind `setup_s` are spread over the run
/// instead of all meeting the one machine state at its start.
pub const ROUNDS: usize = 5;
/// Stop adding passes after this long even below [`MIN_PASSES`], so a
/// slow machine still finishes well inside its time limit.
const MAX_SECONDS: f64 = 120.0;

/// What one end-to-end run measured.
pub struct Run {
    /// Seconds of each round's set-up.
    pub setups: Vec<f64>,
    pub traffic: Traffic,
    pub peak_rss_mib: f64,
}

pub struct Traffic {
    /// Times to verdict in ms, per input, of the requests that succeeded.
    per_input: Vec<Vec<f64>>,
    /// Wall-clock seconds of each pass.
    passes: Vec<f64>,
    pub tally: Tally,
}

impl Traffic {
    pub fn new(inputs: usize) -> Traffic {
        Traffic {
            per_input: vec![Vec::new(); inputs],
            passes: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// One round's traffic: passes until `seconds` have passed and the
    /// round has its share of [`MIN_PASSES`]. `request(input, pass)`
    /// returns the time to verdict in ms and the report; every report is
    /// checked. Pass numbers run on across rounds, so every pass of a run
    /// has its own seeded order.
    pub fn round(
        &mut self,
        inputs: &[Loaded],
        seed: u64,
        seconds: f64,
        mut request: impl FnMut(usize, usize) -> Result<(f64, Outcome), String>,
    ) -> Result<(), Fatal> {
        let started = Instant::now();
        let min_passes = MIN_PASSES.div_ceil(ROUNDS);
        for round_pass in 0.. {
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed >= MAX_SECONDS / ROUNDS as f64
                || (round_pass >= min_passes && elapsed >= seconds)
            {
                break;
            }
            let pass = self.passes.len();
            let pass_started = Instant::now();
            for i in schedule::pass_order(seed, pass, inputs.len()) {
                self.tally.requests += 1;
                let verdict = match request(i, pass) {
                    Ok((ms, outcome)) => inputs[i].check(&outcome)?.map(|()| (ms, outcome)),
                    Err(why) => Err(format!("{}: {why}", inputs[i].input.stem)),
                };
                match verdict {
                    Ok((ms, outcome)) => {
                        self.per_input[i].push(ms);
                        self.tally.add(&outcome);
                    }
                    Err(why) => {
                        eprintln!("request failed: {why}");
                        self.tally.errors += 1;
                    }
                }
            }
            self.passes.push(pass_started.elapsed().as_secs_f64());
        }
        match self.per_input.iter().position(Vec::is_empty) {
            Some(i) => Err(Fatal(format!(
                "no request on {} succeeded",
                inputs[i].input.stem
            ))),
            None => Ok(()),
        }
    }
}

/// Check a set-up request; a wrong answer there stops the run.
pub fn check_setup(input: &Loaded, outcome: &Outcome) -> Result<(), Fatal> {
    input
        .check(outcome)?
        .map_err(|why| Fatal(format!("set-up request: {why}")))
}

/// A metric with a line saying what it was computed from.
pub type Row = (Metric, String);

/// The end-to-end metrics of one run: those the result line carries, then
/// those printed for people only.
///
/// The one timing in the result line besides `setup_s` is best-of: the
/// geometric mean of each input's fastest request. On a shared 2-core
/// host each processor alternates, every few seconds, between a fast state
/// and one up to 1.5× slower, and the share of a run spent in the slow
/// state varies, so medians move by 5-15% from run to run. Nearly every
/// run reaches the fast state on every input, so the fastest times move
/// less. The medians, the tail and the pass times are printed for people.
pub fn end_to_end(run: &Run) -> (Vec<Row>, Vec<Row>) {
    let (setups, t) = (&run.setups, &run.traffic);
    let all: Vec<f64> = t.per_input.iter().flatten().copied().collect();
    let all_sorted = sorted(&all);
    let q = tail_quantile(all.len(), t.per_input.len());
    let bests: Vec<f64> = t.per_input.iter().map(|v| min(v)).collect();
    let medians: Vec<f64> = t.per_input.iter().map(|v| median(v)).collect();
    let n = all.len();
    let inputs = t.per_input.len();
    let passes = t.passes.len();
    let tally = &t.tally;
    let gated = vec![
        (
            Metric::new("setup_s", median(setups), "s"),
            format!("median of {} set-ups, one per round", setups.len()),
        ),
        (
            Metric::new("best_geomean_ms", geomean(&bests), "ms"),
            format!("geometric mean of {inputs} per-input fastest times, {passes} requests each"),
        ),
        (
            Metric::new("decided_ratio", tally.decided_ratio(), "ratio"),
            format!(
                "{} proved + {} refuted of {} obligations",
                tally.proved, tally.refuted, tally.obligations
            ),
        ),
        (
            Metric::new("unbounded_ratio", tally.unbounded_ratio(), "ratio"),
            format!("{} of {} proved obligations", tally.unbounded, tally.proved),
        ),
        (
            Metric::new("correct_ratio", 1.0 - tally.error_ratio(), "ratio"),
            format!(
                "{} of {} requests correct",
                tally.requests - tally.errors,
                tally.requests
            ),
        ),
        (
            Metric::new("peak_rss_mb", run.peak_rss_mib, "MiB"),
            "peak resident set".to_owned(),
        ),
    ];
    let tail = quantile(&all_sorted, q);
    let shown = vec![
        (
            Metric::new("verify_p50_ms", quantile(&all_sorted, 0.5), "ms"),
            format!("median of {n} requests"),
        ),
        (
            Metric::new("verify_tail_ms", tail, "ms"),
            format!(
                "p{:.1} of {n} requests ({} beyond it)",
                q * 100.0,
                all_sorted.iter().filter(|&&v| v > tail).count()
            ),
        ),
        (
            Metric::new("file_geomean_ms", geomean(&medians), "ms"),
            format!("geometric mean of {inputs} per-input medians, {passes} requests each"),
        ),
        (
            Metric::new("suite_s", median(&t.passes), "s"),
            format!("median of {passes} passes over every input"),
        ),
        (
            Metric::new("best_suite_s", min(&t.passes), "s"),
            format!("fastest of {passes} passes over every input"),
        ),
        (
            Metric::new("error_ratio", tally.error_ratio(), "ratio"),
            format!(
                "{} of {} requests failed, refused or wrong",
                tally.errors, tally.requests
            ),
        ),
    ];
    (gated, shown)
}
