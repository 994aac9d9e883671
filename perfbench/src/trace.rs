//! The traced run: per-layer metrics.
//!
//! Layer times come from timing, here, the calls into each layer's public
//! functions: `jahob_javalite::{parse_program, resolve}`,
//! `jahob_vcgen::method_obligations`,
//! `jahob_logic::transform::{simplify, split_conjuncts}`, and
//! `jahob::normalize` with `jahob::goal_cache::fingerprint`. Prover and
//! dispatch times come from the `attempt` and `obligation.end` events the
//! verifier already sends to a `MemorySink`; counts come from those events
//! and the report's stats. Requests run in process, in the workload's
//! mode: a fresh session per request for the cold workloads, one primed
//! session for the warm one.

use crate::edit::{self, EditPlan};
use crate::expected::{all_inputs, Fatal, Input, Loaded, Outcome};
use crate::json::Metric;
use crate::schedule;
use crate::stats::{median, ratio};
use crate::warm::{self, Daemon};
use jahob::{
    Config, ConfigBuilder, Event, Isolation, MemorySink, RequestOptions, Verifier, VerifyReport,
};
use jahob_javalite::{parse_program, resolve};
use jahob_logic::transform::{simplify, split_conjuncts};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Prover rows. The bounded model finder runs twice per piece: the
/// attempt before `fol-resolution` is the refute pass, the one after it
/// the bounded-validity pass.
pub const PROVERS: [&str; 7] = [
    "hol-auto",
    "presburger",
    "bapa",
    "nelson-oppen",
    "fol-resolution",
    "bmc-refute",
    "bmc-validity",
];

/// Rounds of the service-overhead comparison.
const SERVICE_ROUNDS: usize = 10;

/// The benchmark's pinned configuration, explicit rather than read from
/// the environment: one worker, in-process provers, goal cache on, no
/// persistent cache, racing, adaptive ordering and slicing off.
pub fn pinned() -> ConfigBuilder {
    Config::builder()
        .workers(1)
        .goal_cache(true)
        .isolation(Isolation::InProcess)
        .racing(false)
        .adaptive(false)
        .slicing(false)
}

/// Work counts of one pass; they must repeat exactly from pass to pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counts {
    obligations: u64,
    nodes: u64,
    pieces: u64,
    lookups: u64,
    hits: u64,
    attempts: u64,
    useful: u64,
    prover_attempts: [u64; 7],
    prover_decided: [u64; 7],
    simplifier_decided: u64,
}

/// Times (ms) and counts of one pass over the workload's inputs.
#[derive(Clone, Debug, Default)]
struct Pass {
    javalite: f64,
    vcgen: f64,
    split: f64,
    cache: f64,
    dispatch: f64,
    provers: [f64; 7],
    traced: f64,
    untraced: f64,
    counts: Counts,
}

enum Mode {
    /// A fresh session per request, like a new process.
    Cold,
    /// One session primed with every input.
    Warm(Box<Verifier>, Vec<EditPlan>),
}

impl Mode {
    fn verify(&self, src: &str, sink: Option<Arc<MemorySink>>) -> Result<VerifyReport, String> {
        let options = RequestOptions {
            sink: sink.map(|s| s as Arc<dyn jahob::Sink>),
            ..RequestOptions::default()
        };
        let result = match self {
            Mode::Cold => pinned().build_verifier().verify_with(src, &options),
            Mode::Warm(session, _) => session.verify_with(src, &options),
        };
        result.map_err(|e| format!("pipeline error: {e}"))
    }
}

pub struct Run {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// Where each input's dispatch time went.
    pub splits: Vec<String>,
}

pub fn run(
    jahob: &Path,
    root: &Path,
    workload: &[&'static Input],
    warm_mode: bool,
    seed: u64,
    seconds: f64,
) -> Result<Run, Fatal> {
    let everything = all_inputs();
    let loaded = Loaded::load_all(root, &everything)?;
    let member: Vec<bool> = everything
        .iter()
        .map(|i| workload.iter().any(|w| w.stem == i.stem))
        .collect();
    let mode = if warm_mode {
        let session = pinned().build_verifier();
        for input in &loaded {
            let report = session
                .verify(&input.src)
                .map_err(|e| Fatal(e.to_string()))?;
            crate::traffic::check_setup(input, &Outcome::from_report(&report))?;
        }
        let plans = loaded
            .iter()
            .map(|l| EditPlan::new(&l.src))
            .collect::<Result<Vec<_>, _>>()?;
        Mode::Warm(Box::new(session), plans)
    } else {
        Mode::Cold
    };
    let digest = jahob::DispatchConfig::default().cache_digest();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut fail = |why: String| {
        eprintln!("traced run: {why}");
        failed += 1;
    };
    let mut file_ms: Vec<Vec<f64>> = vec![Vec::new(); loaded.len()];
    let mut split: Vec<Split> = vec![Split::default(); loaded.len()];
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let index = passes.len();
        let mut pass = Pass::default();
        for i in schedule::pass_order(seed, index, loaded.len()) {
            let input = &loaded[i];
            let src = match &mode {
                Mode::Cold => input.src.clone(),
                Mode::Warm(_, plans) => edit::edit(
                    &input.src,
                    &plans[i],
                    &mut schedule::edit_rng(seed, index, i),
                ),
            };
            // Alternate which of the pair runs first, so neither always
            // finds the caches the other just warmed.
            let traced_first = index % 2 == 1 && member[i];
            let mut traced = None;
            if traced_first {
                traced = Some(traced_request(
                    &mode,
                    &src,
                    digest,
                    &mut pass,
                    &mut split[i],
                ));
            }
            attempted += 1;
            let started = Instant::now();
            let untraced = mode.verify(&src, None);
            let untraced_ms = started.elapsed().as_secs_f64() * 1e3;
            let untraced = match untraced {
                Ok(report) => report,
                Err(why) => {
                    fail(format!("{}: {why}", input.input.stem));
                    continue;
                }
            };
            if let Err(why) = input.check(&Outcome::from_report(&untraced))? {
                fail(why);
                continue;
            }
            file_ms[i].push(untraced_ms);
            if !member[i] {
                continue;
            }
            attempted += 1;
            pass.untraced += untraced_ms;
            let traced = match traced {
                Some(t) => t,
                None => traced_request(&mode, &src, digest, &mut pass, &mut split[i]),
            };
            match traced {
                Ok(report) if report.deterministic_lines() == untraced.deterministic_lines() => {}
                Ok(_) => fail(format!(
                    "{}: the traced report differs from the untraced one",
                    input.input.stem
                )),
                Err(why) => fail(format!("{}: {why}", input.input.stem)),
            }
        }
        if let Some(first) = passes.first() {
            if first.counts != pass.counts {
                fail(format!(
                    "work counts changed between traced passes: {:?} then {:?}",
                    first.counts, pass.counts
                ));
            }
        }
        passes.push(pass);
    }

    let srcs: Vec<&Loaded> = loaded
        .iter()
        .zip(&member)
        .filter(|(_, m)| **m)
        .map(|(l, _)| l)
        .collect();
    let (overhead, service_requests) = service_overhead(jahob, root, &srcs)?;
    attempted += service_requests;

    let time = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let c = &passes[0].counts;
    let mut metrics = vec![
        Metric::new("javalite.ms", time(|p| p.javalite), "ms"),
        Metric::new("vcgen.ms", time(|p| p.vcgen), "ms"),
        Metric::new("vcgen.obligations", c.obligations as f64, "count"),
        Metric::new("vcgen.nodes", c.nodes as f64, "count"),
        Metric::new("split.ms", time(|p| p.split), "ms"),
        Metric::new("split.pieces", c.pieces as f64, "count"),
        Metric::new("goal_cache.ms", time(|p| p.cache), "ms"),
        Metric::new("goal_cache.lookups", c.lookups as f64, "count"),
        Metric::new("goal_cache.hit_ratio", ratio(c.hits, c.lookups), "ratio"),
        Metric::new("dispatch.ms", time(|p| p.dispatch), "ms"),
        Metric::new("dispatch.attempts", c.attempts as f64, "count"),
        Metric::new(
            "dispatch.useful_ratio",
            ratio(c.useful, c.attempts),
            "ratio",
        ),
    ];
    for (k, prover) in PROVERS.iter().enumerate() {
        let ms = median(&passes.iter().map(|p| p.provers[k]).collect::<Vec<_>>());
        metrics.push(Metric::new(format!("prover.{prover}.ms"), ms, "ms"));
        metrics.push(Metric::new(
            format!("prover.{prover}.attempts"),
            c.prover_attempts[k] as f64,
            "count",
        ));
        metrics.push(Metric::new(
            format!("prover.{prover}.decided"),
            c.prover_decided[k] as f64,
            "count",
        ));
    }
    metrics.push(Metric::new(
        "prover.simplifier.decided",
        c.simplifier_decided as f64,
        "count",
    ));
    metrics.push(Metric::new("service.overhead_ms", overhead, "ms"));
    let overhead_ratio: Vec<f64> = passes.iter().map(|p| p.traced / p.untraced).collect();
    metrics.push(Metric::new(
        "trace.overhead_ratio",
        median(&overhead_ratio),
        "ratio",
    ));
    for (input, times) in loaded.iter().zip(&file_ms) {
        if times.is_empty() {
            return Err(Fatal(format!(
                "no request on {} succeeded",
                input.input.stem
            )));
        }
        metrics.push(Metric::new(
            format!("file.{}.ms", input.input.stem),
            median(times),
            "ms",
        ));
    }
    let splits = loaded
        .iter()
        .zip(&split)
        .zip(&member)
        .filter(|(_, m)| **m)
        .map(|((l, s), _)| s.describe(l.input.stem, passes.len()))
        .collect();
    Ok(Run {
        metrics,
        attempted,
        failed,
        passes: passes.len(),
        splits,
    })
}

/// Dispatch time of one input, and each prover's part of it, summed over
/// the traced requests.
#[derive(Clone, Debug, Default)]
struct Split {
    dispatch: f64,
    provers: [f64; 7],
}

impl Split {
    /// `stem: dispatch N ms; prover share%, ...` for the three costliest
    /// provers.
    fn describe(&self, stem: &str, passes: usize) -> String {
        let mut shares: Vec<(f64, &str)> = PROVERS
            .iter()
            .zip(self.provers)
            .map(|(p, ms)| (100.0 * ms / self.dispatch, *p))
            .collect();
        shares.sort_by(|a, b| b.0.total_cmp(&a.0));
        let top: Vec<String> = shares[..3]
            .iter()
            .map(|(s, p)| format!("{p} {s:.0}%"))
            .collect();
        format!(
            "dispatch split, {stem}: {:.1} ms per request; {}",
            self.dispatch / passes as f64,
            top.join(", ")
        )
    }
}

/// One traced request: the layer calls timed here, then a verification
/// whose events go to a `MemorySink`.
fn traced_request(
    mode: &Mode,
    src: &str,
    digest: u64,
    pass: &mut Pass,
    split: &mut Split,
) -> Result<VerifyReport, String> {
    time_front_end(src, digest, pass)?;
    let sink = Arc::new(MemorySink::new());
    let started = Instant::now();
    let report = mode.verify(src, Some(Arc::clone(&sink)))?;
    pass.traced += started.elapsed().as_secs_f64() * 1e3;
    let before = (pass.dispatch, pass.provers);
    count_events(&sink.events(), pass);
    split.dispatch += pass.dispatch - before.0;
    for (k, ms) in split.provers.iter_mut().enumerate() {
        *ms += pass.provers[k] - before.1[k];
    }
    let stat = |name: &str| report.stats.get(name).copied().unwrap_or(0);
    let c = &mut pass.counts;
    c.pieces += stat("goal.pieces");
    c.hits += stat("cache.hit");
    c.lookups += stat("cache.hit") + stat("cache.miss");
    c.simplifier_decided += stat("proved.simplifier");
    Ok(report)
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn time_front_end(src: &str, digest: u64, pass: &mut Pass) -> Result<(), String> {
    let started = Instant::now();
    let program = parse_program(src).map_err(|e| e.to_string())?;
    let typed = resolve(&program).map_err(|e| e.to_string())?;
    pass.javalite += ms_since(started);
    for class in &typed.classes {
        for m in class.methods.iter().filter(|m| !m.contract.assumed) {
            let started = Instant::now();
            let vcs = jahob_vcgen::method_obligations(&typed, m);
            pass.vcgen += ms_since(started);
            for ob in &vcs.map_err(|e| e.to_string())?.obligations {
                let started = Instant::now();
                let pieces = split_conjuncts(&simplify(&ob.form));
                pass.split += ms_since(started);
                let started = Instant::now();
                for piece in &pieces {
                    let normal = jahob::normalize(piece);
                    black_box(jahob::goal_cache::fingerprint(&normal, &typed.sig, digest));
                }
                pass.cache += ms_since(started);
            }
        }
    }
    Ok(())
}

fn count_events(events: &[Event], pass: &mut Pass) {
    let mut after_fol = false;
    for event in events {
        match event {
            Event::PieceStart { .. } => after_fol = false,
            Event::ObligationStart { size, .. } => {
                pass.counts.obligations += 1;
                pass.counts.nodes += size;
            }
            Event::ObligationEnd { micros, .. } => pass.dispatch += *micros as f64 / 1e3,
            Event::Attempt {
                prover,
                outcome,
                micros,
                ..
            } => {
                let row = match *prover {
                    "bounded-models" if after_fol => "bmc-validity",
                    "bounded-models" => "bmc-refute",
                    other => other,
                };
                after_fol |= *prover == "fol-resolution";
                let Some(k) = PROVERS.iter().position(|p| *p == row) else {
                    continue;
                };
                let decided = outcome == "proved" || outcome == "refuted";
                let c = &mut pass.counts;
                c.attempts += 1;
                c.useful += u64::from(decided);
                c.prover_attempts[k] += 1;
                c.prover_decided[k] += u64::from(decided);
                pass.provers[k] += *micros as f64 / 1e3;
            }
            _ => {}
        }
    }
}

/// The daemon's round trip minus an in-process verification of the same
/// input in a warm session, median over every pair; also returns the
/// number of requests made.
fn service_overhead(jahob: &Path, root: &Path, inputs: &[&Loaded]) -> Result<(f64, u64), Fatal> {
    let daemon = Daemon::spawn(jahob, root)?;
    let mut client = daemon.client()?;
    let session = pinned().build_verifier();
    let mut requests = 0;
    let mut gaps = Vec::new();
    for round in 0..=SERVICE_ROUNDS {
        for input in inputs {
            let (round_trip, outcome) = warm::submit(&mut client, &input.src)?;
            requests += 2;
            crate::traffic::check_setup(input, &outcome)?;
            let started = Instant::now();
            session
                .verify(&input.src)
                .map_err(|e| Fatal(format!("pipeline error: {e}")))?;
            // Round 0 primes the daemon and the session.
            if round > 0 {
                gaps.push(round_trip - ms_since(started));
            }
        }
    }
    drop(client);
    daemon.stop()?;
    Ok((median(&gaps), requests))
}
