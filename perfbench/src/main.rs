//! `perfbench`: the end-to-end and per-layer benchmark of the jahob
//! verifier. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```sh
//! python3 perfbench/run.py --workload cold_prove --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `run.py` builds the release `jahob` binary and this harness, then runs
//! the harness from the repository root with `--jahob <binary>`.
//! `--bless` rewrites `perfbench/expected/` from the current verifier;
//! check the diff by hand before committing it.

mod cold;
mod edit;
mod expected;
mod json;
mod schedule;
mod stats;
mod trace;
mod traffic;
mod warm;

use expected::{all_inputs, Fatal, Input, Loaded, Outcome, CASE_STUDIES, SEEDED_BUGS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ColdProve,
    ColdRefute,
    WarmRecheck,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ColdProve,
        Workload::ColdRefute,
        Workload::WarmRecheck,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdProve => "cold_prove",
            Workload::ColdRefute => "cold_refute",
            Workload::WarmRecheck => "warm_recheck",
        }
    }

    fn inputs(self) -> Vec<&'static Input> {
        match self {
            Workload::ColdRefute => SEEDED_BUGS.iter().collect(),
            Workload::ColdProve | Workload::WarmRecheck => CASE_STUDIES.iter().collect(),
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    jahob: PathBuf,
    bless: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        jahob: PathBuf::from(".bench_build/release/jahob"),
        bless: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            parsed.bless = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                parsed.workloads = vec![w.ok_or_else(bad)?];
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--jahob" => parsed.jahob = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workloads.is_empty() && !parsed.bless {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    // Pin the configuration: no `JAHOB_*` variable from the caller's
    // shell may reach this process's sessions, the `jahob` children or the
    // daemon. This runs before any thread starts.
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("JAHOB_"))
        .collect();
    for name in &stray {
        std::env::remove_var(name);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload cold_prove|cold_refute|warm_recheck|all \
                 --seed N --seconds S --trace 0|1 [--jahob PATH] | --bless"
            );
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    if !root.join("case_studies").is_dir() {
        eprintln!("perfbench: run from the repository root (no case_studies/ here)");
        return ExitCode::from(2);
    }
    if args.bless {
        return match bless(root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("perfbench: {why}");
                ExitCode::from(1)
            }
        };
    }
    print_config(&stray, &args);
    for &workload in &args.workloads {
        match run(&args, root, workload) {
            Ok(line) => println!("{line}"),
            Err(Fatal(why)) => {
                eprintln!("perfbench: {}: {why}", workload.name());
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

/// The effective configuration, as every session, child and daemon of the
/// run resolves it.
fn print_config(stray: &[String], args: &Args) {
    let config = trace::pinned().build();
    let cli = jahob::Config::builder().build();
    let knobs = |c: &jahob::Config| {
        (
            c.workers,
            c.isolation,
            c.dispatch.racing,
            c.adaptive,
            c.dispatch.slicing,
            c.goal_cache,
            c.cache_path.clone(),
        )
    };
    assert_eq!(
        knobs(&config),
        knobs(&cli),
        "the default configuration of the `jahob` children differs from the pinned one"
    );
    println!(
        "config: workers {}; isolation {:?}; racing {}; adaptive {}; slicing {}; goal cache {}; \
         cache path {}; removed from the environment: {}",
        config.workers,
        config.isolation,
        config.dispatch.racing,
        config.adaptive,
        config.dispatch.slicing,
        config.goal_cache,
        config
            .cache_path
            .as_deref()
            .map_or("none".to_owned(), |p| p.display().to_string()),
        if stray.is_empty() {
            "nothing".to_owned()
        } else {
            stray.join(", ")
        }
    );
    println!(
        "load: closed loop, one client; seed {}; {} s per run; {} processors",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
}

/// One workload: its metrics table, then the result line.
fn run(args: &Args, root: &Path, workload: Workload) -> Result<String, Fatal> {
    let inputs = workload.inputs();
    let (rows, shown, attempted, failed) = if args.trace {
        let run = trace::run(
            &args.jahob,
            root,
            &inputs,
            workload == Workload::WarmRecheck,
            args.seed,
            args.seconds,
        )?;
        let rows = run
            .metrics
            .into_iter()
            .map(|m| {
                let note = if m.unit == "ms" || m.name == "trace.overhead_ratio" {
                    format!("median of {} traced passes", run.passes)
                } else {
                    format!("per pass, the same in all {} passes", run.passes)
                };
                (m, note)
            })
            .collect();
        for line in &run.splits {
            println!("{line}");
        }
        (rows, Vec::new(), run.attempted, run.failed)
    } else {
        let run = match workload {
            Workload::WarmRecheck => {
                warm::run(&args.jahob, root, &inputs, args.seed, args.seconds)?
            }
            Workload::ColdProve | Workload::ColdRefute => {
                cold::run(&args.jahob, root, &inputs, args.seed, args.seconds)?
            }
        };
        let (rows, shown) = traffic::end_to_end(&run);
        let tally = run.traffic.tally;
        (rows, shown, tally.requests, tally.errors)
    };
    println!(
        "{} ({}): {}",
        workload.name(),
        if args.trace { "traced" } else { "end to end" },
        inputs.iter().map(|i| i.stem).collect::<Vec<_>>().join(", ")
    );
    let print = |(m, note): &traffic::Row| {
        println!("  {:<30} {:>14.4} {:<6} {note}", m.name, m.value, m.unit)
    };
    rows.iter().for_each(print);
    if !shown.is_empty() {
        println!("  shown only, not in the result line (they follow the machine's load):");
        shown.iter().for_each(print);
    }
    let metrics: Vec<json::Metric> = rows.into_iter().map(|(m, _)| m).collect();
    Ok(json::result_line(failed == 0, attempted, failed, &metrics))
}

/// Rewrite the expected answers from the current verifier.
fn bless(root: &Path) -> Result<(), String> {
    for input in all_inputs() {
        let src = std::fs::read_to_string(root.join(input.path))
            .map_err(|e| format!("cannot read {}: {e}", input.path))?;
        let report = trace::pinned()
            .build_verifier()
            .verify(&src)
            .map_err(|e| format!("{}: {e}", input.path))?;
        let path = expected::expected_path(root, input.stem);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, Outcome::from_report(&report).to_tsv(input.path))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Loaded::load(root, input)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
