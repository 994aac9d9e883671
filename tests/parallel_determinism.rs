//! Parallel runs must be bit-for-bit equal to sequential runs.
//!
//! The pipeline's contract (ISSUE 3): a `Verifier` with 1, 2, or 8
//! worker threads yields identical reports — same verdicts, same
//! diagnoses, same order-free counters — on every case study, with the
//! goal cache on or off, and under an armed chaos fault plan. Wall-clock
//! (per-obligation `millis`, `time.*` counters) and the pool's
//! scheduling tallies (`pool.*`) are the only things allowed to differ,
//! and `VerifyReport::deterministic_lines` excludes them.
//!
//! ISSUE 4 extends the contract to observability: the structured event
//! stream a run emits is bit-for-bit identical at any worker count (in
//! its deterministic serialization, which omits wall-clock fields).

use jahob_repro::jahob::{self, Config, FaultPlan, MemorySink, Verifier};
use proptest::prelude::*;
use std::sync::Arc;

const CASE_STUDIES: [&str; 5] = [
    "case_studies/list.javax",
    "case_studies/client.javax",
    "case_studies/assoclist.javax",
    "case_studies/globalset.javax",
    "case_studies/game.javax",
];

const WORKER_MATRIX: [usize; 3] = [1, 2, 8];

fn run(src: &str, config: &Config) -> Vec<String> {
    Verifier::new(config.clone())
        .verify(src)
        .expect("pipeline")
        .deterministic_lines()
}

fn config(workers: usize, goal_cache: bool) -> Config {
    Config {
        workers,
        goal_cache,
        ..Config::default()
    }
}

#[test]
fn all_case_studies_agree_across_worker_counts() {
    for path in CASE_STUDIES {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let baseline = run(&src, &config(1, true));
        for workers in WORKER_MATRIX {
            let got = run(&src, &config(workers, true));
            assert_eq!(
                got, baseline,
                "{path}: report at {workers} workers diverged from sequential"
            );
        }
    }
}

#[test]
fn cache_off_agrees_across_worker_counts_and_never_flips_verdicts() {
    for path in CASE_STUDIES {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let uncached = run(&src, &config(1, false));
        for workers in WORKER_MATRIX {
            let got = run(&src, &config(workers, false));
            assert_eq!(
                got, uncached,
                "{path}: cache-off report at {workers} workers diverged"
            );
        }
        // Verdict lines (everything before the `stat ` block) must agree
        // between cached and uncached runs: a cache hit may only replay a
        // verdict, never change one. Counters legitimately differ — a hit
        // replaces a portfolio attempt.
        let verdicts = |lines: &[String]| -> Vec<String> {
            lines
                .iter()
                .filter(|l| !l.starts_with("stat "))
                .cloned()
                .collect()
        };
        let cached = run(&src, &config(1, true));
        assert_eq!(
            verdicts(&cached),
            verdicts(&uncached),
            "{path}: goal cache changed a verdict"
        );
    }
}

#[test]
fn chaos_runs_agree_across_worker_counts() {
    // Seeded chaos: faults are keyed on (seed, site, obligation content),
    // so the same obligations draw the same faults no matter which worker
    // dispatches them or in which order. The goal cache stands down
    // automatically while a seeded plan is armed.
    let base = std::env::var("JAHOB_CHAOS_SEED")
        .ok()
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .unwrap_or(11);
    for path in ["case_studies/list.javax", "case_studies/client.javax"] {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for seed in [base, base + 1] {
            let chaos_config = |workers: usize| {
                let mut c = config(workers, true);
                c.dispatch.fault_plan = Some(Arc::new(FaultPlan::from_seed(seed)));
                c.dispatch.cross_check = true;
                c.dispatch.obligation_fuel = 150_000;
                c.dispatch.bmc_bound = 2;
                c.dispatch.bmc_as_validity = false;
                c
            };
            let baseline = run(&src, &chaos_config(1));
            assert!(
                baseline.iter().any(|l| l.contains("chaos.injected")),
                "{path} seed {seed}: the plan must actually inject faults:\n{baseline:#?}"
            );
            for workers in WORKER_MATRIX {
                let got = run(&src, &chaos_config(workers));
                assert_eq!(
                    got, baseline,
                    "{path} seed {seed}: chaos report at {workers} workers diverged"
                );
            }
        }
    }
}

#[test]
fn worker_count_resolution() {
    assert_eq!(config(5, true).effective_workers(), 5);
    // A hand-written `workers: 0` means sequential; the environment is
    // consulted only by `Config::builder().build()`, exactly once.
    assert_eq!(config(0, true).effective_workers(), 1);
    // The builder resolves JAHOB_WORKERS; absent (or unparsable) means
    // sequential. The test environment must not leak a setting in.
    if std::env::var("JAHOB_WORKERS").is_err() {
        assert_eq!(Config::builder().build().effective_workers(), 1);
        assert_eq!(Config::builder().workers(3).build().effective_workers(), 3);
    }
}

/// The observability extension of the determinism contract: the event
/// stream (deterministic serialization) is bit-for-bit identical at any
/// worker count — with the shared goal cache on, and under seeded chaos.
#[test]
fn event_streams_agree_across_worker_counts() {
    let stream = |src: &str, workers: usize, chaos: bool| -> String {
        let sink = Arc::new(MemorySink::new());
        let mut builder = Config::builder().workers(workers).sink(sink.clone());
        if chaos {
            builder = builder.dispatch(jahob::DispatchConfig {
                fault_plan: Some(Arc::new(FaultPlan::from_seed(11))),
                cross_check: true,
                obligation_fuel: 150_000,
                bmc_bound: 2,
                bmc_as_validity: false,
                ..Default::default()
            });
        }
        builder.build_verifier().verify(src).expect("pipeline");
        sink.to_jsonl()
    };
    for path in ["case_studies/list.javax", "case_studies/client.javax"] {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for chaos in [false, true] {
            let baseline = stream(&src, 1, chaos);
            assert!(!baseline.is_empty());
            for workers in WORKER_MATRIX {
                assert_eq!(
                    stream(&src, workers, chaos),
                    baseline,
                    "{path} (chaos: {chaos}): event stream at {workers} workers diverged"
                );
            }
        }
    }
}

proptest! {
    // Property flavor: any worker count in 1..=8 reproduces the
    // sequential report on a small program with a mix of proved and
    // refuted obligations.
    #[test]
    fn any_worker_count_matches_sequential(workers in 1usize..=8) {
        let src = r#"
class Counter {
  /*: public static specvar g :: int; */
  public static void bump(int limit)
  /*: requires "0 <= g & g <= limit" modifies g ensures "g <= limit + 1" */
  {
    //: g := "g + 1";
  }
  public static void bad()
  /*: modifies g ensures "g = old g" */
  {
    //: g := "g + 1";
  }
  public static void reset()
  /*: modifies g ensures "g = 0" */
  {
    //: g := "0";
  }
}
"#;
        let baseline = run(src, &config(1, true));
        let got = run(src, &config(workers, true));
        prop_assert_eq!(got, baseline);
    }
}
