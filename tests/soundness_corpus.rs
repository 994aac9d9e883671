//! Soundness regression corpus: deliberately broken case-study variants
//! that must never verify, under any execution strategy.
//!
//! Worker fan-out and chaos faults both reshuffle *when* and *where*
//! provers run — neither may ever reshuffle *what is true*. Each
//! `*_bug.javax` fixture seeds a specific bug (see the fixture headers);
//! this suite pins that the broken methods' `ensures` obligations stay
//! un-`Proved` across:
//!
//! * the sequential baseline;
//! * 1/2/8 workers;
//! * 24 fault-plan chaos seeds.

use jahob_repro::jahob::{self, verify::VerdictSummary, Config, FaultPlan, Verifier};
use std::sync::Arc;

const WORKER_MATRIX: [usize; 3] = [1, 2, 8];

/// Every seeded bug in the corpus: fixture path plus the methods whose
/// `ensures` obligation is deliberately false.
const CORPUS: [(&str, &[(&str, &str)]); 2] = [
    (
        "case_studies/list_bug.javax",
        &[("List", "add"), ("List", "empty")],
    ),
    (
        "case_studies/globalset_bug.javax",
        &[("GlobalCounter", "inc"), ("GlobalSet", "push")],
    ),
];

fn fixture(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Assert the seeded bugs stayed unproved: each broken method's `ensures`
/// obligation must be `Refuted` or `Unknown` — anything `Proved` is a
/// soundness hole in whatever dispatch strategy produced the report.
fn assert_bugs_unproved(report: &jahob::VerifyReport, broken: &[(&str, &str)], mode: &str) {
    for &(class, method) in broken {
        let m = report
            .method(class, method)
            .unwrap_or_else(|| panic!("{mode}: {class}.{method} missing from report"));
        let ensures = m
            .obligations
            .iter()
            .find(|o| o.label.contains("ensures"))
            .unwrap_or_else(|| panic!("{mode}: {class}.{method} has no ensures obligation"));
        assert!(
            !matches!(ensures.verdict, VerdictSummary::Proved { .. }),
            "{mode}: seeded bug {class}.{method} was PROVED — soundness hole:\n{report}"
        );
    }
}

fn run(src: &str, config: Config) -> jahob::VerifyReport {
    Verifier::new(config).verify(src).expect("pipeline")
}

#[test]
fn sequential_baseline_never_proves_broken_methods() {
    for (path, broken) in CORPUS {
        let report = run(&fixture(path), Config::default());
        assert_bugs_unproved(&report, broken, &format!("{path} sequential"));
    }
}

#[test]
fn worker_counts_never_prove_broken_methods() {
    for (path, broken) in CORPUS {
        let src = fixture(path);
        for workers in WORKER_MATRIX {
            let report = run(&src, Config::builder().workers(workers).build());
            assert_bugs_unproved(&report, broken, &format!("{path} workers={workers}"));
        }
    }
}

/// Fault-plan chaos: seeds 0..24. The cross-check watchdog is on,
/// exactly as in the chaos suite: lying-prover faults are only defeated
/// by cross-checking, and an unwatched lie flipping a verdict is the
/// known, documented threat.
#[test]
fn fault_plan_seeds_never_prove_broken_methods() {
    let src = fixture("case_studies/globalset_bug.javax");
    let broken = CORPUS[1].1;
    for seed in 0..24u64 {
        let mut config = Config::builder()
            .fault_plan(Arc::new(FaultPlan::from_seed(seed)))
            .build();
        config.dispatch.cross_check = true;
        let report = run(&src, config);
        assert_bugs_unproved(&report, broken, &format!("fault-plan seed={seed}"));
    }
}
