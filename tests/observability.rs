//! The structured observability pipeline (ISSUE 4).
//!
//! Three pins on the event stream a `Verifier` run emits:
//!
//! * **Golden JSONL.** The deterministic serialization of a full run over
//!   `list.javax` — plain and under a seeded chaos plan — is snapshotted
//!   under `tests/golden/` and must be reproduced bit-for-bit at 1, 2,
//!   and 8 workers. Regenerate intentionally with:
//!
//!   ```text
//!   JAHOB_BLESS=1 cargo test --test observability
//!   ```
//!
//! * **Span nesting.** The stream is well-formed: one run span bracketing
//!   everything, method spans in submission order, obligation spans inside
//!   their method, piece spans inside their obligation, never nested.
//!
//! * **Counter agreement.** Rebuilding the stats counters from the event
//!   stream (`obs::event_tallies`, the same `Event::stat_increments`
//!   mapping the dispatcher feeds its live counters through) reproduces
//!   the report's stats map exactly on every event-backed counter group.

use jahob_repro::jahob::{self, Config, Event, FaultPlan, MemorySink};
use jahob_repro::util::obs;
use std::sync::Arc;

const WORKER_MATRIX: [usize; 3] = [1, 2, 8];

/// The chaos configuration `parallel_determinism.rs::chaos_runs_agree`
/// uses: seeded plan, watchdog on, tight fuel so governance paths fire.
fn chaos_dispatch(seed: u64) -> jahob::DispatchConfig {
    jahob::DispatchConfig {
        fault_plan: Some(Arc::new(FaultPlan::from_seed(seed))),
        cross_check: true,
        obligation_fuel: 150_000,
        bmc_bound: 2,
        bmc_as_validity: false,
        ..Default::default()
    }
}

/// Run `src` at `workers`, returning the captured run (events + report).
fn run(src: &str, workers: usize, chaos: bool) -> (Vec<Event>, jahob::VerifyReport) {
    let sink = Arc::new(MemorySink::new());
    let mut builder = Config::builder().workers(workers).sink(sink.clone());
    if chaos {
        builder = builder.dispatch(chaos_dispatch(11));
    }
    let report = builder.build_verifier().verify(src).expect("pipeline");
    (sink.events(), report)
}

fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json(false));
        out.push('\n');
    }
    out
}

#[test]
fn golden_event_stream_at_every_worker_count() {
    let bless = std::env::var("JAHOB_BLESS").is_ok_and(|v| v == "1");
    let src = std::fs::read_to_string("case_studies/list.javax").expect("case study");
    let mut stale = Vec::new();
    for (golden, chaos) in [
        ("tests/golden/obs_list.jsonl", false),
        ("tests/golden/obs_list_chaos.jsonl", true),
    ] {
        let baseline = jsonl(&run(&src, 1, chaos).0);
        // Bit-for-bit identical at any worker count, *then* golden.
        for workers in WORKER_MATRIX {
            assert_eq!(
                jsonl(&run(&src, workers, chaos).0),
                baseline,
                "event stream at {workers} workers diverged (chaos: {chaos})"
            );
        }
        if bless {
            std::fs::create_dir_all("tests/golden").expect("mkdir tests/golden");
            std::fs::write(golden, &baseline).unwrap_or_else(|e| panic!("{golden}: {e}"));
            continue;
        }
        let want = std::fs::read_to_string(golden).unwrap_or_else(|e| {
            panic!(
                "{golden}: {e}\nhint: regenerate with JAHOB_BLESS=1 cargo test --test observability"
            )
        });
        if baseline != want {
            let first_diff = baseline
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| baseline.lines().count().min(want.lines().count()));
            stale.push(format!(
                "{golden}: first divergence at line {} (got {:?}, want {:?})",
                first_diff + 1,
                baseline.lines().nth(first_diff).unwrap_or("<eof>"),
                want.lines().nth(first_diff).unwrap_or("<eof>"),
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "event streams diverged from the golden JSONL — if intentional, \
         re-bless with JAHOB_BLESS=1 cargo test --test observability\n{}",
        stale.join("\n")
    );
}

#[test]
fn spans_nest_and_methods_arrive_in_submission_order() {
    let src = std::fs::read_to_string("case_studies/list.javax").expect("case study");
    let (events, report) = run(&src, 2, false);

    assert!(matches!(events.first(), Some(Event::RunStart { .. })));
    assert!(matches!(events.last(), Some(Event::RunEnd { .. })));

    let mut open_method: Option<u64> = None;
    let mut open_obligation: Option<u64> = None;
    let mut piece_open = false;
    let mut next_method = 0u64;
    let mut methods_seen = 0usize;
    let mut obligations_seen = 0usize;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::RunStart { .. } => assert_eq!(i, 0, "run.start only opens the stream"),
            Event::RunEnd { .. } => {
                assert_eq!(i, events.len() - 1, "run.end only closes the stream");
                assert!(open_method.is_none(), "run.end with a method span open");
            }
            Event::MethodStart { index, .. } => {
                assert!(open_method.is_none(), "method spans must not nest");
                assert_eq!(*index, next_method, "methods arrive in submission order");
                open_method = Some(*index);
                next_method += 1;
                methods_seen += 1;
            }
            Event::MethodEnd { index, .. } => {
                assert_eq!(
                    open_method.take(),
                    Some(*index),
                    "method.end pairs its start"
                );
                assert!(
                    open_obligation.is_none(),
                    "obligation span leaked past its method"
                );
            }
            Event::ObligationStart { index, .. } => {
                assert!(open_method.is_some(), "obligation outside a method span");
                assert!(open_obligation.is_none(), "obligation spans must not nest");
                open_obligation = Some(*index);
                obligations_seen += 1;
            }
            Event::ObligationEnd { index, .. } => {
                assert_eq!(open_obligation.take(), Some(*index));
                assert!(!piece_open, "piece span leaked past its obligation");
            }
            Event::PieceStart { .. } => {
                assert!(
                    open_obligation.is_some(),
                    "piece outside an obligation span"
                );
                assert!(!piece_open, "piece spans must not nest");
                piece_open = true;
            }
            Event::PieceEnd { .. } => {
                assert!(piece_open, "piece.end without piece.start");
                piece_open = false;
            }
            _ => {}
        }
    }
    assert_eq!(methods_seen, report.methods.len());
    let total_obligations: usize = report.methods.iter().map(|m| m.obligations.len()).sum();
    assert_eq!(obligations_seen, total_obligations);
}

#[test]
fn event_stream_and_report_stats_agree() {
    let src = std::fs::read_to_string("case_studies/list.javax").expect("case study");
    for chaos in [false, true] {
        let (events, report) = run(&src, 2, chaos);
        let tallies = obs::event_tallies(&events);
        // Every counter the stream implies is in the report, exactly.
        for (name, value) in &tallies {
            assert_eq!(
                report.stats.get(name),
                Some(value),
                "stat {name} disagrees with the event stream (chaos: {chaos})"
            );
        }
        // And the converse: every event-backed stat group in the report is
        // fully explained by the stream — nothing bumps those counters
        // outside the event path anymore.
        for group in [
            "cache.",
            "breaker.",
            "retry.",
            "watchdog.",
            "chaos.",
            "failure.",
        ] {
            for (name, value) in &report.stats {
                if !name.starts_with(group) {
                    continue;
                }
                assert_eq!(
                    tallies.get(name),
                    Some(value),
                    "stat {name} has no event backing (chaos: {chaos})"
                );
            }
        }
        assert!(
            tallies.keys().any(|k| k.starts_with("cache.")) || chaos,
            "a cached plain run must consult the cache"
        );
    }
}
