//! End-to-end verification of the paper's case studies (E1–E5).
//!
//! Each test pins down exactly which obligations the system proves — the
//! EXPERIMENTS.md ledger is generated from the same facts.

use jahob_repro::jahob::{self, Config};

fn verify(path: &str) -> jahob::VerifyReport {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    jahob::Verifier::new(Config::default())
        .verify(&src)
        .expect("pipeline")
}

/// E1 (Figures 1/3/4): the List implementation.
#[test]
fn e1_list_implementation() {
    let report = verify("case_studies/list.javax");
    // The straight-line methods verify completely: constructor, add, empty,
    // getOne — specification, representation invariants, and null-safety.
    for method in ["List", "add", "empty", "getOne"] {
        let m = report.method("List", method).unwrap();
        assert!(m.all_proved(), "List.{method} must fully verify:\n{report}");
    }
    // remove: every memory-safety obligation is proved; the functional
    // postcondition through the loop needs a full traversal invariant — the
    // provided safety invariant is correctly reported as too weak (§2.4:
    // speculative/weak invariants are "detected and rejected").
    let remove = report.method("List", "remove").unwrap();
    for o in &remove.obligations {
        if o.label.contains("null") {
            assert!(
                matches!(o.verdict, jahob::verify::VerdictSummary::Proved { .. }),
                "safety obligation failed: {} — {}",
                o.label,
                o.verdict
            );
        }
    }
    let (proved, _, unknown) = report.tally();
    assert!(proved >= 25, "{report}");
    assert_eq!(unknown, 0, "every obligation must be decided:\n{report}");
}

/// E2 (Figure 2): the two-list client, verified against the List interface.
#[test]
fn e2_list_client() {
    let report = verify("case_studies/client.javax");
    let ctor = report.method("Client", "Client").unwrap();
    assert!(ctor.all_proved(), "Client constructor:\n{report}");
    let mv = report.method("Client", "move").unwrap();
    assert!(mv.all_proved(), "Client.move:\n{report}");
}

/// E3: association lists with intermediate assertions.
#[test]
fn e3_assoclist() {
    let report = verify("case_studies/assoclist.javax");
    for (class, method) in [
        ("AssocList", "AssocList"),
        ("AssocList", "put"),
        ("Directory", "Directory"),
        ("Directory", "register"),
    ] {
        let m = report.method(class, method).unwrap();
        assert!(m.all_proved(), "{class}.{method}:\n{report}");
    }
}

/// E4: global data structures (static state).
#[test]
fn e4_global_structures() {
    let report = verify("case_studies/globalset.javax");
    assert!(report.all_proved(), "{report}");
}

/// E5: the turn-based strategy game, partially verified (`assuming`
/// summaries are skipped; everything else proves).
#[test]
fn e5_strategy_game() {
    let report = verify("case_studies/game.javax");
    assert!(report.all_proved(), "{report}");
    // The partial split: inRange is assumed, hence absent from the report.
    assert!(report.method("Game", "inRange").is_none());
    assert!(report.method("Game", "redAttack").is_some());
}

/// E13: seeded bugs are refuted with genuine counter-models.
#[test]
fn e13_bug_finding() {
    let src = std::fs::read_to_string("crates/bench/data/broken_add.javax").unwrap();
    let report = jahob::Verifier::new(Config::default())
        .verify(&src)
        .expect("pipeline");
    let (_, refuted, _) = report.tally();
    assert!(refuted > 0, "the seeded bug must be refuted:\n{report}");
}

/// Unbounded proofs per case study: obligations proved for every
/// universe size, not only up to the model finder's bound. The floors
/// keep proofs from sliding back to bounded ones unnoticed.
#[test]
fn unbounded_proofs_per_case_study() {
    for (path, floor) in [
        ("case_studies/list.javax", 15),
        ("case_studies/client.javax", 12),
        ("case_studies/assoclist.javax", 6),
        ("case_studies/globalset.javax", 6),
        ("case_studies/game.javax", 10),
    ] {
        let report = verify(path);
        let unbounded = report
            .methods
            .iter()
            .flat_map(|m| &m.obligations)
            .filter(|o| {
                matches!(
                    o.verdict,
                    jahob::verify::VerdictSummary::Proved { bound: None, .. }
                )
            })
            .count();
        assert!(
            unbounded >= floor,
            "{path}: {unbounded} unbounded proofs, expected at least {floor}:\n{report}"
        );
    }
}
