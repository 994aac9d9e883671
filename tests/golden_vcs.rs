//! Golden corpora for VC generation and the dispatcher's front matter,
//! snapshotted under `tests/golden/`:
//!
//! * `<stem>.txt` — the cache-canonical (normalized) form of every
//!   obligation in every case study;
//! * `pieces_<stem>.txt` — what the provers see of each obligation: every
//!   piece [`Dispatcher::prepare`] splits it into, in normalized form, with
//!   the sort its signature gives each free symbol. Rendering them also
//!   checks that `prepare`, the one place `ite`s are lifted, leaves no
//!   piece with one to lift.
//!
//! The goal cache keys on exactly this normalization, so any change to VC
//! generation *or* to cache-key normalization shows up here as a
//! reviewable diff instead of a silent cache invalidation (or, worse, a
//! silent collision); a change to elaboration, simplification or
//! splitting shows up in the pieces. Regenerate intentionally with:
//!
//! ```text
//! JAHOB_BLESS=1 cargo test --test golden_vcs
//! ```

use jahob_repro::jahob::{normalize, Dispatcher};
use jahob_repro::javalite::{parse_program, resolve, TypedProgram};
use jahob_repro::smt::lift_ite;
use jahob_repro::vcgen::{method_obligations, MethodVcs};
use std::fmt::Write as _;
use std::path::Path;

const CASE_STUDIES: [&str; 5] = [
    "case_studies/list.javax",
    "case_studies/client.javax",
    "case_studies/assoclist.javax",
    "case_studies/globalset.javax",
    "case_studies/game.javax",
];

/// Every verified method's obligations in one case study, in source order.
fn obligations(path: &str) -> (TypedProgram, Vec<MethodVcs>) {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let program = parse_program(&src).unwrap_or_else(|e| panic!("{path}: parse: {e}"));
    let typed = resolve(&program).unwrap_or_else(|e| panic!("{path}: resolve: {e}"));
    let mut vcs = Vec::new();
    for class in &typed.classes {
        for m in &class.methods {
            if m.contract.assumed {
                continue;
            }
            vcs.push(
                method_obligations(&typed, m)
                    .unwrap_or_else(|e| panic!("{path}: vcgen {}.{}: {e}", m.class, m.name)),
            );
        }
    }
    (typed, vcs)
}

/// Render one case study's obligations in cache-canonical form. Fresh
/// havoc/snapshot symbols are normalized to first-occurrence indices, so
/// the text is identical regardless of test ordering or thread count.
fn corpus(path: &str) -> String {
    let (_, vcs) = obligations(path);
    let mut out = String::new();
    for mv in &vcs {
        for ob in &mv.obligations {
            writeln!(out, "== {}.{} :: {}", mv.class, mv.method, ob.label).unwrap();
            writeln!(out, "{}", normalize(&ob.form).form).unwrap();
            out.push('\n');
        }
    }
    out
}

/// Render the pieces a dispatcher configured as the pipeline's hands the
/// portfolio for each obligation of one case study: each piece's
/// normalized text, then each of its free symbols with the sort the
/// piece's signature gives it (`?` when it gives none). Panics on a piece
/// that still has an `ite` to lift: the provers take pieces as they are.
fn pieces_corpus(path: &str) -> String {
    let (typed, vcs) = obligations(path);
    let dispatcher = Dispatcher::new(typed.sig.clone());
    let mut out = String::new();
    for mv in &vcs {
        for ob in &mv.obligations {
            let prepared = dispatcher.prepare(&ob.form);
            let count = prepared.pieces.len();
            writeln!(
                out,
                "== {}.{} :: {} ({count} pieces)",
                mv.class, mv.method, ob.label
            )
            .unwrap();
            for piece in &prepared.pieces {
                assert!(
                    lift_ite(&piece.goal.form) == piece.goal.form,
                    "{}.{} :: {}: a piece still has an `ite` to lift: {}",
                    mv.class,
                    mv.method,
                    ob.label,
                    piece.goal.form
                );
                writeln!(out, "{}", piece.goal.form).unwrap();
                for (canon, _) in &piece.goal.frees {
                    match piece.sig.get(canon) {
                        Some(sort) => writeln!(out, "  {canon}: {sort}").unwrap(),
                        None => writeln!(out, "  {canon}: ?").unwrap(),
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

fn golden_path(prefix: &str, study: &str) -> String {
    let stem = Path::new(study)
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("case study path has a stem");
    format!("tests/golden/{prefix}{stem}.txt")
}

/// Compare each case study's rendering with its golden file, or rewrite
/// the files under `JAHOB_BLESS=1`.
fn check_golden(prefix: &str, render: fn(&str) -> String) {
    let bless = std::env::var("JAHOB_BLESS").is_ok_and(|v| v == "1");
    let mut stale = Vec::new();
    for study in CASE_STUDIES {
        let got = render(study);
        let golden = golden_path(prefix, study);
        if bless {
            std::fs::create_dir_all("tests/golden").expect("mkdir tests/golden");
            std::fs::write(&golden, &got).unwrap_or_else(|e| panic!("{golden}: {e}"));
            continue;
        }
        let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!(
                "{golden}: {e}\nhint: regenerate with JAHOB_BLESS=1 cargo test --test golden_vcs"
            )
        });
        if got != want {
            // Report the first diverging line so a CI failure is readable
            // without downloading artifacts.
            let first_diff = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            stale.push(format!(
                "{golden}: first divergence at line {} (got {:?}, want {:?})",
                first_diff + 1,
                got.lines().nth(first_diff).unwrap_or("<eof>"),
                want.lines().nth(first_diff).unwrap_or("<eof>"),
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "output diverged from the golden corpus — if intentional, \
         re-bless with JAHOB_BLESS=1 cargo test --test golden_vcs\n{}",
        stale.join("\n")
    );
}

#[test]
fn normalized_obligations_match_the_golden_corpus() {
    check_golden("", corpus);
}

#[test]
fn prepared_pieces_match_the_golden_corpus() {
    check_golden("pieces_", pieces_corpus);
}

/// The corpus itself is stable under regeneration: two generations in one
/// process (different global fresh-counter offsets) print identically.
/// This is the property that makes the golden files meaningful at all.
#[test]
fn corpus_generation_is_idempotent() {
    for study in CASE_STUDIES {
        assert_eq!(
            corpus(study),
            corpus(study),
            "{study}: normalization failed to cancel fresh-counter drift"
        );
        assert_eq!(
            pieces_corpus(study),
            pieces_corpus(study),
            "{study}: piece normalization failed to cancel fresh-counter drift"
        );
    }
}
