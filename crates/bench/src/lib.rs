//! `jahob-bench`: benchmark workload generators for every experiment in
//! EXPERIMENTS.md (E6–E13). The Criterion harnesses live in `benches/`;
//! this library exposes the generators so integration tests can assert the
//! workloads stay meaningful (each family must produce the expected
//! verdicts before it is worth timing).

use jahob_logic::{Form, Sort, SortCx};
use jahob_util::{FxHashMap, FxHashSet, Symbol};
use std::sync::Arc;

/// E8 workload: a valid BAPA family sweeping the number of base sets —
/// `card(S1 ∪ … ∪ Sk) ≤ card S1 + … + card Sk`.
pub fn bapa_union_bound(k: usize) -> Form {
    assert!(k >= 2);
    let union = (1..k).fold(Form::v("B1"), |acc, i| {
        Form::binop(
            jahob_logic::BinOp::Union,
            acc,
            Form::v(&format!("B{}", i + 1)),
        )
    });
    let sum = (1..k).fold(Form::card(Form::v("B1")), |acc, i| {
        Form::binop(
            jahob_logic::BinOp::Add,
            acc,
            Form::card(Form::v(&format!("B{}", i + 1))),
        )
    });
    Form::binop(jahob_logic::BinOp::Le, Form::card(union), sum)
}

/// E9 workload: an existential LIA family — interval-with-divisibility
/// constraints of growing size, satisfiable exactly when `n` is even.
pub fn lia_interval(n: i64) -> Vec<jahob_presburger::Constraint> {
    use jahob_presburger::Constraint;
    vec![
        Constraint::ge(vec![1], -n),     // x >= n
        Constraint::ge(vec![-1], 2 * n), // x <= 2n
        Constraint::eq(vec![2], -3 * n), // 2x = 3n
    ]
}

/// The same E9 family as a quantified Cooper problem.
pub fn lia_interval_cooper(n: i64) -> jahob_presburger::PForm {
    use jahob_presburger::cooper::PForm;
    use jahob_presburger::linterm::LinTerm;
    let x = LinTerm::var(jahob_util::Symbol::intern("bx"));
    PForm::Ex(
        jahob_util::Symbol::intern("bx"),
        Box::new(PForm::and(vec![
            PForm::le(LinTerm::constant(n), x.clone()),
            PForm::le(x.clone(), LinTerm::constant(2 * n)),
            PForm::eq(x.scale(2), LinTerm::constant(3 * n)),
        ])),
    )
}

/// E10 workload: the EUF `f^(2k+1)(a) = a ∧ f^(2k+3)(a) = a → f(a) = a`
/// family (valid), sweeping k.
pub fn euf_cycle(k: usize) -> Form {
    fn pow(n: usize) -> Form {
        (0..n).fold(Form::v("ea"), |acc, _| Form::app(Form::v("ef"), vec![acc]))
    }
    Form::implies(
        Form::and(vec![
            Form::eq(pow(2 * k + 1), Form::v("ea")),
            Form::eq(pow(2 * k + 3), Form::v("ea")),
        ]),
        Form::eq(pow(1), Form::v("ea")),
    )
}

/// E13 workload: the broken-add mutant (see `examples/find_bug.rs`),
/// parameterized by nothing — returns source text.
pub fn broken_add_source() -> &'static str {
    include_str!("../data/broken_add.javax")
}

/// The paper's List source (E1).
pub fn list_source() -> &'static str {
    include_str!("../../../case_studies/list.javax")
}

/// The Figure 2 client source (E2).
pub fn client_source() -> &'static str {
    include_str!("../../../case_studies/client.javax")
}

/// The association list source (E3).
pub fn assoclist_source() -> &'static str {
    include_str!("../../../case_studies/assoclist.javax")
}

/// The global structures source (E4).
pub fn globalset_source() -> &'static str {
    include_str!("../../../case_studies/globalset.javax")
}

/// The strategy game source (E5).
pub fn game_source() -> &'static str {
    include_str!("../../../case_studies/game.javax")
}

/// Elaboration workload: every obligation of the five case studies (E1–E5)
/// with its `ite`s lifted, exactly as the dispatcher hands it to sort
/// inference, grouped per program with the program's signature.
pub fn case_study_obligations() -> Vec<(FxHashMap<Symbol, Sort>, Vec<Form>)> {
    case_study_programs()
        .into_iter()
        .map(|typed| {
            let goals = case_study_vcs(&typed)
                .iter()
                .flat_map(|vcs| &vcs.obligations)
                .map(|ob| jahob_smt::lift_ite(&ob.form))
                .collect();
            (typed.sig, goals)
        })
        .collect()
}

/// The five case studies, parsed and resolved, in the order of
/// [`case_study_obligations`].
pub fn case_study_programs() -> Vec<jahob_javalite::TypedProgram> {
    [
        list_source(),
        client_source(),
        assoclist_source(),
        globalset_source(),
        game_source(),
    ]
    .into_iter()
    .map(|src| {
        let program = jahob_javalite::parse_program(src).expect("case study parses");
        jahob_javalite::resolve(&program).expect("case study resolves")
    })
    .collect()
}

/// VC generation over every verified method of a program, in source order.
pub fn case_study_vcs(typed: &jahob_javalite::TypedProgram) -> Vec<jahob_vcgen::MethodVcs> {
    typed
        .classes
        .iter()
        .flat_map(|class| class.methods.iter().filter(|m| !m.contract.assumed))
        .map(|m| jahob_vcgen::method_obligations(typed, m).expect("VC generation"))
        .collect()
}

/// BAPA on real goals: every piece [`jahob::Dispatcher::prepare`] makes of
/// game.javax's obligations, in source order, with the piece's signature,
/// narrowed as the dispatcher's BAPA arm narrows it: `Sequent::of`, then
/// drop the hypotheses `base_set_count` rejects.
pub fn game_bapa_pieces() -> Vec<(Form, FxHashMap<Symbol, Sort>)> {
    let program = jahob_javalite::parse_program(game_source()).expect("game parses");
    let typed = jahob_javalite::resolve(&program).expect("game resolves");
    let dispatcher = jahob::Dispatcher::new(typed.sig.clone());
    let mut pieces = Vec::new();
    for class in &typed.classes {
        for m in class.methods.iter().filter(|m| !m.contract.assumed) {
            let vcs = jahob_vcgen::method_obligations(&typed, m).expect("VC generation");
            for ob in &vcs.obligations {
                for piece in dispatcher.prepare(&ob.form).pieces {
                    let mut seq = jahob_logic::sequent::Sequent::of(&piece.goal.form);
                    seq.hyps
                        .retain(|h| jahob_bapa::base_set_count(h, &piece.sig).is_ok());
                    pieces.push((seq.to_form(), piece.sig));
                }
            }
        }
    }
    pieces
}

/// The model finder's workload: every piece of the five case studies
/// that reaches it (no cheaper prover decides it), with its signature,
/// grouped by method in dispatch order, as a dispatcher feeds its
/// model-finder session. A piece reaches the model finder when its span
/// in the dispatcher's event stream holds a `bounded-models` attempt.
pub fn model_finder_pieces() -> Vec<Vec<(Form, FxHashMap<Symbol, Sort>)>> {
    let mut methods = Vec::new();
    for typed in case_study_programs() {
        for vcs in case_study_vcs(&typed) {
            let sink = Arc::new(jahob::MemorySink::new());
            let mut dispatcher = jahob::Dispatcher::new(typed.sig.clone());
            dispatcher.recorder = jahob::Recorder::streaming(sink.clone());
            let mut pieces = Vec::new();
            for ob in &vcs.obligations {
                pieces.extend(dispatcher.prepare(&ob.form).pieces);
                let _ = dispatcher.prove(&ob.form);
            }
            let mut reached = FxHashSet::default();
            let mut span = None;
            for event in sink.events() {
                match event {
                    jahob::Event::PieceStart { fingerprint, .. } => span = Some(fingerprint),
                    jahob::Event::Attempt {
                        prover: "bounded-models",
                        ..
                    } => reached.extend(span),
                    _ => {}
                }
            }
            let pieces: Vec<_> = pieces
                .into_iter()
                .filter(|piece| reached.contains(&piece.key))
                .map(|piece| (piece.goal.form, piece.sig))
                .collect();
            if !pieces.is_empty() {
                methods.push(pieces);
            }
        }
    }
    methods
}

/// Elaborate one obligation as the dispatcher does: a sort context primed
/// with the program signature, `check_bool`, then the resolved signature.
pub fn elaborate(
    sig: &FxHashMap<Symbol, Sort>,
    goal: &Form,
) -> Option<(Form, FxHashMap<Symbol, Sort>)> {
    let mut cx = SortCx::new();
    for (name, sort) in sig {
        cx.declare(*name, sort.clone());
    }
    let elaborated = cx.check_bool(goal).ok()?;
    Some((elaborated, cx.resolved_sig()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_verdicts() {
        // E8: valid at every size we time.
        let sig = (1..=5)
            .map(|i| {
                (
                    jahob_util::Symbol::intern(&format!("B{i}")),
                    jahob_logic::Sort::objset(),
                )
            })
            .collect();
        for k in 2..=4 {
            assert_eq!(
                jahob_bapa::bapa_valid(&bapa_union_bound(k), &sig),
                Ok(true),
                "k={k}"
            );
        }
        // E9: omega and cooper agree on the parity family.
        for n in 1..=6 {
            let omega =
                jahob_presburger::omega_sat(&lia_interval(n)) == jahob_presburger::OmegaResult::Sat;
            let cooper = jahob_presburger::decide_closed(&lia_interval_cooper(n)).unwrap();
            assert_eq!(omega, cooper, "n={n}");
            assert_eq!(omega, n % 2 == 0, "n={n}");
        }
        // Elaboration: the 98 case-study obligations all elaborate.
        let programs = case_study_obligations();
        let goals: Vec<_> = programs
            .iter()
            .flat_map(|(sig, goals)| goals.iter().map(move |g| (sig, g)))
            .collect();
        assert_eq!(goals.len(), 98);
        for (sig, goal) in goals {
            assert!(elaborate(sig, goal).is_some(), "{goal}");
        }
        // E10: valid for every k.
        let esig = jahob_util::FxHashMap::default();
        for k in 0..=2 {
            assert_eq!(
                jahob_smt::smt_valid(&euf_cycle(k), &esig),
                Ok(true),
                "k={k}"
            );
        }
    }
}
