//! Property-based tests (proptest) over the core data structures and the
//! soundness invariants that tie the workspace together:
//!
//! * parser/printer round-trips on randomly generated formulas,
//! * NNF preserves meaning (checked against the reference evaluator),
//! * simplification is idempotent up to normalization, and the sharing
//!   simplifier builds exactly what a rebuild-everything reference builds,
//! * the CDCL solver agrees with brute force on random CNF,
//! * BAPA never claims validity of a goal a small model refutes,
//! * the bounded model finder's verdicts match exhaustive enumeration.

use jahob_repro::jahob::normalize;
use jahob_repro::logic::model::enumerate_models;
use jahob_repro::logic::{transform, BinOp, Form, QKind, Sort, UnOp};
use jahob_repro::util::{FxHashMap, Symbol};
use proptest::prelude::*;
use std::rc::Rc;

// ---- generators ---------------------------------------------------------

/// Random printable propositional formulas (no `Iff`: the printer spells
/// it `=`, which reparses as pre-elaboration `Eq` — a documented
/// normalization, not a bug).
fn prop_form_printable() -> impl Strategy<Value = Form> {
    let leaf = prop_oneof![
        (0u8..4).prop_map(|i| Form::v(&format!("p{i}"))),
        Just(Form::tt()),
        Just(Form::ff()),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::and(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::or(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::implies(a, b)),
            inner.prop_map(Form::not),
        ]
    })
}

/// Random propositional formulas over atoms p0..p3.
fn prop_form() -> impl Strategy<Value = Form> {
    let leaf = prop_oneof![
        (0u8..4).prop_map(|i| Form::v(&format!("p{i}"))),
        Just(Form::tt()),
        Just(Form::ff()),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::and(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::or(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::iff(a, b)),
            inner.prop_map(Form::not),
        ]
    })
}

/// Random set-algebra formulas over set vars S0..S2 and obj vars x0..x1.
fn set_form() -> impl Strategy<Value = Form> {
    let set_term = {
        let leaf = prop_oneof![
            (0u8..3).prop_map(|i| Form::v(&format!("S{i}"))),
            Just(Form::EmptySet),
        ];
        leaf.prop_recursive(2, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::binop(BinOp::Union, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::binop(BinOp::Inter, a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| Form::binop(BinOp::Diff, a, b)),
            ]
        })
    };
    let atom = prop_oneof![
        (set_term.clone(), set_term.clone()).prop_map(|(a, b)| Form::binop(BinOp::Subseteq, a, b)),
        (set_term.clone(), set_term.clone()).prop_map(|(a, b)| Form::eq(a, b)),
        ((0u8..2), set_term.clone()).prop_map(|(i, s)| Form::elem(Form::v(&format!("x{i}")), s)),
    ];
    atom.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::and(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::or(vec![a, b])),
            (inner.clone(), inner).prop_map(|(a, b)| Form::implies(a, b)),
        ]
    })
}

fn eval_prop(form: &Form, bits: u32) -> bool {
    let mut map = FxHashMap::default();
    for i in 0..4u32 {
        map.insert(
            Symbol::intern(&format!("p{i}")),
            Form::BoolLit(bits & (1 << i) != 0),
        );
    }
    matches!(transform::simplify(&form.subst(&map)), Form::BoolLit(true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print ∘ parse is the identity on printable formulas.
    #[test]
    fn printer_parser_roundtrip(f in prop_form_printable()) {
        let printed = f.to_string();
        let reparsed = jahob_repro::logic::parse_form(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?}: {e}"));
        prop_assert_eq!(f, reparsed);
    }

    /// NNF preserves meaning on every valuation.
    #[test]
    fn nnf_preserves_meaning(f in prop_form()) {
        let g = transform::nnf(&f);
        for bits in 0..16u32 {
            prop_assert_eq!(eval_prop(&f, bits), eval_prop(&g, bits));
        }
    }

    /// simplify preserves meaning on every valuation.
    #[test]
    fn simplify_preserves_meaning(f in prop_form()) {
        let g = transform::simplify(&f);
        for bits in 0..16u32 {
            prop_assert_eq!(eval_prop(&f, bits), eval_prop(&g, bits));
        }
    }

    /// Simplification is idempotent up to normalization: simplifying the
    /// normalized form of a simplified formula changes nothing, also under
    /// a binder that normalization renames. The dispatcher relies on it
    /// to skip the simplifier check on an obligation that did not split.
    #[test]
    fn simplify_is_idempotent_after_normalize(f in prop_form(), g in set_form()) {
        let p0 = Symbol::intern("p0");
        let x0 = Symbol::intern("x0");
        for form in [
            Form::forall(vec![(p0, Sort::Bool)], f.clone()),
            f,
            Form::forall(vec![(x0, Sort::Obj)], g.clone()),
            g,
        ] {
            let normal = normalize(&transform::simplify(&form)).form;
            prop_assert_eq!(transform::simplify(&normal), normal);
        }
    }

    /// CDCL agrees with brute force on random 3-CNF.
    #[test]
    fn sat_matches_brute_force(
        clauses in proptest::collection::vec(
            proptest::collection::vec((0u32..6, any::<bool>()), 1..=3),
            1..12
        )
    ) {
        use jahob_repro::sat::{SolveResult, Solver, Var};
        let mut solver = Solver::new();
        solver.reserve_vars(6);
        for clause in &clauses {
            let lits: Vec<_> = clause
                .iter()
                .map(|&(v, pos)| Var(v).lit(pos))
                .collect();
            solver.add_clause(&lits);
        }
        let got = solver.solve() == SolveResult::Unsat;
        let brute_unsat = (0u32..64).all(|mask| {
            !clauses.iter().all(|clause| {
                clause
                    .iter()
                    .any(|&(v, pos)| (mask & (1 << v) != 0) == pos)
            })
        });
        prop_assert_eq!(got, brute_unsat);
    }

    /// BAPA soundness: whenever BAPA claims a set goal valid, exhaustive
    /// small-model enumeration agrees (universe ≤ 2 suffices to refute the
    /// goals this generator produces, so the check is two-sided).
    #[test]
    fn bapa_sound_against_small_models(f in set_form()) {
        let sig: FxHashMap<Symbol, Sort> = [
            ("S0", Sort::objset()),
            ("S1", Sort::objset()),
            ("S2", Sort::objset()),
            ("x0", Sort::Obj),
            ("x1", Sort::Obj),
        ]
        .iter()
        .map(|(n, s)| (Symbol::intern(n), s.clone()))
        .collect();
        if let Ok(valid) = jahob_repro::bapa::bapa_valid(&f, &sig) {
            let syms: Vec<(Symbol, Sort)> =
                sig.iter().map(|(k, v)| (*k, v.clone())).collect();
            let small = enumerate_models(2, (0, 0), &syms, &mut |m| {
                m.eval_bool(&f).unwrap()
            });
            if valid {
                prop_assert!(small, "BAPA claimed validity but a small model refutes: {f}");
            }
        }
    }

    /// Budget starvation loses completeness, never soundness: whatever a
    /// fuel-starved dispatcher still decides agrees with both the
    /// unlimited portfolio and exhaustive small-model enumeration. An
    /// `Unknown` under starvation is always acceptable; a flipped verdict
    /// never is.
    #[test]
    fn starved_dispatcher_never_weakens_verdicts(
        f in set_form(),
        fuel in 1u64..5_000,
    ) {
        use jahob_repro::jahob::{Budget, Dispatcher, Verdict};
        let sig: FxHashMap<Symbol, Sort> = [
            ("S0", Sort::objset()),
            ("S1", Sort::objset()),
            ("S2", Sort::objset()),
            ("x0", Sort::Obj),
            ("x1", Sort::Obj),
        ]
        .iter()
        .map(|(n, s)| (Symbol::intern(n), s.clone()))
        .collect();
        let syms: Vec<(Symbol, Sort)> =
            sig.iter().map(|(k, v)| (*k, v.clone())).collect();
        let d = Dispatcher::new(sig.clone());
        let starved = d.prove_governed(&f, &Budget::with_fuel(fuel));
        match &starved {
            Verdict::Proved { .. } => {
                // Sound against the evaluator (universe 2 suffices to
                // refute the goals this generator produces) …
                let small_valid = enumerate_models(2, (0, 0), &syms, &mut |m| {
                    m.eval_bool(&f).unwrap()
                });
                prop_assert!(
                    small_valid,
                    "starved dispatcher proved a refutable goal: {}", f
                );
                // … and consistent with the unlimited portfolio.
                let unlimited = Dispatcher::new(sig);
                prop_assert!(
                    !matches!(unlimited.prove(&f), Verdict::CounterModel(_)),
                    "starved Proved vs unlimited CounterModel: {}", f
                );
            }
            Verdict::CounterModel(m) => {
                // The dispatcher may have refuted an equivalence-preserving
                // simplification of `f` in which an unused variable
                // disappeared; complete the model with defaults for those
                // symbols (any extension still refutes `f`).
                use jahob_repro::logic::model::Value;
                let mut completed = (**m).clone();
                for (name, sort) in &syms {
                    completed.interp.entry(*name).or_insert_with(|| match sort {
                        Sort::Obj => Value::Obj(0),
                        _ => Value::Set(Default::default()),
                    });
                }
                prop_assert_eq!(completed.eval_bool(&f), Ok(false));
                let unlimited = Dispatcher::new(sig);
                prop_assert!(
                    !unlimited.prove(&f).is_proved(),
                    "starved CounterModel vs unlimited Proved: {}", f
                );
            }
            Verdict::Unknown(_) => {} // degraded, not wrong
        }
    }

    /// Chaos soundness: under an arbitrary seeded fault plan (panics,
    /// timeouts, starvation, slow-burn, *and lying provers*) with the
    /// watchdog on, the dispatcher's verdict is either `Unknown` or agrees
    /// with the fault-free unlimited portfolio. Faults degrade verdicts;
    /// they never flip them.
    #[test]
    fn chaos_verdicts_never_flip(f in set_form(), seed in any::<u64>()) {
        use jahob_repro::jahob::{Dispatcher, FaultPlan, Verdict};
        use std::sync::Arc;
        let sig: FxHashMap<Symbol, Sort> = [
            ("S0", Sort::objset()),
            ("S1", Sort::objset()),
            ("S2", Sort::objset()),
            ("x0", Sort::Obj),
            ("x1", Sort::Obj),
        ]
        .iter()
        .map(|(n, s)| (Symbol::intern(n), s.clone()))
        .collect();
        let mut chaotic = Dispatcher::new(sig.clone());
        chaotic.config.fault_plan = Some(Arc::new(FaultPlan::from_seed(seed)));
        chaotic.config.obligation_fuel = 150_000;
        chaotic.config.cross_check = true;
        match chaotic.prove(&f) {
            Verdict::Proved { .. } => {
                let unlimited = Dispatcher::new(sig);
                prop_assert!(
                    unlimited.prove(&f).is_proved(),
                    "chaos Proved vs fault-free non-Proved (seed {}): {}", seed, f
                );
            }
            Verdict::CounterModel(_) => {
                let unlimited = Dispatcher::new(sig);
                prop_assert!(
                    matches!(unlimited.prove(&f), Verdict::CounterModel(_)),
                    "chaos CounterModel vs fault-free non-refuted (seed {}): {}", seed, f
                );
            }
            Verdict::Unknown(_) => {} // degraded, not wrong
        }
    }

    /// Bounded model finder exactness on the set fragment: find_model
    /// succeeds iff enumeration finds a model (universe 2).
    #[test]
    fn bmc_matches_enumeration(f in set_form()) {
        let sig: FxHashMap<Symbol, Sort> = [
            ("S0", Sort::objset()),
            ("S1", Sort::objset()),
            ("S2", Sort::objset()),
            ("x0", Sort::Obj),
            ("x1", Sort::Obj),
        ]
        .iter()
        .map(|(n, s)| (Symbol::intern(n), s.clone()))
        .collect();
        let syms: Vec<(Symbol, Sort)> =
            sig.iter().map(|(k, v)| (*k, v.clone())).collect();
        let found = jahob_repro::models::find_model(&f, &sig, 2)
            .expect("set fragment grounds")
            .is_some();
        let exists = !enumerate_models(2, (0, 0), &syms, &mut |m| {
            !m.eval_bool(&f).unwrap()
        });
        prop_assert_eq!(found, exists, "{}", f);
    }
}

// ---- the failure taxonomy -------------------------------------------------

use jahob_repro::jahob::{FailureReason, VerdictKind};

/// The severity order is load-bearing API: `Diagnosis::record` keeps the
/// per-prover *max*, so reordering these variants silently changes every
/// diagnosis that records more than one reason for a prover. Pin the
/// exact total order, least to most severe; a watchdog-caught lie is the
/// most severe reason there is.
#[test]
fn failure_reason_severity_order_is_pinned() {
    use FailureReason::*;
    let order = [
        Unsupported,
        GaveUp,
        FuelExhausted,
        Timeout,
        Panicked,
        Unconfirmed,
        Disagreement {
            claimed: VerdictKind::Proved,
            witness: VerdictKind::Refuted,
        },
    ];
    for pair in order.windows(2) {
        assert!(
            pair[0] < pair[1],
            "severity order changed: {:?} must be below {:?}",
            pair[0],
            pair[1]
        );
    }
}

// ---------------------------------------------------------------------------
// The sequent decomposition the per-prover hypothesis filter works on.

/// Random implication chains `h0 --> h1 --> ... --> goal` over
/// propositional pieces, the shape `Sequent::of` peels.
fn implication_chain() -> impl Strategy<Value = Form> {
    (proptest::collection::vec(prop_form(), 0..4), prop_form()).prop_map(|(hyps, goal)| {
        hyps.into_iter()
            .rev()
            .fold(goal, |acc, h| Form::implies(h, acc))
    })
}

proptest! {
    /// The sequent decomposition round-trips meaning: peeling into
    /// hypotheses and goal and refolding evaluates identically on every
    /// valuation (the refold may reassociate `&`-joined hypotheses).
    #[test]
    fn sequent_refold_preserves_meaning(f in implication_chain()) {
        let refolded = jahob_repro::logic::sequent::Sequent::of(&f).to_form();
        for bits in 0..16u32 {
            prop_assert_eq!(eval_prop(&f, bits), eval_prop(&refolded, bits));
        }
    }
}

// ---------------------------------------------------------------------------
// The sharing simplifier against a rebuild-everything reference.

/// Random terms built with the raw constructors, so they include every
/// shape `simplify` rewrites even when a node's children are already
/// simplified: nested or one-part `And`/`Or`, `True` conjuncts, `~~p`,
/// `a --> a`, unused binders, nested same-kind quantifiers, applications
/// of applications, `{}` and finite sets, and integer constants.
fn raw_form() -> impl Strategy<Value = Form> {
    const BINOPS: [BinOp; 13] = [
        BinOp::Implies,
        BinOp::Iff,
        BinOp::Eq,
        BinOp::Elem,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Subseteq,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Union,
        BinOp::Inter,
        BinOp::Diff,
    ];
    const UNOPS: [UnOp; 3] = [UnOp::Not, UnOp::Neg, UnOp::Card];
    let var = |i: u8| Symbol::intern(&format!("v{i}"));
    let leaf = prop_oneof![
        (0u8..3).prop_map(move |i| Form::Var(var(i))),
        (0i64..3).prop_map(Form::IntLit),
        any::<bool>().prop_map(Form::BoolLit),
        Just(Form::EmptySet),
        Just(Form::Null),
    ];
    leaf.prop_recursive(4, 48, 3, move |inner| {
        let list = |n| proptest::collection::vec(inner.clone(), n);
        prop_oneof![
            list(0..4).prop_map(Form::And),
            list(0..4).prop_map(Form::Or),
            list(1..3).prop_map(Form::FiniteSet),
            list(1..3).prop_map(Form::Tree),
            (0usize..13, inner.clone(), inner.clone()).prop_map(|(op, a, b)| Form::Binop(
                BINOPS[op],
                Rc::new(a),
                Rc::new(b)
            )),
            (0usize..3, inner.clone()).prop_map(|(op, a)| Form::Unop(UNOPS[op], Rc::new(a))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Form::Ite(
                Rc::new(c),
                Rc::new(t),
                Rc::new(e)
            )),
            (inner.clone(), list(0..3)).prop_map(|(head, args)| Form::App(Rc::new(head), args)),
            (0u8..3, any::<bool>(), inner.clone()).prop_map(move |(i, all, body)| {
                let kind = if all { QKind::All } else { QKind::Ex };
                Form::Quant(kind, vec![(var(i), Sort::Obj)], Rc::new(body))
            }),
            // Same-kind quantifiers directly nested, over a body that
            // mentions both binders: simplify merges them.
            (0u8..3, 0u8..3, any::<bool>(), inner.clone()).prop_map(move |(i, j, all, body)| {
                let kind = if all { QKind::All } else { QKind::Ex };
                let body = Form::Or(vec![Form::Var(var(i)), Form::Var(var(j)), body]);
                let inner = Form::Quant(kind, vec![(var(j), Sort::Obj)], Rc::new(body));
                Form::Quant(kind, vec![(var(i), Sort::Obj)], Rc::new(inner))
            }),
            (0u8..3, inner.clone())
                .prop_map(move |(i, body)| Form::Lambda(vec![(var(i), Sort::Obj)], Rc::new(body))),
            (0u8..3, inner.clone()).prop_map(move |(i, body)| Form::Compr(
                var(i),
                Sort::Obj,
                Rc::new(body)
            )),
            inner.clone().prop_map(|a| Form::Old(Rc::new(a))),
        ]
    })
}

/// `simplify` as it was written before it shared unchanged subtrees:
/// every node is rebuilt through the smart constructors. The oracle for
/// the sharing version, which must produce the same term.
fn reference_simplify(form: &Form) -> Form {
    match form {
        Form::Var(_) | Form::IntLit(_) | Form::BoolLit(_) | Form::Null | Form::EmptySet => {
            form.clone()
        }
        Form::Tree(elems) => Form::Tree(elems.iter().map(reference_simplify).collect()),
        Form::FiniteSet(elems) => Form::FiniteSet(elems.iter().map(reference_simplify).collect()),
        Form::And(parts) => Form::and(parts.iter().map(reference_simplify).collect()),
        Form::Or(parts) => Form::or(parts.iter().map(reference_simplify).collect()),
        Form::Unop(UnOp::Not, inner) => Form::not(reference_simplify(inner)),
        Form::Unop(UnOp::Neg, inner) => match reference_simplify(inner) {
            Form::IntLit(n) => Form::IntLit(-n),
            other => Form::Unop(UnOp::Neg, Rc::new(other)),
        },
        Form::Unop(UnOp::Card, inner) => match reference_simplify(inner) {
            Form::EmptySet => Form::IntLit(0),
            other => Form::card(other),
        },
        Form::Old(inner) => Form::Old(Rc::new(reference_simplify(inner))),
        Form::Binop(op, lhs, rhs) => {
            reference_binop(*op, reference_simplify(lhs), reference_simplify(rhs))
        }
        Form::Ite(c, t, e) => {
            let (c, t, e) = (
                reference_simplify(c),
                reference_simplify(t),
                reference_simplify(e),
            );
            match c {
                Form::BoolLit(true) => t,
                Form::BoolLit(false) => e,
                _ if t == e => t,
                c => Form::Ite(Rc::new(c), Rc::new(t), Rc::new(e)),
            }
        }
        Form::App(head, args) => Form::app(
            reference_simplify(head),
            args.iter().map(reference_simplify).collect(),
        ),
        Form::Quant(kind, binders, body) => match reference_simplify(body) {
            Form::BoolLit(b) => Form::BoolLit(b),
            body => {
                let free = body.free_vars();
                let kept = binders
                    .iter()
                    .filter(|(name, _)| free.contains(name))
                    .cloned()
                    .collect();
                Form::quant(*kind, kept, body)
            }
        },
        Form::Lambda(binders, body) => {
            Form::Lambda(binders.clone(), Rc::new(reference_simplify(body)))
        }
        Form::Compr(x, sort, body) => {
            Form::Compr(*x, sort.clone(), Rc::new(reference_simplify(body)))
        }
    }
}

fn reference_binop(op: BinOp, lhs: Form, rhs: Form) -> Form {
    use BinOp::*;
    match (op, &lhs, &rhs) {
        (Implies, _, _) if lhs == rhs => Form::tt(),
        (Implies, _, _) => Form::implies(lhs, rhs),
        (Iff, Form::BoolLit(true), _) => rhs,
        (Iff, _, Form::BoolLit(true)) => lhs,
        (Iff, Form::BoolLit(false), _) => Form::not(rhs),
        (Iff, _, Form::BoolLit(false)) => Form::not(lhs),
        (Iff, _, _) if lhs == rhs => Form::tt(),
        (Eq, Form::IntLit(a), Form::IntLit(b)) => Form::BoolLit(a == b),
        (Eq, _, _) => Form::eq(lhs, rhs),
        (Elem, _, Form::EmptySet) => Form::ff(),
        (Elem, _, Form::FiniteSet(elems)) => Form::or(
            elems
                .iter()
                .map(|e| Form::eq(lhs.clone(), e.clone()))
                .collect(),
        ),
        (Lt, Form::IntLit(a), Form::IntLit(b)) => Form::BoolLit(a < b),
        (Le, Form::IntLit(a), Form::IntLit(b)) => Form::BoolLit(a <= b),
        (Subseteq, Form::EmptySet, _) => Form::tt(),
        (Subseteq, _, _) if lhs == rhs => Form::tt(),
        (Add, Form::IntLit(a), Form::IntLit(b)) => Form::IntLit(a + b),
        (Add, Form::IntLit(0), _) => rhs,
        (Add, _, Form::IntLit(0)) => lhs,
        (Sub, Form::IntLit(a), Form::IntLit(b)) => Form::IntLit(a - b),
        (Sub, _, Form::IntLit(0)) => lhs,
        (Mul, Form::IntLit(a), Form::IntLit(b)) => Form::IntLit(a * b),
        (Mul, Form::IntLit(1), _) => rhs,
        (Mul, _, Form::IntLit(1)) => lhs,
        (Mul, Form::IntLit(0), _) | (Mul, _, Form::IntLit(0)) => Form::IntLit(0),
        (Union, Form::EmptySet, _) => rhs,
        (Union, _, Form::EmptySet) => lhs,
        (Union, _, _) if lhs == rhs => lhs,
        (Inter, Form::EmptySet, _) | (Inter, _, Form::EmptySet) => Form::EmptySet,
        (Inter, _, _) if lhs == rhs => lhs,
        (Diff, _, Form::EmptySet) => lhs,
        (Diff, Form::EmptySet, _) => Form::EmptySet,
        (Diff, _, _) if lhs == rhs => Form::EmptySet,
        _ => Form::binop(op, lhs, rhs),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sharing `simplify` returns exactly the term the
    /// rebuild-everything reference builds, and simplifying its output
    /// again hands back the same term.
    #[test]
    fn simplify_matches_the_rebuilding_reference(
        f in prop_form(),
        g in set_form(),
        raw in raw_form(),
    ) {
        for form in [f, g, raw] {
            let simplified = transform::simplify(&form);
            prop_assert_eq!(&simplified, &reference_simplify(&form), "{}", form);
            prop_assert_eq!(transform::simplify(&simplified), reference_simplify(&simplified));
        }
    }
}
