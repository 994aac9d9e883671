//! Property-based tests (proptest) over the core data structures and the
//! soundness invariants that tie the workspace together:
//!
//! * parser/printer round-trips on randomly generated formulas,
//! * NNF preserves meaning (checked against the reference evaluator),
//! * the CDCL solver agrees with brute force on random CNF,
//! * BAPA never claims validity of a goal a small model refutes,
//! * the bounded model finder's verdicts match exhaustive enumeration.

use jahob_repro::logic::model::enumerate_models;
use jahob_repro::logic::{transform, BinOp, Form, Sort};
use jahob_repro::util::{FxHashMap, Symbol};
use proptest::prelude::*;

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
        let d = Dispatcher::new(sig.clone(), FxHashMap::default());
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
                let unlimited = Dispatcher::new(sig, FxHashMap::default());
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
                let unlimited = Dispatcher::new(sig, FxHashMap::default());
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
        let mut chaotic = Dispatcher::new(sig.clone(), FxHashMap::default());
        chaotic.config.fault_plan = Some(Arc::new(FaultPlan::from_seed(seed)));
        chaotic.config.obligation_fuel = 150_000;
        chaotic.config.cross_check = true;
        match chaotic.prove(&f) {
            Verdict::Proved { .. } => {
                let unlimited = Dispatcher::new(sig, FxHashMap::default());
                prop_assert!(
                    unlimited.prove(&f).is_proved(),
                    "chaos Proved vs fault-free non-Proved (seed {}): {}", seed, f
                );
            }
            Verdict::CounterModel(_) => {
                let unlimited = Dispatcher::new(sig, FxHashMap::default());
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

// ---- diagnosis merging under race-order nondeterminism (ISSUE 8) --------

use jahob_repro::jahob::{Diagnosis, FailureReason, ProverId, VerdictKind};

/// The most severe reason there is: a watchdog-caught lie.
fn disagreement() -> FailureReason {
    FailureReason::Disagreement {
        claimed: VerdictKind::Proved,
        witness: VerdictKind::Refuted,
    }
}

/// The severity order is load-bearing API: `Diagnosis::record` keeps the
/// per-prover *max*, so reordering these variants silently changes every
/// merged diagnosis. Pin the exact total order, least to most severe.
#[test]
fn failure_reason_severity_order_is_pinned() {
    use FailureReason::*;
    let order = [
        Unsupported,
        CircuitOpen,
        GaveUp,
        FuelExhausted,
        Timeout,
        Panicked,
        Unconfirmed,
        disagreement(),
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

fn any_reason() -> impl Strategy<Value = FailureReason> {
    use FailureReason::*;
    prop_oneof![
        Just(Unsupported),
        Just(CircuitOpen),
        Just(GaveUp),
        Just(FuelExhausted),
        Just(Timeout),
        Just(Panicked),
        Just(Unconfirmed),
        Just(disagreement()),
    ]
}

fn any_prover() -> impl Strategy<Value = ProverId> {
    (0usize..ProverId::COUNT).prop_map(|i| ProverId::ALL[i])
}

fn singleton(prover: ProverId, reason: FailureReason) -> Diagnosis {
    Diagnosis {
        attempts: vec![(prover, reason)],
        obligation_spent: None,
    }
}

proptest! {
    /// Merging is keyed on the prover, never on arrival position: folding
    /// the same set of per-prover attempts in *any* order — wall-clock
    /// race-finish order included — yields the same per-prover reasons
    /// (the pointwise max). This is the property that lets speculative
    /// race losers be merged in canonical portfolio order while threads
    /// complete in scheduler order.
    #[test]
    fn merge_from_is_order_insensitive_per_prover(
        attempts in proptest::collection::vec((any_prover(), any_reason()), 1..12),
        order_seed in any::<u64>(),
    ) {
        // Canonical fold: attempts in the given order.
        let mut canonical = Diagnosis::default();
        for &(p, r) in &attempts {
            canonical.merge_from(&singleton(p, r));
        }
        // Adversarial fold: a seed-shuffled arrival order.
        let mut shuffled = attempts.clone();
        let mut state = order_seed | 1;
        for i in (1..shuffled.len()).rev() {
            // xorshift is plenty for a permutation; proptest owns the seed.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let mut raced = Diagnosis::default();
        for &(p, r) in &shuffled {
            raced.merge_from(&singleton(p, r));
        }
        // Same per-prover verdicts regardless of arrival order…
        for prover in ProverId::ALL {
            prop_assert_eq!(
                canonical.reason(prover),
                raced.reason(prover),
                "prover {} disagreed across merge orders", prover.name()
            );
        }
        // …and each recorded reason is exactly the max of that prover's
        // occurrences.
        for prover in ProverId::ALL {
            let expected = attempts
                .iter()
                .filter(|(p, _)| *p == prover)
                .map(|(_, r)| *r)
                .max();
            prop_assert_eq!(canonical.reason(prover), expected);
        }
    }

    /// `obligation_spent` merges to the most severe marker, and merging
    /// is idempotent: folding a diagnosis into itself changes nothing.
    #[test]
    fn merge_from_obligation_spent_keeps_max_and_is_idempotent(
        a in prop_oneof![Just(None), any_reason().prop_map(Some)],
        b in prop_oneof![Just(None), any_reason().prop_map(Some)],
        attempts in proptest::collection::vec((any_prover(), any_reason()), 0..8),
    ) {
        let mut left = Diagnosis { attempts: Vec::new(), obligation_spent: a };
        for &(p, r) in &attempts {
            left.merge_from(&singleton(p, r));
        }
        let right = Diagnosis { attempts: Vec::new(), obligation_spent: b };
        left.merge_from(&right);
        prop_assert_eq!(left.obligation_spent, a.max(b));

        let snapshot = left.clone();
        left.merge_from(&snapshot);
        prop_assert_eq!(
            format!("{left:?}"), format!("{snapshot:?}"),
            "merge_from must be idempotent"
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
