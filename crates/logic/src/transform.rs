//! Logical transformations used by the VC generator and the provers.
//!
//! * [`beta_reduce`] — contract `(% x. e) a` redexes and comprehension
//!   memberships `a : {x. P}`; this is how abstraction-function definitions
//!   disappear after unfolding.
//! * [`simplify`] — bottom-up constant folding and algebraic identities.
//! * [`nnf`] — negation normal form (no `-->`/`Iff`; `~` only on atoms).
//! * [`prenex`] — pull quantifiers to a prefix.
//! * [`skolemize`] — remove existentials (validity-preserving direction: the
//!   formula is skolemized after negation by refutation-based provers).
//! * [`split_conjuncts`] — Jahob's "simple goal decomposition technique":
//!   split a proof obligation into independently provable conjuncts, pushing
//!   the split under universal quantifiers and implications.

use crate::form::sym::builtins;
use crate::form::{changed_copy, keep, BinOp, Form, QKind, UnOp};
use crate::sort::Sort;
use jahob_util::{FxHashMap, Symbol};
use std::rc::Rc;

/// Beta-reduce to a fixpoint: `(% xs. e) as` → `e[xs := as]` and
/// `a : {x. P}` → `P[x := a]`. Also contracts `fieldRead f x` → `f x`.
pub fn beta_reduce(form: &Form) -> Form {
    beta_reduced(form).unwrap_or_else(|| form.clone())
}

/// [`beta_reduce`] as a rewrite: `None` when `form` has no redex.
fn beta_reduced(form: &Form) -> Option<Form> {
    // Iterate because a contraction can expose new redexes; terminates in
    // practice because Jahob definitions are non-recursive. Bound the number
    // of sweeps defensively.
    let mut current = beta_once(form)?;
    for _ in 1..64 {
        match beta_once(&current) {
            Some(next) => current = next,
            None => break,
        }
    }
    Some(current)
}

/// One sweep of contractions; `None` when it contracts nothing.
fn beta_once(form: &Form) -> Option<Form> {
    match form {
        Form::Binop(BinOp::Elem, lhs, rhs) => {
            let (nl, nr) = (beta_once(lhs), beta_once(rhs));
            if let Form::Compr(x, _, body) = nr.as_ref().unwrap_or(rhs) {
                return Some(body.subst1(*x, nl.as_ref().unwrap_or(lhs)));
            }
            if nl.is_none() && nr.is_none() {
                return None;
            }
            Some(Form::Binop(BinOp::Elem, keep(nl, lhs), keep(nr, rhs)))
        }
        Form::App(head, args) => {
            let nh = beta_once(head);
            let na = changed_copy(args, beta_once);
            let new_args = na.as_deref().unwrap_or(args);
            match nh.as_ref().unwrap_or(head) {
                Form::Lambda(binders, body) if new_args.len() >= binders.len() => {
                    let map: FxHashMap<Symbol, Form> = binders
                        .iter()
                        .zip(new_args)
                        .map(|((name, _), arg)| (*name, arg.clone()))
                        .collect();
                    let reduced = body.subst(&map);
                    Some(Form::app(reduced, new_args[binders.len()..].to_vec()))
                }
                // fieldRead f x  ==  f x
                Form::Var(name) if *name == builtins().field_read && new_args.len() >= 2 => {
                    Some(Form::app(new_args[0].clone(), new_args[1..].to_vec()))
                }
                _ => Form::rebuild_app(head, args, nh, na),
            }
        }
        _ => form.map_children(beta_once),
    }
}

/// Bottom-up simplification: boolean/integer constant folding and neutral
/// element identities. Equivalence-preserving.
pub fn simplify(form: &Form) -> Form {
    simplified(form).unwrap_or_else(|| form.clone())
}

/// [`simplify`] as a rewrite: `None` when `form` is already simplified. A
/// node whose children come back unchanged can still rewrite (`a --> a`,
/// `~~p`, a binder that does not occur, an `And` that is not flat).
fn simplified(form: &Form) -> Option<Form> {
    match form {
        Form::Unop(UnOp::Not, inner) => Form::rebuild_not(inner, simplified(inner)),
        Form::Unop(UnOp::Neg, inner) => {
            let new = simplified(inner);
            if let Form::IntLit(n) = new.as_ref().unwrap_or(inner) {
                return Some(Form::IntLit(-n));
            }
            new.map(|n| Form::Unop(UnOp::Neg, Rc::new(n)))
        }
        Form::Unop(UnOp::Card, inner) => {
            let new = simplified(inner);
            if let Form::EmptySet = new.as_ref().unwrap_or(inner) {
                return Some(Form::IntLit(0));
            }
            new.map(Form::card)
        }
        Form::Binop(op, lhs, rhs) => {
            let (nl, nr) = (simplified(lhs), simplified(rhs));
            let folded =
                simplify_binop(*op, nl.as_ref().unwrap_or(lhs), nr.as_ref().unwrap_or(rhs));
            if folded.is_some() || (nl.is_none() && nr.is_none()) {
                return folded;
            }
            Some(Form::Binop(*op, keep(nl, lhs), keep(nr, rhs)))
        }
        Form::Ite(c, t, e) => {
            let (nc, nt) = (simplified(c), simplified(t));
            let ne = simplified(e);
            let (then, other) = (nt.as_ref().unwrap_or(t), ne.as_ref().unwrap_or(e));
            match nc.as_ref().unwrap_or(c) {
                Form::BoolLit(true) => return Some(then.clone()),
                Form::BoolLit(false) => return Some(other.clone()),
                _ if then == other => return Some(then.clone()),
                _ => {}
            }
            if nc.is_none() && nt.is_none() && ne.is_none() {
                return None;
            }
            Some(Form::Ite(keep(nc, c), keep(nt, t), keep(ne, e)))
        }
        Form::App(head, args) => {
            let nh = simplified(head);
            Form::rebuild_app(head, args, nh, changed_copy(args, simplified))
        }
        Form::Quant(kind, binders, body) => {
            let new = simplified(body);
            let inner = new.as_ref().unwrap_or(body);
            if let Form::BoolLit(b) = inner {
                return Some(Form::BoolLit(*b));
            }
            // Drop binders that no longer occur (sound for both
            // quantifiers because all sorts are non-empty: obj contains at
            // least null's companion objects, int is infinite, sets contain
            // {}).
            let all_occur = binders.iter().all(|(name, _)| inner.occurs_free(*name));
            let merges = matches!(inner, Form::Quant(k, ..) if k == kind);
            if new.is_none() && all_occur && !binders.is_empty() && !merges {
                return None;
            }
            let kept: Vec<(Symbol, Sort)> = if all_occur {
                binders.clone()
            } else {
                binders
                    .iter()
                    .filter(|(name, _)| inner.occurs_free(*name))
                    .cloned()
                    .collect()
            };
            Some(Form::quant(
                *kind,
                kept,
                new.unwrap_or_else(|| body.as_ref().clone()),
            ))
        }
        _ => form.map_children(simplified),
    }
}

/// The rewrite `simplify` makes at a binary node whose operands are
/// already simplified; `None` when the node stays `lhs op rhs`.
fn simplify_binop(op: BinOp, lhs: &Form, rhs: &Form) -> Option<Form> {
    use BinOp::*;
    use Form::{BoolLit, EmptySet, FiniteSet, IntLit};
    Some(match (op, lhs, rhs) {
        (Implies, _, _) if lhs == rhs => Form::tt(),
        (Implies, BoolLit(true), _) => rhs.clone(),
        (Implies, BoolLit(false), _) | (Implies, _, BoolLit(true)) => Form::tt(),
        (Implies, _, BoolLit(false)) => Form::not(lhs.clone()),
        (Iff, BoolLit(true), _) => rhs.clone(),
        (Iff, _, BoolLit(true)) => lhs.clone(),
        (Iff, BoolLit(false), _) => Form::not(rhs.clone()),
        (Iff, _, BoolLit(false)) => Form::not(lhs.clone()),
        (Iff, _, _) if lhs == rhs => Form::tt(),
        (Eq, IntLit(a), IntLit(b)) => BoolLit(a == b),
        (Eq, _, _) if lhs == rhs => Form::tt(),
        (Elem, _, EmptySet) => Form::ff(),
        (Elem, _, FiniteSet(elems)) => Form::or(
            elems
                .iter()
                .map(|e| Form::eq(lhs.clone(), e.clone()))
                .collect(),
        ),
        (Lt, IntLit(a), IntLit(b)) => BoolLit(a < b),
        (Le, IntLit(a), IntLit(b)) => BoolLit(a <= b),
        (Subseteq, EmptySet, _) => Form::tt(),
        (Subseteq, _, _) if lhs == rhs => Form::tt(),
        (Add, IntLit(a), IntLit(b)) => IntLit(a + b),
        (Add, IntLit(0), _) => rhs.clone(),
        (Add, _, IntLit(0)) => lhs.clone(),
        (Sub, IntLit(a), IntLit(b)) => IntLit(a - b),
        (Sub, _, IntLit(0)) => lhs.clone(),
        (Mul, IntLit(a), IntLit(b)) => IntLit(a * b),
        (Mul, IntLit(1), _) => rhs.clone(),
        (Mul, _, IntLit(1)) => lhs.clone(),
        (Mul, IntLit(0), _) | (Mul, _, IntLit(0)) => IntLit(0),
        (Union, EmptySet, _) => rhs.clone(),
        (Union, _, EmptySet) => lhs.clone(),
        (Union, _, _) if lhs == rhs => lhs.clone(),
        (Inter, EmptySet, _) | (Inter, _, EmptySet) => EmptySet,
        (Inter, _, _) if lhs == rhs => lhs.clone(),
        (Diff, _, EmptySet) => lhs.clone(),
        (Diff, EmptySet, _) => EmptySet,
        (Diff, _, _) if lhs == rhs => EmptySet,
        _ => return None,
    })
}

/// Negation normal form: eliminates `-->` and `Iff`, pushes `~` to atoms,
/// dualizes quantifiers. The result contains `And`, `Or`, `Quant`, atoms, and
/// negated atoms only.
pub fn nnf(form: &Form) -> Form {
    nnf_pos(form)
}

fn is_atom(form: &Form) -> bool {
    !matches!(
        form,
        Form::And(_)
            | Form::Or(_)
            | Form::Unop(UnOp::Not, _)
            | Form::Binop(BinOp::Implies | BinOp::Iff, _, _)
            | Form::Quant(_, _, _)
            | Form::BoolLit(_)
    )
}

fn nnf_pos(form: &Form) -> Form {
    match form {
        Form::And(parts) => Form::and(parts.iter().map(nnf_pos).collect()),
        Form::Or(parts) => Form::or(parts.iter().map(nnf_pos).collect()),
        Form::Unop(UnOp::Not, inner) => nnf_neg(inner),
        Form::Binop(BinOp::Implies, lhs, rhs) => Form::or(vec![nnf_neg(lhs), nnf_pos(rhs)]),
        Form::Binop(BinOp::Iff, lhs, rhs) => Form::and(vec![
            Form::or(vec![nnf_neg(lhs), nnf_pos(rhs)]),
            Form::or(vec![nnf_pos(lhs), nnf_neg(rhs)]),
        ]),
        Form::Quant(kind, binders, body) => Form::quant(*kind, binders.clone(), nnf_pos(body)),
        _ => form.clone(),
    }
}

fn nnf_neg(form: &Form) -> Form {
    match form {
        Form::And(parts) => Form::or(parts.iter().map(nnf_neg).collect()),
        Form::Or(parts) => Form::and(parts.iter().map(nnf_neg).collect()),
        Form::Unop(UnOp::Not, inner) => nnf_pos(inner),
        Form::Binop(BinOp::Implies, lhs, rhs) => Form::and(vec![nnf_pos(lhs), nnf_neg(rhs)]),
        Form::Binop(BinOp::Iff, lhs, rhs) => Form::and(vec![
            Form::or(vec![nnf_pos(lhs), nnf_pos(rhs)]),
            Form::or(vec![nnf_neg(lhs), nnf_neg(rhs)]),
        ]),
        Form::Quant(kind, binders, body) => {
            Form::quant(kind.dual(), binders.clone(), nnf_neg(body))
        }
        Form::BoolLit(b) => Form::BoolLit(!b),
        atom => {
            debug_assert!(is_atom(atom), "nnf_neg reached non-atom {atom:?}");
            Form::Unop(UnOp::Not, Rc::new(atom.clone()))
        }
    }
}

/// Prenex normal form of an NNF formula: returns the quantifier prefix
/// (outermost first) and the quantifier-free matrix. Bound variables are
/// renamed apart.
pub fn prenex(form: &Form) -> (Vec<(QKind, Symbol, Sort)>, Form) {
    let nnf_form = nnf(form);
    let mut prefix = Vec::new();
    let matrix = prenex_rec(&nnf_form, &mut prefix);
    (prefix, matrix)
}

fn prenex_rec(form: &Form, prefix: &mut Vec<(QKind, Symbol, Sort)>) -> Form {
    match form {
        Form::Quant(kind, binders, body) => {
            // Rename binders apart so hoisting cannot capture.
            let mut map = FxHashMap::default();
            let mut fresh_binders = Vec::with_capacity(binders.len());
            for (name, sort) in binders {
                let fresh = Symbol::fresh(*name);
                map.insert(*name, Form::Var(fresh));
                fresh_binders.push((fresh, sort.clone()));
            }
            let renamed = body.subst(&map);
            for (name, sort) in fresh_binders {
                prefix.push((*kind, name, sort));
            }
            prenex_rec(&renamed, prefix)
        }
        Form::And(parts) => Form::and(parts.iter().map(|p| prenex_rec(p, prefix)).collect()),
        Form::Or(parts) => Form::or(parts.iter().map(|p| prenex_rec(p, prefix)).collect()),
        other => other.clone(),
    }
}

/// Skolemize an NNF formula in the *refutation* direction: existentials are
/// replaced by fresh function symbols of the enclosing universals. Used after
/// negating a goal; satisfiability is preserved. Returns the skolemized form
/// and the introduced skolem symbols with their sorts.
pub fn skolemize(form: &Form) -> (Form, Vec<(Symbol, Sort)>) {
    let nnf_form = nnf(form);
    let mut skolems = Vec::new();
    let mut universals: Vec<(Symbol, Sort)> = Vec::new();
    let result = skolemize_rec(&nnf_form, &mut universals, &mut skolems);
    (result, skolems)
}

fn skolemize_rec(
    form: &Form,
    universals: &mut Vec<(Symbol, Sort)>,
    skolems: &mut Vec<(Symbol, Sort)>,
) -> Form {
    match form {
        Form::Quant(QKind::Ex, binders, body) => {
            let mut map = FxHashMap::default();
            for (name, sort) in binders {
                let sk = Symbol::fresh(Symbol::intern(&format!("sk_{name}")));
                if universals.is_empty() {
                    skolems.push((sk, sort.clone()));
                    map.insert(*name, Form::Var(sk));
                } else {
                    let arg_sorts: Vec<Sort> = universals.iter().map(|(_, s)| s.clone()).collect();
                    skolems.push((sk, Sort::Fun(arg_sorts, Box::new(sort.clone()))));
                    let args: Vec<Form> = universals.iter().map(|(u, _)| Form::Var(*u)).collect();
                    map.insert(*name, Form::app(Form::Var(sk), args));
                }
            }
            let substituted = body.subst(&map);
            skolemize_rec(&substituted, universals, skolems)
        }
        Form::Quant(QKind::All, binders, body) => {
            let depth = universals.len();
            universals.extend(binders.iter().cloned());
            let inner = skolemize_rec(body, universals, skolems);
            universals.truncate(depth);
            Form::quant(QKind::All, binders.clone(), inner)
        }
        Form::And(parts) => Form::and(
            parts
                .iter()
                .map(|p| skolemize_rec(p, universals, skolems))
                .collect(),
        ),
        Form::Or(parts) => Form::or(
            parts
                .iter()
                .map(|p| skolemize_rec(p, universals, skolems))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Goal decomposition: split a proof obligation into independently provable
/// pieces. Handles `A & B` (split), `H --> (A & B)` (distribute), and
/// `ALL x. A & B` (distribute). Hypotheses are kept with each piece.
pub fn split_conjuncts(form: &Form) -> Vec<Form> {
    let mut out = Vec::new();
    split_rec(form, &mut out);
    if out.is_empty() {
        out.push(Form::tt());
    }
    out
}

fn split_rec(form: &Form, out: &mut Vec<Form>) {
    match form {
        Form::And(parts) => {
            for p in parts {
                split_rec(p, out);
            }
        }
        Form::Binop(BinOp::Implies, hyp, concl) => {
            // Recurse on the conclusion *without* the `[tt]` fallback of the
            // public entry point: a trivially-true conclusion must erase the
            // whole implication (`H --> true` is valid, nothing to prove),
            // not survive as a one-piece split.
            let mut pieces = Vec::new();
            split_rec(concl, &mut pieces);
            match pieces.as_slice() {
                [] => {}
                [only] if only == concl.as_ref() => out.push(form.clone()),
                _ => {
                    for piece in pieces {
                        out.push(Form::implies(hyp.as_ref().clone(), piece));
                    }
                }
            }
        }
        Form::Quant(QKind::All, binders, body) => {
            let mut pieces = Vec::new();
            split_rec(body, &mut pieces);
            match pieces.as_slice() {
                [] => {} // `ALL x. true`: trivially valid, drop it
                [only] if only == body.as_ref() => out.push(form.clone()),
                _ => {
                    for piece in pieces {
                        out.push(Form::forall(binders.clone(), piece));
                    }
                }
            }
        }
        Form::BoolLit(true) => {}
        other => out.push(other.clone()),
    }
}

/// Replace every free occurrence of defined symbols by their definitions
/// (used to unfold `vardefs` abstraction functions), then beta-reduce.
pub fn unfold_defs(form: &Form, defs: &FxHashMap<Symbol, Form>) -> Form {
    if defs.is_empty() {
        return form.clone();
    }
    // Definitions may reference each other (content is defined via nodes);
    // iterate substitution to a fixpoint, with a defensive bound against
    // accidental cycles.
    let mut current = form.clone();
    for _ in 0..16 {
        let substituted = current.subst_changed(defs, false);
        let reduced = beta_reduced(substituted.as_ref().unwrap_or(&current));
        match reduced.or(substituted) {
            Some(next) => current = next,
            None => break,
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn p(src: &str) -> Form {
        parse_form(src).unwrap()
    }

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn beta_lambda() {
        let f = p("(% x y. x = y) a b");
        assert_eq!(beta_reduce(&f), p("a = b"));
    }

    #[test]
    fn beta_partial_application() {
        let f = p("(% x y. x = y) a");
        let reduced = beta_reduce(&f);
        // Partial application leaves a one-argument application pending until
        // a further argument arrives.
        let completed = Form::app(reduced, vec![Form::v("b")]);
        assert_eq!(beta_reduce(&completed), p("a = b"));
    }

    #[test]
    fn beta_comprehension_membership() {
        let f = p("a : {x. x ~= null}");
        assert_eq!(beta_reduce(&f), p("a ~= null"));
    }

    #[test]
    fn beta_nested() {
        let f = p("a : {x. EX n. x = n & n : {y. y ~= null}}");
        let red = beta_reduce(&f);
        assert_eq!(red, p("EX n. a = n & n ~= null"));
    }

    #[test]
    fn simplify_folds_constants() {
        assert_eq!(simplify(&p("1 + 2 * 3")), Form::IntLit(7));
        assert_eq!(simplify(&p("1 < 2")), Form::tt());
        assert_eq!(simplify(&p("2 <= 1")), Form::ff());
        assert_eq!(simplify(&p("x + 0")), Form::v("x"));
        assert_eq!(simplify(&p("S Un {}")), Form::v("S"));
        assert_eq!(simplify(&p("a : {}")), Form::ff());
        assert_eq!(simplify(&p("card {}")), Form::IntLit(0));
    }

    #[test]
    fn simplify_finite_membership() {
        let f = simplify(&p("x : {a, b}"));
        assert_eq!(f, p("x = a | x = b"));
    }

    #[test]
    fn simplify_drops_unused_binder() {
        let f = simplify(&p("ALL x y. x = x0"));
        match f {
            Form::Quant(QKind::All, binders, _) => assert_eq!(binders.len(), 1),
            other => panic!("expected ALL, got {other:?}"),
        }
        // Fully constant bodies collapse.
        assert_eq!(simplify(&p("ALL x. True")), Form::tt());
        assert_eq!(simplify(&p("EX x. False")), Form::ff());
    }

    #[test]
    fn simplify_shares_an_already_simplified_implication_chain() {
        let chain = simplify(&p(
            "x : S --> (ALL y. y : S --> y ~= null) --> card S = n + 1 --> x ~= null",
        ));
        let again = simplify(&chain);
        assert_eq!(again, chain);
        let (mut before, mut after) = (&chain, &again);
        loop {
            let (
                Form::Binop(BinOp::Implies, hyp, concl),
                Form::Binop(BinOp::Implies, hyp2, concl2),
            ) = (before, after)
            else {
                panic!("expected a --> chain, got {after:?}")
            };
            assert!(Rc::ptr_eq(hyp, hyp2), "hypothesis {hyp} rebuilt");
            if !matches!(**concl, Form::Binop(BinOp::Implies, ..)) {
                assert!(Rc::ptr_eq(concl, concl2), "goal {concl} rebuilt");
                break;
            }
            (before, after) = (concl, concl2);
        }
    }

    #[test]
    fn simplify_rewrites_nodes_whose_children_are_unchanged() {
        let a = Rc::new(p("x : S"));
        let same = Form::Binop(BinOp::Implies, Rc::clone(&a), Rc::clone(&a));
        assert_eq!(simplify(&same), Form::tt());
        let double = Form::Unop(UnOp::Not, Rc::new(Form::Unop(UnOp::Not, Rc::clone(&a))));
        assert_eq!(simplify(&double), *a);
        let nested = Form::And(vec![Form::And(vec![p("a"), p("b")]), p("c")]);
        assert_eq!(simplify(&nested), p("a & b & c"));
        let unused = Form::Quant(QKind::All, vec![(s("y"), Sort::Obj)], Rc::clone(&a));
        assert_eq!(simplify(&unused), *a);
    }

    #[test]
    fn nnf_eliminates_implies() {
        let f = nnf(&p("a --> b"));
        assert_eq!(f, p("~a | b"));
    }

    #[test]
    fn nnf_pushes_negation_through_quantifier() {
        let f = nnf(&p("~(ALL x. x : S)"));
        match f {
            Form::Quant(QKind::Ex, _, body) => {
                assert!(matches!(body.as_ref(), Form::Unop(UnOp::Not, _)));
            }
            other => panic!("expected EX, got {other:?}"),
        }
    }

    #[test]
    fn nnf_de_morgan() {
        assert_eq!(nnf(&p("~(a & b)")), p("~a | ~b"));
        assert_eq!(nnf(&p("~(a | b)")), p("~a & ~b"));
    }

    #[test]
    fn nnf_iff_expands() {
        let f = nnf(&p("a = b --> c"));
        // a = b is an atom here (Eq, not Iff, before elaboration), so the
        // whole thing is ~(a=b) | c.
        assert_eq!(f, p("a ~= b | c"));
    }

    #[test]
    fn prenex_hoists_and_renames() {
        let (prefix, matrix) = prenex(&p("(ALL x. x : S) & (EX x. x : T)"));
        assert_eq!(prefix.len(), 2);
        assert_eq!(prefix[0].0, QKind::All);
        assert_eq!(prefix[1].0, QKind::Ex);
        assert_ne!(prefix[0].1, prefix[1].1, "binders renamed apart");
        assert!(matches!(matrix, Form::And(_)));
    }

    #[test]
    fn skolemize_top_level_exists() {
        let (f, sk) = skolemize(&p("EX x. x : S"));
        assert_eq!(sk.len(), 1);
        match f {
            Form::Binop(BinOp::Elem, lhs, _) => {
                assert!(matches!(lhs.as_ref(), Form::Var(_)));
            }
            other => panic!("expected membership, got {other:?}"),
        }
    }

    #[test]
    fn skolemize_under_universal_introduces_function() {
        let (f, sk) = skolemize(&p("ALL x. EX y. x ~= y"));
        assert_eq!(sk.len(), 1);
        assert!(matches!(sk[0].1, Sort::Fun(_, _)));
        match &f {
            Form::Quant(QKind::All, _, body) => {
                // Body is x ~= sk(x): a negated equality with an application.
                let text = body.to_string();
                assert!(text.contains("sk_y"), "skolem term in {text}");
            }
            other => panic!("expected ALL, got {other:?}"),
        }
    }

    #[test]
    fn split_basic_conjunction() {
        let parts = split_conjuncts(&p("a & b & c"));
        assert_eq!(parts, vec![p("a"), p("b"), p("c")]);
    }

    #[test]
    fn split_under_implication_and_quantifier() {
        let parts = split_conjuncts(&p("h --> (ALL x. p x & q x)"));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], p("h --> (ALL x. p x)"));
        assert_eq!(parts[1], p("h --> (ALL x. q x)"));
    }

    #[test]
    fn split_keeps_disjunction_whole() {
        let parts = split_conjuncts(&p("a | b"));
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn split_drops_implication_of_true() {
        // Built raw: the `Form::implies` smart constructor collapses
        // `H --> true` itself, but substitution and WP compute produce the
        // raw `Binop` shape, which the splitter must erase.
        let trivial = Form::Binop(BinOp::Implies, Rc::new(p("h")), Rc::new(Form::tt()));
        assert_eq!(split_conjuncts(&trivial), vec![Form::tt()]);
        // …and alongside real pieces, only the real piece survives.
        let mixed = Form::And(vec![trivial, p("a")]);
        assert_eq!(split_conjuncts(&mixed), vec![p("a")]);
    }

    #[test]
    fn split_drops_quantified_true() {
        let trivial = Form::Quant(QKind::All, vec![(s("x"), Sort::Obj)], Rc::new(Form::tt()));
        assert_eq!(split_conjuncts(&trivial), vec![Form::tt()]);
        let mixed = Form::And(vec![p("b"), trivial]);
        assert_eq!(split_conjuncts(&mixed), vec![p("b")]);
    }

    #[test]
    fn split_drops_nested_trivial_pieces() {
        // `h --> (ALL x. true & (g --> true))` is trivially valid through
        // two levels of structure; the splitter must yield no pieces.
        let inner = Form::And(vec![
            Form::tt(),
            Form::Binop(BinOp::Implies, Rc::new(p("g")), Rc::new(Form::tt())),
        ]);
        let all = Form::Quant(QKind::All, vec![(s("x"), Sort::Obj)], Rc::new(inner));
        let outer = Form::Binop(BinOp::Implies, Rc::new(p("h")), Rc::new(all));
        assert_eq!(split_conjuncts(&outer), vec![Form::tt()]);
        // A non-trivial sibling conjunct under the quantifier still splits
        // out on its own, without the trivial siblings.
        let inner = Form::And(vec![Form::tt(), p("p x")]);
        let all = Form::Quant(QKind::All, vec![(s("x"), Sort::Obj)], Rc::new(inner));
        let outer = Form::Binop(BinOp::Implies, Rc::new(p("h")), Rc::new(all));
        let expected = Form::implies(p("h"), Form::forall(vec![(s("x"), Sort::Obj)], p("p x")));
        assert_eq!(split_conjuncts(&outer), vec![expected]);
    }

    #[test]
    fn unfold_defs_chain() {
        // content defined in terms of nodes, as in Figure 3.
        let mut defs = FxHashMap::default();
        defs.insert(s("nodesU"), p("{n. n ~= null}"));
        defs.insert(s("contentU"), p("{x. EX n. x = data n & n : nodesU}"));
        let goal = p("a : contentU");
        let unfolded = unfold_defs(&goal, &defs);
        assert_eq!(unfolded, p("EX n. a = data n & n ~= null"));
    }

    #[test]
    fn nnf_roundtrip_equivalence_spotcheck() {
        // NNF preserves meaning on a propositional example: check all
        // valuations by substitution + simplify.
        let f = p("(a --> b) & ~(c | a)");
        let g = nnf(&f);
        for bits in 0..8u32 {
            let mut map = FxHashMap::default();
            map.insert(s("a"), Form::BoolLit(bits & 1 != 0));
            map.insert(s("b"), Form::BoolLit(bits & 2 != 0));
            map.insert(s("c"), Form::BoolLit(bits & 4 != 0));
            let fv = simplify(&f.subst(&map));
            let gv = simplify(&g.subst(&map));
            assert_eq!(fv, gv, "NNF changed meaning at valuation {bits:03b}");
        }
    }
}
