//! First-order axiomatization of reachability — the [52] component.
//!
//! `rtrancl_pt (% x y. f x = y) s t` atoms are replaced by applications of a
//! fresh reachability predicate `$reach_f(s, t)`, and axiom schemas that are
//! *sound* for the intended interpretation (R = reflexive-transitive closure
//! of the functional edge `x ↦ f x`) are added:
//!
//! 1. `∀x. R(x, x)`                                  (reflexivity)
//! 2. `∀x y z. R(x,y) ∧ R(y,z) → R(x,z)`             (transitivity)
//! 3. `∀x. R(x, f x)`                                 (step)
//! 4. `∀x y. R(x,y) → x = y ∨ R(f x, y)`              (unfold first step)
//! 5. `∀x y z. R(x,y) ∧ R(x,z) → R(y,z) ∨ R(z,y)`     (chain linearity —
//!    sound because `f` is a function)
//!
//! Full transitive closure is not first-order axiomatizable ([61], [52]); the
//! schemas make the prover *incomplete but sound*: derived refutations hold
//! in every model of the axioms, which include all intended heap models.
//!
//! Updated fields: a lambda body `fieldWrite f a b x = y` introduces a fresh
//! function symbol `u` with bridging axioms `u(a) = b` and
//! `∀x. x ≠ a → u(x) = f(x)`, then reachability over `u` as above.
//!
//! `tree [...]` atoms are abstracted to opaque propositional constants —
//! sound in both polarities because an uninterpreted atom only weakens the
//! derivable consequences.

use jahob_logic::form::sym::builtins;
use jahob_logic::{BinOp, Form, Sort};
use jahob_util::Symbol;

/// Rewrite reachability/tree atoms and return the needed axioms. The
/// rewritten goal shares every subtree with no such atom.
pub fn prepare(goal: &Form) -> (Form, Vec<Form>) {
    let mut cx = ReachCx {
        reach_funs: Vec::new(),
        update_count: 0,
        update_axioms: Vec::new(),
    };
    let rewritten = cx.rewritten(goal);
    let mut axioms = cx.update_axioms;
    for f in &cx.reach_funs {
        axioms.extend(reach_axioms(*f));
    }
    (rewritten, axioms)
}

struct ReachCx {
    /// Edge functions with registered reachability predicates.
    reach_funs: Vec<Symbol>,
    update_count: u32,
    update_axioms: Vec<Form>,
}

/// The reachability predicate name for edge function `f`.
pub fn reach_pred(f: Symbol) -> Symbol {
    Symbol::intern(&format!("$reach_{f}"))
}

impl ReachCx {
    fn register(&mut self, f: Symbol) {
        if !self.reach_funs.contains(&f) {
            self.reach_funs.push(f);
        }
    }

    /// Try to read a lambda as a functional edge: `% x y. F x = y` where `F`
    /// is a plain function symbol, or `% x y. fieldWrite f a b x = y`.
    /// Returns the edge-function symbol to use.
    fn edge_function(&mut self, lambda: &Form) -> Option<Symbol> {
        let Form::Lambda(binders, body) = lambda else {
            return None;
        };
        if binders.len() != 2 {
            return None;
        }
        let (x, y) = (binders[0].0, binders[1].0);
        let Form::Binop(BinOp::Eq, lhs, rhs) = body.as_ref() else {
            return None;
        };
        // rhs must be the second binder.
        if rhs.as_ref() != &Form::Var(y) {
            return None;
        }
        match lhs.as_ref() {
            // f x = y.
            Form::App(head, args) if args.len() == 1 && args[0] == Form::Var(x) => {
                match head.as_ref() {
                    Form::Var(f) if *f == builtins().field_write => None,
                    Form::Var(f) => {
                        self.register(*f);
                        Some(*f)
                    }
                    _ => None,
                }
            }
            // fieldWrite f a b x = y.
            Form::App(head, args) if args.len() == 4 && args[3] == Form::Var(x) => {
                if head.as_ref() != &Form::Var(builtins().field_write) {
                    return None;
                }
                let Form::Var(base) = &args[0] else {
                    return None;
                };
                // The update point and value must not mention the binders.
                for t in &args[1..3] {
                    let fv = t.free_vars();
                    if fv.contains(&x) || fv.contains(&y) {
                        return None;
                    }
                }
                let u = Symbol::intern(&format!("$upd{}_{base}", self.update_count));
                self.update_count += 1;
                let at = self.rewritten(&args[1]);
                let val = self.rewritten(&args[2]);
                // u(at) = val.
                self.update_axioms
                    .push(Form::eq(Form::app(Form::Var(u), vec![at.clone()]), val));
                // ∀x. x ≠ at → u(x) = base(x).
                let xv = Symbol::intern("$ux");
                self.update_axioms.push(Form::forall(
                    vec![(xv, Sort::Obj)],
                    Form::implies(
                        Form::ne(Form::Var(xv), at),
                        Form::eq(
                            Form::app(Form::Var(u), vec![Form::Var(xv)]),
                            Form::app(Form::Var(*base), vec![Form::Var(xv)]),
                        ),
                    ),
                ));
                self.register(u);
                Some(u)
            }
            _ => None,
        }
    }

    /// `form` with its reachability and tree atoms rewritten; `None` when
    /// it has none.
    fn rewrite(&mut self, form: &Form) -> Option<Form> {
        if let Some([edge, s, t]) = form.as_app_of(builtins().rtrancl) {
            if let Some(f) = self.edge_function(edge) {
                let (s, t) = (self.rewritten(s), self.rewritten(t));
                return Some(Form::app(Form::Var(reach_pred(f)), vec![s, t]));
            }
        }
        if let Form::Tree(fields) = form {
            // Opaque proposition per tree atom (keyed by the printed field
            // terms, so syntactically equal atoms coincide).
            let name: String = fields
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("_")
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            return Some(Form::Var(Symbol::intern(&format!("$tree_{name}"))));
        }
        form.map_children(|child| self.rewrite(child))
    }

    fn rewritten(&mut self, form: &Form) -> Form {
        self.rewrite(form).unwrap_or_else(|| form.clone())
    }
}

/// The axiom schemas for `$reach_f`.
fn reach_axioms(f: Symbol) -> Vec<Form> {
    let r = reach_pred(f);
    let rel = |a: Form, b: Form| Form::app(Form::Var(r), vec![a, b]);
    let fx = |a: Form| Form::app(Form::Var(f), vec![a]);
    let x = Symbol::intern("$rx");
    let y = Symbol::intern("$ry");
    let z = Symbol::intern("$rz");
    let vx = Form::Var(x);
    let vy = Form::Var(y);
    let vz = Form::Var(z);
    vec![
        // Reflexivity.
        Form::forall(vec![(x, Sort::Obj)], rel(vx.clone(), vx.clone())),
        // Transitivity.
        Form::forall(
            vec![(x, Sort::Obj), (y, Sort::Obj), (z, Sort::Obj)],
            Form::implies(
                Form::and(vec![
                    rel(vx.clone(), vy.clone()),
                    rel(vy.clone(), vz.clone()),
                ]),
                rel(vx.clone(), vz.clone()),
            ),
        ),
        // Step.
        Form::forall(vec![(x, Sort::Obj)], rel(vx.clone(), fx(vx.clone()))),
        // Unfold first step.
        Form::forall(
            vec![(x, Sort::Obj), (y, Sort::Obj)],
            Form::implies(
                rel(vx.clone(), vy.clone()),
                Form::or(vec![
                    Form::eq(vx.clone(), vy.clone()),
                    rel(fx(vx.clone()), vy.clone()),
                ]),
            ),
        ),
        // Chain linearity (soundness uses functionality of f).
        Form::forall(
            vec![(x, Sort::Obj), (y, Sort::Obj), (z, Sort::Obj)],
            Form::implies(
                Form::and(vec![
                    rel(vx.clone(), vy.clone()),
                    rel(vx.clone(), vz.clone()),
                ]),
                Form::or(vec![
                    rel(vy.clone(), vz.clone()),
                    rel(vz.clone(), vy.clone()),
                ]),
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fol_valid;
    use jahob_logic::form;
    use std::rc::Rc;

    fn valid(src: &str) -> bool {
        fol_valid(&form(src)).unwrap_or_else(|e| panic!("{src:?}: {e}"))
    }

    #[test]
    fn reach_reflexive_and_step() {
        assert!(valid("rtrancl_pt (% x y. next x = y) a a"));
        assert!(valid("rtrancl_pt (% x y. next x = y) a (next a)"));
        assert!(valid("rtrancl_pt (% x y. next x = y) a (next (next a))"));
    }

    #[test]
    fn reach_transitive() {
        assert!(valid(
            "rtrancl_pt (% x y. next x = y) a b & rtrancl_pt (% x y. next x = y) b c \
             --> rtrancl_pt (% x y. next x = y) a c"
        ));
    }

    #[test]
    fn reach_not_symmetric() {
        assert!(!valid(
            "rtrancl_pt (% x y. next x = y) a b --> rtrancl_pt (% x y. next x = y) b a"
        ));
    }

    #[test]
    fn reach_unfold() {
        assert!(valid(
            "rtrancl_pt (% x y. next x = y) a b & a ~= b \
             --> rtrancl_pt (% x y. next x = y) (next a) b"
        ));
    }

    #[test]
    fn reach_linearity() {
        assert!(valid(
            "rtrancl_pt (% x y. next x = y) a b & rtrancl_pt (% x y. next x = y) a c \
             --> rtrancl_pt (% x y. next x = y) b c | rtrancl_pt (% x y. next x = y) c b"
        ));
    }

    #[test]
    fn updated_field_reachability() {
        // After next[a := b], a reaches b in one step.
        assert!(valid("rtrancl_pt (% x y. fieldWrite next a b x = y) a b"));
        // Unchanged entries still step: c ≠ a → c reaches next c.
        assert!(valid(
            "c ~= a --> rtrancl_pt (% x y. fieldWrite next a b x = y) c (next c)"
        ));
    }

    #[test]
    fn tree_atoms_are_opaque() {
        // tree hypotheses do not break clausification, and identical atoms
        // cancel.
        assert!(valid("tree [f1] --> tree [f1]"));
        assert!(!valid("tree [f1] --> tree [g1]"));
    }

    #[test]
    fn prepare_produces_axioms() {
        let (rewritten, axioms) = prepare(&form("rtrancl_pt (% x y. next x = y) a b"));
        assert!(rewritten
            .as_app_of(reach_pred(Symbol::intern("next")))
            .is_some());
        assert_eq!(axioms.len(), 5);
    }

    #[test]
    fn prepare_shares_what_it_leaves_alone() {
        let goal = form("x : S --> rtrancl_pt (% x y. next x = y) a b");
        let Form::Binop(_, hyp, _) = &goal else {
            panic!("expected -->, got {goal:?}")
        };
        let (rewritten, _) = prepare(&goal);
        let Form::Binop(_, hyp2, concl) = &rewritten else {
            panic!("expected -->, got {rewritten:?}")
        };
        assert!(Rc::ptr_eq(hyp, hyp2), "`x : S` holds no atom to rewrite");
        assert!(concl
            .as_app_of(reach_pred(Symbol::intern("next")))
            .is_some());
        // A goal with no atom comes back as it went in.
        let plain = form("x : S --> x ~= null");
        let (same, _) = prepare(&plain);
        let (Form::Binop(_, a, b), Form::Binop(_, a2, b2)) = (&plain, &same) else {
            panic!("expected -->, got {same:?}")
        };
        assert!(Rc::ptr_eq(a, a2) && Rc::ptr_eq(b, b2));
    }
}
