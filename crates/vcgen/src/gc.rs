//! The guarded-command IR and its weakest-precondition transformer.

use jahob_logic::form::sym::builtins;
use jahob_logic::Form;
use jahob_util::{FxHashMap, Symbol};
use std::rc::Rc;

/// A guarded command.
#[derive(Clone, Debug)]
pub enum GC {
    /// Add a hypothesis.
    Assume(Form),
    /// A labeled proof obligation (and a hypothesis afterwards).
    Assert(Form, String),
    /// Update a state variable (locals, or field/specvar function symbols —
    /// field updates assign `fieldWrite(f, x, v)` to `f`).
    Assign(Symbol, Form),
    /// Forget a state variable's value.
    Havoc(Symbol),
    /// Sequential composition.
    Seq(Vec<GC>),
    /// Nondeterministic choice between alternatives.
    Choice(Vec<GC>),
}

/// A labeled proof obligation.
#[derive(Clone, Debug)]
pub struct Obligation {
    pub label: String,
    pub form: Form,
}

impl Obligation {
    /// The obligation as an explicit sequent: the implication chain the
    /// WP transformer built (entry assumptions, background axioms, path
    /// conditions) peeled into hypotheses and a goal.
    pub fn sequent(&self) -> jahob_logic::sequent::Sequent {
        jahob_logic::sequent::Sequent::of(&self.form)
    }
}

/// `form[x := e]` outside `old`: pre-state expressions are frozen until the
/// entry point. Capture-avoiding: state updates like `fieldWrite(data, n, o)`
/// routinely flow under comprehension binders named `n`.
fn subst1_outside_old(form: &Form, x: Symbol, e: &Form) -> Form {
    let mut map = FxHashMap::default();
    map.insert(x, e.clone());
    form.subst_outside_old(&map)
}

/// Dissolve `old e` wrappers (used once the entry point is reached, where
/// pre-state and current state coincide).
pub fn strip_old(form: &Form) -> Form {
    stripped(form).unwrap_or_else(|| form.clone())
}

/// [`strip_old`] as a rewrite: `None` when `form` has no `old`.
fn stripped(form: &Form) -> Option<Form> {
    match form {
        Form::Old(inner) => Some(stripped(inner).unwrap_or_else(|| inner.as_ref().clone())),
        _ => form.map_children(stripped),
    }
}

/// Rewrite applied `fieldWrite` chains into `Ite` so downstream provers see
/// case splits instead of update terms: `fieldWrite f a v x` →
/// `ite (x = a) v (f x)`.
pub fn expand_field_writes(form: &Form) -> Form {
    expanded(form).unwrap_or_else(|| form.clone())
}

/// [`expand_field_writes`] as one bottom-up pass: `None` when `form` has no
/// applied `fieldWrite`. A node's children are expanded first, so the only
/// redex left is the node itself.
fn expanded(form: &Form) -> Option<Form> {
    let rebuilt = form.map_children(expanded);
    expand_redex(rebuilt.as_ref().unwrap_or(form)).or(rebuilt)
}

/// `fieldWrite f a v x` → `ite (x = a) v (f x)` at the root of a term whose
/// subterms are expanded. `f x` is a redex again when `f` is itself an
/// update (`fieldWrite g b w x`), so it is expanded in turn.
fn expand_redex(form: &Form) -> Option<Form> {
    let [f, at, val, x] = form.as_app_of(builtins().field_write)? else {
        return None;
    };
    let read = Form::app(f.clone(), vec![x.clone()]);
    Some(Form::Ite(
        Rc::new(Form::eq(x.clone(), at.clone())),
        Rc::new(val.clone()),
        Rc::new(expand_redex(&read).unwrap_or(read)),
    ))
}

/// Backward weakest-precondition transformation of labeled obligations.
pub fn wp_list(gcs: &[GC], mut posts: Vec<Obligation>) -> Vec<Obligation> {
    for gc in gcs.iter().rev() {
        posts = wp_one(gc, posts);
    }
    posts
}

fn wp_one(gc: &GC, posts: Vec<Obligation>) -> Vec<Obligation> {
    match gc {
        GC::Assume(f) => posts
            .into_iter()
            .map(|o| Obligation {
                label: o.label,
                form: Form::implies(f.clone(), o.form),
            })
            .collect(),
        GC::Assert(f, label) => {
            // The assertion becomes an obligation here, and a hypothesis for
            // everything after it.
            let mut out: Vec<Obligation> = posts
                .into_iter()
                .map(|o| Obligation {
                    label: o.label,
                    form: Form::implies(f.clone(), o.form),
                })
                .collect();
            out.push(Obligation {
                label: label.clone(),
                form: f.clone(),
            });
            out
        }
        GC::Assign(x, e) => {
            // Small right-hand sides substitute directly. Large ones are
            // *passified*: substituting a big update term at every
            // occurrence grows formulas exponentially along an assignment
            // chain, so introduce a fresh name with a defining equality
            // hypothesis instead — wp(x := e, Q) = ∀x'. x' = e → Q[x:=x'].
            const DIRECT_SUBST_MAX: usize = 24;
            if e.size() <= DIRECT_SUBST_MAX {
                posts
                    .into_iter()
                    .map(|o| Obligation {
                        label: o.label,
                        form: subst1_outside_old(&o.form, *x, e),
                    })
                    .collect()
            } else {
                let fresh = Symbol::fresh(*x);
                let def = Form::eq(Form::Var(fresh), e.clone());
                posts
                    .into_iter()
                    .map(|o| {
                        let renamed = subst1_outside_old(&o.form, *x, &Form::Var(fresh));
                        Obligation {
                            label: o.label,
                            form: Form::implies(def.clone(), renamed),
                        }
                    })
                    .collect()
            }
        }
        GC::Havoc(x) => {
            let fresh = Symbol::fresh(*x);
            posts
                .into_iter()
                .map(|o| Obligation {
                    label: o.label,
                    form: subst1_outside_old(&o.form, *x, &Form::Var(fresh)),
                })
                .collect()
        }
        GC::Seq(inner) => wp_list(inner, posts),
        GC::Choice(branches) => {
            let mut out = Vec::new();
            for b in branches {
                out.extend(wp_one(b, posts.clone()));
            }
            out
        }
    }
}

/// Prune trivially-true obligations and simplify the rest; expand field
/// writes, dissolve `old` (callers invoke at the entry point).
pub fn finalize(obligations: Vec<Obligation>) -> Vec<Obligation> {
    obligations
        .into_iter()
        .filter_map(|o| {
            let form = jahob_logic::transform::simplify(&strip_old(&o.form));
            match form {
                Form::BoolLit(true) => None,
                form => Some(Obligation {
                    label: o.label,
                    form,
                }),
            }
        })
        .collect()
}

/// Collect the state symbols assigned or havocked in a GC (used for loop
/// havoc computation).
pub fn assigned_symbols(gcs: &[GC], out: &mut Vec<Symbol>) {
    for gc in gcs {
        match gc {
            GC::Assign(x, _) | GC::Havoc(x) if !out.contains(x) => {
                out.push(*x);
            }
            GC::Seq(inner) | GC::Choice(inner) => assigned_symbols(inner, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;

    fn ob(label: &str, f: Form) -> Obligation {
        Obligation {
            label: label.into(),
            form: f,
        }
    }

    #[test]
    fn wp_assign_substitutes() {
        let gcs = vec![GC::Assign(Symbol::intern("x"), form("y + 1"))];
        let out = wp_list(&gcs, vec![ob("post", form("x = 2"))]);
        assert_eq!(out[0].form, form("y + 1 = 2"));
    }

    #[test]
    fn wp_assume_implies() {
        let gcs = vec![GC::Assume(form("p"))];
        let out = wp_list(&gcs, vec![ob("post", form("q"))]);
        assert_eq!(out[0].form, form("p --> q"));
    }

    #[test]
    fn wp_assert_creates_obligation_and_hypothesis() {
        let gcs = vec![GC::Assert(form("p"), "check".into())];
        let out = wp_list(&gcs, vec![ob("post", form("q"))]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].form, form("p --> q"));
        assert_eq!(out[1].label, "check");
        assert_eq!(out[1].form, form("p"));
    }

    #[test]
    fn wp_havoc_freshens() {
        let gcs = vec![GC::Havoc(Symbol::intern("x"))];
        let out = wp_list(&gcs, vec![ob("post", form("x = x0"))]);
        // x replaced by a fresh symbol, so the form is no longer x = x0.
        assert_ne!(out[0].form, form("x = x0"));
        assert!(!out[0].form.free_vars().contains(&Symbol::intern("x")));
    }

    #[test]
    fn wp_choice_duplicates() {
        let gcs = vec![GC::Choice(vec![
            GC::Assume(form("a")),
            GC::Assume(form("b")),
        ])];
        let out = wp_list(&gcs, vec![ob("post", form("q"))]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].form, form("a --> q"));
        assert_eq!(out[1].form, form("b --> q"));
    }

    #[test]
    fn old_is_frozen_through_assign() {
        // wp(content := e, content = old content) must only substitute the
        // outer occurrence.
        let content = Symbol::intern("cc");
        let gcs = vec![GC::Assign(content, form("cc Un {o}"))];
        let out = wp_list(&gcs, vec![ob("post", form("cc = old cc Un {o}"))]);
        // outside: cc Un {o}; inside old: cc.
        assert_eq!(out[0].form, form("cc Un {o} = old cc Un {o}"));
        // Finalize at entry: old dissolves; the result is a tautology shape.
        let done = finalize(out);
        assert!(done.is_empty(), "tautology pruned: {done:?}");
    }

    #[test]
    fn expand_field_writes_to_ite() {
        let f = form("fieldWrite next a b x = y");
        let e = expand_field_writes(&f);
        let text = e.to_string();
        assert!(text.contains("ite"), "{text}");
        // Applying the case split: when x = a, value is b.
        let sim = jahob_logic::transform::simplify(&e.subst1(Symbol::intern("x"), &form("a")));
        assert_eq!(sim, form("b = y"));
    }

    #[test]
    fn strip_old_shares_an_old_free_form() {
        let f = form("(ALL n. n : nodes --> next n ~= null) --> content = {}");
        let Form::Binop(_, hyp, concl) = &f else {
            panic!("expected -->, got {f:?}")
        };
        let Form::Binop(_, hyp2, concl2) = strip_old(&f) else {
            panic!("expected -->")
        };
        assert!(Rc::ptr_eq(hyp, &hyp2) && Rc::ptr_eq(concl, &concl2));
        // With `old` on one side only, the other side is shared.
        let f = form("(ALL n. n : nodes --> next n ~= null) --> content = old content");
        let Form::Binop(_, hyp, _) = &f else {
            panic!("expected -->, got {f:?}")
        };
        let Form::Binop(_, hyp2, concl2) = strip_old(&f) else {
            panic!("expected -->")
        };
        assert!(Rc::ptr_eq(hyp, &hyp2));
        assert_eq!(*concl2, form("content = content"));
    }

    #[test]
    fn expand_field_writes_under_nested_junctions() {
        let f = form(
            "(((fieldWrite (fieldWrite next a b) c d x = y | p) & q) \
             | fieldWrite next a b z = w) \
             & (r | fieldWrite (fieldWrite (fieldWrite next a b) c d) e g u = v)",
        );
        let ite =
            |c: &str, t: &str, e: Form| Form::Ite(Rc::new(form(c)), Rc::new(form(t)), Rc::new(e));
        let eq = |lhs: Form, rhs: &str| Form::binop(jahob_logic::BinOp::Eq, lhs, form(rhs));
        let expected = Form::and(vec![
            Form::or(vec![
                Form::and(vec![
                    Form::or(vec![
                        eq(ite("x = c", "d", ite("x = a", "b", form("next x"))), "y"),
                        form("p"),
                    ]),
                    form("q"),
                ]),
                eq(ite("z = a", "b", form("next z")), "w"),
            ]),
            Form::or(vec![
                form("r"),
                eq(
                    ite(
                        "u = e",
                        "g",
                        ite("u = c", "d", ite("u = a", "b", form("next u"))),
                    ),
                    "v",
                ),
            ]),
        ]);
        let expanded = expand_field_writes(&f);
        assert_eq!(expanded, expected);
        // Every update was applied to a fourth argument, so none is left.
        assert!(!expanded.to_string().contains("fieldWrite"), "{expanded}");
    }

    #[test]
    fn assigned_symbols_collects() {
        let gcs = vec![
            GC::Assign(Symbol::intern("x"), form("1")),
            GC::Choice(vec![GC::Havoc(Symbol::intern("y"))]),
        ];
        let mut out = Vec::new();
        assigned_symbols(&gcs, &mut out);
        assert_eq!(out.len(), 2);
    }
}
