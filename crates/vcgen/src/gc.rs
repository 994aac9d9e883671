//! The guarded-command IR and its weakest-precondition transformer.

use jahob_logic::{BinOp, Form, QKind, Sort, UnOp};
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
    /// conditions) peeled into named hypotheses and a goal.
    pub fn sequent(&self) -> jahob_logic::sequent::Sequent {
        jahob_logic::sequent::Sequent::of(&self.form)
    }
}

/// Substitute `map` into `form` without descending under `old` (pre-state
/// expressions are frozen until the entry point). Capture-avoiding: binders
/// clashing with free variables of the replacements are renamed (state
/// updates like `fieldWrite(data, n, o)` routinely flow under comprehension
/// binders named `n`).
pub fn subst_outside_old(form: &Form, map: &FxHashMap<Symbol, Form>) -> Form {
    if map.is_empty() {
        return form.clone();
    }
    let mut replacement_frees: jahob_util::FxHashSet<Symbol> = jahob_util::FxHashSet::default();
    for f in map.values() {
        replacement_frees.extend(f.free_vars());
    }
    subst_oo(form, map, &replacement_frees)
}

fn subst_oo(
    form: &Form,
    map: &FxHashMap<Symbol, Form>,
    replacement_frees: &jahob_util::FxHashSet<Symbol>,
) -> Form {
    /// Rename binders that would capture replacement free variables, and
    /// drop shadowed map entries.
    fn under_binders(
        binders: &[(Symbol, jahob_logic::Sort)],
        body: &Form,
        map: &FxHashMap<Symbol, Form>,
        replacement_frees: &jahob_util::FxHashSet<Symbol>,
    ) -> (Vec<(Symbol, jahob_logic::Sort)>, Form) {
        let mut inner_map: FxHashMap<Symbol, Form> = map
            .iter()
            .filter(|(k, _)| !binders.iter().any(|(b, _)| b == *k))
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let mut new_binders = Vec::with_capacity(binders.len());
        for (name, sort) in binders {
            if replacement_frees.contains(name) {
                let fresh = Symbol::fresh(*name);
                inner_map.insert(*name, Form::Var(fresh));
                new_binders.push((fresh, sort.clone()));
            } else {
                new_binders.push((*name, sort.clone()));
            }
        }
        let new_body = if inner_map.is_empty() {
            body.clone()
        } else {
            // Renamings may themselves need full capture-avoiding treatment
            // one level down; recompute frees for the extended map.
            let mut frees = replacement_frees.clone();
            for f in inner_map.values() {
                frees.extend(f.free_vars());
            }
            subst_oo(body, &inner_map, &frees)
        };
        (new_binders, new_body)
    }
    match form {
        Form::Old(_) => form.clone(),
        Form::Var(name) => map.get(name).cloned().unwrap_or_else(|| form.clone()),
        Form::IntLit(_) | Form::BoolLit(_) | Form::Null | Form::EmptySet => form.clone(),
        Form::Tree(es) => Form::Tree(
            es.iter()
                .map(|e| subst_oo(e, map, replacement_frees))
                .collect(),
        ),
        Form::FiniteSet(es) => Form::FiniteSet(
            es.iter()
                .map(|e| subst_oo(e, map, replacement_frees))
                .collect(),
        ),
        Form::And(ps) => Form::and(
            ps.iter()
                .map(|p| subst_oo(p, map, replacement_frees))
                .collect(),
        ),
        Form::Or(ps) => Form::or(
            ps.iter()
                .map(|p| subst_oo(p, map, replacement_frees))
                .collect(),
        ),
        Form::Unop(op, a) => Form::Unop(*op, Rc::new(subst_oo(a, map, replacement_frees))),
        Form::Binop(op, a, b) => Form::binop(
            *op,
            subst_oo(a, map, replacement_frees),
            subst_oo(b, map, replacement_frees),
        ),
        Form::Ite(c, t, e) => Form::Ite(
            Rc::new(subst_oo(c, map, replacement_frees)),
            Rc::new(subst_oo(t, map, replacement_frees)),
            Rc::new(subst_oo(e, map, replacement_frees)),
        ),
        Form::App(h, args) => Form::app(
            subst_oo(h, map, replacement_frees),
            args.iter()
                .map(|a| subst_oo(a, map, replacement_frees))
                .collect(),
        ),
        Form::Quant(k, binders, body) => {
            let (bs, b) = under_binders(binders, body, map, replacement_frees);
            Form::Quant(*k, bs, Rc::new(b))
        }
        Form::Lambda(binders, body) => {
            let (bs, b) = under_binders(binders, body, map, replacement_frees);
            Form::Lambda(bs, Rc::new(b))
        }
        Form::Compr(x, s, body) => {
            let binders = vec![(*x, s.clone())];
            let (bs, b) = under_binders(&binders, body, map, replacement_frees);
            let (x2, s2) = bs.into_iter().next().unwrap();
            Form::Compr(x2, s2, Rc::new(b))
        }
    }
}

fn subst1_outside_old(form: &Form, x: Symbol, e: &Form) -> Form {
    let mut map = FxHashMap::default();
    map.insert(x, e.clone());
    subst_outside_old(form, &map)
}

/// Dissolve `old e` wrappers (used once the entry point is reached, where
/// pre-state and current state coincide).
pub fn strip_old(form: &Form) -> Form {
    match form {
        Form::Old(inner) => strip_old(inner),
        Form::Var(_) | Form::IntLit(_) | Form::BoolLit(_) | Form::Null | Form::EmptySet => {
            form.clone()
        }
        Form::Tree(es) => Form::Tree(es.iter().map(strip_old).collect()),
        Form::FiniteSet(es) => Form::FiniteSet(es.iter().map(strip_old).collect()),
        Form::And(ps) => Form::and(ps.iter().map(strip_old).collect()),
        Form::Or(ps) => Form::or(ps.iter().map(strip_old).collect()),
        Form::Unop(op, a) => Form::Unop(*op, Rc::new(strip_old(a))),
        Form::Binop(op, a, b) => Form::binop(*op, strip_old(a), strip_old(b)),
        Form::Ite(c, t, e) => Form::Ite(
            Rc::new(strip_old(c)),
            Rc::new(strip_old(t)),
            Rc::new(strip_old(e)),
        ),
        Form::App(h, args) => Form::app(strip_old(h), args.iter().map(strip_old).collect()),
        Form::Quant(k, bs, body) => Form::Quant(*k, bs.clone(), Rc::new(strip_old(body))),
        Form::Lambda(bs, body) => Form::Lambda(bs.clone(), Rc::new(strip_old(body))),
        Form::Compr(x, s, body) => Form::Compr(*x, s.clone(), Rc::new(strip_old(body))),
    }
}

/// Rewrite applied `fieldWrite` chains into `Ite` so downstream provers see
/// case splits instead of update terms: `fieldWrite f a v x` →
/// `ite (x = a) v (f x)`. Iterated to a fixpoint: rebuilding applications
/// flattens curried chains, which can expose new redexes.
pub fn expand_field_writes(form: &Form) -> Form {
    let mut current = form.clone();
    for _ in 0..16 {
        let next = expand_fw_once(&current);
        if next == current {
            return next;
        }
        current = next;
    }
    current
}

fn expand_fw_once(form: &Form) -> Form {
    let rewritten = match form {
        Form::App(head, args) => {
            let head2 = expand_fw_once(head);
            let args2: Vec<Form> = args.iter().map(expand_fw_once).collect();
            if let Form::Var(h) = &head2 {
                if h.as_str() == jahob_logic::form::sym::FIELD_WRITE && args2.len() == 4 {
                    let f = args2[0].clone();
                    let at = args2[1].clone();
                    let val = args2[2].clone();
                    let x = args2[3].clone();
                    return Form::Ite(
                        Rc::new(Form::eq(x.clone(), at)),
                        Rc::new(val),
                        Rc::new(Form::app(f, vec![x])),
                    );
                }
            }
            Form::app(head2, args2)
        }
        Form::Var(_) | Form::IntLit(_) | Form::BoolLit(_) | Form::Null | Form::EmptySet => {
            form.clone()
        }
        Form::Tree(es) => Form::Tree(es.iter().map(expand_field_writes).collect()),
        Form::FiniteSet(es) => Form::FiniteSet(es.iter().map(expand_field_writes).collect()),
        Form::And(ps) => Form::and(ps.iter().map(expand_field_writes).collect()),
        Form::Or(ps) => Form::or(ps.iter().map(expand_field_writes).collect()),
        Form::Unop(op, a) => Form::Unop(*op, Rc::new(expand_fw_once(a))),
        Form::Old(a) => Form::Old(Rc::new(expand_fw_once(a))),
        Form::Binop(op, a, b) => Form::binop(*op, expand_fw_once(a), expand_fw_once(b)),
        Form::Ite(c, t, e) => Form::Ite(
            Rc::new(expand_fw_once(c)),
            Rc::new(expand_fw_once(t)),
            Rc::new(expand_fw_once(e)),
        ),
        Form::Quant(k, bs, body) => Form::Quant(*k, bs.clone(), Rc::new(expand_fw_once(body))),
        Form::Lambda(bs, body) => Form::Lambda(bs.clone(), Rc::new(expand_fw_once(body))),
        Form::Compr(x, s, body) => Form::Compr(*x, s.clone(), Rc::new(expand_fw_once(body))),
    };
    rewritten
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

/// Does the formula mention any `Old`? (sanity checks in tests)
pub fn mentions_old(form: &Form) -> bool {
    form.contains_old()
}

/// Universally close an obligation over its free variables of the given
/// sorts — used when handing obligations to provers that expect sentences.
pub fn close_universally(form: &Form, sig: &FxHashMap<Symbol, Sort>) -> Form {
    let mut binders: Vec<(Symbol, Sort)> = Vec::new();
    for v in form.free_vars() {
        if let Some(sort) = sig.get(&v) {
            if matches!(sort, Sort::Obj) {
                binders.push((v, Sort::Obj));
            }
        }
    }
    if binders.is_empty() {
        form.clone()
    } else {
        Form::Quant(QKind::All, binders, Rc::new(form.clone()))
    }
}

/// Negation-safe check used by tests: the obligation list is conjunctively
/// equivalent to a single formula.
pub fn conjoin(obligations: &[Obligation]) -> Form {
    Form::and(obligations.iter().map(|o| o.form.clone()).collect())
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

/// Keep `Unop`/`BinOp` imports referenced (they appear in pattern forms via
/// macro-free code paths above).
#[allow(dead_code)]
fn _sort_uses(_u: UnOp, _b: BinOp) {}

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
        let sim = jahob_logic::transform::simplify(&subst_outside_old(&e, &{
            let mut m = FxHashMap::default();
            m.insert(Symbol::intern("x"), form("a"));
            m
        }));
        assert_eq!(sim, form("b = y"));
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
