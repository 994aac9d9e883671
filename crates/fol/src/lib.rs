//! `jahob-fol`: a saturation-based first-order theorem prover.
//!
//! Jahob's fallback for obligations outside every decidable fragment was an
//! off-the-shelf automated theorem prover (the paper cites Vampire \[78\]) and
//! the first-order *simulation* of reachability from Lev-Ami et al. \[52\].
//! This crate is the from-scratch substitute: a refutation prover using
//! binary resolution with factoring over clausified goals, equality handled
//! by axiom instantiation (reflexivity/symmetry/transitivity plus congruence
//! schemas for the symbols in the problem), forward subsumption, and a
//! given-clause saturation loop with effort limits.
//!
//! [`reach`] adds the \[52\]-style axiomatization of `rtrancl_pt` atoms so
//! transitive-reachability obligations over linked structures can be
//! discharged in pure first-order logic.
//!
//! [`fol_valid`] is the entry the dispatcher calls: it clausifies, adds
//! the reachability axioms and runs [`prove`] within the configured
//! effort and the caller's [`Budget`], answering
//! [`Failure::Unsupported`] for a goal whose terms range over more than
//! one sort, or that it cannot clausify.

pub mod clause;
pub mod prover;
pub mod reach;
pub mod term;

pub use clause::{clausify, Clause, Literal};
pub use prover::{prove, ProveResult, ProverConfig};
pub use term::{FTerm, Subst};

use jahob_logic::{Form, Sort};
use jahob_util::budget::{unsupported, Budget, Failure};
use jahob_util::{FxHashMap, Symbol};

/// Top-level entry: try to prove `goal` valid (with free variables read
/// universally, at their sorts in `sig`) within `config`'s effort limits
/// and `budget`. Reachability atoms are axiomatized per [`reach`].
/// `Ok(true)` = proved; `Ok(false)` = gave up within limits (NOT a
/// disproof); `Unsupported` = the terms range over two or more sorts, or
/// the goal could not be clausified.
///
/// Clausification erases sorts, which is sound only while every term
/// ranges over one domain: a hypothesis that bounds the objects would
/// otherwise bound the integers too, and prove
/// `(ALL x y z::obj. x = y | y = z | x = z) --> (ALL i j k::int. i = j |
/// j = k | i = k)`.
pub fn fol_valid(
    goal: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    config: &ProverConfig,
    budget: &Budget,
) -> Result<bool, Failure> {
    let sorts = term_sorts(goal, sig);
    if let [_, _, ..] = sorts.as_slice() {
        let names: Vec<String> = sorts.iter().map(Sort::to_string).collect();
        return unsupported(format!("terms range over {}", names.join(", ")));
    }
    let (prepared, axioms) = reach::prepare(goal);
    // Refutation: clausify ¬goal plus the reachability axioms.
    let negated = Form::not(prepared);
    let mut clauses = clausify(&negated)?;
    for axiom in &axioms {
        clauses.extend(clausify(axiom)?);
    }
    Ok(prove(clauses, config, budget)? == ProveResult::Proved)
}

/// The sorts `goal`'s terms range over, in first-seen order: each bound
/// variable's sort, each free symbol's argument and result sorts from
/// `sig`, `int` for a literal and `obj` for `null`. An applied
/// predicate's `bool` result makes an atom, not a term, so it does not
/// count, and neither does a sort `sig` does not give or inference left
/// open.
fn term_sorts(goal: &Form, sig: &FxHashMap<Symbol, Sort>) -> Vec<Sort> {
    fn note(sort: &Sort, sorts: &mut Vec<Sort>) {
        match sort {
            Sort::Fun(args, result) => {
                args.iter().for_each(|arg| note(arg, sorts));
                if **result != Sort::Bool {
                    note(result, sorts);
                }
            }
            Sort::Var(_) => {}
            _ if sorts.contains(sort) => {}
            _ => sorts.push(sort.clone()),
        }
    }
    fn walk(f: &Form, sorts: &mut Vec<Sort>) {
        match f {
            Form::Quant(_, binders, _) | Form::Lambda(binders, _) => {
                binders.iter().for_each(|(_, sort)| note(sort, sorts));
            }
            Form::Compr(_, sort, _) => note(sort, sorts),
            Form::IntLit(_) => note(&Sort::Int, sorts),
            Form::Null => note(&Sort::Obj, sorts),
            _ => {}
        }
        f.children().for_each(|child| walk(child, sorts));
    }
    let mut sorts = Vec::new();
    walk(goal, &mut sorts);
    for symbol in goal.free_vars() {
        if let Some(sort) = sig.get(&symbol) {
            note(sort, &mut sorts);
        }
    }
    sorts
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;

    const PIGEONS: &str = "(ALL x::obj y::obj z::obj. x = y | y = z | x = z) \
                           --> (ALL i::int j::int k::int. i = j | j = k | i = k)";

    fn fol(src: &str, sig: &FxHashMap<Symbol, Sort>) -> Result<bool, Failure> {
        fol_valid(
            &form(src),
            sig,
            &ProverConfig::default(),
            &Budget::unlimited(),
        )
    }

    #[test]
    fn a_bound_on_one_sort_never_bounds_another() {
        // Two objects (`null` and one more) and three integers refute it.
        let refused = |r: Result<bool, Failure>| matches!(r, Err(Failure::Unsupported(_)));
        assert!(refused(fol(PIGEONS, &FxHashMap::default())));
        // The same with the integers free and sorted by the signature.
        let mut sig = FxHashMap::default();
        for name in ["i", "j", "k"] {
            sig.insert(Symbol::intern(name), Sort::Int);
        }
        let free = "(ALL x::obj y::obj z::obj. x = y | y = z | x = z) --> i = j | j = k | i = k";
        assert!(refused(fol(free, &sig)));
    }

    #[test]
    fn one_sort_still_proves() {
        let empty = FxHashMap::default();
        assert_eq!(fol("ALL x::obj. x = x", &empty), Ok(true));
        // A predicate's `bool` result is not a second sort.
        let mut sig = FxHashMap::default();
        let pred = Sort::Fun(vec![Sort::Obj], Box::new(Sort::Bool));
        sig.insert(Symbol::intern("p"), pred);
        sig.insert(Symbol::intern("a"), Sort::Obj);
        assert_eq!(fol("(ALL x::obj. p x) --> p a", &sig), Ok(true));
    }
}
