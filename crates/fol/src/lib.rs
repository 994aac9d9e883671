//! `jahob-fol`: a saturation-based first-order theorem prover.
//!
//! Jahob's fallback for obligations outside every decidable fragment was an
//! off-the-shelf automated theorem prover (the paper cites Vampire [78]) and
//! the first-order *simulation* of reachability from Lev-Ami et al. [52].
//! This crate is the from-scratch substitute: a refutation prover using
//! binary resolution with factoring over clausified goals, equality handled
//! by axiom instantiation (reflexivity/symmetry/transitivity plus congruence
//! schemas for the symbols in the problem), forward subsumption, and a
//! given-clause saturation loop with effort limits.
//!
//! [`reach`] adds the [52]-style axiomatization of `rtrancl_pt` atoms so
//! transitive-reachability obligations over linked structures can be
//! discharged in pure first-order logic.

pub mod clause;
pub mod prover;
pub mod reach;
pub mod term;

pub use clause::{clausify, Clause, Literal};
pub use prover::{prove, prove_budgeted, ProveResult, ProverConfig};
pub use term::{FTerm, Subst};

use jahob_logic::Form;

/// Top-level entry: try to prove `goal` valid (with free variables read
/// universally). Reachability atoms are axiomatized per [`reach`].
/// `Ok(true)` = proved; `Ok(false)` = gave up within limits (NOT a
/// disproof); `Err` = could not clausify.
pub fn fol_valid(goal: &Form) -> Result<bool, clause::ClausifyError> {
    let (prepared, axioms) = reach::prepare(goal);
    // Refutation: clausify ¬goal plus the reachability axioms.
    let negated = Form::not(prepared);
    let mut clauses = clausify(&negated)?;
    for axiom in &axioms {
        clauses.extend(clausify(axiom)?);
    }
    let result = prove(clauses, &ProverConfig::default());
    Ok(matches!(result, ProveResult::Proved))
}
