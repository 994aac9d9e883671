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
//! [`Failure::Unsupported`] for a goal it cannot clausify.

pub mod clause;
pub mod prover;
pub mod reach;
pub mod term;

pub use clause::{clausify, Clause, Literal};
pub use prover::{prove, ProveResult, ProverConfig};
pub use term::{FTerm, Subst};

use jahob_logic::Form;
use jahob_util::budget::{Budget, Failure};

/// Top-level entry: try to prove `goal` valid (with free variables read
/// universally) within `config`'s effort limits and `budget`.
/// Reachability atoms are axiomatized per [`reach`]. `Ok(true)` = proved;
/// `Ok(false)` = gave up within limits (NOT a disproof); `Unsupported` =
/// could not clausify.
pub fn fol_valid(goal: &Form, config: &ProverConfig, budget: &Budget) -> Result<bool, Failure> {
    let (prepared, axioms) = reach::prepare(goal);
    // Refutation: clausify ¬goal plus the reachability axioms.
    let negated = Form::not(prepared);
    let mut clauses = clausify(&negated)?;
    for axiom in &axioms {
        clauses.extend(clausify(axiom)?);
    }
    Ok(prove(clauses, config, budget)? == ProveResult::Proved)
}
