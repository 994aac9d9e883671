//! Explicit sequents.
//!
//! A proof obligation piece leaving [`crate::transform::split_conjuncts`]
//! is an implication chain `H1 --> H2 --> ... --> G`. This module gives
//! that shape a first-class representation — a [`Sequent`] of hypotheses
//! and a goal — so callers can drop hypotheses and refold the rest.
//! Dropping hypotheses is a weakening (`H, H' ⊢ G` follows from `H ⊢ G`),
//! so a proof of the smaller sequent is a proof of the full one; the
//! dispatcher's per-prover fragment filter relies on exactly that.

use crate::form::{BinOp, Form};

/// A sequent `h0, h1, ..., hn ⊢ goal`, peeled from an implication chain,
/// hypotheses in source order. Conjunctive hypotheses are flattened to
/// conjunct granularity, so a filter can drop one conjunct without taking
/// the rest of its conjunction down with it.
#[derive(Clone, Debug, PartialEq)]
pub struct Sequent {
    pub hyps: Vec<Form>,
    pub goal: Form,
}

/// The hypotheses and goal of an implication chain, borrowed from it:
/// what [`Sequent::of`] peels, without copies.
pub fn peel(form: &Form) -> (Vec<&Form>, &Form) {
    let mut hyps = Vec::new();
    let mut current = form;
    while let Form::Binop(BinOp::Implies, h, c) = current {
        match h.as_ref() {
            Form::And(parts) => hyps.extend(parts),
            other => hyps.push(other),
        }
        current = c;
    }
    (hyps, current)
}

impl Sequent {
    /// Decompose an implication chain into hypotheses and a goal.
    /// Non-implications become a sequent with no hypotheses.
    pub fn of(form: &Form) -> Sequent {
        let (hyps, goal) = peel(form);
        Sequent {
            hyps: hyps.into_iter().cloned().collect(),
            goal: goal.clone(),
        }
    }

    /// Refold into an implication chain `h0 --> h1 --> ... --> goal`.
    /// Note this normalizes shape: conjunctive hypotheses that [`Sequent::of`]
    /// flattened come back as separate chain links.
    pub fn to_form(&self) -> Form {
        self.hyps
            .iter()
            .rev()
            .fold(self.goal.clone(), |acc, h| Form::implies(h.clone(), acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn p(src: &str) -> Form {
        parse_form(src).unwrap()
    }

    #[test]
    fn of_peels_chain_and_flattens_conjunctions() {
        let seq = Sequent::of(&p("(a & b) --> c --> goal"));
        assert_eq!(seq.hyps, vec![p("a"), p("b"), p("c")]);
        assert_eq!(seq.goal, p("goal"));
    }

    #[test]
    fn to_form_refolds_chain() {
        let seq = Sequent::of(&p("a --> b --> goal"));
        assert_eq!(seq.to_form(), p("a --> b --> goal"));
    }
}
