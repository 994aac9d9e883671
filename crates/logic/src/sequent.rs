//! Explicit sequents.
//!
//! A proof obligation piece leaving [`crate::transform::split_conjuncts`]
//! is an implication chain `H1 --> H2 --> ... --> G`. This module gives
//! that shape a first-class representation — a [`Sequent`] of named
//! hypotheses and a goal — so callers can drop hypotheses and refold the
//! rest. Dropping hypotheses is a weakening (`H, H' ⊢ G` follows from
//! `H ⊢ G`), so a proof of the smaller sequent is a proof of the full
//! one; the dispatcher's per-prover fragment filter relies on exactly
//! that.

use crate::form::{BinOp, Form};

/// One named hypothesis. Names are positional (`h0`, `h1`, …) in source
/// order, so they are stable across runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Hyp {
    pub name: String,
    pub form: Form,
}

/// A sequent `h0, h1, ..., hn ⊢ goal`, peeled from an implication chain.
/// Conjunctive hypotheses are flattened to conjunct granularity, so a
/// filter can drop one conjunct without taking the rest of its
/// conjunction down with it.
#[derive(Clone, Debug, PartialEq)]
pub struct Sequent {
    pub hyps: Vec<Hyp>,
    pub goal: Form,
}

impl Sequent {
    /// Decompose an implication chain into named hypotheses and a goal.
    /// Non-implications become a sequent with no hypotheses.
    pub fn of(form: &Form) -> Sequent {
        let mut hyps = Vec::new();
        let mut current = form.clone();
        loop {
            match current {
                Form::Binop(BinOp::Implies, h, c) => {
                    match h.as_ref() {
                        Form::And(parts) => {
                            for p in parts {
                                hyps.push(p.clone());
                            }
                        }
                        other => hyps.push(other.clone()),
                    }
                    current = c.as_ref().clone();
                }
                goal => {
                    let hyps = hyps
                        .into_iter()
                        .enumerate()
                        .map(|(i, form)| Hyp {
                            name: format!("h{i}"),
                            form,
                        })
                        .collect();
                    return Sequent { hyps, goal };
                }
            }
        }
    }

    /// Refold into an implication chain `h0 --> h1 --> ... --> goal`.
    /// Note this normalizes shape: conjunctive hypotheses that [`Sequent::of`]
    /// flattened come back as separate chain links.
    pub fn to_form(&self) -> Form {
        self.hyps.iter().rev().fold(self.goal.clone(), |acc, h| {
            Form::implies(h.form.clone(), acc)
        })
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
        let names: Vec<&str> = seq.hyps.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["h0", "h1", "h2"]);
        assert_eq!(seq.hyps[0].form, p("a"));
        assert_eq!(seq.hyps[1].form, p("b"));
        assert_eq!(seq.hyps[2].form, p("c"));
        assert_eq!(seq.goal, p("goal"));
    }

    #[test]
    fn to_form_refolds_chain() {
        let seq = Sequent::of(&p("a --> b --> goal"));
        assert_eq!(seq.to_form(), p("a --> b --> goal"));
    }
}
