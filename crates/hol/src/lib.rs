//! `jahob-hol`: an LCF-style proof kernel for the specification logic — the
//! Isabelle substitute.
//!
//! Jahob's specification language is "a subset of Isabelle" and the system
//! "incorporates interfaces to the Isabelle interactive theorem prover"
//! (§3). Linking Isabelle is out of scope for a from-scratch reproduction,
//! so this crate provides the part Jahob actually relied on: a *trusted
//! kernel* in which theorems can only be produced by a fixed set of
//! inference rules, plus a small goal package with tactics that automate the
//! structural reasoning Isabelle's `auto` handled for Jahob's residual
//! obligations.
//!
//! The kernel datatype [`Thm`] has no public constructor: every `Thm` value
//! witnesses a natural-deduction derivation of `hypotheses ⊢ conclusion`
//! through the ~10 rules below — the LCF discipline.
//!
//! The tactics do not build `Thm`s yet. [`auto`], behind the
//! [`auto_proves`] entry the dispatcher calls, returns an unchecked
//! [`TacticResult::Proved`], and no `Thm` is built outside this crate's
//! unit tests. So the trusted
//! base for a hol-auto proof today is the tactic code plus
//! [`jahob_logic::transform::simplify`], not the kernel.

use jahob_logic::transform::simplify;
use jahob_logic::{BinOp, Form};
use jahob_util::budget::{Budget, Exhaustion};
use std::fmt;

/// A theorem `hyps ⊢ concl`. Constructible only through inference rules.
#[derive(Clone, Debug, PartialEq)]
pub struct Thm {
    hyps: Vec<Form>,
    concl: Form,
}

impl fmt::Display for Thm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, h) in self.hyps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{h}")?;
        }
        write!(f, " ⊢ {}", self.concl)
    }
}

fn union_hyps(a: &[Form], b: &[Form]) -> Vec<Form> {
    let mut out = a.to_vec();
    for h in b {
        if !out.contains(h) {
            out.push(h.clone());
        }
    }
    out
}

impl Thm {
    pub fn hyps(&self) -> &[Form] {
        &self.hyps
    }

    pub fn concl(&self) -> &Form {
        &self.concl
    }

    /// Is this a theorem of `φ` with no hypotheses?
    pub fn proves(&self, phi: &Form) -> bool {
        self.hyps.is_empty() && &self.concl == phi
    }

    // ---- the kernel rules ---------------------------------------------------

    /// `φ ⊢ φ`.
    pub fn assume(phi: Form) -> Thm {
        Thm {
            hyps: vec![phi.clone()],
            concl: phi,
        }
    }

    /// `⊢ t = t` (reflexivity; also usable at bool as `φ = φ`).
    pub fn refl(t: Form) -> Thm {
        Thm {
            hyps: Vec::new(),
            concl: Form::Binop(BinOp::Eq, t.clone().into(), t.into()),
        }
    }

    /// Discharge: from `Γ, φ ⊢ ψ` infer `Γ ⊢ φ → ψ`.
    pub fn implies_intro(self, phi: &Form) -> Thm {
        let hyps = self.hyps.into_iter().filter(|h| h != phi).collect();
        Thm {
            hyps,
            concl: Form::implies(phi.clone(), self.concl),
        }
    }

    /// Modus ponens: from `Γ ⊢ φ → ψ` and `Δ ⊢ φ` infer `Γ∪Δ ⊢ ψ`.
    pub fn implies_elim(self, arg: &Thm) -> Result<Thm, KernelError> {
        match &self.concl {
            Form::Binop(BinOp::Implies, a, b) if a.as_ref() == &arg.concl => Ok(Thm {
                hyps: union_hyps(&self.hyps, &arg.hyps),
                concl: b.as_ref().clone(),
            }),
            _ => Err(KernelError(format!(
                "implies_elim: `{}` does not apply to `{}`",
                self.concl, arg.concl
            ))),
        }
    }

    /// Conjunction introduction.
    pub fn conj_intro(self, other: Thm) -> Thm {
        Thm {
            hyps: union_hyps(&self.hyps, &other.hyps),
            concl: Form::and(vec![self.concl, other.concl]),
        }
    }

    /// Conjunction elimination: project the i-th conjunct.
    pub fn conj_elim(self, index: usize) -> Result<Thm, KernelError> {
        match &self.concl {
            Form::And(parts) if index < parts.len() => Ok(Thm {
                hyps: self.hyps,
                concl: parts[index].clone(),
            }),
            _ => Err(KernelError(format!(
                "conj_elim: `{}` has no conjunct {index}",
                self.concl
            ))),
        }
    }

    /// Disjunction introduction: `Γ ⊢ φᵢ` gives `Γ ⊢ φ₁ ∨ … ∨ φₙ`.
    pub fn disj_intro(self, disjuncts: Vec<Form>) -> Result<Thm, KernelError> {
        if !disjuncts.contains(&self.concl) {
            return Err(KernelError(format!(
                "disj_intro: `{}` not among the disjuncts",
                self.concl
            )));
        }
        Ok(Thm {
            hyps: self.hyps,
            concl: Form::or(disjuncts),
        })
    }

    /// Case analysis: from `Γ ⊢ φ ∨ ψ`, `Δ, φ ⊢ χ`, `Ε, ψ ⊢ χ` infer χ.
    pub fn disj_elim(self, left: Thm, right: Thm) -> Result<Thm, KernelError> {
        let Form::Or(parts) = &self.concl else {
            return Err(KernelError(format!(
                "disj_elim: `{}` is not a disjunction",
                self.concl
            )));
        };
        if parts.len() != 2 || left.concl != right.concl {
            return Err(KernelError("disj_elim: shape mismatch".into()));
        }
        if !left.hyps.contains(&parts[0]) || !right.hyps.contains(&parts[1]) {
            return Err(KernelError(
                "disj_elim: branches must assume their disjunct".into(),
            ));
        }
        let lh: Vec<Form> = left
            .hyps
            .iter()
            .filter(|h| **h != parts[0])
            .cloned()
            .collect();
        let rh: Vec<Form> = right
            .hyps
            .iter()
            .filter(|h| **h != parts[1])
            .cloned()
            .collect();
        Ok(Thm {
            hyps: union_hyps(&union_hyps(&self.hyps, &lh), &rh),
            concl: left.concl,
        })
    }

    /// Semantic simplification rule: `Γ ⊢ φ` yields `Γ ⊢ simplify(φ)` and
    /// vice versa. `simplify` is equivalence-preserving by construction (it
    /// is the workhorse the rest of the workspace property-tests against the
    /// model evaluator), so admitting it as a kernel rule is the analogue of
    /// Isabelle's `simp` being part of the trusted basis Jahob used.
    pub fn by_simplification(phi: Form) -> Result<Thm, KernelError> {
        match simplify(&phi) {
            Form::BoolLit(true) => Ok(Thm {
                hyps: Vec::new(),
                concl: phi,
            }),
            other => Err(KernelError(format!(
                "simplification left a residue: `{other}`"
            ))),
        }
    }
}

/// Kernel rule misapplication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError(pub String);

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel: {}", self.0)
    }
}

impl std::error::Error for KernelError {}

// ---- the goal package --------------------------------------------------------

/// A backward proof state: goals to discharge, each with local hypotheses.
#[derive(Clone, Debug)]
pub struct Goal {
    pub hyps: Vec<Form>,
    pub target: Form,
}

/// Proof search outcome for the `auto` tactic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TacticResult {
    Proved,
    Stuck(Vec<String>),
}

/// A simple `auto`: intro rules for `→`/`∧`/`ALL`-free structure, assumption
/// matching, simplification, and shallow case splits on hypothesis
/// disjunctions. Complete for the propositional structure of Jahob's
/// residual obligations; anything deeper is left to the decision procedures.
///
/// Search is bounded: case-splitting over many disjunctive hypotheses is
/// exponential, and `auto` is the cheap front of a portfolio — it must fail
/// fast rather than search hard. Every expansion charges the caller's
/// [`Budget`], so a portfolio deadline can cut the tactic short; the
/// internal 800-step fail-fast bound is independent of it and still yields
/// `Stuck`, not exhaustion.
pub fn auto(goal: &Goal, depth: u32, governor: &Budget) -> Result<TacticResult, Exhaustion> {
    let mut steps = 800usize;
    search(goal, depth, &mut steps, governor)
}

fn search(
    goal: &Goal,
    depth: u32,
    budget: &mut usize,
    governor: &Budget,
) -> Result<TacticResult, Exhaustion> {
    governor.check()?;
    if *budget == 0 {
        return Ok(TacticResult::Stuck(vec!["budget exhausted".into()]));
    }
    *budget -= 1;
    let target = simplify(&Form::implies(
        Form::and(goal.hyps.clone()),
        goal.target.clone(),
    ));
    if target == Form::tt() {
        return Ok(TacticResult::Proved);
    }
    if depth == 0 {
        return Ok(TacticResult::Stuck(vec![format!(
            "depth limit at `{target}`"
        )]));
    }
    fn flatten_hyp(h: Form, out: &mut Vec<Form>) {
        match h {
            Form::And(parts) => {
                for p in parts {
                    flatten_hyp(p, out);
                }
            }
            other => out.push(other),
        }
    }
    let mut hyps = Vec::new();
    for h in &goal.hyps {
        flatten_hyp(h.clone(), &mut hyps);
    }
    let mut g = Goal {
        hyps,
        target: goal.target.clone(),
    };
    // intro: → moves into hypotheses (conjunctions flattened); ∧ splits.
    loop {
        match g.target.clone() {
            Form::Binop(BinOp::Implies, a, b) => {
                flatten_hyp(a.as_ref().clone(), &mut g.hyps);
                g.target = b.as_ref().clone();
            }
            Form::And(parts) => {
                let mut stuck = Vec::new();
                for p in parts {
                    let sub = Goal {
                        hyps: g.hyps.clone(),
                        target: p,
                    };
                    if let TacticResult::Stuck(mut s) = search(&sub, depth - 1, budget, governor)? {
                        stuck.append(&mut s);
                    }
                }
                return Ok(if stuck.is_empty() {
                    TacticResult::Proved
                } else {
                    TacticResult::Stuck(stuck)
                });
            }
            _ => break,
        }
    }
    // Forward chaining: modus ponens over the hypotheses to saturation.
    // Consequents are flattened *before* the freshness check: a conjunctive
    // consequent `x & y` enters the hypotheses as its parts, never as
    // itself, so testing `contains(b)` on the unflattened form would
    // re-derive it every round and the saturation loop would never reach
    // its fixpoint (hypotheses growing without bound — the tactic hangs).
    loop {
        governor.check()?;
        let mut derived: Vec<Form> = Vec::new();
        for h in &g.hyps {
            if let Form::Binop(BinOp::Implies, a, b) = h {
                if !g.hyps.contains(a) {
                    continue;
                }
                let mut parts = Vec::new();
                flatten_hyp(b.as_ref().clone(), &mut parts);
                for p in parts {
                    if !g.hyps.contains(&p) && !derived.contains(&p) {
                        derived.push(p);
                    }
                }
            }
        }
        if derived.is_empty() {
            break;
        }
        g.hyps.append(&mut derived);
    }
    // assumption / simplification.
    if g.hyps.contains(&g.target) {
        return Ok(TacticResult::Proved);
    }
    let closed = simplify(&Form::implies(Form::and(g.hyps.clone()), g.target.clone()));
    if closed == Form::tt() {
        return Ok(TacticResult::Proved);
    }
    // Case split on a disjunctive hypothesis.
    if let Some(pos) = g.hyps.iter().position(|h| matches!(h, Form::Or(_))) {
        let Form::Or(parts) = g.hyps[pos].clone() else {
            unreachable!()
        };
        let mut rest = g.hyps.clone();
        rest.remove(pos);
        let mut stuck = Vec::new();
        for p in parts {
            let mut hyps = rest.clone();
            hyps.push(p);
            let sub = Goal {
                hyps,
                target: g.target.clone(),
            };
            if let TacticResult::Stuck(mut s) = search(&sub, depth - 1, budget, governor)? {
                stuck.append(&mut s);
            }
        }
        return Ok(if stuck.is_empty() {
            TacticResult::Proved
        } else {
            TacticResult::Stuck(stuck)
        });
    }
    // Goal disjunction: try each disjunct.
    if let Form::Or(parts) = &g.target {
        for p in parts {
            let sub = Goal {
                hyps: g.hyps.clone(),
                target: p.clone(),
            };
            if search(&sub, depth - 1, budget, governor)? == TacticResult::Proved {
                return Ok(TacticResult::Proved);
            }
        }
    }
    Ok(TacticResult::Stuck(vec![format!(
        "cannot close `{}`",
        g.target
    )]))
}

/// Is `φ` provable by `auto` from no hypotheses, within `governor`?
pub fn auto_proves(phi: &Form, governor: &Budget) -> Result<bool, Exhaustion> {
    Ok(auto(
        &Goal {
            hyps: Vec::new(),
            target: phi.clone(),
        },
        16,
        governor,
    )? == TacticResult::Proved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;

    #[test]
    fn kernel_identity() {
        // ⊢ p → p via assume + implies_intro.
        let p = form("p");
        let thm = Thm::assume(p.clone()).implies_intro(&p);
        assert!(thm.proves(&form("p --> p")));
    }

    #[test]
    fn kernel_modus_ponens() {
        let imp = Thm::assume(form("p --> q"));
        let p = Thm::assume(form("p"));
        let q = imp.implies_elim(&p).unwrap();
        assert_eq!(q.concl(), &form("q"));
        assert_eq!(q.hyps().len(), 2);
    }

    #[test]
    fn kernel_conjunction() {
        let a = Thm::assume(form("a"));
        let b = Thm::assume(form("b"));
        let ab = a.conj_intro(b);
        assert_eq!(ab.concl(), &form("a & b"));
        let a2 = ab.clone().conj_elim(0).unwrap();
        assert_eq!(a2.concl(), &form("a"));
        assert!(ab.conj_elim(5).is_err());
    }

    #[test]
    fn kernel_disjunction() {
        let a = Thm::assume(form("a"));
        let ab = a.disj_intro(vec![form("a"), form("b")]).unwrap();
        assert_eq!(ab.concl(), &form("a | b"));
        // Case analysis: a ∨ a ⊢ a.
        let d = Thm::assume(form("a | b"));
        let left = Thm::assume(form("a"));
        let right = Thm::assume(form("b"))
            .disj_intro(vec![form("a"), form("b")])
            .unwrap();
        // Right branch must conclude the same as left; craft b ⊢ a is not
        // derivable, so check the error path instead.
        assert!(d.disj_elim(left, right).is_err());
    }

    #[test]
    fn kernel_rules_cannot_forge() {
        // implies_elim with mismatched antecedent fails.
        let imp = Thm::assume(form("p --> q"));
        let r = Thm::assume(form("r"));
        assert!(imp.implies_elim(&r).is_err());
    }

    #[test]
    fn simplification_rule() {
        assert!(Thm::by_simplification(form("x = x & (p --> p)")).is_ok());
        assert!(Thm::by_simplification(form("p")).is_err());
    }

    #[test]
    fn auto_structural() {
        assert!(auto_proves(&form("p --> p"), &Budget::unlimited()).unwrap());
        assert!(auto_proves(&form("p & q --> q & p"), &Budget::unlimited()).unwrap());
        assert!(auto_proves(&form("p --> p | q"), &Budget::unlimited()).unwrap());
        assert!(auto_proves(
            &form("(p | q) --> (p --> r) --> (q --> r) --> r"),
            &Budget::unlimited()
        )
        .unwrap());
        assert!(auto_proves(&form("a & (b & c) --> c"), &Budget::unlimited()).unwrap());
        assert!(!auto_proves(&form("p --> q"), &Budget::unlimited()).unwrap());
        assert!(!auto_proves(&form("p | q --> p"), &Budget::unlimited()).unwrap());
    }

    #[test]
    fn governor_cuts_auto_short() {
        let phi = form("(p | q) --> (p --> r) --> (q --> r) --> r");
        let starved = Budget::with_fuel(1);
        assert_eq!(auto_proves(&phi, &starved), Err(Exhaustion::Fuel));
        let roomy = Budget::with_fuel(1_000_000);
        assert_eq!(auto_proves(&phi, &roomy), Ok(true));
    }

    #[test]
    fn forward_chaining_with_conjunctive_consequent_terminates() {
        // Regression: modus ponens on `p --> q & r` derives `q & r`, which
        // enters the hypotheses only as its flattened parts — saturation
        // used to re-derive it every round and never reach its fixpoint.
        assert!(auto_proves(&form("p & (p --> q & r) --> q"), &Budget::unlimited()).unwrap());
        assert!(!auto_proves(&form("p & (p --> q & r) --> s"), &Budget::unlimited()).unwrap());
    }

    #[test]
    fn auto_with_sets() {
        // Structural reasoning over opaque set atoms.
        assert!(auto_proves(
            &form("x : S & S Int T = {} --> (S Int T = {} & x : S)"),
            &Budget::unlimited()
        )
        .unwrap());
    }
}
