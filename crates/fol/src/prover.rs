//! The given-clause saturation loop: binary resolution + factoring, with
//! equality axioms, forward subsumption, and effort limits.

use crate::clause::{eq_pred, signature, Clause, Literal};
use crate::term::{matches, unify, FTerm, Subst};
use jahob_util::budget::{Budget, Exhaustion};
use std::collections::{BinaryHeap, VecDeque};

/// Effort limits for the saturation loop.
#[derive(Clone, Debug)]
pub struct ProverConfig {
    /// Stop after this many given-clause iterations. The default, 700, is
    /// also the dispatcher's (`DispatchConfig::fol_iterations`).
    pub max_iterations: usize,
    /// Discard derived clauses larger than this (symbol count).
    pub max_clause_size: usize,
    /// Stop when the clause database exceeds this.
    pub max_clauses: usize,
    /// Discard derived clauses containing terms nested deeper than this —
    /// blocks runaway `f(f(f(...)))` chains from the step axioms.
    pub max_term_depth: usize,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            max_iterations: 700,
            max_clause_size: 24,
            max_clauses: 20000,
            max_term_depth: 4,
        }
    }
}

/// Result of a saturation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProveResult {
    /// Derived the empty clause: the input set is unsatisfiable.
    Proved,
    /// Effort limits reached or saturated without refutation.
    GaveUp,
}

/// Priority-queue entry: smaller clauses first.
struct Queued(Clause);

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.0.size() == other.0.size()
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for smallest-first.
        other.0.size().cmp(&self.0.size())
    }
}

/// Equality axioms for the symbols occurring in the problem.
fn equality_axioms(clauses: &[Clause]) -> Vec<Clause> {
    let uses_eq = clauses
        .iter()
        .any(|c| c.literals.iter().any(|l| l.pred == eq_pred()));
    if !uses_eq {
        return Vec::new();
    }
    let eq = eq_pred();
    let mut axioms = Vec::new();
    let lit = |positive, pred, args: Vec<FTerm>| Literal {
        positive,
        pred,
        args,
    };
    // Reflexivity: x = x.
    axioms.push(Clause {
        literals: vec![lit(true, eq, vec![FTerm::Var(0), FTerm::Var(0)])],
    });
    // Symmetry: x ≠ y ∨ y = x.
    axioms.push(Clause {
        literals: vec![
            lit(false, eq, vec![FTerm::Var(0), FTerm::Var(1)]),
            lit(true, eq, vec![FTerm::Var(1), FTerm::Var(0)]),
        ],
    });
    // Transitivity: x ≠ y ∨ y ≠ z ∨ x = z.
    axioms.push(Clause {
        literals: vec![
            lit(false, eq, vec![FTerm::Var(0), FTerm::Var(1)]),
            lit(false, eq, vec![FTerm::Var(1), FTerm::Var(2)]),
            lit(true, eq, vec![FTerm::Var(0), FTerm::Var(2)]),
        ],
    });
    // Congruence schemas.
    let (funs, preds) = signature(clauses);
    for (f, arity) in funs {
        let xs: Vec<FTerm> = (0..arity as u32).map(FTerm::Var).collect();
        let ys: Vec<FTerm> = (0..arity as u32)
            .map(|i| FTerm::Var(i + arity as u32))
            .collect();
        let mut literals: Vec<Literal> = (0..arity)
            .map(|i| lit(false, eq, vec![xs[i].clone(), ys[i].clone()]))
            .collect();
        literals.push(lit(
            true,
            eq,
            vec![FTerm::Fun(f, xs.clone()), FTerm::Fun(f, ys.clone())],
        ));
        axioms.push(Clause { literals });
    }
    for (p, arity) in preds {
        let xs: Vec<FTerm> = (0..arity as u32).map(FTerm::Var).collect();
        let ys: Vec<FTerm> = (0..arity as u32)
            .map(|i| FTerm::Var(i + arity as u32))
            .collect();
        let mut literals: Vec<Literal> = (0..arity)
            .map(|i| lit(false, eq, vec![xs[i].clone(), ys[i].clone()]))
            .collect();
        literals.push(lit(false, p, xs.clone()));
        literals.push(lit(true, p, ys.clone()));
        axioms.push(Clause { literals });
    }
    axioms
}

/// Does `general` subsume `specific` (∃θ. general·θ ⊆ specific)?
fn subsumes(general: &Clause, specific: &Clause) -> bool {
    if general.literals.len() > specific.literals.len() {
        return false;
    }
    fn rec(glits: &[Literal], specific: &Clause, subst: &Subst) -> bool {
        let Some((first, rest)) = glits.split_first() else {
            return true;
        };
        for target in &specific.literals {
            if target.positive != first.positive
                || target.pred != first.pred
                || target.args.len() != first.args.len()
            {
                continue;
            }
            let mut candidate = subst.clone();
            let ok = first
                .args
                .iter()
                .zip(&target.args)
                .all(|(p, t)| matches(p, t, &mut candidate));
            if ok && rec(rest, specific, &candidate) {
                return true;
            }
        }
        false
    }
    rec(&general.literals, specific, &Subst::new())
}

/// Literal indices eligible for resolution under negative selection: when a
/// clause has negative literals, only its first negative literal is
/// selected; otherwise every (positive) literal is eligible. Refutationally
/// complete and prunes the search space dramatically.
fn selected(clause: &Clause) -> Vec<usize> {
    match clause.literals.iter().position(|l| !l.positive) {
        Some(i) => vec![i],
        None => {
            // Positive clause: resolve only on maximal-size literals — an
            // ordered-resolution style restriction that keeps the search
            // tractable.
            let max = clause.literals.iter().map(Literal::size).max().unwrap();
            clause
                .literals
                .iter()
                .enumerate()
                .filter(|(_, l)| l.size() == max)
                .map(|(i, _)| i)
                .collect()
        }
    }
}

/// All binary resolvents of `a` and `b` (variables renamed apart), with
/// negative selection on both sides.
fn resolvents(a: &Clause, b: &Clause) -> Vec<Clause> {
    let offset = a.num_vars();
    let b_shifted: Vec<Literal> = b.literals.iter().map(|l| l.shift(offset)).collect();
    let mut out = Vec::new();
    for i in selected(a) {
        let la = &a.literals[i];
        for j in selected(b) {
            let lb = &b_shifted[j];
            if la.positive == lb.positive || la.pred != lb.pred || la.args.len() != lb.args.len() {
                continue;
            }
            let mut subst = Subst::new();
            let unified = la
                .args
                .iter()
                .zip(&lb.args)
                .all(|(x, y)| unify(x, y, &mut subst));
            if !unified {
                continue;
            }
            let mut literals = Vec::new();
            for (k, l) in a.literals.iter().enumerate() {
                if k != i {
                    literals.push(l.apply(&subst));
                }
            }
            for (k, l) in b_shifted.iter().enumerate() {
                if k != j {
                    literals.push(l.apply(&subst));
                }
            }
            out.push(Clause { literals });
        }
    }
    out
}

/// Positive factors of a clause (unify two positive literals); negative
/// factoring is unnecessary under negative selection.
fn factors(c: &Clause) -> Vec<Clause> {
    if c.literals.iter().any(|l| !l.positive) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..c.literals.len() {
        for j in (i + 1)..c.literals.len() {
            let (li, lj) = (&c.literals[i], &c.literals[j]);
            if li.positive != lj.positive || li.pred != lj.pred || li.args.len() != lj.args.len() {
                continue;
            }
            let mut subst = Subst::new();
            let unified = li
                .args
                .iter()
                .zip(&lj.args)
                .all(|(x, y)| unify(x, y, &mut subst));
            if !unified {
                continue;
            }
            let literals: Vec<Literal> = c
                .literals
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != j)
                .map(|(_, l)| l.apply(&subst))
                .collect();
            out.push(Clause { literals });
        }
    }
    out
}

/// Run the given-clause loop on the input set (plus equality axioms).
pub fn prove(input: Vec<Clause>, config: &ProverConfig) -> ProveResult {
    prove_inner(input, config, &Budget::unlimited()).expect("unlimited budget cannot be exhausted")
}

/// Budgeted given-clause loop: one fuel unit per iteration, with the
/// deadline polled cooperatively. `Err` means the budget ran dry before the
/// configured effort limits did — distinguishable from an honest `GaveUp`.
pub fn prove_budgeted(
    input: Vec<Clause>,
    config: &ProverConfig,
    budget: &Budget,
) -> Result<ProveResult, Exhaustion> {
    prove_inner(input, config, budget)
}

fn prove_inner(
    input: Vec<Clause>,
    config: &ProverConfig,
    budget: &Budget,
) -> Result<ProveResult, Exhaustion> {
    let mut passive: BinaryHeap<Queued> = BinaryHeap::new();
    let axioms = equality_axioms(&input);
    // The reflexivity axiom `x = x` must bypass normalize(): its tautology
    // rule deletes `t = t` clauses, which is exactly right for *derived*
    // clauses (they are redundant once reflexivity is present) but would
    // delete the axiom itself.
    for c in axioms {
        passive.push(Queued(c));
    }
    for c in input {
        match c.normalize() {
            None => {}
            Some(c) if c.is_empty() => return Ok(ProveResult::Proved),
            Some(c) => passive.push(Queued(c)),
        }
    }
    let mut active: Vec<Clause> = Vec::new();
    let mut old_queue: std::collections::VecDeque<Clause> = VecDeque::new();
    let mut total = passive.len();

    for iteration in 0..config.max_iterations {
        budget.check()?;
        // Age/weight alternation: mostly smallest-first, but every fifth
        // pick takes the oldest clause so heavy clauses are not starved.
        let given = if iteration % 5 == 4 {
            old_queue
                .pop_front()
                .or_else(|| passive.pop().map(|Queued(c)| c))
        } else {
            passive.pop().map(|Queued(c)| c)
        };
        let Some(given) = given else {
            // Saturated without the empty clause: consistent input (within
            // the equality axiomatization), so the refutation fails.
            return Ok(ProveResult::GaveUp);
        };
        if given.is_empty() {
            return Ok(ProveResult::Proved);
        }
        // Forward subsumption (short clauses only — cost control).
        if active
            .iter()
            .any(|a| a.literals.len() <= 3 && subsumes(a, &given))
        {
            continue;
        }
        // Generate.
        let mut fresh: Vec<Clause> = Vec::new();
        for other in active.iter().chain(std::iter::once(&given)) {
            fresh.extend(resolvents(&given, other));
        }
        fresh.extend(factors(&given));
        active.push(given);

        for c in fresh {
            let Some(c) = c.normalize() else {
                continue;
            };
            if c.is_empty() {
                return Ok(ProveResult::Proved);
            }
            if c.size() > config.max_clause_size {
                continue;
            }
            let too_deep = c
                .literals
                .iter()
                .any(|l| l.args.iter().any(|t| t.depth() > config.max_term_depth));
            if too_deep {
                continue;
            }
            if active
                .iter()
                .any(|a| a.literals.len() <= 3 && subsumes(a, &c))
            {
                continue;
            }
            old_queue.push_back(c.clone());
            passive.push(Queued(c));
            total += 1;
            if total > config.max_clauses {
                return Ok(ProveResult::GaveUp);
            }
        }
    }
    Ok(ProveResult::GaveUp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::clausify;
    use jahob_logic::{form, Form};

    fn proves(hypotheses: &[&str], goal: &str) -> bool {
        let mut clauses = Vec::new();
        for h in hypotheses {
            clauses.extend(clausify(&form(h)).unwrap());
        }
        clauses.extend(clausify(&Form::not(form(goal))).unwrap());
        prove(clauses, &ProverConfig::default()) == ProveResult::Proved
    }

    #[test]
    fn modus_ponens() {
        assert!(proves(&["p a", "ALL x. p x --> q x"], "q a"));
        assert!(!proves(&["q a", "ALL x. p x --> q x"], "p a"));
    }

    #[test]
    fn syllogism_chain() {
        assert!(proves(
            &[
                "ALL x. p x --> q x",
                "ALL x. q x --> r x",
                "ALL x. r x --> s x",
                "p a"
            ],
            "s a"
        ));
    }

    #[test]
    fn existential_goal() {
        assert!(proves(&["p a"], "EX x. p x"));
        assert!(!proves(&[], "EX x. p x & ~(p x)"));
    }

    #[test]
    fn equality_reasoning() {
        assert!(proves(&["a = b", "p a"], "p b"));
        assert!(proves(&["a = b", "b = c"], "a = c"));
        assert!(proves(&["a = b"], "f a = f b"));
        assert!(!proves(&["f a = f b"], "a = b"));
    }

    #[test]
    fn symmetric_equality() {
        assert!(proves(&["a = b"], "b = a"));
    }

    #[test]
    fn resolution_with_function_terms() {
        // ∀x. p(x) → p(f(x)) with p(a) proves p(f(f(a))).
        assert!(proves(&["p a", "ALL x. p x --> p (f x)"], "p (f (f a))"));
    }

    #[test]
    fn drinker_paradox() {
        // ∃x. (p(x) → ∀y. p(y)) — classic; requires factoring.
        let goal = form("EX x. p x --> (ALL y. p y)");
        let clauses = clausify(&Form::not(goal)).unwrap();
        assert_eq!(
            prove(clauses, &ProverConfig::default()),
            ProveResult::Proved
        );
    }

    #[test]
    fn relations_and_transitivity() {
        assert!(proves(
            &[
                "ALL x y z. r x y & r y z --> r x z",
                "r a b",
                "r b c",
                "r c d"
            ],
            "r a d"
        ));
        assert!(!proves(
            &["ALL x y z. r x y & r y z --> r x z", "r a b"],
            "r b a"
        ));
    }

    #[test]
    fn gives_up_gracefully_on_satisfiable() {
        // p(a) alone cannot prove q(a); saturation terminates.
        assert!(!proves(&["p a"], "q a"));
    }

    #[test]
    fn budget_cuts_saturation_short() {
        use jahob_util::budget::{Budget, Exhaustion};
        // Transitivity chain needs real iterations; 1 fuel unit is not
        // enough, but the answer is still reachable with a fresh budget.
        let mut clauses = Vec::new();
        for h in [
            "ALL x y z. r x y & r y z --> r x z",
            "r a b",
            "r b c",
            "r c d",
        ] {
            clauses.extend(clausify(&form(h)).unwrap());
        }
        clauses.extend(clausify(&Form::not(form("r a d"))).unwrap());
        let tiny = Budget::with_fuel(1);
        assert_eq!(
            prove_budgeted(clauses.clone(), &ProverConfig::default(), &tiny),
            Err(Exhaustion::Fuel)
        );
        assert_eq!(
            prove_budgeted(clauses, &ProverConfig::default(), &Budget::unlimited()),
            Ok(ProveResult::Proved)
        );
    }

    #[test]
    fn subsumption_works() {
        // p(x) subsumes p(a) | q(b).
        let general = clausify(&form("ALL x. p x")).unwrap().remove(0);
        let specific = clausify(&form("p a | q b")).unwrap().remove(0);
        assert!(subsumes(&general, &specific));
        assert!(!subsumes(&specific, &general));
    }
}
