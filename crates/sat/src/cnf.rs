//! Propositional formulas and Tseitin conversion to CNF.
//!
//! The bounded model finder and the DPLL(T) skeleton both build arbitrary
//! propositional structure and need it in clausal form. [`CnfBuilder`] wraps
//! a [`Solver`](crate::Solver)-compatible clause sink and performs the
//! standard Tseitin transformation with structural hashing, so shared
//! subformulas get one definition variable. The hash is keyed on a gate's
//! connective and its already-encoded child literals, so a lookup hashes
//! one level of the formula and an insert clones none of it.

use crate::solver::{Lit, Solver, Var};
use jahob_util::FxHashMap;
use std::rc::Rc;

/// A propositional formula.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PropForm {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// A named atom (index into the builder's atom table).
    Atom(u32),
    Not(Rc<PropForm>),
    And(Vec<PropForm>),
    Or(Vec<PropForm>),
    Implies(Rc<PropForm>, Rc<PropForm>),
    Iff(Rc<PropForm>, Rc<PropForm>),
}

impl PropForm {
    pub fn atom(i: u32) -> PropForm {
        PropForm::Atom(i)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(f: PropForm) -> PropForm {
        match f {
            PropForm::True => PropForm::False,
            PropForm::False => PropForm::True,
            PropForm::Not(inner) => inner.as_ref().clone(),
            other => PropForm::Not(Rc::new(other)),
        }
    }

    pub fn and(fs: Vec<PropForm>) -> PropForm {
        let mut out = Vec::with_capacity(fs.len());
        for f in fs {
            match f {
                PropForm::True => {}
                PropForm::False => return PropForm::False,
                PropForm::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => PropForm::True,
            1 => out.pop().unwrap(),
            _ => PropForm::And(out),
        }
    }

    pub fn or(fs: Vec<PropForm>) -> PropForm {
        let mut out = Vec::with_capacity(fs.len());
        for f in fs {
            match f {
                PropForm::False => {}
                PropForm::True => return PropForm::True,
                PropForm::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => PropForm::False,
            1 => out.pop().unwrap(),
            _ => PropForm::Or(out),
        }
    }

    pub fn implies(a: PropForm, b: PropForm) -> PropForm {
        PropForm::or(vec![PropForm::not(a), b])
    }

    pub fn iff(a: PropForm, b: PropForm) -> PropForm {
        match (&a, &b) {
            (PropForm::True, _) => b,
            (_, PropForm::True) => a,
            (PropForm::False, _) => PropForm::not(b),
            (_, PropForm::False) => PropForm::not(a),
            _ if a == b => PropForm::True,
            _ => PropForm::Iff(Rc::new(a), Rc::new(b)),
        }
    }

    /// Evaluate under an atom valuation (for differential tests).
    pub fn eval(&self, atoms: &dyn Fn(u32) -> bool) -> bool {
        match self {
            PropForm::True => true,
            PropForm::False => false,
            PropForm::Atom(i) => atoms(*i),
            PropForm::Not(f) => !f.eval(atoms),
            PropForm::And(fs) => fs.iter().all(|f| f.eval(atoms)),
            PropForm::Or(fs) => fs.iter().any(|f| f.eval(atoms)),
            PropForm::Implies(a, b) => !a.eval(atoms) || b.eval(atoms),
            PropForm::Iff(a, b) => a.eval(atoms) == b.eval(atoms),
        }
    }
}

/// A Tseitin gate: a connective over the literals of its children.
#[derive(PartialEq, Eq, Hash)]
enum Gate {
    And(Vec<Lit>),
    Or(Vec<Lit>),
    Iff(Lit, Lit),
}

/// Tseitin CNF builder over a [`Solver`].
pub struct CnfBuilder {
    /// SAT variable for each atom index.
    atom_vars: FxHashMap<u32, Var>,
    /// Structural hash: gate → defining literal. Formulas built by the
    /// smart constructors share a gate exactly when they are structurally
    /// equal, because those keep `Implies` and double negations out.
    defs: FxHashMap<Gate, Lit>,
    /// A variable fixed true (for encoding constants).
    const_true: Option<Lit>,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CnfBuilder {
    pub fn new() -> Self {
        CnfBuilder {
            atom_vars: FxHashMap::default(),
            defs: FxHashMap::default(),
            const_true: None,
        }
    }

    /// The SAT variable representing atom `i` (allocated on demand).
    pub fn atom_var(&mut self, solver: &mut Solver, i: u32) -> Var {
        if let Some(&v) = self.atom_vars.get(&i) {
            return v;
        }
        let v = solver.new_var();
        self.atom_vars.insert(i, v);
        v
    }

    fn true_lit(&mut self, solver: &mut Solver) -> Lit {
        if let Some(l) = self.const_true {
            return l;
        }
        let v = solver.new_var();
        solver.add_clause(&[v.positive()]);
        let l = v.positive();
        self.const_true = Some(l);
        l
    }

    /// Return a literal equisatisfiably representing `form`, adding defining
    /// clauses to the solver.
    pub fn literal(&mut self, solver: &mut Solver, form: &PropForm) -> Lit {
        let gate = match form {
            PropForm::True => return self.true_lit(solver),
            PropForm::False => return self.true_lit(solver).negate(),
            PropForm::Atom(i) => return self.atom_var(solver, *i).positive(),
            PropForm::Not(inner) => return self.literal(solver, inner).negate(),
            PropForm::Implies(a, b) => {
                let f = PropForm::or(vec![PropForm::not(a.as_ref().clone()), b.as_ref().clone()]);
                return self.literal(solver, &f);
            }
            PropForm::And(parts) => Gate::And(self.literals(solver, parts)),
            PropForm::Or(parts) => Gate::Or(self.literals(solver, parts)),
            PropForm::Iff(a, b) => Gate::Iff(self.literal(solver, a), self.literal(solver, b)),
        };
        if let Some(&l) = self.defs.get(&gate) {
            return l;
        }
        let d = solver.new_var().positive();
        match &gate {
            Gate::And(lits) => {
                // d -> each part; (all parts) -> d.
                for &l in lits {
                    solver.add_clause(&[d.negate(), l]);
                }
                let mut clause: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
                clause.push(d);
                solver.add_clause(&clause);
            }
            Gate::Or(lits) => {
                for &l in lits {
                    solver.add_clause(&[l.negate(), d]);
                }
                let mut clause = lits.clone();
                clause.push(d.negate());
                solver.add_clause(&clause);
            }
            &Gate::Iff(la, lb) => {
                solver.add_clause(&[d.negate(), la.negate(), lb]);
                solver.add_clause(&[d.negate(), la, lb.negate()]);
                solver.add_clause(&[d, la, lb]);
                solver.add_clause(&[d, la.negate(), lb.negate()]);
            }
        }
        self.defs.insert(gate, d);
        d
    }

    fn literals(&mut self, solver: &mut Solver, parts: &[PropForm]) -> Vec<Lit> {
        parts.iter().map(|p| self.literal(solver, p)).collect()
    }

    /// Assert `form` as a top-level constraint.
    pub fn assert(&mut self, solver: &mut Solver, form: &PropForm) {
        // Top-level conjunctions split into separate assertions (fewer
        // definition variables).
        match form {
            PropForm::And(parts) => {
                for p in parts {
                    self.assert(solver, p);
                }
            }
            PropForm::True => {}
            PropForm::False => {
                solver.add_clause(&[]);
            }
            PropForm::Or(parts) if parts.iter().all(is_literal) => {
                let lits = self.literals(solver, parts);
                solver.add_clause(&lits);
            }
            other => {
                let l = self.literal(solver, other);
                solver.add_clause(&[l]);
            }
        }
    }

    /// The value of atom `i` in a SAT model (false if never mentioned).
    pub fn atom_value(&self, model: &[bool], i: u32) -> bool {
        self.atom_vars
            .get(&i)
            .map(|v| model[v.0 as usize])
            .unwrap_or(false)
    }
}

fn is_literal(f: &PropForm) -> bool {
    matches!(f, PropForm::Atom(_))
        || matches!(f, PropForm::Not(inner) if matches!(inner.as_ref(), PropForm::Atom(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;

    fn solve(form: &PropForm) -> Option<Vec<(u32, bool)>> {
        let mut solver = Solver::new();
        let mut builder = CnfBuilder::new();
        builder.assert(&mut solver, form);
        match solver.solve() {
            crate::solver::SolveResult::Sat(model) => {
                let mut atoms: Vec<(u32, bool)> = builder
                    .atom_vars
                    .keys()
                    .map(|&i| (i, builder.atom_value(&model, i)))
                    .collect();
                atoms.sort();
                Some(atoms)
            }
            crate::solver::SolveResult::Unsat => None,
        }
    }

    fn a(i: u32) -> PropForm {
        PropForm::atom(i)
    }

    #[test]
    fn sat_and_model_correct() {
        let f = PropForm::and(vec![a(0), PropForm::not(a(1))]);
        let model = solve(&f).expect("sat");
        assert_eq!(model, vec![(0, true), (1, false)]);
    }

    #[test]
    fn unsat_contradiction() {
        let f = PropForm::and(vec![a(0), PropForm::not(a(0))]);
        assert!(solve(&f).is_none());
    }

    #[test]
    fn implication_encoding() {
        // (a -> b) & a & ~b is unsat.
        let f = PropForm::and(vec![
            PropForm::implies(a(0), a(1)),
            a(0),
            PropForm::not(a(1)),
        ]);
        assert!(solve(&f).is_none());
    }

    #[test]
    fn iff_encoding() {
        let f = PropForm::and(vec![PropForm::iff(a(0), a(1)), a(0)]);
        let model = solve(&f).expect("sat");
        assert_eq!(model, vec![(0, true), (1, true)]);
        let g = PropForm::and(vec![PropForm::iff(a(0), a(1)), a(0), PropForm::not(a(1))]);
        assert!(solve(&g).is_none());
    }

    #[test]
    fn constants() {
        assert!(solve(&PropForm::True).is_some());
        assert!(solve(&PropForm::False).is_none());
        assert!(solve(&PropForm::implies(PropForm::False, PropForm::False)).is_some());
    }

    #[test]
    fn tseitin_equisatisfiable_exhaustive() {
        // For all formulas over 3 atoms from a small grammar, CNF
        // satisfiability must match brute-force satisfiability.
        let atoms = [a(0), a(1), a(2)];
        let mut formulas: Vec<PropForm> = atoms.to_vec();
        // Depth-2 combinations.
        let base = formulas.clone();
        for x in &base {
            formulas.push(PropForm::not(x.clone()));
        }
        let level1 = formulas.clone();
        for x in &level1 {
            for y in &level1 {
                formulas.push(PropForm::and(vec![x.clone(), y.clone()]));
                formulas.push(PropForm::or(vec![x.clone(), y.clone()]));
                formulas.push(PropForm::iff(x.clone(), y.clone()));
            }
        }
        for f in formulas.iter().take(300) {
            let brute = (0u32..8).any(|mask| f.eval(&|i| mask & (1 << i) != 0));
            let got = solve(f).is_some();
            assert_eq!(got, brute, "mismatch on {f:?}");
        }
    }

    #[test]
    fn shared_subformulas_reuse_definitions() {
        let shared = PropForm::and(vec![a(0), a(1)]);
        let f = PropForm::or(vec![shared.clone(), PropForm::not(shared.clone())]);
        let mut solver = Solver::new();
        let mut builder = CnfBuilder::new();
        builder.assert(&mut solver, &f);
        let n1 = solver.num_vars();
        // Re-asserting something mentioning the same subformula adds no new
        // definition variable for it.
        builder.assert(&mut solver, &shared);
        assert_eq!(solver.num_vars(), n1);
    }
}
