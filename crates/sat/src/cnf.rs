//! A gate builder over solver literals.
//!
//! The bounded model finder and the DPLL(T) skeleton both build arbitrary
//! propositional structure and need it in clausal form. [`CnfBuilder`]
//! builds it straight into a [`Solver`]: each connective returns one
//! literal, and a gate's Tseitin definition is added the first time the gate
//! is built. Constants fold away, and each gate is hash-consed on its sorted,
//! deduplicated input literals, so equal gates share one variable and a
//! lookup hashes one level of structure. Negation is [`Lit::negate`]; a
//! literal is asserted with [`Solver::add_clause`].
//!
//! [`CnfBuilder::mark`] and [`CnfBuilder::rollback`] take the builder and
//! its solver back together, forgetting the gates and clauses made in
//! between, so a caller can keep a shared encoding and try one formula
//! after another on top of it.

use crate::solver::{self, Lit, Solver};
use jahob_util::FxHashMap;
use std::rc::Rc;

/// Tseitin gate builder over a [`Solver`]'s literals.
#[derive(Default)]
pub struct CnfBuilder {
    /// `and` gates, keyed on their sorted, deduplicated inputs.
    ands: FxHashMap<Rc<[Lit]>, Lit>,
    /// `iff` gates, keyed on their inputs' positive literals in order; the
    /// inputs' signs are carried outside the gate.
    iffs: FxHashMap<(Lit, Lit), Lit>,
    /// A variable fixed true, made when a constant is first needed.
    true_lit: Option<Lit>,
    /// Scratch for normalizing `and` inputs.
    scratch: Vec<Lit>,
    /// The keys of the gates made since the last mark, once one was taken.
    made: Option<Vec<Gate>>,
}

/// A gate's key, as `CnfBuilder::made` logs it.
enum Gate {
    And(Rc<[Lit]>),
    Iff((Lit, Lit)),
}

/// A point a [`CnfBuilder`] and its [`Solver`] can return to together.
#[derive(Clone, Copy, Debug)]
pub struct CnfMark {
    solver: solver::Mark,
    true_lit: Option<Lit>,
}

impl CnfMark {
    /// The number of solver variables at the mark: every literal made
    /// since has a variable at or above it.
    pub fn vars(self) -> u32 {
        self.solver.vars()
    }
}

impl CnfBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// The current point of this builder and `solver`, for a later
    /// [`CnfBuilder::rollback`]. Marks do not nest: a rollback returns to
    /// the latest mark.
    pub fn mark(&mut self, solver: &Solver) -> CnfMark {
        self.made.get_or_insert_with(Vec::new).clear();
        CnfMark {
            solver: solver.mark(),
            true_lit: self.true_lit,
        }
    }

    /// Return this builder and `solver` to `mark`, the latest mark: the
    /// gates made since are forgotten with their variables and clauses
    /// (see [`Solver::rollback`], whose conditions hold for the gate
    /// definitions this builder adds).
    pub fn rollback(&mut self, solver: &mut Solver, mark: CnfMark) {
        solver.rollback(mark.solver);
        for gate in self.made.iter_mut().flat_map(|made| made.drain(..)) {
            match gate {
                Gate::And(key) => self.ands.remove(&key),
                Gate::Iff(key) => self.iffs.remove(&key),
            };
        }
        self.true_lit = mark.true_lit;
    }

    /// The literal of a constant.
    pub fn constant(&mut self, solver: &mut Solver, value: bool) -> Lit {
        let t = match self.true_lit {
            Some(t) => t,
            None => {
                let t = solver.new_var().positive();
                solver.add_clause(&[t]);
                self.true_lit = Some(t);
                t
            }
        };
        if value {
            t
        } else {
            t.negate()
        }
    }

    /// The conjunction of `inputs`.
    pub fn and(&mut self, solver: &mut Solver, inputs: &[Lit]) -> Lit {
        self.and_of(solver, inputs.iter().copied())
    }

    /// The disjunction of `inputs`: `¬and(¬…)`.
    pub fn or(&mut self, solver: &mut Solver, inputs: &[Lit]) -> Lit {
        self.and_of(solver, inputs.iter().map(|l| l.negate()))
            .negate()
    }

    /// `a → b`.
    pub fn implies(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        self.or(solver, &[a.negate(), b])
    }

    /// `a ↔ b`.
    pub fn iff(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        let t = self.true_lit;
        for (x, y) in [(a, b), (b, a)] {
            if Some(x) == t {
                return y;
            }
            if Some(x.negate()) == t {
                return y.negate();
            }
        }
        if a == b || a == b.negate() {
            return self.constant(solver, a == b);
        }
        // ¬x ↔ y is ¬(x ↔ y): key the gate on the positive literals.
        let negated = a.is_neg() != b.is_neg();
        let (pa, pb) = (a.var().positive(), b.var().positive());
        let key = (pa.min(pb), pa.max(pb));
        let d = match self.iffs.get(&key) {
            Some(&d) => d,
            None => {
                let d = solver.new_var().positive();
                solver.add_clause(&[d.negate(), pa.negate(), pb]);
                solver.add_clause(&[d.negate(), pa, pb.negate()]);
                solver.add_clause(&[d, pa, pb]);
                solver.add_clause(&[d, pa.negate(), pb.negate()]);
                self.iffs.insert(key, d);
                if let Some(made) = &mut self.made {
                    made.push(Gate::Iff(key));
                }
                d
            }
        };
        if negated {
            d.negate()
        } else {
            d
        }
    }

    /// The conjunction of `inputs`: true inputs drop out; a false input or a
    /// complementary pair gives false; the rest is sorted, deduplicated and
    /// looked up before a new gate is defined.
    fn and_of(&mut self, solver: &mut Solver, inputs: impl Iterator<Item = Lit>) -> Lit {
        let mut lits = std::mem::take(&mut self.scratch);
        lits.clear();
        let t = self.true_lit;
        let mut falsified = false;
        for l in inputs {
            if Some(l) == t {
                continue;
            }
            if Some(l.negate()) == t {
                falsified = true;
                break;
            }
            lits.push(l);
        }
        lits.sort_unstable();
        lits.dedup();
        // A literal and its negation sort next to each other.
        falsified |= lits.windows(2).any(|p| p[0] == p[1].negate());
        let gate = if falsified {
            self.constant(solver, false)
        } else if lits.len() <= 1 {
            match lits.first() {
                Some(&l) => l,
                None => self.constant(solver, true),
            }
        } else if let Some(&d) = self.ands.get(lits.as_slice()) {
            d
        } else {
            // d → each input; all inputs → d.
            let d = solver.new_var().positive();
            for &l in &lits {
                solver.add_clause(&[d.negate(), l]);
            }
            let mut clause: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
            clause.push(d);
            solver.add_clause(&clause);
            let key: Rc<[Lit]> = Rc::from(lits.as_slice());
            if let Some(made) = &mut self.made {
                made.push(Gate::And(Rc::clone(&key)));
            }
            self.ands.insert(key, d);
            d
        };
        self.scratch = lits;
        gate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveResult, Var};
    use jahob_util::budget::Budget;

    /// A builder and solver with three atom variables.
    fn setup() -> (CnfBuilder, Solver, [Lit; 3]) {
        let mut solver = Solver::new();
        let atoms = [(); 3].map(|_| solver.new_var().positive());
        (CnfBuilder::new(), solver, atoms)
    }

    /// The atoms' values in a model of `root`, or `None` when unsatisfiable.
    fn solve(mut solver: Solver, atoms: &[Lit], root: Lit) -> Option<Vec<bool>> {
        solver.add_clause(&[root]);
        match solver.solve(&Budget::unlimited()).unwrap() {
            SolveResult::Sat(model) => {
                Some(atoms.iter().map(|a| model[a.var().0 as usize]).collect())
            }
            SolveResult::Unsat => None,
        }
    }

    #[test]
    fn sat_and_model_correct() {
        let (mut b, mut s, [a0, a1, _]) = setup();
        let f = b.and(&mut s, &[a0, a1.negate()]);
        assert_eq!(solve(s, &[a0, a1], f), Some(vec![true, false]));
    }

    #[test]
    fn unsat_contradiction() {
        let (mut b, mut s, [a0, ..]) = setup();
        let f = b.and(&mut s, &[a0, a0.negate()]);
        assert_eq!(f, b.constant(&mut s, false));
        assert!(solve(s, &[a0], f).is_none());
    }

    #[test]
    fn implication_encoding() {
        // (a -> b) & a & ~b is unsat.
        let (mut b, mut s, [a0, a1, _]) = setup();
        let imp = b.implies(&mut s, a0, a1);
        let f = b.and(&mut s, &[imp, a0, a1.negate()]);
        assert!(solve(s, &[a0, a1], f).is_none());
    }

    #[test]
    fn iff_encoding() {
        let (mut b, mut s, [a0, a1, _]) = setup();
        let iff = b.iff(&mut s, a0, a1);
        let f = b.and(&mut s, &[iff, a0]);
        assert_eq!(solve(s, &[a0, a1], f), Some(vec![true, true]));
        let (mut b, mut s, [a0, a1, _]) = setup();
        let iff = b.iff(&mut s, a0, a1);
        let g = b.and(&mut s, &[iff, a0, a1.negate()]);
        assert!(solve(s, &[a0, a1], g).is_none());
        // A negated input flips the shared gate's sign.
        let (mut b, mut s, [a0, a1, _]) = setup();
        let pos = b.iff(&mut s, a0, a1);
        assert_eq!(b.iff(&mut s, a0.negate(), a1), pos.negate());
        assert_eq!(b.iff(&mut s, a1.negate(), a0.negate()), pos);
    }

    #[test]
    fn constants() {
        let (mut b, mut s, [a0, ..]) = setup();
        let t = b.constant(&mut s, true);
        let f = t.negate();
        assert_eq!(b.constant(&mut s, false), f);
        assert_eq!(b.and(&mut s, &[t, a0]), a0);
        assert_eq!(b.and(&mut s, &[f, a0]), f);
        assert_eq!(b.or(&mut s, &[f, a0]), a0);
        assert_eq!(b.or(&mut s, &[t, a0]), t);
        assert_eq!(b.and(&mut s, &[]), t);
        assert_eq!(b.or(&mut s, &[]), f);
        assert_eq!(b.iff(&mut s, f, a0), a0.negate());
        assert_eq!(b.implies(&mut s, f, f), t);
        assert!(s
            .solve_with_assumptions(&[t], &Budget::unlimited())
            .unwrap()
            .is_sat());
        assert!(!s
            .solve_with_assumptions(&[f], &Budget::unlimited())
            .unwrap()
            .is_sat());
    }

    /// A formula over three atoms, for the exhaustive check.
    #[derive(Clone, Debug)]
    enum Expr {
        Atom(usize),
        Not(Box<Expr>),
        And(Box<Expr>, Box<Expr>),
        Or(Box<Expr>, Box<Expr>),
        Iff(Box<Expr>, Box<Expr>),
    }

    impl Expr {
        fn eval(&self, mask: u32) -> bool {
            match self {
                Expr::Atom(i) => mask & (1 << i) != 0,
                Expr::Not(a) => !a.eval(mask),
                Expr::And(a, b) => a.eval(mask) && b.eval(mask),
                Expr::Or(a, b) => a.eval(mask) || b.eval(mask),
                Expr::Iff(a, b) => a.eval(mask) == b.eval(mask),
            }
        }

        fn build(&self, b: &mut CnfBuilder, s: &mut Solver, atoms: &[Lit; 3]) -> Lit {
            match self {
                Expr::Atom(i) => atoms[*i],
                Expr::Not(a) => a.build(b, s, atoms).negate(),
                Expr::And(x, y) | Expr::Or(x, y) | Expr::Iff(x, y) => {
                    let (x, y) = (x.build(b, s, atoms), y.build(b, s, atoms));
                    match self {
                        Expr::And(..) => b.and(s, &[x, y]),
                        Expr::Or(..) => b.or(s, &[x, y]),
                        _ => b.iff(s, x, y),
                    }
                }
            }
        }
    }

    #[test]
    fn tseitin_equisatisfiable_exhaustive() {
        // For all formulas over 3 atoms from a small grammar, the gate
        // literal is satisfiable exactly when the formula is, and under
        // every atom valuation it takes the formula's value.
        let mut formulas: Vec<Expr> = (0..3).map(Expr::Atom).collect();
        for i in 0..3 {
            formulas.push(Expr::Not(Box::new(Expr::Atom(i))));
        }
        let level1 = formulas.clone();
        for x in &level1 {
            for y in &level1 {
                let (x, y) = (Box::new(x.clone()), Box::new(y.clone()));
                formulas.push(Expr::And(x.clone(), y.clone()));
                formulas.push(Expr::Or(x.clone(), y.clone()));
                formulas.push(Expr::Iff(x, y));
            }
        }
        // Depth three: constant and self-cancelling shapes.
        for x in level1.iter().take(3) {
            let x = Box::new(x.clone());
            let not_x = Box::new(Expr::Not(x.clone()));
            formulas.push(Expr::Or(x.clone(), not_x.clone()));
            formulas.push(Expr::Not(Box::new(Expr::And(x.clone(), not_x.clone()))));
            formulas.push(Expr::Iff(Box::new(Expr::Iff(x.clone(), not_x)), x));
        }
        for f in &formulas {
            let (mut b, mut s, atoms) = setup();
            let root = f.build(&mut b, &mut s, &atoms);
            let brute = (0u32..8).any(|mask| f.eval(mask));
            assert_eq!(
                s.solve_with_assumptions(&[root], &Budget::unlimited())
                    .unwrap()
                    .is_sat(),
                brute,
                "{f:?}"
            );
            for mask in 0u32..8 {
                let mut assumptions: Vec<Lit> =
                    (0..3).map(|i| Var(i).lit(mask & (1 << i) != 0)).collect();
                assumptions.push(root);
                let sat = s
                    .solve_with_assumptions(&assumptions, &Budget::unlimited())
                    .unwrap()
                    .is_sat();
                assert_eq!(sat, f.eval(mask), "{f:?} at {mask:03b}");
            }
            assert_eq!(solve(s, &atoms, root).is_some(), brute, "{f:?}");
        }
    }

    #[test]
    fn rollback_forgets_what_the_mark_did_not_see() {
        let (mut b, mut s, [a0, a1, a2]) = setup();
        let kept = b.and(&mut s, &[a0, a1]);
        let mark = b.mark(&s);
        let t = b.constant(&mut s, true);
        let later = b.and(&mut s, &[a1, a2]);
        let iff = b.iff(&mut s, kept, a2);
        // Asserted under an activation literal that is only assumed.
        let act = s.new_var().positive();
        s.add_clause(&[act.negate(), later]);
        s.add_clause(&[act.negate(), iff.negate()]);
        assert!(s
            .solve_with_assumptions(&[act], &Budget::unlimited())
            .unwrap()
            .is_sat());
        assert_eq!(
            s.solve_with_assumptions(&[act, a0], &Budget::unlimited())
                .unwrap(),
            SolveResult::Unsat
        );
        b.rollback(&mut s, mark);
        assert_eq!(s.num_vars() as u32, mark.vars());
        // The kept gate is still shared; the forgotten ones are made
        // afresh, on the variables they had, and `later` binds no more.
        assert_eq!(b.and(&mut s, &[a1, a0]), kept);
        assert_eq!(b.constant(&mut s, true), t);
        assert_eq!(b.and(&mut s, &[a2, a1]), later);
        assert!(s
            .solve_with_assumptions(&[a1.negate()], &Budget::unlimited())
            .unwrap()
            .is_sat());
        assert_eq!(
            s.solve_with_assumptions(&[kept, a0.negate()], &Budget::unlimited())
                .unwrap(),
            SolveResult::Unsat
        );
    }

    #[test]
    fn shared_subformulas_reuse_definitions() {
        let (mut b, mut s, [a0, a1, a2]) = setup();
        let shared = b.and(&mut s, &[a0, a1]);
        let n1 = s.num_vars();
        // Equal gates, whatever the input order or repetition, add nothing.
        assert_eq!(b.and(&mut s, &[a1, a0, a1]), shared);
        assert_eq!(b.or(&mut s, &[a0.negate(), a1.negate()]), shared.negate());
        assert_eq!(s.num_vars(), n1);
        let iff = b.iff(&mut s, a0, a2);
        let n2 = s.num_vars();
        assert_eq!(b.iff(&mut s, a2, a0), iff);
        assert_eq!(s.num_vars(), n2);
    }
}
