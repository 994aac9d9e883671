//! `jahob-smt`: Nelson–Oppen style cooperating decision procedures.
//!
//! The paper lists "the SMT-LIB interface to Nelson-Oppen style theorem
//! provers" among Jahob's reasoners (§3, citing Nelson & Oppen's
//! "Simplification by cooperating decision procedures"). This crate is that
//! component built from scratch: a lazy-SMT architecture where
//!
//! * the Boolean structure of a ground goal is handled by the CDCL solver
//!   from `jahob-sat`,
//! * each propositional model's literal set is checked by the **Nelson–Oppen
//!   combination** of two theory solvers — congruence closure for equality
//!   with uninterpreted functions (`jahob-euf`) and linear integer
//!   arithmetic (the Omega test from `jahob-presburger`) —
//! * mixed atoms are **purified** by introducing shared proxy variables,
//!   and the combination loop propagates equalities over the shared
//!   variables in both directions until fixpoint,
//! * theory conflicts become blocking clauses and the SAT solver moves on.
//!
//! Soundness direction: `smt_valid(φ) = ¬sat(¬φ)`, and every *unsat* verdict
//! is backed by sound theory reasoning; incompleteness (e.g. a missed
//! non-convex split) can only make the prover fail to prove, never prove a
//! falsehood. Since LIA over ℤ is non-convex, the combination additionally
//! performs a bounded case-split on shared-variable equalities when the
//! definite propagation reaches a fixpoint without a conflict.

mod purify;
mod theory;

use jahob_logic::{transform, BinOp, Form, Sort, UnOp};
use jahob_sat::{CnfBuilder, Lit, SolveResult, Solver, Var};
use jahob_util::budget::{Budget, Exhaustion};
use jahob_util::{FxHashMap, Symbol};
use std::fmt;

pub use theory::TheoryVerdict;

/// Why a goal is outside the ground EUF+LIA fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtError {
    pub message: String,
}

impl fmt::Display for SmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not in the ground EUF+LIA fragment: {}", self.message)
    }
}

impl std::error::Error for SmtError {}

fn err<T>(message: impl Into<String>) -> Result<T, SmtError> {
    Err(SmtError {
        message: message.into(),
    })
}

/// Why a budgeted SMT decision did not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmtFailure {
    /// The goal is outside the ground EUF+LIA fragment — route it elsewhere.
    Fragment(SmtError),
    /// The budget ran out mid-decision.
    Exhausted(Exhaustion),
}

impl fmt::Display for SmtFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtFailure::Fragment(e) => e.fmt(f),
            SmtFailure::Exhausted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SmtFailure {}

/// Decide validity of a ground (quantifier-free, set-free) goal in the
/// combination EUF + LIA. `Err` means "not my fragment".
pub fn smt_valid(form: &Form, sig: &FxHashMap<Symbol, Sort>) -> Result<bool, SmtError> {
    match smt_valid_budgeted(form, sig, &Budget::unlimited()) {
        Ok(v) => Ok(v),
        Err(SmtFailure::Fragment(e)) => Err(e),
        Err(SmtFailure::Exhausted(_)) => unreachable!("unlimited budget"),
    }
}

/// Budgeted [`smt_valid`]: fuel is charged per lazy-loop round, and the
/// underlying CDCL search runs against the same budget.
pub fn smt_valid_budgeted(
    form: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    budget: &Budget,
) -> Result<bool, SmtFailure> {
    let negated = Form::not(form.clone());
    Ok(!smt_sat_budgeted(&negated, sig, budget)?)
}

/// Is the formula inside the ground EUF+LIA fragment? (Cheap syntactic
/// probe used by the dispatcher's hypothesis filtering.)
pub fn in_fragment(form: &Form, sig: &FxHashMap<Symbol, Sort>) -> bool {
    let prepared = lift_ite(form);
    Skeleton::new(sig).lit(&prepared).is_ok()
}

/// Satisfiability of a ground EUF+LIA formula.
pub fn smt_sat(form: &Form, sig: &FxHashMap<Symbol, Sort>) -> Result<bool, SmtError> {
    match smt_sat_budgeted(form, sig, &Budget::unlimited()) {
        Ok(v) => Ok(v),
        Err(SmtFailure::Fragment(e)) => Err(e),
        Err(SmtFailure::Exhausted(_)) => unreachable!("unlimited budget"),
    }
}

/// Budgeted [`smt_sat`]: the lazy DPLL(T) loop and the CDCL searches inside
/// it both consume the caller's budget.
pub fn smt_sat_budgeted(
    form: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    budget: &Budget,
) -> Result<bool, SmtFailure> {
    let prepared = transform::simplify(&lift_ite(form));
    if let Form::BoolLit(b) = &prepared {
        return Ok(*b);
    }
    // Collect atoms and build the propositional skeleton.
    let mut skeleton = Skeleton::new(sig);
    let root = skeleton.lit(&prepared).map_err(SmtFailure::Fragment)?;
    let Skeleton {
        atoms, mut solver, ..
    } = skeleton;
    solver.add_clause(&[root]);

    // Lazy theory loop.
    const MAX_ROUNDS: usize = 400;
    for _ in 0..MAX_ROUNDS {
        budget.check().map_err(SmtFailure::Exhausted)?;
        match solver
            .solve_budgeted(budget)
            .map_err(SmtFailure::Exhausted)?
        {
            SolveResult::Unsat => return Ok(false),
            SolveResult::Sat(model) => {
                // The literal set this model commits to.
                let literals: Vec<(Form, bool)> = atoms
                    .iter()
                    .map(|(atom, var)| (atom.clone(), model[var.0 as usize]))
                    .collect();
                match theory::check(&literals, sig) {
                    TheoryVerdict::Consistent => return Ok(true),
                    TheoryVerdict::Conflict => {
                        // Block this total atom valuation. (Coarse but
                        // sound; the loop terminates because each blocking
                        // clause removes at least one total valuation.)
                        let clause: Vec<Lit> = atoms
                            .iter()
                            .map(|(_, var)| var.lit(!model[var.0 as usize]))
                            .collect();
                        solver.add_clause(&clause);
                    }
                }
            }
        }
    }
    // Pathological instance: give the sound answer for the valid-checking
    // use ("maybe sat" = cannot prove).
    Ok(true)
}

/// The propositional skeleton of a ground goal, built into a solver: one
/// variable per theory atom, gates for the boolean structure.
struct Skeleton<'a> {
    sig: &'a FxHashMap<Symbol, Sort>,
    /// Each theory atom with its variable, in first-seen order.
    atoms: Vec<(Form, Var)>,
    index: FxHashMap<Form, Var>,
    cnf: CnfBuilder,
    solver: Solver,
}

impl<'a> Skeleton<'a> {
    fn new(sig: &'a FxHashMap<Symbol, Sort>) -> Self {
        Skeleton {
            sig,
            atoms: Vec::new(),
            index: FxHashMap::default(),
            cnf: CnfBuilder::new(),
            solver: Solver::new(),
        }
    }

    fn atom(&mut self, form: &Form) -> Result<Lit, SmtError> {
        check_ground_term(form, self.sig)?;
        if let Some(&var) = self.index.get(form) {
            return Ok(var.positive());
        }
        let var = self.solver.new_var();
        self.atoms.push((form.clone(), var));
        self.index.insert(form.clone(), var);
        Ok(var.positive())
    }

    fn lits(&mut self, parts: &[Form]) -> Result<Vec<Lit>, SmtError> {
        parts.iter().map(|p| self.lit(p)).collect()
    }

    fn lit(&mut self, form: &Form) -> Result<Lit, SmtError> {
        match form {
            Form::BoolLit(b) => Ok(self.cnf.constant(&mut self.solver, *b)),
            Form::And(parts) => {
                let lits = self.lits(parts)?;
                Ok(self.cnf.and(&mut self.solver, &lits))
            }
            Form::Or(parts) => {
                let lits = self.lits(parts)?;
                Ok(self.cnf.or(&mut self.solver, &lits))
            }
            Form::Unop(UnOp::Not, inner) => Ok(self.lit(inner)?.negate()),
            Form::Binop(BinOp::Implies, lhs, rhs) => {
                let (a, b) = (self.lit(lhs)?, self.lit(rhs)?);
                Ok(self.cnf.implies(&mut self.solver, a, b))
            }
            Form::Binop(BinOp::Iff, lhs, rhs) => {
                let (a, b) = (self.lit(lhs)?, self.lit(rhs)?);
                Ok(self.cnf.iff(&mut self.solver, a, b))
            }
            // Theory atoms.
            Form::Binop(BinOp::Eq | BinOp::Le | BinOp::Lt, _, _) => self.atom(form),
            // A boolean variable or predicate application.
            Form::Var(_) | Form::App(_, _) => self.atom(form),
            other => err(format!("unsupported in ground goals: `{other}`")),
        }
    }
}

/// Reject non-ground / out-of-fragment terms early.
#[allow(clippy::only_used_in_recursion)] // `sig` kept for parity with the other checkers
fn check_ground_term(form: &Form, sig: &FxHashMap<Symbol, Sort>) -> Result<(), SmtError> {
    match form {
        Form::Var(_) | Form::IntLit(_) | Form::Null | Form::BoolLit(_) => Ok(()),
        Form::Unop(UnOp::Neg, a) => check_ground_term(a, sig),
        Form::Unop(UnOp::Not, a) => check_ground_term(a, sig),
        Form::Binop(BinOp::Add | BinOp::Sub | BinOp::Mul, a, b)
        | Form::Binop(BinOp::Eq | BinOp::Le | BinOp::Lt, a, b) => {
            check_ground_term(a, sig)?;
            check_ground_term(b, sig)
        }
        Form::App(head, args) => {
            match head.as_ref() {
                Form::Var(_) => {}
                other => return err(format!("higher-order head `{other}`")),
            }
            for a in args {
                check_ground_term(a, sig)?;
            }
            Ok(())
        }
        Form::Quant(_, _, _) => err("quantifier in ground goal"),
        Form::And(_) | Form::Or(_) => err("boolean structure inside a term"),
        Form::EmptySet | Form::FiniteSet(_) => err("set term (BAPA territory)"),
        Form::Binop(op, _, _) => err(format!("operator {op:?} (BAPA territory)")),
        Form::Unop(UnOp::Card, _) => err("card (BAPA territory)"),
        Form::Lambda(_, _) | Form::Compr(_, _, _) => err("binder in ground goal"),
        Form::Old(_) => err("old outside VC generation"),
        Form::Ite(_, _, _) => err("ite should have been lifted"),
        Form::Tree(_) => err("tree invariant (shape territory)"),
    }
}

/// Lift `Ite` nodes out of terms into the boolean structure:
/// `A[ite(c,t,e)]` becomes `(c ∧ A[t]) ∨ (¬c ∧ A[e])`.
pub fn lift_ite(form: &Form) -> Form {
    lifted(form).unwrap_or_else(|| form.clone())
}

/// [`lift_ite`] as a rewrite: `None` when no `ite` sits in atom position.
fn lifted(form: &Form) -> Option<Form> {
    /// The first `ite` inside an atom, in term order.
    fn find_ite(form: &Form) -> Option<&Form> {
        match form {
            Form::Ite(..) => Some(form),
            Form::Unop(_, a) | Form::Old(a) => find_ite(a),
            Form::Binop(_, a, b) => find_ite(a).or_else(|| find_ite(b)),
            Form::App(h, args) => find_ite(h).or_else(|| args.iter().find_map(find_ite)),
            Form::FiniteSet(elems) => elems.iter().find_map(find_ite),
            _ => None,
        }
    }
    /// `form` with every occurrence of `target` inside it replaced by
    /// `with`; `None` when there is none.
    fn replace_term(form: &Form, target: &Form, with: &Form) -> Option<Form> {
        if form == target {
            return Some(with.clone());
        }
        match form {
            Form::Unop(..)
            | Form::Old(_)
            | Form::Binop(..)
            | Form::App(..)
            | Form::FiniteSet(_)
            | Form::Ite(..) => form.map_children(|child| replace_term(child, target, with)),
            _ => None,
        }
    }

    match form {
        Form::And(_)
        | Form::Or(_)
        | Form::Binop(BinOp::Implies | BinOp::Iff, _, _)
        | Form::Quant(..) => form.map_children(lifted),
        Form::Unop(UnOp::Not, a) => Form::rebuild_not(a, lifted(a)),
        atom => {
            let ite = find_ite(atom)?;
            let Form::Ite(c, t, e) = ite else {
                unreachable!("find_ite returns an ite")
            };
            let branch = |with: &Form| {
                let replaced = replace_term(atom, ite, with).unwrap_or_else(|| atom.clone());
                lifted(&replaced).unwrap_or(replaced)
            };
            let c = lift_ite(c);
            Some(Form::or(vec![
                Form::and(vec![c.clone(), branch(t)]),
                Form::and(vec![Form::not(c), branch(e)]),
            ]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;
    use std::rc::Rc;

    fn sig() -> FxHashMap<Symbol, Sort> {
        [
            ("i", Sort::Int),
            ("j", Sort::Int),
            ("k", Sort::Int),
            ("x", Sort::Obj),
            ("y", Sort::Obj),
            ("z", Sort::Obj),
            ("f", Sort::field(Sort::Obj)),
            ("g", Sort::field(Sort::Int)),
            ("p", Sort::Fun(vec![Sort::Obj], Box::new(Sort::Bool))),
        ]
        .iter()
        .map(|(n, s)| (Symbol::intern(n), s.clone()))
        .collect()
    }

    fn valid(src: &str) -> bool {
        smt_valid(&form(src), &sig()).unwrap_or_else(|e| panic!("{src:?}: {e}"))
    }

    #[test]
    fn propositional_layer() {
        assert!(valid("b1 | ~b1"));
        assert!(valid("(b1 --> b2) & b1 --> b2"));
        assert!(!valid("b1 | b2"));
    }

    #[test]
    fn euf_congruence() {
        assert!(valid("x = y --> f x = f y"));
        assert!(valid("x = y & y = z --> f (f x) = f (f z)"));
        assert!(!valid("f x = f y --> x = y"));
        assert!(valid("f x ~= f y --> x ~= y"));
        assert!(valid("x = y --> (p x = p y)"));
    }

    #[test]
    fn classic_euf_theorem() {
        // f³(a)=a ∧ f⁵(a)=a → f(a)=a.
        assert!(valid(
            "f (f (f x)) = x & f (f (f (f (f x)))) = x --> f x = x"
        ));
        // Without the second hypothesis it does not follow.
        assert!(!valid("f (f (f x)) = x --> f x = x"));
    }

    #[test]
    fn lia_layer() {
        assert!(valid("i < j --> i + 1 <= j"));
        assert!(valid("i <= j & j <= i --> i = j"));
        assert!(!valid("i <= j --> i < j"));
        assert!(valid("2 * i ~= 2 * j + 1"));
    }

    #[test]
    fn combination_euf_lia() {
        // The classic Nelson-Oppen example shape: congruence after
        // arithmetic forces the argument values equal.
        assert!(valid("i <= j & j <= i --> g x + i = g x + j"));
        // f over an integer-valued proxy: i = j --> f-applied-to-equal obj
        // with arithmetic mixed in.
        assert!(valid("g x = i & g y = i --> g x = g y"));
        // Arithmetic consequence feeding EUF: i = j → h(i) = h(j) where h
        // is an integer-to-integer uninterpreted function.
        assert!(valid("i = j --> h1 i = h1 j"));
        // And the mixed classic: 1 <= i & i <= 2 & h2 1 = x & h2 2 = x
        //   --> h2 i = x  (requires the non-convex split i=1 ∨ i=2).
        assert!(valid("1 <= i & i <= 2 & h2 1 = x & h2 2 = x --> h2 i = x"));
    }

    #[test]
    fn disequalities_count() {
        // Three distinct objects cannot all map into two values... not
        // expressible without cardinality; instead: pairwise distinct
        // images force distinct arguments.
        assert!(valid(
            "f x ~= f y & f y ~= f z & f x ~= f z --> x ~= y & y ~= z"
        ));
    }

    #[test]
    fn null_is_just_a_constant() {
        assert!(valid("x = null & y = null --> x = y"));
        assert!(!valid("x ~= null --> x = y"));
    }

    #[test]
    fn ite_lifting() {
        let f = Form::eq(
            Form::Ite(Rc::new(form("b1")), Rc::new(form("i")), Rc::new(form("j"))),
            form("i"),
        );
        // b1 --> ite(b1,i,j) = i.
        let goal = Form::implies(form("b1"), f);
        assert!(smt_valid(&goal, &sig()).unwrap());
    }

    #[test]
    fn fragment_rejections() {
        let s = sig();
        assert!(smt_valid(&form("ALL q. q = x"), &s).is_err());
        assert!(smt_valid(&form("x : someset"), &s).is_err());
        assert!(smt_valid(&form("card c1 = 0"), &s).is_err());
    }

    #[test]
    fn budget_interrupts_lazy_loop() {
        let goal = form("f (f (f x)) = x & f (f (f (f (f x)))) = x --> f x = x");
        let starved = Budget::with_fuel(1);
        assert_eq!(
            smt_valid_budgeted(&goal, &sig(), &starved),
            Err(SmtFailure::Exhausted(Exhaustion::Fuel))
        );
        let roomy = Budget::with_fuel(10_000_000);
        assert_eq!(smt_valid_budgeted(&goal, &sig(), &roomy), Ok(true));
    }

    #[test]
    fn differential_vs_small_models() {
        // Whenever the SMT core claims validity of an obj/EUF goal, no
        // small model may refute it.
        use jahob_logic::model::enumerate_models;
        let s = sig();
        let goals = [
            "x = y --> f x = f y",
            "f x = f y --> x = y",
            "x = y & y = z --> x = z",
            "f x ~= f y --> x ~= y",
            "x ~= y --> f x ~= f y",
        ];
        let syms: Vec<(Symbol, Sort)> = [
            ("x", Sort::Obj),
            ("y", Sort::Obj),
            ("z", Sort::Obj),
            ("f", Sort::field(Sort::Obj)),
        ]
        .iter()
        .map(|(n, so)| (Symbol::intern(n), so.clone()))
        .collect();
        for src in goals {
            let f = form(src);
            let smt = smt_valid(&f, &s).unwrap();
            let small = enumerate_models(2, (0, 0), &syms, &mut |m| m.eval_bool(&f).unwrap());
            assert_eq!(smt, small, "{src}");
        }
    }
}
