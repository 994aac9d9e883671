//! `jahob-models`: a SAT-based bounded model finder — the Alloy substitute.
//!
//! The paper's related-work section points at the Alloy Analyzer \[34\] as the
//! finite-model-finding complement to verification ("bug finding can be
//! combined with verification in productive ways"). This crate implements
//! that component from scratch: a specification-logic formula is *grounded*
//! over a small universe of objects (`0` is `null`, `1..=n` proper) into
//! CNF, and the CDCL solver from `jahob-sat` searches for a model.
//!
//! Supported structure — chosen to cover Jahob's list obligations exactly:
//!
//! * object variables (one-hot encoded), fields (`obj => obj` as functional
//!   relations), object sets (characteristic bits), boolean variables,
//! * set algebra, membership, equality at every supported sort (function
//!   equality is pointwise over the universe),
//! * `fieldWrite` (update matrices), `rtrancl_pt` over arbitrary lambda
//!   edge formulas (transitive closure by iterated squaring — exact within
//!   the bound),
//! * `tree [f₁, …]` (indegree ≤ 1 plus closure-based acyclicity),
//! * quantifiers and comprehensions over `obj` (expanded).
//!
//! Integer arithmetic and cardinalities are *not* grounded — those goals
//! belong to `jahob-presburger`/`jahob-bapa`.
//!
//! Two uses, both through [`Session::bmc_valid`], which the pipeline runs
//! over universes `1..=bmc_bound` (3 by default), one search per size:
//!
//! * **Bug finding**: a counter-model at some size refutes the goal. A
//!   found model is checked against the reference evaluator
//!   (`jahob_logic::model`) before being reported, so reported bugs are
//!   always genuine.
//! * **Bounded proof**: no counter-model up to the bound. That is not
//!   validity, and the pipeline reports it as a bounded proof carrying the
//!   bound ([`BmcVerdict::ValidUpTo`]).
//!
//! The grounding is built straight into the solver through
//! `jahob_sat::CnfBuilder`: every subformula is one hash-consed literal, and
//! a term whose object the environment fixes (a quantifier, comprehension
//! or closure instance, or `null`) selects one row or entry instead of
//! building a disjunction over the universe.
//!
//! A [`Session`] keeps one grounder per universe size across the goals it
//! is given, the pieces of one method in the pipeline. A goal's hypotheses
//! (its implication chain, peeled with `Sequent::of`) are grounded once per
//! universe and shared with every later goal that assumes them. Its negated
//! conclusion is asserted under a fresh activation literal, with
//! value-precedence clauses that break the symmetry of the proper object
//! ids, and searched with that literal assumed; before the grounder's
//! next use, solver and grounder roll back to the mark taken after the
//! hypotheses. The answer is the one a fresh grounding gives: sessions
//! change how fast it comes, and which counter-model, never whether one
//! exists. [`Session`] and [`find_model`], a one-goal session, are the
//! search API; every search charges the caller's [`Budget`] and answers
//! [`Failure::Unsupported`] for a goal outside the boundable fragment.

use jahob_logic::model::{Key, Model, Value};
use jahob_logic::sequent;
use jahob_logic::{BinOp, Form, QKind, Sort, UnOp};
use jahob_sat::{CnfBuilder, CnfMark, Lit, SolveResult, Solver, Var};
use jahob_util::budget::{unsupported, Budget, Failure};
use jahob_util::{FxHashMap, FxHashSet, Symbol};
use std::collections::BTreeSet;
use std::rc::Rc;

/// What a symbol is, for encoding purposes.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Kind {
    Obj,
    ObjSet,
    Bool,
    Field,
    /// `obj => bool` predicate.
    ObjPred,
}

/// An object term's grounding.
enum Obj {
    /// An object the environment fixes: a binder instance, or `null`.
    Const(u32),
    /// One-hot indicator literals, one per object id.
    Bits(Vec<Lit>),
}

/// A `w × w` matrix of literals, indexed `[from][to]`.
type Matrix = Vec<Vec<Lit>>;

/// What a closure's edge matrix depends on: the lambda body with its two
/// binders renamed to reserved symbols, plus the values the environment
/// gives the body's other free variables.
type ClosureKey = (Form, Vec<(Symbol, u32)>);

/// The grounding context for one universe size: formulas are built
/// straight into `solver` through `cnf`, so every subformula is one
/// hash-consed literal.
struct Grounder {
    n: u32,
    /// The sort of every name a formula grounded here mentions, `None` for
    /// a name its signature lacks. A name keeps its sort: a goal that
    /// sorts one differently gets a fresh grounder ([`Grounder::adopt`]).
    sorts: FxHashMap<Symbol, Option<Sort>>,
    solver: Solver,
    cnf: CnfBuilder,
    /// Each declared entity's first solver variable, the rest of its
    /// `entity_width` following consecutively: one-hot bits for an
    /// object, membership bits for a set or predicate, one bit for a
    /// boolean, one-hot rows for a field.
    entities: FxHashMap<Symbol, u32>,
    /// Reflexive-transitive closure matrices, one per distinct edge
    /// relation.
    closures: FxHashMap<ClosureKey, Rc<Matrix>>,
    /// The literal of each hypothesis grounded here, by its number in the
    /// session.
    hyps: Vec<Option<Lit>>,
    /// The mark the last search took after its hypotheses. Its goal stays
    /// until the grounder is next used ([`Grounder::retract`]), so a
    /// grounder holds at most one goal, and the last one of a session is
    /// dropped with it, never rolled back.
    goal: Option<CnfMark>,
}

/// Number of object ids (including null).
fn width(n: u32) -> usize {
    n as usize + 1
}

/// The positive literals of variables `base..base + count`.
fn var_lits(base: u32, count: usize) -> Vec<Lit> {
    (base..base + count as u32)
        .map(|v| Var(v).positive())
        .collect()
}

impl Grounder {
    fn new(n: u32) -> Self {
        Grounder {
            n,
            sorts: FxHashMap::default(),
            solver: Solver::new(),
            cnf: CnfBuilder::new(),
            entities: FxHashMap::default(),
            closures: FxHashMap::default(),
            hyps: Vec::new(),
            goal: None,
        }
    }

    /// Take the sorts of `names`, the names a goal mentions; `false` when
    /// one differs from the sort an earlier goal gave it here. Groundings
    /// depend on the sorts of the names they mention and on nothing else
    /// in the signature, so while every name keeps its sort, each one made
    /// for an earlier goal is the one this goal would make.
    fn adopt(&mut self, names: &[(Symbol, Option<&Sort>)]) -> bool {
        for &(name, sort) in names {
            match self.sorts.get(&name) {
                Some(seen) if seen.as_ref() != sort => return false,
                Some(_) => {}
                None => {
                    self.sorts.insert(name, sort.cloned());
                }
            }
        }
        true
    }

    fn kind_of(&self, name: Symbol) -> Result<Kind, Failure> {
        match self.sorts.get(&name).and_then(Option::as_ref) {
            Some(Sort::Obj) => Ok(Kind::Obj),
            Some(Sort::Bool) => Ok(Kind::Bool),
            Some(Sort::Set(inner)) if **inner == Sort::Obj => Ok(Kind::ObjSet),
            Some(Sort::Fun(args, ret))
                if args.len() == 1 && args[0] == Sort::Obj && **ret == Sort::Obj =>
            {
                Ok(Kind::Field)
            }
            Some(Sort::Fun(args, ret))
                if args.len() == 1 && args[0] == Sort::Obj && **ret == Sort::Bool =>
            {
                Ok(Kind::ObjPred)
            }
            Some(other) => unsupported(format!("symbol `{name}` has unboundable sort {other}")),
            None => unsupported(format!("symbol `{name}` not in signature")),
        }
    }

    // ---- marks ----------------------------------------------------------------

    fn mark(&mut self) -> CnfMark {
        self.cnf.mark(&self.solver)
    }

    /// Return to `mark`, the latest mark: the solver and the gate builder
    /// forget what was made since, and so do the entity, closure and
    /// hypothesis tables, whose entries made since name forgotten
    /// variables.
    fn rollback(&mut self, mark: CnfMark) {
        self.cnf.rollback(&mut self.solver, mark);
        let vars = mark.vars();
        let kept = |l: &Lit| l.var().0 < vars;
        self.entities.retain(|_, base| *base < vars);
        self.closures
            .retain(|_, matrix| matrix.iter().flatten().all(kept));
        for lit in &mut self.hyps {
            *lit = lit.filter(kept);
        }
    }

    /// Roll the last search's goal back, if one stays.
    fn retract(&mut self) {
        if let Some(mark) = self.goal.take() {
            self.rollback(mark);
        }
    }

    /// The literal of hypothesis `hyp`, numbered `id` in the session,
    /// grounded on first use. One that does not ground leaves nothing
    /// behind.
    fn hypothesis(&mut self, id: usize, hyp: &Form) -> Result<Lit, Failure> {
        if let Some(&Some(lit)) = self.hyps.get(id) {
            return Ok(lit);
        }
        let mark = self.mark();
        match self.bool_lit(hyp, &FxHashMap::default()) {
            Ok(lit) => {
                if self.hyps.len() <= id {
                    self.hyps.resize(id + 1, None);
                }
                self.hyps[id] = Some(lit);
                Ok(lit)
            }
            Err(e) => {
                self.rollback(mark);
                Err(e)
            }
        }
    }

    // ---- gates ----------------------------------------------------------------

    fn constant(&mut self, value: bool) -> Lit {
        self.cnf.constant(&mut self.solver, value)
    }

    fn and(&mut self, lits: &[Lit]) -> Lit {
        self.cnf.and(&mut self.solver, lits)
    }

    fn or(&mut self, lits: &[Lit]) -> Lit {
        self.cnf.or(&mut self.solver, lits)
    }

    fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        self.cnf.iff(&mut self.solver, a, b)
    }

    fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.cnf.implies(&mut self.solver, a, b)
    }

    /// `if c then t else e`.
    fn ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        let then = self.and(&[c, t]);
        let otherwise = self.and(&[c.negate(), e]);
        self.or(&[then, otherwise])
    }

    /// The entry of `entries` at object `x`: the entry itself when `x` is
    /// fixed, else the disjunction over ids `i` of `x = i ∧ entries[i]`.
    fn select(&mut self, x: &Obj, entries: &[Lit]) -> Lit {
        match x {
            Obj::Const(i) => entries[*i as usize],
            Obj::Bits(bits) => {
                let cases: Vec<Lit> = bits
                    .iter()
                    .zip(entries)
                    .map(|(&b, &e)| self.and(&[b, e]))
                    .collect();
                self.or(&cases)
            }
        }
    }

    /// `x`'s indicator literals.
    fn bits(&mut self, x: Obj) -> Vec<Lit> {
        match x {
            Obj::Const(id) => (0..width(self.n) as u32)
                .map(|i| self.constant(i == id))
                .collect(),
            Obj::Bits(bits) => bits,
        }
    }

    // ---- entity encodings ---------------------------------------------------

    /// The number of solver variables entity `name` takes.
    fn entity_width(&self, name: Symbol) -> u32 {
        let w = width(self.n) as u32;
        match self.kind_of(name).expect("entities have boundable sorts") {
            Kind::Obj | Kind::ObjSet | Kind::ObjPred => w,
            Kind::Bool => 1,
            Kind::Field => w * w,
        }
    }

    /// The literals of entity `name`'s variables, allocated on first use;
    /// the flag tells whether they were.
    fn entity(&mut self, name: Symbol) -> (Vec<Lit>, bool) {
        let count = self.entity_width(name) as usize;
        let (base, new) = match self.entities.get(&name) {
            Some(&base) => (base, false),
            None => {
                let base = self.solver.num_vars() as u32;
                self.solver.reserve_vars(base as usize + count);
                self.entities.insert(name, base);
                (base, true)
            }
        };
        (var_lits(base, count), new)
    }

    /// Exactly one of `bits` is true.
    fn one_hot(&mut self, bits: &[Lit]) {
        self.solver.add_clause(bits);
        for (i, &a) in bits.iter().enumerate() {
            for &b in &bits[i + 1..] {
                self.solver.add_clause(&[a.negate(), b.negate()]);
            }
        }
    }

    /// An object variable's one-hot bits.
    fn obj_var_bits(&mut self, name: Symbol) -> Vec<Lit> {
        let (bits, new) = self.entity(name);
        if new {
            self.one_hot(&bits);
        }
        bits
    }

    /// Field matrix M[i][j] ⇔ f(i) = j, with functionality constraints.
    fn field_matrix(&mut self, name: Symbol) -> Matrix {
        let (bits, new) = self.entity(name);
        let rows: Matrix = bits.chunks(width(self.n)).map(<[Lit]>::to_vec).collect();
        if new {
            for row in &rows {
                self.one_hot(row);
            }
            // Fields map null to null (the Jahob convention the
            // reference evaluator also uses).
            self.solver.add_clause(&[rows[0][0]]);
        }
        rows
    }

    // ---- term encodings -----------------------------------------------------

    /// Encode an object term. `env` maps binders to concrete object ids.
    fn obj(&mut self, form: &Form, env: &FxHashMap<Symbol, u32>) -> Result<Obj, Failure> {
        match form {
            Form::Null => Ok(Obj::Const(0)),
            Form::Var(name) => {
                if let Some(&id) = env.get(name) {
                    return Ok(Obj::Const(id));
                }
                match self.kind_of(*name)? {
                    Kind::Obj => Ok(Obj::Bits(self.obj_var_bits(*name))),
                    other => unsupported(format!("`{name}` used as object but is {other:?}")),
                }
            }
            Form::App(head, args) => {
                // fun-term applied to an object argument. A flattened
                // `fieldWrite f a b x`: function part is the first three
                // arguments.
                let (matrix, arg_term) = if args.len() == 4
                    && matches!(head.as_ref(), Form::Var(h) if h.as_str() == jahob_logic::form::sym::FIELD_WRITE)
                {
                    let fun = Form::app(head.as_ref().clone(), args[..3].to_vec());
                    (self.fun_matrix_term(&fun, env)?, &args[3])
                } else if args.len() == 1 {
                    (self.fun_matrix_term(head, env)?, &args[0])
                } else {
                    return unsupported(format!("non-unary application `{form}`"));
                };
                let arg = self.obj(arg_term, env)?;
                Ok(Obj::Bits(match arg {
                    // A fixed argument reads its row.
                    Obj::Const(i) => matrix[i as usize].clone(),
                    arg => (0..width(self.n))
                        .map(|j| {
                            let column: Vec<Lit> = matrix.iter().map(|row| row[j]).collect();
                            self.select(&arg, &column)
                        })
                        .collect(),
                }))
            }
            Form::Ite(c, t, e) => {
                let cond = self.bool_lit(c, env)?;
                let tb = self.obj(t, env)?;
                let eb = self.obj(e, env)?;
                let (tb, eb) = (self.bits(tb), self.bits(eb));
                Ok(Obj::Bits(
                    tb.iter()
                        .zip(&eb)
                        .map(|(&t, &e)| self.ite(cond, t, e))
                        .collect(),
                ))
            }
            other => unsupported(format!("object term expected: `{other}`")),
        }
    }

    /// Encode a function-valued term (field or fieldWrite chain) as a
    /// transition matrix.
    fn fun_matrix_term(
        &mut self,
        form: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Matrix, Failure> {
        match form {
            Form::Var(name) => match self.kind_of(*name)? {
                Kind::Field => Ok(self.field_matrix(*name)),
                other => unsupported(format!("`{name}` used as field but is {other:?}")),
            },
            Form::App(head, args) => {
                // fieldWrite f at val — possibly nested.
                if let Form::Var(fw) = head.as_ref() {
                    if fw.as_str() == jahob_logic::form::sym::FIELD_WRITE && args.len() == 3 {
                        let mut out = self.fun_matrix_term(&args[0], env)?;
                        let at = self.obj(&args[1], env)?;
                        let val = self.obj(&args[2], env)?;
                        let val = self.bits(val);
                        match at {
                            // A write at a fixed cell replaces its row.
                            Obj::Const(i) => out[i as usize] = val,
                            // M'(i,j) = (at=i ∧ val=j) ∨ (at≠i ∧ M(i,j)).
                            Obj::Bits(at) => {
                                for (row, &at_i) in out.iter_mut().zip(&at) {
                                    for (m_ij, &val_j) in row.iter_mut().zip(&val) {
                                        *m_ij = self.ite(at_i, val_j, *m_ij);
                                    }
                                }
                            }
                        }
                        return Ok(out);
                    }
                }
                unsupported(format!("function-valued term expected: `{form}`"))
            }
            other => unsupported(format!("function-valued term expected: `{other}`")),
        }
    }

    /// Encode a set term as a membership vector.
    fn set_bits(&mut self, form: &Form, env: &FxHashMap<Symbol, u32>) -> Result<Vec<Lit>, Failure> {
        let w = width(self.n);
        match form {
            Form::EmptySet => Ok(vec![self.constant(false); w]),
            Form::Var(name) => match self.kind_of(*name)? {
                Kind::ObjSet => Ok(self.entity(*name).0),
                other => unsupported(format!("`{name}` used as set but is {other:?}")),
            },
            Form::FiniteSet(elems) => {
                let mut cases: Vec<Vec<Lit>> = vec![Vec::new(); w];
                for e in elems {
                    let bits = self.obj(e, env)?;
                    let bits = self.bits(bits);
                    for (case, b) in cases.iter_mut().zip(bits) {
                        case.push(b);
                    }
                }
                Ok(cases.iter().map(|c| self.or(c)).collect())
            }
            Form::Binop(op @ (BinOp::Union | BinOp::Inter | BinOp::Diff | BinOp::Sub), a, b) => {
                let av = self.set_bits(a, env)?;
                let bv = self.set_bits(b, env)?;
                Ok(av
                    .iter()
                    .zip(&bv)
                    .map(|(&x, &y)| match op {
                        BinOp::Union => self.or(&[x, y]),
                        BinOp::Inter => self.and(&[x, y]),
                        _ => self.and(&[x, y.negate()]),
                    })
                    .collect())
            }
            Form::Compr(x, _, body) => {
                let mut out = Vec::with_capacity(w);
                for i in 0..w as u32 {
                    let mut inner_env = env.clone();
                    inner_env.insert(*x, i);
                    out.push(self.bool_lit(body, &inner_env)?);
                }
                Ok(out)
            }
            other => unsupported(format!("set term expected: `{other}`")),
        }
    }

    fn bool_lits(
        &mut self,
        parts: &[Form],
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Vec<Lit>, Failure> {
        parts.iter().map(|p| self.bool_lit(p, env)).collect()
    }

    /// Encode a boolean formula.
    fn bool_lit(&mut self, form: &Form, env: &FxHashMap<Symbol, u32>) -> Result<Lit, Failure> {
        let w = width(self.n);
        match form {
            Form::BoolLit(b) => Ok(self.constant(*b)),
            Form::And(parts) => {
                let lits = self.bool_lits(parts, env)?;
                Ok(self.and(&lits))
            }
            Form::Or(parts) => {
                let lits = self.bool_lits(parts, env)?;
                Ok(self.or(&lits))
            }
            Form::Unop(UnOp::Not, inner) => Ok(self.bool_lit(inner, env)?.negate()),
            Form::Binop(BinOp::Implies, a, b) => {
                let (a, b) = (self.bool_lit(a, env)?, self.bool_lit(b, env)?);
                Ok(self.implies(a, b))
            }
            Form::Binop(BinOp::Iff, a, b) => {
                let (a, b) = (self.bool_lit(a, env)?, self.bool_lit(b, env)?);
                Ok(self.iff(a, b))
            }
            Form::Binop(BinOp::Elem, x, s) => {
                let xb = self.obj(x, env)?;
                let sb = self.set_bits(s, env)?;
                Ok(self.select(&xb, &sb))
            }
            Form::Binop(BinOp::Subseteq, a, b) | Form::Binop(BinOp::Le, a, b) => {
                let av = self.set_bits(a, env)?;
                let bv = self.set_bits(b, env)?;
                let parts: Vec<Lit> = av
                    .iter()
                    .zip(&bv)
                    .map(|(&x, &y)| self.implies(x, y))
                    .collect();
                Ok(self.and(&parts))
            }
            Form::Binop(BinOp::Eq, a, b) => self.equality(a, b, env),
            Form::Quant(kind, binders, body) => {
                // Expand object quantifiers.
                let mut expanded = vec![env.clone()];
                for (name, sort) in binders {
                    if !matches!(sort, Sort::Obj | Sort::Var(_)) {
                        return unsupported(format!("quantifier over non-obj binder `{name}`"));
                    }
                    let mut next = Vec::with_capacity(expanded.len() * w);
                    for e in &expanded {
                        for i in 0..w as u32 {
                            let mut e2 = e.clone();
                            e2.insert(*name, i);
                            next.push(e2);
                        }
                    }
                    expanded = next;
                }
                let mut parts = Vec::with_capacity(expanded.len());
                for e in &expanded {
                    parts.push(self.bool_lit(body, e)?);
                }
                Ok(match kind {
                    QKind::All => self.and(&parts),
                    QKind::Ex => self.or(&parts),
                })
            }
            Form::Tree(fields) => self.tree_constraint(fields, env),
            Form::App(head, args) => {
                // rtrancl_pt, predicates.
                if let Form::Var(name) = head.as_ref() {
                    if name.as_str() == jahob_logic::form::sym::RTRANCL && args.len() == 3 {
                        return self.rtrancl(&args[0], &args[1], &args[2], env);
                    }
                    if args.len() == 1 {
                        if let Ok(Kind::ObjPred) = self.kind_of(*name) {
                            let bits = self.entity(*name).0;
                            let arg = self.obj(&args[0], env)?;
                            return Ok(self.select(&arg, &bits));
                        }
                    }
                }
                unsupported(format!("unsupported atom `{form}`"))
            }
            Form::Var(name) => match self.kind_of(*name)? {
                Kind::Bool => Ok(self.entity(*name).0[0]),
                other => unsupported(format!("`{name}` used as boolean but is {other:?}")),
            },
            other => unsupported(format!("unsupported formula `{other}`")),
        }
    }

    fn equality(
        &mut self,
        a: &Form,
        b: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Lit, Failure> {
        // Try object equality first, then set, then function, then bool.
        if let (Ok(ab), Ok(bb)) = (self.obj_try(a, env), self.obj_try(b, env)) {
            return Ok(match (ab, bb) {
                (Obj::Const(i), Obj::Const(j)) => self.constant(i == j),
                (Obj::Bits(bits), other) | (other, Obj::Bits(bits)) => self.select(&other, &bits),
            });
        }
        if let (Ok(av), Ok(bv)) = (self.set_bits_try(a, env), self.set_bits_try(b, env)) {
            let parts: Vec<Lit> = av.iter().zip(&bv).map(|(&x, &y)| self.iff(x, y)).collect();
            return Ok(self.and(&parts));
        }
        if let (Ok(am), Ok(bm)) = (self.fun_matrix_try(a, env), self.fun_matrix_try(b, env)) {
            let parts: Vec<Lit> = am
                .iter()
                .flatten()
                .zip(bm.iter().flatten())
                .map(|(&x, &y)| self.iff(x, y))
                .collect();
            return Ok(self.and(&parts));
        }
        // Boolean equality.
        let ap = self.bool_lit(a, env)?;
        let bp = self.bool_lit(b, env)?;
        Ok(self.iff(ap, bp))
    }

    fn obj_try(&mut self, f: &Form, env: &FxHashMap<Symbol, u32>) -> Result<Obj, Failure> {
        // Cheap syntactic pre-check to avoid committing variable kinds
        // incorrectly.
        match f {
            Form::Null | Form::Ite(_, _, _) => self.obj(f, env),
            Form::Var(name) => {
                if env.contains_key(name) || self.kind_of(*name)? == Kind::Obj {
                    self.obj(f, env)
                } else {
                    unsupported("not an object")
                }
            }
            Form::App(head, args) if args.len() == 1 => {
                // Applications denote objects when the head is a field/
                // fieldWrite chain.
                match head.as_ref() {
                    Form::Var(h)
                        if self.kind_of(*h) == Ok(Kind::Field)
                            || h.as_str() == jahob_logic::form::sym::FIELD_WRITE =>
                    {
                        self.obj(f, env)
                    }
                    _ => unsupported("not an object application"),
                }
            }
            Form::App(head, args) if args.len() == 4 => {
                // Flattened fieldWrite application: fieldWrite f a b x.
                match head.as_ref() {
                    Form::Var(h) if h.as_str() == jahob_logic::form::sym::FIELD_WRITE => {
                        let fun = Form::app(Form::Var(*h), args[..3].to_vec());
                        let rebuilt = Form::App(Rc::new(fun), vec![args[3].clone()]);
                        self.obj(&rebuilt, env)
                    }
                    _ => unsupported("not an object application"),
                }
            }
            _ => unsupported("not an object term"),
        }
    }

    fn set_bits_try(
        &mut self,
        f: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Vec<Lit>, Failure> {
        match f {
            Form::EmptySet
            | Form::FiniteSet(_)
            | Form::Compr(_, _, _)
            | Form::Binop(BinOp::Union | BinOp::Inter | BinOp::Diff, _, _) => self.set_bits(f, env),
            Form::Var(name) if self.kind_of(*name) == Ok(Kind::ObjSet) => self.set_bits(f, env),
            _ => unsupported("not a set term"),
        }
    }

    fn fun_matrix_try(
        &mut self,
        f: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Matrix, Failure> {
        match f {
            Form::Var(name) if self.kind_of(*name) == Ok(Kind::Field) => {
                self.fun_matrix_term(f, env)
            }
            Form::App(head, args) if args.len() == 3 => match head.as_ref() {
                Form::Var(h) if h.as_str() == jahob_logic::form::sym::FIELD_WRITE => {
                    self.fun_matrix_term(f, env)
                }
                _ => unsupported("not a function term"),
            },
            _ => unsupported("not a function term"),
        }
    }

    /// Reachability along a lambda edge: `from` and `to` picked out of the
    /// edge relation's closure matrix — one entry, row or column when the
    /// environment fixes an endpoint.
    fn rtrancl(
        &mut self,
        lambda: &Form,
        from: &Form,
        to: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Lit, Failure> {
        let Form::Lambda(binders, body) = lambda else {
            return unsupported("rtrancl_pt needs a lambda edge");
        };
        if binders.len() != 2 {
            return unsupported("rtrancl_pt lambda must be binary");
        }
        let r = self.closure(binders[0].0, binders[1].0, body, env)?;
        let fb = self.obj(from, env)?;
        let tb = self.obj(to, env)?;
        Ok(match (fb, tb) {
            (Obj::Const(i), tb) => self.select(&tb, &r[i as usize]),
            (fb, Obj::Const(j)) => {
                let column: Vec<Lit> = r.iter().map(|row| row[j as usize]).collect();
                self.select(&fb, &column)
            }
            (Obj::Bits(fb), Obj::Bits(tb)) => {
                let mut cases = Vec::with_capacity(fb.len() * tb.len());
                for (&f_i, row) in fb.iter().zip(r.iter()) {
                    for (&t_j, &r_ij) in tb.iter().zip(row) {
                        cases.push(self.and(&[f_i, t_j, r_ij]));
                    }
                }
                self.or(&cases)
            }
        })
    }

    /// Reflexive-transitive closure of the edge relation `% x y. body`
    /// under `env`: the edge matrix, then squaring. Built once per distinct
    /// edge relation (see [`ClosureKey`]).
    fn closure(
        &mut self,
        x: Symbol,
        y: Symbol,
        body: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Rc<Matrix>, Failure> {
        let key = closure_key(x, y, body, env);
        if let Some(r) = self.closures.get(&key) {
            return Ok(Rc::clone(r));
        }
        let w = width(self.n) as u32;
        let mut r: Matrix = Vec::with_capacity(w as usize);
        for i in 0..w {
            let mut row = Vec::with_capacity(w as usize);
            for j in 0..w {
                let mut inner_env = env.clone();
                inner_env.insert(x, i);
                inner_env.insert(y, j);
                // Reflexive: the diagonal is true whatever the edge.
                row.push(if i == j {
                    self.constant(true)
                } else {
                    self.bool_lit(body, &inner_env)?
                });
            }
            r.push(row);
        }
        let r = Rc::new(self.squared(r));
        self.closures.insert(key, Rc::clone(&r));
        Ok(r)
    }

    /// ⌈log₂ w⌉ rounds of `r := r ∨ r·r`: the result relates every pair
    /// joined by an `r`-path of length ≤ w.
    fn squared(&mut self, mut r: Matrix) -> Matrix {
        let w = r.len();
        let rounds = usize::BITS - (w.max(2) - 1).leading_zeros();
        for _ in 0..rounds {
            let mut next = Vec::with_capacity(w);
            for r_i in &r {
                let mut row = Vec::with_capacity(w);
                for j in 0..w {
                    let mut cases = vec![r_i[j]];
                    for (&r_im, r_m) in r_i.iter().zip(&r) {
                        cases.push(self.and(&[r_im, r_m[j]]));
                    }
                    row.push(self.or(&cases));
                }
                next.push(row);
            }
            r = next;
        }
        r
    }

    /// `tree [f₁, …]`: the union graph over non-null nodes has indegree
    /// ≤ 1 and is acyclic. Field terms may be updated fields (`fieldWrite`
    /// chains).
    #[allow(clippy::needless_range_loop)] // adjacency-matrix indexing
    fn tree_constraint(
        &mut self,
        fields: &[Form],
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Lit, Failure> {
        let w = width(self.n);
        let matrices = fields
            .iter()
            .map(|f| self.fun_matrix_term(f, env))
            .collect::<Result<Vec<Matrix>, _>>()?;
        // Edge (i,j) present (i ≥ 1, j ≥ 1) iff some field maps i to j.
        let mut edge = vec![vec![self.constant(false); w]; w];
        for i in 1..w {
            for j in 1..w {
                let cases: Vec<Lit> = matrices.iter().map(|m| m[i][j]).collect();
                edge[i][j] = self.or(&cases);
            }
        }
        let mut parts = Vec::new();
        // Indegree ≤ 1: for each j, at most one incoming (i, field) pair —
        // counting multiplicity across fields requires per-field edges:
        let mut incoming: Vec<Vec<Lit>> = vec![Vec::new(); w];
        for m in &matrices {
            for i in 1..w {
                for (j, inc) in incoming.iter_mut().enumerate().skip(1) {
                    inc.push(m[i][j]);
                }
            }
        }
        for inc in incoming.iter().skip(1) {
            for a in 0..inc.len() {
                for b in (a + 1)..inc.len() {
                    parts.push(self.or(&[inc[a].negate(), inc[b].negate()]));
                }
            }
        }
        // Acyclicity, exactly (sound in both polarities): compute the
        // strict-path closure of the edge relation and require no
        // self-path. An existential witness encoding (ranks) would be
        // unsound under negation.
        let r = self.squared(edge);
        for (i, row) in r.iter().enumerate() {
            parts.push(row[i].negate());
        }
        Ok(self.and(&parts))
    }
}

/// The [`ClosureKey`] of edge relation `% x y. body` under `env`. Free
/// variables `env` does not bind are signature symbols, which are fixed
/// within one grounder. The reserved names cannot occur in any input.
/// `Form::subst` rebuilds the body through the smart constructors, which
/// keep its meaning, so bodies it identifies denote the same relation.
fn closure_key(x: Symbol, y: Symbol, body: &Form, env: &FxHashMap<Symbol, u32>) -> ClosureKey {
    // Inserted in binder order, so `% a a. e` renames `a` to the second.
    let mut renaming = FxHashMap::default();
    renaming.insert(x, Form::Var(Symbol::intern("rtrancl%from")));
    renaming.insert(y, Form::Var(Symbol::intern("rtrancl%to")));
    let body = body.subst(&renaming);
    let mut values: Vec<(Symbol, u32)> = body
        .free_vars()
        .into_iter()
        .filter_map(|s| env.get(&s).map(|&v| (s, v)))
        .collect();
    values.sort_unstable();
    (body, values)
}

/// Every name `form` mentions, free or bound (each one a grounder may look
/// up), with its sort in `sig`.
fn names<'a>(form: &Form, sig: &'a FxHashMap<Symbol, Sort>) -> Vec<(Symbol, Option<&'a Sort>)> {
    fn walk(form: &Form, out: &mut FxHashSet<Symbol>) {
        match form {
            Form::Var(s) | Form::Compr(s, _, _) => {
                out.insert(*s);
            }
            Form::Quant(_, binders, _) | Form::Lambda(binders, _) => {
                out.extend(binders.iter().map(|(s, _)| *s));
            }
            _ => {}
        }
        form.children().for_each(|child| walk(child, out));
    }
    let mut seen = FxHashSet::default();
    walk(form, &mut seen);
    seen.into_iter().map(|s| (s, sig.get(&s))).collect()
}

/// One search: hypotheses with their numbers in the session, the formula
/// that must hold with them, and the whole that a found model is checked
/// against.
struct Query<'a> {
    hyps: Vec<(usize, &'a Form)>,
    target: Form,
    whole: Form,
    names: Vec<(Symbol, Option<&'a Sort>)>,
}

impl<'a> Query<'a> {
    /// A search for a model of `form`.
    fn model_of(form: &Form, sig: &'a FxHashMap<Symbol, Sort>) -> Query<'a> {
        Query {
            hyps: Vec::new(),
            target: form.clone(),
            whole: form.clone(),
            names: names(form, sig),
        }
    }
}

impl Grounder {
    /// Search for a model of `query`: ground its hypotheses (each once per
    /// grounder), take a mark, and assert the rest under an activation
    /// literal and solve with it assumed. The grounder keeps the
    /// hypotheses; the goal goes at the next [`Grounder::retract`].
    fn search(&mut self, query: &Query, budget: &Budget) -> Result<Option<Model>, Failure> {
        let hyps = query
            .hyps
            .iter()
            .map(|&(id, h)| self.hypothesis(id, h))
            .collect::<Result<Vec<Lit>, _>>()?;
        self.goal = Some(self.mark());
        self.solve(query, &hyps, budget)
    }

    fn solve(
        &mut self,
        query: &Query,
        hyps: &[Lit],
        budget: &Budget,
    ) -> Result<Option<Model>, Failure> {
        let target = self.bool_lit(&query.target, &FxHashMap::default())?;
        let act = self.solver.new_var().positive();
        for &lit in hyps.iter().chain([&target]) {
            self.solver.add_clause(&[act.negate(), lit]);
        }
        // The query's entities, in entity order.
        let mut entities: Vec<(Symbol, u32)> = query
            .names
            .iter()
            .filter_map(|&(name, _)| self.entities.get(&name).map(|&base| (name, base)))
            .collect();
        entities.sort_unstable_by_key(|&(_, base)| base);
        self.break_symmetry(act, &entities);
        // The encoding is designed to be exact, and the test suite checks it
        // on every supported construct — but any residual
        // over-approximation is caught here: a SAT model that fails the
        // reference evaluator is *blocked* and the search continues, so
        // answers stay sound in both directions (a returned model is
        // genuine; `None` still means the encoding — a superset of the real
        // models — is empty).
        const MAX_SPURIOUS: usize = 64;
        for _ in 0..=MAX_SPURIOUS {
            budget.check()?;
            match self.solver.solve_with_assumptions(&[act], budget)? {
                SolveResult::Unsat => return Ok(None),
                SolveResult::Sat(model) => {
                    let decoded = self.decode(&model, &entities);
                    match decoded.eval_bool(&query.whole) {
                        Ok(true) => return Ok(Some(decoded)),
                        Ok(false) => {
                            // Spurious: block this assignment of the query's
                            // entities and retry.
                            let mut clause = vec![act.negate()];
                            for &(name, base) in &entities {
                                clause.extend(
                                    (base..base + self.entity_width(name))
                                        .map(|v| Var(v).lit(!model[v as usize])),
                                );
                            }
                            self.solver.add_clause(&clause);
                        }
                        Err(e) => {
                            return unsupported(format!(
                                "internal: decoded model not evaluable: {e}"
                            ))
                        }
                    }
                }
            }
        }
        unsupported("internal: too many spurious models (encoding mismatch)")
    }

    /// Value precedence under `act` over the object constants among
    /// `entities`, in entity order: the k-th may take a proper id j ≥ 2
    /// only if an earlier one takes j − 1. Proper ids are interchangeable,
    /// in this encoding and in the reference evaluator alike, so every
    /// model has a representative that meets this: the one that numbers
    /// the proper ids in the order the constants first take them.
    fn break_symmetry(&mut self, act: Lit, entities: &[(Symbol, u32)]) {
        let constants: Vec<u32> = entities
            .iter()
            .filter(|&&(name, _)| self.kind_of(name) == Ok(Kind::Obj))
            .map(|&(_, base)| base)
            .collect();
        for (k, &base) in constants.iter().enumerate() {
            for j in 2..=self.n {
                let mut clause = vec![act.negate(), Var(base + j).negative()];
                clause.extend(constants[..k].iter().map(|&b| Var(b + j - 1).positive()));
                self.solver.add_clause(&clause);
            }
        }
    }

    /// The model a solver assignment gives `entities`.
    fn decode(&self, model: &[bool], entities: &[(Symbol, u32)]) -> Model {
        let w = width(self.n) as u32;
        let mut out = Model::new(self.n);
        let bit = |v: u32| model[v as usize];
        for &(name, base) in entities {
            match self.kind_of(name).expect("entities have boundable sorts") {
                Kind::Obj => {
                    let id = (0..w).find(|i| bit(base + i)).unwrap_or(0);
                    out.interp.insert(name, Value::Obj(id));
                }
                Kind::ObjSet => {
                    let set: BTreeSet<Key> =
                        (0..w).filter(|i| bit(base + i)).map(Key::Obj).collect();
                    out.interp.insert(name, Value::Set(set));
                }
                Kind::Bool => {
                    out.interp.insert(name, Value::Bool(bit(base)));
                }
                Kind::Field => {
                    let table: Vec<u32> = (0..w)
                        .map(|i| (0..w).find(|j| bit(base + i * w + j)).unwrap_or(0))
                        .collect();
                    out.set_obj_field(name.as_str(), &table);
                }
                Kind::ObjPred => {
                    // obj => bool predicate as a table.
                    let map = (0..w)
                        .map(|i| (vec![Key::Obj(i)], Value::Bool(bit(base + i))))
                        .collect();
                    out.interp.insert(
                        name,
                        Value::Fun(Rc::new(jahob_logic::model::FunV::Table {
                            arity: 1,
                            map,
                            default: Box::new(Value::Bool(false)),
                        })),
                    );
                }
            }
        }
        out
    }
}

/// A model-finder session: one grounder per universe size, kept across the
/// goals searched through it, so the hypotheses those goals share are
/// grounded once per universe (see the crate doc). The pipeline keeps one
/// per method and gives it the method's pieces in dispatch order, on one
/// thread.
///
/// Every answer is the one a fresh session gives: each search asserts only
/// its own goal, and what the session keeps is gate definitions, which
/// constrain nothing. Budgets are metered per search, so fuel, like the
/// counter-model found, may depend on what came before.
#[derive(Default)]
pub struct Session {
    /// Each hypothesis met, with its number: the grounders keep their
    /// literals by number, so a goal's hypotheses are looked up once, not
    /// once per universe.
    hyps: FxHashMap<Form, usize>,
    /// The grounder of universe `n` at index `n`, made on first use.
    grounders: Vec<Grounder>,
    /// Set while a search runs. Still set when the next one starts, the
    /// last one unwound mid-search, and every grounder is dropped.
    busy: bool,
}

impl Session {
    pub fn new() -> Session {
        Session::default()
    }

    /// Bounded validity: one counter-model search per universe
    /// `1..=bound`, each against the caller's budget, so a deadline can
    /// stop the climb.
    pub fn bmc_valid(
        &mut self,
        goal: &Form,
        sig: &FxHashMap<Symbol, Sort>,
        bound: u32,
        budget: &Budget,
    ) -> Result<BmcVerdict, Failure> {
        let query = self.refuting(goal, sig);
        for universe in 1..=bound {
            if let Some(model) = self.search(&query, universe, budget)? {
                return Ok(BmcVerdict::CounterModel(Box::new(model)));
            }
        }
        Ok(BmcVerdict::ValidUpTo(bound))
    }

    /// Search for a counter-model of `goal` with `universe` proper objects.
    pub fn refute(
        &mut self,
        goal: &Form,
        sig: &FxHashMap<Symbol, Sort>,
        universe: u32,
        budget: &Budget,
    ) -> Result<Option<Model>, Failure> {
        let query = self.refuting(goal, sig);
        self.search(&query, universe, budget)
    }

    /// Does hypothesis `hyp` ground under `sig`? One that does stays
    /// grounded at universe 1 for the goals that assume it; one that does
    /// not leaves nothing behind.
    pub fn grounds(&mut self, hyp: &Form, sig: &FxHashMap<Symbol, Sort>) -> bool {
        let id = self.number(hyp);
        let grounded = self
            .grounder(1, &names(hyp, sig))
            .hypothesis(id, hyp)
            .is_ok();
        self.busy = false;
        grounded
    }

    /// The number of hypothesis `hyp`, given on first meeting.
    fn number(&mut self, hyp: &Form) -> usize {
        if let Some(&id) = self.hyps.get(hyp) {
            return id;
        }
        let id = self.hyps.len();
        self.hyps.insert(hyp.clone(), id);
        id
    }

    /// A search for a counter-model of `goal`: the hypotheses of its
    /// implication chain, peeled as `Sequent::of` peels it, and its
    /// negated conclusion.
    fn refuting<'a>(&mut self, goal: &'a Form, sig: &'a FxHashMap<Symbol, Sort>) -> Query<'a> {
        let (hyps, conclusion) = sequent::peel(goal);
        Query {
            hyps: hyps.into_iter().map(|h| (self.number(h), h)).collect(),
            target: Form::not(conclusion.clone()),
            whole: Form::not(goal.clone()),
            names: names(goal, sig),
        }
    }

    fn search(
        &mut self,
        query: &Query,
        universe: u32,
        budget: &Budget,
    ) -> Result<Option<Model>, Failure> {
        let found = self.grounder(universe, &query.names).search(query, budget);
        self.busy = false;
        found
    }

    /// The grounder of `universe`, its last goal retracted, given the
    /// sorts of `names`: fresh when it is new, when a name's sort differs
    /// from the one it knows, or when the last search unwound.
    fn grounder(&mut self, universe: u32, names: &[(Symbol, Option<&Sort>)]) -> &mut Grounder {
        if std::mem::replace(&mut self.busy, true) {
            self.grounders.clear();
        }
        while self.grounders.len() <= universe as usize {
            self.grounders
                .push(Grounder::new(self.grounders.len() as u32));
        }
        let grounder = &mut self.grounders[universe as usize];
        if grounder.adopt(names) {
            grounder.retract();
        } else {
            *grounder = Grounder::new(universe);
            grounder.adopt(names);
        }
        grounder
    }
}

/// Search for a model of `form` with `universe` proper objects, a
/// one-goal session: the SAT searches and the spurious-model loop consume
/// the caller's budget. A found model is re-checked with the reference
/// evaluator before being returned.
pub fn find_model(
    form: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    universe: u32,
    budget: &Budget,
) -> Result<Option<Model>, Failure> {
    Session::new().search(&Query::model_of(form, sig), universe, budget)
}

/// Verdict of the bounded-validity check.
#[derive(Clone, Debug)]
pub enum BmcVerdict {
    /// No counter-model in any universe up to the bound. This is bounded
    /// validity only; the bound is recorded so reports stay honest.
    ValidUpTo(u32),
    /// A genuine counter-model (verified by the reference evaluator).
    CounterModel(Box<Model>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;
    use jahob_logic::model::enumerate_models;
    use jahob_util::budget::Exhaustion;
    use proptest::prelude::*;

    fn sig() -> FxHashMap<Symbol, Sort> {
        [
            ("x", Sort::Obj),
            ("y", Sort::Obj),
            ("z", Sort::Obj),
            ("first", Sort::Obj),
            ("S", Sort::objset()),
            ("T", Sort::objset()),
            ("b", Sort::Bool),
            ("next", Sort::field(Sort::Obj)),
            ("data", Sort::field(Sort::Obj)),
            ("p", Sort::Fun(vec![Sort::Obj], Box::new(Sort::Bool))),
        ]
        .iter()
        .map(|(n, s)| (Symbol::intern(n), s.clone()))
        .collect()
    }

    /// Ground `form` at `universe` into a fresh grounder and assert it: the
    /// raw encoding, with no symmetry breaking.
    fn encode(
        form: &Form,
        sig: &FxHashMap<Symbol, Sort>,
        universe: u32,
    ) -> Result<Grounder, Failure> {
        let mut grounder = Grounder::new(universe);
        grounder.adopt(&names(form, sig));
        let root = grounder.bool_lit(form, &FxHashMap::default())?;
        grounder.solver.add_clause(&[root]);
        Ok(grounder)
    }

    /// Does `src` have a model at universe `n`? The raw encoding, with no
    /// evaluator re-check, no spurious-model blocking and no value
    /// precedence, must agree.
    fn has_model(src: &str, n: u32) -> bool {
        let s = sig();
        let found = find_model(&form(src), &s, n, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{src:?}: {e}"))
            .is_some();
        let raw = encode(&form(src), &s, n)
            .unwrap()
            .solver
            .solve(&Budget::unlimited())
            .unwrap()
            .is_sat();
        assert_eq!(raw, found, "{src:?}: the encoding is not exact");
        found
    }

    #[test]
    fn budget_stops_bounded_search() {
        let goal = form("x ~= null & y ~= null & z ~= null & x ~= y & y ~= z & x ~= z");
        let starved = Budget::with_fuel(1);
        assert_eq!(
            find_model(&goal, &sig(), 3, &starved)
                .map(|m| m.is_some())
                .map_err(|e| matches!(e, Failure::Exhausted(Exhaustion::Fuel))),
            Err(true)
        );
        let roomy = Budget::with_fuel(50_000_000);
        assert_eq!(
            find_model(&goal, &sig(), 3, &roomy).map(|m| m.is_some()),
            Ok(true)
        );
    }

    #[test]
    fn object_equalities() {
        assert!(has_model("x = y", 2));
        assert!(has_model("x ~= y", 2));
        assert!(!has_model("x ~= x", 2));
        assert!(has_model("x = null", 1));
        assert!(has_model("x ~= null & y ~= null & x ~= y", 2));
        // Three distinct non-null objects need universe ≥ 3.
        assert!(!has_model(
            "x ~= null & y ~= null & z ~= null & x ~= y & y ~= z & x ~= z",
            2
        ));
        assert!(has_model(
            "x ~= null & y ~= null & z ~= null & x ~= y & y ~= z & x ~= z",
            3
        ));
    }

    #[test]
    fn sets_and_membership() {
        assert!(has_model("x : S & x ~: T", 2));
        assert!(!has_model("x : S & S = {}", 2));
        assert!(has_model("S Un T = {x} & x ~= null", 2));
        assert!(!has_model("x : S Int T & x ~: S", 3));
    }

    #[test]
    fn field_reasoning() {
        assert!(has_model("x..next = y & y..next = x & x ~= y", 2));
        assert!(!has_model("x..next = y & x..next = z & y ~= z", 3));
        // fieldWrite semantics.
        assert!(!has_model("fieldWrite next x y x ~= y", 3));
        assert!(has_model("x ~= z & fieldWrite next x y z = z..next", 3));
    }

    #[test]
    fn quantifiers_expand() {
        assert!(has_model("ALL o. o : S", 2));
        assert!(!has_model("ALL o. o : S & o ~: S", 1));
        assert!(has_model("EX o. o ~= null & o : S", 1));
        assert!(!has_model("(EX o. o : S) & S = {}", 2));
    }

    #[test]
    fn comprehensions() {
        // S = {o. o ~= null} forces S to be all proper objects.
        assert!(has_model("S = {o. o ~= null} & x ~= null & x : S", 2));
        assert!(!has_model("S = {o. o ~= null} & x ~= null & x ~: S", 2));
    }

    #[test]
    fn rtrancl_grounding() {
        // Reachability holds along next chains.
        assert!(has_model(
            "x ~= null & y ~= null & x ~= y & rtrancl_pt (% a c. a..next = c) x y",
            2
        ));
        // x reaches y but not conversely in an acyclic chain.
        assert!(has_model(
            "rtrancl_pt (% a c. a..next = c) x y & \
             ~(rtrancl_pt (% a c. a..next = c) y x) & tree [next]",
            3
        ));
        // Reflexive always.
        assert!(!has_model("~(rtrancl_pt (% a c. a..next = c) x x)", 2));
        // A three-step path needs the last squaring round.
        assert!(!has_model(
            "x ~= null & y ~= null & z ~= null & x ~= y & y ~= z & x ~= z & \
             x..next = y & y..next = z & z..next = null & \
             ~(rtrancl_pt (% a c. a..next = c) x null)",
            3
        ));
    }

    /// Solver variables made and closures built when grounding `src` at
    /// universe `n`.
    fn grounded(src: &str, n: u32) -> (usize, usize) {
        let s = sig();
        let grounder = encode(&form(src), &s, n).unwrap_or_else(|e| panic!("{src:?}: {e}"));
        (grounder.solver.num_vars(), grounder.closures.len())
    }

    #[test]
    fn equal_definitions_and_closures_are_grounded_once() {
        // A second closure that differs only in binder names costs what an
        // identically named one costs, and shares its one matrix.
        let reach = "rtrancl_pt (% a c. a..next = c) x y";
        let renamed = grounded(&format!("{reach} & rtrancl_pt (% b d. b..next = d) y x"), 3);
        let same = grounded(&format!("{reach} & rtrancl_pt (% a c. a..next = c) y x"), 3);
        assert_eq!(renamed, same);
        assert_eq!(renamed.1, 1);
        // A repeated field read reuses its gates: adding a second read
        // costs what adding a second plain equality costs.
        assert_eq!(
            grounded("x..next = y & x..next = z", 3).0 - grounded("x..next = y", 3).0,
            grounded("x = y & x = z", 3).0 - grounded("x = y", 3).0
        );
    }

    #[test]
    fn closure_sharing_respects_quantifier_binders_and_fields() {
        // The edge names `o`, so each value of `o` has its own closure; one
        // shared across `o` would let `x` reach `y` through the last edge.
        assert!(!has_model(
            "x ~= null & y ~= null & x ~= y & x..next = y & \
             (ALL o. rtrancl_pt (% a c. a..next = c & c ~= o) x y)",
            2
        ));
        assert!(has_model(
            "rtrancl_pt (% a c. a..next = c) x y & ~(rtrancl_pt (% a c. a..data = c) x y)",
            2
        ));
    }

    #[test]
    fn tree_constraint_works() {
        // A cycle violates tree [next]: next x = y, next y = x.
        assert!(!has_model(
            "x ~= null & y ~= null & x..next = y & y..next = x & tree [next]",
            3
        ));
        // Self-loop violates.
        assert!(!has_model("x ~= null & x..next = x & tree [next]", 2));
        // Sharing violates: two nodes point at z.
        assert!(!has_model(
            "x ~= null & y ~= null & z ~= null & x ~= y & \
             x..next = z & y..next = z & tree [next]",
            3
        ));
        // A plain chain is a tree.
        assert!(has_model(
            "x ~= null & y ~= null & x ~= y & x..next = y & y..next = null & tree [next]",
            2
        ));
    }

    #[test]
    fn bmc_validity_verdicts() {
        let s = sig();
        // Valid: congruence.
        match Session::new()
            .bmc_valid(
                &form("x = y --> x..next = y..next"),
                &s,
                3,
                &Budget::unlimited(),
            )
            .unwrap()
        {
            BmcVerdict::ValidUpTo(_) => {}
            BmcVerdict::CounterModel(m) => panic!("spurious counter-model {m:?}"),
        }
        // Invalid with a genuine counter-model.
        match Session::new()
            .bmc_valid(
                &form("x..next = y..next --> x = y"),
                &s,
                3,
                &Budget::unlimited(),
            )
            .unwrap()
        {
            BmcVerdict::CounterModel(_) => {}
            BmcVerdict::ValidUpTo(b) => panic!("should find counter-model within {b}"),
        }
    }

    #[test]
    fn figure1_add_method_shape() {
        // The heart of List.add's VC: prepending a fresh node grows the
        // reachable content by exactly the new element. Ground version over
        // the bounded heap.
        let s = sig();
        let goal = form(
            "tree [next] & first ~= null & x ~= null & x ~= first & x..next = null \
             --> rtrancl_pt (% a c. fieldWrite next x first a = c) x first",
        );
        match Session::new()
            .bmc_valid(&goal, &s, 4, &Budget::unlimited())
            .unwrap()
        {
            BmcVerdict::ValidUpTo(_) => {}
            BmcVerdict::CounterModel(m) => panic!("spurious counter-model: {m:?}"),
        }
    }

    #[test]
    fn predicates() {
        assert!(has_model("p x & ~(p y)", 2));
        assert!(!has_model("p x & ~(p x)", 2));
        assert!(!has_model("x = y & p x & ~(p y)", 2));
    }

    #[test]
    fn counterexamples_are_genuine() {
        // Whatever model comes back must satisfy the formula per the
        // reference evaluator (find_model checks internally; verify the
        // plumbing end to end on a nontrivial formula).
        let s = sig();
        let f = form("x ~= null & x : S & S <= T & rtrancl_pt (% a c. a..next = c) first x");
        let m = find_model(&f, &s, 3, &Budget::unlimited())
            .unwrap()
            .expect("satisfiable");
        assert_eq!(m.eval_bool(&f), Ok(true));
    }

    #[test]
    fn rejects_unboundable() {
        let s = sig();
        assert!(find_model(&form("card S = 2"), &s, 2, &Budget::unlimited()).is_err());
        assert!(find_model(&form("k + 1 <= k2"), &s, 2, &Budget::unlimited()).is_err());
    }

    // ---- sessions ------------------------------------------------------------

    /// `goal`'s bounded verdict: `V` valid up to 3, `C` a counter-model,
    /// `-` outside the fragment.
    fn verdict(found: Result<BmcVerdict, Failure>) -> char {
        match found {
            Ok(BmcVerdict::ValidUpTo(_)) => 'V',
            Ok(BmcVerdict::CounterModel(_)) => 'C',
            Err(Failure::Unsupported(_)) => '-',
            Err(Failure::Exhausted(_)) => 'E',
        }
    }

    #[test]
    fn a_session_grounds_each_hypothesis_once_and_keeps_no_goal() {
        let s = sig();
        let unlimited = Budget::unlimited();
        // Both valid; they share two hypotheses, and `S` and `T` occur only
        // in the conclusions.
        let a = form("tree [next] --> x..next = y --> y ~= null --> x ~= y | x : S");
        let b =
            form("tree [next] --> x..next = y --> y..next = z --> z ~= null --> x ~= z | z : T");
        let mut session = Session::new();
        let mut vars = Vec::new();
        for goal in [&a, &b, &a] {
            assert_eq!(verdict(session.bmc_valid(goal, &s, 3, &unlimited)), 'V');
            let grounder = &mut session.grounders[3];
            assert!(
                grounder.goal.is_some(),
                "the last goal stays until the next use"
            );
            grounder.retract();
            vars.push(grounder.solver.num_vars());
        }
        assert_eq!(vars[1], vars[2], "the repeated piece adds nothing");
        // A grounder given only the hypotheses of `a` and `b` has exactly
        // the session's variables and entities: no goal stays behind.
        let mut hyps_only = Grounder::new(3);
        for goal in [&a, &b] {
            hyps_only.adopt(&names(goal, &s));
            for hyp in sequent::peel(goal).0 {
                hyps_only.bool_lit(hyp, &FxHashMap::default()).unwrap();
            }
        }
        let grounder = &session.grounders[3];
        assert_eq!(grounder.solver.num_vars(), hyps_only.solver.num_vars());
        assert_eq!(grounder.entities, hyps_only.entities);
        assert!(!grounder.entities.contains_key(&Symbol::intern("S")));
    }

    #[test]
    fn a_starved_search_leaves_nothing_behind() {
        let s = sig();
        // Refuted only at universe 3, so the starved search stops inside a
        // grounder that later searches reuse.
        let three = form("x ~= null --> y ~= null --> x ~= y --> z = null | z = x | z = y");
        let valid = form("x ~= null --> y ~= null --> x ~= y --> x..next = y --> x ~= null");
        // One unit short of what the whole search takes: the budget runs
        // out at its last step, in the universe-3 search.
        let roomy = Budget::with_fuel(1_000_000);
        assert_eq!(
            verdict(Session::new().bmc_valid(&three, &s, 3, &roomy)),
            'C'
        );
        let starved = Budget::with_fuel(1_000_000 - roomy.fuel_remaining() - 1);
        let mut session = Session::new();
        assert_eq!(verdict(session.bmc_valid(&three, &s, 3, &starved)), 'E');
        assert!(session.grounders[3].goal.is_some());
        for goal in [&valid, &three] {
            let fresh = verdict(Session::new().bmc_valid(goal, &s, 3, &Budget::unlimited()));
            assert_eq!(
                verdict(session.bmc_valid(goal, &s, 3, &Budget::unlimited())),
                fresh,
                "{goal}"
            );
        }
        assert_eq!(
            verdict(session.bmc_valid(&three, &s, 3, &Budget::unlimited())),
            'C'
        );
    }

    #[test]
    fn a_symbol_sorted_anew_gets_a_fresh_grounder() {
        // `x = y` is one hypothesis text: object equality under the first
        // signature, set equality under the second.
        let objects = sig();
        let mut sets = sig();
        for name in ["x", "y"] {
            sets.insert(Symbol::intern(name), Sort::objset());
        }
        let pieces = [
            (form("x = y --> x..next = y..next"), &objects, 'V'),
            (form("x = y --> z : x --> z : y"), &sets, 'V'),
            (form("x = y --> x = null"), &objects, 'C'),
            (form("x = y --> x = {}"), &sets, 'C'),
        ];
        let mut session = Session::new();
        for (goal, sig, want) in pieces {
            let fresh = verdict(Session::new().bmc_valid(&goal, sig, 3, &Budget::unlimited()));
            assert_eq!(fresh, want, "{goal}");
            assert_eq!(
                verdict(session.bmc_valid(&goal, sig, 3, &Budget::unlimited())),
                want,
                "{goal}"
            );
        }
    }

    // ---- exactness of the raw encoding on the heap fragment ---------------

    fn v(name: &str) -> Form {
        Form::v(name)
    }

    fn sym(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    /// Object terms over `x`, `y`, `null` and the binder `o`, with field
    /// reads and `fieldWrite`s of `next`.
    fn obj_term() -> impl Strategy<Value = Form> {
        let leaf = prop_oneof![Just(v("x")), Just(v("y")), Just(Form::Null), Just(v("o"))];
        leaf.prop_recursive(2, 6, 3, |inner| {
            prop_oneof![
                inner.clone().prop_map(|t| Form::app(v("next"), vec![t])),
                (inner.clone(), inner.clone(), inner)
                    .prop_map(|(a, b, t)| { Form::app(v("fieldWrite"), vec![v("next"), a, b, t]) }),
            ]
        })
    }

    /// `next`, or `next` written at one cell.
    fn field_term() -> impl Strategy<Value = Form> {
        let leaf = || prop_oneof![Just(v("x")), Just(v("y")), Just(Form::Null), Just(v("o"))];
        prop_oneof![
            Just(v("next")),
            (leaf(), leaf()).prop_map(|(a, b)| Form::app(v("fieldWrite"), vec![v("next"), a, b])),
        ]
    }

    /// Set terms: `S`, `{}`, singletons, comprehensions binding `o`, and
    /// their unions, intersections and differences.
    fn set_term() -> impl Strategy<Value = Form> {
        let body = prop_oneof![
            (obj_term(), obj_term()).prop_map(|(a, b)| Form::eq(a, b)),
            obj_term().prop_map(|t| Form::elem(t, v("S"))),
        ];
        let leaf = prop_oneof![
            Just(v("S")),
            Just(Form::EmptySet),
            obj_term().prop_map(|t| Form::FiniteSet(vec![t])),
            body.prop_map(|b| Form::Compr(sym("o"), Sort::Obj, Rc::new(b))),
        ];
        leaf.prop_recursive(1, 4, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::binop(BinOp::Union, a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::binop(BinOp::Inter, a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| Form::binop(BinOp::Diff, a, b)),
            ]
        })
    }

    /// Formulas over the heap fragment, `o` closed by a quantifier.
    fn heap_form() -> impl Strategy<Value = Form> {
        let reach = (field_term(), obj_term(), obj_term()).prop_map(|(f, from, to)| {
            let edge = Form::eq(Form::app(f, vec![v("a")]), v("c"));
            let lambda = Form::Lambda(
                vec![(sym("a"), Sort::Obj), (sym("c"), Sort::Obj)],
                Rc::new(edge),
            );
            Form::app(v("rtrancl_pt"), vec![lambda, from, to])
        });
        let atom = prop_oneof![
            (obj_term(), obj_term()).prop_map(|(a, b)| Form::eq(a, b)),
            (obj_term(), set_term()).prop_map(|(t, s)| Form::elem(t, s)),
            (set_term(), set_term()).prop_map(|(a, b)| Form::binop(BinOp::Subseteq, a, b)),
            (set_term(), set_term()).prop_map(|(a, b)| Form::eq(a, b)),
            (field_term(), field_term()).prop_map(|(f, g)| Form::eq(f, g)),
            reach,
            field_term().prop_map(|f| Form::Tree(vec![f])),
        ];
        let quantified =
            |kind: QKind, body: Form| Form::quant(kind, vec![(sym("o"), Sort::Obj)], body);
        let form = atom.prop_recursive(3, 12, 2, move |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::and(vec![a, b])),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::or(vec![a, b])),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::implies(a, b)),
                inner.clone().prop_map(Form::not),
                inner.clone().prop_map(move |f| quantified(QKind::All, f)),
                inner.prop_map(move |f| quantified(QKind::Ex, f)),
            ]
        });
        (form, any::<bool>()).prop_map(move |(f, all)| {
            if f.free_vars().contains(&sym("o")) {
                quantified(if all { QKind::All } else { QKind::Ex }, f)
            } else {
                f
            }
        })
    }

    /// Assumptions fixing the grounder's entity variables to `m`'s values.
    fn fixed_to(grounder: &Grounder, m: &Model) -> Vec<Lit> {
        let w = width(grounder.n) as u32;
        let obj = |v: &Value| match v {
            Value::Obj(id) => *id,
            other => panic!("object expected, got {other:?}"),
        };
        let mut out = Vec::new();
        for (name, &base) in &grounder.entities {
            let bits: Vec<bool> = match &m.interp[name] {
                Value::Obj(id) => (0..w).map(|i| i == *id).collect(),
                Value::Set(set) => (0..w).map(|i| set.contains(&Key::Obj(i))).collect(),
                Value::Fun(table) => {
                    let jahob_logic::model::FunV::Table { map, default, .. } = table.as_ref()
                    else {
                        panic!("table expected for {name}")
                    };
                    (0..w)
                        .flat_map(|i| {
                            let j = obj(map.get(&vec![Key::Obj(i)]).unwrap_or(default));
                            (0..w).map(move |k| k == j)
                        })
                        .collect()
                }
                other => panic!("unexpected value {other:?} for {name}"),
            };
            out.extend(bits.iter().zip(base..).map(|(&b, v)| Var(v).lit(b)));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The raw encoding, with no evaluator re-check and no spurious-model
        /// blocking, is exact at universes 1 and 2 over the models whose
        /// `next` maps `null` to `null`: it is satisfiable exactly when one
        /// of them satisfies the formula, and with its entity variables
        /// fixed to a model's values it is satisfiable exactly when that
        /// model satisfies the formula.
        #[test]
        fn raw_encoding_matches_enumeration(f in heap_form()) {
            let sig: FxHashMap<Symbol, Sort> = [
                ("x", Sort::Obj),
                ("y", Sort::Obj),
                ("S", Sort::objset()),
                ("next", Sort::field(Sort::Obj)),
            ]
            .iter()
            .map(|(n, s)| (sym(n), s.clone()))
            .collect();
            let mut syms: Vec<(Symbol, Sort)> = sig.iter().map(|(k, s)| (*k, s.clone())).collect();
            syms.sort_by_key(|(k, _)| k.as_str().to_owned());
            let null_to_null = Form::eq(Form::app(v("next"), vec![Form::Null]), Form::Null);
            for n in 1..=2 {
                let mut grounder = encode(&f, &sig, n).unwrap_or_else(|e| panic!("{f}: {e}"));
                let encoded = grounder.solver.solve(&Budget::unlimited()).unwrap().is_sat();
                let mut satisfied = false;
                enumerate_models(n, (0, 0), &syms, &mut |m| {
                    if m.eval_bool(&null_to_null) == Ok(true) {
                        let holds = m.eval_bool(&f) == Ok(true);
                        let fixed = fixed_to(&grounder, m);
                        let sat = grounder.solver.solve_with_assumptions(&fixed, &Budget::unlimited()).unwrap().is_sat();
                        assert_eq!(sat, holds, "universe {n} at {:?}: {f}", m.interp);
                        satisfied |= holds;
                    }
                    true
                });
                prop_assert_eq!(encoded, satisfied, "universe {}: {}", n, f);
            }
        }

        /// One session, with value precedence, given implication chains
        /// that share hypotheses, finds a counter-model at universes 1 and
        /// 2 exactly when enumeration finds a model (with `next` mapping
        /// `null` to `null`) of the hypotheses and not the conclusion; and
        /// each one it finds is such a model.
        #[test]
        fn a_session_matches_enumeration(
            hyps in proptest::collection::vec(heap_form(), 3),
            goals in proptest::collection::vec(heap_form(), 3),
        ) {
            let sig: FxHashMap<Symbol, Sort> = [
                ("x", Sort::Obj),
                ("y", Sort::Obj),
                ("S", Sort::objset()),
                ("next", Sort::field(Sort::Obj)),
            ]
            .iter()
            .map(|(n, s)| (sym(n), s.clone()))
            .collect();
            let mut syms: Vec<(Symbol, Sort)> = sig.iter().map(|(k, s)| (*k, s.clone())).collect();
            syms.sort_by_key(|(k, _)| k.as_str().to_owned());
            let null_to_null = Form::eq(Form::app(v("next"), vec![Form::Null]), Form::Null);
            let mut session = Session::new();
            // Chain k assumes the first k + 1 hypotheses, so later chains
            // share the earlier ones.
            for (k, goal) in goals.iter().enumerate() {
                let chain = hyps[..=k]
                    .iter()
                    .rev()
                    .fold(goal.clone(), |acc, h| Form::implies(h.clone(), acc));
                for n in 1..=2 {
                    let found = session
                        .refute(&chain, &sig, n, &Budget::unlimited())
                        .unwrap_or_else(|e| panic!("{chain}: {e}"));
                    let mut refutable = false;
                    enumerate_models(n, (0, 0), &syms, &mut |m| {
                        refutable |= m.eval_bool(&null_to_null) == Ok(true)
                            && m.eval_bool(&chain) == Ok(false);
                        !refutable
                    });
                    prop_assert_eq!(found.is_some(), refutable, "universe {}: {}", n, chain);
                    if let Some(m) = found {
                        prop_assert_eq!(m.eval_bool(&chain), Ok(false), "universe {}: {}", n, chain);
                    }
                }
            }
        }
    }
}
