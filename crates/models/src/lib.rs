//! `jahob-models`: a SAT-based bounded model finder — the Alloy substitute.
//!
//! The paper's related-work section points at the Alloy Analyzer [34] as the
//! finite-model-finding complement to verification ("bug finding can be
//! combined with verification in productive ways"). This crate implements
//! that component from scratch: a specification-logic formula is *grounded*
//! over a small universe of objects (`0` is `null`, `1..=n` proper), the
//! grounding is Tseitin-encoded, and the CDCL solver from `jahob-sat`
//! searches for a model.
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
//! Two uses:
//!
//! * **Bug finding** ([`refute`]): search for a counter-model of a goal; a
//!   found model is checked against the reference evaluator
//!   (`jahob_logic::model`) before being reported, so reported bugs are
//!   always genuine.
//! * **Bounded validity** ([`bmc_valid`]): the "decision procedures for
//!   linked lists with membership in NP" style of §4 — for the ground list
//!   fragment, absence of models up to a term-count-derived bound implies
//!   validity; the verdict records the bound so reports stay honest.

use jahob_logic::model::{Key, Model, Value};
use jahob_logic::{BinOp, Form, QKind, Sort, UnOp};
use jahob_sat::{CnfBuilder, PropForm, SolveResult, Solver};
use jahob_util::budget::{Budget, Exhaustion};
use jahob_util::{FxHashMap, Symbol};
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

/// Grounding failure: construct outside the boundable fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundError {
    pub message: String,
}

impl fmt::Display for GroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot ground: {}", self.message)
    }
}

impl std::error::Error for GroundError {}

/// Why a budgeted model search did not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelsFailure {
    /// The goal is outside the boundable fragment — route it elsewhere.
    Fragment(GroundError),
    /// The budget ran out mid-search.
    Exhausted(Exhaustion),
}

impl fmt::Display for ModelsFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelsFailure::Fragment(e) => e.fmt(f),
            ModelsFailure::Exhausted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ModelsFailure {}

fn err<T>(message: impl Into<String>) -> Result<T, GroundError> {
    Err(GroundError {
        message: message.into(),
    })
}

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

/// Atom index allocator shared by all encoded entities.
struct Atoms {
    next: u32,
    /// Object variable one-hot bits: sym → base index (n+1 consecutive).
    obj_vars: FxHashMap<Symbol, u32>,
    /// Set bits: sym → base index (n+1 consecutive).
    set_vars: FxHashMap<Symbol, u32>,
    /// Boolean variables.
    bool_vars: FxHashMap<Symbol, u32>,
    /// Field matrices: sym → base ( (n+1)² consecutive, row-major ).
    field_vars: FxHashMap<Symbol, u32>,
    /// Object predicates: sym → base (n+1 consecutive).
    pred_vars: FxHashMap<Symbol, u32>,
}

impl Atoms {
    fn new() -> Self {
        Atoms {
            next: 0,
            obj_vars: FxHashMap::default(),
            set_vars: FxHashMap::default(),
            bool_vars: FxHashMap::default(),
            field_vars: FxHashMap::default(),
            pred_vars: FxHashMap::default(),
        }
    }

    fn alloc(&mut self, count: u32) -> u32 {
        let base = self.next;
        self.next += count;
        base
    }
}

/// A `w × w` matrix of propositional entries, indexed `[from][to]`.
type Matrix = Vec<Vec<PropForm>>;

/// What a closure's edge matrix depends on: the lambda body with its two
/// binders renamed to reserved symbols, plus the values the environment
/// gives the body's other free variables.
type ClosureKey = (Form, Vec<(Symbol, u32)>);

/// The grounding context for one universe size.
struct Grounder<'a> {
    n: u32,
    sig: &'a FxHashMap<Symbol, Sort>,
    atoms: Atoms,
    /// Structural constraints collected during encoding (functionality,
    /// one-hot, tree constraints, definitional iffs).
    constraints: Vec<PropForm>,
    /// Definition → its atom. Every atom has one fixed meaning within a
    /// grounder, so structurally equal definitions share one atom.
    defs: FxHashMap<PropForm, u32>,
    /// Reflexive-transitive closure matrices, one per distinct edge
    /// relation.
    closures: FxHashMap<ClosureKey, Rc<Matrix>>,
}

/// Number of object ids (including null).
fn width(n: u32) -> usize {
    n as usize + 1
}

impl<'a> Grounder<'a> {
    fn new(n: u32, sig: &'a FxHashMap<Symbol, Sort>) -> Self {
        Grounder {
            n,
            sig,
            atoms: Atoms::new(),
            constraints: Vec::new(),
            defs: FxHashMap::default(),
            closures: FxHashMap::default(),
        }
    }

    fn kind_of(&self, name: Symbol) -> Result<Kind, GroundError> {
        match self.sig.get(&name) {
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
            Some(other) => err(format!("symbol `{name}` has unboundable sort {other}")),
            None => err(format!("symbol `{name}` not in signature")),
        }
    }

    // ---- entity encodings ---------------------------------------------------

    fn obj_var_bits(&mut self, name: Symbol) -> Vec<PropForm> {
        let w = width(self.n) as u32;
        let base = match self.atoms.obj_vars.get(&name) {
            Some(&b) => b,
            None => {
                let b = self.atoms.alloc(w);
                self.atoms.obj_vars.insert(name, b);
                // Exactly-one constraint.
                let bits: Vec<PropForm> = (0..w).map(|i| PropForm::atom(b + i)).collect();
                self.constraints.push(PropForm::or(bits.clone()));
                for i in 0..w as usize {
                    for j in (i + 1)..w as usize {
                        self.constraints.push(PropForm::or(vec![
                            PropForm::not(bits[i].clone()),
                            PropForm::not(bits[j].clone()),
                        ]));
                    }
                }
                b
            }
        };
        (0..w).map(|i| PropForm::atom(base + i)).collect()
    }

    fn set_var_bits(&mut self, name: Symbol) -> Vec<PropForm> {
        let w = width(self.n) as u32;
        let base = *self.atoms.set_vars.entry(name).or_insert_with(|| {
            let b = self.atoms.next;
            self.atoms.next += w;
            b
        });
        (0..w).map(|i| PropForm::atom(base + i)).collect()
    }

    fn bool_var(&mut self, name: Symbol) -> PropForm {
        let base = *self.atoms.bool_vars.entry(name).or_insert_with(|| {
            let b = self.atoms.next;
            self.atoms.next += 1;
            b
        });
        PropForm::atom(base)
    }

    fn pred_var_bits(&mut self, name: Symbol) -> Vec<PropForm> {
        let w = width(self.n) as u32;
        let base = *self.atoms.pred_vars.entry(name).or_insert_with(|| {
            let b = self.atoms.next;
            self.atoms.next += w;
            b
        });
        (0..w).map(|i| PropForm::atom(base + i)).collect()
    }

    /// Field matrix M[i][j] ⇔ f(i) = j, with functionality constraints.
    fn field_matrix(&mut self, name: Symbol) -> Vec<Vec<PropForm>> {
        let w = width(self.n);
        let base = match self.atoms.field_vars.get(&name) {
            Some(&b) => b,
            None => {
                let b = self.atoms.alloc((w * w) as u32);
                self.atoms.field_vars.insert(name, b);
                // Each row: exactly one target.
                for i in 0..w {
                    let row: Vec<PropForm> = (0..w)
                        .map(|j| PropForm::atom(b + (i * w + j) as u32))
                        .collect();
                    self.constraints.push(PropForm::or(row.clone()));
                    for x in 0..w {
                        for y in (x + 1)..w {
                            self.constraints.push(PropForm::or(vec![
                                PropForm::not(row[x].clone()),
                                PropForm::not(row[y].clone()),
                            ]));
                        }
                    }
                }
                // Fields map null to null (the Jahob convention the
                // reference evaluator also uses).
                self.constraints.push(PropForm::atom(b));
                b
            }
        };
        (0..w)
            .map(|i| {
                (0..w)
                    .map(|j| PropForm::atom(base + (i * w + j) as u32))
                    .collect()
            })
            .collect()
    }

    /// The atom standing for `def`; its definition is asserted on first use.
    fn define(&mut self, def: PropForm) -> PropForm {
        if matches!(def, PropForm::True | PropForm::False | PropForm::Atom(_)) {
            return def;
        }
        if let Some(&atom) = self.defs.get(&def) {
            return PropForm::atom(atom);
        }
        let atom = self.atoms.alloc(1);
        self.constraints
            .push(PropForm::iff(PropForm::atom(atom), def.clone()));
        self.defs.insert(def, atom);
        PropForm::atom(atom)
    }

    // ---- term encodings -----------------------------------------------------

    /// Environment: binder → concrete object id.
    /// Encode an object term as an indicator vector.
    #[allow(clippy::needless_range_loop)] // matrix row/column indexing
    fn obj_bits(
        &mut self,
        form: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Vec<PropForm>, GroundError> {
        let w = width(self.n);
        match form {
            Form::Null => {
                let mut v = vec![PropForm::False; w];
                v[0] = PropForm::True;
                Ok(v)
            }
            Form::Var(name) => {
                if let Some(&id) = env.get(name) {
                    let mut v = vec![PropForm::False; w];
                    v[id as usize] = PropForm::True;
                    return Ok(v);
                }
                match self.kind_of(*name)? {
                    Kind::Obj => Ok(self.obj_var_bits(*name)),
                    other => err(format!("`{name}` used as object but is {other:?}")),
                }
            }
            Form::App(_, _) => {
                // fun-term applied to an object argument.
                let (head, args) = match form {
                    Form::App(h, a) => (h.as_ref(), a),
                    _ => unreachable!(),
                };
                // A flattened `fieldWrite f a b x`: function part is the
                // first three arguments.
                let (matrix, arg_term) = if args.len() == 4
                    && matches!(head, Form::Var(h) if h.as_str() == jahob_logic::form::sym::FIELD_WRITE)
                {
                    let fun = Form::app(head.clone(), args[..3].to_vec());
                    (self.fun_matrix_term(&fun, env)?, &args[3])
                } else if args.len() == 1 {
                    (self.fun_matrix_term(head, env)?, &args[0])
                } else {
                    return err(format!("non-unary application `{form}`"));
                };
                let arg = self.obj_bits(arg_term, env)?;
                let mut out = Vec::with_capacity(w);
                for j in 0..w {
                    let cases: Vec<PropForm> = (0..w)
                        .map(|i| PropForm::and(vec![arg[i].clone(), matrix[i][j].clone()]))
                        .collect();
                    out.push(self.define(PropForm::or(cases)));
                }
                Ok(out)
            }
            Form::Ite(c, t, e) => {
                let cond = self.bool_prop(c, env)?;
                let tb = self.obj_bits(t, env)?;
                let eb = self.obj_bits(e, env)?;
                Ok((0..w)
                    .map(|i| {
                        PropForm::or(vec![
                            PropForm::and(vec![cond.clone(), tb[i].clone()]),
                            PropForm::and(vec![PropForm::not(cond.clone()), eb[i].clone()]),
                        ])
                    })
                    .collect())
            }
            other => err(format!("object term expected: `{other}`")),
        }
    }

    /// Encode a function-valued term (field or fieldWrite chain) as a
    /// transition matrix.
    fn fun_matrix_term(
        &mut self,
        form: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Vec<Vec<PropForm>>, GroundError> {
        let w = width(self.n);
        match form {
            Form::Var(name) => match self.kind_of(*name)? {
                Kind::Field => Ok(self.field_matrix(*name)),
                other => err(format!("`{name}` used as field but is {other:?}")),
            },
            Form::App(head, args) => {
                // fieldWrite f at val — possibly nested.
                if let Form::Var(fw) = head.as_ref() {
                    if fw.as_str() == jahob_logic::form::sym::FIELD_WRITE && args.len() == 3 {
                        let base = self.fun_matrix_term(&args[0], env)?;
                        let at = self.obj_bits(&args[1], env)?;
                        let val = self.obj_bits(&args[2], env)?;
                        let mut out = vec![vec![PropForm::False; w]; w];
                        for i in 0..w {
                            for (j, out_ij) in out[i].iter_mut().enumerate() {
                                // M'(i,j) = (at=i ∧ val=j) ∨ (at≠i ∧ M(i,j)).
                                *out_ij = PropForm::or(vec![
                                    PropForm::and(vec![at[i].clone(), val[j].clone()]),
                                    PropForm::and(vec![
                                        PropForm::not(at[i].clone()),
                                        base[i][j].clone(),
                                    ]),
                                ]);
                            }
                        }
                        return Ok(out);
                    }
                }
                err(format!("function-valued term expected: `{form}`"))
            }
            other => err(format!("function-valued term expected: `{other}`")),
        }
    }

    /// Encode a set term as a membership vector.
    fn set_bits(
        &mut self,
        form: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Vec<PropForm>, GroundError> {
        let w = width(self.n);
        match form {
            Form::EmptySet => Ok(vec![PropForm::False; w]),
            Form::Var(name) => match self.kind_of(*name)? {
                Kind::ObjSet => Ok(self.set_var_bits(*name)),
                other => err(format!("`{name}` used as set but is {other:?}")),
            },
            Form::FiniteSet(elems) => {
                let mut out = vec![PropForm::False; w];
                for e in elems {
                    let bits = self.obj_bits(e, env)?;
                    for i in 0..w {
                        out[i] = PropForm::or(vec![out[i].clone(), bits[i].clone()]);
                    }
                }
                Ok(out)
            }
            Form::Binop(op @ (BinOp::Union | BinOp::Inter | BinOp::Diff | BinOp::Sub), a, b) => {
                let av = self.set_bits(a, env)?;
                let bv = self.set_bits(b, env)?;
                Ok((0..w)
                    .map(|i| match op {
                        BinOp::Union => PropForm::or(vec![av[i].clone(), bv[i].clone()]),
                        BinOp::Inter => PropForm::and(vec![av[i].clone(), bv[i].clone()]),
                        _ => PropForm::and(vec![av[i].clone(), PropForm::not(bv[i].clone())]),
                    })
                    .collect())
            }
            Form::Compr(x, _, body) => {
                let mut out = Vec::with_capacity(w);
                for i in 0..w as u32 {
                    let mut inner_env = env.clone();
                    inner_env.insert(*x, i);
                    let b = self.bool_prop(body, &inner_env)?;
                    out.push(self.define(b));
                }
                Ok(out)
            }
            other => err(format!("set term expected: `{other}`")),
        }
    }

    /// Encode a boolean formula.
    fn bool_prop(
        &mut self,
        form: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<PropForm, GroundError> {
        let w = width(self.n);
        match form {
            Form::BoolLit(b) => Ok(if *b { PropForm::True } else { PropForm::False }),
            Form::And(parts) => Ok(PropForm::and(
                parts
                    .iter()
                    .map(|p| self.bool_prop(p, env))
                    .collect::<Result<_, _>>()?,
            )),
            Form::Or(parts) => Ok(PropForm::or(
                parts
                    .iter()
                    .map(|p| self.bool_prop(p, env))
                    .collect::<Result<_, _>>()?,
            )),
            Form::Unop(UnOp::Not, inner) => Ok(PropForm::not(self.bool_prop(inner, env)?)),
            Form::Binop(BinOp::Implies, a, b) => Ok(PropForm::implies(
                self.bool_prop(a, env)?,
                self.bool_prop(b, env)?,
            )),
            Form::Binop(BinOp::Iff, a, b) => Ok(PropForm::iff(
                self.bool_prop(a, env)?,
                self.bool_prop(b, env)?,
            )),
            Form::Binop(BinOp::Elem, x, s) => {
                let xb = self.obj_bits(x, env)?;
                let sb = self.set_bits(s, env)?;
                Ok(PropForm::or(
                    (0..w)
                        .map(|i| PropForm::and(vec![xb[i].clone(), sb[i].clone()]))
                        .collect(),
                ))
            }
            Form::Binop(BinOp::Subseteq, a, b) | Form::Binop(BinOp::Le, a, b) => {
                let av = self.set_bits(a, env)?;
                let bv = self.set_bits(b, env)?;
                Ok(PropForm::and(
                    (0..w)
                        .map(|i| PropForm::implies(av[i].clone(), bv[i].clone()))
                        .collect(),
                ))
            }
            Form::Binop(BinOp::Eq, a, b) => self.equality(a, b, env),
            Form::Quant(kind, binders, body) => {
                // Expand object quantifiers.
                let mut expanded = vec![env.clone()];
                for (name, sort) in binders {
                    if !matches!(sort, Sort::Obj | Sort::Var(_)) {
                        return err(format!("quantifier over non-obj binder `{name}`"));
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
                    parts.push(self.bool_prop(body, e)?);
                }
                Ok(match kind {
                    QKind::All => PropForm::and(parts),
                    QKind::Ex => PropForm::or(parts),
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
                            let bits = self.pred_var_bits(*name);
                            let arg = self.obj_bits(&args[0], env)?;
                            return Ok(PropForm::or(
                                (0..w)
                                    .map(|i| PropForm::and(vec![arg[i].clone(), bits[i].clone()]))
                                    .collect(),
                            ));
                        }
                    }
                }
                err(format!("unsupported atom `{form}`"))
            }
            Form::Var(name) => match self.kind_of(*name)? {
                Kind::Bool => Ok(self.bool_var(*name)),
                other => err(format!("`{name}` used as boolean but is {other:?}")),
            },
            other => err(format!("unsupported formula `{other}`")),
        }
    }

    fn equality(
        &mut self,
        a: &Form,
        b: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<PropForm, GroundError> {
        let w = width(self.n);
        // Try object equality first, then set, then function, then bool.
        if let (Ok(ab), Ok(bb)) = (self.obj_bits_try(a, env), self.obj_bits_try(b, env)) {
            return Ok(PropForm::or(
                (0..w)
                    .map(|i| PropForm::and(vec![ab[i].clone(), bb[i].clone()]))
                    .collect(),
            ));
        }
        if let (Ok(av), Ok(bv)) = (self.set_bits_try(a, env), self.set_bits_try(b, env)) {
            return Ok(PropForm::and(
                (0..w)
                    .map(|i| PropForm::iff(av[i].clone(), bv[i].clone()))
                    .collect(),
            ));
        }
        if let (Ok(am), Ok(bm)) = (self.fun_matrix_try(a, env), self.fun_matrix_try(b, env)) {
            let mut parts = Vec::with_capacity(w * w);
            for i in 0..w {
                for j in 0..w {
                    parts.push(PropForm::iff(am[i][j].clone(), bm[i][j].clone()));
                }
            }
            return Ok(PropForm::and(parts));
        }
        // Boolean equality.
        let ap = self.bool_prop(a, env)?;
        let bp = self.bool_prop(b, env)?;
        Ok(PropForm::iff(ap, bp))
    }

    fn obj_bits_try(
        &mut self,
        f: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Vec<PropForm>, GroundError> {
        // Cheap syntactic pre-check to avoid committing variable kinds
        // incorrectly.
        match f {
            Form::Null | Form::Ite(_, _, _) => self.obj_bits(f, env),
            Form::Var(name) => {
                if env.contains_key(name) || self.kind_of(*name)? == Kind::Obj {
                    self.obj_bits(f, env)
                } else {
                    err("not an object")
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
                        self.obj_bits(f, env)
                    }
                    _ => err("not an object application"),
                }
            }
            Form::App(head, args) if args.len() == 4 => {
                // Flattened fieldWrite application: fieldWrite f a b x.
                match head.as_ref() {
                    Form::Var(h) if h.as_str() == jahob_logic::form::sym::FIELD_WRITE => {
                        let fun = Form::app(Form::Var(*h), args[..3].to_vec());
                        let rebuilt = Form::App(Rc::new(fun), vec![args[3].clone()]);
                        self.obj_bits(&rebuilt, env)
                    }
                    _ => err("not an object application"),
                }
            }
            _ => err("not an object term"),
        }
    }

    fn set_bits_try(
        &mut self,
        f: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Vec<PropForm>, GroundError> {
        match f {
            Form::EmptySet
            | Form::FiniteSet(_)
            | Form::Compr(_, _, _)
            | Form::Binop(BinOp::Union | BinOp::Inter | BinOp::Diff, _, _) => self.set_bits(f, env),
            Form::Var(name) if self.kind_of(*name) == Ok(Kind::ObjSet) => self.set_bits(f, env),
            _ => err("not a set term"),
        }
    }

    fn fun_matrix_try(
        &mut self,
        f: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Vec<Vec<PropForm>>, GroundError> {
        match f {
            Form::Var(name) if self.kind_of(*name) == Ok(Kind::Field) => {
                self.fun_matrix_term(f, env)
            }
            Form::App(head, args) if args.len() == 3 => match head.as_ref() {
                Form::Var(h) if h.as_str() == jahob_logic::form::sym::FIELD_WRITE => {
                    self.fun_matrix_term(f, env)
                }
                _ => err("not a function term"),
            },
            _ => err("not a function term"),
        }
    }

    /// Reachability along a lambda edge: `from` and `to` picked out of the
    /// edge relation's closure matrix.
    fn rtrancl(
        &mut self,
        lambda: &Form,
        from: &Form,
        to: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<PropForm, GroundError> {
        let w = width(self.n);
        let Form::Lambda(binders, body) = lambda else {
            return err("rtrancl_pt needs a lambda edge");
        };
        if binders.len() != 2 {
            return err("rtrancl_pt lambda must be binary");
        }
        let r = self.closure(binders[0].0, binders[1].0, body, env)?;
        let fb = self.obj_bits(from, env)?;
        let tb = self.obj_bits(to, env)?;
        let mut cases = Vec::with_capacity(w * w);
        for i in 0..w {
            for j in 0..w {
                cases.push(PropForm::and(vec![
                    fb[i].clone(),
                    tb[j].clone(),
                    r[i][j].clone(),
                ]));
            }
        }
        Ok(PropForm::or(cases))
    }

    /// Reflexive-transitive closure of the edge relation `% x y. body`
    /// under `env`: the edge matrix with defined atoms, then squaring.
    /// Built once per distinct edge relation (see [`ClosureKey`]).
    fn closure(
        &mut self,
        x: Symbol,
        y: Symbol,
        body: &Form,
        env: &FxHashMap<Symbol, u32>,
    ) -> Result<Rc<Matrix>, GroundError> {
        let key = closure_key(x, y, body, env);
        if let Some(r) = self.closures.get(&key) {
            return Ok(Rc::clone(r));
        }
        let w = width(self.n);
        let mut r: Matrix = vec![vec![PropForm::False; w]; w];
        for i in 0..w as u32 {
            for j in 0..w as u32 {
                let mut inner_env = env.clone();
                inner_env.insert(x, i);
                inner_env.insert(y, j);
                let e = self.bool_prop(body, &inner_env)?;
                let refl = if i == j {
                    PropForm::True
                } else {
                    PropForm::False
                };
                r[i as usize][j as usize] = self.define(PropForm::or(vec![refl, e]));
            }
        }
        let r = Rc::new(self.squared(r));
        self.closures.insert(key, Rc::clone(&r));
        Ok(r)
    }

    /// ⌈log₂ w⌉ rounds of `r := r ∨ r·r` with defined atoms: the result
    /// relates every pair joined by an `r`-path of length ≤ w.
    fn squared(&mut self, mut r: Matrix) -> Matrix {
        let w = r.len();
        let rounds = usize::BITS - (w.max(2) - 1).leading_zeros();
        for _ in 0..rounds {
            let mut next = vec![vec![PropForm::False; w]; w];
            for (i, next_row) in next.iter_mut().enumerate() {
                for (j, next_ij) in next_row.iter_mut().enumerate() {
                    let mut cases = vec![r[i][j].clone()];
                    for (r_im, r_m) in r[i].iter().zip(&r) {
                        cases.push(PropForm::and(vec![r_im.clone(), r_m[j].clone()]));
                    }
                    *next_ij = self.define(PropForm::or(cases));
                }
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
    ) -> Result<PropForm, GroundError> {
        let w = width(self.n);
        let matrices = fields
            .iter()
            .map(|f| self.fun_matrix_term(f, env))
            .collect::<Result<Vec<Matrix>, _>>()?;
        // Edge (i,j) present (i ≥ 1, j ≥ 1) iff some field maps i to j.
        let mut edge = vec![vec![PropForm::False; w]; w];
        for m in &matrices {
            for i in 1..w {
                for j in 1..w {
                    edge[i][j] = PropForm::or(vec![edge[i][j].clone(), m[i][j].clone()]);
                }
            }
        }
        let mut parts = Vec::new();
        // Indegree ≤ 1: for each j, at most one incoming (i, field) pair —
        // counting multiplicity across fields requires per-field edges:
        let mut incoming: Vec<Vec<PropForm>> = vec![Vec::new(); w];
        for m in &matrices {
            for i in 1..w {
                for (j, inc) in incoming.iter_mut().enumerate().skip(1) {
                    inc.push(m[i][j].clone());
                }
            }
        }
        for inc in incoming.iter().skip(1) {
            for a in 0..inc.len() {
                for b in (a + 1)..inc.len() {
                    parts.push(PropForm::or(vec![
                        PropForm::not(inc[a].clone()),
                        PropForm::not(inc[b].clone()),
                    ]));
                }
            }
        }
        // Acyclicity, exactly (sound in both polarities): compute the
        // strict-path closure of the edge relation with iff-defined layer
        // atoms and require no self-path. An existential witness encoding
        // (ranks) would be unsound under negation.
        let r = edge
            .into_iter()
            .map(|row| row.into_iter().map(|e| self.define(e)).collect())
            .collect();
        let r = self.squared(r);
        for (i, row) in r.iter().enumerate() {
            parts.push(PropForm::not(row[i].clone()));
        }
        Ok(PropForm::and(parts))
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

/// Is the formula groundable at the given universe? (Cheap probe used by
/// the dispatcher's hypothesis filtering — runs the encoder, discards the
/// output.)
pub fn in_fragment(form: &Form, sig: &FxHashMap<Symbol, Sort>, universe: u32) -> bool {
    let mut grounder = Grounder::new(universe, sig);
    let env = FxHashMap::default();
    grounder.bool_prop(form, &env).is_ok()
}

/// Search for a model of `form` with `universe` proper objects. A found
/// model is re-checked with the reference evaluator before being returned.
pub fn find_model(
    form: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    universe: u32,
) -> Result<Option<Model>, GroundError> {
    match find_model_budgeted(form, sig, universe, &Budget::unlimited()) {
        Ok(v) => Ok(v),
        Err(ModelsFailure::Fragment(e)) => Err(e),
        Err(ModelsFailure::Exhausted(_)) => unreachable!("unlimited budget"),
    }
}

/// Budgeted [`find_model`]: the grounding SAT searches and the
/// spurious-model loop consume the caller's budget.
pub fn find_model_budgeted(
    form: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    universe: u32,
    budget: &Budget,
) -> Result<Option<Model>, ModelsFailure> {
    let (grounder, mut builder, mut solver) =
        encode(form, sig, universe).map_err(ModelsFailure::Fragment)?;
    // The encoding is designed to be exact, and the test suite checks it on
    // every supported construct — but any residual over-approximation is
    // caught here: a SAT model that fails the reference evaluator is
    // *blocked* and the search continues, so answers stay sound in both
    // directions (a returned model is genuine; `None` still means the
    // encoding — a superset of the real models — is empty).
    const MAX_SPURIOUS: usize = 64;
    for _ in 0..=MAX_SPURIOUS {
        budget.check().map_err(ModelsFailure::Exhausted)?;
        match solver
            .solve_budgeted(budget)
            .map_err(ModelsFailure::Exhausted)?
        {
            SolveResult::Unsat => return Ok(None),
            SolveResult::Sat(model) => {
                let decoded = decode(&grounder, &model, &builder, universe);
                match decoded.eval_bool(form) {
                    Ok(true) => return Ok(Some(decoded)),
                    Ok(false) => {
                        if std::env::var("JAHOB_DEBUG_MODELS").is_ok() {
                            eprintln!("spurious model at universe {universe}:");
                            debug_disagreement(form, &decoded, 0);
                        }
                        // Spurious: block this assignment of the declared
                        // entity atoms and retry.
                        let mut clause: Vec<PropForm> = Vec::new();
                        let mut block = |base: u32, count: u32| {
                            for i in 0..count {
                                let atom = PropForm::atom(base + i);
                                clause.push(if builder.atom_value(&model, base + i) {
                                    PropForm::not(atom)
                                } else {
                                    atom
                                });
                            }
                        };
                        let w = width(universe) as u32;
                        for &b in grounder.atoms.obj_vars.values() {
                            block(b, w);
                        }
                        for &b in grounder.atoms.set_vars.values() {
                            block(b, w);
                        }
                        for &b in grounder.atoms.bool_vars.values() {
                            block(b, 1);
                        }
                        for &b in grounder.atoms.field_vars.values() {
                            block(b, w * w);
                        }
                        for &b in grounder.atoms.pred_vars.values() {
                            block(b, w);
                        }
                        builder.assert(&mut solver, &PropForm::or(clause));
                    }
                    Err(e) => {
                        return err(format!("internal: decoded model not evaluable: {e}"))
                            .map_err(ModelsFailure::Fragment)
                    }
                }
            }
        }
    }
    err("internal: too many spurious models (encoding mismatch)").map_err(ModelsFailure::Fragment)
}

/// Ground `form` at `universe` and load its CNF into a fresh solver.
fn encode<'a>(
    form: &Form,
    sig: &'a FxHashMap<Symbol, Sort>,
    universe: u32,
) -> Result<(Grounder<'a>, CnfBuilder, Solver), GroundError> {
    let mut grounder = Grounder::new(universe, sig);
    let main = grounder.bool_prop(form, &FxHashMap::default())?;
    let mut solver = Solver::new();
    let mut builder = CnfBuilder::new();
    // Constraints may keep growing while encoding (lazy allocation), so
    // assert them after the main formula is built.
    builder.assert(&mut solver, &main);
    for c in &grounder.constraints {
        builder.assert(&mut solver, c);
    }
    Ok((grounder, builder, solver))
}

/// Debug aid: descend into conjunction/negation structure printing each
/// piece's reference-evaluator verdict, to localize encoding mismatches.
fn debug_disagreement(form: &Form, model: &Model, depth: usize) {
    let verdict = model.eval_bool(form);
    let indent = "  ".repeat(depth + 1);
    let text = form.to_string();
    let short: String = text.chars().take(140).collect();
    eprintln!("{indent}[{verdict:?}] {short}");
    if depth >= 3 {
        return;
    }
    match form {
        Form::And(ps) | Form::Or(ps) => {
            for p in ps {
                debug_disagreement(p, model, depth + 1);
            }
        }
        Form::Unop(UnOp::Not, a) => debug_disagreement(a, model, depth + 1),
        Form::Binop(BinOp::Implies, a, b) => {
            debug_disagreement(a, model, depth + 1);
            debug_disagreement(b, model, depth + 1);
        }
        _ => {}
    }
}

fn decode(grounder: &Grounder, model: &[bool], builder: &CnfBuilder, universe: u32) -> Model {
    let w = width(universe);
    let mut out = Model::new(universe);
    let bit = |idx: u32| builder.atom_value(model, idx);
    for (&name, &base) in &grounder.atoms.obj_vars {
        let id = (0..w as u32).find(|i| bit(base + i)).unwrap_or(0);
        out.interp.insert(name, Value::Obj(id));
    }
    for (&name, &base) in &grounder.atoms.set_vars {
        let set: BTreeSet<Key> = (0..w as u32)
            .filter(|i| bit(base + i))
            .map(Key::Obj)
            .collect();
        out.interp.insert(name, Value::Set(set));
    }
    for (&name, &base) in &grounder.atoms.bool_vars {
        out.interp.insert(name, Value::Bool(bit(base)));
    }
    for (&name, &base) in &grounder.atoms.field_vars {
        let table: Vec<u32> = (0..w)
            .map(|i| {
                (0..w as u32)
                    .find(|j| bit(base + (i as u32) * w as u32 + j))
                    .unwrap_or(0)
            })
            .collect();
        out.set_obj_field(name.as_str(), &table);
    }
    for (&name, &base) in &grounder.atoms.pred_vars {
        // obj => bool predicate as a table.
        let mut map = FxHashMap::default();
        for i in 0..w as u32 {
            map.insert(vec![Key::Obj(i)], Value::Bool(bit(base + i)));
        }
        out.interp.insert(
            name,
            Value::Fun(Rc::new(jahob_logic::model::FunV::Table {
                arity: 1,
                map,
                default: Box::new(Value::Bool(false)),
            })),
        );
    }
    out
}

/// Search for a counter-model of `goal` within the bound.
pub fn refute(
    goal: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    universe: u32,
) -> Result<Option<Model>, GroundError> {
    find_model(&Form::not(goal.clone()), sig, universe)
}

/// Budgeted [`refute`].
pub fn refute_budgeted(
    goal: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    universe: u32,
    budget: &Budget,
) -> Result<Option<Model>, ModelsFailure> {
    jahob_util::chaos::boundary("models.refute", budget).map_err(ModelsFailure::Exhausted)?;
    find_model_budgeted(&Form::not(goal.clone()), sig, universe, budget)
}

/// Verdict of the bounded-validity check.
#[derive(Clone, Debug)]
pub enum BmcVerdict {
    /// No counter-model up to the bound. For goals in the ground
    /// list-fragment this implies validity (small-model property); the
    /// bound is recorded so reports stay honest.
    ValidUpTo(u32),
    /// A genuine counter-model (verified by the reference evaluator).
    CounterModel(Box<Model>),
}

/// Heuristic small-model bound: number of distinct ground object-denoting
/// names plus slack for list positions the terms can distinguish.
pub fn small_model_bound(goal: &Form, sig: &FxHashMap<Symbol, Sort>) -> u32 {
    let mut count = 0u32;
    for v in goal.free_vars() {
        match sig.get(&v) {
            Some(Sort::Obj) => count += 1,
            Some(Sort::Set(_)) => count += 1,
            _ => {}
        }
    }
    (2 * count + 2).clamp(3, 8)
}

/// Bounded validity: refute up to the small-model bound.
pub fn bmc_valid(goal: &Form, sig: &FxHashMap<Symbol, Sort>) -> Result<BmcVerdict, GroundError> {
    let bound = small_model_bound(goal, sig);
    bmc_valid_with_bound(goal, sig, bound)
}

/// Bounded validity at an explicit bound.
pub fn bmc_valid_with_bound(
    goal: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    bound: u32,
) -> Result<BmcVerdict, GroundError> {
    match bmc_valid_with_bound_budgeted(goal, sig, bound, &Budget::unlimited()) {
        Ok(v) => Ok(v),
        Err(ModelsFailure::Fragment(e)) => Err(e),
        Err(ModelsFailure::Exhausted(_)) => unreachable!("unlimited budget"),
    }
}

/// Budgeted [`bmc_valid_with_bound`]: each universe size's model search
/// is one [`refute_budgeted`] call against the caller's budget, so a
/// deadline can stop the climb.
pub fn bmc_valid_with_bound_budgeted(
    goal: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    bound: u32,
    budget: &Budget,
) -> Result<BmcVerdict, ModelsFailure> {
    for universe in 1..=bound {
        if let Some(model) = refute_budgeted(goal, sig, universe, budget)? {
            return Ok(BmcVerdict::CounterModel(Box::new(model)));
        }
    }
    Ok(BmcVerdict::ValidUpTo(bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;

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

    fn has_model(src: &str, n: u32) -> bool {
        find_model(&form(src), &sig(), n)
            .unwrap_or_else(|e| panic!("{src:?}: {e}"))
            .is_some()
    }

    #[test]
    fn budget_stops_bounded_search() {
        let goal = form("x ~= null & y ~= null & z ~= null & x ~= y & y ~= z & x ~= z");
        let starved = Budget::with_fuel(1);
        assert_eq!(
            find_model_budgeted(&goal, &sig(), 3, &starved)
                .map(|m| m.is_some())
                .map_err(|e| matches!(e, ModelsFailure::Exhausted(Exhaustion::Fuel))),
            Err(true)
        );
        let roomy = Budget::with_fuel(50_000_000);
        assert_eq!(
            find_model_budgeted(&goal, &sig(), 3, &roomy).map(|m| m.is_some()),
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
    }

    /// Atoms allocated and closures built when grounding `src` at universe
    /// `n`.
    fn grounded(src: &str, n: u32) -> (u32, usize) {
        let s = sig();
        let mut grounder = Grounder::new(n, &s);
        grounder
            .bool_prop(&form(src), &FxHashMap::default())
            .unwrap_or_else(|e| panic!("{src:?}: {e}"));
        (grounder.atoms.next, grounder.closures.len())
    }

    #[test]
    fn equal_definitions_and_closures_are_grounded_once() {
        let reach = "rtrancl_pt (% a c. a..next = c) x y";
        assert_eq!(grounded(reach, 3), (48, 1));
        assert_eq!(
            grounded(&format!("{reach} & rtrancl_pt (% b d. b..next = d) y x"), 3),
            (48, 1)
        );
        // A repeated field read reuses its definitions; only `z` is new.
        assert_eq!(
            grounded("x..next = y & x..next = z", 3).0,
            grounded("x..next = y", 3).0 + 4
        );
    }

    #[test]
    fn closure_sharing_respects_quantifier_binders_and_fields() {
        // `has_model` blocks spurious models, so check the raw encoding too.
        let exact = |src: &str, n: u32| {
            let found = has_model(src, n);
            let s = sig();
            let (_, _, mut solver) = encode(&form(src), &s, n).unwrap();
            let sat = matches!(solver.solve(), SolveResult::Sat(_));
            assert_eq!(sat, found, "{src:?}: the encoding is not exact");
            found
        };
        // The edge names `o`, so each value of `o` has its own closure; one
        // shared across `o` would let `x` reach `y` through the last edge.
        assert!(!exact(
            "x ~= null & y ~= null & x ~= y & x..next = y & \
             (ALL o. rtrancl_pt (% a c. a..next = c & c ~= o) x y)",
            2
        ));
        assert!(exact(
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
        match bmc_valid(&form("x = y --> x..next = y..next"), &s).unwrap() {
            BmcVerdict::ValidUpTo(_) => {}
            BmcVerdict::CounterModel(m) => panic!("spurious counter-model {m:?}"),
        }
        // Invalid with a genuine counter-model.
        match bmc_valid(&form("x..next = y..next --> x = y"), &s).unwrap() {
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
        match bmc_valid_with_bound(&goal, &s, 4).unwrap() {
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
        let m = find_model(&f, &s, 3).unwrap().expect("satisfiable");
        assert_eq!(m.eval_bool(&f), Ok(true));
    }

    #[test]
    fn rejects_unboundable() {
        let s = sig();
        assert!(find_model(&form("card S = 2"), &s, 2).is_err());
        assert!(find_model(&form("k + 1 <= k2"), &s, 2).is_err());
    }
}
