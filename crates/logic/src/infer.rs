//! Sort inference and elaboration.
//!
//! Jahob's surface syntax overloads a few operators (`<=` is integer
//! comparison or subset, `-` is subtraction or set difference, `=` is
//! equality at any sort including `bool`, where it means "iff"). This module
//! infers sorts Hindley–Milner style (unification over [`Sort::Var`]) and
//! *elaborates* formulas so that downstream passes see unambiguous operators:
//!
//! * `Le` at a set sort becomes [`BinOp::Subseteq`],
//! * `Sub` at a set sort becomes [`BinOp::Diff`],
//! * `Eq` at `bool` becomes [`BinOp::Iff`],
//! * every binder receives a ground sort (unconstrained binders default to
//!   `obj`, the sort Jahob quantifiers range over when unannotated).
//!
//! Symbols not present in the signature are auto-declared with fresh sorts;
//! the dispatcher pre-declares all program symbols, so this fires for the
//! fresh symbols of verification conditions and in ad-hoc uses (tests, the
//! `prove` example CLI).
//!
//! Elaboration takes two passes over a formula. Inference unifies, and
//! records each overload decision and each unannotated binder's sort
//! variable in side tables, in the order it meets them. Finalization walks
//! the formula again in the same order, reads the decisions back, and
//! returns every subtree that does not change as it is.

use crate::form::sym::builtins;
use crate::form::{changed_copy, keep, BinOp, Form, UnOp};
use crate::parser::unknown_sort;
use crate::sort::{Sort, SortTable, UnifyError};
use jahob_util::{FxHashMap, Symbol};
use std::fmt;
use std::rc::Rc;

/// A sort-checking failure.
#[derive(Debug, Clone)]
pub enum SortError {
    /// Unification failure, with the offending subterm pretty-printed.
    Mismatch { term: String, error: UnifyError },
    /// A non-function term was applied to arguments.
    NotAFunction { term: String },
    /// `tree [...]` referenced a field that is not `obj => obj`.
    BadTreeField { field: Symbol },
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::Mismatch { term, error } => write!(f, "in `{term}`: {error}"),
            SortError::NotAFunction { term } => {
                write!(f, "`{term}` is applied to arguments but is not a function")
            }
            SortError::BadTreeField { field } => {
                write!(f, "`tree` field `{field}` must have sort obj => obj")
            }
        }
    }
}

impl std::error::Error for SortError {}

/// An operator whose meaning depends on the sort of its operands.
#[derive(Clone, Copy)]
enum Overloaded {
    /// `=`: `Iff` at `bool`, `Eq` elsewhere.
    Eq,
    /// `<=`: `Subseteq` at a set sort, `Le` elsewhere.
    Le,
    /// `-`: `Diff` at a set sort, `Sub` elsewhere.
    Sub,
}

impl Overloaded {
    fn of(op: BinOp) -> Option<Overloaded> {
        match op {
            BinOp::Eq => Some(Overloaded::Eq),
            BinOp::Le | BinOp::Subseteq => Some(Overloaded::Le),
            BinOp::Sub | BinOp::Diff => Some(Overloaded::Sub),
            _ => None,
        }
    }

    /// The operator at operand sort `sort`, whose outermost constructor is
    /// final (an unbound variable counts as the default `obj`).
    fn resolve(self, sort: &Sort) -> BinOp {
        match (self, sort) {
            (Overloaded::Eq, Sort::Bool) => BinOp::Iff,
            (Overloaded::Eq, _) => BinOp::Eq,
            (Overloaded::Le, Sort::Set(_)) => BinOp::Subseteq,
            (Overloaded::Le, _) => BinOp::Le,
            (Overloaded::Sub, Sort::Set(_)) => BinOp::Diff,
            (Overloaded::Sub, _) => BinOp::Sub,
        }
    }
}

/// One overload decision, recorded by inference in the order it meets the
/// overloaded operators (after their operands) and read back by
/// finalization in the same order.
#[derive(Clone, Copy)]
enum Decision {
    /// The operand sort's constructor was already known.
    Made(BinOp),
    /// Decided once all constraints are in, from this sort variable.
    Pending(u32),
}

/// A sort-inference context: a signature of known symbols plus a persistent
/// unification table, so constraints accumulate across multiple formulas
/// that mention the same symbols (e.g. all invariants of one class).
pub struct SortCx {
    sig: FxHashMap<Symbol, Sort>,
    table: SortTable,
    /// The current formula's overload decisions, in inference order.
    decisions: Vec<Decision>,
    /// The sort variables of the current formula's unannotated binders, in
    /// inference order.
    binders: Vec<u32>,
    /// Argument sorts of the applications being inferred (a stack).
    args: Vec<Sort>,
}

impl Default for SortCx {
    fn default() -> Self {
        Self::new()
    }
}

impl SortCx {
    /// A context primed with the builtin signature of the logic.
    pub fn new() -> Self {
        let b = builtins();
        let mut cx = SortCx {
            sig: FxHashMap::default(),
            table: SortTable::new(),
            decisions: Vec::new(),
            binders: Vec::new(),
            args: Vec::new(),
        };
        // rtrancl_pt : (obj => obj => bool) => obj => obj => bool
        cx.declare(
            b.rtrancl,
            Sort::Fun(
                vec![
                    Sort::Fun(vec![Sort::Obj, Sort::Obj], Box::new(Sort::Bool)),
                    Sort::Obj,
                    Sort::Obj,
                ],
                Box::new(Sort::Bool),
            ),
        );
        // Object.alloc : objset
        cx.declare(b.alloc, Sort::objset());
        // this : obj
        cx.declare(b.this, Sort::Obj);
        cx
    }

    /// Declare (or re-declare) a symbol's sort.
    pub fn declare(&mut self, name: Symbol, sort: Sort) {
        self.sig.insert(name, sort);
    }

    /// The resolved sort of a declared symbol, if known.
    pub fn sort_of(&self, name: Symbol) -> Option<Sort> {
        self.sig.get(&name).map(|s| self.table.resolve_default(s))
    }

    /// Snapshot of the whole signature with all sorts resolved (unconstrained
    /// variables defaulted). Passed along with verification conditions so
    /// provers can make sort-directed decisions.
    pub fn resolved_sig(&self) -> FxHashMap<Symbol, Sort> {
        self.sig
            .iter()
            .map(|(k, v)| (*k, self.table.resolve_default(v)))
            .collect()
    }

    /// Infer the sort of `form` and elaborate it. Returns the elaborated term
    /// and its (resolved) sort.
    pub fn infer(&mut self, form: &Form) -> Result<(Form, Sort), SortError> {
        let sort = self.infer_pass(form)?;
        Ok((self.finalized(form), self.table.resolve_default(&sort)))
    }

    /// Infer and require sort `bool` (the common case for specifications).
    pub fn check_bool(&mut self, form: &Form) -> Result<Form, SortError> {
        let sort = self.infer_pass(form)?;
        unify_at(&mut self.table, form, &sort, &Sort::Bool)?;
        Ok(self.finalized(form))
    }

    /// Pass 1 over a fresh formula: unification, recording the overload
    /// decisions and binder variables pass 2 reads back.
    fn infer_pass(&mut self, form: &Form) -> Result<Sort, SortError> {
        self.decisions.clear();
        self.binders.clear();
        self.args.clear();
        let mut env: Vec<(Symbol, Sort)> = Vec::new();
        self.infer_rec(form, &mut env)
    }

    /// Pass 2: `form` with its overloads resolved and its binders grounded.
    fn finalized(&self, form: &Form) -> Form {
        let mut at = Cursor::default();
        let out = self.finalize(form, &mut at).unwrap_or_else(|| form.clone());
        debug_assert_eq!(at.decision, self.decisions.len());
        debug_assert_eq!(at.binder, self.binders.len());
        out
    }

    fn unify(&mut self, at: &Form, a: &Sort, b: &Sort) -> Result<(), SortError> {
        unify_at(&mut self.table, at, a, b)
    }

    /// A fresh instance of a polymorphic builtin's sort, if `name` is one.
    fn instantiate(&mut self, name: Symbol) -> Option<Sort> {
        let b = builtins();
        if name == b.field_write {
            let a = self.table.fresh();
            Some(Sort::Fun(
                vec![Sort::field(a.clone()), Sort::Obj, a.clone()],
                Box::new(Sort::field(a)),
            ))
        } else if name == b.field_read {
            let a = self.table.fresh();
            Some(Sort::Fun(
                vec![Sort::field(a.clone()), Sort::Obj],
                Box::new(a),
            ))
        } else if name == b.array_read {
            let a = self.table.fresh();
            Some(Sort::Fun(
                vec![
                    Sort::Fun(vec![Sort::Obj, Sort::Int], Box::new(a.clone())),
                    Sort::Obj,
                    Sort::Int,
                ],
                Box::new(a),
            ))
        } else if name == b.array_write {
            let a = self.table.fresh();
            let arr = Sort::Fun(vec![Sort::Obj, Sort::Int], Box::new(a.clone()));
            Some(Sort::Fun(
                vec![arr.clone(), Sort::Obj, Sort::Int, a],
                Box::new(arr),
            ))
        } else {
            None
        }
    }

    /// The sort of symbol `name`: its binder's, a fresh instance of a
    /// polymorphic builtin, or its signature entry (declared with a fresh
    /// variable on first sight).
    fn lookup(&mut self, name: Symbol, env: &[(Symbol, Sort)]) -> Sort {
        if let Some((_, sort)) = env.iter().rev().find(|(binder, _)| *binder == name) {
            return sort.clone();
        }
        if let Some(sort) = self.instantiate(name) {
            return sort;
        }
        self.sig
            .entry(name)
            .or_insert_with(|| self.table.fresh())
            .clone()
    }

    /// The sorts of `binders`, unannotated ones as fresh variables recorded
    /// for pass 2, pushed onto `env`.
    fn bind(&mut self, binders: &[(Symbol, Sort)], env: &mut Vec<(Symbol, Sort)>) {
        for (name, sort) in binders {
            let sort = if *sort == unknown_sort() {
                let fresh = self.table.fresh();
                if let Sort::Var(v) = fresh {
                    self.binders.push(v);
                }
                fresh
            } else {
                sort.clone()
            };
            env.push((*name, sort));
        }
    }

    /// Record the overload decision for an operator whose operands have
    /// sort `deciding`.
    fn decide(&mut self, op: Overloaded, deciding: &Sort) {
        let decision = match self.table.shallow(deciding) {
            Sort::Var(v) => Decision::Pending(*v),
            known => Decision::Made(op.resolve(known)),
        };
        self.decisions.push(decision);
    }

    /// Pass 1: unification. Operands are inferred before their operator's
    /// overload is decided, and binders before their body; pass 2 walks
    /// the formula in the same order.
    fn infer_rec(&mut self, form: &Form, env: &mut Vec<(Symbol, Sort)>) -> Result<Sort, SortError> {
        match form {
            Form::Var(name) => Ok(self.lookup(*name, env)),
            Form::IntLit(_) => Ok(Sort::Int),
            Form::BoolLit(_) => Ok(Sort::Bool),
            Form::Null => Ok(Sort::Obj),
            Form::EmptySet => Ok(Sort::Set(Box::new(self.table.fresh()))),
            Form::FiniteSet(elems) => {
                let a = self.table.fresh();
                for e in elems {
                    let es = self.infer_rec(e, env)?;
                    self.unify(e, &es, &a)?;
                }
                Ok(Sort::Set(Box::new(a)))
            }
            Form::Unop(op, inner) => {
                let is = self.infer_rec(inner, env)?;
                let (req, out) = match op {
                    UnOp::Not => (Sort::Bool, Sort::Bool),
                    UnOp::Neg => (Sort::Int, Sort::Int),
                    UnOp::Card => (Sort::Set(Box::new(self.table.fresh())), Sort::Int),
                };
                self.unify(inner, &is, &req)?;
                Ok(out)
            }
            Form::And(parts) | Form::Or(parts) => {
                for p in parts {
                    let ps = self.infer_rec(p, env)?;
                    self.unify(p, &ps, &Sort::Bool)?;
                }
                Ok(Sort::Bool)
            }
            Form::Binop(op, lhs, rhs) => {
                let ls = self.infer_rec(lhs, env)?;
                let rs = self.infer_rec(rhs, env)?;
                match op {
                    BinOp::Implies | BinOp::Iff => {
                        self.unify(lhs, &ls, &Sort::Bool)?;
                        self.unify(rhs, &rs, &Sort::Bool)?;
                        Ok(Sort::Bool)
                    }
                    BinOp::Eq => {
                        self.unify(form, &ls, &rs)?;
                        self.decide(Overloaded::Eq, &ls);
                        Ok(Sort::Bool)
                    }
                    BinOp::Le | BinOp::Subseteq => {
                        self.unify(form, &ls, &rs)?;
                        self.decide(Overloaded::Le, &ls);
                        Ok(Sort::Bool)
                    }
                    BinOp::Sub | BinOp::Diff => {
                        self.unify(form, &ls, &rs)?;
                        self.decide(Overloaded::Sub, &ls);
                        Ok(ls)
                    }
                    BinOp::Elem => {
                        if let Sort::Set(elem) = self.table.shallow(&rs) {
                            let elem = elem.as_ref().clone();
                            self.unify(form, &elem, &ls)?;
                        } else {
                            self.unify(form, &rs, &Sort::Set(Box::new(ls)))?;
                        }
                        Ok(Sort::Bool)
                    }
                    BinOp::Lt => {
                        self.unify(lhs, &ls, &Sort::Int)?;
                        self.unify(rhs, &rs, &Sort::Int)?;
                        Ok(Sort::Bool)
                    }
                    BinOp::Add | BinOp::Mul => {
                        self.unify(lhs, &ls, &Sort::Int)?;
                        self.unify(rhs, &rs, &Sort::Int)?;
                        Ok(Sort::Int)
                    }
                    BinOp::Union | BinOp::Inter => {
                        let set = Sort::Set(Box::new(self.table.fresh()));
                        self.unify(lhs, &ls, &set)?;
                        self.unify(rhs, &rs, &set)?;
                        Ok(set)
                    }
                }
            }
            Form::App(head, args) => {
                let Form::Var(name) = **head else {
                    let hs = self.infer_rec(head, env)?;
                    let base = self.infer_args(args, env)?;
                    let ret = apply_sort(&mut self.table, form, &hs, &self.args[base..]);
                    self.args.truncate(base);
                    return ret;
                };
                // A symbol head (a field or function of the signature, the
                // common case) is looked up as `lookup` does, but applied
                // in place: its sort is never copied out of the signature.
                let base = self.infer_args(args, env)?;
                let instance;
                let sort = match env.iter().rev().find(|(binder, _)| *binder == name) {
                    Some((_, sort)) => sort,
                    None => match self.instantiate(name) {
                        Some(sort) => {
                            instance = sort;
                            &instance
                        }
                        None => self.sig.entry(name).or_insert_with(|| self.table.fresh()),
                    },
                };
                let ret = apply_sort(&mut self.table, form, sort, &self.args[base..]);
                self.args.truncate(base);
                ret
            }
            Form::Quant(_, binders, body) => {
                let depth = env.len();
                self.bind(binders, env);
                let bs = self.infer_rec(body, env);
                env.truncate(depth);
                self.unify(body, &bs?, &Sort::Bool)?;
                Ok(Sort::Bool)
            }
            Form::Lambda(binders, body) => {
                let depth = env.len();
                self.bind(binders, env);
                let bs = self.infer_rec(body, env);
                let sorts = env.drain(depth..).map(|(_, s)| s).collect();
                Ok(Sort::Fun(sorts, Box::new(bs?)))
            }
            Form::Compr(x, sort, body) => {
                let depth = env.len();
                self.bind(&[(*x, sort.clone())], env);
                let bs = self.infer_rec(body, env);
                let (_, xsort) = env.pop().expect("the comprehension's binder");
                debug_assert_eq!(env.len(), depth);
                self.unify(body, &bs?, &Sort::Bool)?;
                Ok(Sort::Set(Box::new(xsort)))
            }
            Form::Old(inner) => self.infer_rec(inner, env),
            Form::Ite(c, t, e) => {
                let cs = self.infer_rec(c, env)?;
                let ts = self.infer_rec(t, env)?;
                let es = self.infer_rec(e, env)?;
                self.unify(c, &cs, &Sort::Bool)?;
                self.unify(form, &ts, &es)?;
                Ok(ts)
            }
            Form::Tree(fields) => {
                for field in fields {
                    let fsort = self.infer_rec(field, env)?;
                    if self.table.unify(&fsort, &Sort::field(Sort::Obj)).is_err() {
                        return Err(SortError::BadTreeField {
                            field: Symbol::intern(&field.to_string()),
                        });
                    }
                }
                Ok(Sort::Bool)
            }
        }
    }

    /// Infer each argument and push its sort on the argument stack;
    /// returns where this application's arguments start.
    fn infer_args(
        &mut self,
        args: &[Form],
        env: &mut Vec<(Symbol, Sort)>,
    ) -> Result<usize, SortError> {
        let base = self.args.len();
        for a in args {
            let sort = self.infer_rec(a, env)?;
            self.args.push(sort);
        }
        Ok(base)
    }

    /// Pass 2: resolve overloads and ground binder sorts. `None` when
    /// `form` comes out unchanged, so unchanged subtrees are shared, not
    /// rebuilt.
    fn finalize(&self, form: &Form, at: &mut Cursor) -> Option<Form> {
        match form {
            Form::Var(_) | Form::IntLit(_) | Form::BoolLit(_) | Form::Null | Form::EmptySet => None,
            Form::Tree(fields) => self.finalize_all(fields, at).map(Form::Tree),
            Form::FiniteSet(elems) => self.finalize_all(elems, at).map(Form::FiniteSet),
            Form::And(parts) => self.finalize_all(parts, at).map(Form::And),
            Form::Or(parts) => self.finalize_all(parts, at).map(Form::Or),
            Form::Unop(op, inner) => self
                .finalize(inner, at)
                .map(|i| Form::Unop(*op, Rc::new(i))),
            Form::Old(inner) => self.finalize(inner, at).map(|i| Form::Old(Rc::new(i))),
            Form::Binop(op, lhs, rhs) => {
                let (l, r) = (self.finalize(lhs, at), self.finalize(rhs, at));
                let resolved = match Overloaded::of(*op) {
                    Some(overloaded) => {
                        let decision = self.decisions[at.decision];
                        at.decision += 1;
                        match decision {
                            Decision::Made(resolved) => resolved,
                            Decision::Pending(v) => {
                                overloaded.resolve(self.table.shallow(&Sort::Var(v)))
                            }
                        }
                    }
                    None => *op,
                };
                if resolved == *op && l.is_none() && r.is_none() {
                    return None;
                }
                Some(Form::Binop(resolved, keep(l, lhs), keep(r, rhs)))
            }
            Form::Ite(c, t, e) => {
                let (nc, nt) = (self.finalize(c, at), self.finalize(t, at));
                let ne = self.finalize(e, at);
                if nc.is_none() && nt.is_none() && ne.is_none() {
                    return None;
                }
                Some(Form::Ite(keep(nc, c), keep(nt, t), keep(ne, e)))
            }
            Form::App(head, args) => {
                let (nh, na) = (self.finalize(head, at), self.finalize_all(args, at));
                Form::rebuild_app(head, args, nh, na)
            }
            Form::Quant(_, binders, body) | Form::Lambda(binders, body) => {
                let nb = changed_copy(binders, |(name, sort)| {
                    self.finalize_sort(sort, at).map(|sort| (*name, sort))
                });
                let nbody = self.finalize(body, at);
                if nb.is_none() && nbody.is_none() {
                    return None;
                }
                let binders = nb.unwrap_or_else(|| binders.clone());
                Some(match form {
                    Form::Quant(kind, ..) => Form::Quant(*kind, binders, keep(nbody, body)),
                    _ => Form::Lambda(binders, keep(nbody, body)),
                })
            }
            Form::Compr(x, sort, body) => {
                let (ns, nbody) = (self.finalize_sort(sort, at), self.finalize(body, at));
                if ns.is_none() && nbody.is_none() {
                    return None;
                }
                Some(Form::Compr(
                    *x,
                    ns.unwrap_or_else(|| sort.clone()),
                    keep(nbody, body),
                ))
            }
        }
    }

    fn finalize_all(&self, forms: &[Form], at: &mut Cursor) -> Option<Vec<Form>> {
        changed_copy(forms, |f| self.finalize(f, at))
    }

    /// A binder's ground sort: an unannotated binder reads its variable
    /// back from pass 1. `None` when the sort is already ground.
    fn finalize_sort(&self, sort: &Sort, at: &mut Cursor) -> Option<Sort> {
        if *sort == unknown_sort() {
            let v = self.binders[at.binder];
            at.binder += 1;
            Some(self.table.resolve_default(&Sort::Var(v)))
        } else if sort.is_ground() {
            None
        } else {
            Some(self.table.resolve_default(sort))
        }
    }
}

/// Where pass 2 is in pass 1's side tables.
#[derive(Default)]
struct Cursor {
    decision: usize,
    binder: usize,
}

fn unify_at(table: &mut SortTable, at: &Form, a: &Sort, b: &Sort) -> Result<(), SortError> {
    table.unify(a, b).map_err(|error| SortError::Mismatch {
        term: at.to_string(),
        error,
    })
}

/// Apply a head sort to argument sorts, supporting partial application
/// and curried (`Fun` returning `Fun`) heads.
fn apply_sort(
    table: &mut SortTable,
    at: &Form,
    head: &Sort,
    args: &[Sort],
) -> Result<Sort, SortError> {
    if args.is_empty() {
        return Ok(head.clone());
    }
    // An uncurried function sort, the shape of every field and function
    // of a program's signature: unify parameter by parameter in place.
    if let Sort::Fun(params, ret) = head {
        let uncurried = matches!(**ret, Sort::Bool | Sort::Int | Sort::Obj | Sort::Set(_));
        if uncurried && params.len() >= args.len() {
            for (p, a) in params.iter().zip(args) {
                unify_at(table, at, p, a)?;
            }
            return Ok(if params.len() == args.len() {
                ret.as_ref().clone()
            } else {
                Sort::Fun(params[args.len()..].to_vec(), ret.clone())
            });
        }
    }
    match table.resolve(head) {
        Sort::Fun(params, ret) => {
            let (params, ret) = match flatten_fun(params, *ret) {
                Sort::Fun(p, r) => (p, *r),
                other => (vec![], other),
            };
            if params.len() < args.len() {
                return Err(SortError::NotAFunction {
                    term: at.to_string(),
                });
            }
            for (p, a) in params.iter().zip(args.iter()) {
                unify_at(table, at, p, a)?;
            }
            if params.len() == args.len() {
                Ok(ret)
            } else {
                Ok(Sort::Fun(params[args.len()..].to_vec(), Box::new(ret)))
            }
        }
        head @ Sort::Var(_) => {
            let ret = table.fresh();
            let expect = Sort::Fun(args.to_vec(), Box::new(ret.clone()));
            unify_at(table, at, &head, &expect)?;
            Ok(ret)
        }
        _ => Err(SortError::NotAFunction {
            term: at.to_string(),
        }),
    }
}

/// Flatten curried function sorts: `Fun([a], Fun([b], c))` → `Fun([a,b], c)`.
fn flatten_fun(mut params: Vec<Sort>, ret: Sort) -> Sort {
    let mut ret = ret;
    loop {
        match ret {
            Sort::Fun(more, inner) => {
                params.extend(more);
                ret = *inner;
            }
            other => return Sort::Fun(params, Box::new(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn elaborate(cx: &mut SortCx, src: &str) -> Form {
        let f = parse_form(src).unwrap();
        cx.check_bool(&f).unwrap_or_else(|e| panic!("{src:?}: {e}"))
    }

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn subset_elaborates_on_sets() {
        let mut cx = SortCx::new();
        cx.declare(s("S1"), Sort::objset());
        cx.declare(s("T1"), Sort::objset());
        let f = elaborate(&mut cx, "S1 <= T1");
        assert_eq!(
            f,
            Form::binop(BinOp::Subseteq, Form::v("S1"), Form::v("T1"))
        );
    }

    #[test]
    fn le_stays_on_ints() {
        let mut cx = SortCx::new();
        cx.declare(s("i1"), Sort::Int);
        cx.declare(s("j1"), Sort::Int);
        let f = elaborate(&mut cx, "i1 <= j1");
        assert_eq!(f, Form::binop(BinOp::Le, Form::v("i1"), Form::v("j1")));
    }

    #[test]
    fn le_defaults_to_int_when_unconstrained() {
        let mut cx = SortCx::new();
        // Unknown symbols, no other constraints: treat <= as integer.
        let f = elaborate(&mut cx, "u1 <= u2");
        assert_eq!(f, Form::binop(BinOp::Le, Form::v("u1"), Form::v("u2")));
    }

    #[test]
    fn eq_at_bool_becomes_iff() {
        let mut cx = SortCx::new();
        cx.declare(s("resultB"), Sort::Bool);
        cx.declare(s("contentE"), Sort::objset());
        let f = elaborate(&mut cx, "resultB = (contentE = {})");
        match &f {
            Form::Binop(BinOp::Iff, lhs, rhs) => {
                assert_eq!(lhs.as_ref(), &Form::v("resultB"));
                assert!(matches!(rhs.as_ref(), Form::Binop(BinOp::Eq, _, _)));
            }
            other => panic!("expected Iff, got {other:?}"),
        }
    }

    #[test]
    fn minus_elaborates_to_diff_on_sets() {
        let mut cx = SortCx::new();
        cx.declare(s("contentD"), Sort::objset());
        let f = elaborate(&mut cx, "contentD = old contentD - {o9}");
        match &f {
            Form::Binop(BinOp::Eq, _, rhs) => {
                assert!(matches!(rhs.as_ref(), Form::Binop(BinOp::Diff, _, _)));
            }
            other => panic!("expected Eq, got {other:?}"),
        }
        // The element variable picked up sort obj.
        assert_eq!(cx.sort_of(s("o9")), Some(Sort::Obj));
    }

    #[test]
    fn binders_grounded() {
        let mut cx = SortCx::new();
        cx.declare(s("nodesB"), Sort::objset());
        let f = elaborate(&mut cx, "ALL n. n : nodesB --> n ~= null");
        match &f {
            Form::Quant(_, binders, _) => assert_eq!(binders[0].1, Sort::Obj),
            other => panic!("expected ALL, got {other:?}"),
        }
    }

    #[test]
    fn unconstrained_binder_defaults_to_obj() {
        let mut cx = SortCx::new();
        let f = elaborate(&mut cx, "ALL z. z = z");
        match &f {
            Form::Quant(_, binders, _) => assert_eq!(binders[0].1, Sort::Obj),
            other => panic!("expected ALL, got {other:?}"),
        }
    }

    #[test]
    fn figure3_nodes_vardef_sorts() {
        let mut cx = SortCx::new();
        cx.declare(s("Node.next"), Sort::field(Sort::Obj));
        cx.declare(s("first"), Sort::Obj);
        let f =
            parse_form("{ n. n ~= null & rtrancl_pt (% x y. x..Node.next = y) first n}").unwrap();
        let (elab, sort) = cx.infer(&f).unwrap();
        assert_eq!(sort, Sort::objset());
        match &elab {
            Form::Compr(_, binder_sort, _) => assert_eq!(*binder_sort, Sort::Obj),
            other => panic!("expected comprehension, got {other:?}"),
        }
    }

    #[test]
    fn figure3_content_vardef_sorts() {
        let mut cx = SortCx::new();
        cx.declare(s("Node.data"), Sort::field(Sort::Obj));
        cx.declare(s("nodesC"), Sort::objset());
        let f = parse_form("{x. EX n. x = n..Node.data & n : nodesC}").unwrap();
        let (_, sort) = cx.infer(&f).unwrap();
        assert_eq!(sort, Sort::objset());
    }

    #[test]
    fn tree_requires_obj_fields() {
        let mut cx = SortCx::new();
        cx.declare(s("List.first2"), Sort::field(Sort::Obj));
        cx.declare(s("Node.next2"), Sort::field(Sort::Obj));
        let f = parse_form("tree [List.first2, Node.next2]").unwrap();
        assert!(cx.check_bool(&f).is_ok());

        let mut cx2 = SortCx::new();
        cx2.declare(s("badfield"), Sort::field(Sort::Int));
        let g = parse_form("tree [badfield]").unwrap();
        assert!(cx2.check_bool(&g).is_err());
    }

    #[test]
    fn sort_errors_reported() {
        let mut cx = SortCx::new();
        cx.declare(s("iv"), Sort::Int);
        cx.declare(s("sv"), Sort::objset());
        let f = parse_form("iv = sv").unwrap();
        assert!(cx.check_bool(&f).is_err());
        // Applying a non-function.
        let g = parse_form("5 6").unwrap();
        assert!(cx.check_bool(&g).is_err());
    }

    #[test]
    fn field_write_polymorphic() {
        let mut cx = SortCx::new();
        cx.declare(s("Node.nextW"), Sort::field(Sort::Obj));
        cx.declare(s("n1w"), Sort::Obj);
        cx.declare(s("n2w"), Sort::Obj);
        let f = parse_form("fieldWrite Node.nextW n1w n2w n1w = n2w").unwrap();
        // (fieldWrite next n1 n2) n1 = n2 : the updated function applied.
        assert!(cx.check_bool(&f).is_ok());
    }

    #[test]
    fn signature_constraints_accumulate() {
        let mut cx = SortCx::new();
        // First formula forces `mystery` to objset...
        elaborate(&mut cx, "x1m : mystery");
        // ...so the second elaborates <= as subset.
        cx.declare(s("othera"), Sort::objset());
        let f = elaborate(&mut cx, "mystery <= othera");
        assert!(matches!(f, Form::Binop(BinOp::Subseteq, _, _)));
        assert_eq!(cx.sort_of(s("mystery")), Some(Sort::objset()));
    }

    #[test]
    fn card_forces_set() {
        let mut cx = SortCx::new();
        let f = elaborate(&mut cx, "card freshset <= 3");
        assert!(matches!(f, Form::Binop(BinOp::Le, _, _)));
        assert!(matches!(cx.sort_of(s("freshset")), Some(Sort::Set(_))));
    }

    #[test]
    fn unchanged_subtrees_are_shared() {
        let mut cx = SortCx::new();
        cx.declare(s("flagU"), Sort::Bool);
        let f = parse_form("(i2u < j2u --> k2u < i2u) & flagU = (i2u < 3)").unwrap();
        let e = cx.check_bool(&f).unwrap();
        let (Form::And(before), Form::And(after)) = (&f, &e) else {
            panic!("expected conjunctions, got {e:?}");
        };
        // The first conjunct needs no elaboration and comes back as it
        // was parsed, its subterms shared; only `=` at bool changes.
        match (&before[0], &after[0]) {
            (Form::Binop(_, l1, r1), Form::Binop(_, l2, r2)) => {
                assert!(Rc::ptr_eq(l1, l2) && Rc::ptr_eq(r1, r2));
            }
            other => panic!("expected implications, got {other:?}"),
        }
        assert!(matches!(&after[1], Form::Binop(BinOp::Iff, _, _)));
    }

    #[test]
    fn ite_branches_unify() {
        let mut cx = SortCx::new();
        let t = Form::Ite(
            Rc::new(Form::v("c_it")),
            Rc::new(Form::IntLit(1)),
            Rc::new(Form::IntLit(2)),
        );
        let (_, sort) = cx.infer(&t).unwrap();
        assert_eq!(sort, Sort::Int);
        assert_eq!(cx.sort_of(s("c_it")), Some(Sort::Bool));
    }
}
