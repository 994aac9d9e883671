//! The term AST of the specification logic.
//!
//! A single [`Form`] type represents both formulas (boolean-sorted terms) and
//! terms of other sorts, as in HOL. Structural sharing uses `Rc`; all
//! operations are pure and return new terms.
//!
//! Rewrite passes share what they leave alone: a pass returns `None` for a
//! subtree it does not change, so the parent keeps that subtree's `Rc`s
//! ([`Form::map_children`]) and a pass allocates only along the path to an
//! actual rewrite. Read-only walks visit the same children in the same
//! order through [`Form::children`]. Either way a walk spells out only the
//! variants it treats specially.
//!
//! Two interpreted higher-order symbols are kept as ordinary applications and
//! recognized by name throughout the workspace:
//!
//! * `rtrancl_pt p a b` — reflexive transitive closure of the binary
//!   predicate `p` relates `a` to `b` (used by abstraction functions to define
//!   reachability along `next` fields),
//! * `fieldWrite f x v` — the function `f` updated at `x` to `v` (introduced
//!   by the VC generator for heap assignments), and its read-side companion
//!   `fieldRead f x` (≡ `f x`, kept applied),
//! * `arrayRead a i` / `arrayWrite a i v` — one-dimensional array access.

use crate::sort::Sort;
use jahob_util::{FxHashMap, FxHashSet, Symbol};
use std::rc::Rc;

/// Quantifier kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QKind {
    /// Universal, `ALL x. P`.
    All,
    /// Existential, `EX x. P`.
    Ex,
}

impl QKind {
    /// The dual quantifier.
    pub fn dual(self) -> QKind {
        match self {
            QKind::All => QKind::Ex,
            QKind::Ex => QKind::All,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation `~`.
    Not,
    /// Integer negation.
    Neg,
    /// Set cardinality `card S`.
    Card,
}

/// Binary operators.
///
/// `Le` and `Sub` are produced by the parser for both the integer and the set
/// readings of `<=` and `-`; sort elaboration ([`crate::infer`]) rewrites the
/// set readings into `Subseteq` and `Diff`, and `Eq` between booleans into
/// `Iff`, so downstream passes see unambiguous operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Implication `-->` (right associative).
    Implies,
    /// Boolean equivalence (written `=` at sort `bool` in the surface syntax).
    Iff,
    /// Equality at any sort.
    Eq,
    /// Set membership `x : S`.
    Elem,
    /// `<` on integers.
    Lt,
    /// `<=`: integers before elaboration; may elaborate to [`BinOp::Subseteq`].
    Le,
    /// Subset-or-equal on sets (elaborated form of `<=`).
    Subseteq,
    /// Integer addition.
    Add,
    /// `-`: integer subtraction before elaboration; may elaborate to
    /// [`BinOp::Diff`].
    Sub,
    /// Integer multiplication (linear uses only in the decidable fragments).
    Mul,
    /// Set union `Un`.
    Union,
    /// Set intersection `Int`.
    Inter,
    /// Set difference (elaborated form of `-`).
    Diff,
}

/// A term of the logic.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Form {
    /// A variable or uninterpreted constant/function symbol, referenced by
    /// interned name. Qualified names like `List.content` or `Node.next` are
    /// single symbols.
    Var(Symbol),
    /// Integer literal.
    IntLit(i64),
    /// `True` / `False`.
    BoolLit(bool),
    /// The null object.
    Null,
    /// The empty set `{}` (element sort resolved by inference).
    EmptySet,
    /// A finite set display `{e1, ..., en}` (non-empty; `{}` is
    /// [`Form::EmptySet`]).
    FiniteSet(Vec<Form>),
    /// Unary operator application.
    Unop(UnOp, Rc<Form>),
    /// Binary operator application.
    Binop(BinOp, Rc<Form>, Rc<Form>),
    /// N-ary conjunction. `And(vec![])` is `True`.
    And(Vec<Form>),
    /// N-ary disjunction. `Or(vec![])` is `False`.
    Or(Vec<Form>),
    /// Application `f a1 ... an` of a (usually variable) head to arguments.
    App(Rc<Form>, Vec<Form>),
    /// `ALL`/`EX` quantification over one or more sorted binders.
    Quant(QKind, Vec<(Symbol, Sort)>, Rc<Form>),
    /// Lambda abstraction `% x y. e`.
    Lambda(Vec<(Symbol, Sort)>, Rc<Form>),
    /// Set comprehension `{x. P}`.
    Compr(Symbol, Sort, Rc<Form>),
    /// `old e` — the value of `e` in the method pre-state. Eliminated by the
    /// VC generator before formulas reach any prover.
    Old(Rc<Form>),
    /// If-then-else at any sort (introduced by the VC generator).
    Ite(Rc<Form>, Rc<Form>, Rc<Form>),
    /// The `tree [f1, ..., fn]` backbone predicate: the given field *terms*
    /// (each `obj => obj`) form a forest (acyclic, no sharing). Holding
    /// terms rather than names lets field updates (`fieldWrite`) flow into
    /// the invariant under weakest preconditions.
    Tree(Vec<Form>),
}

impl Form {
    // ---- smart constructors -------------------------------------------------

    /// `True`.
    pub fn tt() -> Form {
        Form::BoolLit(true)
    }

    /// `False`.
    pub fn ff() -> Form {
        Form::BoolLit(false)
    }

    /// Negation with double-negation and literal collapsing.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Form) -> Form {
        match f {
            Form::BoolLit(b) => Form::BoolLit(!b),
            Form::Unop(UnOp::Not, inner) => inner.as_ref().clone(),
            other => Form::Unop(UnOp::Not, Rc::new(other)),
        }
    }

    /// Flattening n-ary conjunction; drops `True`, collapses on `False`.
    pub fn and(conjuncts: Vec<Form>) -> Form {
        let mut out = Vec::with_capacity(conjuncts.len());
        for c in conjuncts {
            match c {
                Form::BoolLit(true) => {}
                Form::BoolLit(false) => return Form::ff(),
                Form::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Form::tt(),
            1 => out.pop().unwrap(),
            _ => Form::And(out),
        }
    }

    /// Flattening n-ary disjunction; drops `False`, collapses on `True`.
    pub fn or(disjuncts: Vec<Form>) -> Form {
        let mut out = Vec::with_capacity(disjuncts.len());
        for d in disjuncts {
            match d {
                Form::BoolLit(false) => {}
                Form::BoolLit(true) => return Form::tt(),
                Form::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Form::ff(),
            1 => out.pop().unwrap(),
            _ => Form::Or(out),
        }
    }

    /// Implication with trivial-case collapsing.
    pub fn implies(lhs: Form, rhs: Form) -> Form {
        match (&lhs, &rhs) {
            (Form::BoolLit(true), _) => rhs,
            (Form::BoolLit(false), _) => Form::tt(),
            (_, Form::BoolLit(true)) => Form::tt(),
            (_, Form::BoolLit(false)) => Form::not(lhs),
            _ => Form::Binop(BinOp::Implies, Rc::new(lhs), Rc::new(rhs)),
        }
    }

    /// Equivalence.
    pub fn iff(lhs: Form, rhs: Form) -> Form {
        Form::Binop(BinOp::Iff, Rc::new(lhs), Rc::new(rhs))
    }

    /// Equality; collapses syntactically identical sides to `True`.
    pub fn eq(lhs: Form, rhs: Form) -> Form {
        if lhs == rhs {
            return Form::tt();
        }
        Form::Binop(BinOp::Eq, Rc::new(lhs), Rc::new(rhs))
    }

    /// Disequality.
    pub fn ne(lhs: Form, rhs: Form) -> Form {
        Form::not(Form::eq(lhs, rhs))
    }

    /// Set membership `x : s`.
    pub fn elem(x: Form, s: Form) -> Form {
        Form::Binop(BinOp::Elem, Rc::new(x), Rc::new(s))
    }

    /// Binary operator, no simplification.
    pub fn binop(op: BinOp, lhs: Form, rhs: Form) -> Form {
        Form::Binop(op, Rc::new(lhs), Rc::new(rhs))
    }

    /// Application; flattens nested applications and vanishes on zero args.
    pub fn app(head: Form, mut args: Vec<Form>) -> Form {
        if args.is_empty() {
            return head;
        }
        match head {
            Form::App(inner_head, mut inner_args) => {
                inner_args.append(&mut args);
                Form::App(inner_head, inner_args)
            }
            other => Form::App(Rc::new(other), args),
        }
    }

    /// `ALL binders. body` (no-op when `binders` is empty).
    pub fn forall(binders: Vec<(Symbol, Sort)>, body: Form) -> Form {
        Form::quant(QKind::All, binders, body)
    }

    /// `EX binders. body` (no-op when `binders` is empty).
    pub fn exists(binders: Vec<(Symbol, Sort)>, body: Form) -> Form {
        Form::quant(QKind::Ex, binders, body)
    }

    /// Quantification; merges directly nested same-kind quantifiers.
    pub fn quant(kind: QKind, mut binders: Vec<(Symbol, Sort)>, body: Form) -> Form {
        if binders.is_empty() {
            return body;
        }
        match body {
            Form::Quant(inner_kind, inner_binders, inner_body) if inner_kind == kind => {
                binders.extend(inner_binders);
                Form::Quant(kind, binders, inner_body)
            }
            other => Form::Quant(kind, binders, Rc::new(other)),
        }
    }

    /// A named variable.
    pub fn v(name: &str) -> Form {
        Form::Var(Symbol::intern(name))
    }

    /// Integer literal.
    pub fn int(value: i64) -> Form {
        Form::IntLit(value)
    }

    /// `card s`.
    pub fn card(s: Form) -> Form {
        Form::Unop(UnOp::Card, Rc::new(s))
    }

    /// `rtrancl_pt p a b`.
    pub fn rtrancl(p: Form, a: Form, b: Form) -> Form {
        Form::app(Form::v(sym::RTRANCL), vec![p, a, b])
    }

    /// `fieldWrite f x v`.
    pub fn field_write(f: Form, x: Form, v: Form) -> Form {
        Form::app(Form::v(sym::FIELD_WRITE), vec![f, x, v])
    }

    // ---- queries ------------------------------------------------------------

    /// Is this term an application whose head is the named symbol? Returns the
    /// arguments if so.
    pub fn as_app_of(&self, name: Symbol) -> Option<&[Form]> {
        if let Form::App(head, args) = self {
            if let Form::Var(sym) = head.as_ref() {
                if *sym == name {
                    return Some(args);
                }
            }
        }
        None
    }

    /// Free variables (symbols not bound by an enclosing binder).
    pub fn free_vars(&self) -> FxHashSet<Symbol> {
        let mut free = FxHashSet::default();
        let mut bound = Vec::new();
        self.collect_free(&mut bound, &mut free);
        free
    }

    fn collect_free(&self, bound: &mut Vec<Symbol>, free: &mut FxHashSet<Symbol>) {
        let depth = bound.len();
        match self {
            Form::Var(s) if !bound.contains(s) => {
                free.insert(*s);
            }
            Form::Quant(_, binders, _) | Form::Lambda(binders, _) => {
                bound.extend(binders.iter().map(|(s, _)| *s));
            }
            Form::Compr(x, _, _) => bound.push(*x),
            _ => {}
        }
        self.children()
            .for_each(|child| child.collect_free(bound, free));
        bound.truncate(depth);
    }

    /// Capture-avoiding simultaneous substitution of free variables.
    pub fn subst(&self, map: &FxHashMap<Symbol, Form>) -> Form {
        self.subst_changed(map, false)
            .unwrap_or_else(|| self.clone())
    }

    /// [`Form::subst`] that stops at `old e`: pre-state expressions stay
    /// frozen while weakest preconditions substitute the current state,
    /// until the VC generator dissolves `old` at the method entry.
    pub fn subst_outside_old(&self, map: &FxHashMap<Symbol, Form>) -> Form {
        self.subst_changed(map, true)
            .unwrap_or_else(|| self.clone())
    }

    /// The substitution as a rewrite: `None` when it leaves the term
    /// unchanged, and otherwise a term that shares every untouched subtree
    /// with this one. `stop_at_old` leaves `old e` as it is. A binder that
    /// would capture a free variable of a replacement that can still be
    /// substituted under it is renamed apart, whether or not that
    /// replacement occurs.
    pub(crate) fn subst_changed(
        &self,
        map: &FxHashMap<Symbol, Form>,
        stop_at_old: bool,
    ) -> Option<Form> {
        if map.is_empty() {
            return None;
        }
        let mut frees = FxHashSet::default();
        for replacement in map.values() {
            replacement.collect_free(&mut Vec::new(), &mut frees);
        }
        Subst {
            map,
            frees,
            scope: Vec::new(),
            stop_at_old,
        }
        .go(self)
    }

    /// Substitute a single variable.
    pub fn subst1(&self, var: Symbol, replacement: &Form) -> Form {
        let mut map = FxHashMap::default();
        map.insert(var, replacement.clone());
        self.subst(&map)
    }

    /// Count of AST nodes (for prover triage heuristics and benchmarks). A
    /// `tree [...]` atom counts as one node, whatever its fields.
    pub fn size(&self) -> usize {
        match self {
            Form::Tree(_) => 1,
            _ => 1 + self.children().map(Form::size).sum::<usize>(),
        }
    }

    /// Does `old` occur anywhere in the term?
    pub fn contains_old(&self) -> bool {
        matches!(self, Form::Old(_)) || self.children().any(Form::contains_old)
    }

    /// Does `name` occur free in the term?
    pub fn occurs_free(&self, name: Symbol) -> bool {
        match self {
            Form::Var(s) => *s == name,
            Form::Quant(_, binders, _) | Form::Lambda(binders, _)
                if binders.iter().any(|(b, _)| *b == name) =>
            {
                false
            }
            Form::Compr(x, _, _) if *x == name => false,
            _ => self.children().any(|child| child.occurs_free(name)),
        }
    }

    /// The children of this node, left to right, in the order
    /// [`Form::map_children`] visits them: an application's head before
    /// its arguments, a binder's body (binder lists are not children).
    /// Consume it with a folding adaptor (`for_each`, `any`, `sum`): a
    /// `for` loop steps the chained iterator one `next` at a time, which
    /// measured slower on `free_vars`.
    pub fn children(&self) -> impl Iterator<Item = &Form> {
        let (fixed, listed): ([Option<&Rc<Form>>; 3], &[Form]) = match self {
            Form::Var(_) | Form::IntLit(_) | Form::BoolLit(_) | Form::Null | Form::EmptySet => {
                ([None, None, None], &[])
            }
            Form::FiniteSet(elems) | Form::And(elems) | Form::Or(elems) | Form::Tree(elems) => {
                ([None, None, None], elems)
            }
            Form::Unop(_, a)
            | Form::Old(a)
            | Form::Quant(_, _, a)
            | Form::Lambda(_, a)
            | Form::Compr(_, _, a) => ([Some(a), None, None], &[]),
            Form::Binop(_, a, b) => ([Some(a), Some(b), None], &[]),
            Form::Ite(c, t, e) => ([Some(c), Some(t), Some(e)], &[]),
            Form::App(head, args) => ([Some(head), None, None], args),
        };
        fixed.into_iter().flatten().map(Rc::as_ref).chain(listed)
    }

    // ---- rewriting with sharing ---------------------------------------------

    /// This node rebuilt around its children rewritten by `f`, which
    /// returns `None` for a child it leaves unchanged; binder lists are
    /// kept, and children are visited left to right. Conjunctions,
    /// disjunctions and applications are rebuilt by their flattening
    /// constructors ([`Form::and`], [`Form::or`], [`Form::app`]), so a node
    /// not in their shape (a nested `And`, a `True` conjunct, an
    /// application of an application) comes back rewritten even when no
    /// child changed. `None` when nothing changed.
    pub fn map_children(&self, mut f: impl FnMut(&Form) -> Option<Form>) -> Option<Form> {
        match self {
            Form::Var(_) | Form::IntLit(_) | Form::BoolLit(_) | Form::Null | Form::EmptySet => None,
            Form::Tree(elems) => changed_copy(elems, f).map(Form::Tree),
            Form::FiniteSet(elems) => changed_copy(elems, f).map(Form::FiniteSet),
            Form::And(_) | Form::Or(_) => self.rebuild_junction(f),
            Form::Unop(op, a) => f(a).map(|a| Form::Unop(*op, Rc::new(a))),
            Form::Old(a) => f(a).map(|a| Form::Old(Rc::new(a))),
            Form::Binop(op, a, b) => {
                let (na, nb) = (f(a), f(b));
                if na.is_none() && nb.is_none() {
                    return None;
                }
                Some(Form::Binop(*op, keep(na, a), keep(nb, b)))
            }
            Form::Ite(c, t, e) => {
                let (nc, nt) = (f(c), f(t));
                let ne = f(e);
                if nc.is_none() && nt.is_none() && ne.is_none() {
                    return None;
                }
                Some(Form::Ite(keep(nc, c), keep(nt, t), keep(ne, e)))
            }
            Form::App(head, args) => {
                let nh = f(head);
                Form::rebuild_app(head, args, nh, changed_copy(args, f))
            }
            Form::Quant(kind, binders, body) => {
                f(body).map(|b| Form::Quant(*kind, binders.clone(), Rc::new(b)))
            }
            Form::Lambda(binders, body) => {
                f(body).map(|b| Form::Lambda(binders.clone(), Rc::new(b)))
            }
            Form::Compr(x, sort, body) => {
                f(body).map(|b| Form::Compr(*x, sort.clone(), Rc::new(b)))
            }
        }
    }

    /// A conjunction or disjunction rebuilt around its parts rewritten by
    /// `f`, through its flattening constructor; `None` when no part changed
    /// and the constructor would return the node as it is.
    fn rebuild_junction(&self, f: impl FnMut(&Form) -> Option<Form>) -> Option<Form> {
        let (parts, smart): (_, fn(Vec<Form>) -> Form) = match self {
            Form::And(parts) => (parts, Form::and),
            Form::Or(parts) => (parts, Form::or),
            _ => unreachable!("rebuild_junction on {self:?}"),
        };
        if let Some(parts) = changed_copy(parts, f) {
            return Some(smart(parts));
        }
        let flattens = |part: &Form| {
            matches!(
                (self, part),
                (_, Form::BoolLit(_)) | (Form::And(_), Form::And(_)) | (Form::Or(_), Form::Or(_))
            )
        };
        (parts.len() < 2 || parts.iter().any(flattens)).then(|| smart(parts.clone()))
    }

    /// `~inner` after `inner` was rewritten to `new` (`None`: unchanged),
    /// rebuilt as [`Form::not`] builds it; `None` when that is the node
    /// `~inner` itself.
    pub fn rebuild_not(inner: &Rc<Form>, new: Option<Form>) -> Option<Form> {
        match new.as_ref().unwrap_or(inner) {
            Form::BoolLit(b) => Some(Form::BoolLit(!b)),
            Form::Unop(UnOp::Not, x) => Some(x.as_ref().clone()),
            _ => new.map(|n| Form::Unop(UnOp::Not, Rc::new(n))),
        }
    }

    /// `head args` after its parts were rewritten to `new_head` and
    /// `new_args` (`None`: unchanged), rebuilt as [`Form::app`] builds it;
    /// `None` when that is the node `head args` itself.
    pub(crate) fn rebuild_app(
        head: &Rc<Form>,
        args: &[Form],
        new_head: Option<Form>,
        new_args: Option<Vec<Form>>,
    ) -> Option<Form> {
        if args.is_empty() || matches!(new_head.as_ref().unwrap_or(head), Form::App(..)) {
            let head = new_head.unwrap_or_else(|| head.as_ref().clone());
            return Some(Form::app(head, new_args.unwrap_or_else(|| args.to_vec())));
        }
        if new_head.is_none() && new_args.is_none() {
            return None;
        }
        Some(Form::App(
            keep(new_head, head),
            new_args.unwrap_or_else(|| args.to_vec()),
        ))
    }
}

/// The rewritten subtree, or the original's `Rc` when it came out
/// unchanged.
pub fn keep(new: Option<Form>, old: &Rc<Form>) -> Rc<Form> {
    new.map_or_else(|| Rc::clone(old), Rc::new)
}

/// `items` with `f` applied, copied only once some item changes; `None`
/// when `f` changes none (`f` returns `None` for an unchanged item).
pub(crate) fn changed_copy<T: Clone>(
    items: &[T],
    mut f: impl FnMut(&T) -> Option<T>,
) -> Option<Vec<T>> {
    let mut out: Option<Vec<T>> = None;
    for (i, item) in items.iter().enumerate() {
        match (f(item), &mut out) {
            (Some(new), Some(out)) => out.push(new),
            (Some(new), None) => {
                let mut changed = Vec::with_capacity(items.len());
                changed.extend_from_slice(&items[..i]);
                changed.push(new);
                out = Some(changed);
            }
            (None, Some(out)) => out.push(item.clone()),
            (None, None) => {}
        }
    }
    out
}

/// One capture-avoiding substitution in progress ([`Form::subst_changed`]).
struct Subst<'m> {
    map: &'m FxHashMap<Symbol, Form>,
    /// The free variables of every replacement: no other binder can
    /// capture one.
    frees: FxHashSet<Symbol>,
    /// The enclosing binders, innermost last, each with the fresh name it
    /// was renamed to, if it was.
    scope: Vec<(Symbol, Option<Symbol>)>,
    stop_at_old: bool,
}

impl Subst<'_> {
    fn go(&mut self, form: &Form) -> Option<Form> {
        match form {
            Form::Var(s) => match self.scope.iter().rev().find(|(bound, _)| bound == s) {
                Some((_, renamed)) => renamed.map(Form::Var),
                None => self
                    .map
                    .get(s)
                    .filter(|r| !matches!(r, Form::Var(v) if v == s))
                    .cloned(),
            },
            Form::Old(_) if self.stop_at_old => None,
            Form::Quant(kind, binders, body) => {
                let (names, body) = self.under(binders.iter().map(|(b, _)| *b), body)?;
                Some(Form::Quant(*kind, renamed(binders, names), body))
            }
            Form::Lambda(binders, body) => {
                let (names, body) = self.under(binders.iter().map(|(b, _)| *b), body)?;
                Some(Form::Lambda(renamed(binders, names), body))
            }
            Form::Compr(x, sort, body) => {
                let (names, body) = self.under(std::iter::once(*x), body)?;
                Some(Form::Compr(names.map_or(*x, |n| n[0]), sort.clone(), body))
            }
            _ => form.map_children(|child| self.go(child)),
        }
    }

    /// Substitute under a binder list: each binder that would capture a
    /// free variable of a replacement still live here is renamed to a
    /// fresh name, in order; the list then shadows the map for the body.
    /// Returns the new binder names (`None` when none was renamed) and the
    /// body; `None` when neither changed.
    fn under(
        &mut self,
        names: impl Iterator<Item = Symbol>,
        body: &Rc<Form>,
    ) -> Option<(Option<Vec<Symbol>>, Rc<Form>)> {
        let depth = self.scope.len();
        let mut any_renamed = false;
        for name in names {
            let fresh = self.captures(name, depth).then(|| Symbol::fresh(name));
            any_renamed |= fresh.is_some();
            self.scope.push((name, fresh));
        }
        let new_body = if self.live() { self.go(body) } else { None };
        let names = any_renamed.then(|| {
            self.scope[depth..]
                .iter()
                .map(|(name, fresh)| fresh.unwrap_or(*name))
                .collect()
        });
        self.scope.truncate(depth);
        if names.is_none() && new_body.is_none() {
            return None;
        }
        Some((names, keep(new_body, body)))
    }

    /// Would a binder `name`, entered with `scope[..depth]` around it,
    /// capture a free variable of a replacement not shadowed there?
    fn captures(&self, name: Symbol, depth: usize) -> bool {
        self.frees.contains(&name)
            && self.map.iter().any(|(key, replacement)| {
                self.scope[..depth].iter().all(|(bound, _)| bound != key)
                    && replacement.occurs_free(name)
            })
    }

    /// Can anything still be substituted under the current scope: a key
    /// no binder shadows, or a renamed binder no inner binder shadows?
    fn live(&self) -> bool {
        self.map
            .keys()
            .any(|key| self.scope.iter().all(|(bound, _)| bound != key))
            || self.scope.iter().enumerate().any(|(i, (bound, fresh))| {
                fresh.is_some() && self.scope[i + 1..].iter().all(|(inner, _)| inner != bound)
            })
    }
}

/// `binders` under the names [`Subst::under`] gave them.
fn renamed(binders: &[(Symbol, Sort)], names: Option<Vec<Symbol>>) -> Vec<(Symbol, Sort)> {
    match names {
        None => binders.to_vec(),
        Some(names) => names
            .into_iter()
            .zip(binders)
            .map(|(name, (_, sort))| (name, sort.clone()))
            .collect(),
    }
}

/// Well-known interpreted symbol names.
pub mod sym {
    /// Reflexive-transitive closure of a binary predicate.
    pub const RTRANCL: &str = "rtrancl_pt";
    /// Heap function update.
    pub const FIELD_WRITE: &str = "fieldWrite";
    /// Explicit heap function read (normally plain application is used).
    pub const FIELD_READ: &str = "fieldRead";
    /// Array read.
    pub const ARRAY_READ: &str = "arrayRead";
    /// Array write.
    pub const ARRAY_WRITE: &str = "arrayWrite";
    /// The set of allocated objects (`Object.alloc` in annotations).
    pub const ALLOC: &str = "Object.alloc";
    /// The method result pseudo-variable in `ensures` clauses.
    pub const RESULT: &str = "result";
    /// The receiver pseudo-variable.
    pub const THIS: &str = "this";

    use jahob_util::Symbol;
    use std::sync::OnceLock;

    /// The interpreted symbols passes match on, interned once, so a match
    /// compares symbols instead of taking the interner's lock for a string.
    pub struct Builtins {
        pub field_write: Symbol,
        pub field_read: Symbol,
        pub array_read: Symbol,
        pub array_write: Symbol,
        pub rtrancl: Symbol,
        pub alloc: Symbol,
        pub this: Symbol,
    }

    /// The process-wide [`Builtins`] table.
    pub fn builtins() -> &'static Builtins {
        static BUILTINS: OnceLock<Builtins> = OnceLock::new();
        BUILTINS.get_or_init(|| Builtins {
            field_write: Symbol::intern(FIELD_WRITE),
            field_read: Symbol::intern(FIELD_READ),
            array_read: Symbol::intern(ARRAY_READ),
            array_write: Symbol::intern(ARRAY_WRITE),
            rtrancl: Symbol::intern(RTRANCL),
            alloc: Symbol::intern(ALLOC),
            this: Symbol::intern(THIS),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn smart_and_or() {
        assert_eq!(Form::and(vec![]), Form::tt());
        assert_eq!(Form::or(vec![]), Form::ff());
        assert_eq!(Form::and(vec![Form::tt(), Form::v("p")]), Form::v("p"));
        assert_eq!(Form::and(vec![Form::ff(), Form::v("p")]), Form::ff());
        assert_eq!(Form::or(vec![Form::tt(), Form::v("p")]), Form::tt());
        // Nested conjunctions flatten.
        let f = Form::and(vec![
            Form::and(vec![Form::v("a"), Form::v("b")]),
            Form::v("c"),
        ]);
        assert_eq!(f, Form::And(vec![Form::v("a"), Form::v("b"), Form::v("c")]));
    }

    #[test]
    fn double_negation_collapses() {
        let p = Form::v("p");
        assert_eq!(Form::not(Form::not(p.clone())), p);
        assert_eq!(Form::not(Form::tt()), Form::ff());
    }

    #[test]
    fn eq_reflexive_collapses() {
        assert_eq!(Form::eq(Form::v("x"), Form::v("x")), Form::tt());
        assert_ne!(Form::eq(Form::v("x"), Form::v("y")), Form::tt());
    }

    #[test]
    fn app_flattens() {
        let f = Form::app(
            Form::app(Form::v("f"), vec![Form::v("x")]),
            vec![Form::v("y")],
        );
        match f {
            Form::App(head, args) => {
                assert_eq!(*head, Form::v("f"));
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected App, got {other:?}"),
        }
    }

    #[test]
    fn quant_merges() {
        let inner = Form::forall(vec![(s("y"), Sort::Obj)], Form::v("p"));
        let outer = Form::forall(vec![(s("x"), Sort::Obj)], inner);
        match outer {
            Form::Quant(QKind::All, binders, _) => assert_eq!(binders.len(), 2),
            other => panic!("expected merged quantifier, got {other:?}"),
        }
    }

    #[test]
    fn free_vars_respect_binders() {
        // ALL x. x : S  — free: S
        let f = Form::forall(
            vec![(s("x"), Sort::Obj)],
            Form::elem(Form::v("x"), Form::v("S")),
        );
        let fv = f.free_vars();
        assert!(fv.contains(&s("S")));
        assert!(!fv.contains(&s("x")));
    }

    #[test]
    fn compr_binds() {
        let f = Form::Compr(
            s("x"),
            Sort::Obj,
            Rc::new(Form::elem(Form::v("x"), Form::v("S"))),
        );
        let fv = f.free_vars();
        assert_eq!(fv.len(), 1);
        assert!(fv.contains(&s("S")));
    }

    #[test]
    fn subst_simple() {
        let f = Form::elem(Form::v("x"), Form::v("S"));
        let g = f.subst1(s("x"), &Form::Null);
        assert_eq!(g, Form::elem(Form::Null, Form::v("S")));
    }

    #[test]
    fn subst_shadowed_binder_untouched() {
        // (ALL x. x = y)[x := null] leaves the bound x alone.
        let f = Form::forall(
            vec![(s("x"), Sort::Obj)],
            Form::eq(Form::v("x"), Form::v("y")),
        );
        let g = f.subst1(s("x"), &Form::Null);
        assert_eq!(g, f);
    }

    #[test]
    fn subst_avoids_capture() {
        // (ALL x. x = y)[y := x] must NOT become ALL x. x = x.
        let f = Form::forall(
            vec![(s("x"), Sort::Obj)],
            Form::eq(Form::v("x"), Form::v("y")),
        );
        let g = f.subst1(s("y"), &Form::v("x"));
        match &g {
            Form::Quant(QKind::All, binders, body) => {
                let (bound, _) = binders[0];
                assert_ne!(bound, s("x"), "binder must have been renamed");
                // Body equates the renamed binder with the free x.
                assert_eq!(body.as_ref(), &Form::eq(Form::Var(bound), Form::v("x")));
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn subst_shares_what_it_leaves_alone() {
        let f = Form::implies(
            Form::elem(Form::v("x"), Form::v("S")),
            Form::eq(Form::v("x"), Form::v("y")),
        );
        let Form::Binop(_, hyp, goal) = &f else {
            panic!("expected -->, got {f:?}")
        };
        // `z` occurs nowhere: the result is the input, subtree for subtree.
        let mut absent = FxHashMap::default();
        absent.insert(s("z"), Form::Null);
        assert_eq!(f.subst_changed(&absent, false), None);
        let Form::Binop(_, hyp2, goal2) = f.subst(&absent) else {
            panic!("expected -->")
        };
        assert!(Rc::ptr_eq(hyp, &hyp2) && Rc::ptr_eq(goal, &goal2));
        // `y` occurs only in the goal: the hypothesis is shared.
        let Form::Binop(_, hyp2, goal2) = f.subst1(s("y"), &Form::Null) else {
            panic!("expected -->")
        };
        assert!(Rc::ptr_eq(hyp, &hyp2));
        assert_eq!(*goal2, Form::eq(Form::v("x"), Form::Null));
    }

    #[test]
    fn subst_outside_old_freezes_the_pre_state() {
        let pre = Rc::new(Form::Old(Rc::new(Form::v("x"))));
        let f = Form::Binop(BinOp::Eq, Rc::new(Form::v("x")), Rc::clone(&pre));
        let mut map = FxHashMap::default();
        map.insert(s("x"), Form::v("y"));
        let Form::Binop(_, now, old) = f.subst_outside_old(&map) else {
            panic!("expected =")
        };
        assert_eq!(*now, Form::v("y"));
        assert!(Rc::ptr_eq(&old, &pre));
        // The plain substitution enters `old`.
        let entered = Form::Binop(
            BinOp::Eq,
            Rc::new(Form::v("y")),
            Rc::new(Form::Old(Rc::new(Form::v("y")))),
        );
        assert_eq!(f.subst(&map), entered);
    }

    #[test]
    fn subst_renames_only_binders_a_live_replacement_would_capture() {
        // {n. ALL n. p n}[n := f n]: the comprehension's `n` would capture
        // the replacement's `n`, so it is renamed; the inner `n` shadows
        // every replacement left, so it keeps its name.
        let inner = Form::forall(
            vec![(s("n"), Sort::Obj)],
            Form::app(Form::v("p"), vec![Form::v("n")]),
        );
        let f = Form::Compr(s("n"), Sort::Obj, Rc::new(inner.clone()));
        let g = f.subst1(s("n"), &Form::app(Form::v("f"), vec![Form::v("n")]));
        let Form::Compr(x, _, body) = &g else {
            panic!("expected a comprehension, got {g:?}")
        };
        assert_ne!(*x, s("n"));
        assert_eq!(**body, inner);
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Form::v("x").size(), 1);
        assert_eq!(Form::eq(Form::v("x"), Form::v("y")).size(), 3);
        // A backbone atom is one node, whatever its fields: the count
        // feeds the events' `size` fields and the Nelson–Oppen size gate.
        let tree = Form::Tree(vec![Form::v("f"), Form::v("g")]);
        assert_eq!(tree.size(), 1);
        assert_eq!(Form::implies(tree, Form::v("p")).size(), 3);
    }

    #[test]
    fn children_come_in_map_children_order() {
        let v = Form::v;
        let leaf = |name: &str| Rc::new(Form::v(name));
        let binders = vec![(s("x"), Sort::Obj)];
        // One case per variant, with its number of children.
        let cases = [
            (Form::Var(s("x")), 0),
            (Form::IntLit(1), 0),
            (Form::BoolLit(true), 0),
            (Form::Null, 0),
            (Form::EmptySet, 0),
            (Form::FiniteSet(vec![v("a"), v("b")]), 2),
            (Form::Unop(UnOp::Card, leaf("a")), 1),
            (Form::Binop(BinOp::Elem, leaf("a"), leaf("b")), 2),
            (Form::And(vec![v("a"), v("b"), v("c")]), 3),
            (Form::Or(vec![v("a"), v("b")]), 2),
            (Form::App(leaf("f"), vec![v("a"), v("b")]), 3),
            (Form::Quant(QKind::All, binders.clone(), leaf("a")), 1),
            (Form::Lambda(binders, leaf("a")), 1),
            (Form::Compr(s("x"), Sort::Obj, leaf("a")), 1),
            (Form::Old(leaf("a")), 1),
            (Form::Ite(leaf("a"), leaf("b"), leaf("c")), 3),
            (Form::Tree(vec![v("f"), v("g")]), 2),
        ];
        for (form, count) in &cases {
            let mut visited: Vec<*const Form> = Vec::new();
            form.map_children(|child| {
                visited.push(child);
                None
            });
            let yielded: Vec<*const Form> = form.children().map(|c| c as *const Form).collect();
            assert_eq!(yielded, visited, "{form:?}");
            assert_eq!(yielded.len(), *count, "{form:?}");
        }
    }

    #[test]
    fn contains_old_detects() {
        let f = Form::eq(
            Form::v("content"),
            Form::Binop(
                BinOp::Union,
                Rc::new(Form::Old(Rc::new(Form::v("content")))),
                Rc::new(Form::FiniteSet(vec![Form::v("o")])),
            ),
        );
        assert!(f.contains_old());
        assert!(!Form::v("content").contains_old());
    }

    #[test]
    fn as_app_of_recognizes_interpreted_symbols() {
        let f = Form::rtrancl(Form::v("p"), Form::v("a"), Form::v("b"));
        let args = f.as_app_of(s(sym::RTRANCL)).expect("should match");
        assert_eq!(args.len(), 3);
        assert!(f.as_app_of(s(sym::FIELD_WRITE)).is_none());
    }
}
