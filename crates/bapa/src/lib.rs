//! `jahob-bapa`: Boolean Algebra with Presburger Arithmetic.
//!
//! Implements the decision procedure of Kuncak, Nguyen & Rinard (CADE-20,
//! \[43\] in the paper): formulas mixing set algebra over an unbounded finite
//! universe of objects with integer arithmetic over set cardinalities are
//! decided by *Venn-region reduction*. Every Boolean combination of the base
//! sets is a region; one non-negative integer variable stands for each
//! region's cardinality; set atoms become linear constraints over the region
//! variables; the result is a Presburger problem handed to `jahob-presburger`
//! (the Omega test on quantifier-free disjuncts, Cooper as fallback).
//!
//! Object-sorted variables (including `null`) are encoded as singleton sets
//! — the standard trick from the BAPA papers — so client verification
//! conditions such as the disjointness property of Figure 2
//! (`a..content Int b..content = {}` preserved across `add`/`remove`)
//! fall inside the fragment.
//!
//! The region count is `2^(#base sets)`: the exponential that experiment E8
//! measures. Goals with more than [`MAX_BASE_SETS`] base sets are rejected
//! (the dispatcher then tries other provers). Translation still enumerates
//! every region, but the Omega test sees only the regions a disjunct's atoms
//! tell apart: regions bounded only by `r ≥ 0` that carry the same
//! coefficient in every other atom become one variable, and those in no
//! other atom are dropped (exact, since a sum of naturals is a natural).
//! On game.javax's six-base goals that leaves 11 to 43 of the 64.
//!
//! [`bapa_valid`] is the one entry: it charges the caller's [`Budget`] and
//! answers [`Failure::Unsupported`] for a goal outside the fragment.

use jahob_logic::{BinOp, Form, Sort, UnOp};
use jahob_presburger::cooper::{self, PAtom, PForm};
use jahob_presburger::linterm::LinTerm;
use jahob_presburger::omega::{omega_sat, Constraint, ConstraintKind, OmegaResult};
use jahob_util::budget::{unsupported, Budget, Exhaustion, Failure};
use jahob_util::{FxHashMap, FxHashSet, Symbol};
use std::rc::Rc;
use std::sync::OnceLock;

/// Upper bound on distinct base sets (set variables + singleton-encoded
/// object variables); regions grow as `2^n`.
pub const MAX_BASE_SETS: usize = 6;

/// A base-set identifier during translation.
#[derive(Clone, PartialEq, Debug)]
enum Base {
    /// A set variable.
    SetVar(Symbol),
    /// The singleton for an object variable.
    ObjVar(Symbol),
    /// The singleton for `null`.
    Null,
    /// An opaque set-valued term (e.g. `List.content a`), abstracted as an
    /// unconstrained set variable — sound for validity checking.
    SetTerm(Form),
    /// An opaque object-valued term, singleton-encoded like a variable.
    ObjTerm(Form),
}

/// A set expression as a predicate on Venn regions: for region bitmask `m`
/// (bit i = the region lies inside base set i), `contains(m)` says whether
/// the region is inside this set expression.
#[derive(Clone)]
struct SetExpr {
    contains: Rc<dyn Fn(u32) -> bool>,
}

impl SetExpr {
    fn base(i: usize) -> SetExpr {
        SetExpr {
            contains: Rc::new(move |m| m & (1 << i) != 0),
        }
    }

    fn empty() -> SetExpr {
        SetExpr {
            contains: Rc::new(|_| false),
        }
    }

    fn union(a: SetExpr, b: SetExpr) -> SetExpr {
        SetExpr {
            contains: Rc::new(move |m| (a.contains)(m) || (b.contains)(m)),
        }
    }

    fn inter(a: SetExpr, b: SetExpr) -> SetExpr {
        SetExpr {
            contains: Rc::new(move |m| (a.contains)(m) && (b.contains)(m)),
        }
    }

    fn diff(a: SetExpr, b: SetExpr) -> SetExpr {
        SetExpr {
            contains: Rc::new(move |m| (a.contains)(m) && !(b.contains)(m)),
        }
    }

    fn sym_diff(a: SetExpr, b: SetExpr) -> SetExpr {
        SetExpr::union(SetExpr::diff(a.clone(), b.clone()), SetExpr::diff(b, a))
    }
}

/// The translation context: the base-set inventory.
struct Translator<'a> {
    sig: &'a FxHashMap<Symbol, Sort>,
    bases: Vec<Base>,
}

impl<'a> Translator<'a> {
    fn new(sig: &'a FxHashMap<Symbol, Sort>) -> Self {
        Translator {
            sig,
            bases: Vec::new(),
        }
    }

    fn base_index(&mut self, b: Base) -> Result<usize, Failure> {
        if let Some(i) = self.bases.iter().position(|x| *x == b) {
            return Ok(i);
        }
        if self.bases.len() >= MAX_BASE_SETS {
            return unsupported(format!(
                "more than {MAX_BASE_SETS} base sets (regions would explode)"
            ));
        }
        self.bases.push(b);
        Ok(self.bases.len() - 1)
    }

    fn sort_of(&self, name: Symbol) -> Option<&Sort> {
        self.sig.get(&name)
    }

    /// Classify a term as a set expression by signature and shape.
    fn is_set_term(&self, form: &Form) -> bool {
        match form {
            Form::EmptySet | Form::FiniteSet(_) => true,
            Form::Binop(BinOp::Union | BinOp::Inter | BinOp::Diff, _, _) => true,
            Form::Var(name) => matches!(self.sort_of(*name), Some(Sort::Set(_))),
            Form::App(head, _) => match head.as_ref() {
                Form::Var(f) => matches!(
                    self.sort_of(*f),
                    Some(Sort::Fun(_, ret))
                        if matches!(ret.as_ref(), Sort::Set(inner) if **inner == Sort::Obj)
                ),
                _ => false,
            },
            _ => false,
        }
    }

    fn is_obj_term(&self, form: &Form) -> bool {
        match form {
            Form::Null => true,
            Form::Var(name) => matches!(self.sort_of(*name), Some(Sort::Obj)),
            Form::App(head, _) => match head.as_ref() {
                Form::Var(f) => matches!(
                    self.sort_of(*f),
                    Some(Sort::Fun(_, ret)) if **ret == Sort::Obj
                ),
                _ => false,
            },
            _ => false,
        }
    }

    /// Translate a set term to a region predicate.
    fn set_expr(&mut self, form: &Form) -> Result<SetExpr, Failure> {
        match form {
            Form::EmptySet => Ok(SetExpr::empty()),
            Form::Var(name) => {
                match self.sort_of(*name) {
                    Some(Sort::Set(inner)) if **inner == Sort::Obj => {}
                    Some(Sort::Set(_)) => return unsupported("only object sets supported"),
                    Some(other) => {
                        return unsupported(format!("`{name}` has sort {other}, expected objset"))
                    }
                    // Unknown symbols in set position: assume objset.
                    None => {}
                }
                let i = self.base_index(Base::SetVar(*name))?;
                Ok(SetExpr::base(i))
            }
            Form::FiniteSet(elems) => {
                let mut acc = SetExpr::empty();
                for e in elems {
                    let s = self.singleton(e)?;
                    acc = SetExpr::union(acc, s);
                }
                Ok(acc)
            }
            Form::Binop(BinOp::Union, lhs, rhs) => {
                Ok(SetExpr::union(self.set_expr(lhs)?, self.set_expr(rhs)?))
            }
            Form::Binop(BinOp::Inter, lhs, rhs) => {
                Ok(SetExpr::inter(self.set_expr(lhs)?, self.set_expr(rhs)?))
            }
            Form::Binop(BinOp::Diff | BinOp::Sub, lhs, rhs) => {
                Ok(SetExpr::diff(self.set_expr(lhs)?, self.set_expr(rhs)?))
            }
            app @ Form::App(head, _) => {
                // Opaque set-valued application: `List.content a`.
                let ok = match head.as_ref() {
                    Form::Var(f) => match self.sort_of(*f) {
                        Some(Sort::Fun(_, ret)) => {
                            matches!(ret.as_ref(), Sort::Set(inner) if **inner == Sort::Obj)
                        }
                        None => true,
                        _ => false,
                    },
                    _ => false,
                };
                if !ok {
                    return unsupported(format!("set term expected, found `{app}`"));
                }
                let i = self.base_index(Base::SetTerm(app.clone()))?;
                Ok(SetExpr::base(i))
            }
            other => unsupported(format!("set term expected, found `{other}`")),
        }
    }

    /// The singleton region predicate for an object-denoting term.
    fn singleton(&mut self, form: &Form) -> Result<SetExpr, Failure> {
        match form {
            Form::Null => {
                let i = self.base_index(Base::Null)?;
                Ok(SetExpr::base(i))
            }
            Form::Var(name) => {
                match self.sort_of(*name) {
                    Some(Sort::Obj) | None => {}
                    Some(other) => {
                        return unsupported(format!("`{name}` has sort {other}, expected obj"))
                    }
                }
                let i = self.base_index(Base::ObjVar(*name))?;
                Ok(SetExpr::base(i))
            }
            app @ Form::App(head, _) => {
                // Opaque object-valued application (`Node.data n`).
                let ok = match head.as_ref() {
                    Form::Var(f) => match self.sort_of(*f) {
                        Some(Sort::Fun(_, ret)) => **ret == Sort::Obj,
                        None => true,
                        _ => false,
                    },
                    _ => false,
                };
                if !ok {
                    return unsupported(format!("object term expected, found `{app}`"));
                }
                let i = self.base_index(Base::ObjTerm(app.clone()))?;
                Ok(SetExpr::base(i))
            }
            other => unsupported(format!("object variable expected, found `{other}`")),
        }
    }

    fn num_regions(&self) -> u32 {
        1u32 << self.bases.len()
    }

    /// Linear term: the cardinality of a set expression (sum of its
    /// regions' cardinality variables).
    fn card_of(&self, expr: &SetExpr) -> LinTerm {
        let regions = region_vars();
        LinTerm {
            coeffs: (0..self.num_regions())
                .filter(|&m| (expr.contains)(m))
                .map(|m| (regions[m as usize], 1))
                .collect(),
            konst: 0,
        }
    }

    /// `expr` denotes the empty set.
    fn is_empty(&self, expr: &SetExpr) -> PForm {
        PForm::Atom(PAtom::Eq(self.card_of(expr)))
    }
}

/// The region-cardinality variables `r#<mask>`, indexed by mask: one for
/// each region [`MAX_BASE_SETS`] base sets make, interned once.
fn region_vars() -> &'static [Symbol] {
    static REGIONS: OnceLock<Vec<Symbol>> = OnceLock::new();
    REGIONS.get_or_init(|| {
        (0..1u32 << MAX_BASE_SETS)
            .map(|m| Symbol::intern(&format!("r#{m}")))
            .collect()
    })
}

/// A lowered atom: region predicates are kept symbolic until the base-set
/// inventory is complete, then turned into linear constraints.
enum LoweredAtom {
    Empty(SetExpr),
    IntEq(IntExpr, IntExpr),
    IntLe(IntExpr, IntExpr),
    IntLt(IntExpr, IntExpr),
}

/// A deferred integer expression (cardinalities resolved late).
enum IntExpr {
    Lin(LinTerm),
    Card(SetExpr),
    Add(Box<IntExpr>, Box<IntExpr>),
    Sub(Box<IntExpr>, Box<IntExpr>),
    Scale(i64, Box<IntExpr>),
}

impl IntExpr {
    fn resolve(&self, tr: &Translator) -> LinTerm {
        match self {
            IntExpr::Lin(t) => t.clone(),
            IntExpr::Card(s) => tr.card_of(s),
            IntExpr::Add(a, b) => a.resolve(tr).add(&b.resolve(tr)),
            IntExpr::Sub(a, b) => a.resolve(tr).sub(&b.resolve(tr)),
            IntExpr::Scale(k, a) => a.resolve(tr).scale(*k),
        }
    }
}

/// Lowered boolean skeleton.
enum Lowered {
    True,
    False,
    Atom(LoweredAtom),
    And(Vec<Lowered>),
    Or(Vec<Lowered>),
    Not(Box<Lowered>),
}

impl Lowered {
    fn resolve(&self, tr: &Translator) -> PForm {
        match self {
            Lowered::True => PForm::True,
            Lowered::False => PForm::False,
            Lowered::And(ps) => PForm::and(ps.iter().map(|p| p.resolve(tr)).collect()),
            Lowered::Or(ps) => PForm::or(ps.iter().map(|p| p.resolve(tr)).collect()),
            Lowered::Not(p) => PForm::not(p.resolve(tr)),
            Lowered::Atom(a) => match a {
                LoweredAtom::Empty(s) => tr.is_empty(s),
                LoweredAtom::IntEq(l, r) => {
                    PForm::Atom(PAtom::Eq(l.resolve(tr).sub(&r.resolve(tr))))
                }
                LoweredAtom::IntLe(l, r) => PForm::le(l.resolve(tr), r.resolve(tr)),
                LoweredAtom::IntLt(l, r) => PForm::lt(l.resolve(tr), r.resolve(tr)),
            },
        }
    }
}

fn lower_form(form: &Form, tr: &mut Translator) -> Result<Lowered, Failure> {
    match form {
        Form::BoolLit(true) => Ok(Lowered::True),
        Form::BoolLit(false) => Ok(Lowered::False),
        Form::And(parts) => Ok(Lowered::And(
            parts
                .iter()
                .map(|p| lower_form(p, tr))
                .collect::<Result<_, _>>()?,
        )),
        Form::Or(parts) => Ok(Lowered::Or(
            parts
                .iter()
                .map(|p| lower_form(p, tr))
                .collect::<Result<_, _>>()?,
        )),
        Form::Unop(UnOp::Not, inner) => Ok(Lowered::Not(Box::new(lower_form(inner, tr)?))),
        Form::Binop(BinOp::Implies, lhs, rhs) => Ok(Lowered::Or(vec![
            Lowered::Not(Box::new(lower_form(lhs, tr)?)),
            lower_form(rhs, tr)?,
        ])),
        Form::Binop(BinOp::Iff, lhs, rhs) => {
            let l = lower_form(lhs, tr)?;
            let r = lower_form(rhs, tr)?;
            let l2 = lower_form(lhs, tr)?;
            let r2 = lower_form(rhs, tr)?;
            Ok(Lowered::And(vec![
                Lowered::Or(vec![Lowered::Not(Box::new(l)), r]),
                Lowered::Or(vec![l2, Lowered::Not(Box::new(r2))]),
            ]))
        }
        Form::Binop(BinOp::Subseteq, lhs, rhs) => {
            let l = tr.set_expr(lhs)?;
            let r = tr.set_expr(rhs)?;
            Ok(Lowered::Atom(LoweredAtom::Empty(SetExpr::diff(l, r))))
        }
        Form::Binop(BinOp::Elem, lhs, rhs) => {
            let x = tr.singleton(lhs)?;
            let s = tr.set_expr(rhs)?;
            Ok(Lowered::Atom(LoweredAtom::Empty(SetExpr::diff(x, s))))
        }
        Form::Binop(BinOp::Eq, lhs, rhs) => {
            if tr.is_set_term(lhs) || tr.is_set_term(rhs) {
                let l = tr.set_expr(lhs)?;
                let r = tr.set_expr(rhs)?;
                Ok(Lowered::Atom(LoweredAtom::Empty(SetExpr::sym_diff(l, r))))
            } else if tr.is_obj_term(lhs) || tr.is_obj_term(rhs) {
                let l = tr.singleton(lhs)?;
                let r = tr.singleton(rhs)?;
                Ok(Lowered::Atom(LoweredAtom::Empty(SetExpr::sym_diff(l, r))))
            } else {
                let l = lower_int(lhs, tr)?;
                let r = lower_int(rhs, tr)?;
                Ok(Lowered::Atom(LoweredAtom::IntEq(l, r)))
            }
        }
        Form::Binop(BinOp::Lt, lhs, rhs) => Ok(Lowered::Atom(LoweredAtom::IntLt(
            lower_int(lhs, tr)?,
            lower_int(rhs, tr)?,
        ))),
        Form::Binop(BinOp::Le, lhs, rhs) => {
            // Pre-elaboration `<=` between set terms means subset.
            if tr.is_set_term(lhs) || tr.is_set_term(rhs) {
                let l = tr.set_expr(lhs)?;
                let r = tr.set_expr(rhs)?;
                return Ok(Lowered::Atom(LoweredAtom::Empty(SetExpr::diff(l, r))));
            }
            Ok(Lowered::Atom(LoweredAtom::IntLe(
                lower_int(lhs, tr)?,
                lower_int(rhs, tr)?,
            )))
        }
        other => unsupported(format!("outside the BAPA fragment: `{other}`")),
    }
}

fn lower_int(form: &Form, tr: &mut Translator) -> Result<IntExpr, Failure> {
    match form {
        Form::IntLit(n) => Ok(IntExpr::Lin(LinTerm::constant(*n))),
        Form::Var(name) => match tr.sort_of(*name) {
            Some(Sort::Int) | None => Ok(IntExpr::Lin(LinTerm::var(*name))),
            Some(other) => unsupported(format!("`{name}` has sort {other}, expected int")),
        },
        Form::Unop(UnOp::Card, inner) => Ok(IntExpr::Card(tr.set_expr(inner)?)),
        Form::Unop(UnOp::Neg, inner) => Ok(IntExpr::Scale(-1, Box::new(lower_int(inner, tr)?))),
        Form::Binop(BinOp::Add, lhs, rhs) => Ok(IntExpr::Add(
            Box::new(lower_int(lhs, tr)?),
            Box::new(lower_int(rhs, tr)?),
        )),
        Form::Binop(BinOp::Sub, lhs, rhs) => Ok(IntExpr::Sub(
            Box::new(lower_int(lhs, tr)?),
            Box::new(lower_int(rhs, tr)?),
        )),
        Form::Binop(BinOp::Mul, lhs, rhs) => match (&**lhs, &**rhs) {
            (Form::IntLit(k), _) => Ok(IntExpr::Scale(*k, Box::new(lower_int(rhs, tr)?))),
            (_, Form::IntLit(k)) => Ok(IntExpr::Scale(*k, Box::new(lower_int(lhs, tr)?))),
            _ => unsupported("nonlinear multiplication"),
        },
        other => unsupported(format!("non-arithmetic term `{other}`")),
    }
}

/// Translate a quantifier-free BAPA formula to a Presburger formula over
/// region variables plus well-formedness constraints.
fn translate(form: &Form, sig: &FxHashMap<Symbol, Sort>) -> Result<(PForm, PForm, usize), Failure> {
    let mut tr = Translator::new(sig);
    let lowered = lower_form(form, &mut tr)?;
    let matrix = lowered.resolve(&tr);
    let mut wf = Vec::new();
    for &r in &region_vars()[..tr.num_regions() as usize] {
        // r_m >= 0  ⇔  -r_m <= 0.
        wf.push(PForm::Atom(PAtom::Le(LinTerm::var(r).scale(-1))));
    }
    for (i, base) in tr.bases.iter().enumerate() {
        if matches!(base, Base::ObjVar(_) | Base::Null | Base::ObjTerm(_)) {
            let singleton = SetExpr::base(i);
            wf.push(PForm::Atom(PAtom::Eq(
                tr.card_of(&singleton).sub(&LinTerm::constant(1)),
            )));
        }
    }
    Ok((matrix, PForm::and(wf), tr.bases.len()))
}

/// Decide validity of a quantifier-free BAPA goal: translate its negation
/// and check unsatisfiability over non-negative region cardinalities. Fuel
/// is charged per Venn-region disjunct and per sign-enumeration branch,
/// the two places the reduction blows up.
pub fn bapa_valid(
    form: &Form,
    sig: &FxHashMap<Symbol, Sort>,
    budget: &Budget,
) -> Result<bool, Failure> {
    let negated = Form::not(form.clone());
    let (matrix, wf, _) = translate(&negated, sig)?;
    let full = PForm::and(vec![wf, matrix]);
    Ok(!pform_sat(&full, budget)?)
}

/// Number of base sets a goal needs (for benchmarking the Venn blowup).
pub fn base_set_count(form: &Form, sig: &FxHashMap<Symbol, Sort>) -> Result<usize, Failure> {
    translate(form, sig).map(|(_, _, n)| n)
}

/// Satisfiability of a quantifier-free Presburger formula: DNF + Omega test
/// per disjunct, falling back to Cooper when DNF would explode or
/// divisibility atoms appear.
fn pform_sat(form: &PForm, budget: &Budget) -> Result<bool, Exhaustion> {
    match dnf(form, 2048) {
        Some(disjuncts) => {
            for conj in &disjuncts {
                budget.check()?;
                if conj_sat(conj, budget)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        None => cooper::sat(form, budget),
    }
}

fn atom_term(atom: &PAtom) -> &LinTerm {
    match atom {
        PAtom::Le(t) | PAtom::Eq(t) | PAtom::Neq(t) | PAtom::Dvd(_, t) | PAtom::NotDvd(_, t) => t,
    }
}

/// Satisfiability of one conjunction of atoms via the Omega test. `Neq`
/// atoms are split by sign enumeration; divisibility falls back to Cooper.
fn conj_sat(conj: &[PAtom], budget: &Budget) -> Result<bool, Exhaustion> {
    let neqs = conj.iter().filter(|a| matches!(a, PAtom::Neq(_))).count();
    if neqs > 10
        || conj
            .iter()
            .any(|a| matches!(a, PAtom::Dvd(_, _) | PAtom::NotDvd(_, _)))
    {
        let f = PForm::and(conj.iter().cloned().map(PForm::Atom).collect());
        return cooper::sat(&f, budget);
    }
    Rows::of(conj).merged().sat(forced_signs(conj), budget)
}

/// The `t ≠ 0` atoms of `conj` whose sign the other atoms force, as a mask
/// over the `Neq` atoms in order. t != 0 splits into t ≥ 1 (mask bit set)
/// or t ≤ −1 (bit clear). When the fixed atoms already force t ≥ 0, the
/// t ≤ −1 branch is infeasible, and sign choices that pick it are skipped
/// without calling Omega. Region-cardinality sums such as `card S` in
/// `S ~= {}` are always forced, so n of them cost one branch, not 2^n.
fn forced_signs(conj: &[PAtom]) -> u32 {
    let lower_bounded = zero_lower_bounded(conj);
    conj.iter()
        .filter_map(|a| match a {
            PAtom::Neq(t) => Some(t),
            _ => None,
        })
        .enumerate()
        .filter(|(_, t)| {
            t.konst >= 0
                && t.coeffs
                    .iter()
                    .all(|(v, &k)| k > 0 && lower_bounded.contains(v))
        })
        .map(|(i, _)| 1 << i)
        .sum()
}

/// One DNF disjunct without divisibility atoms, as dense rows over its
/// variables (numbered in first-occurrence order).
struct Rows {
    width: usize,
    /// `t ≤ 0` as `−t ≥ 0`, and `t = 0`, in atom order.
    fixed: Vec<Constraint>,
    /// The term `t` of each `t ≠ 0`, in atom order: coefficients and
    /// constant.
    neqs: Vec<(Vec<i64>, i64)>,
}

impl Rows {
    fn of(conj: &[PAtom]) -> Rows {
        let mut index: FxHashMap<Symbol, usize> = FxHashMap::default();
        for atom in conj {
            for v in atom_term(atom).vars() {
                let next = index.len();
                index.entry(v).or_insert(next);
            }
        }
        let width = index.len();
        let dense = |t: &LinTerm, sign: i64| {
            let mut c = vec![0i64; width];
            for (v, &k) in &t.coeffs {
                c[index[v]] = sign * k;
            }
            c
        };
        let mut rows = Rows {
            width,
            fixed: Vec::new(),
            neqs: Vec::new(),
        };
        for a in conj {
            match a {
                PAtom::Le(t) => rows.fixed.push(Constraint::ge(dense(t, -1), -t.konst)),
                PAtom::Eq(t) => rows.fixed.push(Constraint::eq(dense(t, 1), t.konst)),
                PAtom::Neq(t) => rows.neqs.push((dense(t, 1), t.konst)),
                PAtom::Dvd(_, _) | PAtom::NotDvd(_, _) => unreachable!(),
            }
        }
        rows
    }

    /// The same disjunct over fewer variables. A variable whose only
    /// bound of its own is `x ≥ 0` (a region cardinality) is merged with
    /// every other such variable that has the same coefficient in each
    /// remaining row, and dropped when it has none. Both are exact: a sum
    /// of naturals is a natural, and every solution of the merged rows
    /// splits back into one of the originals (the merged variable's value
    /// on one member, zero on the rest). Rows and the variables kept stay
    /// in their order.
    fn merged(self) -> Rows {
        let width = self.width;
        // The variable each `x ≥ 0` row bounds.
        let nonneg_var = |c: &Constraint| {
            if c.kind != ConstraintKind::Ge || c.konst != 0 {
                return None;
            }
            let mut vars = c.coeffs.iter().enumerate().filter(|(_, &k)| k != 0);
            match (vars.next(), vars.next()) {
                (Some((v, 1)), None) => Some(v),
                _ => None,
            }
        };
        let bounds: Vec<Option<usize>> = self.fixed.iter().map(nonneg_var).collect();
        let mut nonneg = vec![false; width];
        for &v in bounds.iter().flatten() {
            nonneg[v] = true;
        }
        // Each such variable's coefficients in every other row.
        let mut signatures: Vec<Vec<i64>> = vec![Vec::new(); width];
        let others = self
            .fixed
            .iter()
            .zip(&bounds)
            .filter(|(_, b)| b.is_none())
            .map(|(c, _)| &c.coeffs)
            .chain(self.neqs.iter().map(|(coeffs, _)| coeffs));
        for coeffs in others {
            for v in (0..width).filter(|&v| nonneg[v]) {
                signatures[v].push(coeffs[v]);
            }
        }
        // The variable each one stands in for: itself, the first with its
        // signature, or none (dropped).
        let mut class: Vec<Option<usize>> = (0..width).map(Some).collect();
        let mut first: FxHashMap<&[i64], usize> = FxHashMap::default();
        for v in (0..width).filter(|&v| nonneg[v]) {
            let signature = signatures[v].as_slice();
            class[v] = if signature.iter().all(|&k| k == 0) {
                None
            } else {
                Some(*first.entry(signature).or_insert(v))
            };
        }
        let kept: Vec<usize> = (0..width).filter(|&v| class[v] == Some(v)).collect();
        let project = |coeffs: &[i64]| kept.iter().map(|&v| coeffs[v]).collect::<Vec<i64>>();
        Rows {
            width: kept.len(),
            fixed: self
                .fixed
                .iter()
                .zip(&bounds)
                .filter(|(_, b)| b.is_none_or(|v| class[v] == Some(v)))
                .map(|(c, _)| Constraint {
                    coeffs: project(&c.coeffs),
                    konst: c.konst,
                    kind: c.kind,
                })
                .collect(),
            neqs: self
                .neqs
                .iter()
                .map(|(coeffs, konst)| (project(coeffs), *konst))
                .collect(),
        }
    }

    /// Some choice of signs for the `t ≠ 0` rows, with every bit of
    /// `forced` set (see [`forced_signs`]), is satisfiable with the fixed
    /// rows. One unit of fuel per choice handed to Omega.
    fn sat(&self, forced: u32, budget: &Budget) -> Result<bool, Exhaustion> {
        for mask in 0u32..(1 << self.neqs.len()) {
            if mask & forced != forced {
                continue;
            }
            budget.check()?;
            let mut sys = self.fixed.clone();
            for (i, (coeffs, konst)) in self.neqs.iter().enumerate() {
                // t >= 1 when bit i is set, -t >= 1 when it is clear.
                sys.push(if mask & (1 << i) != 0 {
                    Constraint::ge(coeffs.clone(), konst - 1)
                } else {
                    Constraint::ge(coeffs.iter().map(|k| -k).collect(), -konst - 1)
                });
            }
            if omega_sat(&sys) == OmegaResult::Sat {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Variables some atom of `conj` bounds below by zero: `−c·v + k ≤ 0`
/// with `c > 0` and `k ≥ 0`, i.e. `v ≥ k/c ≥ 0`. Every region cardinality
/// qualifies through `translate`'s `r ≥ 0`.
fn zero_lower_bounded(conj: &[PAtom]) -> FxHashSet<Symbol> {
    conj.iter()
        .filter_map(|a| match a {
            PAtom::Le(t) if t.konst >= 0 && t.coeffs.len() == 1 => {
                let (&v, &k) = t.coeffs.iter().next()?;
                (k < 0).then_some(v)
            }
            _ => None,
        })
        .collect()
}

/// DNF of a formula as lists of atoms; `None` if more than `limit` disjuncts
/// would be produced or quantifiers appear.
fn dnf(form: &PForm, limit: usize) -> Option<Vec<Vec<PAtom>>> {
    fn rec(form: &PForm, limit: usize) -> Option<Vec<Vec<PAtom>>> {
        match form {
            PForm::True => Some(vec![vec![]]),
            PForm::False => Some(vec![]),
            PForm::Atom(a) => Some(vec![vec![a.clone()]]),
            PForm::Or(ps) => {
                let mut out = Vec::new();
                for p in ps {
                    out.extend(rec(p, limit)?);
                    if out.len() > limit {
                        return None;
                    }
                }
                Some(out)
            }
            PForm::And(ps) => {
                let mut acc: Vec<Vec<PAtom>> = vec![vec![]];
                for p in ps {
                    let branches = rec(p, limit)?;
                    // One branch (an atom, say) extends every disjunct in
                    // place instead of copying them all.
                    if let [only] = branches.as_slice() {
                        if acc.len() > limit {
                            return None;
                        }
                        for a in &mut acc {
                            a.extend_from_slice(only);
                        }
                        continue;
                    }
                    let mut next = Vec::new();
                    for a in &acc {
                        for b in &branches {
                            let mut c = a.clone();
                            c.extend(b.iter().cloned());
                            next.push(c);
                            if next.len() > limit {
                                return None;
                            }
                        }
                    }
                    acc = next;
                }
                Some(acc)
            }
            PForm::Not(_) | PForm::Ex(_, _) | PForm::All(_, _) => None,
        }
    }
    rec(&nnf_absorb(form), limit)
}

/// NNF with negation absorbed into atoms.
fn nnf_absorb(form: &PForm) -> PForm {
    fn rec(form: &PForm, pos: bool) -> PForm {
        match (form, pos) {
            (PForm::True, true) | (PForm::False, false) => PForm::True,
            (PForm::True, false) | (PForm::False, true) => PForm::False,
            (PForm::Atom(a), true) => PForm::Atom(a.clone()),
            (PForm::Atom(a), false) => PForm::Atom(negate_atom(a)),
            (PForm::And(ps), true) => PForm::and(ps.iter().map(|p| rec(p, true)).collect()),
            (PForm::And(ps), false) => PForm::or(ps.iter().map(|p| rec(p, false)).collect()),
            (PForm::Or(ps), true) => PForm::or(ps.iter().map(|p| rec(p, true)).collect()),
            (PForm::Or(ps), false) => PForm::and(ps.iter().map(|p| rec(p, false)).collect()),
            (PForm::Not(p), pos) => rec(p, !pos),
            (q @ (PForm::Ex(_, _) | PForm::All(_, _)), pos) => {
                if pos {
                    q.clone()
                } else {
                    PForm::Not(Box::new(q.clone()))
                }
            }
        }
    }
    rec(form, true)
}

fn negate_atom(a: &PAtom) -> PAtom {
    match a {
        PAtom::Le(t) => PAtom::Le(LinTerm::constant(1).sub(t)),
        PAtom::Eq(t) => PAtom::Neq(t.clone()),
        PAtom::Neq(t) => PAtom::Eq(t.clone()),
        PAtom::Dvd(d, t) => PAtom::NotDvd(*d, t.clone()),
        PAtom::NotDvd(d, t) => PAtom::Dvd(*d, t.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;
    use proptest::prelude::*;

    fn sig_with(entries: &[(&str, Sort)]) -> FxHashMap<Symbol, Sort> {
        entries
            .iter()
            .map(|(n, s)| (Symbol::intern(n), s.clone()))
            .collect()
    }

    fn default_sig() -> FxHashMap<Symbol, Sort> {
        sig_with(&[
            ("S", Sort::objset()),
            ("T", Sort::objset()),
            ("U", Sort::objset()),
            ("x", Sort::Obj),
            ("y", Sort::Obj),
            ("o", Sort::Obj),
            ("k", Sort::Int),
            ("n", Sort::Int),
        ])
    }

    fn valid(src: &str) -> bool {
        bapa_valid(&form(src), &default_sig(), &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{src:?}: {e}"))
    }

    #[test]
    fn budget_halts_region_enumeration() {
        let goal = form(
            "S Int T <= S & S <= S Un T & S - T <= S & T - S <= T & \
             card (S Un T Un U) <= card S + card T + card U",
        );
        let starved = Budget::with_fuel(1);
        assert_eq!(
            bapa_valid(&goal, &default_sig(), &starved),
            Err(Failure::Exhausted(Exhaustion::Fuel))
        );
        // A generous budget agrees with the unlimited entry point.
        let roomy = Budget::with_fuel(10_000_000);
        assert_eq!(bapa_valid(&goal, &default_sig(), &roomy), Ok(true));
    }

    #[test]
    fn forced_sign_branches_are_skipped_and_answers_match_cooper() {
        // Five region-cardinality disequalities (each forced positive) and
        // one mixed-sign one (`card S - card T`, free either way). With
        // |S - T|, |S Int T|, |T - S| >= 1 and |S| ~= |T| the union has at
        // least 1 + 1 + 2 = 4 elements, and exactly 4 is reachable.
        let hyps = "S Int T ~= {} & S - T ~= {} & T - S ~= {} & S ~= {} & T ~= {} \
                    & card S ~= card T";
        // (goal, valid, fuel): one unit for the lone DNF disjunct plus one
        // per sign branch handed to Omega. The valid goal tries both
        // branches of the mixed disequality; the invalid one is satisfied
        // by the first. An exhaustive split would try up to 2^6 branches.
        for (concl, want, fuel) in [
            ("4 <= card (S Un T)", true, 3),
            ("5 <= card (S Un T)", false, 2),
        ] {
            let goal = form(&format!("{hyps} --> {concl}"));
            let budget = Budget::with_fuel(1_000);
            assert_eq!(
                bapa_valid(&goal, &default_sig(), &budget),
                Ok(want),
                "{concl}"
            );
            assert_eq!(1_000 - budget.fuel_remaining(), fuel, "{concl}");
            let (matrix, wf, _) = translate(&Form::not(goal), &default_sig()).unwrap();
            let full = PForm::and(vec![wf, matrix]);
            assert_eq!(
                cooper::sat(&full, &Budget::unlimited()).unwrap(),
                !want,
                "{concl}: cooper disagrees"
            );
        }
    }

    /// Quantifier-free formulas over the sets `S0`–`S2` and the objects
    /// `x0`, `x1`: membership, `⊆`, set `=` and `~=`, and sums of one or
    /// two cardinalities compared with a small integer.
    fn bapa_form() -> impl Strategy<Value = Form> {
        let set = {
            let leaf = prop_oneof![
                (0u8..3).prop_map(|i| Form::v(&format!("S{i}"))),
                (0u8..2).prop_map(|i| Form::FiniteSet(vec![Form::v(&format!("x{i}"))])),
                Just(Form::EmptySet),
            ];
            leaf.prop_recursive(2, 8, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::binop(
                        BinOp::Union,
                        a,
                        b
                    )),
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::binop(
                        BinOp::Inter,
                        a,
                        b
                    )),
                    (inner.clone(), inner).prop_map(|(a, b)| Form::binop(BinOp::Diff, a, b)),
                ]
            })
        };
        let card_sum = prop_oneof![
            set.clone().prop_map(Form::card),
            (set.clone(), set.clone()).prop_map(|(a, b)| Form::binop(
                BinOp::Add,
                Form::card(a),
                Form::card(b)
            )),
        ];
        let atom = prop_oneof![
            ((0u8..2), set.clone()).prop_map(|(i, s)| Form::elem(Form::v(&format!("x{i}")), s)),
            (set.clone(), set.clone()).prop_map(|(a, b)| Form::binop(BinOp::Subseteq, a, b)),
            (set.clone(), set.clone()).prop_map(|(a, b)| Form::eq(a, b)),
            (set.clone(), set).prop_map(|(a, b)| Form::ne(a, b)),
            (card_sum, 0i64..4, 0u8..3).prop_map(|(sum, k, op)| {
                let op = [BinOp::Le, BinOp::Lt, BinOp::Eq][usize::from(op)];
                Form::binop(op, sum, Form::int(k))
            }),
        ];
        atom.prop_recursive(2, 8, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::and(vec![a, b])),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::or(vec![a, b])),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::implies(a, b)),
                inner.prop_map(Form::not),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Merging regions is exact. On every DNF disjunct of a random
        /// formula's translation, Omega decides the merged rows as it
        /// decides the rows of every region, and `pform_sat` agrees with
        /// the unmerged disjuncts. Where the formula has at most two base
        /// sets, Cooper on the whole unmerged translation agrees as well;
        /// with more, Cooper's elimination multiplies disjuncts per region
        /// and does not finish on some three-base formulas in seconds.
        #[test]
        fn merged_regions_agree_with_every_region(f in bapa_form()) {
            let sig = sig_with(&[
                ("S0", Sort::objset()),
                ("S1", Sort::objset()),
                ("S2", Sort::objset()),
                ("x0", Sort::Obj),
                ("x1", Sort::Obj),
            ]);
            let (matrix, wf, bases) = translate(&f, &sig).unwrap_or_else(|e| panic!("{f}: {e}"));
            let full = PForm::and(vec![wf, matrix]);
            let unlimited = Budget::unlimited();
            let mut unmerged = false;
            for conj in dnf(&full, 2048).unwrap_or_else(|| panic!("{f}: DNF too large")) {
                let (rows, forced) = (Rows::of(&conj), forced_signs(&conj));
                let every_region = rows.sat(forced, &unlimited).unwrap();
                prop_assert_eq!(rows.merged().sat(forced, &unlimited).unwrap(), every_region, "{}", f);
                unmerged |= every_region;
            }
            prop_assert_eq!(pform_sat(&full, &unlimited).unwrap(), unmerged, "{}", f);
            if bases <= 2 {
                prop_assert_eq!(cooper::sat(&full, &unlimited).unwrap(), unmerged, "{}", f);
            }
        }
    }

    #[test]
    fn merging_leaves_omega_the_regions_the_atoms_tell_apart() {
        // A piece of game.javax's `Game.move` with six base sets: the
        // objects `null` and `u` and four sets, so 64 regions. The
        // negated goal's two disjuncts (from `u = null | ...`) tell 19
        // and 35 of them apart.
        let sig = sig_with(&[
            ("Object.alloc", Sort::objset()),
            ("Game.redUnits", Sort::objset()),
            ("Game.blueUnits", Sort::objset()),
            ("Game.captured", Sort::objset()),
            ("u", Sort::Obj),
        ]);
        let goal = form(
            "u = null | u : Object.alloc --> u ~= null --> u ~: Game.redUnits \
             --> u ~: Game.blueUnits --> u ~: Game.captured \
             --> (Game.redUnits Un {u}) Int Game.blueUnits = {}",
        );
        let (matrix, wf, bases) = translate(&Form::not(goal.clone()), &sig).unwrap();
        assert_eq!(bases, 6);
        let disjuncts = dnf(&PForm::and(vec![wf, matrix]), 2048).unwrap();
        let widths: Vec<(usize, usize)> = disjuncts
            .iter()
            .map(|conj| {
                let rows = Rows::of(conj);
                let width = rows.width;
                (width, rows.merged().width)
            })
            .collect();
        assert_eq!(widths, [(64, 19), (64, 35)]);
        assert_eq!(bapa_valid(&goal, &sig, &Budget::unlimited()), Ok(false));
    }

    #[test]
    fn set_algebra_tautologies() {
        assert!(valid("S Int T <= S"));
        assert!(valid("S <= S Un T"));
        assert!(valid("S - T <= S"));
        assert!(valid("S Int T = T Int S"));
        assert!(valid("(S Un T) Un U = S Un (T Un U)"));
        assert!(valid("S Int (T Un U) = (S Int T) Un (S Int U)"));
        assert!(!valid("S <= S Int T"));
        assert!(!valid("S Un T <= S"));
    }

    #[test]
    fn membership_reasoning() {
        assert!(valid("x : S --> x : S Un T"));
        assert!(valid("x : S Int T --> x : S & x : T"));
        assert!(valid("x : S & x ~: T --> x : S - T"));
        assert!(!valid("x : S Un T --> x : S"));
        assert!(valid("x : {y} --> x = y"));
        assert!(valid("x = y --> x : {y}"));
    }

    #[test]
    fn figure2_disjointness_preservation() {
        // The core of the List client proof: moving an element from a to b
        // keeps the two contents disjoint.
        let sig = sig_with(&[
            ("cA", Sort::objset()),
            ("cB", Sort::objset()),
            ("cA2", Sort::objset()),
            ("cB2", Sort::objset()),
            ("o", Sort::Obj),
        ]);
        let f = form(
            "cA Int cB = {} & o : cA & cA2 = cA - {o} & cB2 = cB Un {o} \
             --> cA2 Int cB2 = {}",
        );
        assert_eq!(bapa_valid(&f, &sig, &Budget::unlimited()), Ok(true));
        // Dropping the disjointness hypothesis breaks it.
        let g = form("o : cA & cA2 = cA - {o} & cB2 = cB Un {o} --> cA2 Int cB2 = {}");
        assert_eq!(bapa_valid(&g, &sig, &Budget::unlimited()), Ok(false));
    }

    #[test]
    fn cardinality_reasoning() {
        assert!(valid("card (S Un T) <= card S + card T"));
        assert!(valid("card (S Un T) + card (S Int T) = card S + card T"));
        assert!(valid("S <= T --> card S <= card T"));
        assert!(valid("card S = 0 --> S = {}"));
        assert!(valid("S = {} --> card S = 0"));
        assert!(!valid("card (S Un T) = card S + card T"));
        assert!(valid("x : S --> 1 <= card S"));
        assert!(valid("card {x} = 1"));
        assert!(valid("card {x, y} <= 2"));
        assert!(!valid("card {x, y} = 2"));
    }

    #[test]
    fn mixed_int_vars() {
        assert!(valid(
            "card S = k & card T = n & S Int T = {} --> card (S Un T) = k + n"
        ));
        assert!(valid("card (S Int T) <= card S"));
    }

    #[test]
    fn null_handling() {
        assert!(valid("x = null --> x : {null}"));
        assert!(valid("x ~= null --> x ~: {null}"));
    }

    #[test]
    fn empty_and_finite_sets() {
        assert!(valid("{} <= S"));
        assert!(valid("{x} Un {y} = {x, y}"));
        assert!(valid("x ~= y --> card {x, y} = 2"));
    }

    #[test]
    fn rejects_out_of_fragment() {
        let sig = default_sig();
        assert!(bapa_valid(&form("rtrancl_pt p x y"), &sig, &Budget::unlimited()).is_err());
        assert!(bapa_valid(&form("ALL z. z : S"), &sig, &Budget::unlimited()).is_err());
        // Opaque applications are *abstracted*, not rejected: the equality
        // below is not valid under abstraction (sound), and congruence-free
        // abstraction keeps it unprovable.
        assert_eq!(
            bapa_valid(&form("next x = y"), &sig, &Budget::unlimited()),
            Ok(false)
        );
    }

    #[test]
    fn differential_vs_small_models() {
        // BAPA verdicts must agree with exhaustive small-model enumeration
        // (universe of 2 objects + null) on these goals: each is either
        // valid, or refutable by a model with ≤2 proper objects.
        use jahob_logic::model::enumerate_models;
        let sig = default_sig();
        let goals = [
            "S Int T <= S",
            "S <= S Un T",
            "S Un T <= S",
            "S - T <= S",
            "S <= T --> S Int U <= T Int U",
            "x : S --> x : S Un T",
            "x : S Un T --> x : T",
            "S Int T = {} & x : S --> x ~: T",
        ];
        let syms: Vec<(Symbol, Sort)> = [
            ("S", Sort::objset()),
            ("T", Sort::objset()),
            ("U", Sort::objset()),
            ("x", Sort::Obj),
        ]
        .iter()
        .map(|(n, s)| (Symbol::intern(n), s.clone()))
        .collect();
        for src in goals {
            let f = form(src);
            let bapa = bapa_valid(&f, &sig, &Budget::unlimited()).unwrap();
            let small_valid = enumerate_models(2, (0, 0), &syms, &mut |m| m.eval_bool(&f).unwrap());
            assert_eq!(
                bapa, small_valid,
                "{src}: bapa={bapa}, small-model={small_valid}"
            );
        }
    }

    #[test]
    fn base_set_counting() {
        let sig = default_sig();
        assert_eq!(base_set_count(&form("S Int T = {}"), &sig), Ok(2));
        assert_eq!(base_set_count(&form("x : S"), &sig), Ok(2));
        assert_eq!(base_set_count(&form("S = S"), &sig), Ok(1));
    }
}
