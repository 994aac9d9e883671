//! Cooper's quantifier elimination for Presburger arithmetic.
//!
//! Complete for the full first-order theory of `(ℤ, +, ≤, ≡ₙ)`. The
//! implementation follows the classic presentation: normalize the bound
//! variable's coefficients to ±1 (at the cost of one divisibility
//! constraint), then replace `∃x. φ(x)` by
//!
//! ```text
//!   ⋁_{j=1..δ} φ₋∞(j)  ∨  ⋁_{j=1..δ} ⋁_{b ∈ B} φ(b + j)
//! ```
//!
//! where `δ` is the lcm of the divisibility moduli, `B` the set of lower
//! boundary terms, and `φ₋∞` the limit of `φ` as `x → −∞`.

use crate::linterm::{lcm, mod_floor, LinTerm};
use jahob_util::budget::{Budget, Exhaustion};
use jahob_util::Symbol;
use std::fmt;

/// An atomic Presburger constraint. All atoms are normalized against zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PAtom {
    /// `t <= 0`.
    Le(LinTerm),
    /// `t = 0`.
    Eq(LinTerm),
    /// `t != 0`.
    Neq(LinTerm),
    /// `d | t` with `d > 0`.
    Dvd(i64, LinTerm),
    /// `¬(d | t)` with `d > 0`.
    NotDvd(i64, LinTerm),
}

impl PAtom {
    /// Evaluate a ground atom; `None` if variables remain.
    fn eval_ground(&self) -> Option<bool> {
        match self {
            PAtom::Le(t) if t.is_constant() => Some(t.konst <= 0),
            PAtom::Eq(t) if t.is_constant() => Some(t.konst == 0),
            PAtom::Neq(t) if t.is_constant() => Some(t.konst != 0),
            PAtom::Dvd(d, t) if t.is_constant() => Some(mod_floor(t.konst, *d) == 0),
            PAtom::NotDvd(d, t) if t.is_constant() => Some(mod_floor(t.konst, *d) != 0),
            _ => None,
        }
    }

    /// Evaluate under an assignment.
    pub fn eval(&self, env: &dyn Fn(Symbol) -> i64) -> bool {
        match self {
            PAtom::Le(t) => t.eval(env) <= 0,
            PAtom::Eq(t) => t.eval(env) == 0,
            PAtom::Neq(t) => t.eval(env) != 0,
            PAtom::Dvd(d, t) => mod_floor(t.eval(env), *d) == 0,
            PAtom::NotDvd(d, t) => mod_floor(t.eval(env), *d) != 0,
        }
    }

    fn negate(&self) -> PAtom {
        match self {
            // ¬(t ≤ 0) ⇔ t ≥ 1 ⇔ 1 - t ≤ 0.
            PAtom::Le(t) => PAtom::Le(LinTerm::constant(1).sub(t)),
            PAtom::Eq(t) => PAtom::Neq(t.clone()),
            PAtom::Neq(t) => PAtom::Eq(t.clone()),
            PAtom::Dvd(d, t) => PAtom::NotDvd(*d, t.clone()),
            PAtom::NotDvd(d, t) => PAtom::Dvd(*d, t.clone()),
        }
    }

    fn subst(&self, x: Symbol, t: &LinTerm) -> PAtom {
        match self {
            PAtom::Le(u) => PAtom::Le(u.subst(x, t)),
            PAtom::Eq(u) => PAtom::Eq(u.subst(x, t)),
            PAtom::Neq(u) => PAtom::Neq(u.subst(x, t)),
            PAtom::Dvd(d, u) => PAtom::Dvd(*d, u.subst(x, t)),
            PAtom::NotDvd(d, u) => PAtom::NotDvd(*d, u.subst(x, t)),
        }
    }

    fn term(&self) -> &LinTerm {
        match self {
            PAtom::Le(t)
            | PAtom::Eq(t)
            | PAtom::Neq(t)
            | PAtom::Dvd(_, t)
            | PAtom::NotDvd(_, t) => t,
        }
    }
}

impl fmt::Display for PAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PAtom::Le(t) => write!(f, "{t} <= 0"),
            PAtom::Eq(t) => write!(f, "{t} = 0"),
            PAtom::Neq(t) => write!(f, "{t} != 0"),
            PAtom::Dvd(d, t) => write!(f, "{d} | {t}"),
            PAtom::NotDvd(d, t) => write!(f, "~({d} | {t})"),
        }
    }
}

/// A Presburger formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PForm {
    True,
    False,
    Atom(PAtom),
    And(Vec<PForm>),
    Or(Vec<PForm>),
    Not(Box<PForm>),
    Ex(Symbol, Box<PForm>),
    All(Symbol, Box<PForm>),
}

impl PForm {
    pub fn and(parts: Vec<PForm>) -> PForm {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                PForm::True => {}
                PForm::False => return PForm::False,
                PForm::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.pop() {
            None => PForm::True,
            Some(single) if out.is_empty() => single,
            Some(last) => {
                out.push(last);
                PForm::And(out)
            }
        }
    }

    pub fn or(parts: Vec<PForm>) -> PForm {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                PForm::False => {}
                PForm::True => return PForm::True,
                PForm::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.pop() {
            None => PForm::False,
            Some(single) if out.is_empty() => single,
            Some(last) => {
                out.push(last);
                PForm::Or(out)
            }
        }
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(p: PForm) -> PForm {
        match p {
            PForm::True => PForm::False,
            PForm::False => PForm::True,
            PForm::Not(inner) => *inner,
            other => PForm::Not(Box::new(other)),
        }
    }

    /// `t1 <= t2`.
    pub fn le(t1: LinTerm, t2: LinTerm) -> PForm {
        PForm::Atom(PAtom::Le(t1.sub(&t2)))
    }

    /// `t1 < t2`.
    pub fn lt(t1: LinTerm, t2: LinTerm) -> PForm {
        PForm::Atom(PAtom::Le(t1.sub(&t2).add(&LinTerm::constant(1))))
    }

    /// `t1 = t2`.
    pub fn eq(t1: LinTerm, t2: LinTerm) -> PForm {
        PForm::Atom(PAtom::Eq(t1.sub(&t2)))
    }

    /// Evaluate a quantifier-free formula under an assignment.
    pub fn eval_qf(&self, env: &dyn Fn(Symbol) -> i64) -> bool {
        match self {
            PForm::True => true,
            PForm::False => false,
            PForm::Atom(a) => a.eval(env),
            PForm::And(ps) => ps.iter().all(|p| p.eval_qf(env)),
            PForm::Or(ps) => ps.iter().any(|p| p.eval_qf(env)),
            PForm::Not(p) => !p.eval_qf(env),
            PForm::Ex(_, _) | PForm::All(_, _) => {
                panic!("eval_qf on quantified formula")
            }
        }
    }

    /// Free variables.
    pub fn free_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let mut bound = Vec::new();
        self.collect_vars(&mut bound, &mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_vars(&self, bound: &mut Vec<Symbol>, out: &mut Vec<Symbol>) {
        match self {
            PForm::True | PForm::False => {}
            PForm::Atom(a) => {
                for v in a.term().vars() {
                    if !bound.contains(&v) {
                        out.push(v);
                    }
                }
            }
            PForm::And(ps) | PForm::Or(ps) => {
                for p in ps {
                    p.collect_vars(bound, out);
                }
            }
            PForm::Not(p) => p.collect_vars(bound, out),
            PForm::Ex(x, p) | PForm::All(x, p) => {
                bound.push(*x);
                p.collect_vars(bound, out);
                bound.pop();
            }
        }
    }

    /// NNF with negations absorbed into atoms.
    fn nnf(&self, positive: bool) -> PForm {
        match (self, positive) {
            (PForm::True, true) | (PForm::False, false) => PForm::True,
            (PForm::True, false) | (PForm::False, true) => PForm::False,
            (PForm::Atom(a), true) => PForm::Atom(a.clone()),
            (PForm::Atom(a), false) => PForm::Atom(a.negate()),
            (PForm::And(ps), true) => PForm::and(ps.iter().map(|p| p.nnf(true)).collect()),
            (PForm::And(ps), false) => PForm::or(ps.iter().map(|p| p.nnf(false)).collect()),
            (PForm::Or(ps), true) => PForm::or(ps.iter().map(|p| p.nnf(true)).collect()),
            (PForm::Or(ps), false) => PForm::and(ps.iter().map(|p| p.nnf(false)).collect()),
            (PForm::Not(p), pos) => p.nnf(!pos),
            (PForm::Ex(x, p), true) => PForm::Ex(*x, Box::new(p.nnf(true))),
            (PForm::Ex(x, p), false) => PForm::All(*x, Box::new(p.nnf(false))),
            (PForm::All(x, p), true) => PForm::All(*x, Box::new(p.nnf(true))),
            (PForm::All(x, p), false) => PForm::Ex(*x, Box::new(p.nnf(false))),
        }
    }

    /// Fold ground atoms and simplify connectives.
    fn simplify(&self) -> PForm {
        match self {
            PForm::Atom(a) => match a.eval_ground() {
                Some(true) => PForm::True,
                Some(false) => PForm::False,
                None => self.clone(),
            },
            PForm::And(ps) => PForm::and(ps.iter().map(|p| p.simplify()).collect()),
            PForm::Or(ps) => PForm::or(ps.iter().map(|p| p.simplify()).collect()),
            PForm::Not(p) => PForm::not(p.simplify()),
            _ => self.clone(),
        }
    }

    fn subst(&self, x: Symbol, t: &LinTerm) -> PForm {
        match self {
            PForm::True | PForm::False => self.clone(),
            PForm::Atom(a) => PForm::Atom(a.subst(x, t)),
            PForm::And(ps) => PForm::And(ps.iter().map(|p| p.subst(x, t)).collect()),
            PForm::Or(ps) => PForm::Or(ps.iter().map(|p| p.subst(x, t)).collect()),
            PForm::Not(p) => PForm::Not(Box::new(p.subst(x, t))),
            PForm::Ex(y, p) if *y != x => PForm::Ex(*y, Box::new(p.subst(x, t))),
            PForm::All(y, p) if *y != x => PForm::All(*y, Box::new(p.subst(x, t))),
            PForm::Ex(_, _) | PForm::All(_, _) => self.clone(),
        }
    }
}

/// Eliminate all quantifiers; the result is quantifier-free and
/// equivalent. Fuel is charged per constructed disjunct, so deeply
/// alternating formulas (the worst-case exponential path) stop
/// cooperatively instead of exhausting memory or time.
pub fn eliminate_quantifiers(form: &PForm, budget: &Budget) -> Result<PForm, Exhaustion> {
    let nnf = form.nnf(true);
    Ok(eliminate_rec(&nnf, budget)?.simplify())
}

fn eliminate_rec(form: &PForm, budget: &Budget) -> Result<PForm, Exhaustion> {
    budget.check()?;
    Ok(match form {
        PForm::True | PForm::False | PForm::Atom(_) => form.clone(),
        PForm::And(ps) => PForm::and(
            ps.iter()
                .map(|p| eliminate_rec(p, budget))
                .collect::<Result<_, _>>()?,
        ),
        PForm::Or(ps) => PForm::or(
            ps.iter()
                .map(|p| eliminate_rec(p, budget))
                .collect::<Result<_, _>>()?,
        ),
        PForm::Not(p) => PForm::not(eliminate_rec(p, budget)?),
        PForm::Ex(x, p) => {
            let inner = eliminate_rec(p, budget)?;
            // Inner elimination may have produced Not over atoms via
            // simplification; re-normalize to push negations into atoms.
            let inner = inner.nnf(true);
            eliminate_ex(*x, &inner, budget)?
        }
        PForm::All(x, p) => {
            let inner = eliminate_rec(p, budget)?;
            let negated = PForm::not(inner).nnf(true);
            PForm::not(eliminate_ex(*x, &negated, budget)?)
        }
    })
}

/// Cooper's elimination of one existential over a quantifier-free NNF body.
fn eliminate_ex(x: Symbol, body: &PForm, budget: &Budget) -> Result<PForm, Exhaustion> {
    let body = body.simplify();
    // Collect the lcm of |coefficients| of x.
    let mut l = 1i64;
    collect_coeff_lcm(&body, x, &mut l);
    if l == 0 {
        unreachable!("lcm never zero");
    }
    // Normalize x's coefficient to ±1; conjoin l | x when l > 1.
    let mut normalized = normalize_coeffs(&body, x, l);
    if l > 1 {
        normalized = PForm::and(vec![
            normalized,
            PForm::Atom(PAtom::Dvd(l, LinTerm::var(x))),
        ]);
    }
    // δ: lcm of divisibility moduli mentioning x.
    let mut delta = 1i64;
    collect_delta(&normalized, x, &mut delta);
    // Boundary terms: choose the smaller of the lower set (B, with φ₋∞) and
    // the upper set (A, with φ₊∞) — the standard Cooper optimization that
    // keeps the disjunction from exploding.
    let mut lower_bounds: Vec<LinTerm> = Vec::new();
    collect_bounds(&normalized, x, false, &mut lower_bounds);
    let mut upper_bounds: Vec<LinTerm> = Vec::new();
    collect_bounds(&normalized, x, true, &mut upper_bounds);
    dedup_terms(&mut lower_bounds);
    dedup_terms(&mut upper_bounds);

    let use_upper = upper_bounds.len() < lower_bounds.len();
    let bounds = if use_upper {
        &upper_bounds
    } else {
        &lower_bounds
    };
    let limit = infinity_limit(&normalized, x, use_upper);

    // Each iteration substitutes into (and re-simplifies) the whole body,
    // which grows exponentially across eliminations — so a single "unit" of
    // fuel here can stand for a lot of wall-clock time. Poll the deadline
    // unamortized: one clock read per full-formula traversal is noise.
    let mut disjuncts = Vec::new();
    for j in 1..=delta {
        budget.check()?;
        budget.poll_deadline()?;
        let jval = if use_upper { -j } else { j };
        disjuncts.push(limit.subst(x, &LinTerm::constant(jval)).simplify());
    }
    for j in 1..=delta {
        for b in bounds {
            budget.check()?;
            budget.poll_deadline()?;
            let t = if use_upper {
                b.sub(&LinTerm::constant(j))
            } else {
                b.add(&LinTerm::constant(j))
            };
            disjuncts.push(normalized.subst(x, &t).simplify());
        }
    }
    dedup_forms(&mut disjuncts, budget)?;
    Ok(PForm::or(disjuncts))
}

fn dedup_terms(terms: &mut Vec<LinTerm>) {
    let mut seen: Vec<LinTerm> = Vec::new();
    terms.retain(|t| {
        if seen.contains(t) {
            false
        } else {
            seen.push(t.clone());
            true
        }
    });
}

// Quadratic in the disjunct count, and every `contains` compares whole
// formulas — check the budget per element so a blown-up disjunction cannot
// stall past its deadline here.
fn dedup_forms(forms: &mut Vec<PForm>, budget: &Budget) -> Result<(), Exhaustion> {
    let mut seen: Vec<PForm> = Vec::new();
    for f in std::mem::take(forms) {
        budget.check()?;
        budget.poll_deadline()?;
        if !seen.contains(&f) {
            seen.push(f);
        }
    }
    *forms = seen;
    Ok(())
}

fn collect_coeff_lcm(form: &PForm, x: Symbol, l: &mut i64) {
    match form {
        PForm::Atom(a) => {
            let c = a.term().coeff(x);
            if c != 0 {
                *l = lcm(*l, c.abs());
            }
        }
        PForm::And(ps) | PForm::Or(ps) => {
            for p in ps {
                collect_coeff_lcm(p, x, l);
            }
        }
        PForm::Not(p) => collect_coeff_lcm(p, x, l),
        _ => {}
    }
}

/// Scale every atom so the coefficient of `x` is ±1, under the change of
/// variable x ↦ x/l (i.e. the new x stands for l·old x).
fn normalize_coeffs(form: &PForm, x: Symbol, l: i64) -> PForm {
    match form {
        PForm::True | PForm::False => form.clone(),
        PForm::Atom(a) => {
            let c = a.term().coeff(x);
            if c == 0 {
                return form.clone();
            }
            let m = l / c.abs();
            let scaled = match a {
                PAtom::Le(t) => PAtom::Le(t.scale(m)),
                PAtom::Eq(t) => PAtom::Eq(t.scale(m)),
                PAtom::Neq(t) => PAtom::Neq(t.scale(m)),
                PAtom::Dvd(d, t) => PAtom::Dvd(d * m, t.scale(m)),
                PAtom::NotDvd(d, t) => PAtom::NotDvd(d * m, t.scale(m)),
            };
            // Replace the ±l coefficient by ±1.
            let rewrite = |t: &LinTerm| -> LinTerm {
                let (coeff, rest) = t.split(x);
                debug_assert_eq!(coeff.abs(), l);
                let sign = if coeff > 0 { 1 } else { -1 };
                rest.add(&LinTerm::var(x).scale(sign))
            };
            PForm::Atom(match scaled {
                PAtom::Le(t) => PAtom::Le(rewrite(&t)),
                PAtom::Eq(t) => PAtom::Eq(rewrite(&t)),
                PAtom::Neq(t) => PAtom::Neq(rewrite(&t)),
                PAtom::Dvd(d, t) => PAtom::Dvd(d, rewrite(&t)),
                PAtom::NotDvd(d, t) => PAtom::NotDvd(d, rewrite(&t)),
            })
        }
        PForm::And(ps) => PForm::And(ps.iter().map(|p| normalize_coeffs(p, x, l)).collect()),
        PForm::Or(ps) => PForm::Or(ps.iter().map(|p| normalize_coeffs(p, x, l)).collect()),
        PForm::Not(p) => PForm::Not(Box::new(normalize_coeffs(p, x, l))),
        PForm::Ex(_, _) | PForm::All(_, _) => {
            unreachable!("quantifier inside Cooper matrix")
        }
    }
}

fn collect_delta(form: &PForm, x: Symbol, delta: &mut i64) {
    match form {
        PForm::Atom(PAtom::Dvd(d, t)) | PForm::Atom(PAtom::NotDvd(d, t)) if t.coeff(x) != 0 => {
            *delta = lcm(*delta, *d);
        }
        PForm::And(ps) | PForm::Or(ps) => {
            for p in ps {
                collect_delta(p, x, delta);
            }
        }
        PForm::Not(p) => collect_delta(p, x, delta),
        _ => {}
    }
}

/// Boundary terms. With atoms normalized to coefficient ±1:
///
/// Lower set B (`upper == false`):
/// * `-x + r ≤ 0` (x ≥ r): boundary `r - 1`,
/// * `x = t`: boundary `t - 1`,
/// * `x ≠ t`: boundary `t`.
///
/// Upper set A (`upper == true`):
/// * `x + r ≤ 0` (x ≤ -r): boundary `-r + 1`,
/// * `x = t`: boundary `t + 1`,
/// * `x ≠ t`: boundary `t`.
fn collect_bounds(form: &PForm, x: Symbol, upper: bool, out: &mut Vec<LinTerm>) {
    match form {
        PForm::Atom(a) => {
            let (c, rest) = a.term().split(x);
            if c == 0 {
                return;
            }
            match a {
                PAtom::Le(_) if c == -1 && !upper => {
                    // -x + r <= 0 : x >= r.
                    out.push(rest.sub(&LinTerm::constant(1)));
                }
                PAtom::Le(_) if c == 1 && upper => {
                    // x + r <= 0 : x <= -r.
                    out.push(rest.scale(-1).add(&LinTerm::constant(1)));
                }
                PAtom::Le(_) => {}
                PAtom::Eq(_) => {
                    // c x + r = 0; with c = ±1, x = -c·r.
                    let val = rest.scale(-c);
                    if upper {
                        out.push(val.add(&LinTerm::constant(1)));
                    } else {
                        out.push(val.sub(&LinTerm::constant(1)));
                    }
                }
                PAtom::Neq(_) => {
                    out.push(rest.scale(-c));
                }
                PAtom::Dvd(_, _) | PAtom::NotDvd(_, _) => {}
            }
        }
        PForm::And(ps) | PForm::Or(ps) => {
            for p in ps {
                collect_bounds(p, x, upper, out);
            }
        }
        PForm::Not(p) => collect_bounds(p, x, upper, out),
        _ => {}
    }
}

/// φ₋∞ / φ₊∞: the limit of φ as x → ∓∞ (boundable atoms replaced by
/// constants; divisibility atoms kept).
fn infinity_limit(form: &PForm, x: Symbol, plus: bool) -> PForm {
    match form {
        PForm::True | PForm::False => form.clone(),
        PForm::Atom(a) => {
            let c = a.term().coeff(x);
            if c == 0 {
                return form.clone();
            }
            match a {
                // x + r ≤ 0 holds as x → −∞, fails as x → +∞; dually for
                // -x + r ≤ 0.
                PAtom::Le(_) => {
                    if (c == 1) != plus {
                        PForm::True
                    } else {
                        PForm::False
                    }
                }
                PAtom::Eq(_) => PForm::False,
                PAtom::Neq(_) => PForm::True,
                PAtom::Dvd(_, _) | PAtom::NotDvd(_, _) => form.clone(),
            }
        }
        PForm::And(ps) => PForm::and(ps.iter().map(|p| infinity_limit(p, x, plus)).collect()),
        PForm::Or(ps) => PForm::or(ps.iter().map(|p| infinity_limit(p, x, plus)).collect()),
        PForm::Not(p) => PForm::not(infinity_limit(p, x, plus)),
        PForm::Ex(_, _) | PForm::All(_, _) => unreachable!(),
    }
}

/// Decide a closed (sentence) Presburger formula. Returns `None` if the
/// formula has free variables.
pub fn decide_closed(form: &PForm, budget: &Budget) -> Result<Option<bool>, Exhaustion> {
    if !form.free_vars().is_empty() {
        return Ok(None);
    }
    Ok(match eliminate_quantifiers(form, budget)? {
        PForm::True => Some(true),
        PForm::False => Some(false),
        other => {
            // All atoms must be ground; simplify fully.
            match other.simplify() {
                PForm::True => Some(true),
                PForm::False => Some(false),
                _ => unreachable!("closed QE result must be ground"),
            }
        }
    })
}

/// Decide validity: universally close the free variables.
pub fn valid(form: &PForm, budget: &Budget) -> Result<bool, Exhaustion> {
    let mut closed = form.clone();
    for v in form.free_vars() {
        closed = PForm::All(v, Box::new(closed));
    }
    Ok(decide_closed(&closed, budget)?
        .expect("every free variable was universally closed above, so QE leaves a constant"))
}

/// Decide satisfiability: existentially close the free variables.
pub fn sat(form: &PForm, budget: &Budget) -> Result<bool, Exhaustion> {
    let mut closed = form.clone();
    for v in form.free_vars() {
        closed = PForm::Ex(v, Box::new(closed));
    }
    Ok(decide_closed(&closed, budget)?
        .expect("every free variable was existentially closed above, so QE leaves a constant"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    fn x() -> LinTerm {
        LinTerm::var(s("x"))
    }

    fn y() -> LinTerm {
        LinTerm::var(s("y"))
    }

    fn k(v: i64) -> LinTerm {
        LinTerm::constant(v)
    }

    #[test]
    fn ground_decisions() {
        assert_eq!(
            decide_closed(&PForm::le(k(1), k(2)), &Budget::unlimited()).unwrap(),
            Some(true)
        );
        assert_eq!(
            decide_closed(&PForm::le(k(3), k(2)), &Budget::unlimited()).unwrap(),
            Some(false)
        );
        assert_eq!(
            decide_closed(&PForm::Atom(PAtom::Dvd(3, k(9))), &Budget::unlimited()).unwrap(),
            Some(true)
        );
        assert_eq!(
            decide_closed(&PForm::Atom(PAtom::Dvd(3, k(-7))), &Budget::unlimited()).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn exists_simple() {
        // Ex x. x = 5.
        let f = PForm::Ex(s("x"), Box::new(PForm::eq(x(), k(5))));
        assert_eq!(decide_closed(&f, &Budget::unlimited()).unwrap(), Some(true));
        // Ex x. x <= 3 & 5 <= x  — unsat.
        let g = PForm::Ex(
            s("x"),
            Box::new(PForm::and(vec![PForm::le(x(), k(3)), PForm::le(k(5), x())])),
        );
        assert_eq!(
            decide_closed(&g, &Budget::unlimited()).unwrap(),
            Some(false)
        );
        // Ex x. x <= 3 & 3 <= x  — sat (x = 3).
        let h = PForm::Ex(
            s("x"),
            Box::new(PForm::and(vec![PForm::le(x(), k(3)), PForm::le(k(3), x())])),
        );
        assert_eq!(decide_closed(&h, &Budget::unlimited()).unwrap(), Some(true));
    }

    #[test]
    fn divisibility_constraints() {
        // Ex x. 2|x & 3|x & 10 <= x & x <= 11 — unsat (next multiple of 6 is 12).
        let f = PForm::Ex(
            s("x"),
            Box::new(PForm::and(vec![
                PForm::Atom(PAtom::Dvd(2, x())),
                PForm::Atom(PAtom::Dvd(3, x())),
                PForm::le(k(10), x()),
                PForm::le(x(), k(11)),
            ])),
        );
        assert_eq!(
            decide_closed(&f, &Budget::unlimited()).unwrap(),
            Some(false)
        );
        // Widen to x <= 12: sat.
        let g = PForm::Ex(
            s("x"),
            Box::new(PForm::and(vec![
                PForm::Atom(PAtom::Dvd(2, x())),
                PForm::Atom(PAtom::Dvd(3, x())),
                PForm::le(k(10), x()),
                PForm::le(x(), k(12)),
            ])),
        );
        assert_eq!(decide_closed(&g, &Budget::unlimited()).unwrap(), Some(true));
    }

    #[test]
    fn coefficient_normalization() {
        // Ex x. 2x = 7 — unsat (7 odd).
        let f = PForm::Ex(s("x"), Box::new(PForm::eq(x().scale(2), k(7))));
        assert_eq!(
            decide_closed(&f, &Budget::unlimited()).unwrap(),
            Some(false)
        );
        // Ex x. 2x = 8 — sat.
        let g = PForm::Ex(s("x"), Box::new(PForm::eq(x().scale(2), k(8))));
        assert_eq!(decide_closed(&g, &Budget::unlimited()).unwrap(), Some(true));
        // Ex x. 3x <= 10 & 10 <= 4x — x=3: 9<=10, 10<=12. sat.
        let h = PForm::Ex(
            s("x"),
            Box::new(PForm::and(vec![
                PForm::le(x().scale(3), k(10)),
                PForm::le(k(10), x().scale(4)),
            ])),
        );
        assert_eq!(decide_closed(&h, &Budget::unlimited()).unwrap(), Some(true));
    }

    #[test]
    fn universal_quantifier() {
        // ALL x. x <= x + 1: valid.
        let f = PForm::All(s("x"), Box::new(PForm::le(x(), x().add(&k(1)))));
        assert_eq!(decide_closed(&f, &Budget::unlimited()).unwrap(), Some(true));
        // ALL x. 0 <= x: invalid.
        let g = PForm::All(s("x"), Box::new(PForm::le(k(0), x())));
        assert_eq!(
            decide_closed(&g, &Budget::unlimited()).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn alternating_quantifiers() {
        // ALL x. EX y. y = x + 1: valid.
        let f = PForm::All(
            s("x"),
            Box::new(PForm::Ex(s("y"), Box::new(PForm::eq(y(), x().add(&k(1)))))),
        );
        assert_eq!(decide_closed(&f, &Budget::unlimited()).unwrap(), Some(true));
        // EX y. ALL x. x <= y: invalid (no max integer).
        let g = PForm::Ex(
            s("y"),
            Box::new(PForm::All(s("x"), Box::new(PForm::le(x(), y())))),
        );
        assert_eq!(
            decide_closed(&g, &Budget::unlimited()).unwrap(),
            Some(false)
        );
        // ALL x. EX y. 2y = x: invalid (odd x).
        let h = PForm::All(
            s("x"),
            Box::new(PForm::Ex(s("y"), Box::new(PForm::eq(y().scale(2), x())))),
        );
        assert_eq!(
            decide_closed(&h, &Budget::unlimited()).unwrap(),
            Some(false)
        );
        // ALL x. EX y. 2y = x | 2y = x + 1: valid.
        let i = PForm::All(
            s("x"),
            Box::new(PForm::Ex(
                s("y"),
                Box::new(PForm::or(vec![
                    PForm::eq(y().scale(2), x()),
                    PForm::eq(y().scale(2), x().add(&k(1))),
                ])),
            )),
        );
        assert_eq!(decide_closed(&i, &Budget::unlimited()).unwrap(), Some(true));
    }

    #[test]
    fn even_odd_theorem() {
        // ALL x. 2|x | 2|(x+1): valid.
        let f = PForm::All(
            s("x"),
            Box::new(PForm::or(vec![
                PForm::Atom(PAtom::Dvd(2, x())),
                PForm::Atom(PAtom::Dvd(2, x().add(&k(1)))),
            ])),
        );
        assert_eq!(decide_closed(&f, &Budget::unlimited()).unwrap(), Some(true));
        // ALL x. 2|x: invalid.
        let g = PForm::All(s("x"), Box::new(PForm::Atom(PAtom::Dvd(2, x()))));
        assert_eq!(
            decide_closed(&g, &Budget::unlimited()).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn validity_with_free_vars() {
        // x <= y | y <= x is valid.
        let f = PForm::or(vec![PForm::le(x(), y()), PForm::le(y(), x())]);
        assert!(valid(&f, &Budget::unlimited()).unwrap());
        assert!(sat(&f, &Budget::unlimited()).unwrap());
        // x < y & y < x is unsat.
        let g = PForm::and(vec![PForm::lt(x(), y()), PForm::lt(y(), x())]);
        assert!(!sat(&g, &Budget::unlimited()).unwrap());
        assert!(!valid(&g, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn negation_in_scope() {
        // Ex x. ~(x <= 5) & x <= 6 — sat (x = 6).
        let f = PForm::Ex(
            s("x"),
            Box::new(PForm::and(vec![
                PForm::not(PForm::le(x(), k(5))),
                PForm::le(x(), k(6)),
            ])),
        );
        assert_eq!(decide_closed(&f, &Budget::unlimited()).unwrap(), Some(true));
        // Ex x. ~(x <= 5) & x <= 5 — unsat.
        let g = PForm::Ex(
            s("x"),
            Box::new(PForm::and(vec![
                PForm::not(PForm::le(x(), k(5))),
                PForm::le(x(), k(5)),
            ])),
        );
        assert_eq!(
            decide_closed(&g, &Budget::unlimited()).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn neq_atoms() {
        // Ex x. x != 0 & 0 <= x & x <= 1 — sat (x = 1).
        let f = PForm::Ex(
            s("x"),
            Box::new(PForm::and(vec![
                PForm::Atom(PAtom::Neq(x())),
                PForm::le(k(0), x()),
                PForm::le(x(), k(1)),
            ])),
        );
        assert_eq!(decide_closed(&f, &Budget::unlimited()).unwrap(), Some(true));
        // Ex x. x != 0 & 0 <= x & x <= 0 — unsat.
        let g = PForm::Ex(
            s("x"),
            Box::new(PForm::and(vec![
                PForm::Atom(PAtom::Neq(x())),
                PForm::le(k(0), x()),
                PForm::le(x(), k(0)),
            ])),
        );
        assert_eq!(
            decide_closed(&g, &Budget::unlimited()).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn budget_stops_deep_alternation() {
        // Build a deep ∀∃∀∃… alternation with awkward coefficients: each
        // layer multiplies the disjunction count, so a small fuel budget
        // must trip before elimination completes.
        let names: Vec<Symbol> = (0..8).map(|i| s(&format!("q{i}"))).collect();
        let mut body = PForm::le(
            names.iter().fold(LinTerm::constant(0), |acc, &v| {
                acc.add(&LinTerm::var(v).scale(3))
            }),
            k(100),
        );
        for (i, &v) in names.iter().enumerate() {
            body = PForm::and(vec![
                body,
                PForm::Atom(PAtom::Dvd(2 + (i as i64 % 3), LinTerm::var(v))),
            ]);
        }
        let mut closed = body;
        for (i, &v) in names.iter().enumerate() {
            closed = if i % 2 == 0 {
                PForm::Ex(v, Box::new(closed))
            } else {
                PForm::All(v, Box::new(closed))
            };
        }
        // Fuel is charged per visited node and per constructed disjunct;
        // five units cannot even traverse the eight quantifier layers.
        let tiny = Budget::with_fuel(5);
        assert_eq!(decide_closed(&closed, &tiny), Err(Exhaustion::Fuel));
        // With room to finish, the verdict matches the unlimited run.
        assert_eq!(
            decide_closed(&closed, &Budget::with_fuel(10_000_000)),
            Ok(decide_closed(&closed, &Budget::unlimited()).unwrap())
        );
    }

    #[test]
    fn budgeted_agrees_with_unlimited_when_it_finishes() {
        let f = PForm::All(
            s("x"),
            Box::new(PForm::Ex(s("y"), Box::new(PForm::eq(y(), x().add(&k(1)))))),
        );
        let roomy = Budget::with_fuel(1_000_000);
        assert_eq!(decide_closed(&f, &roomy), Ok(Some(true)));
        assert_eq!(decide_closed(&f, &Budget::unlimited()).unwrap(), Some(true));
    }

    #[test]
    fn differential_vs_bounded_enumeration() {
        // Random formulas with explicit bounds 0 <= x <= 7, 0 <= y <= 7:
        // quantifier elimination must agree with brute force.
        let mut state = 0x0bad_cafe_d00d_f00du64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            // Random conjunction/disjunction of small atoms over x, y.
            let mut atoms = Vec::new();
            for _ in 0..3 {
                let cx = (rnd() % 5) as i64 - 2;
                let cy = (rnd() % 5) as i64 - 2;
                let c = (rnd() % 9) as i64 - 4;
                let t = x().scale(cx).add(&y().scale(cy)).add(&k(c));
                let atom = match rnd() % 3 {
                    0 => PAtom::Le(t),
                    1 => PAtom::Eq(t),
                    _ => PAtom::Dvd(1 + (rnd() % 3) as i64, t),
                };
                atoms.push(PForm::Atom(atom));
            }
            let body = if rnd() % 2 == 0 {
                PForm::and(atoms)
            } else {
                PForm::or(atoms)
            };
            let bounds = PForm::and(vec![
                PForm::le(k(0), x()),
                PForm::le(x(), k(7)),
                PForm::le(k(0), y()),
                PForm::le(y(), k(7)),
            ]);
            let full = PForm::and(vec![bounds, body]);
            // Brute force.
            let mut brute = false;
            'search: for vx in 0..=7i64 {
                for vy in 0..=7i64 {
                    let env = move |v: Symbol| {
                        if v == s("x") {
                            vx
                        } else if v == s("y") {
                            vy
                        } else {
                            0
                        }
                    };
                    if full.eval_qf(&env) {
                        brute = true;
                        break 'search;
                    }
                }
            }
            let closed = PForm::Ex(s("x"), Box::new(PForm::Ex(s("y"), Box::new(full.clone()))));
            let got = decide_closed(&closed, &Budget::unlimited())
                .unwrap()
                .unwrap();
            assert_eq!(got, brute, "round {round}: {full:?}");
        }
    }
}
