//! WS1S: weak monadic second-order logic of one successor.
//!
//! Second-order variables range over *finite* subsets of ℕ; first-order
//! variables over positions in ℕ (encoded as singleton sets, as in MONA).
//! Every variable owns one track of the automaton alphabet; formulas compile
//! bottom-up to [`Dfa`]s; quantification is projection + zero-closure;
//! validity of a sentence is universality of its automaton (equivalently,
//! emptiness of the negation); counter-models fall out of shortest accepting
//! words of the negation.

use crate::dfa::Dfa;
use jahob_util::budget::{Budget, Exhaustion};
use jahob_util::{FxHashMap, Symbol};
use std::fmt;

/// A WS1S formula. First-order (position) variables are written lowercase by
/// convention; they are singleton-constrained at their binder. Free
/// variables in [`decide`] must be declared with their kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WsForm {
    True,
    False,
    /// `X ⊆ Y`.
    Sub(Symbol, Symbol),
    /// `X = Y`.
    EqSet(Symbol, Symbol),
    /// `X = Y ∪ Z`.
    EqUnion(Symbol, Symbol, Symbol),
    /// `X = Y ∩ Z`.
    EqInter(Symbol, Symbol, Symbol),
    /// `X = Y ∖ Z`.
    EqDiff(Symbol, Symbol, Symbol),
    /// `X = ∅`.
    Empty(Symbol),
    /// `X` is a singleton.
    Sing(Symbol),
    /// `x ∈ Y` (x first-order).
    Elem(Symbol, Symbol),
    /// `y = x + 1` (both first-order).
    Succ(Symbol, Symbol),
    /// `x < y` (both first-order).
    Less(Symbol, Symbol),
    /// `x = 0` (first-order).
    IsZero(Symbol),
    And(Vec<WsForm>),
    Or(Vec<WsForm>),
    Not(Box<WsForm>),
    Implies(Box<WsForm>, Box<WsForm>),
    Iff(Box<WsForm>, Box<WsForm>),
    /// Second-order existential.
    Ex2(Vec<Symbol>, Box<WsForm>),
    /// Second-order universal.
    All2(Vec<Symbol>, Box<WsForm>),
    /// First-order existential (singleton-constrained).
    Ex1(Vec<Symbol>, Box<WsForm>),
    /// First-order universal.
    All1(Vec<Symbol>, Box<WsForm>),
}

impl WsForm {
    pub fn and(parts: Vec<WsForm>) -> WsForm {
        WsForm::And(parts)
    }

    pub fn or(parts: Vec<WsForm>) -> WsForm {
        WsForm::Or(parts)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(f: WsForm) -> WsForm {
        WsForm::Not(Box::new(f))
    }

    pub fn implies(a: WsForm, b: WsForm) -> WsForm {
        WsForm::Implies(Box::new(a), Box::new(b))
    }

    pub fn iff(a: WsForm, b: WsForm) -> WsForm {
        WsForm::Iff(Box::new(a), Box::new(b))
    }

    pub fn ex1(vars: &[&str], body: WsForm) -> WsForm {
        WsForm::Ex1(
            vars.iter().map(|v| Symbol::intern(v)).collect(),
            Box::new(body),
        )
    }

    pub fn all1(vars: &[&str], body: WsForm) -> WsForm {
        WsForm::All1(
            vars.iter().map(|v| Symbol::intern(v)).collect(),
            Box::new(body),
        )
    }

    pub fn ex2(vars: &[&str], body: WsForm) -> WsForm {
        WsForm::Ex2(
            vars.iter().map(|v| Symbol::intern(v)).collect(),
            Box::new(body),
        )
    }

    pub fn all2(vars: &[&str], body: WsForm) -> WsForm {
        WsForm::All2(
            vars.iter().map(|v| Symbol::intern(v)).collect(),
            Box::new(body),
        )
    }

    /// All variables (free and bound).
    fn collect_vars(&self, out: &mut Vec<Symbol>) {
        let push = |s: Symbol, out: &mut Vec<Symbol>| {
            if !out.contains(&s) {
                out.push(s);
            }
        };
        match self {
            WsForm::True | WsForm::False => {}
            WsForm::Sub(a, b)
            | WsForm::EqSet(a, b)
            | WsForm::Elem(a, b)
            | WsForm::Succ(a, b)
            | WsForm::Less(a, b) => {
                push(*a, out);
                push(*b, out);
            }
            WsForm::EqUnion(a, b, c) | WsForm::EqInter(a, b, c) | WsForm::EqDiff(a, b, c) => {
                push(*a, out);
                push(*b, out);
                push(*c, out);
            }
            WsForm::Empty(a) | WsForm::Sing(a) | WsForm::IsZero(a) => push(*a, out),
            WsForm::And(ps) | WsForm::Or(ps) => {
                for p in ps {
                    p.collect_vars(out);
                }
            }
            WsForm::Not(p) => p.collect_vars(out),
            WsForm::Implies(a, b) | WsForm::Iff(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            WsForm::Ex2(vs, p) | WsForm::All2(vs, p) | WsForm::Ex1(vs, p) | WsForm::All1(vs, p) => {
                for v in vs {
                    push(*v, out);
                }
                p.collect_vars(out);
            }
        }
    }

    /// Free variables.
    pub fn free_vars(&self) -> Vec<Symbol> {
        let mut free = Vec::new();
        let mut bound = Vec::new();
        self.free_rec(&mut bound, &mut free);
        free
    }

    fn free_rec(&self, bound: &mut Vec<Symbol>, free: &mut Vec<Symbol>) {
        let check = |s: Symbol, bound: &[Symbol], free: &mut Vec<Symbol>| {
            if !bound.contains(&s) && !free.contains(&s) {
                free.push(s);
            }
        };
        match self {
            WsForm::True | WsForm::False => {}
            WsForm::Sub(a, b)
            | WsForm::EqSet(a, b)
            | WsForm::Elem(a, b)
            | WsForm::Succ(a, b)
            | WsForm::Less(a, b) => {
                check(*a, bound, free);
                check(*b, bound, free);
            }
            WsForm::EqUnion(a, b, c) | WsForm::EqInter(a, b, c) | WsForm::EqDiff(a, b, c) => {
                check(*a, bound, free);
                check(*b, bound, free);
                check(*c, bound, free);
            }
            WsForm::Empty(a) | WsForm::Sing(a) | WsForm::IsZero(a) => check(*a, bound, free),
            WsForm::And(ps) | WsForm::Or(ps) => {
                for p in ps {
                    p.free_rec(bound, free);
                }
            }
            WsForm::Not(p) => p.free_rec(bound, free),
            WsForm::Implies(a, b) | WsForm::Iff(a, b) => {
                a.free_rec(bound, free);
                b.free_rec(bound, free);
            }
            WsForm::Ex2(vs, p) | WsForm::All2(vs, p) | WsForm::Ex1(vs, p) | WsForm::All1(vs, p) => {
                let n = bound.len();
                bound.extend(vs.iter().copied());
                p.free_rec(bound, free);
                bound.truncate(n);
            }
        }
    }
}

/// Outcome of deciding a sentence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WsVerdict {
    Valid,
    /// A counter-model: each variable's set of positions.
    Invalid(FxHashMap<Symbol, Vec<usize>>),
}

/// Errors from the compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WsError(pub String);

impl fmt::Display for WsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ws1s error: {}", self.0)
    }
}

impl std::error::Error for WsError {}

/// Why a budgeted WS1S decision did not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsFailure {
    /// The formula is outside what the compiler supports (e.g. too many
    /// tracks, free variables in `decide`).
    Fragment(WsError),
    /// The budget ran out mid-compilation.
    Exhausted(Exhaustion),
}

impl fmt::Display for WsFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsFailure::Fragment(e) => e.fmt(f),
            WsFailure::Exhausted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WsFailure {}

/// Hard cap on tracks: alphabet is `2^tracks`.
pub const MAX_TRACKS: usize = 14;

struct Compiler<'b> {
    tracks: FxHashMap<Symbol, usize>,
    num_tracks: usize,
    /// Statistics: largest intermediate automaton (states), for E7.
    pub peak_states: usize,
    /// Whether to minimize after each operation (ablation knob).
    minimize: bool,
    /// Resource governor: every automaton operation charges it, so a
    /// portfolio deadline can stop a blowing-up product or determinization.
    budget: &'b Budget,
}

impl Compiler<'_> {
    fn track(&self, v: Symbol) -> usize {
        *self
            .tracks
            .get(&v)
            .expect("compile_opts_budgeted assigns a track to every collected variable (free and bound) before compiling")
    }

    fn bit(&self, v: Symbol) -> u32 {
        1u32 << self.track(v)
    }

    fn note(&mut self, d: Dfa) -> Result<Dfa, Exhaustion> {
        let d = if self.minimize {
            d.minimize_budgeted(self.budget)?
        } else {
            d
        };
        self.peak_states = self.peak_states.max(d.num_states());
        Ok(d)
    }

    fn compile(&mut self, form: &WsForm) -> Result<Dfa, Exhaustion> {
        self.budget.check()?;
        let k = self.num_tracks;
        Ok(match form {
            WsForm::True => Dfa::all(k),
            WsForm::False => Dfa::none(k),
            WsForm::Sub(x, y) => {
                let (bx, by) = (self.bit(*x), self.bit(*y));
                Dfa::letterwise(k, move |l| (l & bx == 0) || (l & by != 0))
            }
            WsForm::EqSet(x, y) => {
                let (bx, by) = (self.bit(*x), self.bit(*y));
                Dfa::letterwise(k, move |l| (l & bx != 0) == (l & by != 0))
            }
            WsForm::EqUnion(x, y, z) => {
                let (bx, by, bz) = (self.bit(*x), self.bit(*y), self.bit(*z));
                Dfa::letterwise(k, move |l| {
                    (l & bx != 0) == ((l & by != 0) || (l & bz != 0))
                })
            }
            WsForm::EqInter(x, y, z) => {
                let (bx, by, bz) = (self.bit(*x), self.bit(*y), self.bit(*z));
                Dfa::letterwise(k, move |l| {
                    (l & bx != 0) == ((l & by != 0) && (l & bz != 0))
                })
            }
            WsForm::EqDiff(x, y, z) => {
                let (bx, by, bz) = (self.bit(*x), self.bit(*y), self.bit(*z));
                Dfa::letterwise(k, move |l| {
                    (l & bx != 0) == ((l & by != 0) && (l & bz == 0))
                })
            }
            WsForm::Empty(x) => {
                let bx = self.bit(*x);
                Dfa::letterwise(k, move |l| l & bx == 0)
            }
            WsForm::Sing(x) => self.singleton_dfa(*x),
            WsForm::Elem(x, y) => {
                // x ∈ Y with x first-order: Sing(x) ∧ x ⊆ Y.
                let sing = self.singleton_dfa(*x);
                let (bx, by) = (self.bit(*x), self.bit(*y));
                let sub = Dfa::letterwise(k, move |l| (l & bx == 0) || (l & by != 0));
                let d = sing.intersect_budgeted(&sub, self.budget)?;
                self.note(d)?
            }
            WsForm::Succ(x, y) => {
                let (bx, by) = (self.bit(*x), self.bit(*y));
                // States: 0 = before x; 1 = x seen, expecting y now;
                // 2 = both seen (accept); 3 = sink.
                let sigma = 1usize << k;
                let mut trans = vec![vec![3u32; sigma]; 4];
                for l in 0..sigma as u32 {
                    let has_x = l & bx != 0;
                    let has_y = l & by != 0;
                    trans[0][l as usize] = match (has_x, has_y) {
                        (false, false) => 0,
                        (true, false) => 1,
                        _ => 3,
                    };
                    trans[1][l as usize] = if !has_x && has_y { 2 } else { 3 };
                    trans[2][l as usize] = if !has_x && !has_y { 2 } else { 3 };
                    trans[3][l as usize] = 3;
                }
                Dfa {
                    num_tracks: k,
                    trans,
                    accept: vec![false, false, true, false],
                    init: 0,
                }
            }
            WsForm::Less(x, y) => {
                let (bx, by) = (self.bit(*x), self.bit(*y));
                // 0 = before x; 1 = x seen, y pending; 2 = accept; 3 = sink.
                let sigma = 1usize << k;
                let mut trans = vec![vec![3u32; sigma]; 4];
                for l in 0..sigma as u32 {
                    let has_x = l & bx != 0;
                    let has_y = l & by != 0;
                    trans[0][l as usize] = match (has_x, has_y) {
                        (false, false) => 0,
                        (true, false) => 1,
                        _ => 3,
                    };
                    trans[1][l as usize] = match (has_x, has_y) {
                        (false, false) => 1,
                        (false, true) => 2,
                        _ => 3,
                    };
                    trans[2][l as usize] = if !has_x && !has_y { 2 } else { 3 };
                    trans[3][l as usize] = 3;
                }
                Dfa {
                    num_tracks: k,
                    trans,
                    accept: vec![false, false, true, false],
                    init: 0,
                }
            }
            WsForm::IsZero(x) => {
                let bx = self.bit(*x);
                let sigma = 1usize << k;
                let mut trans = vec![vec![2u32; sigma]; 3];
                for l in 0..sigma as u32 {
                    let has_x = l & bx != 0;
                    trans[0][l as usize] = if has_x { 1 } else { 2 };
                    trans[1][l as usize] = if has_x { 2 } else { 1 };
                    trans[2][l as usize] = 2;
                }
                Dfa {
                    num_tracks: k,
                    trans,
                    accept: vec![false, true, false],
                    init: 0,
                }
            }
            WsForm::And(parts) => {
                let mut acc = Dfa::all(k);
                for p in parts {
                    let d = self.compile(p)?;
                    acc = self.note(acc.intersect_budgeted(&d, self.budget)?)?;
                }
                acc
            }
            WsForm::Or(parts) => {
                let mut acc = Dfa::none(k);
                for p in parts {
                    let d = self.compile(p)?;
                    acc = self.note(acc.union_budgeted(&d, self.budget)?)?;
                }
                acc
            }
            WsForm::Not(p) => {
                let d = self.compile(p)?;
                self.note(d.complement())?
            }
            WsForm::Implies(a, b) => {
                let da = self.compile(a)?.complement();
                let db = self.compile(b)?;
                let d = da.union_budgeted(&db, self.budget)?;
                self.note(d)?
            }
            WsForm::Iff(a, b) => {
                let da = self.compile(a)?;
                let db = self.compile(b)?;
                let d = da.product_budgeted(&db, |x, y| x == y, self.budget)?;
                self.note(d)?
            }
            WsForm::Ex2(vs, p) => {
                let mut d = self.compile(p)?;
                for v in vs {
                    let t = self.track(*v);
                    d = self.note(d.project_budgeted(t, self.budget)?.zero_closure())?;
                }
                d
            }
            WsForm::All2(vs, p) => {
                let inner = WsForm::not(WsForm::Ex2(
                    vs.clone(),
                    Box::new(WsForm::not(p.as_ref().clone())),
                ));
                self.compile(&inner)?
            }
            WsForm::Ex1(vs, p) => {
                let mut body = p.as_ref().clone();
                // Conjoin singleton constraints, then project.
                let mut parts = vec![];
                for v in vs {
                    parts.push(WsForm::Sing(*v));
                }
                parts.push(body);
                body = WsForm::And(parts);
                let mut d = self.compile(&body)?;
                for v in vs {
                    let t = self.track(*v);
                    d = self.note(d.project_budgeted(t, self.budget)?.zero_closure())?;
                }
                d
            }
            WsForm::All1(vs, p) => {
                let inner = WsForm::not(WsForm::Ex1(
                    vs.clone(),
                    Box::new(WsForm::not(p.as_ref().clone())),
                ));
                self.compile(&inner)?
            }
        })
    }

    fn singleton_dfa(&self, x: Symbol) -> Dfa {
        let bx = self.bit(x);
        let k = self.num_tracks;
        let sigma = 1usize << k;
        // 0 = none seen; 1 = one seen (accept); 2 = sink.
        let mut trans = vec![vec![2u32; sigma]; 3];
        for l in 0..sigma as u32 {
            let has = l & bx != 0;
            trans[0][l as usize] = if has { 1 } else { 0 };
            trans[1][l as usize] = if has { 2 } else { 1 };
            trans[2][l as usize] = 2;
        }
        Dfa {
            num_tracks: k,
            trans,
            accept: vec![false, true, false],
            init: 0,
        }
    }
}

/// Compile a formula to its automaton. The returned DFA is over one track
/// per *distinct variable name* in the formula (bound names must therefore
/// be distinct from each other and from free names — use fresh names).
/// Returns the automaton and the track assignment.
pub fn compile(form: &WsForm) -> Result<(Dfa, FxHashMap<Symbol, usize>), WsError> {
    compile_opts(form, true).map(|(d, t, _)| (d, t))
}

/// Compile with an option to disable intermediate minimization (the E7
/// ablation). Also returns the peak intermediate automaton size.
pub fn compile_opts(
    form: &WsForm,
    minimize: bool,
) -> Result<(Dfa, FxHashMap<Symbol, usize>, usize), WsError> {
    match compile_opts_budgeted(form, minimize, &Budget::unlimited()) {
        Ok(v) => Ok(v),
        Err(WsFailure::Fragment(e)) => Err(e),
        Err(WsFailure::Exhausted(_)) => unreachable!("unlimited budget"),
    }
}

/// Budgeted [`compile_opts`]: every automaton product, determinization and
/// minimization along the way charges the caller's budget.
pub fn compile_opts_budgeted(
    form: &WsForm,
    minimize: bool,
    budget: &Budget,
) -> Result<(Dfa, FxHashMap<Symbol, usize>, usize), WsFailure> {
    let mut vars = Vec::new();
    form.collect_vars(&mut vars);
    if vars.len() > MAX_TRACKS {
        return Err(WsFailure::Fragment(WsError(format!(
            "{} variables exceed the {MAX_TRACKS}-track limit",
            vars.len()
        ))));
    }
    let tracks: FxHashMap<Symbol, usize> = vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut compiler = Compiler {
        tracks: tracks.clone(),
        num_tracks: vars.len(),
        peak_states: 0,
        minimize,
        budget,
    };
    let dfa = compiler.compile(form).map_err(WsFailure::Exhausted)?;
    let peak = compiler.peak_states.max(dfa.num_states());
    let minimized = dfa
        .minimize_budgeted(budget)
        .map_err(WsFailure::Exhausted)?;
    Ok((minimized, tracks, peak))
}

/// Decide a *sentence* (no free variables): valid iff its automaton accepts
/// every word. For an invalid sentence the counter-model assigns the
/// variables of the *outermost universal block*: those stay free in the
/// negated matrix, so their tracks survive in the shortest refuting word
/// (inner quantified tracks are projected away and carry no information).
pub fn decide(form: &WsForm) -> Result<WsVerdict, WsError> {
    match decide_budgeted(form, &Budget::unlimited()) {
        Ok(v) => Ok(v),
        Err(WsFailure::Fragment(e)) => Err(e),
        Err(WsFailure::Exhausted(_)) => unreachable!("unlimited budget"),
    }
}

/// Budgeted [`decide`].
pub fn decide_budgeted(form: &WsForm, budget: &Budget) -> Result<WsVerdict, WsFailure> {
    let free = form.free_vars();
    if !free.is_empty() {
        return Err(WsFailure::Fragment(WsError(format!(
            "sentence expected; free variables: {free:?}"
        ))));
    }
    // Peel leading universal quantifiers; remember first-order ones so the
    // counter-model search stays singleton-constrained.
    let mut witnesses: Vec<Symbol> = Vec::new();
    let mut sing_constraints: Vec<WsForm> = Vec::new();
    let mut matrix = form.clone();
    loop {
        match matrix {
            WsForm::All2(vs, body) => {
                witnesses.extend(vs.iter().copied());
                matrix = *body;
            }
            WsForm::All1(vs, body) => {
                for v in &vs {
                    sing_constraints.push(WsForm::Sing(*v));
                }
                witnesses.extend(vs.iter().copied());
                matrix = *body;
            }
            other => {
                matrix = other;
                break;
            }
        }
    }
    let mut refutation_parts = vec![WsForm::not(matrix)];
    refutation_parts.extend(sing_constraints);
    let refutation = WsForm::And(refutation_parts);
    let (dfa, tracks, _) = compile_opts_budgeted(&refutation, true, budget)?;
    match dfa.shortest_accepting() {
        None => Ok(WsVerdict::Valid),
        Some(word) => {
            let mut assignment: FxHashMap<Symbol, Vec<usize>> = FxHashMap::default();
            for &v in &witnesses {
                let t = tracks[&v];
                let positions: Vec<usize> = word
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l & (1 << t) != 0)
                    .map(|(i, _)| i)
                    .collect();
                assignment.insert(v, positions);
            }
            Ok(WsVerdict::Invalid(assignment))
        }
    }
}

/// Is the formula satisfiable (some assignment to free second-order
/// variables makes it true)? Free variables are existentially closed.
pub fn satisfiable(form: &WsForm) -> Result<bool, WsError> {
    match satisfiable_budgeted(form, &Budget::unlimited()) {
        Ok(v) => Ok(v),
        Err(WsFailure::Fragment(e)) => Err(e),
        Err(WsFailure::Exhausted(_)) => unreachable!("unlimited budget"),
    }
}

/// Budgeted [`satisfiable`].
pub fn satisfiable_budgeted(form: &WsForm, budget: &Budget) -> Result<bool, WsFailure> {
    let closed = WsForm::Ex2(form.free_vars(), Box::new(form.clone()));
    let (dfa, _, _) = compile_opts_budgeted(&closed, true, budget)?;
    Ok(!dfa.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    fn valid(f: &WsForm) -> bool {
        matches!(decide(f).unwrap(), WsVerdict::Valid)
    }

    #[test]
    fn subset_reflexive_transitive() {
        // ∀X. X ⊆ X.
        let f = WsForm::all2(&["SX"], WsForm::Sub(s("SX"), s("SX")));
        assert!(valid(&f));
        // ∀X,Y,Z. X⊆Y ∧ Y⊆Z → X⊆Z.
        let g = WsForm::all2(
            &["SX", "SY", "SZ"],
            WsForm::implies(
                WsForm::and(vec![
                    WsForm::Sub(s("SX"), s("SY")),
                    WsForm::Sub(s("SY"), s("SZ")),
                ]),
                WsForm::Sub(s("SX"), s("SZ")),
            ),
        );
        assert!(valid(&g));
        // ∀X,Y. X⊆Y → Y⊆X is invalid.
        let h = WsForm::all2(
            &["SX", "SY"],
            WsForm::implies(WsForm::Sub(s("SX"), s("SY")), WsForm::Sub(s("SY"), s("SX"))),
        );
        assert!(!valid(&h));
    }

    #[test]
    fn union_intersection_laws() {
        // ∀X,Y,U. U = X∪Y → X ⊆ U.
        let f = WsForm::all2(
            &["SX", "SY", "SU"],
            WsForm::implies(
                WsForm::EqUnion(s("SU"), s("SX"), s("SY")),
                WsForm::Sub(s("SX"), s("SU")),
            ),
        );
        assert!(valid(&f));
        // ∀X,Y,I. I = X∩Y → I ⊆ X ∧ I ⊆ Y.
        let g = WsForm::all2(
            &["SX", "SY", "SI"],
            WsForm::implies(
                WsForm::EqInter(s("SI"), s("SX"), s("SY")),
                WsForm::and(vec![
                    WsForm::Sub(s("SI"), s("SX")),
                    WsForm::Sub(s("SI"), s("SY")),
                ]),
            ),
        );
        assert!(valid(&g));
        // Distributivity: X∩(Y∪Z) = (X∩Y)∪(X∩Z), phrased with helpers.
        let h = WsForm::all2(
            &["X1", "Y1", "Z1", "U1", "L1", "A1", "B1", "R1"],
            WsForm::implies(
                WsForm::and(vec![
                    WsForm::EqUnion(s("U1"), s("Y1"), s("Z1")),
                    WsForm::EqInter(s("L1"), s("X1"), s("U1")),
                    WsForm::EqInter(s("A1"), s("X1"), s("Y1")),
                    WsForm::EqInter(s("B1"), s("X1"), s("Z1")),
                    WsForm::EqUnion(s("R1"), s("A1"), s("B1")),
                ]),
                WsForm::EqSet(s("L1"), s("R1")),
            ),
        );
        assert!(valid(&h));
    }

    #[test]
    fn existential_witnesses() {
        // ∃X. X = ∅.
        let f = WsForm::ex2(&["SE"], WsForm::Empty(s("SE")));
        assert!(valid(&f));
        // ∃x. x = 0.
        let g = WsForm::ex1(&["p0"], WsForm::IsZero(s("p0")));
        assert!(valid(&g));
        // ∀x. ∃y. y = x + 1 (every position has a successor).
        let h = WsForm::all1(
            &["px"],
            WsForm::ex1(&["py"], WsForm::Succ(s("px"), s("py"))),
        );
        assert!(valid(&h));
        // ∀x. ∃y. x = y + 1 is invalid (0 has no predecessor).
        let i = WsForm::all1(
            &["qx"],
            WsForm::ex1(&["qy"], WsForm::Succ(s("qy"), s("qx"))),
        );
        assert!(!valid(&i));
    }

    #[test]
    fn successor_and_order() {
        // ∀x,y. y = x+1 → x < y.
        let f = WsForm::all1(
            &["sx", "sy"],
            WsForm::implies(
                WsForm::Succ(s("sx"), s("sy")),
                WsForm::Less(s("sx"), s("sy")),
            ),
        );
        assert!(valid(&f));
        // < is transitive.
        let g = WsForm::all1(
            &["ta", "tb", "tc"],
            WsForm::implies(
                WsForm::and(vec![
                    WsForm::Less(s("ta"), s("tb")),
                    WsForm::Less(s("tb"), s("tc")),
                ]),
                WsForm::Less(s("ta"), s("tc")),
            ),
        );
        assert!(valid(&g));
        // < is irreflexive: ∀x. ¬(x < x).
        let h = WsForm::all1(&["ua"], WsForm::not(WsForm::Less(s("ua"), s("ua"))));
        assert!(valid(&h));
        // Totality: ∀x,y. x<y ∨ y<x ∨ (x∈{y} sets equal) — use singleton
        // equality via EqSet.
        let i = WsForm::all1(
            &["va", "vb"],
            WsForm::or(vec![
                WsForm::Less(s("va"), s("vb")),
                WsForm::Less(s("vb"), s("va")),
                WsForm::EqSet(s("va"), s("vb")),
            ]),
        );
        assert!(valid(&i));
    }

    #[test]
    fn least_element_theorem() {
        // Every non-empty finite set has a least element:
        // ∀X. X ≠ ∅ → ∃x. x∈X ∧ ∀y. y∈X → (x<y ∨ x=y).
        let f = WsForm::all2(
            &["LS"],
            WsForm::implies(
                WsForm::not(WsForm::Empty(s("LS"))),
                WsForm::ex1(
                    &["lm"],
                    WsForm::and(vec![
                        WsForm::Elem(s("lm"), s("LS")),
                        WsForm::all1(
                            &["ly"],
                            WsForm::implies(
                                WsForm::Elem(s("ly"), s("LS")),
                                WsForm::or(vec![
                                    WsForm::Less(s("lm"), s("ly")),
                                    WsForm::EqSet(s("lm"), s("ly")),
                                ]),
                            ),
                        ),
                    ]),
                ),
            ),
        );
        assert!(valid(&f));
        // A GREATEST element also exists (sets are finite — this is what
        // makes the logic *weak* MSO).
        let g = WsForm::all2(
            &["GS"],
            WsForm::implies(
                WsForm::not(WsForm::Empty(s("GS"))),
                WsForm::ex1(
                    &["gm"],
                    WsForm::and(vec![
                        WsForm::Elem(s("gm"), s("GS")),
                        WsForm::all1(
                            &["gy"],
                            WsForm::implies(
                                WsForm::Elem(s("gy"), s("GS")),
                                WsForm::or(vec![
                                    WsForm::Less(s("gy"), s("gm")),
                                    WsForm::EqSet(s("gy"), s("gm")),
                                ]),
                            ),
                        ),
                    ]),
                ),
            ),
        );
        assert!(valid(&g));
    }

    #[test]
    fn counter_model_extraction() {
        // ∀X,Y. X ⊆ Y — invalid; the counter-model must witness X ⊄ Y.
        let f = WsForm::all2(&["CX", "CY"], WsForm::Sub(s("CX"), s("CY")));
        match decide(&f).unwrap() {
            WsVerdict::Invalid(_) => {}
            WsVerdict::Valid => panic!("should be invalid"),
        }
        // Satisfiability with free variables and model sanity: X ⊆ Y ∧ X ≠ ∅.
        let g = WsForm::and(vec![
            WsForm::Sub(s("MX"), s("MY")),
            WsForm::not(WsForm::Empty(s("MX"))),
        ]);
        assert!(satisfiable(&g).unwrap());
        // Unsatisfiable: X ⊆ Y ∧ Y = ∅ ∧ X ≠ ∅.
        let h = WsForm::and(vec![
            WsForm::Sub(s("NX"), s("NY")),
            WsForm::Empty(s("NY")),
            WsForm::not(WsForm::Empty(s("NX"))),
        ]);
        assert!(!satisfiable(&h).unwrap());
    }

    #[test]
    fn counter_model_is_genuine() {
        // ∀X. X = ∅ is invalid; counter-model assigns some nonempty X.
        let f = WsForm::all2(&["DX"], WsForm::Empty(s("DX")));
        match decide(&f).unwrap() {
            WsVerdict::Invalid(model) => {
                let xs = model.get(&s("DX")).unwrap();
                assert!(!xs.is_empty(), "counter-model must be nonempty: {model:?}");
            }
            WsVerdict::Valid => panic!("should be invalid"),
        }
    }

    #[test]
    fn second_order_induction_fails_weakly() {
        // In WS1S, a successor-closed set containing 0 is NOT everything —
        // finite sets cannot be successor-closed unless empty. In fact
        // ∀X. (0 ∈ X ∧ ∀x,y. x∈X ∧ y=x+1 → y∈X) → False is VALID (no
        // finite set is successor-closed and inhabited).
        let closed = WsForm::all1(
            &["ix", "iy"],
            WsForm::implies(
                WsForm::and(vec![
                    WsForm::Elem(s("ix"), s("IS")),
                    WsForm::Succ(s("ix"), s("iy")),
                ]),
                WsForm::Elem(s("iy"), s("IS")),
            ),
        );
        let zero_in = WsForm::ex1(
            &["iz"],
            WsForm::and(vec![
                WsForm::IsZero(s("iz")),
                WsForm::Elem(s("iz"), s("IS")),
            ]),
        );
        let f = WsForm::all2(
            &["IS"],
            WsForm::implies(WsForm::and(vec![zero_in, closed]), WsForm::False),
        );
        assert!(valid(&f));
    }

    #[test]
    fn rejects_free_variables_in_decide() {
        let f = WsForm::Sub(s("FX"), s("FY"));
        assert!(decide(&f).is_err());
    }

    #[test]
    fn budget_stops_automaton_blowup() {
        // Same distributivity sentence as above: 8 tracks, several
        // products — plenty of state expansions to charge for.
        let f = WsForm::all2(
            &["X2", "Y2", "Z2", "U2", "L2", "A2", "B2", "R2"],
            WsForm::implies(
                WsForm::and(vec![
                    WsForm::EqUnion(s("U2"), s("Y2"), s("Z2")),
                    WsForm::EqInter(s("L2"), s("X2"), s("U2")),
                    WsForm::EqInter(s("A2"), s("X2"), s("Y2")),
                    WsForm::EqInter(s("B2"), s("X2"), s("Z2")),
                    WsForm::EqUnion(s("R2"), s("A2"), s("B2")),
                ]),
                WsForm::EqSet(s("L2"), s("R2")),
            ),
        );
        let starved = Budget::with_fuel(10);
        assert_eq!(
            decide_budgeted(&f, &starved),
            Err(WsFailure::Exhausted(Exhaustion::Fuel))
        );
        let roomy = Budget::with_fuel(50_000_000);
        assert_eq!(decide_budgeted(&f, &roomy), Ok(WsVerdict::Valid));
    }

    #[test]
    fn minimization_ablation_same_verdicts() {
        let f = WsForm::all2(
            &["AX", "AY"],
            WsForm::implies(
                WsForm::Sub(s("AX"), s("AY")),
                WsForm::ex2(
                    &["AZ"],
                    WsForm::and(vec![WsForm::EqUnion(s("AY"), s("AX"), s("AZ"))]),
                ),
            ),
        );
        let (with_min, _, peak_min) = compile_opts(&f, true).unwrap();
        let (without_min, _, peak_nomin) = compile_opts(&f, false).unwrap();
        assert_eq!(
            with_min.complement().is_empty(),
            without_min.complement().is_empty()
        );
        assert!(
            peak_min <= peak_nomin,
            "minimization must not grow automata"
        );
        // And the formula itself is valid: Y = X ∪ (Y ∖ X).
        assert!(with_min.complement().is_empty());
    }
}
