//! The Omega test (Pugh, Supercomputing '91): satisfiability of a
//! conjunction of linear integer constraints.
//!
//! Structure follows the paper:
//!
//! 1. **Normalization** — divide each constraint by the gcd of its variable
//!    coefficients; an equality whose constant is not divisible is an
//!    immediate contradiction; an inequality's constant floors (tightening).
//! 2. **Equality elimination** — solve unit-coefficient equalities directly;
//!    otherwise apply Pugh's symmetric-modulo substitution, which introduces
//!    a fresh variable and strictly shrinks coefficients.
//! 3. **Inequality elimination** — Fourier–Motzkin over the integers: the
//!    *real shadow* is necessary, the *dark shadow* is sufficient; when they
//!    disagree the problem *splinters* into finitely many subproblems with an
//!    added equality. Exact (real = dark) when all lower or all upper
//!    coefficients of the eliminated variable are 1.
//!
//! Coefficients are `i64`; inputs with enormous coefficients may overflow —
//! the VC-generated constraints this system sees are tiny. Debug builds
//! check arithmetic.

use crate::linterm::{div_floor, gcd, mod_floor};

/// Constraint sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConstraintKind {
    /// `Σ cᵢxᵢ + k = 0`.
    Eq,
    /// `Σ cᵢxᵢ + k ≥ 0`.
    Ge,
}

/// A dense linear constraint over variables `0..width`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    pub coeffs: Vec<i64>,
    pub konst: i64,
    pub kind: ConstraintKind,
}

impl Constraint {
    /// `Σ coeffs·x + konst = 0`.
    pub fn eq(coeffs: Vec<i64>, konst: i64) -> Constraint {
        Constraint {
            coeffs,
            konst,
            kind: ConstraintKind::Eq,
        }
    }

    /// `Σ coeffs·x + konst ≥ 0`.
    pub fn ge(coeffs: Vec<i64>, konst: i64) -> Constraint {
        Constraint {
            coeffs,
            konst,
            kind: ConstraintKind::Ge,
        }
    }

    fn width(&self) -> usize {
        self.coeffs.len()
    }

    fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    fn holds_trivially(&self) -> bool {
        debug_assert!(self.is_constant());
        match self.kind {
            ConstraintKind::Eq => self.konst == 0,
            ConstraintKind::Ge => self.konst >= 0,
        }
    }

    /// Evaluate under an assignment (for tests).
    pub fn eval(&self, xs: &[i64]) -> bool {
        let v: i64 = self
            .coeffs
            .iter()
            .zip(xs)
            .map(|(&c, &x)| c * x)
            .sum::<i64>()
            + self.konst;
        match self.kind {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::Ge => v >= 0,
        }
    }
}

/// Result of the Omega test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OmegaResult {
    Sat,
    Unsat,
}

/// Symmetric modulo: `a mod^ m ∈ [-⌈m/2⌉+1, ⌊m/2⌋]` with `a ≡ a mod^ m (mod m)`.
fn mod_hat(a: i64, m: i64) -> i64 {
    let r = mod_floor(a, m);
    if 2 * r >= m {
        r - m
    } else {
        r
    }
}

thread_local! {
    /// Work budget for one top-level `omega_sat` call: number of recursive
    /// `solve` invocations. Exhaustion returns `Sat` ("cannot prove
    /// unsatisfiable") — the sound give-up direction for every caller in
    /// this workspace, all of which use unsatisfiability as the proof.
    static WORK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

const WORK_BUDGET: u64 = 8_000;

/// Decide satisfiability of a conjunction of integer linear constraints.
pub fn omega_sat(constraints: &[Constraint]) -> OmegaResult {
    WORK.with(|w| w.set(0));
    let width = constraints.iter().map(Constraint::width).max().unwrap_or(0);
    let mut cs: Vec<Constraint> = constraints
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.coeffs.resize(width, 0);
            c
        })
        .collect();
    if solve(&mut cs, 0) {
        OmegaResult::Sat
    } else {
        OmegaResult::Unsat
    }
}

/// Recursion-depth guard: splintering and mod-elimination both strictly
/// reduce a well-founded measure, but we bound defensively.
const MAX_DEPTH: u32 = 256;

/// Charge one unit of work for a level of elimination at `depth`. False
/// means give up: the work budget is spent (give up proving
/// unsatisfiability) or the depth guard tripped, which should not happen
/// on well-formed inputs; either way the answer is unknown-sat, sound for
/// the *validity* use (the prover answers "can't prove").
fn enter(depth: u32) -> bool {
    let spent = WORK.with(|w| {
        let v = w.get() + 1;
        w.set(v);
        v
    });
    spent <= WORK_BUDGET && depth <= MAX_DEPTH
}

/// How the constraints of a system bound one variable: the number of
/// lower bounds (positive coefficient), upper bounds (negative), and of
/// each with a coefficient of magnitude above 1.
#[derive(Clone, Copy, Default)]
struct Bounds {
    lower: isize,
    upper: isize,
    steep_lower: isize,
    steep_upper: isize,
}

impl Bounds {
    /// Every variable's bounds in `cs`, in one pass.
    fn of(cs: &[Constraint], width: usize) -> Vec<Bounds> {
        let mut bounds = vec![Bounds::default(); width];
        for c in cs {
            Bounds::tally(&mut bounds, c, 1);
        }
        bounds
    }

    /// Add `c`'s bounds to `bounds` (`delta` 1), or take them away (−1).
    fn tally(bounds: &mut [Bounds], c: &Constraint, delta: isize) {
        for (b, &k) in bounds.iter_mut().zip(&c.coeffs) {
            if k > 0 {
                b.lower += delta;
                if k > 1 {
                    b.steep_lower += delta;
                }
            } else if k < 0 {
                b.upper += delta;
                if k < -1 {
                    b.steep_upper += delta;
                }
            }
        }
    }

    /// Bounded on one side only (and used).
    fn one_sided(&self) -> bool {
        (self.lower > 0) != (self.upper > 0)
    }

    /// Fourier–Motzkin on this variable is exact: all its lower or all
    /// its upper coefficients are ±1.
    fn exact(&self) -> bool {
        self.steep_lower == 0 || self.steep_upper == 0
    }
}

fn solve(cs: &mut Vec<Constraint>, depth: u32) -> bool {
    if !enter(depth) {
        return true;
    }
    // Normalize; drop trivial constraints; detect contradictions.
    let mut i = 0;
    while i < cs.len() {
        if !normalize(&mut cs[i]) {
            return false;
        }
        if cs[i].is_constant() {
            if !cs[i].holds_trivially() {
                return false;
            }
            cs.swap_remove(i);
        } else {
            i += 1;
        }
    }
    if cs.is_empty() {
        return true;
    }

    // Equality elimination. Prefer an equality with a unit coefficient —
    // in particular the one the symmetric-modulo substitution just added —
    // so Pugh's coefficient-reduction argument applies and the recursion
    // makes progress.
    let eq_indices: Vec<usize> = cs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == ConstraintKind::Eq)
        .map(|(i, _)| i)
        .collect();
    if !eq_indices.is_empty() {
        let unit = eq_indices
            .iter()
            .copied()
            .find(|&i| cs[i].coeffs.iter().any(|&c| c.abs() == 1));
        let idx = unit.unwrap_or(eq_indices[0]);
        return eliminate_equality(cs, idx, depth);
    }

    // Pure inequalities. Unbounded variables (only lower or only upper
    // bounds) can be dropped together with every constraint mentioning
    // them. Drop them in place, lowest index first, until none is left.
    // Each drop is charged as one level of elimination (a unit of work
    // and a level of depth), exactly what recursing on it would cost.
    let width = cs[0].width();
    let mut bounds = Bounds::of(cs, width);
    let mut depth = depth;
    while let Some(v) = bounds.iter().position(Bounds::one_sided) {
        cs.retain(|c| {
            let keep = c.coeffs[v] == 0;
            if !keep {
                Bounds::tally(&mut bounds, c, -1);
            }
            keep
        });
        depth += 1;
        if !enter(depth) || cs.is_empty() {
            return true;
        }
    }

    // Choose the variable with the cheapest exact elimination, falling back
    // to fewest lower×upper pairs. Every variable left has both bounds.
    let mut best: Option<(usize, bool, isize)> = None;
    for (v, b) in bounds.iter().enumerate().filter(|(_, b)| b.lower > 0) {
        let (exact, pairs) = (b.exact(), b.lower * b.upper);
        let candidate = (v, exact, pairs);
        best = match best {
            None => Some(candidate),
            Some((_, bexact, bpairs)) => {
                if (exact && !bexact) || (exact == bexact && pairs < bpairs) {
                    Some(candidate)
                } else {
                    best
                }
            }
        };
    }
    let (v, exact, _) = best.expect(
        "`cs` is non-empty and has no constant constraint, so some variable is left to pick",
    );

    // Build shadows.
    let lowers: Vec<Constraint> = cs.iter().filter(|c| c.coeffs[v] > 0).cloned().collect();
    let uppers: Vec<Constraint> = cs.iter().filter(|c| c.coeffs[v] < 0).cloned().collect();
    let rest: Vec<Constraint> = cs.iter().filter(|c| c.coeffs[v] == 0).cloned().collect();

    let shadow = |dark: bool| -> Vec<Constraint> {
        let mut out = rest.clone();
        for lo in &lowers {
            for up in &uppers {
                // lo: a·x ≥ α  (a = lo.coeffs[v] > 0, α = -(lo without x))
                // up: b·x ≤ β  (b = -up.coeffs[v] > 0, β = up without x)
                let a = lo.coeffs[v];
                let b = -up.coeffs[v];
                // Combined: a·β − b·α ≥ margin, expressed directly on the
                // stored representations: a·up + b·lo (x cancels).
                let mut coeffs = vec![0i64; width];
                for (w, cw) in coeffs.iter_mut().enumerate() {
                    *cw = a * up.coeffs[w] + b * lo.coeffs[w];
                }
                debug_assert_eq!(coeffs[v], 0);
                let mut konst = a * up.konst + b * lo.konst;
                if dark {
                    konst -= (a - 1) * (b - 1);
                }
                out.push(Constraint::ge(coeffs, konst));
            }
        }
        out
    };

    if exact {
        let mut real = shadow(false);
        return solve(&mut real, depth + 1);
    }

    // Dark shadow is sufficient.
    let mut dark = shadow(true);
    if solve(&mut dark, depth + 1) {
        return true;
    }
    // Real shadow is necessary.
    let mut real = shadow(false);
    if !solve(&mut real, depth + 1) {
        return false;
    }
    // Splinter: any integer solution missed by the dark shadow satisfies
    // a·x = α + i for some lower bound (a, α) and small i.
    let bmax = uppers
        .iter()
        .map(|u| -u.coeffs[v])
        .max()
        .expect("v has upper bounds or it would have been dropped as unbounded above");
    for lo in &lowers {
        let a = lo.coeffs[v];
        let max_i = (a * bmax - a - bmax) / bmax;
        for i in 0..=max_i {
            // a·x − α − i... in stored form lo is (a·x − α ≥ 0) i.e.
            // lo.coeffs·x + lo.konst ≥ 0; the splinter equality is
            // lo.coeffs·x + lo.konst − i = 0.
            let mut sub = cs.clone();
            sub.push(Constraint::eq(lo.coeffs.clone(), lo.konst - i));
            if solve(&mut sub, depth + 1) {
                return true;
            }
        }
    }
    false
}

/// Divide out the coefficient gcd. Returns false on immediate contradiction.
fn normalize(c: &mut Constraint) -> bool {
    let g = c.coeffs.iter().fold(0i64, |g, &x| gcd(g, x));
    if g <= 1 {
        return true;
    }
    match c.kind {
        ConstraintKind::Eq => {
            if c.konst % g != 0 {
                return false;
            }
            for x in c.coeffs.iter_mut() {
                *x /= g;
            }
            c.konst /= g;
            true
        }
        ConstraintKind::Ge => {
            for x in c.coeffs.iter_mut() {
                *x /= g;
            }
            c.konst = div_floor(c.konst, g);
            true
        }
    }
}

fn eliminate_equality(cs: &mut [Constraint], eq_idx: usize, depth: u32) -> bool {
    let eq = cs[eq_idx].clone();
    let width = eq.width();
    // Find a unit-coefficient variable.
    if let Some(v) = (0..width).find(|&v| eq.coeffs[v].abs() == 1) {
        // Solve: x_v = -sign · (rest + konst).
        let sign = eq.coeffs[v];
        let mut out = Vec::with_capacity(cs.len() - 1);
        for (idx, c) in cs.iter().enumerate() {
            if idx == eq_idx {
                continue;
            }
            let cv = c.coeffs[v];
            if cv == 0 {
                out.push(c.clone());
                continue;
            }
            // c + substitution: x_v appears with coefficient cv; replace by
            // -sign·(eq_rest). new = c − cv·sign·eq (which zeroes x_v since
            // eq.coeffs[v] = sign and sign² = 1).
            let mut coeffs = vec![0i64; width];
            for (w, cw) in coeffs.iter_mut().enumerate() {
                *cw = c.coeffs[w] - cv * sign * eq.coeffs[w];
            }
            debug_assert_eq!(coeffs[v], 0);
            let konst = c.konst - cv * sign * eq.konst;
            out.push(Constraint {
                coeffs,
                konst,
                kind: c.kind,
            });
        }
        return solve(&mut out, depth + 1);
    }

    // Pugh's symmetric-modulo substitution.
    let (v, a) = (0..width)
        .filter(|&v| eq.coeffs[v] != 0)
        .map(|v| (v, eq.coeffs[v]))
        .min_by_key(|&(_, a)| a.abs())
        .expect(
            "constant equalities were removed during normalization, so a coefficient is nonzero",
        );
    let m = a.abs() + 1;
    // New equality: Σ hat(a_i, m)·x_i + hat(c, m) − m·σ = 0 with fresh σ.
    let mut coeffs: Vec<i64> = eq.coeffs.iter().map(|&c| mod_hat(c, m)).collect();
    coeffs.push(-m); // fresh variable σ at the new last column
    let konst = mod_hat(eq.konst, m);
    let mut out: Vec<Constraint> = cs
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.coeffs.push(0);
            c
        })
        .collect();
    out.push(Constraint::eq(coeffs, konst));
    debug_assert_eq!(out.last().unwrap().coeffs[v].abs(), 1);
    solve(&mut out, depth + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat(cs: &[Constraint]) -> bool {
        omega_sat(cs) == OmegaResult::Sat
    }

    #[test]
    fn empty_is_sat() {
        assert!(sat(&[]));
    }

    #[test]
    fn constant_contradiction() {
        assert!(!sat(&[Constraint::ge(vec![0], -1)]));
        assert!(!sat(&[Constraint::eq(vec![0], 3)]));
        assert!(sat(&[Constraint::ge(vec![0], 0)]));
    }

    #[test]
    fn simple_bounds() {
        // x >= 2 & x <= 5.
        assert!(sat(&[
            Constraint::ge(vec![1], -2),
            Constraint::ge(vec![-1], 5),
        ]));
        // x >= 6 & x <= 5.
        assert!(!sat(&[
            Constraint::ge(vec![1], -6),
            Constraint::ge(vec![-1], 5),
        ]));
    }

    #[test]
    fn equality_parity() {
        // 2x = 7: unsat.
        assert!(!sat(&[Constraint::eq(vec![2], -7)]));
        // 2x = 8: sat.
        assert!(sat(&[Constraint::eq(vec![2], -8)]));
    }

    #[test]
    fn two_variable_equalities() {
        // 3x + 5y = 1: sat (e.g. x=2, y=-1).
        assert!(sat(&[Constraint::eq(vec![3, 5], -1)]));
        // 2x + 4y = 5: unsat (even = odd).
        assert!(!sat(&[Constraint::eq(vec![2, 4], -5)]));
        // 6x + 10y = 4: sat (gcd 2 | 4).
        assert!(sat(&[Constraint::eq(vec![6, 10], -4)]));
    }

    #[test]
    fn dark_shadow_gap() {
        // Pugh's classic: 3 ≤ 11x ≤ 8 — no integer x (x must satisfy
        // 11x ∈ [3,8], but 11·0=0 < 3 and 11·1=11 > 8).
        assert!(!sat(&[
            Constraint::ge(vec![11], -3), // 11x - 3 >= 0
            Constraint::ge(vec![-11], 8), // 8 - 11x >= 0
        ]));
        // 3 ≤ 11x ≤ 11: sat (x = 1).
        assert!(sat(&[
            Constraint::ge(vec![11], -3),
            Constraint::ge(vec![-11], 11),
        ]));
    }

    #[test]
    fn splinter_needed() {
        // 2y ≤ 3x ≤ 2y + 1 with 1 ≤ x ≤ 4, 1 ≤ y ≤ 4:
        // 3x ∈ {2y, 2y+1}: x=1,y=1: 3 ∈ {2,3} ✓. Sat.
        assert!(sat(&[
            Constraint::ge(vec![3, -2], 0), // 3x - 2y >= 0
            Constraint::ge(vec![-3, 2], 1), // 2y + 1 - 3x >= 0
            Constraint::ge(vec![1, 0], -1),
            Constraint::ge(vec![-1, 0], 4),
            Constraint::ge(vec![0, 1], -1),
            Constraint::ge(vec![0, -1], 4),
        ]));
    }

    #[test]
    fn unbounded_variable_dropped() {
        // x ≥ y (y otherwise free): always sat.
        assert!(sat(&[Constraint::ge(vec![1, -1], 0)]));
    }

    #[test]
    fn three_vars_system() {
        // x + y + z = 10, x ≥ 3, y ≥ 3, z ≥ 3: sat (3+3+4).
        assert!(sat(&[
            Constraint::eq(vec![1, 1, 1], -10),
            Constraint::ge(vec![1, 0, 0], -3),
            Constraint::ge(vec![0, 1, 0], -3),
            Constraint::ge(vec![0, 0, 1], -3),
        ]));
        // x + y + z = 10 with all ≥ 4: unsat.
        assert!(!sat(&[
            Constraint::eq(vec![1, 1, 1], -10),
            Constraint::ge(vec![1, 0, 0], -4),
            Constraint::ge(vec![0, 1, 0], -4),
            Constraint::ge(vec![0, 0, 1], -4),
        ]));
    }

    #[test]
    fn differential_vs_brute_force() {
        // Random small systems over 3 variables in [-5, 5]; compare against
        // exhaustive search. Bounds included so brute force is complete.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..80 {
            let mut cs = vec![
                Constraint::ge(vec![1, 0, 0], 5),
                Constraint::ge(vec![-1, 0, 0], 5),
                Constraint::ge(vec![0, 1, 0], 5),
                Constraint::ge(vec![0, -1, 0], 5),
                Constraint::ge(vec![0, 0, 1], 5),
                Constraint::ge(vec![0, 0, -1], 5),
            ];
            for _ in 0..3 {
                let coeffs: Vec<i64> = (0..3).map(|_| (rnd() % 7) as i64 - 3).collect();
                let k = (rnd() % 11) as i64 - 5;
                if rnd() % 4 == 0 {
                    cs.push(Constraint::eq(coeffs, k));
                } else {
                    cs.push(Constraint::ge(coeffs, k));
                }
            }
            let mut brute = false;
            'search: for x in -5..=5i64 {
                for y in -5..=5i64 {
                    for z in -5..=5i64 {
                        if cs.iter().all(|c| c.eval(&[x, y, z])) {
                            brute = true;
                            break 'search;
                        }
                    }
                }
            }
            assert_eq!(sat(&cs), brute, "round {round}: {cs:?}");
        }
    }

    #[test]
    fn one_sided_variables_vs_brute_force() {
        // Columns x0, x1 (boxed in [-3, 3]), then y0 and y1. y0 has lower
        // bounds only (upper only when mirrored), one of them `y0 ≥ y1`;
        // y1 is bounded below and, through that row, above, so it turns
        // one-sided once y0's rows are dropped. Some rounds bound y1 above
        // on its own as well. Every satisfiable system has a solution with
        // |y| ≤ 9, so the brute-force box is complete.
        let mut state = 0x5851_f42d_4c95_7f2du64;
        let mut rnd = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        // Unsatisfiable in x alone, behind a chain: x0 ≥ 3, x0 ≤ 2,
        // y0 ≥ y1, y1 ≥ x0.
        let chain = [
            Constraint::ge(vec![1, 0, 0, 0], -3),
            Constraint::ge(vec![-1, 0, 0, 0], 2),
            Constraint::ge(vec![0, 0, 1, -1], 0),
            Constraint::ge(vec![-1, 0, 0, 1], 0),
        ];
        assert!(!sat(&chain));
        // Satisfiable once x0 ≤ 3: the chain itself never constrains x.
        let mut relaxed = chain.to_vec();
        relaxed[1] = Constraint::ge(vec![-1, 0, 0, 0], 3);
        assert!(sat(&relaxed));
        let (mut one_sided_rounds, mut sats) = (0, 0);
        for round in 0..60 {
            let mirror = if rnd(2) == 0 { 1 } else { -1 };
            let mut cs = vec![
                Constraint::ge(vec![1, 0, 0, 0], 3),
                Constraint::ge(vec![-1, 0, 0, 0], 3),
                Constraint::ge(vec![0, 1, 0, 0], 3),
                Constraint::ge(vec![0, -1, 0, 0], 3),
            ];
            for _ in 0..2 {
                let coeffs = vec![rnd(7) as i64 - 3, rnd(7) as i64 - 3, 0, 0];
                let k = rnd(11) as i64 - 5;
                if rnd(4) == 0 {
                    cs.push(Constraint::eq(coeffs, k));
                } else {
                    cs.push(Constraint::ge(coeffs, k));
                }
            }
            for _ in 0..=rnd(2) {
                let a = mirror * (1 + rnd(2) as i64);
                let coeffs = vec![rnd(3) as i64 - 1, rnd(3) as i64 - 1, a, 0];
                cs.push(Constraint::ge(coeffs, rnd(7) as i64 - 3));
            }
            cs.push(Constraint::ge(vec![0, 0, mirror, -mirror], 0));
            cs.push(Constraint::ge(
                vec![rnd(3) as i64 - 1, 0, 0, mirror],
                rnd(7) as i64 - 3,
            ));
            if rnd(3) == 0 {
                cs.push(Constraint::ge(
                    vec![0, rnd(3) as i64 - 1, 0, -mirror],
                    rnd(7) as i64 - 3,
                ));
            } else {
                one_sided_rounds += 1;
            }
            let box_x = -3..=3i64;
            let box_y = -10..=10i64;
            let brute = box_x.clone().any(|x0| {
                box_x.clone().any(|x1| {
                    box_y.clone().any(|y0| {
                        box_y
                            .clone()
                            .any(|y1| cs.iter().all(|c| c.eval(&[x0, x1, y0, y1])))
                    })
                })
            });
            assert_eq!(sat(&cs), brute, "round {round}: {cs:?}");
            sats += usize::from(brute);
        }
        assert!(one_sided_rounds > 20, "{one_sided_rounds} chain rounds");
        assert!((10..50).contains(&sats), "{sats} of 60 rounds satisfiable");
    }

    #[test]
    fn differential_vs_cooper() {
        // The same systems decided by both engines must agree.
        use crate::cooper::{self, PForm};
        use crate::linterm::LinTerm;
        use jahob_util::Symbol;

        let names = ["ox", "oy"];
        let mut state = 0x1111_2222_3333_4444u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..30 {
            let mut cs = Vec::new();
            for _ in 0..3 {
                let coeffs: Vec<i64> = (0..2).map(|_| (rnd() % 5) as i64 - 2).collect();
                let k = (rnd() % 9) as i64 - 4;
                if rnd() % 3 == 0 {
                    cs.push(Constraint::eq(coeffs, k));
                } else {
                    cs.push(Constraint::ge(coeffs, k));
                }
            }
            // Build the equivalent PForm.
            let mut conj = Vec::new();
            for c in &cs {
                let mut t = LinTerm::constant(c.konst);
                for (i, &coef) in c.coeffs.iter().enumerate() {
                    t = t.add(&LinTerm::var(Symbol::intern(names[i])).scale(coef));
                }
                // stored: t >= 0 i.e. -t <= 0; or t = 0.
                let atom = match c.kind {
                    ConstraintKind::Ge => cooper::PAtom::Le(t.scale(-1)),
                    ConstraintKind::Eq => cooper::PAtom::Eq(t),
                };
                conj.push(PForm::Atom(atom));
            }
            let body = PForm::and(conj);
            let cooper_sat = cooper::sat(&body);
            let omega = sat(&cs);
            assert_eq!(omega, cooper_sat, "round {round}: {cs:?}");
        }
    }
}
