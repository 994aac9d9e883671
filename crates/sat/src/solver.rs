//! The CDCL engine.
//!
//! Standard architecture (MiniSat lineage): two-watched-literal propagation,
//! first-UIP conflict analysis with recursive minimization, VSIDS decision
//! heuristic with phase saving, Luby-sequence restarts, and learned-clause
//! retention (no aggressive deletion — problem sizes here stay moderate).

use std::fmt;

use jahob_util::budget::{Budget, Exhaustion};

/// A propositional variable (0-based index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: variable plus sign. Encoded as `var << 1 | (negated as u32)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Var {
    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// Literal with the given polarity (`true` = positive).
    pub fn lit(self, polarity: bool) -> Lit {
        if polarity {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl Lit {
    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Is this the negative literal?
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Logical negation.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "~v{}", self.var().0)
        } else {
            write!(f, "v{}", self.var().0)
        }
    }
}

/// Truth value of a variable/literal during search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    fn negate(self) -> LBool {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }
}

/// Outcome of a solve call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; the model maps each variable index to its value.
    Sat(Vec<bool>),
    /// Unsatisfiable (under the given assumptions, if any).
    Unsat,
}

impl SolveResult {
    /// True when satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }
}

const CLAUSE_NONE: u32 = u32::MAX;

#[derive(Clone)]
struct Clause {
    lits: Vec<Lit>,
}

/// A CDCL SAT solver.
pub struct Solver {
    clauses: Vec<Clause>,
    /// For each literal, the clause indices watching it.
    watches: Vec<Vec<u32>>,
    /// Assignment per variable.
    assign: Vec<LBool>,
    /// Saved phase per variable (for phase-saving decisions).
    phase: Vec<bool>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Reason clause per variable (CLAUSE_NONE for decisions/assumptions).
    reason: Vec<u32>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Trail indices where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// Set when the clause database is unconditionally unsatisfiable.
    unsat: bool,
    /// Statistics: conflicts, decisions, propagations.
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            unsat: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(CLAUSE_NONE);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Ensure variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    fn value_lit(&self, lit: Lit) -> LBool {
        let v = self.assign[lit.var().0 as usize];
        if lit.is_neg() {
            v.negate()
        } else {
            v
        }
    }

    /// Add a clause (disjunction of literals). Returns `false` if the clause
    /// database became trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses added at root level");
        if self.unsat {
            return false;
        }
        // Normalize: sort, dedupe, drop tautologies and false literals.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort();
        c.dedup();
        let mut i = 0;
        while i + 1 < c.len() {
            if c[i].var() == c[i + 1].var() {
                return true; // x | ~x: tautology
            }
            i += 1;
        }
        c.retain(|&l| self.value_lit(l) != LBool::False);
        if c.iter().any(|&l| self.value_lit(l) == LBool::True) {
            return true;
        }
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(c[0], CLAUSE_NONE);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[c[0].negate().index()].push(idx);
                self.watches[c[1].negate().index()].push(idx);
                self.clauses.push(Clause { lits: c });
                true
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        debug_assert_eq!(self.value_lit(lit), LBool::Undef);
        let v = lit.var().0 as usize;
        self.assign[v] = if lit.is_neg() {
            LBool::False
        } else {
            LBool::True
        };
        self.phase[v] = !lit.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the conflicting clause index if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            // Clauses watching ~lit must be visited: their watched literal
            // `lit.negate()`... our convention: watches[l] holds clauses that
            // are watching a literal whose negation is l; i.e. when l is
            // assigned true the clause may be affected. We stored watchers
            // under c[k].negate(), so visit watches[lit].
            let mut watchers = std::mem::take(&mut self.watches[lit.index()]);
            let mut i = 0;
            'watcher: while i < watchers.len() {
                let ci = watchers[i];
                // The falsified literal is lit.negate().
                let false_lit = lit.negate();
                {
                    let clause = &mut self.clauses[ci as usize];
                    // Ensure the falsified literal is at position 1.
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                    debug_assert_eq!(clause.lits[1], false_lit);
                }
                let first = self.clauses[ci as usize].lits[0];
                if self.value_lit(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci as usize].lits[k];
                    if self.value_lit(lk) != LBool::False {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[lk.negate().index()].push(ci);
                        watchers.swap_remove(i);
                        continue 'watcher;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if self.value_lit(first) == LBool::False {
                    // Conflict: restore remaining watchers.
                    self.watches[lit.index()].append(&mut watchers);
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
            self.watches[lit.index()].extend(watchers);
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Returns (learned clause, backjump level).
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0u32;
        let mut lit_opt: Option<Lit> = None;
        let mut clause_idx = confl;
        let mut trail_pos = self.trail.len();

        loop {
            let clause_lits = self.clauses[clause_idx as usize].lits.clone();
            let start = if lit_opt.is_none() { 0 } else { 1 };
            for &q in &clause_lits[start..] {
                let v = q.var();
                if !seen[v.0 as usize] && self.level[v.0 as usize] > 0 {
                    seen[v.0 as usize] = true;
                    self.bump_var(v);
                    if self.level[v.0 as usize] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if seen[l.var().0 as usize] {
                    lit_opt = Some(l);
                    break;
                }
            }
            let p = lit_opt.unwrap();
            counter -= 1;
            seen[p.var().0 as usize] = false;
            if counter == 0 {
                learned[0] = p.negate();
                break;
            }
            clause_idx = self.reason[p.var().0 as usize];
            debug_assert_ne!(clause_idx, CLAUSE_NONE);
            // Re-mark: `seen` for p cleared above, but p is the resolvent
            // pivot; we skip position 0 of its reason (which is p itself).
            seen[p.var().0 as usize] = true;
        }

        // Clause minimization: drop literals implied by the rest.
        let clause_vars = seen_set(&learned);
        let mut kept = vec![learned[0]];
        for &l in &learned[1..] {
            if !self.literal_redundant(l, &clause_vars) {
                kept.push(l);
            }
        }
        let learned = kept;

        // Backjump level: second-highest level in the clause.
        let backjump = if learned.len() == 1 {
            0
        } else {
            let mut max = 0;
            for &l in &learned[1..] {
                max = max.max(self.level[l.var().0 as usize]);
            }
            max
        };
        (learned, backjump)
    }

    /// Is `lit`'s negation implied by the other literals of the learned
    /// clause (i.e. its reason literals are all in the clause or themselves
    /// redundant)? A simple one-level check — cheap and sound.
    fn literal_redundant(&self, lit: Lit, clause_vars: &std::collections::HashSet<u32>) -> bool {
        let reason = self.reason[lit.var().0 as usize];
        if reason == CLAUSE_NONE {
            return false;
        }
        self.clauses[reason as usize].lits[1..]
            .iter()
            .all(|&q| self.level[q.var().0 as usize] == 0 || clause_vars.contains(&q.var().0))
    }

    fn backtrack(&mut self, target_level: u32) {
        while self.decision_level() > target_level {
            let start = self.trail_lim.pop().unwrap();
            while self.trail.len() > start {
                let l = self.trail.pop().unwrap();
                self.assign[l.var().0 as usize] = LBool::Undef;
                self.reason[l.var().0 as usize] = CLAUSE_NONE;
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&self) -> Option<Var> {
        let mut best: Option<(Var, f64)> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == LBool::Undef {
                let a = self.activity[v];
                match best {
                    Some((_, ba)) if ba >= a => {}
                    _ => best = Some((Var(v as u32), a)),
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// Solve with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solve under temporary assumptions (literals forced true for this call
    /// only). Returns `Unsat` if the assumptions conflict with the clauses.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_with_assumptions_budgeted(assumptions, &Budget::unlimited())
            .expect("unlimited budget cannot be exhausted")
    }

    /// Budgeted solve with no assumptions. On exhaustion the solver state
    /// stays valid (trail rewound to level 0) and the call can be retried
    /// with a fresh budget.
    pub fn solve_budgeted(&mut self, budget: &Budget) -> Result<SolveResult, Exhaustion> {
        self.solve_with_assumptions_budgeted(&[], budget)
    }

    /// Budgeted solve under assumptions: one fuel unit per conflict and per
    /// decision, so the budget bounds the CDCL search itself rather than
    /// wall-clock alone.
    pub fn solve_with_assumptions_budgeted(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
    ) -> Result<SolveResult, Exhaustion> {
        if self.unsat {
            return Ok(SolveResult::Unsat);
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return Ok(SolveResult::Unsat);
        }

        let mut conflicts_until_restart = luby(1) * 64;
        let mut restart_count = 1;
        let mut conflicts_this_restart = 0u64;

        loop {
            if let Err(why) = budget.check() {
                self.backtrack(0);
                return Err(why);
            }
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return Ok(SolveResult::Unsat);
                }
                let (learned, backjump) = self.analyze(confl);
                self.backtrack(backjump);
                // After backjumping, the asserting literal is unassigned and
                // all other clause literals are false, so it propagates.
                // Assumptions invalidated by the backjump are re-imposed in
                // the decision branch; if one is now forced false, that
                // branch reports unsat-under-assumptions.
                let unit = learned[0];
                let ci = self.learn(&learned);
                debug_assert_eq!(self.value_lit(unit), LBool::Undef);
                self.enqueue(unit, ci);
                self.decay_activities();
                if conflicts_this_restart >= conflicts_until_restart {
                    conflicts_this_restart = 0;
                    restart_count += 1;
                    conflicts_until_restart = luby(restart_count) * 64;
                    self.backtrack(0);
                }
            } else {
                // Re-impose assumptions not yet satisfied.
                let mut pending = None;
                for &a in assumptions {
                    match self.value_lit(a) {
                        LBool::True => {}
                        LBool::False => {
                            self.backtrack(0);
                            return Ok(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            pending = Some(a);
                            break;
                        }
                    }
                }
                if let Some(a) = pending {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(a, CLAUSE_NONE);
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        let model: Vec<bool> =
                            self.assign.iter().map(|&a| a == LBool::True).collect();
                        self.backtrack(0);
                        return Ok(SolveResult::Sat(model));
                    }
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = v.lit(self.phase[v.0 as usize]);
                        self.enqueue(lit, CLAUSE_NONE);
                    }
                }
            }
        }
    }

    /// Store a learned clause and set up its watches. Returns its index, or
    /// CLAUSE_NONE for unit clauses.
    fn learn(&mut self, lits: &[Lit]) -> u32 {
        if lits.len() == 1 {
            return CLAUSE_NONE;
        }
        let idx = self.clauses.len() as u32;
        // Watch the UIP literal and the highest-level other literal so the
        // clause is correctly watched after backjumping.
        let mut c = lits.to_vec();
        let mut best = 1;
        for k in 2..c.len() {
            if self.level[c[k].var().0 as usize] > self.level[c[best].var().0 as usize] {
                best = k;
            }
        }
        c.swap(1, best);
        self.watches[c[0].negate().index()].push(idx);
        self.watches[c[1].negate().index()].push(idx);
        self.clauses.push(Clause { lits: c });
        idx
    }
}

fn seen_set(learned: &[Lit]) -> std::collections::HashSet<u32> {
    learned.iter().map(|l| l.var().0).collect()
}

/// The Luby restart sequence (1-indexed): 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
fn luby(mut i: u64) -> u64 {
    loop {
        // Smallest k with i <= 2^k - 1.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        // Recurse into the prefix: i lies inside a copy of the sequence of
        // length 2^(k-1) - 1.
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver: &mut Solver, v: i32) -> Lit {
        let var = (v.unsigned_abs() - 1) as usize;
        solver.reserve_vars(var + 1);
        Var(var as u32).lit(v > 0)
    }

    fn add(solver: &mut Solver, clause: &[i32]) {
        let lits: Vec<Lit> = clause.iter().map(|&v| lit(solver, v)).collect();
        solver.add_clause(&lits);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m[0]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        add(&mut s, &[1]);
        add(&mut s, &[-1]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        add(&mut s, &[1, -1]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn simple_implication_chain() {
        // 1, 1->2, 2->3, 3->4 ... all forced true.
        let mut s = Solver::new();
        add(&mut s, &[1]);
        for v in 1..50 {
            add(&mut s, &[-v, v + 1]);
        }
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.iter().take(50).all(|&b| b)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p[i][j]: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let var = |i: usize, j: usize| (i * 2 + j + 1) as i32;
        for i in 0..3 {
            add(&mut s, &[var(i, 0), var(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    add(&mut s, &[-var(i1, j), -var(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let mut s = Solver::new();
        let var = |i: usize, j: usize| (i * 4 + j + 1) as i32;
        for i in 0..5 {
            let clause: Vec<i32> = (0..4).map(|j| var(i, j)).collect();
            add(&mut s, &clause);
        }
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    add(&mut s, &[-var(i1, j), -var(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.conflicts > 0, "must have required real search");
    }

    #[test]
    fn budget_exhaustion_leaves_solver_reusable() {
        let mut s = Solver::new();
        let var = |i: usize, j: usize| (i * 4 + j + 1) as i32;
        for i in 0..5 {
            let clause: Vec<i32> = (0..4).map(|j| var(i, j)).collect();
            add(&mut s, &clause);
        }
        for j in 0..4 {
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    add(&mut s, &[-var(i1, j), -var(i2, j)]);
                }
            }
        }
        // A couple of fuel units cannot finish the pigeonhole search.
        let tiny = Budget::with_fuel(2);
        assert_eq!(s.solve_budgeted(&tiny), Err(Exhaustion::Fuel));
        // The solver remains usable: a fresh unlimited run still decides it.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // Random-ish structured instance; verify the returned model.
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, -3],
            vec![-1, 3],
            vec![-2, 3, 4],
            vec![-4, 5],
            vec![-5, -1, 2],
            vec![2, 3, 5],
            vec![-3, -4, -5],
        ];
        let mut s = Solver::new();
        for c in &clauses {
            add(&mut s, c);
        }
        match s.solve() {
            SolveResult::Sat(m) => {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&v| {
                            let val = m[(v.unsigned_abs() - 1) as usize];
                            (v > 0) == val
                        }),
                        "model violates clause {c:?}"
                    );
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2]);
        add(&mut s, &[-1, 2]);
        // Satisfiable overall...
        assert!(s.solve().is_sat());
        // ...but not with 2 assumed false.
        let a = lit(&mut s, -2);
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Unsat);
        // Solver remains usable and satisfiable afterwards.
        assert!(s.solve().is_sat());
        let b = lit(&mut s, 2);
        assert!(s.solve_with_assumptions(&[b]).is_sat());
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::new();
        add(&mut s, &[1, 2, 3]);
        let a1 = lit(&mut s, 1);
        let a2 = lit(&mut s, -1);
        assert_eq!(s.solve_with_assumptions(&[a1, a2]), SolveResult::Unsat);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn luby_sequence() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    /// Brute-force satisfiability for differential testing.
    fn brute_force(num_vars: usize, clauses: &[Vec<i32>]) -> bool {
        'outer: for mask in 0u32..(1 << num_vars) {
            for c in clauses {
                let ok = c.iter().any(|&v| {
                    let val = mask & (1 << (v.unsigned_abs() - 1)) != 0;
                    (v > 0) == val
                });
                if !ok {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    #[test]
    fn differential_vs_brute_force() {
        // Deterministic pseudo-random 3-SAT instances around the phase
        // transition (ratio ~4.3), 10 vars.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for instance in 0..60 {
            let num_vars = 8;
            let num_clauses = 34;
            let mut clauses = Vec::new();
            for _ in 0..num_clauses {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let v = (rnd() % num_vars as u64) as i32 + 1;
                    let signed = if rnd() % 2 == 0 { v } else { -v };
                    if !c.contains(&signed) && !c.contains(&-signed) {
                        c.push(signed);
                    }
                }
                clauses.push(c);
            }
            let expected = brute_force(num_vars, &clauses);
            let mut s = Solver::new();
            for c in &clauses {
                add(&mut s, c);
            }
            let got = s.solve().is_sat();
            assert_eq!(got, expected, "instance {instance}: {clauses:?}");
        }
    }
}
