//! The CDCL engine.
//!
//! Standard architecture (MiniSat lineage): two-watched-literal propagation,
//! first-UIP conflict analysis with one-level minimization, VSIDS decision
//! heuristic with phase saving, Luby-sequence restarts, and learned-clause
//! retention (no aggressive deletion — problem sizes here stay moderate).
//!
//! Clause literals live in one arena, each clause a span of it. A watch
//! carries a blocker literal, so a clause it shows satisfied is skipped
//! unread. Decisions come from a heap ordered by activity, and conflict
//! analysis works in per-variable marks and scratch buffers the solver
//! keeps, allocating nothing per conflict once they have grown.

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

/// Where a clause's literals sit in the solver's literal arena.
#[derive(Clone, Copy)]
struct ClauseSpan {
    start: u32,
    len: u32,
}

impl ClauseSpan {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A watch on a clause. While `blocker`, another literal of the clause, is
/// true the clause is satisfied and propagation skips it unread.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// A point a [`Solver`] can return to: its variable, clause and arena
/// sizes when [`Solver::mark`] took it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark {
    vars: u32,
    clauses: u32,
    arena: u32,
    unsat: bool,
}

impl Mark {
    /// The number of variables the solver had at the mark.
    pub fn vars(self) -> u32 {
        self.vars
    }
}

/// A CDCL SAT solver.
pub struct Solver {
    /// The literals of every clause, back to back.
    arena: Vec<Lit>,
    /// Each clause's span of `arena`; a clause is named by its index here.
    clauses: Vec<ClauseSpan>,
    /// For each literal, the watches of the clauses that watch its negation.
    watches: Vec<Vec<Watch>>,
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
    /// Decision candidates: every unassigned variable, plus assigned ones
    /// not yet popped.
    order: VarHeap,
    /// Per-variable marks of `analyze`, all false between conflicts.
    seen: Vec<bool>,
    /// The clause the last `analyze` learned, asserting literal first.
    learnt: Vec<Lit>,
    /// Literals whose `seen` marks `analyze` still has to clear.
    to_clear: Vec<Lit>,
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
            arena: Vec::new(),
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
            order: VarHeap::default(),
            seen: Vec::new(),
            learnt: Vec::new(),
            to_clear: Vec::new(),
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
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push(v.0, &self.activity);
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
        // Normalize in place at the end of the arena: sort, then drop
        // duplicates and false literals; a tautology or a true literal
        // drops the clause.
        let start = self.arena.len();
        self.arena.extend_from_slice(lits);
        self.arena[start..].sort_unstable();
        let mut len = 0;
        let mut prev: Option<Lit> = None;
        for i in start..self.arena.len() {
            let l = self.arena[i];
            if prev == Some(l) {
                continue;
            }
            if prev == Some(l.negate()) {
                self.arena.truncate(start);
                return true; // x | ~x: tautology
            }
            prev = Some(l);
            match self.value_lit(l) {
                LBool::True => {
                    self.arena.truncate(start);
                    return true;
                }
                LBool::False => {}
                LBool::Undef => {
                    self.arena[start + len] = l;
                    len += 1;
                }
            }
        }
        self.arena.truncate(start + len);
        match len {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                let unit = self.arena.pop().expect("one literal kept");
                self.enqueue(unit, CLAUSE_NONE);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach(start, len);
                true
            }
        }
    }

    /// Register the clause `arena[start..start + len]` (at least two
    /// literals), watching its first two literals.
    fn attach(&mut self, start: usize, len: usize) -> u32 {
        let idx = self.clauses.len() as u32;
        self.clauses.push(ClauseSpan {
            start: start as u32,
            len: len as u32,
        });
        let (c0, c1) = (self.arena[start], self.arena[start + 1]);
        self.watches[c0.negate().index()].push(Watch {
            clause: idx,
            blocker: c1,
        });
        self.watches[c1.negate().index()].push(Watch {
            clause: idx,
            blocker: c0,
        });
        idx
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
            // `watches[lit]` holds the clauses watching `lit`'s negation,
            // which just became false.
            let false_lit = lit.negate();
            let mut watchers = std::mem::take(&mut self.watches[lit.index()]);
            let mut conflict = None;
            let (mut i, mut kept) = (0, 0);
            'watcher: while i < watchers.len() {
                let watch = watchers[i];
                i += 1;
                if self.value_lit(watch.blocker) == LBool::True {
                    watchers[kept] = watch;
                    kept += 1;
                    continue;
                }
                let span = self.clauses[watch.clause as usize];
                let start = span.start as usize;
                // Keep the falsified literal at position 1.
                if self.arena[start] == false_lit {
                    self.arena.swap(start, start + 1);
                }
                debug_assert_eq!(self.arena[start + 1], false_lit);
                let first = self.arena[start];
                let rewatch = Watch {
                    clause: watch.clause,
                    blocker: first,
                };
                if first != watch.blocker && self.value_lit(first) == LBool::True {
                    watchers[kept] = rewatch;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in start + 2..start + span.len as usize {
                    let lk = self.arena[k];
                    if self.value_lit(lk) != LBool::False {
                        self.arena.swap(start + 1, k);
                        self.watches[lk.negate().index()].push(rewatch);
                        continue 'watcher;
                    }
                }
                // No new watch: the clause is unit or conflicting.
                watchers[kept] = rewatch;
                kept += 1;
                if self.value_lit(first) == LBool::False {
                    conflict = Some(watch.clause);
                    self.qhead = self.trail.len();
                    while i < watchers.len() {
                        watchers[kept] = watchers[i];
                        kept += 1;
                        i += 1;
                    }
                } else {
                    self.enqueue(first, watch.clause);
                }
            }
            watchers.truncate(kept);
            self.watches[lit.index()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
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
            // Rescaling can round distinct activities to equal ones, whose
            // order then falls to the index: restore the heap from scratch.
            self.order.rebuild(&self.activity);
        } else {
            self.order.raised(v.0, &self.activity);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Leaves the learned clause in `learnt`,
    /// asserting literal first and a literal of the backjump level second,
    /// and returns the backjump level.
    fn analyze(&mut self, confl: u32) -> u32 {
        self.learnt.clear();
        self.learnt.push(Lit(0)); // placeholder for the UIP
        let level_now = self.decision_level();
        let mut counter = 0u32;
        let mut skip = 0; // a reason's position 0 holds the pivot itself
        let mut clause_idx = confl;
        let mut trail_pos = self.trail.len();

        loop {
            let span = self.clauses[clause_idx as usize];
            for k in span.range().skip(skip) {
                let q = self.arena[k];
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= level_now {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // The next marked literal on the trail is the next pivot. A
            // reason holds only literals assigned before its pivot, so a
            // resolved variable is never met again and its mark can go.
            let p = loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if self.seen[l.var().0 as usize] {
                    break l;
                }
            };
            self.seen[p.var().0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                self.learnt[0] = p.negate();
                break;
            }
            clause_idx = self.reason[p.var().0 as usize];
            debug_assert_ne!(clause_idx, CLAUSE_NONE);
            skip = 1;
        }

        // Clause minimization: drop literals implied by the rest. The marks
        // are now exactly the variables of `learnt[1..]`.
        self.to_clear.clear();
        self.to_clear.extend_from_slice(&self.learnt[1..]);
        let mut kept = 1;
        for i in 1..self.learnt.len() {
            let l = self.learnt[i];
            if !self.literal_redundant(l) {
                self.learnt[kept] = l;
                kept += 1;
            }
        }
        self.learnt.truncate(kept);
        for &l in &self.to_clear {
            self.seen[l.var().0 as usize] = false;
        }

        // Backjump level: the highest level among the other literals, whose
        // first such literal moves to position 1 to be watched.
        if self.learnt.len() == 1 {
            return 0;
        }
        let mut best = 1;
        for k in 2..self.learnt.len() {
            if self.level[self.learnt[k].var().0 as usize]
                > self.level[self.learnt[best].var().0 as usize]
            {
                best = k;
            }
        }
        self.learnt.swap(1, best);
        self.level[self.learnt[1].var().0 as usize]
    }

    /// Is `lit`'s negation implied by the other literals of the learned
    /// clause (its reason's other literals are all marked or at level 0)?
    /// A simple one-level check — cheap and sound.
    fn literal_redundant(&self, lit: Lit) -> bool {
        let reason = self.reason[lit.var().0 as usize];
        if reason == CLAUSE_NONE {
            return false;
        }
        self.arena[self.clauses[reason as usize].range()][1..]
            .iter()
            .all(|&q| {
                let v = q.var().0 as usize;
                self.level[v] == 0 || self.seen[v]
            })
    }

    fn backtrack(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let start = self.trail_lim[target_level as usize];
        self.trail_lim.truncate(target_level as usize);
        for k in start..self.trail.len() {
            let v = self.trail[k].var().0;
            self.assign[v as usize] = LBool::Undef;
            self.reason[v as usize] = CLAUSE_NONE;
            self.order.push(v, &self.activity);
        }
        self.trail.truncate(start);
        self.qhead = start;
    }

    /// The unassigned variable with the highest activity, the lowest index
    /// among equals.
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v as usize] == LBool::Undef {
                return Some(Var(v));
            }
        }
        None
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
                let backjump = self.analyze(confl);
                self.backtrack(backjump);
                // After backjumping, the asserting literal is unassigned and
                // all other clause literals are false, so it propagates.
                // Assumptions invalidated by the backjump are re-imposed in
                // the decision branch; if one is now forced false, that
                // branch reports unsat-under-assumptions.
                let unit = self.learnt[0];
                let ci = self.learn();
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

    /// The current point, for a later [`Solver::rollback`].
    pub fn mark(&self) -> Mark {
        Mark {
            vars: self.num_vars() as u32,
            clauses: self.clauses.len() as u32,
            arena: self.arena.len() as u32,
            unsat: self.unsat,
        }
    }

    /// Return to `mark`: forget every variable and every clause, learned
    /// ones included, made since. Level-0 facts on the kept variables
    /// stay. They stay sound when each clause added since the mark either
    /// defines a new variable conservatively (a Tseitin gate: any
    /// assignment of its inputs extends to it) or contains the negation of
    /// a literal that is only ever assumed, never asserted: no level-0
    /// fact can then rest on such a clause, so each follows from the kept
    /// clauses alone. Activities and saved phases of kept variables keep
    /// what the search since the mark made of them.
    pub fn rollback(&mut self, mark: Mark) {
        self.backtrack(0);
        let (vars, clauses) = (mark.vars as usize, mark.clauses);
        let kept = |l: &Lit| (l.var().0 as usize) < vars;
        let propagated = self.trail[..self.qhead].iter().filter(|l| kept(l)).count();
        self.trail.retain(kept);
        self.qhead = propagated;
        for l in &self.trail {
            let v = l.var().0 as usize;
            if self.reason[v] != CLAUSE_NONE && self.reason[v] >= clauses {
                self.reason[v] = CLAUSE_NONE;
            }
        }
        // A clause is watched on its first two literals: unwatch the
        // dropped ones on the kept variables, each variable's lists once.
        let mut touched = std::mem::take(&mut self.to_clear);
        touched.clear();
        for span in &self.clauses[clauses as usize..] {
            for &l in &self.arena[span.start as usize..][..2] {
                let v = l.var().0 as usize;
                if v < vars && !self.seen[v] {
                    self.seen[v] = true;
                    touched.push(l);
                }
            }
        }
        for l in &touched {
            self.seen[l.var().0 as usize] = false;
            for list in [l.index(), l.negate().index()] {
                self.watches[list].retain(|w| w.clause < clauses);
            }
        }
        self.to_clear = touched;
        self.watches.truncate(2 * vars);
        self.clauses.truncate(clauses as usize);
        self.arena.truncate(mark.arena as usize);
        self.order.truncate(vars, &self.activity);
        self.assign.truncate(vars);
        self.phase.truncate(vars);
        self.level.truncate(vars);
        self.reason.truncate(vars);
        self.activity.truncate(vars);
        self.seen.truncate(vars);
        self.unsat = mark.unsat;
    }

    /// Store the clause in `learnt` and watch it. Returns its index, or
    /// CLAUSE_NONE for a unit clause.
    fn learn(&mut self) -> u32 {
        if self.learnt.len() == 1 {
            return CLAUSE_NONE;
        }
        let start = self.arena.len();
        self.arena.extend_from_slice(&self.learnt);
        self.attach(start, self.learnt.len())
    }
}

const ABSENT: u32 = u32::MAX;

/// A binary heap of variables, highest activity on top and the lower index
/// first among equal activities: the variable a scan for the most active
/// unassigned variable would pick.
#[derive(Default)]
struct VarHeap {
    heap: Vec<u32>,
    /// Each variable's position in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

impl VarHeap {
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn push(&mut self, v: u32, activity: &[f64]) {
        if self.pos.len() <= v as usize {
            self.pos.resize(v as usize + 1, ABSENT);
        }
        if self.pos[v as usize] != ABSENT {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Drop the variables from `vars` on and restore the order.
    fn truncate(&mut self, vars: usize, activity: &[f64]) {
        self.heap.retain(|&v| (v as usize) < vars);
        self.pos.truncate(vars);
        for (i, &v) in self.heap.iter().enumerate() {
            self.pos[v as usize] = i as u32;
        }
        self.rebuild(activity);
    }

    /// Restore the order after `v`'s activity grew.
    fn raised(&mut self, v: u32, activity: &[f64]) {
        let i = self.pos[v as usize];
        if i != ABSENT {
            self.sift_up(i as usize, activity);
        }
    }

    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(activity, v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !Self::before(activity, self.heap[child], v) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i] as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
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
    use proptest::prelude::*;

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

    /// Does the model satisfy every clause?
    fn satisfies(model: &[bool], clauses: &[Vec<i32>]) -> bool {
        clauses.iter().all(|c| {
            c.iter()
                .any(|&v| model[(v.unsigned_abs() - 1) as usize] == (v > 0))
        })
    }

    /// Solve under `assumptions` and check the answer against brute force
    /// over `clauses` plus the assumptions as units, and a SAT model
    /// against every one of them.
    fn check_against_brute_force(
        s: &mut Solver,
        num_vars: usize,
        clauses: &[Vec<i32>],
        assumptions: &[i32],
    ) {
        let lits: Vec<Lit> = assumptions.iter().map(|&v| lit(s, v)).collect();
        let mut constrained = clauses.to_vec();
        constrained.extend(assumptions.iter().map(|&v| vec![v]));
        let expected = brute_force(num_vars, &constrained);
        match s.solve_with_assumptions(&lits) {
            SolveResult::Sat(model) => {
                assert!(expected, "SAT, brute force says UNSAT: {constrained:?}");
                assert!(
                    satisfies(&model, &constrained),
                    "model {model:?} violates {constrained:?}"
                );
            }
            SolveResult::Unsat => {
                assert!(!expected, "UNSAT, brute force says SAT: {constrained:?}")
            }
        }
    }

    /// A clause over variables `1..=12` (negative = negated), to be folded
    /// into the instance's variable count.
    fn clause() -> impl Strategy<Value = Vec<i32>> {
        proptest::collection::vec(
            (1i32..=12, any::<bool>()).prop_map(|(v, pos)| if pos { v } else { -v }),
            1..=4,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The incremental pattern the spurious-model loop and the theory
        /// loop use: solve, add clauses, solve again, then solve under
        /// assumptions (twice, so an assumption must not outlive its call).
        /// Then the model finder's session pattern: mark, define a gate
        /// `g ↔ (1 ∧ n)` and add clauses guarded by an activation literal
        /// `a`, solve with `a` assumed, roll back, and solve again over
        /// the clauses still in force.
        #[test]
        fn incremental_solving_matches_brute_force(
            num_vars in 1usize..=12,
            first in proptest::collection::vec(clause(), 0..=40),
            more in proptest::collection::vec(clause(), 0..=20),
            assumed in proptest::collection::vec(clause(), 1..=2),
            guarded in proptest::collection::vec(clause(), 0..=20),
        ) {
            let fold = |c: &Vec<i32>| -> Vec<i32> {
                c.iter()
                    .map(|&v| (v.abs() - 1) % num_vars as i32 + 1)
                    .zip(c)
                    .map(|(folded, &v)| if v > 0 { folded } else { -folded })
                    .collect()
            };
            let first: Vec<Vec<i32>> = first.iter().map(fold).collect();
            let more: Vec<Vec<i32>> = more.iter().map(fold).collect();
            let mut s = Solver::new();
            s.reserve_vars(num_vars);
            for c in &first {
                add(&mut s, c);
            }
            check_against_brute_force(&mut s, num_vars, &first, &[]);
            for c in &more {
                add(&mut s, c);
            }
            let all: Vec<Vec<i32>> = first.iter().chain(&more).cloned().collect();
            check_against_brute_force(&mut s, num_vars, &all, &[]);
            for a in &assumed {
                check_against_brute_force(&mut s, num_vars, &all, &fold(a));
            }
            check_against_brute_force(&mut s, num_vars, &all, &[]);

            let mark = s.mark();
            let n = num_vars as i32;
            let (g, act) = (n + 1, n + 2);
            let mut extended = all.clone();
            extended.extend([vec![-g, 1], vec![-g, n], vec![g, -1, -n]]);
            // The guarded clauses may name the gate: fold over `1..=n + 1`.
            for c in &guarded {
                let mut c: Vec<i32> = c
                    .iter()
                    .map(|&v| {
                        let folded = (v.abs() - 1) % (n + 1) + 1;
                        if v > 0 { folded } else { -folded }
                    })
                    .collect();
                c.push(-act);
                extended.push(c);
            }
            for c in &extended[all.len()..] {
                add(&mut s, c);
            }
            let width = num_vars + 2;
            check_against_brute_force(&mut s, width, &extended, &[act]);
            let mut with_assumed = fold(&assumed[0]);
            with_assumed.push(act);
            check_against_brute_force(&mut s, width, &extended, &with_assumed);
            s.rollback(mark);
            prop_assert_eq!(s.num_vars(), num_vars);
            check_against_brute_force(&mut s, num_vars, &all, &[]);
            check_against_brute_force(&mut s, num_vars, &all, &fold(&assumed[0]));
        }
    }
}
