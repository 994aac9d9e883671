//! The prover portfolio and goal decomposition.
//!
//! Each proof obligation is simplified, split into conjuncts (pushing the
//! split under hypotheses and universal quantifiers — §3's "simple goal
//! decomposition technique"), and every piece is offered to the portfolio
//! in order of increasing generality and cost. Abstraction-function symbols
//! (`vardefs`) are unfolded on demand when the abstract attempt fails.

use crate::goal_cache::{self, CachedProof, GoalCache, Lookup};
use jahob_logic::transform::{simplify, split_conjuncts, unfold_defs};
use jahob_logic::{Form, Sort, SortCx};
use jahob_models::BmcVerdict;
use jahob_smt::lift_ite;
use jahob_util::budget::{Budget, Exhaustion, INFINITE_FUEL};
use jahob_util::chaos::{self, Fault, FaultPlan, Lie};
use jahob_util::counters::Stats;
use jahob_util::obs::{self, Event, Recorder};
use jahob_util::{FxHashMap, Symbol};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which component proved (or refuted) an obligation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProverId {
    /// Equivalence-preserving simplification reduced the goal to `True`.
    Simplifier,
    /// The HOL `auto` tactic (structural reasoning).
    Hol,
    /// Presburger arithmetic (Cooper / Omega).
    Lia,
    /// Boolean Algebra with Presburger Arithmetic.
    Bapa,
    /// Nelson–Oppen EUF+LIA.
    Smt,
    /// First-order resolution with reachability axioms.
    Fol,
    /// Bounded model finder (validity up to the recorded bound).
    Bmc,
}

impl ProverId {
    /// Number of portfolio members (the circuit-breaker bank is indexed by
    /// prover).
    pub const COUNT: usize = 7;

    /// All portfolio members, in dispatch order.
    pub const ALL: [ProverId; ProverId::COUNT] = [
        ProverId::Simplifier,
        ProverId::Hol,
        ProverId::Lia,
        ProverId::Bapa,
        ProverId::Smt,
        ProverId::Fol,
        ProverId::Bmc,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            ProverId::Simplifier => 0,
            ProverId::Hol => 1,
            ProverId::Lia => 2,
            ProverId::Bapa => 3,
            ProverId::Smt => 4,
            ProverId::Fol => 5,
            ProverId::Bmc => 6,
        }
    }

    /// Inverse of the breaker-bank index, for decoding persisted cache
    /// records. `None` for out-of-range values (a corrupt or future-format
    /// payload), which callers treat as an unreplayable record.
    pub fn from_index(index: usize) -> Option<ProverId> {
        ProverId::ALL.get(index).copied()
    }

    /// The chaos-boundary site name for this prover's dispatcher attempt
    /// (see [`jahob_util::chaos`]). Static so polling a fault plan on the
    /// hot path allocates nothing.
    pub fn site(self) -> &'static str {
        match self {
            ProverId::Simplifier => "dispatch.simplifier",
            ProverId::Hol => "dispatch.hol-auto",
            ProverId::Lia => "dispatch.presburger",
            ProverId::Bapa => "dispatch.bapa",
            ProverId::Smt => "dispatch.nelson-oppen",
            ProverId::Fol => "dispatch.fol-resolution",
            ProverId::Bmc => "dispatch.bounded-models",
        }
    }

    /// The display name as a static string, so event payloads carry it
    /// without allocating.
    pub fn name(self) -> &'static str {
        match self {
            ProverId::Simplifier => "simplifier",
            ProverId::Hol => "hol-auto",
            ProverId::Lia => "presburger",
            ProverId::Bapa => "bapa",
            ProverId::Smt => "nelson-oppen",
            ProverId::Fol => "fol-resolution",
            ProverId::Bmc => "bounded-models",
        }
    }
}

impl fmt::Display for ProverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which kind of definitive verdict a prover claimed — the payload of
/// [`FailureReason::Disagreement`], kept separate from [`Verdict`] so the
/// failure taxonomy stays `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VerdictKind {
    Proved,
    Refuted,
}

impl fmt::Display for VerdictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VerdictKind::Proved => "proved",
            VerdictKind::Refuted => "refuted",
        })
    }
}

/// Why one prover's attempt on an obligation ended without a verdict.
/// Ordered least- to most-severe so merging attempts keeps the most
/// informative reason per prover.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailureReason {
    /// The goal is outside the prover's fragment.
    Unsupported,
    /// The prover's circuit breaker was open; the attempt was skipped to
    /// protect the rest of the obligation's budget.
    CircuitOpen,
    /// The prover ran to completion without deciding the goal.
    GaveUp,
    /// The attempt's fuel allowance ran dry.
    FuelExhausted,
    /// The attempt hit the wall-clock deadline.
    Timeout,
    /// The prover panicked; the panic was caught and isolated.
    Panicked,
    /// The soundness watchdog demoted this prover's `Proved`: no
    /// independent portfolio member could confirm it.
    Unconfirmed,
    /// The soundness watchdog caught this prover claiming one definitive
    /// verdict while an independent check produced the opposite one. The
    /// most severe reason there is: somebody is lying.
    Disagreement {
        claimed: VerdictKind,
        witness: VerdictKind,
    },
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::Unsupported => f.write_str("unsupported"),
            FailureReason::CircuitOpen => f.write_str("circuit-open"),
            FailureReason::GaveUp => f.write_str("gave-up"),
            FailureReason::FuelExhausted => f.write_str("fuel-exhausted"),
            FailureReason::Timeout => f.write_str("timeout"),
            FailureReason::Panicked => f.write_str("panicked"),
            FailureReason::Unconfirmed => f.write_str("unconfirmed"),
            FailureReason::Disagreement { claimed, witness } => {
                write!(f, "disagreement (claimed {claimed}, witness {witness})")
            }
        }
    }
}

impl From<Exhaustion> for FailureReason {
    fn from(e: Exhaustion) -> FailureReason {
        match e {
            Exhaustion::Timeout => FailureReason::Timeout,
            Exhaustion::Fuel => FailureReason::FuelExhausted,
        }
    }
}

/// Per-obligation failure taxonomy: which provers were tried and why each
/// one stopped. Attached to [`Verdict::Unknown`] so "unknown" is never a
/// bare shrug.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnosis {
    /// One entry per prover that was actually attempted, carrying its most
    /// severe failure reason.
    pub attempts: Vec<(ProverId, FailureReason)>,
    /// Set when the obligation-level budget itself expired during dispatch
    /// (remaining provers were skipped, not blamed).
    pub obligation_spent: Option<FailureReason>,
}

impl Diagnosis {
    pub(crate) fn record(&mut self, prover: ProverId, reason: FailureReason) {
        match self.attempts.iter_mut().find(|(p, _)| *p == prover) {
            Some((_, r)) => *r = (*r).max(reason),
            None => self.attempts.push((prover, reason)),
        }
    }

    /// The recorded reason for `prover`, if it was attempted.
    pub fn reason(&self, prover: ProverId) -> Option<FailureReason> {
        self.attempts
            .iter()
            .find(|(p, _)| *p == prover)
            .map(|(_, r)| *r)
    }

    /// Fold an earlier pass's diagnosis into this one, keeping the most
    /// severe reason per prover (used when an escalated retry also fails:
    /// the final diagnosis covers both passes). Merging is keyed on the
    /// prover, never on arrival position, so folding the same set of
    /// attempts in any order yields the same per-prover reasons.
    pub fn merge_from(&mut self, earlier: &Diagnosis) {
        for (prover, reason) in &earlier.attempts {
            self.record(*prover, *reason);
        }
        self.obligation_spent = self.obligation_spent.max(earlier.obligation_spent);
    }

    /// Structured JSON: the per-prover failure taxonomy plus the
    /// obligation-budget exhaustion marker, in attempt order. Takes the
    /// shared [`ReportRender`] switch for signature uniformity with the
    /// rest of the report tree; a diagnosis has no wall-clock fields,
    /// so both views render identically.
    pub fn to_json(&self, _render: crate::verify::ReportRender) -> String {
        use jahob_util::json::{array, Obj};
        let attempts = array(self.attempts.iter().map(|(prover, reason)| {
            Obj::new()
                .str("prover", prover.name())
                .str("reason", &reason.to_string())
                .finish()
        }));
        Obj::new()
            .raw("attempts", &attempts)
            .opt_str(
                "obligation_spent",
                self.obligation_spent.map(|r| r.to_string()).as_deref(),
            )
            .finish()
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.attempts.is_empty() {
            write!(f, "no prover attempted")?;
        } else {
            for (i, (prover, reason)) in self.attempts.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{prover}: {reason}")?;
            }
        }
        if let Some(reason) = self.obligation_spent {
            write!(f, " (obligation budget spent: {reason})")?;
        }
        Ok(())
    }
}

/// Outcome for one obligation.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Proved; which prover and (for BMC) up to which bound.
    Proved {
        prover: ProverId,
        bound: Option<u32>,
    },
    /// Refuted with a genuine counter-model (checked by the reference
    /// evaluator).
    CounterModel(Box<jahob_logic::Model>),
    /// No component could decide it; the diagnosis says which provers were
    /// tried and why each stopped.
    Unknown(Diagnosis),
}

impl Verdict {
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved { .. })
    }
}

/// Portfolio configuration (the ablation knobs of E6/E11).
#[derive(Clone, Debug)]
pub struct DispatchConfig {
    /// Split goals into conjuncts before dispatch.
    pub decompose: bool,
    /// Unfold `vardefs` when the abstract goal fails.
    pub unfold: bool,
    /// Counter-model search bound (0 disables BMC entirely).
    pub bmc_bound: u32,
    /// Accept BMC exhaustion as (bounded) validity. When false the model
    /// finder is used for counterexamples only.
    pub bmc_as_validity: bool,
    /// Resolution-prover effort.
    pub fol_iterations: usize,
    /// Wall-clock deadline per obligation (`None` = no deadline). When the
    /// deadline expires mid-portfolio the obligation resolves to a
    /// diagnosed `Unknown`; it is never silently weakened to `Proved`.
    pub obligation_timeout: Option<Duration>,
    /// Cooperative fuel per obligation ([`INFINITE_FUEL`] = unmetered).
    pub obligation_fuel: u64,
    /// Deterministic fault-injection plan (chaos testing). `None` — the
    /// default — keeps the fast path: the plan is polled per attempt, not
    /// per prover step. Replaces the old `inject_panic` test hook.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Soundness watchdog: cross-check `Proved` against a second
    /// independent prover and `Refuted` against the reference evaluator;
    /// disagreement degrades to `Unknown`, never a silent wrong answer.
    pub cross_check: bool,
    /// Has no effect; kept only because the benchmark harness still
    /// reads it.
    pub racing: bool,
    /// Has no effect; kept only because the benchmark harness still
    /// reads it.
    pub slicing: bool,
}

impl DispatchConfig {
    /// Digest of the semantics-affecting knobs, folded into every goal-cache
    /// fingerprint. Two configs with equal digests accept exactly the same
    /// proofs, so their runs may share cache entries. Budget and robustness
    /// knobs (timeout, fuel, `cross_check`) stay out on purpose: a proof
    /// found under one budget is a proof under any other, and the watchdog
    /// re-confirms cache hits itself.
    pub fn cache_digest(&self) -> u64 {
        let mut d = 0x6a09_e667_f3bc_c909u64;
        for knob in [
            self.decompose as u64,
            self.unfold as u64,
            self.bmc_bound as u64,
            self.bmc_as_validity as u64,
            self.fol_iterations as u64,
        ] {
            d = chaos::splitmix64(d ^ knob);
        }
        d
    }
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            decompose: true,
            unfold: true,
            bmc_bound: 3,
            bmc_as_validity: true,
            fol_iterations: 700,
            obligation_timeout: None,
            obligation_fuel: INFINITE_FUEL,
            fault_plan: None,
            cross_check: false,
            racing: false,
            slicing: false,
        }
    }
}

/// Circuit breaker: consecutive hard failures (`Panicked`/`Timeout`)
/// before a prover's breaker opens.
const BREAKER_THRESHOLD: u64 = 3;

/// How many attempts an open breaker skips before half-opening for a
/// probe. Counted in skipped attempts, not wall-clock, so breaker
/// behavior is deterministic under test.
const BREAKER_COOLDOWN: u64 = 2;

/// Fuel granted to a half-open probe when the obligation is otherwise
/// unmetered; metered obligations cap the probe at this or the normal
/// slice, whichever is smaller.
const BREAKER_PROBE_FUEL: u64 = 50_000;

/// First-pass attempts on a metered obligation get `remaining / divisor`
/// fuel (min 1), so the obligation is never drained by its first prover;
/// the escalated retry re-runs with everything left.
const ATTEMPT_FUEL_DIVISOR: u64 = 4;

// ---- circuit breakers ----------------------------------------------------

// Breaker states, stored as `u64` in an atomic cell.
const BREAKER_CLOSED: u64 = 0;
const BREAKER_OPEN: u64 = 1;
const BREAKER_HALF_OPEN: u64 = 2;

#[derive(Debug, Default)]
struct BreakerCell {
    /// `BREAKER_CLOSED` / `BREAKER_OPEN` / `BREAKER_HALF_OPEN`.
    state: AtomicU64,
    /// Consecutive hard failures observed while closed.
    consecutive: AtomicU64,
    /// Attempts left to skip before an open breaker half-opens.
    cooldown: AtomicU64,
}

/// What the breaker gate says about the next attempt.
enum Gate {
    /// Breaker closed: attempt normally.
    Pass,
    /// Breaker half-open: attempt with a small probe budget.
    Probe,
    /// Breaker open and cooling down: skip the attempt.
    Skip,
}

/// One circuit breaker per portfolio member. A prover that keeps panicking
/// or timing out stops being offered obligations (protecting the shared
/// budget from a reasoner that has gone bad), then is probed with a small
/// budget slice after a cooldown and readmitted if the probe behaves.
///
/// State lives in atomics so `&Dispatcher` is shareable across the worker
/// pool. All counter updates are read-modify-write operations, so
/// concurrent observers never lose a tick; `Relaxed` ordering is enough
/// because each cell's fields are independent saturating counters — no
/// decision reads one atomic to justify writing another with a
/// happens-before requirement between them.
#[derive(Debug, Default)]
pub struct BreakerBank {
    cells: [BreakerCell; ProverId::COUNT],
}

impl BreakerBank {
    fn gate(&self, prover: ProverId) -> Gate {
        let cell = &self.cells[prover.index()];
        match cell.state.load(Ordering::Relaxed) {
            BREAKER_CLOSED => Gate::Pass,
            // Half-open means a probe is *in flight*: the state is entered
            // only by the cooldown drainer below and left only by that
            // probe's `observe`. Admitting every caller who glimpses
            // half-open would stampede a prover that just crash-looped
            // with one probe per concurrent worker — exactly one caller
            // owns the probe; everyone else skips until its verdict is in.
            BREAKER_HALF_OPEN => Gate::Skip,
            _ => {
                // Atomically consume one cooldown tick; whoever drains the
                // last tick flips the breaker half-open for a probe.
                let prev = cell
                    .cooldown
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cd| {
                        Some(cd.saturating_sub(1))
                    })
                    .expect("fetch_update closure always returns Some");
                if prev > 0 {
                    Gate::Skip
                } else {
                    cell.state.store(BREAKER_HALF_OPEN, Ordering::Relaxed);
                    Gate::Probe
                }
            }
        }
    }

    /// Feed an attempt's outcome back into the breaker. Returns the state
    /// transition this caused (`"open"` / `"reopen"` / `"close"`), if any,
    /// so the caller can emit it as an observability event — the bank
    /// itself stays a pure state machine.
    fn observe(
        &self,
        prover: ProverId,
        probing: bool,
        failure: Option<FailureReason>,
    ) -> Option<&'static str> {
        let cell = &self.cells[prover.index()];
        let hard = matches!(
            failure,
            Some(FailureReason::Panicked) | Some(FailureReason::Timeout)
        );
        if hard {
            if probing {
                // The probe misbehaved too: straight back to open.
                cell.state.store(BREAKER_OPEN, Ordering::Relaxed);
                cell.cooldown.store(BREAKER_COOLDOWN, Ordering::Relaxed);
                Some("reopen")
            } else {
                let streak = cell.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
                if streak >= BREAKER_THRESHOLD {
                    cell.state.store(BREAKER_OPEN, Ordering::Relaxed);
                    cell.cooldown.store(BREAKER_COOLDOWN, Ordering::Relaxed);
                    cell.consecutive.store(0, Ordering::Relaxed);
                    Some("open")
                } else {
                    None
                }
            }
        } else {
            // Success, or a soft failure (gave up / fragment / fuel): the
            // prover is behaving; hard-failure streak resets.
            cell.consecutive.store(0, Ordering::Relaxed);
            if probing {
                cell.state.store(BREAKER_CLOSED, Ordering::Relaxed);
                Some("close")
            } else {
                None
            }
        }
    }
}

/// The dispatcher: signature + definitions + portfolio.
pub struct Dispatcher {
    pub sig: FxHashMap<Symbol, Sort>,
    /// `vardefs`: abstraction-function definitions.
    pub defs: FxHashMap<Symbol, Form>,
    pub config: DispatchConfig,
    pub stats: Stats,
    /// Structured observability (see [`jahob_util::obs`]): every cache
    /// consultation, prover attempt, breaker transition, retry escalation,
    /// chaos injection, and watchdog check is recorded here as a typed
    /// event. Disabled by default — the disabled check is one pointer test
    /// per site and event payloads are never built.
    pub recorder: Recorder,
    /// Run-wide normalized-goal cache, shared (via `Arc`) across the
    /// dispatchers of one verification run. `None` disables caching.
    pub cache: Option<Arc<GoalCache>>,
    /// Per-prover circuit breakers (state persists across obligations).
    breakers: BreakerBank,
}

/// How one pass over the portfolio should behave.
#[derive(Clone, Copy, Default)]
struct AttemptCtx<'a> {
    /// Escalated passes get undivided budget slices.
    escalated: bool,
    /// Retry pass: only re-attempt provers whose first-pass reason was
    /// recoverable (`FuelExhausted`/`Timeout`) or that were never tried.
    retry_only: Option<&'a Diagnosis>,
    /// Watchdog confirmation pass: the claiming prover may not confirm
    /// itself.
    exclude: Option<ProverId>,
}

impl<'a> AttemptCtx<'a> {
    fn first() -> Self {
        AttemptCtx::default()
    }

    fn retry(first_pass: &'a Diagnosis) -> Self {
        AttemptCtx {
            escalated: true,
            retry_only: Some(first_pass),
            exclude: None,
        }
    }

    fn confirm(claimer: ProverId) -> Self {
        AttemptCtx {
            escalated: true,
            retry_only: None,
            exclude: Some(claimer),
        }
    }
}

impl Dispatcher {
    pub fn new(sig: FxHashMap<Symbol, Sort>, defs: FxHashMap<Symbol, Form>) -> Self {
        // Stand-alone dispatchers (the `prove` / `governed_prove`
        // examples, unit tests) honor `JAHOB_TRACE=1` by streaming the
        // event outline to stderr, like the pre-pipeline eprintln!s did.
        // The verification pipeline always installs its own recorder, so
        // this default never double-prints there.
        let recorder = if jahob_util::trace_enabled() {
            Recorder::streaming(Arc::new(obs::StderrSink))
        } else {
            Recorder::disabled()
        };
        Dispatcher {
            sig,
            defs,
            config: DispatchConfig::default(),
            stats: Stats::new(),
            recorder,
            cache: None,
            breakers: BreakerBank::default(),
        }
    }

    /// Emit one observability event and apply the counter increments it
    /// implies ([`Event::stat_increments`]). The event is the single
    /// source of truth for those counters, so the stats table and the
    /// event stream cannot disagree. Counters are maintained even when
    /// the recorder is disabled — every call site here is off the
    /// no-observation fast path (a cache consultation, a breaker
    /// transition, a finished prover attempt), where building the event
    /// is noise against the work it describes.
    fn emit(&self, event: Event) {
        event.stat_increments(|name, delta| self.stats.add(name, delta));
        self.recorder.record_with(|| event);
    }

    /// Elaborate a goal against the signature (resolving `<=`/`-`/`=`
    /// overloads) and return the *goal-specific* signature: verification
    /// conditions contain fresh havoc/snapshot symbols whose sorts only
    /// inference can recover. Falls back to the raw goal and the base
    /// signature when inference fails.
    fn elaborate(&self, goal: &Form) -> (Form, FxHashMap<Symbol, Sort>) {
        let mut cx = SortCx::new();
        for (name, sort) in &self.sig {
            cx.declare(*name, sort.clone());
        }
        match cx.check_bool(goal) {
            Ok(elaborated) => (elaborated, cx.resolved_sig()),
            Err(_) => (goal.clone(), self.sig.clone()),
        }
    }

    /// The per-obligation budget this dispatcher's configuration implies.
    pub fn obligation_budget(&self) -> Budget {
        Budget::new(self.config.obligation_timeout, self.config.obligation_fuel)
    }

    /// Prove one obligation under the configured per-obligation budget.
    pub fn prove(&self, goal: &Form) -> Verdict {
        self.prove_governed(goal, &self.obligation_budget())
    }

    /// Prove one obligation under an explicit budget. Exhaustion degrades
    /// gracefully: the prover that blew the budget is diagnosed, the rest
    /// of the portfolio is skipped, and the verdict is `Unknown` — never a
    /// weakened `Proved`.
    pub fn prove_governed(&self, goal: &Form, budget: &Budget) -> Verdict {
        // Arm the fault plan on this thread so prover entry crates' chaos
        // boundaries see it too; the guard holds until dispatch returns.
        // Seeded plans pre-designate their lying site from the seed: the
        // single-liar role must not go to whichever prover happens to roll
        // `WrongVerdict` first, or parallel runs diverge by arrival order.
        let _chaos = self.config.fault_plan.clone().map(|plan| {
            if plan.is_seeded() {
                let pick =
                    (chaos::splitmix64(plan.seed() ^ 0x11a2_0000_11a2) as usize) % ProverId::COUNT;
                let _ = plan.claim_liar(ProverId::ALL[pick].site());
            }
            chaos::arm(plan)
        });
        // Scope this dispatcher's recorder on the thread so leaf code with
        // no dispatcher reference (chaos boundaries inside prover crates)
        // contributes its events to the same stream.
        let _obs = obs::scope(&self.recorder);
        let (elaborated, goal_sig) = self.elaborate(&lift_ite(goal));
        let simplified = simplify(&elaborated);
        if simplified == Form::tt() {
            self.stats.bump("proved.simplifier");
            return Verdict::Proved {
                prover: ProverId::Simplifier,
                bound: None,
            };
        }
        // Key the seeded chaos decisions for this dispatch on the
        // obligation's *content*, so replays and parallel schedules see
        // the same fault sequence per obligation regardless of the order
        // obligations reach the prover boundaries.
        let _scope = self.config.fault_plan.as_ref().map(|_| {
            let normal = goal_cache::normalize(&simplified);
            let fp = goal_cache::fingerprint(&normal, &goal_sig, self.config.cache_digest());
            chaos::obligation_scope(goal_cache::obligation_key(fp))
        });
        let pieces = if self.config.decompose {
            split_conjuncts(&simplified)
        } else {
            vec![simplified.clone()]
        };
        self.stats.add("goal.pieces", pieces.len() as u64);
        let mut worst_bound: Option<u32> = None;
        let mut weakest: Option<ProverId> = None;
        for piece in pieces {
            match self.prove_piece(&piece, budget, &goal_sig) {
                Verdict::Proved { prover, bound } => {
                    if bound.is_some() {
                        worst_bound = worst_bound.max(bound);
                    }
                    weakest = Some(match (weakest, prover) {
                        (None, p) => p,
                        (Some(ProverId::Bmc), _) | (_, ProverId::Bmc) => ProverId::Bmc,
                        (Some(w), _) => w,
                    });
                }
                other => return other,
            }
        }
        Verdict::Proved {
            prover: weakest.unwrap_or(ProverId::Simplifier),
            bound: worst_bound,
        }
    }

    /// Prove one piece of a split obligation.
    fn prove_piece(
        &self,
        piece: &Form,
        budget: &Budget,
        goal_sig: &FxHashMap<Symbol, Sort>,
    ) -> Verdict {
        let start = Instant::now();
        // Canonicalize before dispatch: bound binders go positional, fresh
        // havoc/snapshot names go first-occurrence. The provers then never
        // see the global fresh-counter suffixes — which vary with worker
        // scheduling — so their search is identical across runs and thread
        // counts, and the cache key falls out of the same pass.
        let normal = goal_cache::normalize(piece);
        if self.recorder.enabled() {
            // The fingerprint is content-determined, so the piece span is
            // identifiable in the stream even when the cache is off.
            let fp = goal_cache::fingerprint(&normal, goal_sig, self.config.cache_digest());
            self.recorder.record_with(|| Event::PieceStart {
                fingerprint: Some(fp),
                size: normal.form.size() as u64,
            });
        }
        let verdict = self.prove_piece_routed(&normal, budget, goal_sig);
        self.recorder.record_with(|| Event::PieceEnd {
            verdict: match &verdict {
                Verdict::Proved { .. } => "proved",
                Verdict::CounterModel(_) => "refuted",
                Verdict::Unknown(_) => "unknown",
            },
        });
        self.stats
            .add("time.micros", start.elapsed().as_micros() as u64);
        verdict
    }

    /// Route one canonicalized piece through the goal cache when one is
    /// attached. The cache stands down while a *seeded* chaos plan is
    /// armed: seeded fault decisions are keyed per obligation, so
    /// replaying one obligation's (possibly fault-riddled) outcome for
    /// another would leak faults across obligations in schedule-dependent
    /// ways.
    fn prove_piece_routed(
        &self,
        normal: &goal_cache::NormalGoal,
        budget: &Budget,
        goal_sig: &FxHashMap<Symbol, Sort>,
    ) -> Verdict {
        let piece = &normal.form;
        let seeded_chaos = self
            .config
            .fault_plan
            .as_deref()
            .is_some_and(FaultPlan::is_seeded);
        let Some(cache) = self.cache.as_deref().filter(|_| !seeded_chaos) else {
            return self.prove_piece_checked(piece, budget);
        };
        let key = goal_cache::fingerprint(normal, goal_sig, self.config.cache_digest());
        match cache.begin(key) {
            Lookup::Hit(proof) => {
                self.emit(Event::CacheLookup {
                    fingerprint: key,
                    hit: true,
                    saved_fuel: proof.fuel,
                });
                let verdict = Verdict::Proved {
                    prover: proof.prover,
                    bound: proof.bound,
                };
                if self.config.cross_check && proof.prover != ProverId::Simplifier {
                    // A hit does not bypass the watchdog: the cached claim
                    // is re-confirmed by an independent prover, and an
                    // entry that cannot be confirmed is evicted and
                    // demoted — a lying prover's cached verdict dies here.
                    let checked = self.cross_check(piece, verdict, budget);
                    if !checked.is_proved() {
                        self.emit(Event::CacheEvict { fingerprint: key });
                        cache.evict(key);
                    }
                    checked
                } else {
                    verdict
                }
            }
            Lookup::Miss(claim) => {
                self.emit(Event::CacheLookup {
                    fingerprint: key,
                    hit: false,
                    saved_fuel: 0,
                });
                let fuel_before = budget.fuel_remaining();
                let verdict = self.prove_piece_checked(piece, budget);
                if let Verdict::Proved { prover, bound } = &verdict {
                    let fuel = if fuel_before == INFINITE_FUEL {
                        0
                    } else {
                        fuel_before - budget.fuel_remaining()
                    };
                    claim.fill(CachedProof {
                        prover: *prover,
                        bound: *bound,
                        fuel,
                    });
                }
                // Unknown or CounterModel: the claim drops here, releasing
                // the key — budget-starved `Unknown`s are never cached, and
                // refutations keep their `Rc`-laden models thread-local.
                verdict
            }
        }
    }

    fn prove_piece_checked(&self, piece: &Form, budget: &Budget) -> Verdict {
        let mut verdict = self.prove_piece_attempts(piece, budget);
        if self.config.cross_check {
            verdict = self.cross_check(piece, verdict, budget);
        }
        verdict
    }

    /// First pass over the portfolio with divided budget slices; if the
    /// obligation ended `FuelExhausted`/`Timeout` while budget remains, one
    /// escalated retry against the surviving provers with everything left.
    fn prove_piece_attempts(&self, piece: &Form, budget: &Budget) -> Verdict {
        let first = self.prove_piece_inner(piece, budget, &AttemptCtx::first());
        let Verdict::Unknown(diag) = first else {
            return first;
        };
        let recoverable = diag
            .attempts
            .iter()
            .any(|(_, r)| matches!(r, FailureReason::FuelExhausted | FailureReason::Timeout));
        let budget_left = budget.poll_deadline().is_ok() && budget.fuel_remaining() > 0;
        if !(recoverable && budget_left) {
            return Verdict::Unknown(diag);
        }
        self.emit(Event::RetryEscalated {
            fuel: budget.fuel_remaining(),
        });
        match self.prove_piece_inner(piece, budget, &AttemptCtx::retry(&diag)) {
            Verdict::Unknown(mut second) => {
                second.merge_from(&diag);
                Verdict::Unknown(second)
            }
            decided => {
                self.emit(Event::RetryRecovered);
                decided
            }
        }
    }

    /// The soundness watchdog: a definitive verdict must survive an
    /// independent second opinion. `Proved` is re-proved by the portfolio
    /// minus the claiming prover; `Refuted` is re-checked against the
    /// reference model evaluator. Disagreement degrades the verdict to a
    /// diagnosed `Unknown` — never a silent wrong answer.
    fn cross_check(&self, piece: &Form, verdict: Verdict, budget: &Budget) -> Verdict {
        match verdict {
            // The simplifier is the trusted equivalence-preserving core;
            // re-proving `True` would be circular anyway.
            Verdict::Proved { prover, bound } if prover != ProverId::Simplifier => {
                self.emit(Event::Watchdog { outcome: "checked" });
                match self.prove_piece_inner(piece, budget, &AttemptCtx::confirm(prover)) {
                    Verdict::Proved { .. } => {
                        self.emit(Event::Watchdog {
                            outcome: "confirmed",
                        });
                        Verdict::Proved { prover, bound }
                    }
                    Verdict::CounterModel(_) => {
                        self.emit(Event::Watchdog {
                            outcome: "disagreement",
                        });
                        let mut diag = Diagnosis::default();
                        diag.record(
                            prover,
                            FailureReason::Disagreement {
                                claimed: VerdictKind::Proved,
                                witness: VerdictKind::Refuted,
                            },
                        );
                        Verdict::Unknown(diag)
                    }
                    Verdict::Unknown(mut diag) => {
                        // Nobody else could decide it either way. Under a
                        // watchdog policy an unconfirmable Proved does not
                        // stand: conservative, and the only stance that
                        // makes a single lying prover harmless.
                        self.emit(Event::Watchdog {
                            outcome: "unconfirmed",
                        });
                        diag.record(prover, FailureReason::Unconfirmed);
                        Verdict::Unknown(diag)
                    }
                }
            }
            Verdict::CounterModel(m) => {
                // The reference evaluator is the independent opinion for
                // refutations. Note this re-checks against the dispatched
                // piece itself, so a counter-model found only for a
                // vardef-unfolded variant is conservatively demoted. The
                // model finder's searches start at universe 1, so a model
                // claiming the degenerate empty universe is structurally
                // fabricated no matter what it evaluates to.
                self.emit(Event::Watchdog { outcome: "checked" });
                if m.universe > 0 && m.eval_bool(piece) == Ok(false) {
                    self.emit(Event::Watchdog {
                        outcome: "confirmed",
                    });
                    Verdict::CounterModel(m)
                } else {
                    self.emit(Event::Watchdog {
                        outcome: "disagreement",
                    });
                    let mut diag = Diagnosis::default();
                    // Counter-models carry no prover attribution; the model
                    // finder is the portfolio's only legitimate source.
                    diag.record(
                        ProverId::Bmc,
                        FailureReason::Disagreement {
                            claimed: VerdictKind::Refuted,
                            witness: VerdictKind::Proved,
                        },
                    );
                    Verdict::Unknown(diag)
                }
            }
            v => v,
        }
    }

    /// Run one prover's attempt in isolation: skip it outright if the
    /// obligation budget is already spent, gate it through the prover's
    /// circuit breaker, apply any injected fault from the armed chaos plan,
    /// catch panics, translate budget exhaustion into the failure taxonomy,
    /// and charge whatever fuel the attempt burned back to the obligation.
    fn guard(
        &self,
        prover: ProverId,
        budget: &Budget,
        diag: &mut Diagnosis,
        ctx: &AttemptCtx<'_>,
        body: impl FnOnce(&Budget, &mut Diagnosis) -> Result<Option<Verdict>, Exhaustion>,
    ) -> Option<Verdict> {
        // Watchdog confirmation: the claimer may not confirm itself.
        if ctx.exclude == Some(prover) {
            return None;
        }
        // Escalated retry: only provers that ran out of budget (or were
        // never reached) get a second chance; hard or structural failures
        // would just repeat.
        if let Some(first_pass) = ctx.retry_only {
            if let Some(reason) = first_pass.reason(prover) {
                if !matches!(
                    reason,
                    FailureReason::FuelExhausted | FailureReason::Timeout
                ) {
                    return None;
                }
            }
        }
        // Obligation budget already spent: remaining provers are skipped,
        // not blamed — they were never tried.
        if budget.check().is_err() || budget.poll_deadline().is_err() {
            return None;
        }
        // Which pass this attempt belongs to, for the event stream.
        let pass: &'static str = if ctx.exclude.is_some() {
            "confirm"
        } else if ctx.retry_only.is_some() {
            "retry"
        } else {
            "first"
        };
        // Circuit breaker gate.
        let mut probing = false;
        match self.breakers.gate(prover) {
            Gate::Pass => {}
            Gate::Probe => {
                probing = true;
                self.emit(Event::Breaker {
                    prover: prover.name(),
                    transition: "half-open",
                });
            }
            Gate::Skip => {
                diag.record(prover, FailureReason::CircuitOpen);
                self.emit(Event::Breaker {
                    prover: prover.name(),
                    transition: "skipped",
                });
                return None;
            }
        }
        // Slice the obligation budget for this attempt. First-pass slices
        // are fractional so one prover cannot drain a metered obligation;
        // escalated passes get everything left; half-open probes get a
        // deliberately small allowance.
        let remaining = budget.fuel_remaining();
        let slice_fuel = if probing {
            remaining.min(BREAKER_PROBE_FUEL)
        } else if ctx.escalated || remaining == INFINITE_FUEL {
            remaining
        } else {
            (remaining / ATTEMPT_FUEL_DIVISOR).max(1)
        };
        let slice = budget.child(None, slice_fuel);
        // Chaos: decide this attempt's fate from the armed plan.
        let fault = self
            .config
            .fault_plan
            .as_deref()
            .and_then(|plan| plan.decide(prover.site()));
        if let Some(fault) = fault {
            self.emit(Event::ChaosInjected {
                site: prover.site().to_owned(),
                fault: fault.to_string(),
            });
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(Fault::Panic) => panic!("chaos: injected panic in {prover}"),
                Some(Fault::Timeout) => return Err(Exhaustion::Timeout),
                Some(Fault::Starvation) => return Err(Exhaustion::Fuel),
                Some(Fault::SlowBurn) => {
                    // A prover that spins: burn the whole slice, no progress.
                    let r = slice.fuel_remaining();
                    if r != INFINITE_FUEL {
                        let _ = slice.charge(r);
                    }
                    return Err(Exhaustion::Fuel);
                }
                Some(Fault::WrongVerdict(lie)) => {
                    // Single-liar rule: only the plan's designated liar may
                    // fabricate; everyone else stays honest so the watchdog
                    // has an independent opinion to appeal to.
                    let lies = self
                        .config
                        .fault_plan
                        .as_deref()
                        .is_some_and(|plan| plan.claim_liar(prover.site()));
                    if lies {
                        self.emit(Event::ChaosLied {
                            prover: prover.name(),
                        });
                        return Ok(Some(match lie {
                            Lie::ClaimProved => Verdict::Proved {
                                prover,
                                bound: None,
                            },
                            Lie::ClaimRefuted => {
                                Verdict::CounterModel(Box::new(jahob_logic::Model {
                                    universe: 0,
                                    int_range: (0, 0),
                                    interp: FxHashMap::default(),
                                    old_interp: None,
                                }))
                            }
                        }));
                    }
                }
                // Disk faults target the persistent store's IO boundary
                // and socket faults the daemon's client connections — not
                // prover attempts; a seeded roll landing one here is
                // impossible (`decide` never yields them) and a targeted
                // rule aiming one at a prover site is inert.
                Some(Fault::Disk(_)) | Some(Fault::Socket(_)) | None => {}
            }
            body(&slice, diag)
        }));
        let fuel_spent = if slice_fuel == INFINITE_FUEL {
            0
        } else {
            let spent = slice_fuel - slice.fuel_remaining();
            // Child fuel is a capped copy, not a reservation: drain the
            // obligation by what the attempt actually burned.
            let _ = budget.charge(spent);
            spent
        };
        let (verdict, failure) = match outcome {
            // Only the model finder builds counter-models, and it checks
            // each one with the reference evaluator before returning it;
            // one from any other prover is fabricated and decides nothing.
            Ok(Ok(Some(Verdict::CounterModel(_)))) if prover != ProverId::Bmc => {
                let reason = FailureReason::Disagreement {
                    claimed: VerdictKind::Refuted,
                    witness: VerdictKind::Proved,
                };
                diag.record(prover, reason);
                (None, Some(reason))
            }
            Ok(Ok(verdict)) => (verdict, None),
            Ok(Err(why)) => {
                let reason = FailureReason::from(why);
                diag.record(prover, reason);
                (None, Some(reason))
            }
            Err(_) => {
                diag.record(prover, FailureReason::Panicked);
                (None, Some(FailureReason::Panicked))
            }
        };
        // One Attempt event per governed attempt. The `failure.*` counters
        // derive from it (see `Event::stat_increments`); fuel is content-
        // determined, wall-time is redacted from deterministic output.
        let outcome_name = match (&verdict, failure) {
            (_, Some(reason)) => reason.to_string(),
            (Some(Verdict::Proved { .. }), None) => "proved".to_owned(),
            (Some(Verdict::CounterModel(_)), None) => "refuted".to_owned(),
            (Some(Verdict::Unknown(_)), None) | (None, None) => "no-decision".to_owned(),
        };
        self.emit(Event::Attempt {
            prover: prover.name(),
            pass,
            outcome: outcome_name,
            fuel: fuel_spent,
            micros: started.elapsed().as_micros() as u64,
        });
        if let Some(transition) = self.breakers.observe(prover, probing, failure) {
            self.emit(Event::Breaker {
                prover: prover.name(),
                transition,
            });
        }
        verdict
    }

    fn prove_piece_inner(&self, piece: &Form, budget: &Budget, ctx: &AttemptCtx<'_>) -> Verdict {
        let mut diag = Diagnosis::default();
        if simplify(piece) == Form::tt() {
            self.stats.bump("proved.simplifier");
            return Verdict::Proved {
                prover: ProverId::Simplifier,
                bound: None,
            };
        }
        // Candidate goals (each with its inferred signature): the abstract
        // piece, then the vardef-unfolded variant (ites lifted and
        // re-elaborated since unfolding exposes new structure).
        let (_, piece_sig) = self.elaborate(piece);
        let mut variants = vec![(piece.clone(), piece_sig)];
        if self.config.unfold && !self.defs.is_empty() {
            let raw = lift_ite(&unfold_defs(piece, &self.defs));
            let (elaborated, sig) = self.elaborate(&raw);
            let unfolded = simplify(&elaborated);
            if unfolded != *piece {
                if unfolded == Form::tt() {
                    self.stats.bump("proved.simplifier");
                    return Verdict::Proved {
                        prover: ProverId::Simplifier,
                        bound: None,
                    };
                }
                variants.push((unfolded, sig));
            }
        }

        // Cheap, fragment-specific provers first.
        for prover in [ProverId::Hol, ProverId::Lia, ProverId::Bapa, ProverId::Smt] {
            let decided = self.guard(prover, budget, &mut diag, ctx, |slice, diag| {
                portfolio_attempt(
                    prover,
                    &variants,
                    self.config.fol_iterations,
                    slice,
                    diag,
                    &self.stats,
                )
            });
            if let Some(v) = decided {
                return v;
            }
        }
        // One bounded-model search, before the expensive provers: a
        // refutation settles the obligation for good, and a bounded proof
        // is held while FOL tries for an unbounded one.
        let mut bounded = None;
        if self.config.bmc_bound > 0 {
            match self.guard(ProverId::Bmc, budget, &mut diag, ctx, |slice, diag| {
                self.bounded_search(&variants, slice, diag)
            }) {
                Some(proof @ Verdict::Proved { .. }) => bounded = Some(proof),
                Some(refuted) => return refuted,
                None => {}
            }
        }
        let fol = self.guard(ProverId::Fol, budget, &mut diag, ctx, |slice, diag| {
            portfolio_attempt(
                ProverId::Fol,
                &variants,
                self.config.fol_iterations,
                slice,
                diag,
                &self.stats,
            )
        });
        if let Some(v) = fol {
            return v;
        }
        if let Some(proof) = bounded {
            self.stats.bump("proved.bmc");
            return proof;
        }
        self.stats.bump("unknown");
        diag.obligation_spent = budget.exhausted().map(FailureReason::from);
        Verdict::Unknown(diag)
    }

    /// The model finder's one pass over a piece's variants, unfolded
    /// first. Each raw variant is searched over universes `1..=bmc_bound`:
    /// a counter-model refutes, and exhausting the bound is a bounded
    /// proof when `bmc_as_validity` is on. A variant outside the boundable
    /// fragment is weakened into it and searched again; that search can
    /// prove, but its counter-models may rest on what the weakening
    /// forgot, so they refute nothing. Once one variant is bounded-valid,
    /// the rest are searched raw, for a counter-model only.
    fn bounded_search(
        &self,
        variants: &[(Form, FxHashMap<Symbol, Sort>)],
        slice: &Budget,
        diag: &mut Diagnosis,
    ) -> Result<Option<Verdict>, Exhaustion> {
        use jahob_models::ModelsFailure;
        let bound = self.config.bmc_bound;
        let mut proved = false;
        for (goal, sig) in variants.iter().rev() {
            self.stats.bump("tried.bmc");
            match jahob_models::bmc_valid_with_bound_budgeted(goal, sig, bound, slice) {
                Ok(BmcVerdict::CounterModel(model)) => {
                    self.stats.bump("refuted.bmc");
                    return Ok(Some(Verdict::CounterModel(model)));
                }
                Ok(BmcVerdict::ValidUpTo(_)) => {
                    proved |= self.config.bmc_as_validity;
                    continue;
                }
                Err(ModelsFailure::Fragment(_)) => {
                    diag.record(ProverId::Bmc, FailureReason::Unsupported)
                }
                Err(ModelsFailure::Exhausted(why)) => return Err(why),
            }
            // Outside the fragment: weaken into it, unless a bounded proof
            // is already held or bounded proofs are off.
            if proved || !self.config.bmc_as_validity {
                continue;
            }
            let Some((candidate, cand_sig)) = self.weakened_for_bmc(goal, sig) else {
                continue;
            };
            match jahob_models::bmc_valid_with_bound_budgeted(&candidate, &cand_sig, bound, slice) {
                Ok(BmcVerdict::ValidUpTo(_)) => proved = true,
                Ok(BmcVerdict::CounterModel(_)) => {
                    diag.record(ProverId::Bmc, FailureReason::GaveUp)
                }
                Err(ModelsFailure::Fragment(_)) => {}
                Err(ModelsFailure::Exhausted(why)) => return Err(why),
            }
        }
        Ok(proved.then_some(Verdict::Proved {
            prover: ProverId::Bmc,
            bound: Some(bound),
        }))
    }

    /// Weaken a goal outside the boundable fragment toward it: opaque
    /// set-valued applications (`List.content a`) become fresh set
    /// variables, so client-level goals ground, and hypotheses that still
    /// do not ground are dropped, each with a `bmc drops hyp` note. Both
    /// steps are sound for validity. `None` when neither changed anything.
    fn weakened_for_bmc(
        &self,
        goal: &Form,
        sig: &FxHashMap<Symbol, Sort>,
    ) -> Option<(Form, FxHashMap<Symbol, Sort>)> {
        let (abstracted, abs_sig, was_abstracted) = abstract_set_apps(goal, sig);
        let filtered = filtered(&abstracted, &mut |h| {
            let ok = jahob_models::in_fragment(h, &abs_sig, 1);
            if !ok {
                self.recorder.record_with(|| {
                    let t = h.to_string();
                    Event::Note {
                        text: format!("bmc drops hyp: {}", t.chars().take(120).collect::<String>()),
                    }
                });
            }
            ok
        });
        match filtered {
            Some(candidate) => Some((candidate, abs_sig)),
            None => was_abstracted.then_some((abstracted, abs_sig)),
        }
    }
}

/// Drop hypotheses outside a prover's fragment, at conjunct granularity:
/// one foreign conjunct must not take the rest of its conjunction down
/// with it ([`jahob_logic::sequent::Sequent::of`] does the flattening).
/// Dropping hypotheses is sound for validity. Returns `None` when nothing
/// was dropped (the full goal was already tried).
fn filtered(goal: &Form, keep: &mut dyn FnMut(&Form) -> bool) -> Option<Form> {
    let mut seq = jahob_logic::sequent::Sequent::of(goal);
    if seq.hyps.is_empty() {
        return None;
    }
    let total = seq.hyps.len();
    seq.hyps.retain(|h| keep(&h.form));
    if seq.hyps.len() == total {
        return None;
    }
    Some(seq.to_form())
}

/// One prover's pass over the goal variants — the body `guard` runs for
/// hol-auto, Presburger, BAPA, Nelson–Oppen and FOL (the model finder's
/// is [`Dispatcher::bounded_search`]). It stops only through `slice`.
fn portfolio_attempt(
    prover: ProverId,
    variants: &[(Form, FxHashMap<Symbol, Sort>)],
    fol_iterations: usize,
    slice: &Budget,
    diag: &mut Diagnosis,
    stats: &Stats,
) -> Result<Option<Verdict>, Exhaustion> {
    match prover {
        ProverId::Hol => {
            for (goal, _) in variants {
                if jahob_hol::auto_proves_governed(goal, slice)? {
                    stats.bump("proved.hol");
                    return Ok(Some(Verdict::Proved {
                        prover: ProverId::Hol,
                        bound: None,
                    }));
                }
                diag.record(ProverId::Hol, FailureReason::GaveUp);
            }
            Ok(None)
        }
        ProverId::Lia => {
            for (goal, _) in variants {
                stats.bump("tried.presburger");
                let mut candidates = vec![goal.clone()];
                if let Some(f) = filtered(goal, &mut |h| {
                    jahob_presburger::translate::form_to_pform(h).is_ok()
                }) {
                    candidates.push(f);
                }
                for g in &candidates {
                    match jahob_presburger::translate::decide_valid_budgeted(g, slice) {
                        Ok(true) => {
                            stats.bump("proved.presburger");
                            return Ok(Some(Verdict::Proved {
                                prover: ProverId::Lia,
                                bound: None,
                            }));
                        }
                        Ok(false) => diag.record(ProverId::Lia, FailureReason::GaveUp),
                        Err(jahob_presburger::PresburgerFailure::Fragment(_)) => {
                            diag.record(ProverId::Lia, FailureReason::Unsupported)
                        }
                        Err(jahob_presburger::PresburgerFailure::Exhausted(why)) => {
                            return Err(why)
                        }
                    }
                }
            }
            Ok(None)
        }
        ProverId::Bapa => {
            for (goal, sig) in variants {
                stats.bump("tried.bapa");
                let mut candidates = vec![goal.clone()];
                if let Some(f) = filtered(goal, &mut |h| jahob_bapa::base_set_count(h, sig).is_ok())
                {
                    candidates.push(f);
                }
                for g in &candidates {
                    match jahob_bapa::bapa_valid_budgeted(g, sig, slice) {
                        Ok(true) => {
                            stats.bump("proved.bapa");
                            return Ok(Some(Verdict::Proved {
                                prover: ProverId::Bapa,
                                bound: None,
                            }));
                        }
                        Ok(false) => diag.record(ProverId::Bapa, FailureReason::GaveUp),
                        Err(jahob_bapa::BapaFailure::Fragment(_)) => {
                            diag.record(ProverId::Bapa, FailureReason::Unsupported)
                        }
                        Err(jahob_bapa::BapaFailure::Exhausted(why)) => return Err(why),
                    }
                }
            }
            Ok(None)
        }
        ProverId::Smt => {
            for (goal, sig) in variants {
                // The Nelson–Oppen core is for compact ground goals; on big
                // VC chains the lazy loop + arrangement enumeration
                // dominates.
                if goal.size() > 150 {
                    continue;
                }
                stats.bump("tried.smt");
                let mut candidates = vec![goal.clone()];
                if let Some(f) = filtered(goal, &mut |h| jahob_smt::in_fragment(h, sig)) {
                    candidates.push(f);
                }
                for g in &candidates {
                    let prepared = jahob_smt::lift_ite(g);
                    match jahob_smt::smt_valid_budgeted(&prepared, sig, slice) {
                        Ok(true) => {
                            stats.bump("proved.smt");
                            return Ok(Some(Verdict::Proved {
                                prover: ProverId::Smt,
                                bound: None,
                            }));
                        }
                        Ok(false) => diag.record(ProverId::Smt, FailureReason::GaveUp),
                        Err(jahob_smt::SmtFailure::Fragment(_)) => {
                            diag.record(ProverId::Smt, FailureReason::Unsupported)
                        }
                        Err(jahob_smt::SmtFailure::Exhausted(why)) => return Err(why),
                    }
                }
            }
            Ok(None)
        }
        ProverId::Fol => {
            for (goal, sig) in variants {
                stats.bump("tried.fol");
                let config = jahob_fol::ProverConfig {
                    max_iterations: fol_iterations,
                    ..Default::default()
                };
                let (prepared, axioms) = jahob_fol::reach::prepare(goal, sig);
                let negated = Form::not(prepared);
                let clauses = (|| -> Result<_, jahob_fol::clause::ClausifyError> {
                    let mut clauses = jahob_fol::clausify(&negated)?;
                    for ax in &axioms {
                        clauses.extend(jahob_fol::clausify(ax)?);
                    }
                    Ok(clauses)
                })();
                match clauses {
                    Err(_) => diag.record(ProverId::Fol, FailureReason::Unsupported),
                    Ok(clauses) => match jahob_fol::prove_budgeted(clauses, &config, slice)? {
                        jahob_fol::ProveResult::Proved => {
                            stats.bump("proved.fol");
                            return Ok(Some(Verdict::Proved {
                                prover: ProverId::Fol,
                                bound: None,
                            }));
                        }
                        _ => diag.record(ProverId::Fol, FailureReason::GaveUp),
                    },
                }
            }
            Ok(None)
        }
        ProverId::Simplifier | ProverId::Bmc => Ok(None),
    }
}

/// Replace every set-valued application (head symbol of sort
/// `_ => objset`) by a fresh set variable, consistently per distinct term,
/// and add the congruence facts the replacement would otherwise lose:
/// for same-head applications `f t₁ → S₁`, `f t₂ → S₂`, the (valid)
/// hypothesis `t₁ = t₂ → S₁ = S₂`. Sound for validity: the abstraction
/// forgets constraints and the added hypotheses are true in every model.
fn abstract_set_apps(
    goal: &Form,
    sig: &FxHashMap<Symbol, Sort>,
) -> (Form, FxHashMap<Symbol, Sort>, bool) {
    use std::rc::Rc;
    struct Cx<'a> {
        sig: &'a FxHashMap<Symbol, Sort>,
        out_sig: FxHashMap<Symbol, Sort>,
        map: FxHashMap<Form, Symbol>,
        changed: bool,
    }
    impl Cx<'_> {
        fn is_set_app(&self, form: &Form) -> bool {
            if let Form::App(head, _) = form {
                if let Form::Var(f) = head.as_ref() {
                    if let Some(Sort::Fun(_, ret)) = self.sig.get(f) {
                        return matches!(ret.as_ref(), Sort::Set(inner) if **inner == Sort::Obj);
                    }
                }
            }
            false
        }
        fn walk(&mut self, form: &Form) -> Form {
            if self.is_set_app(form) {
                let next_id = self.map.len();
                let name = *self
                    .map
                    .entry(form.clone())
                    .or_insert_with(|| Symbol::intern(&format!("$setapp{next_id}")));
                self.out_sig.insert(name, Sort::objset());
                self.changed = true;
                return Form::Var(name);
            }
            match form {
                Form::Var(_) | Form::IntLit(_) | Form::BoolLit(_) | Form::Null | Form::EmptySet => {
                    form.clone()
                }
                Form::Tree(es) => Form::Tree(es.iter().map(|e| self.walk(e)).collect()),
                Form::FiniteSet(es) => Form::FiniteSet(es.iter().map(|e| self.walk(e)).collect()),
                Form::And(ps) => Form::and(ps.iter().map(|p| self.walk(p)).collect()),
                Form::Or(ps) => Form::or(ps.iter().map(|p| self.walk(p)).collect()),
                Form::Unop(op, a) => Form::Unop(*op, Rc::new(self.walk(a))),
                Form::Old(a) => Form::Old(Rc::new(self.walk(a))),
                Form::Binop(op, a, b) => Form::binop(*op, self.walk(a), self.walk(b)),
                Form::Ite(c, t, e) => Form::Ite(
                    Rc::new(self.walk(c)),
                    Rc::new(self.walk(t)),
                    Rc::new(self.walk(e)),
                ),
                Form::App(h, args) => {
                    Form::app(self.walk(h), args.iter().map(|a| self.walk(a)).collect())
                }
                Form::Quant(k, bs, body) => Form::Quant(*k, bs.clone(), Rc::new(self.walk(body))),
                Form::Lambda(bs, body) => Form::Lambda(bs.clone(), Rc::new(self.walk(body))),
                Form::Compr(x, s, body) => Form::Compr(*x, s.clone(), Rc::new(self.walk(body))),
            }
        }
    }
    let mut cx = Cx {
        sig,
        out_sig: sig.clone(),
        map: FxHashMap::default(),
        changed: false,
    };
    let walked = cx.walk(goal);
    if !cx.changed {
        return (walked, cx.out_sig, false);
    }
    // Congruence hypotheses per head symbol.
    let entries: Vec<(Form, Symbol)> = cx.map.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let mut hyps: Vec<Form> = Vec::new();
    for (i, (t1, s1)) in entries.iter().enumerate() {
        for (t2, s2) in entries.iter().skip(i + 1) {
            let (Form::App(h1, a1), Form::App(h2, a2)) = (t1, t2) else {
                continue;
            };
            if h1 != h2 || a1.len() != a2.len() {
                continue;
            }
            let args_eq = Form::and(
                a1.iter()
                    .zip(a2.iter())
                    .map(|(x, y)| Form::eq(cx.walk(x), cx.walk(y)))
                    .collect(),
            );
            hyps.push(Form::implies(
                args_eq,
                Form::eq(Form::Var(*s1), Form::Var(*s2)),
            ));
        }
    }
    let full = hyps
        .into_iter()
        .rev()
        .fold(walked, |acc, h| Form::implies(h, acc));
    (full, cx.out_sig, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;

    fn dispatcher() -> Dispatcher {
        let mut sig: FxHashMap<Symbol, Sort> = FxHashMap::default();
        for (n, s) in [
            ("S", Sort::objset()),
            ("T", Sort::objset()),
            ("x", Sort::Obj),
            ("y", Sort::Obj),
            ("i", Sort::Int),
            ("j", Sort::Int),
            ("next", Sort::field(Sort::Obj)),
        ] {
            sig.insert(Symbol::intern(n), s);
        }
        sig.insert(Symbol::intern("Object.alloc"), Sort::objset());
        Dispatcher::new(sig, FxHashMap::default())
    }

    fn proved_by(d: &Dispatcher, src: &str) -> Option<ProverId> {
        match d.prove(&form(src)) {
            Verdict::Proved { prover, .. } => Some(prover),
            _ => None,
        }
    }

    #[test]
    fn routing_matches_fragments() {
        let d = dispatcher();
        assert_eq!(proved_by(&d, "x = x"), Some(ProverId::Simplifier));
        assert_eq!(proved_by(&d, "i < j --> i + 1 <= j"), Some(ProverId::Lia));
        assert_eq!(proved_by(&d, "S Int T <= S"), Some(ProverId::Bapa));
        assert_eq!(
            proved_by(&d, "x = y --> next x = next y"),
            Some(ProverId::Smt)
        );
        assert_eq!(
            proved_by(
                &d,
                "rtrancl_pt (% a b. next a = b) x y & \
                 rtrancl_pt (% a b. next a = b) y x2 \
                 --> rtrancl_pt (% a b. next a = b) x x2"
            ),
            Some(ProverId::Fol)
        );
    }

    #[test]
    fn bounded_proof_takes_one_model_search_and_is_held_through_fol() {
        // Acyclicity of a `tree` backbone: only the model finder proves it.
        // One search finds the bounded proof before FOL, and FOL still
        // gets its try at an unbounded one.
        let mut d = dispatcher();
        let sink = Arc::new(obs::MemorySink::new());
        d.recorder = Recorder::streaming(sink.clone());
        let v = d.prove(&form("tree [next] & x..next = y & y ~= null --> x ~= y"));
        assert!(
            matches!(
                v,
                Verdict::Proved {
                    prover: ProverId::Bmc,
                    bound: Some(3)
                }
            ),
            "{v:?}"
        );
        let tail: Vec<(&str, String)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Attempt {
                    prover, outcome, ..
                } if prover == "bounded-models" || prover == "fol-resolution" => {
                    Some((prover, outcome))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            tail,
            [
                ("bounded-models", "proved".to_owned()),
                ("fol-resolution", "no-decision".to_owned()),
            ]
        );
        assert_eq!(d.stats.get("proved.bmc"), 1);
    }

    #[test]
    fn counter_models_returned() {
        let d = dispatcher();
        match d.prove(&form("x : S --> x : T")) {
            Verdict::CounterModel(m) => {
                // The model genuinely refutes the goal.
                assert_eq!(m.eval_bool(&form("x : S --> x : T")), Ok(false));
            }
            other => panic!("expected counter-model, got {other:?}"),
        }
    }

    #[test]
    fn decomposition_routes_conjuncts_separately() {
        let d = dispatcher();
        // One conjunct is LIA, the other BAPA: only decomposition lets two
        // different provers share the goal.
        let v = d.prove(&form("(i < j --> i + 1 <= j) & S Int T <= S"));
        assert!(v.is_proved(), "{v:?}");
        assert!(d.stats.get("proved.presburger") >= 1);
        assert!(d.stats.get("proved.bapa") >= 1);
    }

    #[test]
    fn unknown_for_hard_goals() {
        let mut d = dispatcher();
        d.config.bmc_as_validity = false;
        d.config.bmc_bound = 2;
        // Satisfiable but not valid, and no small counter-model within
        // bound 2? — pick something refutable only at size ≥ 3 to land in
        // Unknown: "at most two distinct non-null objects exist".
        let v = d.prove(&form(
            "ALL a b c. a ~= null & b ~= null & c ~= null --> a = b | b = c | a = c",
        ));
        assert!(matches!(v, Verdict::Unknown(_)), "{v:?}");
    }

    #[test]
    fn injected_panic_is_isolated_and_diagnosed() {
        let mut d = dispatcher();
        // Make the one prover that can prove this goal panic instead.
        d.config.fault_plan = Some(Arc::new(FaultPlan::quiet().inject(
            ProverId::Bapa.site(),
            0..u64::MAX,
            Fault::Panic,
        )));
        d.config.bmc_bound = 0; // keep the model finder out of the way
        d.config.fol_iterations = 50;
        // Cardinality reasoning is BAPA-only: no other prover can pick up
        // the slack, so the verdict must be a diagnosed Unknown.
        let v = d.prove(&form("card (S Un T) <= card S + card T"));
        match v {
            Verdict::Unknown(diag) => {
                assert!(
                    diag.attempts
                        .contains(&(ProverId::Bapa, FailureReason::Panicked)),
                    "{diag}"
                );
            }
            other => panic!("expected diagnosed unknown, got {other:?}"),
        }
        assert_eq!(d.stats.get("failure.bapa.panicked"), 1);
        // The panic poisoned nothing: the same dispatcher still proves
        // other obligations afterwards.
        let v2 = d.prove(&form("i < j --> i + 1 <= j"));
        assert!(v2.is_proved(), "{v2:?}");
    }

    #[test]
    fn breaker_opens_after_streak_and_recovers_via_probe() {
        let mut d = dispatcher();
        // BAPA panics on its first three attempts, then behaves.
        d.config.fault_plan = Some(Arc::new(FaultPlan::quiet().inject(
            ProverId::Bapa.site(),
            0..3,
            Fault::Panic,
        )));
        d.config.bmc_bound = 0;
        d.config.fol_iterations = 10;
        let goal = form("card (S Un T) <= card S + card T");
        // Three panics open the breaker …
        for _ in 0..3 {
            assert!(!d.prove(&goal).is_proved());
        }
        assert_eq!(d.stats.get("breaker.bapa.open"), 1);
        // … the cooldown skips BAPA (diagnosed as circuit-open) …
        for _ in 0..2 {
            match d.prove(&goal) {
                Verdict::Unknown(diag) => assert_eq!(
                    diag.reason(ProverId::Bapa),
                    Some(FailureReason::CircuitOpen),
                    "{diag}"
                ),
                other => panic!("expected unknown during cooldown, got {other:?}"),
            }
        }
        assert_eq!(d.stats.get("breaker.bapa.skipped"), 2);
        // … and the half-open probe succeeds (fault range is spent), so the
        // breaker closes and BAPA proves the goal again.
        let v = d.prove(&goal);
        assert!(v.is_proved(), "{v:?}");
        assert_eq!(d.stats.get("breaker.bapa.half-open"), 1);
        assert_eq!(d.stats.get("breaker.bapa.close"), 1);
    }

    #[test]
    fn half_open_admits_exactly_one_probe_across_concurrent_workers() {
        // Regression: half-open used to answer `Probe` to every caller, so
        // N workers racing past an expired cooldown all probed a prover
        // that had just crash-looped. Half-open now means "probe in
        // flight": the cooldown drainer owns the one probe, everyone else
        // skips, and the tallies are deterministic at any interleaving.
        let bank = BreakerBank::default();
        let cell = &bank.cells[ProverId::Bapa.index()];
        cell.state.store(BREAKER_OPEN, Ordering::Relaxed);
        cell.cooldown.store(3, Ordering::Relaxed);
        let probes = AtomicU64::new(0);
        let skips = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..4 {
                        match bank.gate(ProverId::Bapa) {
                            Gate::Probe => probes.fetch_add(1, Ordering::Relaxed),
                            Gate::Skip => skips.fetch_add(1, Ordering::Relaxed),
                            Gate::Pass => panic!("breaker closed without a probe verdict"),
                        };
                    }
                });
            }
        });
        assert_eq!(
            probes.load(Ordering::Relaxed),
            1,
            "exactly one concurrent worker may own the half-open probe"
        );
        assert_eq!(skips.load(Ordering::Relaxed), 31);

        // A failed probe reopens the breaker and, after the cooldown, the
        // next drain hands out exactly one fresh probe — again regardless
        // of who races.
        assert_eq!(
            bank.observe(ProverId::Bapa, true, Some(FailureReason::Panicked)),
            Some("reopen")
        );
        for _ in 0..BREAKER_COOLDOWN {
            assert!(matches!(bank.gate(ProverId::Bapa), Gate::Skip));
        }
        assert!(matches!(bank.gate(ProverId::Bapa), Gate::Probe));
        assert!(matches!(bank.gate(ProverId::Bapa), Gate::Skip));

        // A well-behaved probe closes the breaker for everyone.
        assert_eq!(bank.observe(ProverId::Bapa, true, None), Some("close"));
        assert!(matches!(bank.gate(ProverId::Bapa), Gate::Pass));
    }

    #[test]
    fn escalating_retry_recovers_from_starved_first_pass() {
        let mut d = dispatcher();
        // BAPA's first attempt reports spurious fuel exhaustion; the
        // escalated retry (same obligation, leftover budget) succeeds.
        d.config.fault_plan = Some(Arc::new(FaultPlan::quiet().inject(
            ProverId::Bapa.site(),
            0..1,
            Fault::Starvation,
        )));
        d.config.bmc_bound = 0;
        d.config.fol_iterations = 10;
        let v = d.prove(&form("card (S Un T) <= card S + card T"));
        assert!(v.is_proved(), "{v:?}");
        assert_eq!(d.stats.get("retry.escalated"), 1);
        assert_eq!(d.stats.get("retry.recovered"), 1);
    }

    #[test]
    fn watchdog_demotes_lying_proved_to_disagreement() {
        let mut d = dispatcher();
        // BAPA lies "proved" about a refutable goal; the confirmation pass
        // (portfolio minus BAPA) finds the counter-model.
        d.config.fault_plan = Some(Arc::new(FaultPlan::quiet().inject(
            ProverId::Bapa.site(),
            0..u64::MAX,
            Fault::WrongVerdict(Lie::ClaimProved),
        )));
        d.config.cross_check = true;
        let v = d.prove(&form("x : S --> x : T"));
        match v {
            Verdict::Unknown(diag) => {
                assert_eq!(
                    diag.reason(ProverId::Bapa),
                    Some(FailureReason::Disagreement {
                        claimed: VerdictKind::Proved,
                        witness: VerdictKind::Refuted,
                    }),
                    "{diag}"
                );
            }
            other => panic!("expected demoted unknown, got {other:?}"),
        }
        assert!(d.stats.get("watchdog.disagreement") >= 1);
    }

    #[test]
    fn watchdog_rejects_fabricated_counter_models() {
        let mut d = dispatcher();
        // BAPA fabricates a refutation of a valid goal; the reference
        // evaluator exposes the bogus model.
        d.config.fault_plan = Some(Arc::new(FaultPlan::quiet().inject(
            ProverId::Bapa.site(),
            0..u64::MAX,
            Fault::WrongVerdict(Lie::ClaimRefuted),
        )));
        d.config.cross_check = true;
        let v = d.prove(&form("S Int T <= S"));
        match v {
            Verdict::Unknown(diag) => {
                assert!(
                    diag.attempts.iter().any(|(_, r)| matches!(
                        r,
                        FailureReason::Disagreement {
                            claimed: VerdictKind::Refuted,
                            ..
                        }
                    )),
                    "{diag}"
                );
            }
            other => panic!("expected demoted unknown, got {other:?}"),
        }
    }

    #[test]
    fn only_the_model_finder_may_refute_without_the_watchdog() {
        let mut d = dispatcher();
        // BAPA fabricates a refutation of a valid goal and nothing
        // re-checks it: the dispatcher itself must not take a
        // counter-model from a prover that cannot build one.
        d.config.fault_plan = Some(Arc::new(FaultPlan::quiet().inject(
            ProverId::Bapa.site(),
            0..u64::MAX,
            Fault::WrongVerdict(Lie::ClaimRefuted),
        )));
        assert!(!d.config.cross_check);
        let sink = Arc::new(obs::MemorySink::new());
        d.recorder = Recorder::streaming(sink.clone());
        let v = d.prove(&form("S Int T <= S"));
        assert!(v.is_proved(), "{v:?}");
        let bapa: Vec<String> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Attempt {
                    prover: "bapa",
                    outcome,
                    ..
                } => Some(outcome),
                _ => None,
            })
            .collect();
        assert_eq!(bapa, ["disagreement (claimed refuted, witness proved)"]);
    }

    #[test]
    fn watchdog_confirms_honest_verdicts() {
        let mut d = dispatcher();
        d.config.cross_check = true;
        // An honest Proved survives: BAPA proves it, and so does a second
        // independent prover (BMC validity at worst).
        assert!(d.prove(&form("S Int T <= S")).is_proved());
        // An honest refutation survives the evaluator re-check.
        assert!(matches!(
            d.prove(&form("x : S --> x : T")),
            Verdict::CounterModel(_)
        ));
        assert!(d.stats.get("watchdog.confirmed") >= 2);
        assert_eq!(d.stats.get("watchdog.disagreement"), 0);
    }

    #[test]
    fn exhausted_fuel_yields_diagnosed_unknown() {
        let mut d = dispatcher();
        d.config.obligation_fuel = 5;
        d.config.bmc_bound = 2;
        d.config.bmc_as_validity = false;
        // The hard goal from `unknown_for_hard_goals`: every prover would
        // churn on it, so the metered obligation fuel runs out mid-portfolio.
        let v = d.prove(&form(
            "ALL a b c. a ~= null & b ~= null & c ~= null --> a = b | b = c | a = c",
        ));
        match v {
            Verdict::Unknown(diag) => {
                assert!(
                    diag.attempts
                        .iter()
                        .any(|(_, r)| *r == FailureReason::FuelExhausted)
                        || diag.obligation_spent == Some(FailureReason::FuelExhausted),
                    "{diag}"
                );
            }
            other => panic!("expected diagnosed unknown, got {other:?}"),
        }
        // Graceful degradation: with the budget lifted the same dispatcher
        // still decides easy goals.
        d.config.obligation_fuel = jahob_util::budget::INFINITE_FUEL;
        assert!(d.prove(&form("i < j --> i + 1 <= j")).is_proved());
    }

    #[test]
    fn expired_deadline_skips_portfolio() {
        let mut d = dispatcher();
        d.config.obligation_timeout = Some(Duration::from_secs(0));
        let v = d.prove(&form("S Int T <= S"));
        match v {
            Verdict::Unknown(diag) => {
                assert_eq!(
                    diag.obligation_spent,
                    Some(FailureReason::Timeout),
                    "{diag}"
                );
            }
            other => panic!("expected diagnosed unknown, got {other:?}"),
        }
    }

    #[test]
    fn vardefs_unfold() {
        let mut defs = FxHashMap::default();
        defs.insert(Symbol::intern("mycontent"), form("{e. e : S | e : T}"));
        let d = Dispatcher::new(dispatcher().sig, defs);
        // Abstractly unprovable; after unfolding it is BAPA-valid.
        let v = d.prove(&form("x : S --> x : mycontent"));
        assert!(v.is_proved(), "{v:?}");
    }
}
