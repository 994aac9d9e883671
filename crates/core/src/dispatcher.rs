//! The prover portfolio and goal decomposition.
//!
//! Each proof obligation is elaborated (sort inference resolves the
//! overloaded operators and gives every fresh symbol its sort), simplified,
//! split into conjuncts (pushing the split under hypotheses and universal
//! quantifiers — §3's "simple goal decomposition technique"), and every
//! piece is offered to the portfolio in order of increasing generality and
//! cost. [`Dispatcher::prepare`] does this front matter; elaboration runs
//! there once per obligation, and the pieces inherit the obligation's
//! sorts. Each piece is the one goal the portfolio proves, under one
//! signature and one cache key: the VC generator has already unfolded
//! the abstraction functions (`vardefs`) of the class being verified.

use crate::goal_cache::{self, CachedProof, GoalCache, Lookup, NormalGoal};
use jahob_logic::transform::{simplify, split_conjuncts};
use jahob_logic::{Form, Sort, SortCx};
use jahob_models::BmcVerdict;
use jahob_smt::lift_ite;
use jahob_util::budget::{Budget, Exhaustion, Failure, INFINITE_FUEL};
use jahob_util::chaos::{self, Fault, FaultPlan, Lie};
use jahob_util::counters::Stats;
use jahob_util::obs::{self, Event, Recorder};
use jahob_util::{FxHashMap, Symbol};
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which component proved (or refuted) an obligation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProverId {
    /// Equivalence-preserving simplification reduced the goal to `True`.
    Simplifier,
    /// The HOL `auto` tactic (structural reasoning).
    Hol,
    /// Presburger arithmetic, decided by Cooper's procedure.
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
    /// Number of portfolio members.
    pub const COUNT: usize = 7;

    /// All portfolio members, in declaration order. That is not the
    /// dispatch walk's order (it runs bounded-models before
    /// fol-resolution), but it is fixed: a member's index here is the
    /// prover byte of a persisted proof and the seeded liar's pick.
    pub const ALL: [ProverId; ProverId::COUNT] = [
        ProverId::Simplifier,
        ProverId::Hol,
        ProverId::Lia,
        ProverId::Bapa,
        ProverId::Smt,
        ProverId::Fol,
        ProverId::Bmc,
    ];

    /// The prover at `index` in [`ProverId::ALL`], which is also its
    /// discriminant: the inverse of `prover as u8`, for decoding persisted
    /// cache records. `None` for out-of-range values (a corrupt or
    /// future-format payload), which callers treat as an unreplayable
    /// record.
    pub fn from_index(index: usize) -> Option<ProverId> {
        ProverId::ALL.get(index).copied()
    }

    /// The chaos site name for this prover's dispatcher attempt (see
    /// [`jahob_util::chaos`]). Static so polling a fault plan on the
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
/// Ordered least- to most-severe so [`Diagnosis`] keeps the most
/// informative reason per prover.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailureReason {
    /// The goal is outside the prover's fragment.
    Unsupported,
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
/// bare shrug: every attempt the budget admitted that ended without a
/// verdict is in it, with a reason.
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
    /// Record `reason` for `prover`, keeping the most severe reason the
    /// prover has met in this diagnosis.
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

    /// Structured JSON: the per-prover failure taxonomy plus the
    /// obligation-budget exhaustion marker, in attempt order.
    pub fn to_json(&self) -> String {
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
    /// Counter-model search bound (0 disables BMC entirely).
    pub bmc_bound: u32,
    /// Accept BMC exhaustion as (bounded) validity. When false the model
    /// finder is used for counterexamples only.
    pub bmc_as_validity: bool,
    /// Resolution-prover effort: given-clause iterations, by default
    /// `jahob_fol::ProverConfig`'s.
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
            // The slot of the removed `unfold` knob, which was always on:
            // keeping it keeps every fingerprint and store key.
            1,
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
            bmc_bound: 3,
            bmc_as_validity: true,
            fol_iterations: jahob_fol::ProverConfig::default().max_iterations,
            obligation_timeout: None,
            obligation_fuel: INFINITE_FUEL,
            fault_plan: None,
            cross_check: false,
            racing: false,
            slicing: false,
        }
    }
}

/// The dispatcher: signature + portfolio.
pub struct Dispatcher {
    pub sig: FxHashMap<Symbol, Sort>,
    pub config: DispatchConfig,
    pub stats: Stats,
    /// Structured observability (see [`jahob_util::obs`]): every cache
    /// consultation, prover attempt, chaos injection, and watchdog check
    /// is recorded here as a typed event. Disabled by default — the
    /// disabled check is one pointer test per site and event payloads are
    /// never built.
    pub recorder: Recorder,
    /// Run-wide normalized-goal cache, shared (via `Arc`) across the
    /// dispatchers of one verification run. `None` disables caching.
    pub cache: Option<Arc<GoalCache>>,
    /// The model finder's session: every piece this dispatcher searches
    /// (one method's, in the pipeline) grounds its hypotheses into it,
    /// once per universe, and shares them with the pieces after it.
    models: RefCell<jahob_models::Session>,
}

/// One piece of a split obligation, as the portfolio sees it.
#[derive(Clone, Debug)]
pub struct Piece {
    /// The piece in cache-canonical form (see [`goal_cache::normalize`]).
    pub goal: NormalGoal,
    /// The sorts the provers read, keyed by the names the piece uses.
    pub sig: FxHashMap<Symbol, Sort>,
    /// The goal-cache key: [`goal_cache::fingerprint`] of `goal`, `sig`
    /// and the dispatcher's `cache_digest()`. The piece's span in the
    /// event stream and its cache lookup both carry it.
    pub key: u128,
    /// Whether the piece is a proper part of its obligation. Only such a
    /// piece can still simplify to `True`: the obligation was simplified
    /// already, and simplifying its normalized form changes nothing.
    pub split: bool,
}

/// An obligation after the dispatcher's front matter: `ite`s lifted,
/// elaborated, simplified, split, normalized and keyed.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The elaborated, simplified obligation.
    pub simplified: Form,
    /// The signature elaboration resolved: the dispatcher's, plus a sort
    /// for every symbol the obligation introduces.
    pub sig: FxHashMap<Symbol, Sort>,
    /// The pieces, in dispatch order; none when `simplified` is `True`.
    pub pieces: Vec<Piece>,
}

impl Dispatcher {
    pub fn new(sig: FxHashMap<Symbol, Sort>) -> Self {
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
            config: DispatchConfig::default(),
            stats: Stats::new(),
            recorder,
            cache: None,
            models: RefCell::default(),
        }
    }

    /// Emit one observability event and apply the counter increments it
    /// implies ([`Event::stat_increments`]). The event is the single
    /// source of truth for those counters, so the stats table and the
    /// event stream cannot disagree. Counters are maintained even when
    /// the recorder is disabled — every call site here is off the
    /// no-observation fast path (a cache consultation, a finished prover
    /// attempt, a watchdog check), where building the event is noise
    /// against the work it describes.
    fn emit(&self, event: Event) {
        event.stat_increments(|name, delta| self.stats.add(name, delta));
        self.recorder.record_with(|| event);
    }

    /// The front matter every obligation goes through before the
    /// portfolio: lift `ite`s, elaborate, simplify, split (when
    /// `decompose` is on), and normalize each piece and give it its
    /// signature and cache key. The obligation is elaborated once, here,
    /// and its pieces inherit its sorts. `ite`s are lifted only here:
    /// nothing after this step puts one back in atom position.
    pub fn prepare(&self, goal: &Form) -> Prepared {
        let (elaborated, sig) = elaborate(&lift_ite(goal), &self.sig);
        let simplified = simplify(&elaborated);
        if simplified == Form::tt() {
            return Prepared {
                simplified,
                sig,
                pieces: Vec::new(),
            };
        }
        let split = if self.config.decompose {
            split_conjuncts(&simplified)
        } else {
            vec![simplified.clone()]
        };
        let whole = matches!(split.as_slice(), [only] if *only == simplified);
        let digest = self.config.cache_digest();
        let pieces = split
            .iter()
            .map(|piece| {
                // Canonicalize before dispatch: bound binders go
                // positional, fresh havoc/snapshot names (suffixed after
                // the method that made them) go first-occurrence. One goal
                // made in two methods is then one formula to the provers,
                // and one cache key, which falls out of the same pass.
                let goal = goal_cache::normalize(piece);
                // A piece is not re-inferred on its own: split away from
                // the conjunct that fixes its symbols' sorts, it would
                // default them to `obj`. It keeps the obligation's sorts,
                // under the names normalization gave the fresh symbols.
                let mut piece_sig = sig.clone();
                for (canon, orig) in &goal.frees {
                    if canon != orig {
                        if let Some(sort) = sig.get(orig) {
                            piece_sig.insert(*canon, sort.clone());
                        }
                    }
                }
                let key = goal_cache::fingerprint(&goal, &piece_sig, digest);
                Piece {
                    goal,
                    sig: piece_sig,
                    key,
                    split: !whole,
                }
            })
            .collect();
        Prepared {
            simplified,
            sig,
            pieces,
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
        // Seeded plans pre-designate their lying site from the seed: the
        // single-liar role must not go to whichever prover happens to roll
        // `WrongVerdict` first, or parallel runs diverge by arrival order.
        if let Some(plan) = self.config.fault_plan.as_deref().filter(|p| p.is_seeded()) {
            let pick =
                (chaos::splitmix64(plan.seed() ^ 0x11a2_0000_11a2) as usize) % ProverId::COUNT;
            let _ = plan.claim_liar(ProverId::ALL[pick].site());
        }
        let prepared = self.prepare(goal);
        if prepared.simplified == Form::tt() {
            self.stats.bump("proved.simplifier");
            return Verdict::Proved {
                prover: ProverId::Simplifier,
                bound: None,
            };
        }
        // Key the seeded chaos decisions for this dispatch on the
        // obligation's *content*, so replays and parallel schedules see
        // the same fault sequence per obligation regardless of the order
        // obligations reach the dispatch sites.
        let _scope = self.config.fault_plan.as_ref().map(|_| {
            let normal = goal_cache::normalize(&prepared.simplified);
            let fp = goal_cache::fingerprint(&normal, &prepared.sig, self.config.cache_digest());
            chaos::obligation_scope(goal_cache::obligation_key(fp))
        });
        self.stats.add("goal.pieces", prepared.pieces.len() as u64);
        let mut worst_bound: Option<u32> = None;
        let mut weakest: Option<ProverId> = None;
        for piece in &prepared.pieces {
            match self.prove_piece(piece, budget) {
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
    fn prove_piece(&self, piece: &Piece, budget: &Budget) -> Verdict {
        let start = Instant::now();
        // The key is content-determined, so the piece span is identifiable
        // in the stream even when the cache is off.
        self.recorder.record_with(|| Event::PieceStart {
            fingerprint: piece.key,
            size: piece.goal.form.size() as u64,
        });
        let verdict = self.prove_piece_routed(piece, budget);
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
    /// attached. The cache stands down under a *seeded* chaos plan:
    /// seeded fault decisions are keyed per obligation, so
    /// replaying one obligation's (possibly fault-riddled) outcome for
    /// another would leak faults across obligations in schedule-dependent
    /// ways.
    fn prove_piece_routed(&self, piece: &Piece, budget: &Budget) -> Verdict {
        let seeded_chaos = self
            .config
            .fault_plan
            .as_deref()
            .is_some_and(FaultPlan::is_seeded);
        let Some(cache) = self.cache.as_deref().filter(|_| !seeded_chaos) else {
            return self.prove_piece_checked(piece, budget);
        };
        let key = piece.key;
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
                    // The simplifier check of `prove_piece_checked` is
                    // not needed: a key whose piece simplifies to `True`
                    // only ever holds the simplifier's proof.
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

    /// Prove one piece through the portfolio, under the watchdog when it
    /// is on. A split piece that simplifies to `True` is the simplifier's
    /// proof instead.
    fn prove_piece_checked(&self, piece: &Piece, budget: &Budget) -> Verdict {
        if piece.split && simplify(&piece.goal.form) == Form::tt() {
            self.stats.bump("proved.simplifier");
            return Verdict::Proved {
                prover: ProverId::Simplifier,
                bound: None,
            };
        }
        let verdict = self.prove_piece_inner(piece, budget, None);
        if self.config.cross_check {
            self.cross_check(piece, verdict, budget)
        } else {
            verdict
        }
    }

    /// The soundness watchdog: a definitive verdict must survive an
    /// independent second opinion. `Proved` is re-proved by the portfolio
    /// minus the claiming prover; `Refuted` is re-checked against the
    /// reference model evaluator. Disagreement degrades the verdict to a
    /// diagnosed `Unknown` — never a silent wrong answer.
    fn cross_check(&self, piece: &Piece, verdict: Verdict, budget: &Budget) -> Verdict {
        match verdict {
            // The simplifier is the trusted equivalence-preserving core;
            // re-proving `True` would be circular anyway.
            Verdict::Proved { prover, bound } if prover != ProverId::Simplifier => {
                self.emit(Event::Watchdog { outcome: "checked" });
                match self.prove_piece_inner(piece, budget, Some(prover)) {
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
                // refutations: the model must falsify the piece. The model
                // finder's searches start at universe 1, so a model
                // claiming the degenerate empty universe is structurally
                // fabricated no matter what it evaluates to.
                self.emit(Event::Watchdog { outcome: "checked" });
                if m.universe > 0 && m.eval_bool(&piece.goal.form) == Ok(false) {
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

    /// Run one prover's attempt on the obligation's budget: skip it
    /// outright if it is the `exclude`d prover or the budget is already
    /// spent, apply any injected fault from the chaos plan, catch
    /// panics, translate budget exhaustion into the failure taxonomy, and
    /// record the fuel the attempt burned.
    fn guard(
        &self,
        prover: ProverId,
        budget: &Budget,
        diag: &mut Diagnosis,
        exclude: Option<ProverId>,
        body: impl FnOnce(&Budget, &mut Diagnosis) -> Result<Option<Verdict>, Exhaustion>,
    ) -> Option<Verdict> {
        // Watchdog confirmation: the claimer may not confirm itself.
        if exclude == Some(prover) {
            return None;
        }
        // Read before the skip check, so the unit that check draws is
        // recorded as this attempt's.
        let fuel_before = budget.fuel_remaining();
        // Obligation budget already spent: remaining provers are skipped,
        // not blamed — they were never tried.
        if budget.check().is_err() || budget.poll_deadline().is_err() {
            return None;
        }
        // Chaos: decide this attempt's fate from the plan. This is the
        // one place a prover fault is decided and applied.
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
                    // A prover that spins: burn the whole budget, no
                    // progress.
                    let r = budget.fuel_remaining();
                    if r != INFINITE_FUEL {
                        let _ = budget.charge(r);
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
            body(budget, diag)
        }));
        // Unmetered fuel never moves, so an unmetered attempt records 0.
        let fuel = fuel_before - budget.fuel_remaining();
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
            pass: if exclude.is_some() {
                "confirm"
            } else {
                "first"
            },
            outcome: outcome_name,
            fuel,
            micros: started.elapsed().as_micros() as u64,
        });
        verdict
    }

    /// One pass over the portfolio. The watchdog's confirmation pass
    /// `exclude`s the prover whose `Proved` it is checking.
    fn prove_piece_inner(
        &self,
        piece: &Piece,
        budget: &Budget,
        exclude: Option<ProverId>,
    ) -> Verdict {
        let mut diag = Diagnosis::default();
        // Cheap, fragment-specific provers first.
        for prover in [ProverId::Hol, ProverId::Lia, ProverId::Bapa, ProverId::Smt] {
            let decided = self.guard(prover, budget, &mut diag, exclude, |budget, diag| {
                portfolio_attempt(
                    prover,
                    piece,
                    self.config.fol_iterations,
                    budget,
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
            match self.guard(ProverId::Bmc, budget, &mut diag, exclude, |budget, diag| {
                self.bounded_search(piece, budget, diag)
            }) {
                Some(proof @ Verdict::Proved { .. }) => bounded = Some(proof),
                Some(refuted) => return refuted,
                None => {}
            }
        }
        let fol = self.guard(ProverId::Fol, budget, &mut diag, exclude, |budget, diag| {
            portfolio_attempt(
                ProverId::Fol,
                piece,
                self.config.fol_iterations,
                budget,
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

    /// The model finder's one pass over a piece: a search over universes
    /// `1..=bmc_bound`, where a counter-model refutes and exhausting the
    /// bound is a bounded proof when `bmc_as_validity` is on. A piece
    /// outside the boundable fragment is weakened into it and searched
    /// once more; that search can prove, but its counter-models may rest
    /// on what the weakening forgot, so they refute nothing. Both searches
    /// go through the dispatcher's session.
    fn bounded_search(
        &self,
        piece: &Piece,
        budget: &Budget,
        diag: &mut Diagnosis,
    ) -> Result<Option<Verdict>, Exhaustion> {
        let models = &mut *self.models.borrow_mut();
        let (goal, sig) = (&piece.goal.form, &piece.sig);
        let bound = self.config.bmc_bound;
        let proof = Verdict::Proved {
            prover: ProverId::Bmc,
            bound: Some(bound),
        };
        self.stats.bump("tried.bmc");
        match models.bmc_valid(goal, sig, bound, budget) {
            Ok(BmcVerdict::CounterModel(model)) => {
                self.stats.bump("refuted.bmc");
                return Ok(Some(Verdict::CounterModel(model)));
            }
            Ok(BmcVerdict::ValidUpTo(_)) if self.config.bmc_as_validity => return Ok(Some(proof)),
            Ok(BmcVerdict::ValidUpTo(_)) => {
                diag.record(ProverId::Bmc, FailureReason::GaveUp);
                return Ok(None);
            }
            Err(Failure::Unsupported(_)) => diag.record(ProverId::Bmc, FailureReason::Unsupported),
            Err(Failure::Exhausted(why)) => return Err(why),
        }
        // Outside the fragment: weaken into it, unless bounded proofs are
        // off.
        if !self.config.bmc_as_validity {
            return Ok(None);
        }
        let Some((candidate, cand_sig)) = self.weakened_for_bmc(models, goal, sig) else {
            return Ok(None);
        };
        match models.bmc_valid(&candidate, &cand_sig, bound, budget) {
            Ok(BmcVerdict::ValidUpTo(_)) => Ok(Some(proof)),
            Ok(BmcVerdict::CounterModel(_)) => {
                diag.record(ProverId::Bmc, FailureReason::GaveUp);
                Ok(None)
            }
            Err(Failure::Unsupported(_)) => Ok(None),
            Err(Failure::Exhausted(why)) => Err(why),
        }
    }

    /// Weaken a goal outside the boundable fragment toward it: opaque
    /// set-valued applications (`List.content a`) become fresh set
    /// variables, so client-level goals ground, and hypotheses that still
    /// do not ground are dropped, each with a `bmc drops hyp` note. Both
    /// steps are sound for validity. `None` when neither changed anything.
    /// A hypothesis is tried in `models`' universe-1 grounder, which keeps
    /// the ones that ground for the search of the weakened goal.
    fn weakened_for_bmc(
        &self,
        models: &mut jahob_models::Session,
        goal: &Form,
        sig: &FxHashMap<Symbol, Sort>,
    ) -> Option<(Form, FxHashMap<Symbol, Sort>)> {
        let (abstracted, abs_sig, was_abstracted) = abstract_set_apps(goal, sig);
        let filtered = filtered(&abstracted, &mut |h| {
            let ok = models.grounds(h, &abs_sig);
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

/// Elaborate a goal against a signature (resolving `<=`/`-`/`=`
/// overloads) and return the *goal-specific* signature: verification
/// conditions contain fresh havoc/snapshot symbols whose sorts only
/// inference can recover. Falls back to the raw goal and the given
/// signature when inference fails.
fn elaborate(goal: &Form, sig: &FxHashMap<Symbol, Sort>) -> (Form, FxHashMap<Symbol, Sort>) {
    let mut cx = SortCx::new();
    for (name, sort) in sig {
        cx.declare(*name, sort.clone());
    }
    match cx.check_bool(goal) {
        Ok(elaborated) => (elaborated, cx.resolved_sig()),
        Err(_) => (goal.clone(), sig.clone()),
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
    seq.hyps.retain(|h| keep(h));
    if seq.hyps.len() == total {
        return None;
    }
    Some(seq.to_form())
}

/// A prover that tries a piece and then, unless that proved it, the piece
/// without the hypotheses outside its fragment: its counters, the fragment
/// test a hypothesis must pass to stay, and its entry point.
struct Narrowing {
    prover: ProverId,
    tried: &'static str,
    proved: &'static str,
    reads: fn(&Form, &FxHashMap<Symbol, Sort>) -> bool,
    decide: Decide,
}

/// A prover's entry point: the validity of a goal under its signature.
type Decide = fn(&Form, &FxHashMap<Symbol, Sort>, &Budget) -> Result<bool, Failure>;

/// Presburger, BAPA and Nelson–Oppen, in dispatch order.
const NARROWING: [Narrowing; 3] = [
    Narrowing {
        prover: ProverId::Lia,
        tried: "tried.presburger",
        proved: "proved.presburger",
        reads: |h, _| jahob_presburger::form_to_pform(h).is_ok(),
        decide: |g, _, budget| jahob_presburger::translate::decide_valid(g, budget),
    },
    Narrowing {
        prover: ProverId::Bapa,
        tried: "tried.bapa",
        proved: "proved.bapa",
        reads: |h, sig| jahob_bapa::base_set_count(h, sig).is_ok(),
        decide: jahob_bapa::bapa_valid,
    },
    Narrowing {
        prover: ProverId::Smt,
        tried: "tried.smt",
        proved: "proved.smt",
        reads: jahob_smt::in_fragment,
        decide: jahob_smt::smt_valid,
    },
];

/// One prover's attempt at a piece — the body `guard` runs for hol-auto,
/// Presburger, BAPA, Nelson–Oppen and FOL (the model finder's is
/// [`Dispatcher::bounded_search`]). It stops only through `budget`.
fn portfolio_attempt(
    prover: ProverId,
    piece: &Piece,
    fol_iterations: usize,
    budget: &Budget,
    diag: &mut Diagnosis,
    stats: &Stats,
) -> Result<Option<Verdict>, Exhaustion> {
    let (goal, sig) = (&piece.goal.form, &piece.sig);
    // Whether one decision proved the goal. One that did not is recorded
    // against the prover; exhaustion ends the attempt.
    let mut proves = |decided: Result<bool, Failure>| {
        let reason = match decided {
            Ok(true) => return Ok(true),
            Ok(false) => FailureReason::GaveUp,
            Err(Failure::Unsupported(_)) => FailureReason::Unsupported,
            Err(Failure::Exhausted(why)) => return Err(why),
        };
        diag.record(prover, reason);
        Ok(false)
    };
    let proved = match prover {
        ProverId::Hol => proves(jahob_hol::auto_proves(goal, budget).map_err(Failure::from))?
            .then_some("proved.hol"),
        ProverId::Fol => {
            stats.bump("tried.fol");
            let config = jahob_fol::ProverConfig {
                max_iterations: fol_iterations,
                ..Default::default()
            };
            proves(jahob_fol::fol_valid(goal, sig, &config, budget))?.then_some("proved.fol")
        }
        // The Nelson–Oppen core is for compact ground goals; on big VC
        // chains the lazy loop + arrangement enumeration dominates.
        ProverId::Smt if goal.size() > 150 => {
            diag.record(prover, FailureReason::Unsupported);
            None
        }
        _ => {
            let Some(n) = NARROWING.iter().find(|n| n.prover == prover) else {
                return Ok(None);
            };
            stats.bump(n.tried);
            let narrowed = filtered(goal, &mut |h| (n.reads)(h, sig));
            let mut proved = None;
            for g in std::iter::once(goal).chain(&narrowed) {
                if proves((n.decide)(g, sig, budget))? {
                    proved = Some(n.proved);
                    break;
                }
            }
            proved
        }
    };
    Ok(proved.map(|counter| {
        stats.bump(counter);
        Verdict::Proved {
            prover,
            bound: None,
        }
    }))
}

/// Replace every set-valued application (head symbol of sort
/// `_ => objset`) by a fresh set variable, consistently per distinct term,
/// and add the congruence facts the replacement would otherwise lose:
/// for same-head applications `f t₁ → S₁`, `f t₂ → S₂`, the (valid)
/// hypothesis `t₁ = t₂ → S₁ = S₂`. Sound for validity: the abstraction
/// forgets constraints and the added hypotheses are true in every model.
/// Applications are named `$setapp0`, `$setapp1`, … in first-occurrence
/// order, and the hypotheses come in that order too, so the weakened goal
/// does not depend on how symbols happen to hash.
fn abstract_set_apps(
    goal: &Form,
    sig: &FxHashMap<Symbol, Sort>,
) -> (Form, FxHashMap<Symbol, Sort>, bool) {
    struct Cx<'a> {
        sig: &'a FxHashMap<Symbol, Sort>,
        out_sig: FxHashMap<Symbol, Sort>,
        /// Each distinct set-valued application with its name, in
        /// first-occurrence order.
        apps: Vec<(Form, Symbol)>,
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
        fn walk(&mut self, form: &Form) -> Option<Form> {
            if !self.is_set_app(form) {
                return form.map_children(|child| self.walk(child));
            }
            let name = match self.apps.iter().find(|(app, _)| app == form) {
                Some((_, name)) => *name,
                None => {
                    let name = Symbol::intern(&format!("$setapp{}", self.apps.len()));
                    self.apps.push((form.clone(), name));
                    name
                }
            };
            self.out_sig.insert(name, Sort::objset());
            Some(Form::Var(name))
        }
        fn walked(&mut self, form: &Form) -> Form {
            self.walk(form).unwrap_or_else(|| form.clone())
        }
    }
    let mut cx = Cx {
        sig,
        out_sig: sig.clone(),
        apps: Vec::new(),
    };
    let walked = cx.walked(goal);
    if cx.apps.is_empty() {
        return (walked, cx.out_sig, false);
    }
    // Congruence hypotheses per head symbol, over the applications the goal
    // names: one nested in an argument, named while the arguments are
    // walked below, gets none.
    let apps = cx.apps.clone();
    let mut hyps: Vec<Form> = Vec::new();
    for (i, (t1, s1)) in apps.iter().enumerate() {
        for (t2, s2) in &apps[i + 1..] {
            let (Form::App(h1, a1), Form::App(h2, a2)) = (t1, t2) else {
                continue;
            };
            if h1 != h2 || a1.len() != a2.len() {
                continue;
            }
            let args_eq = Form::and(
                a1.iter()
                    .zip(a2.iter())
                    .map(|(x, y)| Form::eq(cx.walked(x), cx.walked(y)))
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
        Dispatcher::new(sig)
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
    fn a_bound_on_the_objects_never_bounds_the_integers() {
        // FOL erases sorts, so it must refuse a problem over two of them:
        // `null` plus one object and the integers 0, 1, 2 refute both.
        let mut d = dispatcher();
        d.sig.insert(Symbol::intern("k"), Sort::Int);
        for goal in [
            "(ALL x::obj y::obj z::obj. x = y | y = z | x = z) \
             --> (ALL i::int j::int k::int. i = j | j = k | i = k)",
            "(ALL x::obj y::obj z::obj. x = y | y = z | x = z) --> i = j | j = k | i = k",
        ] {
            let v = d.prove(&form(goal));
            assert!(!v.is_proved(), "{goal}: {v:?}");
        }
    }

    #[test]
    fn fragment_provers_retry_without_foreign_hypotheses() {
        // Each goal follows only from its conclusion's fragment, and one
        // hypothesis outside that fragment keeps the whole piece out: its
        // prover proves it on the retry without that hypothesis, before
        // any later prover is tried.
        let d = dispatcher();
        for (goal, prover) in [
            ("x : S --> i < j --> i + 1 <= j", ProverId::Lia),
            ("next x = y --> S Int T <= S", ProverId::Bapa),
            ("x : S --> x = y --> next x = next y", ProverId::Smt),
        ] {
            assert_eq!(proved_by(&d, goal), Some(prover), "{goal}");
        }
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
        // The model finder ran out its bound without a counter-model: with
        // bounded proofs off, that decides nothing, and says so.
        let Verdict::Unknown(diag) = v else {
            unreachable!()
        };
        assert!(
            diag.to_string().contains("bounded-models: gave-up"),
            "{diag}"
        );
    }

    #[test]
    fn oversized_pieces_are_outside_nelson_oppen() {
        // `S0 <= S1 --> ... --> S40 <= S0`: 163 nodes, past Nelson–Oppen's
        // 150-node gate, and invalid, so nothing proves it.
        let mut d = dispatcher();
        d.config.bmc_bound = 0;
        d.config.fol_iterations = 50;
        for k in 0..=40 {
            d.sig
                .insert(Symbol::intern(&format!("S{k}")), Sort::objset());
        }
        let goal = (0..40).rev().fold(form("S40 <= S0"), |acc, k| {
            Form::implies(form(&format!("S{k} <= S{}", k + 1)), acc)
        });
        let prepared = d.prepare(&goal);
        assert!(prepared.pieces.iter().all(|p| p.goal.form.size() > 150));
        match d.prove(&goal) {
            Verdict::Unknown(diag) => assert!(
                diag.to_string().contains("nelson-oppen: unsupported"),
                "{diag}"
            ),
            other => panic!("expected a diagnosed unknown, got {other:?}"),
        }
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
    fn injected_exhaustion_ends_the_attempt_at_its_dispatch_site() {
        // Each fault fires once at `dispatch.hol-auto`, the first prover
        // of the walk, under a metered budget; BAPA proves the goal when
        // the walk reaches it.
        const FUEL: u64 = 1_000_000;
        let run = |fault: Fault| {
            let mut d = dispatcher();
            d.config.obligation_fuel = FUEL;
            d.config.fault_plan = Some(Arc::new(FaultPlan::quiet().inject(
                ProverId::Hol.site(),
                0..1,
                fault,
            )));
            let sink = Arc::new(obs::MemorySink::new());
            d.recorder = Recorder::streaming(sink.clone());
            let verdict = d.prove(&form("S Int T <= S"));
            let attempts: Vec<(&str, String, u64)> = sink
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    Event::Attempt {
                        prover,
                        outcome,
                        fuel,
                        ..
                    } => Some((prover, outcome, fuel)),
                    _ => None,
                })
                .collect();
            (verdict, attempts)
        };
        // A spurious timeout or fuel exhaustion burns only the unit the
        // guard's admission check draws, and blames only hol-auto: the
        // later provers still run.
        for (fault, outcome) in [
            (Fault::Timeout, "timeout"),
            (Fault::Starvation, "fuel-exhausted"),
        ] {
            let (verdict, attempts) = run(fault);
            assert!(
                matches!(
                    verdict,
                    Verdict::Proved {
                        prover: ProverId::Bapa,
                        ..
                    }
                ),
                "{fault}: {verdict:?}"
            );
            assert_eq!(attempts[0], ("hol-auto", outcome.to_owned(), 1), "{fault}");
            let last = attempts.last().map(|(p, o, _)| (*p, o.as_str()));
            assert_eq!(last, Some(("bapa", "proved")), "{fault}: {attempts:?}");
        }
        // A slow burn drains the obligation's fuel, and the attempt records
        // all of it, the admission unit included: every later prover is
        // skipped, not blamed, and the obligation is spent.
        let (verdict, attempts) = run(Fault::SlowBurn);
        match verdict {
            Verdict::Unknown(diag) => {
                assert_eq!(
                    diag.attempts,
                    [(ProverId::Hol, FailureReason::FuelExhausted)],
                    "{diag}"
                );
                assert_eq!(
                    diag.obligation_spent,
                    Some(FailureReason::FuelExhausted),
                    "{diag}"
                );
            }
            other => panic!("expected a spent obligation, got {other:?}"),
        }
        assert_eq!(attempts, [("hol-auto", "fuel-exhausted".to_owned(), FUEL)]);
    }

    #[test]
    fn record_keeps_the_most_severe_reason_per_prover() {
        // One attempt can record several reasons for its prover: the
        // Presburger arm records `GaveUp` on the piece and `Unsupported`
        // on its narrowed form, and `guard` and the watchdog record on top
        // of whatever the body recorded. In either order the diagnosis
        // keeps the most severe reason, at the prover's first position.
        let reasons = [
            FailureReason::Unsupported,
            FailureReason::GaveUp,
            FailureReason::FuelExhausted,
            FailureReason::Timeout,
            FailureReason::Panicked,
            FailureReason::Unconfirmed,
            FailureReason::Disagreement {
                claimed: VerdictKind::Proved,
                witness: VerdictKind::Refuted,
            },
        ];
        for a in reasons {
            for b in reasons {
                let mut diag = Diagnosis::default();
                diag.record(ProverId::Lia, a);
                diag.record(ProverId::Bapa, FailureReason::GaveUp);
                diag.record(ProverId::Lia, b);
                assert_eq!(
                    diag.attempts,
                    [
                        (ProverId::Lia, a.max(b)),
                        (ProverId::Bapa, FailureReason::GaveUp)
                    ],
                    "{a} then {b}"
                );
                assert_eq!(diag.reason(ProverId::Lia), Some(a.max(b)));
            }
        }
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
    fn pieces_keep_the_sorts_their_obligation_fixes() {
        // `u + w = w + u` makes all five symbols `int`; the first conjunct
        // alone says nothing about their sorts. Re-inferred on its own, it
        // defaulted them to `obj`, and over three objects five pairwise
        // distinct ones cannot exist, so the piece came back bounded-valid
        // and the obligation `Proved`. Over the `int`s it is invalid.
        let d = Dispatcher::new(FxHashMap::default());
        let goal = form(
            "(u ~= w & u ~= v & u ~= x & u ~= y & w ~= v & w ~= x & w ~= y & v ~= x & v ~= y \
             & x ~= y --> False) & u + w = w + u",
        );
        let prepared = d.prepare(&goal);
        assert_eq!(prepared.pieces.len(), 2);
        for piece in &prepared.pieces {
            for name in ["u", "w", "v", "x", "y"] {
                assert_eq!(piece.sig.get(&Symbol::intern(name)), Some(&Sort::Int));
            }
        }
        let v = d.prove(&goal);
        assert!(!v.is_proved(), "{v:?}");
    }

    #[test]
    fn congruence_hypotheses_come_in_first_occurrence_order() {
        // Three applications of one set-valued head, met in several name
        // orders: the names and the hypotheses follow the order the goal
        // meets them in, however its symbols hash.
        let mut sig = FxHashMap::default();
        sig.insert(Symbol::intern("content"), Sort::field(Sort::objset()));
        for [a, b, c] in [
            ["a", "b", "c"],
            ["c", "b", "a"],
            ["b", "c", "a"],
            ["p", "q", "r"],
        ] {
            let goal = form(&format!(
                "x : content {a} --> x : content {b} --> x : content {c}"
            ));
            let (abstracted, abs_sig, changed) = abstract_set_apps(&goal, &sig);
            assert!(changed);
            assert_eq!(
                abstracted.to_string(),
                format!(
                    "({a} = {b} --> $setapp0 = $setapp1) --> \
                     ({a} = {c} --> $setapp0 = $setapp2) --> \
                     ({b} = {c} --> $setapp1 = $setapp2) --> \
                     x : $setapp0 --> x : $setapp1 --> x : $setapp2"
                )
            );
            assert_eq!(abs_sig[&Symbol::intern("$setapp2")], Sort::objset());
        }
    }

    #[test]
    fn default_cache_digest_is_pinned() {
        // Every goal-cache key folds this in, and so does every persistent
        // store's manifest: a change re-proves every cached goal.
        assert_eq!(
            DispatchConfig::default().cache_digest(),
            13_111_806_235_464_306_961
        );
    }

    #[test]
    fn split_pieces_can_still_simplify_to_true() {
        // The obligation does not simplify to `True`, but its split piece
        // `b --> b` does: split pieces keep their simplifier check.
        let d = dispatcher();
        let v = d.prove(&form("b --> b & (b | c)"));
        assert!(v.is_proved(), "{v:?}");
        assert_eq!(d.stats.get("goal.pieces"), 2);
        assert_eq!(d.stats.get("proved.simplifier"), 1);
    }
}
