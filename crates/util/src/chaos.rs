//! Deterministic fault injection for the prover portfolio.
//!
//! The dispatcher's whole value proposition is that one misbehaving
//! reasoner never corrupts or aborts a verification run. That property is
//! only worth anything if it can be *tested under adversarial conditions*,
//! so this module provides a seeded, fully reproducible fault injector: a
//! [`FaultPlan`] derived from a single `u64` seed (no wall clock, no
//! ambient RNG) decides, at every registered prover boundary, whether that
//! invocation misbehaves and how.
//!
//! Two layers consult a plan:
//!
//! * **Prover entry crates** register their public budgeted entry point as
//!   a chaos boundary by calling [`boundary`] first thing. When no plan is
//!   armed on the current thread this is a single thread-local counter
//!   load — the fast path the governance benches pin at "no measurable
//!   overhead". When a plan is armed, the boundary may panic, report a
//!   spurious exhaustion, or burn the caller's fuel without progress.
//! * **The dispatcher** polls its own per-prover sites directly (it holds
//!   the plan in its config) and additionally applies the two faults only
//!   it can express: *wrong verdict* (a prover lies `Proved`/`Refuted`)
//!   and fabricated failures in its taxonomy.
//!
//! Determinism: every seeded decision is a pure function of `(seed, site
//! name, obligation key, per-obligation invocation index)` via splitmix64
//! whenever an [`obligation_scope`] is active on the current thread — the
//! dispatcher opens one per obligation, keyed on the obligation's
//! content-derived fingerprint. Scoped keying is what keeps chaos runs
//! bit-for-bit reproducible when obligations are dispatched *in parallel*:
//! the faults an obligation sees depend on what the obligation *is*, never
//! on the order in which worker threads happened to reach the boundary.
//! Outside any scope, decisions fall back to `(seed, site, global per-site
//! invocation index)`, which is reproducible for single-threaded use.
//!
//! Targeted [`FaultPlan::inject`] rules always match against the global
//! per-site invocation counter (tests that drive a dispatcher sequentially
//! rely on ranges like `0..3` spanning successive obligations). Parallel
//! tests should use ranges that are insensitive to arrival order, such as
//! `0..u64::MAX`.
//!
//! The *single-liar rule*: a plan lets at most one site emit wrong-verdict
//! faults (the first site the seeded distribution selects claims the liar
//! role; targeted rules name their liar explicitly). Cross-prover
//! soundness watchdogs — like cross-validating encodings against an
//! independent prover — assume independent failures; a portfolio where
//! *every* member lies has no trusted majority left to appeal to.

use crate::budget::{Budget, Exhaustion};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Which way a lying prover lies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lie {
    /// The prover claims the goal is proved.
    ClaimProved,
    /// The prover claims a (fabricated) refutation.
    ClaimRefuted,
}

/// On-disk failure modes for the persistent store's IO boundary (see
/// [`crate::store`]). Each models one way real storage betrays a cache:
/// a crash mid-append, silent media corruption, a filesystem that stops
/// cooperating, or a lock file orphaned by a dead process. The store's
/// recovery ladder must degrade every one of them to a cold (or partial)
/// cache — never to a wrong verdict, a panic, or an unopenable directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiskFault {
    /// An append writes only a prefix of the record batch before the
    /// "crash": the segment lands on disk with a torn tail.
    TornWrite,
    /// One bit of the encoded batch flips after checksumming — silent
    /// media corruption that only the per-record CRC can catch.
    BitFlip,
    /// A segment read returns fewer bytes than the file holds (the tail
    /// vanishes mid-read).
    ShortRead,
    /// The write fails with ENOSPC-style storage exhaustion.
    NoSpace,
    /// The temp file writes fine but the atomic rename fails, stranding
    /// a `*.tmp` orphan.
    RenameFail,
    /// A lock file from a dead process blocks the directory until the
    /// stale-lock takeover path reclaims it.
    StaleLock,
}

impl std::fmt::Display for DiskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DiskFault::TornWrite => "torn-write",
            DiskFault::BitFlip => "bit-flip",
            DiskFault::ShortRead => "short-read",
            DiskFault::NoSpace => "no-space",
            DiskFault::RenameFail => "rename-fail",
            DiskFault::StaleLock => "stale-lock",
        })
    }
}

/// Failure modes for the verification service's socket boundary (see
/// `jahob-core::service`). Each models one way a client betrays the
/// daemon: a frame torn mid-write, a connection that goes silent, a
/// client that vanishes mid-request, or one that drains its replies at a
/// crawl. The daemon must degrade every one of them to a dropped
/// *connection* — never to a dropped accepted request, a wedged queue,
/// or a changed verdict for any other client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SocketFault {
    /// A frame arrives (or departs) with a corrupted body: the CRC layer
    /// rejects it and the connection is abandoned.
    TornFrame,
    /// The peer stops sending mid-conversation; only a read timeout ends
    /// the wait.
    HungClient,
    /// The peer disconnects abruptly mid-request.
    Disconnect,
    /// The peer drains replies slowly; writes stall but complete.
    SlowReader,
}

impl std::fmt::Display for SocketFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SocketFault::TornFrame => "torn-frame",
            SocketFault::HungClient => "hung-client",
            SocketFault::Disconnect => "disconnect",
            SocketFault::SlowReader => "slow-reader",
        })
    }
}

/// The injectable failure modes. The first four exercise the existing
/// failure taxonomy; `WrongVerdict` is adversarial and only detectable by
/// cross-checking verdicts; `Disk` faults only apply at the persistent
/// store's IO boundary (prover boundaries and the dispatcher ignore
/// them, exactly as the store ignores prover faults).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The boundary panics (exercises `catch_unwind` isolation).
    Panic,
    /// The boundary reports a wall-clock timeout that never happened.
    Timeout,
    /// The boundary reports fuel exhaustion without burning any fuel.
    Starvation,
    /// The boundary burns all the fuel it was given, makes no progress,
    /// and then reports honest exhaustion — a prover that spins.
    SlowBurn,
    /// The boundary fabricates a verdict. Only the dispatcher can apply
    /// this (entry-crate boundaries ignore it); subject to the
    /// single-liar rule.
    WrongVerdict(Lie),
    /// A disk fault at the persistent store's IO boundary. Only the
    /// store applies these (see [`FaultPlan::decide_disk`]).
    Disk(DiskFault),
    /// A client-connection fault at a `service.*` boundary. Only the
    /// verification daemon applies these (see
    /// [`FaultPlan::decide_socket`]).
    Socket(SocketFault),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Panic => write!(f, "panic"),
            Fault::Timeout => write!(f, "timeout"),
            Fault::Starvation => write!(f, "starvation"),
            Fault::SlowBurn => write!(f, "slow-burn"),
            Fault::WrongVerdict(Lie::ClaimProved) => write!(f, "wrong-verdict-proved"),
            Fault::WrongVerdict(Lie::ClaimRefuted) => write!(f, "wrong-verdict-refuted"),
            Fault::Disk(d) => write!(f, "disk-{d}"),
            Fault::Socket(s) => write!(f, "socket-{s}"),
        }
    }
}

/// A targeted injection rule: fault `fault` fires at site `site` for the
/// invocation indices in `range` (indices count `decide` calls per site,
/// starting at 0).
#[derive(Clone, Debug)]
struct Rule {
    site: String,
    range: Range<u64>,
    fault: Fault,
}

/// The outcome of the shared decision core: a targeted rule matched
/// verbatim, or the seeded distribution fired and the caller maps the raw
/// kind onto its own fault domain (prover faults vs disk faults).
enum RawDecision {
    Rule(Fault),
    Seeded(u64),
}

/// A deterministic fault-injection plan.
///
/// Construct with [`FaultPlan::from_seed`] for seeded chaos (every
/// boundary misbehaves with probability ≈ 1/4, fault kind drawn from the
/// seed) or [`FaultPlan::quiet`] + [`FaultPlan::inject`] for surgical,
/// test-oriented injection at named sites.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Numerator over 256 of the per-invocation injection probability for
    /// the seeded distribution (0 = targeted rules only).
    rate: u16,
    rules: Vec<Rule>,
    /// Per-site invocation counters (site → number of `decide` calls).
    counters: Mutex<HashMap<String, u64>>,
    /// The single site allowed to emit wrong verdicts, claimed by the
    /// first site the seeded distribution selects for lying. Targeted
    /// rules claim the role at plan-construction time.
    liar: Mutex<Option<String>>,
}

/// splitmix64: tiny, high-quality, deterministic mixer (public domain,
/// Steele et al.). All chaos decisions flow through this.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a over the site name: stable across runs and platforms (the
    // sibling FxHasher is stable too, but spelling the fold out keeps the
    // chaos layer's determinism self-evident).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// A seeded chaos plan: every boundary invocation misbehaves with
    /// probability ≈ 1/4, the fault kind drawn deterministically from
    /// `(seed, site, invocation)`.
    pub fn from_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: 64,
            ..FaultPlan::default()
        }
    }

    /// A plan with no seeded faults; add targeted [`FaultPlan::inject`]
    /// rules to it. Replaces the old `DispatchConfig::inject_panic` hook.
    pub fn quiet() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: fault `fault` fires at `site` for invocation indices in
    /// `range`. A `WrongVerdict` rule claims the liar role for `site`;
    /// adding wrong-verdict rules for two different sites panics (the
    /// single-liar rule is a construction-time invariant for targeted
    /// plans).
    pub fn inject(self, site: &str, range: Range<u64>, fault: Fault) -> FaultPlan {
        if matches!(fault, Fault::WrongVerdict(_)) {
            let mut liar = lock(&self.liar);
            match liar.as_deref() {
                None => *liar = Some(site.to_owned()),
                Some(existing) if existing == site => {}
                Some(existing) => {
                    panic!("single-liar rule: {existing} already lies; cannot also make {site} lie")
                }
            }
            drop(liar);
        }
        let mut plan = self;
        plan.rules.push(Rule {
            site: site.to_owned(),
            range,
            fault,
        });
        plan
    }

    /// Plan from the `JAHOB_CHAOS_SEED` environment variable, if set to a
    /// parseable `u64`.
    pub fn from_env() -> Option<FaultPlan> {
        let raw = std::env::var("JAHOB_CHAOS_SEED").ok()?;
        raw.trim().parse::<u64>().ok().map(FaultPlan::from_seed)
    }

    /// The seed this plan replays.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Does this plan inject seeded (probabilistic) faults, as opposed to
    /// only targeted rules? Seeded decisions are keyed per obligation, so
    /// layers that share results *across* obligations (the goal cache)
    /// stand down while a seeded plan is armed.
    pub fn is_seeded(&self) -> bool {
        self.rate > 0
    }

    /// The shared decision core: bump the per-site counter, check targeted
    /// rules (which always match on the global counter), then roll the
    /// seeded distribution. Returns either the matched rule's fault or the
    /// raw seeded kind for the caller to map onto its fault domain.
    fn raw_decide(&self, site: &str) -> Option<RawDecision> {
        let index = {
            let mut counters = lock(&self.counters);
            let c = counters.entry(site.to_owned()).or_insert(0);
            let index = *c;
            *c += 1;
            index
        };
        for rule in &self.rules {
            if rule.site == site && rule.range.contains(&index) {
                return Some(RawDecision::Rule(rule.fault));
            }
        }
        if self.rate == 0 {
            return None;
        }
        let roll = match scoped_index(site) {
            Some((key, local)) => splitmix64(
                splitmix64(self.seed ^ site_hash(site)) ^ splitmix64(key) ^ local.rotate_left(32),
            ),
            None => splitmix64(self.seed ^ site_hash(site) ^ splitmix64(index)),
        };
        if (roll & 0xff) as u16 >= self.rate {
            return None;
        }
        Some(RawDecision::Seeded(splitmix64(roll)))
    }

    /// Decide the fate of the next invocation of `site`. Targeted rules
    /// match the global per-site invocation counter (which always
    /// advances); the seeded distribution is keyed on `(seed, site,
    /// obligation key, per-obligation index)` when an [`obligation_scope`]
    /// is active on this thread, and on the global counter otherwise.
    ///
    /// Seeded kinds at prover boundaries never include disk faults —
    /// those are drawn only by [`FaultPlan::decide_disk`] at store sites.
    pub fn decide(&self, site: &str) -> Option<Fault> {
        match self.raw_decide(site)? {
            RawDecision::Rule(fault) => Some(fault),
            RawDecision::Seeded(kind) => Some(match kind % 6 {
                0 => Fault::Panic,
                1 => Fault::Timeout,
                2 => Fault::Starvation,
                3 => Fault::SlowBurn,
                4 => Fault::WrongVerdict(Lie::ClaimProved),
                _ => Fault::WrongVerdict(Lie::ClaimRefuted),
            }),
        }
    }

    /// Decide the fate of the next IO operation at store site `site`.
    /// The seeded distribution maps onto the six [`DiskFault`] kinds;
    /// targeted rules fire only when they name a `Fault::Disk` (a panic
    /// rule aimed at a store site is meaningless and is ignored, exactly
    /// as prover boundaries ignore wrong-verdict rules).
    pub fn decide_disk(&self, site: &str) -> Option<DiskFault> {
        match self.raw_decide(site)? {
            RawDecision::Rule(Fault::Disk(d)) => Some(d),
            RawDecision::Rule(_) => None,
            RawDecision::Seeded(kind) => Some(match kind % 6 {
                0 => DiskFault::TornWrite,
                1 => DiskFault::BitFlip,
                2 => DiskFault::ShortRead,
                3 => DiskFault::NoSpace,
                4 => DiskFault::RenameFail,
                _ => DiskFault::StaleLock,
            }),
        }
    }

    /// Decide the fate of the next connection operation at service
    /// boundary `site` (`service.accept`/`service.read`/`service.write`).
    /// The seeded distribution maps onto the four [`SocketFault`] kinds;
    /// targeted rules fire only when they name a `Fault::Socket` (other
    /// rule kinds aimed at a service site are ignored, exactly as store
    /// sites ignore prover faults).
    pub fn decide_socket(&self, site: &str) -> Option<SocketFault> {
        match self.raw_decide(site)? {
            RawDecision::Rule(Fault::Socket(s)) => Some(s),
            RawDecision::Rule(_) => None,
            RawDecision::Seeded(kind) => Some(match kind % 4 {
                0 => SocketFault::TornFrame,
                1 => SocketFault::HungClient,
                2 => SocketFault::Disconnect,
                _ => SocketFault::SlowReader,
            }),
        }
    }

    /// Enforce the single-liar rule: `site` may emit a wrong verdict only
    /// if it is (or becomes, being the first to ask) the plan's designated
    /// liar. Deterministic for a deterministic run: the portfolio visits
    /// sites in a fixed order, so the same site claims the role on every
    /// replay of the same seed.
    pub fn claim_liar(&self, site: &str) -> bool {
        let mut liar = lock(&self.liar);
        match liar.as_deref() {
            None => {
                *liar = Some(site.to_owned());
                true
            }
            Some(l) => l == site,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Plans are shared across catch_unwind boundaries; a panic injected
    // *while deciding* cannot happen (decide holds the lock only around
    // pure bookkeeping), but recover from poisoning anyway.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---- thread-local arming -------------------------------------------------
//
// Prover entry crates cannot see the dispatcher's config, so the plan is
// armed on the current thread for the duration of a dispatch. The unarmed
// fast path must cost next to nothing: one thread-local counter load.

thread_local! {
    static ARMED_DEPTH: Cell<u32> = const { Cell::new(0) };
    static ARMED_PLAN: std::cell::RefCell<Vec<Arc<FaultPlan>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Is a fault plan armed on this thread?
#[inline]
pub fn armed() -> bool {
    ARMED_DEPTH.with(|d| d.get() != 0)
}

/// RAII guard returned by [`arm`]; disarms (one level) on drop.
pub struct ArmedGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Arm `plan` on the current thread until the returned guard drops.
/// Nesting is allowed; the innermost plan wins.
pub fn arm(plan: Arc<FaultPlan>) -> ArmedGuard {
    ARMED_PLAN.with(|p| p.borrow_mut().push(plan));
    ARMED_DEPTH.with(|d| d.set(d.get() + 1));
    ArmedGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        ARMED_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        ARMED_PLAN.with(|p| {
            p.borrow_mut().pop();
        });
    }
}

// ---- obligation scopes ---------------------------------------------------
//
// Seeded chaos decisions must not depend on the order in which worker
// threads reach a boundary, or parallel runs stop being reproducible. An
// obligation scope pins the decision key to the obligation being
// dispatched: the dispatcher opens a scope keyed on the obligation's
// content fingerprint, and every boundary crossed until the guard drops
// draws its faults from `(seed, site, obligation key, local index)` with a
// fresh per-scope index counter. Two dispatches of the same obligation —
// on any thread, in any order — therefore see the same fault sequence.

thread_local! {
    static SCOPES: std::cell::RefCell<Vec<ScopeFrame>> = const { std::cell::RefCell::new(Vec::new()) };
}

struct ScopeFrame {
    key: u64,
    counters: HashMap<String, u64>,
}

/// RAII guard returned by [`obligation_scope`]; closes the scope on drop.
pub struct ObligationScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open an obligation scope keyed on `key` (typically the obligation's
/// normalized-goal fingerprint). Nesting is allowed; the innermost scope
/// wins.
pub fn obligation_scope(key: u64) -> ObligationScope {
    SCOPES.with(|s| {
        s.borrow_mut().push(ScopeFrame {
            key,
            counters: HashMap::new(),
        })
    });
    ObligationScope {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ObligationScope {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The innermost scope's `(key, next per-site index)` for `site`, if a
/// scope is active on this thread. Advances the scope-local counter.
fn scoped_index(site: &str) -> Option<(u64, u64)> {
    SCOPES.with(|s| {
        let mut scopes = s.borrow_mut();
        let frame = scopes.last_mut()?;
        let c = frame.counters.entry(site.to_owned()).or_insert(0);
        let local = *c;
        *c += 1;
        Some((frame.key, local))
    })
}

/// Run `f` against the innermost armed plan, if any.
pub fn with_armed<R>(f: impl FnOnce(&FaultPlan) -> R) -> Option<R> {
    if !armed() {
        return None;
    }
    ARMED_PLAN
        .with(|p| p.borrow().last().cloned())
        .map(|p| f(&p))
}

/// Register a prover boundary: the budgeted entry point of a reasoning
/// substrate calls this first. Unarmed, it is a thread-local load and
/// nothing else. Armed, the plan may:
///
/// * panic (the dispatcher's `catch_unwind` must isolate it),
/// * report a spurious [`Exhaustion::Timeout`] or [`Exhaustion::Fuel`],
/// * burn the caller's remaining fuel without progress (slow-burn), then
///   report exhaustion.
///
/// Wrong-verdict faults are ignored here — a generic boundary cannot
/// fabricate domain verdicts; only the dispatcher applies those.
#[inline]
pub fn boundary(site: &str, budget: &Budget) -> Result<(), Exhaustion> {
    if !armed() {
        return Ok(());
    }
    boundary_slow(site, budget)
}

#[cold]
fn boundary_slow(site: &str, budget: &Budget) -> Result<(), Exhaustion> {
    let fault = with_armed(|plan| plan.decide(site)).flatten();
    if let Some(fault) = fault {
        // Contribute to whatever obligation's recorder is scoped on this
        // thread; boundary sites live inside prover crates that have no
        // dispatcher reference. Scoped keying of `decide` keeps these
        // events deterministic under seeded plans.
        crate::obs::record_scoped(|| crate::obs::Event::ChaosInjected {
            site: site.to_owned(),
            fault: fault.to_string(),
        });
    }
    match fault {
        // Wrong-verdict faults are dispatcher-only; disk faults fire only
        // at store IO sites via `decide_disk`; socket faults only at
        // service boundaries via `decide_socket`. All no-ops here.
        None | Some(Fault::WrongVerdict(_)) | Some(Fault::Disk(_)) | Some(Fault::Socket(_)) => {
            Ok(())
        }
        Some(Fault::Panic) => panic!("chaos: injected panic at boundary `{site}`"),
        Some(Fault::Timeout) => Err(Exhaustion::Timeout),
        Some(Fault::Starvation) => Err(Exhaustion::Fuel),
        Some(Fault::SlowBurn) => {
            let remaining = budget.fuel_remaining();
            if remaining != crate::budget::INFINITE_FUEL {
                let _ = budget.charge(remaining);
            }
            Err(Exhaustion::Fuel)
        }
    }
}

/// The process-wide chaos seed from `JAHOB_CHAOS_SEED`, cached like
/// `trace_enabled`. `None` when unset or unparseable.
pub fn env_seed() -> Option<u64> {
    static SEED: OnceLock<Option<u64>> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("JAHOB_CHAOS_SEED")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_reproducible() {
        let a = FaultPlan::from_seed(42);
        let b = FaultPlan::from_seed(42);
        for _ in 0..200 {
            assert_eq!(a.decide("dispatch.bapa"), b.decide("dispatch.bapa"));
            assert_eq!(a.decide("mona.decide"), b.decide("mona.decide"));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::from_seed(1);
        let b = FaultPlan::from_seed(2);
        let seq_a: Vec<_> = (0..256).map(|_| a.decide("s")).collect();
        let seq_b: Vec<_> = (0..256).map(|_| b.decide("s")).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn seeded_rate_is_roughly_a_quarter() {
        let plan = FaultPlan::from_seed(7);
        let fired = (0..4096).filter(|_| plan.decide("x").is_some()).count();
        // 1/4 ± generous slack.
        assert!((512..=1536).contains(&fired), "fired {fired}/4096");
    }

    #[test]
    fn targeted_rules_fire_exactly_in_range() {
        let plan = FaultPlan::quiet().inject("dispatch.lia", 1..3, Fault::Panic);
        assert_eq!(plan.decide("dispatch.lia"), None); // invocation 0
        assert_eq!(plan.decide("dispatch.lia"), Some(Fault::Panic)); // 1
        assert_eq!(plan.decide("dispatch.lia"), Some(Fault::Panic)); // 2
        assert_eq!(plan.decide("dispatch.lia"), None); // 3
        assert_eq!(plan.decide("dispatch.other"), None);
    }

    #[test]
    fn single_liar_rule_claims_once() {
        let plan = FaultPlan::from_seed(3);
        assert!(plan.claim_liar("a"));
        assert!(plan.claim_liar("a"));
        assert!(!plan.claim_liar("b"));
    }

    #[test]
    #[should_panic(expected = "single-liar rule")]
    fn targeted_double_liar_rejected() {
        let _ = FaultPlan::quiet()
            .inject("a", 0..1, Fault::WrongVerdict(Lie::ClaimProved))
            .inject("b", 0..1, Fault::WrongVerdict(Lie::ClaimRefuted));
    }

    #[test]
    fn unarmed_boundary_is_a_no_op() {
        let b = Budget::with_fuel(10);
        assert!(!armed());
        for _ in 0..100 {
            assert_eq!(boundary("anywhere", &b), Ok(()));
        }
        assert_eq!(b.fuel_remaining(), 10);
    }

    #[test]
    fn armed_boundary_applies_faults() {
        let plan = Arc::new(
            FaultPlan::quiet()
                .inject("t.timeout", 0..1, Fault::Timeout)
                .inject("t.starve", 0..1, Fault::Starvation)
                .inject("t.burn", 0..1, Fault::SlowBurn),
        );
        let _g = arm(plan);
        assert!(armed());
        let b = Budget::with_fuel(100);
        assert_eq!(boundary("t.timeout", &b), Err(Exhaustion::Timeout));
        assert_eq!(b.fuel_remaining(), 100);
        assert_eq!(boundary("t.starve", &b), Err(Exhaustion::Fuel));
        assert_eq!(b.fuel_remaining(), 100, "starvation burns nothing");
        assert_eq!(boundary("t.burn", &b), Err(Exhaustion::Fuel));
        assert_eq!(b.fuel_remaining(), 0, "slow-burn drains the budget");
    }

    #[test]
    fn arming_guard_restores() {
        {
            let _g = arm(Arc::new(FaultPlan::quiet()));
            assert!(armed());
        }
        assert!(!armed());
    }

    #[test]
    fn scoped_decisions_ignore_global_arrival_order() {
        // Burn the global counter on plan `a` so the two plans' global
        // per-site counters disagree wildly; inside matching scopes the
        // decisions must still replay identically.
        let a = FaultPlan::from_seed(99);
        let b = FaultPlan::from_seed(99);
        for _ in 0..137 {
            let _ = a.decide("warmup");
            let _ = a.decide("dispatch.smt");
        }
        let seq_a: Vec<_> = {
            let _scope = obligation_scope(0xfeed);
            (0..32).map(|_| a.decide("dispatch.smt")).collect()
        };
        let seq_b: Vec<_> = {
            let _scope = obligation_scope(0xfeed);
            (0..32).map(|_| b.decide("dispatch.smt")).collect()
        };
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn scoped_decisions_differ_across_keys() {
        let plan = FaultPlan::from_seed(5);
        let seq_a: Vec<_> = {
            let _scope = obligation_scope(1);
            (0..256).map(|_| plan.decide("s")).collect()
        };
        let seq_b: Vec<_> = {
            let _scope = obligation_scope(2);
            (0..256).map(|_| plan.decide("s")).collect()
        };
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn scope_guard_restores_global_keying() {
        let a = FaultPlan::from_seed(21);
        let b = FaultPlan::from_seed(21);
        {
            let _scope = obligation_scope(7);
            // Scoped decisions advance the scope-local counter only; the
            // global counter still advances for targeted rules.
            let _ = a.decide("site");
        }
        {
            let _scope = obligation_scope(7);
            let _ = b.decide("site");
        }
        // Back outside any scope: both plans have identical global
        // counters, so the global-keyed stream agrees again.
        let seq_a: Vec<_> = (0..64).map(|_| a.decide("site")).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.decide("site")).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn targeted_rules_match_global_counter_even_inside_scopes() {
        let plan = FaultPlan::quiet().inject("t.rule", 1..2, Fault::Panic);
        let _scope = obligation_scope(42);
        assert_eq!(plan.decide("t.rule"), None); // global invocation 0
        assert_eq!(plan.decide("t.rule"), Some(Fault::Panic)); // 1
        assert_eq!(plan.decide("t.rule"), None); // 2
    }

    #[test]
    fn targeted_socket_rules_fire_only_via_decide_socket() {
        let plan = FaultPlan::quiet()
            .inject("service.read", 0..2, Fault::Socket(SocketFault::TornFrame))
            .inject("service.read", 2..3, Fault::Panic);
        assert_eq!(
            plan.decide_socket("service.read"),
            Some(SocketFault::TornFrame)
        );
        assert_eq!(
            plan.decide_socket("service.read"),
            Some(SocketFault::TornFrame)
        );
        // A prover fault aimed at a service site is inert there.
        assert_eq!(plan.decide_socket("service.read"), None);
        // A socket rule is equally inert at the disk decider, and a
        // generic boundary treats it as a no-op.
        let plan =
            Arc::new(FaultPlan::quiet().inject("s", 0..10, Fault::Socket(SocketFault::Disconnect)));
        assert_eq!(plan.decide_disk("s"), None);
        let _g = arm(Arc::clone(&plan));
        let b = Budget::unlimited();
        assert_eq!(boundary("s", &b), Ok(()));
    }

    #[test]
    fn seeded_socket_decisions_replay_and_cover_every_kind() {
        let seed = env_seed().unwrap_or(0) ^ 0x50c7;
        let site = "service.write";
        let roll = |plan: &FaultPlan| -> Vec<Option<SocketFault>> {
            (0..512)
                .map(|i| {
                    let _scope = obligation_scope(i);
                    plan.decide_socket(site)
                })
                .collect()
        };
        let seq_a = roll(&FaultPlan::from_seed(seed));
        let seq_b = roll(&FaultPlan::from_seed(seed));
        assert_eq!(seq_a, seq_b, "seeded socket decisions must replay");
        let kinds: std::collections::HashSet<_> = seq_a.into_iter().flatten().collect();
        assert_eq!(
            kinds.len(),
            4,
            "512 rolls must cover all socket kinds: {kinds:?}"
        );
    }

    #[test]
    fn wrong_verdict_ignored_at_generic_boundary() {
        let plan = Arc::new(FaultPlan::quiet().inject(
            "t.lie",
            0..1,
            Fault::WrongVerdict(Lie::ClaimProved),
        ));
        let _g = arm(plan);
        let b = Budget::unlimited();
        assert_eq!(boundary("t.lie", &b), Ok(()));
    }
}
