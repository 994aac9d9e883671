//! Deterministic fault injection for the prover portfolio.
//!
//! The dispatcher's whole value proposition is that one misbehaving
//! reasoner never corrupts or aborts a verification run. That property is
//! only worth anything if it can be *tested under adversarial conditions*,
//! so this module provides a seeded, fully reproducible fault injector: a
//! [`FaultPlan`] derived from a single `u64` seed (no wall clock, no
//! ambient RNG) decides, at every named site, whether that invocation
//! misbehaves and how.
//!
//! Each layer that holds a plan decides at its own sites and applies the
//! faults of its own domain:
//!
//! * **The dispatcher** is the one place a prover fault is decided and
//!   applied: each attempt polls its `dispatch.<prover>` site with
//!   [`FaultPlan::decide`], passing the obligation's [`Scope`], and,
//!   inside the attempt's `catch_unwind`, panics, reports a spurious
//!   timeout or fuel exhaustion, burns the obligation's fuel without
//!   progress, or has the prover lie (`Proved`/`Refuted`). No reasoning
//!   crate mentions chaos: a fault before the prover runs is everything
//!   a fault at its entry could be.
//! * **The persistent store** polls its IO sites with
//!   [`FaultPlan::decide_disk`], naming the kinds each site can suffer.
//! * **The verification daemon** polls its socket sites with
//!   [`FaultPlan::decide_socket`].
//!
//! Determinism: a seeded decision at a prover site is a pure function of
//! `(seed, site name, obligation key, per-obligation invocation index)`
//! via splitmix64. The key and the per-obligation counters are a
//! [`Scope`], a plain value the dispatcher owns: it sets a fresh one per
//! obligation, keyed on the obligation's content-derived fingerprint.
//! That keying is what keeps chaos runs bit-for-bit reproducible when
//! obligations are dispatched *in parallel*: the faults an obligation
//! sees depend on what the obligation *is*, never on the order in which
//! worker threads happened to reach a site. Store and service sites
//! have no obligation; their decisions are keyed on `(seed, site, global
//! per-site invocation index)`, which is reproducible for
//! single-threaded use.
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

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

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
/// a crash mid-save, silent media corruption, or a filesystem that stops
/// cooperating. The store must degrade every one of them to a cold cache
/// — never to a wrong verdict, a panic, or an unopenable directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiskFault {
    /// A save writes only a prefix of the snapshot before the "crash",
    /// and its rename still lands: the snapshot on disk is torn.
    TornWrite,
    /// One bit of the snapshot flips after checksumming — silent media
    /// corruption that only the snapshot's CRC can catch.
    BitFlip,
    /// A snapshot read returns fewer bytes than the file holds (the tail
    /// vanishes mid-read).
    ShortRead,
    /// The write fails with ENOSPC-style storage exhaustion.
    NoSpace,
    /// The temp file writes fine but the atomic rename fails, leaving
    /// the old snapshot in place and the new one under the temp name.
    RenameFail,
}

impl std::fmt::Display for DiskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DiskFault::TornWrite => "torn-write",
            DiskFault::BitFlip => "bit-flip",
            DiskFault::ShortRead => "short-read",
            DiskFault::NoSpace => "no-space",
            DiskFault::RenameFail => "rename-fail",
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
/// store's IO boundary (the dispatcher ignores them, exactly as the store
/// ignores prover faults).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The attempt panics (exercises `catch_unwind` isolation).
    Panic,
    /// The attempt reports a wall-clock timeout that never happened.
    Timeout,
    /// The attempt reports fuel exhaustion without burning any fuel.
    Starvation,
    /// The attempt burns all the fuel it was given, makes no progress,
    /// and then reports honest exhaustion — a prover that spins.
    SlowBurn,
    /// The prover fabricates a verdict; subject to the single-liar rule.
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
/// invocation indices in `range` (indices count the decisions made at
/// the site, starting at 0).
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

/// The key of one obligation's seeded decisions, with a count per site
/// of the decisions drawn under it so far. The dispatcher owns one and
/// sets a fresh one per obligation; see the module doc.
#[derive(Debug, Default)]
pub struct Scope {
    key: u64,
    counters: HashMap<String, u64>,
}

impl Scope {
    /// A scope keyed on `key` with no decisions drawn yet.
    pub fn new(key: u64) -> Scope {
        Scope {
            key,
            counters: HashMap::new(),
        }
    }
}

/// A deterministic fault-injection plan.
///
/// Construct with [`FaultPlan::from_seed`] for seeded chaos (every
/// site misbehaves with probability ≈ 1/4, fault kind drawn from the
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
    /// A seeded chaos plan: every site invocation misbehaves with
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

    /// The seed this plan replays.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Does this plan inject seeded (probabilistic) faults, as opposed to
    /// only targeted rules? Seeded decisions are keyed per obligation, so
    /// layers that share results *across* obligations (the goal cache)
    /// stand down under a seeded plan.
    pub fn is_seeded(&self) -> bool {
        self.rate > 0
    }

    /// The shared decision core: bump the per-site counter, check targeted
    /// rules (which always match on the global counter), then roll the
    /// seeded distribution, keyed on `scope` when one is given and on the
    /// global counter otherwise. Returns either the matched rule's fault
    /// or the raw seeded kind for the caller to map onto its fault domain.
    fn raw_decide(&self, site: &str, scope: Option<&mut Scope>) -> Option<RawDecision> {
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
        let roll = match scope {
            Some(scope) => {
                let c = scope.counters.entry(site.to_owned()).or_insert(0);
                let local = *c;
                *c += 1;
                splitmix64(
                    splitmix64(self.seed ^ site_hash(site))
                        ^ splitmix64(scope.key)
                        ^ local.rotate_left(32),
                )
            }
            None => splitmix64(self.seed ^ site_hash(site) ^ splitmix64(index)),
        };
        if (roll & 0xff) as u16 >= self.rate {
            return None;
        }
        Some(RawDecision::Seeded(splitmix64(roll)))
    }

    /// Decide the fate of the next invocation of prover site `site` for
    /// the obligation `scope` keys. Targeted rules match the global
    /// per-site invocation counter (which always advances); the seeded
    /// distribution is keyed on `(seed, site, scope key, per-scope
    /// index)`.
    ///
    /// Seeded kinds never include disk or socket faults — those are
    /// drawn only by [`FaultPlan::decide_disk`] at store sites and
    /// [`FaultPlan::decide_socket`] at service sites.
    pub fn decide(&self, site: &str, scope: &mut Scope) -> Option<Fault> {
        match self.raw_decide(site, Some(scope))? {
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

    /// Decide the fate of the next IO operation at store site `site`,
    /// which can suffer the (non-empty) `kinds`: the seeded distribution
    /// draws only from them, so every seeded fault is one the site
    /// applies. Targeted rules fire whenever they name a `Fault::Disk`,
    /// of any kind (a panic rule aimed at a store site is meaningless and
    /// is ignored, exactly as the dispatcher ignores a disk rule aimed at
    /// a prover site).
    pub fn decide_disk(&self, site: &str, kinds: &[DiskFault]) -> Option<DiskFault> {
        match self.raw_decide(site, None)? {
            RawDecision::Rule(Fault::Disk(d)) => Some(d),
            RawDecision::Rule(_) => None,
            RawDecision::Seeded(kind) => Some(kinds[(kind % kinds.len() as u64) as usize]),
        }
    }

    /// Decide the fate of the next connection operation at service
    /// boundary `site` (`service.accept`/`service.read`/`service.write`).
    /// The seeded distribution maps onto the four [`SocketFault`] kinds;
    /// targeted rules fire only when they name a `Fault::Socket` (other
    /// rule kinds aimed at a service site are ignored, exactly as store
    /// sites ignore prover faults).
    pub fn decide_socket(&self, site: &str) -> Option<SocketFault> {
        match self.raw_decide(site, None)? {
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
    use crate::store::{FLUSH_FAULTS, LOAD_FAULTS};

    /// Two plans of one seed, each deciding under its own scope of one
    /// key, make the same decisions.
    #[test]
    fn decisions_are_reproducible() {
        let a = FaultPlan::from_seed(42);
        let b = FaultPlan::from_seed(42);
        let (mut sa, mut sb) = (Scope::new(9), Scope::new(9));
        for _ in 0..200 {
            assert_eq!(
                a.decide("dispatch.bapa", &mut sa),
                b.decide("dispatch.bapa", &mut sb)
            );
            assert_eq!(
                a.decide("dispatch.smt", &mut sa),
                b.decide("dispatch.smt", &mut sb)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::from_seed(1);
        let b = FaultPlan::from_seed(2);
        let (mut sa, mut sb) = (Scope::new(0), Scope::new(0));
        let seq_a: Vec<_> = (0..256).map(|_| a.decide("s", &mut sa)).collect();
        let seq_b: Vec<_> = (0..256).map(|_| b.decide("s", &mut sb)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn seeded_rate_is_roughly_a_quarter() {
        let plan = FaultPlan::from_seed(7);
        let mut scope = Scope::new(0);
        let fired = (0..4096)
            .filter(|_| plan.decide("x", &mut scope).is_some())
            .count();
        // 1/4 ± generous slack.
        assert!((512..=1536).contains(&fired), "fired {fired}/4096");
    }

    #[test]
    fn targeted_rules_fire_exactly_in_range() {
        let plan = FaultPlan::quiet().inject("dispatch.lia", 1..3, Fault::Panic);
        let mut scope = Scope::default();
        assert_eq!(plan.decide("dispatch.lia", &mut scope), None); // invocation 0
        assert_eq!(plan.decide("dispatch.lia", &mut scope), Some(Fault::Panic)); // 1
        assert_eq!(plan.decide("dispatch.lia", &mut scope), Some(Fault::Panic)); // 2
        assert_eq!(plan.decide("dispatch.lia", &mut scope), None); // 3
        assert_eq!(plan.decide("dispatch.other", &mut scope), None);
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

    /// Scoped decisions depend on the scope, never on how many decisions
    /// the plan made before it.
    #[test]
    fn scoped_decisions_ignore_global_arrival_order() {
        // Burn the global counter on plan `a` so the two plans' global
        // per-site counters disagree wildly; under fresh scopes of one key
        // the decisions must still replay identically.
        let a = FaultPlan::from_seed(99);
        let b = FaultPlan::from_seed(99);
        let mut other = Scope::new(1);
        for _ in 0..137 {
            let _ = a.decide("warmup", &mut other);
            let _ = a.decide("dispatch.smt", &mut other);
        }
        let (mut sa, mut sb) = (Scope::new(0xfeed), Scope::new(0xfeed));
        let seq_a: Vec<_> = (0..32).map(|_| a.decide("dispatch.smt", &mut sa)).collect();
        let seq_b: Vec<_> = (0..32).map(|_| b.decide("dispatch.smt", &mut sb)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn scoped_decisions_differ_across_keys() {
        let plan = FaultPlan::from_seed(5);
        let (mut s1, mut s2) = (Scope::new(1), Scope::new(2));
        let seq_a: Vec<_> = (0..256).map(|_| plan.decide("s", &mut s1)).collect();
        let seq_b: Vec<_> = (0..256).map(|_| plan.decide("s", &mut s2)).collect();
        assert_ne!(seq_a, seq_b);
    }

    /// A scoped decision advances the plan's global per-site counter too,
    /// so two plans that made the same scoped decisions key their
    /// unscoped (store and service) decisions alike afterwards.
    #[test]
    fn scope_guard_restores_global_keying() {
        let a = FaultPlan::from_seed(21);
        let b = FaultPlan::from_seed(21);
        let _ = a.decide("site", &mut Scope::new(7));
        let _ = b.decide("site", &mut Scope::new(7));
        let seq_a: Vec<_> = (0..64).map(|_| a.decide_socket("site")).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.decide_socket("site")).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn targeted_rules_match_global_counter_even_inside_scopes() {
        let plan = FaultPlan::quiet().inject("t.rule", 1..2, Fault::Panic);
        let mut scope = Scope::new(42);
        assert_eq!(plan.decide("t.rule", &mut scope), None); // global invocation 0
        assert_eq!(
            plan.decide("t.rule", &mut Scope::new(43)),
            Some(Fault::Panic)
        ); // 1
        assert_eq!(plan.decide("t.rule", &mut scope), None); // 2
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
        // A socket rule is equally inert at the disk decider.
        let plan = FaultPlan::quiet().inject("s", 0..10, Fault::Socket(SocketFault::Disconnect));
        assert_eq!(plan.decide_disk("s", FLUSH_FAULTS), None);
    }

    /// Seeded socket decisions are keyed on the global per-site counter:
    /// two plans of one seed replay them, and 512 rolls cover every kind.
    #[test]
    fn seeded_socket_decisions_replay_and_cover_every_kind() {
        let seed = env_seed().unwrap_or(0) ^ 0x50c7;
        let roll = |plan: &FaultPlan| -> Vec<Option<SocketFault>> {
            (0..512)
                .map(|_| plan.decide_socket("service.write"))
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

    /// Seeded disk decisions at a store site replay, draw only the kinds
    /// the site applies, and over 512 rolls cover every one of them.
    #[test]
    fn seeded_disk_decisions_replay_and_cover_every_kind() {
        let seed = env_seed().unwrap_or(0) ^ 0xd15c;
        for (site, kinds) in [("store.load", LOAD_FAULTS), ("store.flush", FLUSH_FAULTS)] {
            let roll = |plan: &FaultPlan| -> Vec<Option<DiskFault>> {
                (0..512).map(|_| plan.decide_disk(site, kinds)).collect()
            };
            let seq_a = roll(&FaultPlan::from_seed(seed));
            let seq_b = roll(&FaultPlan::from_seed(seed));
            assert_eq!(seq_a, seq_b, "{site}: seeded disk decisions must replay");
            let drawn: std::collections::HashSet<_> = seq_a.into_iter().flatten().collect();
            let allowed: std::collections::HashSet<_> = kinds.iter().copied().collect();
            assert_eq!(drawn, allowed, "{site}: 512 rolls draw exactly its kinds");
        }
    }
}
