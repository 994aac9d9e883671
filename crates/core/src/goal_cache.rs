//! A normalized-goal verdict cache shared across a verification run.
//!
//! Goal decomposition (§3 of the paper) and the symbolic shape analysis
//! style of VC generation produce large families of near-duplicate
//! sequents: the same class invariant re-proved at every call site, the
//! same null-receiver check for every field access on the same path
//! condition. The cache recognizes those duplicates *after* simplification
//! and alpha-normalization, so each distinct goal is dispatched to the
//! portfolio exactly once per run and every later occurrence — in the same
//! method or a different one — is a constant-time hit.
//!
//! Three design rules keep the cache sound and deterministic:
//!
//! * **Only `Proved` is cached.** An `Unknown` says "the portfolio ran out
//!   of budget/ideas *in that context*", which a later occurrence with a
//!   fresher budget must not inherit; a `CounterModel` owns an `Rc`-laden
//!   model that cannot cross threads. Provability, by contrast, is
//!   context-free: a goal proved once is proved everywhere.
//! * **Keys are content fingerprints, never interner ids.** A symbol's
//!   interner id depends on which worker, or which earlier daemon request,
//!   met its name first, and a fresh havoc/snapshot symbol names the
//!   method that made it (`base'i_k`, `i` the method's place in the run;
//!   see [`jahob_util::FreshScope`]). [`normalize`] rewrites bound binders
//!   to positional names and primed symbols to first-occurrence indices,
//!   and [`fingerprint`] hashes symbol *strings* (plus the free symbols'
//!   sorts and the dispatch-config digest), so alpha-equivalent goals
//!   collide on purpose and nothing else does: one goal keeps its key
//!   across methods and across a daemon's reordered resubmissions.
//! * **In-flight dedup is schedule-independent.** The first dispatcher to
//!   ask for a key claims it; concurrent askers block on the claim instead
//!   of racing to recompute, so the hit/miss tallies in the run report do
//!   not depend on thread count. A claimant that fails to produce a
//!   cacheable verdict (or panics) abandons the claim and wakes the
//!   waiters, one of which re-claims.
//!
//! Persistence: [`GoalCache::open_persistent`] shadows the cache with a
//! directory's snapshot file (see [`jahob_util::store`]). The snapshot
//! loads on open; fills and evictions count as unsaved changes, and the
//! whole snapshot is rewritten at 128 of them, at run end and on drop.
//! A rejected or unwritable snapshot only makes the cache colder.
//!
//! Observability: apart from the store's `store.*` events the cache
//! emits nothing. Every consultation is observed at the dispatcher's
//! call sites as `cache.lookup` / `cache.evict` events (see
//! [`jahob_util::obs`]), keyed by the same [`fingerprint`] this module
//! computes — which worker *physically* won a shared entry is
//! scheduler-dependent, so the pipeline rewrites hit/miss attribution to
//! stream order (`obs::canonicalize`) before emission.

use crate::dispatcher::ProverId;
use jahob_logic::form::keep;
use jahob_logic::{Form, Sort};
use jahob_util::chaos::{splitmix64, FaultPlan};
use jahob_util::counters::Stats;
use jahob_util::obs::{Event, Sink};
use jahob_util::store::{Entry, Store};
use jahob_util::{FxHashMap, Symbol};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

// ---- normalization -------------------------------------------------------

/// A goal in cache-canonical form: alpha-renamed binders, canonicalized
/// fresh symbols, plus the free symbols it mentions (canonical name paired
/// with the original symbol, in first-occurrence order) so the fingerprint
/// can fold in their sorts.
#[derive(Clone, Debug)]
pub struct NormalGoal {
    pub form: Form,
    pub frees: Vec<(Symbol, Symbol)>,
}

/// Rewrite `goal` into cache-canonical form:
///
/// * every bound binder becomes positional `?b0`, `?b1`, … in traversal
///   order, so `ALL x. P x` and `ALL y. P y` normalize identically;
/// * every *free* symbol containing a `'` (the [`Symbol::fresh`] marker
///   for havoc/snapshot symbols, whose suffix says where it was made: `i_k`
///   in the pipeline's method `i`) becomes `stem#k` where `k` is its
///   first-occurrence index among primed frees, so one goal made in two
///   methods, or in a method a daemon's resubmission moved, normalizes
///   identically;
/// * everything else is preserved structurally, and a subtree with no
///   binder and no primed name is shared with `goal`.
pub fn normalize(goal: &Form) -> NormalGoal {
    let mut n = Normalizer::default();
    let form = n.go(goal).unwrap_or_else(|| goal.clone());
    NormalGoal {
        form,
        frees: n.frees,
    }
}

#[derive(Default)]
struct Normalizer {
    /// Stack of (original, canonical) bound binders; scanned back-to-front
    /// so shadowing resolves to the innermost binder.
    bound: Vec<(Symbol, Symbol)>,
    next_bound: usize,
    /// Original free symbol → its canonical name, looked up once per goal
    /// (reading a symbol's text takes the interner's lock).
    canonical: FxHashMap<Symbol, Symbol>,
    /// Primed free symbols seen so far.
    primed: usize,
    frees: Vec<(Symbol, Symbol)>,
}

/// The positional binder name `?b<n>`. Each thread interns the names once,
/// the first time a goal needs that many binders, and looks them up after.
fn binder_name(n: usize) -> Symbol {
    thread_local! {
        static NAMES: RefCell<Vec<Symbol>> = const { RefCell::new(Vec::new()) };
    }
    NAMES.with_borrow_mut(|names| {
        while names.len() <= n {
            names.push(Symbol::intern(&format!("?b{}", names.len())));
        }
        names[n]
    })
}

impl Normalizer {
    fn var(&mut self, s: Symbol) -> Symbol {
        if let Some((_, canon)) = self.bound.iter().rev().find(|(orig, _)| *orig == s) {
            return *canon;
        }
        if let Some(canon) = self.canonical.get(&s) {
            return *canon;
        }
        let name = s.as_str();
        let canon = match name.find('\'') {
            Some(cut) => {
                let canon = Symbol::intern(&format!("{}#{}", &name[..cut], self.primed));
                self.primed += 1;
                canon
            }
            None => s,
        };
        self.canonical.insert(s, canon);
        self.frees.push((canon, s));
        canon
    }

    /// `binders` under the next positional names, and `body` normalized
    /// with them in scope.
    fn under(
        &mut self,
        binders: &[(Symbol, Sort)],
        body: &Rc<Form>,
    ) -> (Vec<(Symbol, Sort)>, Rc<Form>) {
        let depth = self.bound.len();
        let canon = binders
            .iter()
            .map(|(orig, sort)| {
                let canon = binder_name(self.next_bound);
                self.next_bound += 1;
                self.bound.push((*orig, canon));
                (canon, sort.clone())
            })
            .collect();
        let body = keep(self.go(body), body);
        self.bound.truncate(depth);
        (canon, body)
    }

    /// `f` in canonical form; `None` when that is `f` itself, as for a
    /// subtree with no binder and no primed name, which the result shares.
    fn go(&mut self, f: &Form) -> Option<Form> {
        match f {
            Form::Var(s) => {
                let canon = self.var(*s);
                (canon != *s).then_some(Form::Var(canon))
            }
            Form::Quant(kind, binders, body) => {
                let (binders, body) = self.under(binders, body);
                Some(Form::Quant(*kind, binders, body))
            }
            Form::Lambda(binders, body) => {
                let (binders, body) = self.under(binders, body);
                Some(Form::Lambda(binders, body))
            }
            Form::Compr(x, sort, body) => {
                let (mut binder, body) = self.under(&[(*x, sort.clone())], body);
                let (x, sort) = binder.pop().expect("one binder");
                Some(Form::Compr(x, sort, body))
            }
            _ => f.map_children(|child| self.go(child)),
        }
    }
}

// ---- fingerprinting ------------------------------------------------------

/// 128-bit content fingerprint of a normalized goal: the canonical printed
/// form, each free symbol's canonical name and sort (sorts looked up by
/// *original* symbol in `sig`; frees without a declared sort contribute
/// their name only), and the dispatch-config digest. Everything is hashed
/// as text, so the key survives re-interning and fresh-counter drift.
pub fn fingerprint(normal: &NormalGoal, sig: &FxHashMap<Symbol, Sort>, config_digest: u64) -> u128 {
    let mut text = normal.form.to_string();
    text.push('\n');
    for (canon, orig) in &normal.frees {
        text.push_str(canon.as_str());
        if let Some(sort) = sig.get(orig) {
            text.push(':');
            text.push_str(&sort.to_string());
        }
        text.push(';');
    }
    hash128(config_digest, text.as_bytes())
}

/// Fold a 128-bit fingerprint to the 64-bit key of the
/// [`jahob_util::chaos::Scope`] the dispatcher sets per obligation.
pub fn obligation_key(fp: u128) -> u64 {
    (fp >> 64) as u64 ^ fp as u64
}

/// Two independent splitmix64 lanes over the byte stream, seeded from
/// `salt`. Not cryptographic — it only has to make accidental collisions
/// across a run's few thousand goals vanishingly unlikely.
fn hash128(salt: u64, bytes: &[u8]) -> u128 {
    let mut a = splitmix64(salt ^ 0x9e37_79b9_7f4a_7c15);
    let mut b = splitmix64(salt ^ 0x6a09_e667_f3bc_c909);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let x = u64::from_le_bytes(word) ^ (chunk.len() as u64) << 56;
        a = splitmix64(a ^ x);
        b = splitmix64(b.rotate_left(29) ^ x);
    }
    ((a as u128) << 64) | b as u128
}

// ---- the cache -----------------------------------------------------------

/// A cached proof: which prover discharged the goal, at what BMC bound,
/// and how much fuel the original dispatch burned (so hits can report the
/// fuel they saved).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedProof {
    pub prover: ProverId,
    pub bound: Option<u32>,
    pub fuel: u64,
}

enum Slot {
    /// Some dispatcher claimed this key and is computing; waiters block.
    InFlight,
    Done(CachedProof),
}

/// Result of [`GoalCache::begin`].
pub enum Lookup<'c> {
    /// The goal was already proved this run.
    Hit(CachedProof),
    /// This caller owns the key: it must compute, then [`Claim::fill`] a
    /// proof or drop the claim to release the waiters.
    Miss(Claim<'c>),
}

/// Exclusive right to fill one cache key. Dropping without filling
/// abandons the claim (removing the in-flight marker and waking waiters,
/// one of which re-claims), so a panicking or budget-starved computation
/// never wedges the cache.
pub struct Claim<'c> {
    cache: &'c GoalCache,
    key: u128,
    filled: bool,
}

impl Claim<'_> {
    pub fn fill(mut self, proof: CachedProof) {
        self.filled = true;
        let mut slots = self.cache.lock();
        slots.insert(self.key, Slot::Done(proof));
        drop(slots);
        self.cache.ready.notify_all();
        self.cache.note_change();
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if !self.filled {
            let mut slots = self.cache.lock();
            slots.remove(&self.key);
            drop(slots);
            self.cache.ready.notify_all();
        }
    }
}

// ---- persistence ---------------------------------------------------------

/// Unsaved changes that trigger a save mid-run: few enough that a crash
/// loses little, enough that a busy run does not rewrite the snapshot
/// for every goal.
const FLUSH_RECORDS: usize = 128;

/// The on-disk shadow of a [`GoalCache`]: its snapshot store (see
/// [`jahob_util::store`]) and the count of changes, fills and
/// evictions, that the snapshot on disk lacks. Every store failure
/// degrades: an entry that fails to persist is re-proved by the next
/// process; it never affects this run's verdicts.
struct PersistLayer {
    /// Locked across a save, so this cache's saves never share the
    /// store's one temp file.
    store: Mutex<Store>,
    unsaved: AtomicUsize,
    sink: Option<Arc<dyn Sink>>,
    stats: Stats,
}

impl PersistLayer {
    /// Emit a store event to the session sink (if any) and fold its
    /// counter increments into the layer's stats, exactly as the
    /// dispatcher does for run events.
    fn emit(&self, event: Event) {
        event.stat_increments(|name, delta| self.stats.add(name, delta));
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }
}

fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Encode a [`CachedProof`] as a store payload:
/// `[prover u8][has_bound u8][bound u32 LE][fuel u64 LE]` — 14 bytes.
fn encode_proof(proof: &CachedProof) -> Vec<u8> {
    let mut out = Vec::with_capacity(14);
    out.push(proof.prover as u8);
    out.push(proof.bound.is_some() as u8);
    out.extend_from_slice(&proof.bound.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&proof.fuel.to_le_bytes());
    out
}

/// Decode a persisted payload; `None` on any malformed byte (wrong
/// length, unknown prover) — the record is skipped, never trusted.
fn decode_proof(payload: &[u8]) -> Option<CachedProof> {
    if payload.len() != 14 {
        return None;
    }
    let prover = ProverId::from_index(payload[0] as usize)?;
    let bound = match payload[1] {
        0 => None,
        1 => Some(u32::from_le_bytes(payload[2..6].try_into().ok()?)),
        _ => return None,
    };
    let fuel = u64::from_le_bytes(payload[6..14].try_into().ok()?);
    Some(CachedProof {
        prover,
        bound,
        fuel,
    })
}

/// The run-wide goal cache. `Send + Sync`: it stores only fingerprints and
/// [`CachedProof`]s, never formulas or models.
#[derive(Default)]
pub struct GoalCache {
    slots: Mutex<HashMap<u128, Slot>>,
    ready: Condvar,
    /// `Some` when this cache shadows an on-disk store. Fills and
    /// evictions count as unsaved changes; run end and drop save them.
    persist: Option<PersistLayer>,
}

impl fmt::Debug for GoalCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GoalCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl GoalCache {
    pub fn new() -> GoalCache {
        GoalCache::default()
    }

    /// Open a cache shadowed by the snapshot store at `dir`, loading every
    /// entry of a snapshot saved under the same semantic `digest`.
    ///
    /// **Never fails.** Every store-level problem — an unusable
    /// directory, a rejected snapshot — degrades to a colder cache (at
    /// worst a plain in-memory one) with a diagnosed `store.error` or
    /// `store.recovered` event; verification verdicts are never
    /// affected. Disk-fault injection from `plan` applies at the store's
    /// IO boundary; store events go to `sink` and the layer's stats.
    pub fn open_persistent(
        dir: &Path,
        digest: u64,
        plan: Option<Arc<FaultPlan>>,
        sink: Option<Arc<dyn Sink>>,
    ) -> GoalCache {
        let store = match Store::open(dir, digest, plan) {
            Ok(store) => store,
            Err(e) => {
                // The directory itself is unusable: run with a plain
                // in-memory cache and say so.
                let event = Event::StoreError {
                    op: "open",
                    error: e.to_string(),
                };
                if let Some(sink) = &sink {
                    sink.emit(&event);
                }
                return GoalCache::new();
            }
        };
        let persist = PersistLayer {
            store: Mutex::new(store),
            unsaved: AtomicUsize::new(0),
            sink,
            stats: Stats::new(),
        };
        let loaded = lock_or_recover(&persist.store).load();
        let entries = loaded.unwrap_or_else(|reason| {
            persist.emit(Event::StoreRecovered { reason });
            Vec::new()
        });
        let slots: HashMap<u128, Slot> = entries
            .iter()
            .filter_map(|(key, payload)| Some((*key, Slot::Done(decode_proof(payload)?))))
            .collect();
        persist.emit(Event::StoreLoad {
            entries: slots.len() as u64,
        });

        GoalCache {
            slots: Mutex::new(slots),
            ready: Condvar::new(),
            persist: Some(persist),
        }
    }

    /// Is this cache shadowed by an on-disk store?
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// Snapshot of the persistence layer's `store.*` counters (empty for
    /// a plain in-memory cache). The verify pipeline merges these into
    /// the report's stats table as unstable entries.
    pub fn persist_stats(&self) -> Vec<(String, u64)> {
        self.persist
            .as_ref()
            .map(|p| p.stats.snapshot())
            .unwrap_or_default()
    }

    /// Rewrite the snapshot from every completed entry, if it lacks a
    /// change. Called at run end and on drop; exposed for tests and
    /// deliberate checkpoints. A failed save is a `store.error` event.
    pub fn flush_persistent(&self) {
        let Some(persist) = &self.persist else {
            return;
        };
        let store = lock_or_recover(&persist.store);
        if persist.unsaved.swap(0, Ordering::AcqRel) == 0 {
            return;
        }
        let mut entries: Vec<Entry> = self
            .lock()
            .iter()
            .filter_map(|(key, slot)| match slot {
                Slot::Done(proof) => Some((*key, encode_proof(proof))),
                Slot::InFlight => None,
            })
            .collect();
        entries.sort_unstable_by_key(|(key, _)| *key);
        persist.emit(match store.save(&entries) {
            Ok(bytes) => Event::StoreFlush {
                records: entries.len() as u64,
                bytes,
            },
            Err(e) => Event::StoreError {
                op: "flush",
                error: e.to_string(),
            },
        });
    }

    /// Count one fill or eviction against the snapshot, saving at
    /// [`FLUSH_RECORDS`] unsaved changes (a no-op for a plain in-memory
    /// cache).
    fn note_change(&self) {
        if let Some(persist) = &self.persist {
            if persist.unsaved.fetch_add(1, Ordering::AcqRel) + 1 >= FLUSH_RECORDS {
                self.flush_persistent();
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u128, Slot>> {
        // Claims are held across prover computations that may panic, but
        // the mutex itself is only ever held for map bookkeeping; recover
        // from poisoning rather than propagating it.
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up `key`, blocking while another dispatcher has it in flight.
    pub fn begin(&self, key: u128) -> Lookup<'_> {
        let mut slots = self.lock();
        loop {
            match slots.get(&key) {
                Some(Slot::Done(proof)) => return Lookup::Hit(proof.clone()),
                Some(Slot::InFlight) => {
                    slots = self.ready.wait(slots).unwrap_or_else(|e| e.into_inner());
                }
                None => {
                    slots.insert(key, Slot::InFlight);
                    return Lookup::Miss(Claim {
                        cache: self,
                        key,
                        filled: false,
                    });
                }
            }
        }
    }

    /// Peek without claiming: `Some(proof)` on a completed entry.
    pub fn peek(&self, key: u128) -> Option<CachedProof> {
        match self.lock().get(&key) {
            Some(Slot::Done(proof)) => Some(proof.clone()),
            _ => None,
        }
    }

    /// Drop a completed entry (the watchdog evicts entries it could not
    /// re-confirm). On a persistent cache the eviction is a change the
    /// next save writes, so the unconfirmable proof is never replayed by
    /// a later process either.
    pub fn evict(&self, key: u128) {
        self.lock().remove(&key);
        self.ready.notify_all();
        self.note_change();
    }

    /// Number of completed or in-flight entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for GoalCache {
    fn drop(&mut self) {
        // Durability floor: whatever the last save missed goes to disk
        // when the session (or shared cache's last owner) lets go. A
        // crash before this point loses at most those changes, never
        // what an earlier save published.
        self.flush_persistent();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;

    fn fp(src: &str) -> u128 {
        let goal = form(src);
        fingerprint(&normalize(&goal), &FxHashMap::default(), 0)
    }

    #[test]
    fn alpha_equivalent_goals_collide() {
        assert_eq!(
            fp("ALL x::int. x <= x"),
            fp("ALL y::int. y <= y"),
            "bound names must not matter"
        );
        assert_eq!(
            fp("ALL x::int. ALL y::int. x <= y | y <= x"),
            fp("ALL a::int. ALL b::int. a <= b | b <= a"),
        );
    }

    #[test]
    fn distinct_goals_do_not_collide() {
        assert_ne!(fp("ALL x::int. x <= x"), fp("ALL x::int. x < x"));
        assert_ne!(fp("a <= b"), fp("b <= a"));
    }

    #[test]
    fn binder_structure_still_distinguishes() {
        // Same body shape, different binder wiring.
        assert_ne!(
            fp("ALL x::int. ALL y::int. x <= y"),
            fp("ALL x::int. ALL y::int. y <= x"),
        );
    }

    #[test]
    fn primed_frees_canonicalize_by_occurrence() {
        // Identical goals up to the fresh-counter suffix must collide…
        let a = form("g'17 <= g'17 + 1");
        let b = form("g'904 <= g'904 + 1");
        let key_a = fingerprint(&normalize(&a), &FxHashMap::default(), 0);
        let key_b = fingerprint(&normalize(&b), &FxHashMap::default(), 0);
        assert_eq!(key_a, key_b);
        // …while distinct primed symbols in one goal stay distinct.
        let c = form("g'1 <= g'2");
        let d = form("g'1 <= g'1");
        let key_c = fingerprint(&normalize(&c), &FxHashMap::default(), 0);
        let key_d = fingerprint(&normalize(&d), &FxHashMap::default(), 0);
        assert_ne!(key_c, key_d);
    }

    #[test]
    fn normalize_shares_subtrees_with_no_binder_and_no_primed_name() {
        let goal = form("x : S --> (ALL y::obj. y : S) --> g'3 = x");
        let Form::Binop(_, hyp, rest) = &goal else {
            panic!("expected -->, got {goal:?}")
        };
        let normal = normalize(&goal);
        let Form::Binop(_, hyp2, rest2) = &normal.form else {
            panic!("expected -->, got {:?}", normal.form)
        };
        assert!(Rc::ptr_eq(hyp, hyp2), "`x : S` comes out as it went in");
        assert_eq!(rest2.to_string(), "(ALL ?b0::obj. ?b0 : S) --> g#0 = x");
        assert!(!Rc::ptr_eq(rest, rest2));
    }

    #[test]
    fn free_symbol_sorts_enter_the_key() {
        let goal = form("x = x");
        let normal = normalize(&goal);
        let mut sig_int = FxHashMap::default();
        sig_int.insert(Symbol::intern("x"), Sort::Int);
        let mut sig_obj = FxHashMap::default();
        sig_obj.insert(Symbol::intern("x"), Sort::Obj);
        assert_ne!(
            fingerprint(&normal, &sig_int, 0),
            fingerprint(&normal, &sig_obj, 0)
        );
    }

    #[test]
    fn config_digest_enters_the_key() {
        let goal = form("x = x");
        let normal = normalize(&goal);
        let sig = FxHashMap::default();
        assert_ne!(fingerprint(&normal, &sig, 1), fingerprint(&normal, &sig, 2));
    }

    #[test]
    fn hit_after_fill_and_miss_before() {
        let cache = GoalCache::new();
        let key = 42u128;
        let proof = CachedProof {
            prover: ProverId::Lia,
            bound: None,
            fuel: 10,
        };
        match cache.begin(key) {
            Lookup::Miss(claim) => claim.fill(proof.clone()),
            Lookup::Hit(_) => panic!("empty cache cannot hit"),
        }
        match cache.begin(key) {
            Lookup::Hit(got) => assert_eq!(got, proof),
            Lookup::Miss(_) => panic!("filled key must hit"),
        }
        assert_eq!(cache.peek(key), Some(proof));
    }

    #[test]
    fn abandoned_claim_releases_the_key() {
        let cache = GoalCache::new();
        let key = 7u128;
        match cache.begin(key) {
            Lookup::Miss(claim) => drop(claim),
            Lookup::Hit(_) => unreachable!(),
        }
        assert!(cache.is_empty(), "abandoned claim must leave no slot");
        assert!(matches!(cache.begin(key), Lookup::Miss(_)));
    }

    #[test]
    fn eviction_forgets_the_entry() {
        let cache = GoalCache::new();
        if let Lookup::Miss(claim) = cache.begin(1) {
            claim.fill(CachedProof {
                prover: ProverId::Smt,
                bound: None,
                fuel: 1,
            });
        }
        cache.evict(1);
        assert!(matches!(cache.begin(1), Lookup::Miss(_)));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("jahob-gc-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn proof_payload_roundtrips() {
        for proof in [
            CachedProof {
                prover: ProverId::Bapa,
                bound: None,
                fuel: 12345,
            },
            CachedProof {
                prover: ProverId::Bmc,
                bound: Some(3),
                fuel: u64::MAX,
            },
        ] {
            assert_eq!(decode_proof(&encode_proof(&proof)), Some(proof));
        }
        assert_eq!(decode_proof(&[]), None);
        assert_eq!(decode_proof(&[99; 14]), None, "unknown prover index");
        assert_eq!(decode_proof(&[0; 13]), None, "short payload");
    }

    #[test]
    fn payload_prover_byte_is_the_index_in_all() {
        // The byte `encode_proof` writes is `prover as u8`, and
        // `decode_proof` reads it back through `ProverId::ALL`: reordering
        // `ALL` must fail here, not re-attribute every persisted proof.
        for i in 0..=6 {
            assert_eq!(ProverId::ALL[i] as usize, i);
            assert_eq!(ProverId::from_index(i), Some(ProverId::ALL[i]));
        }
    }

    #[test]
    fn persistent_cache_survives_reopen_without_evicted_entries() {
        let dir = temp_dir("reopen");
        let proof = CachedProof {
            prover: ProverId::Lia,
            bound: None,
            fuel: 77,
        };
        {
            let cache = GoalCache::open_persistent(&dir, 5, None, None);
            assert!(cache.is_persistent());
            for key in [1u128, 2, 3] {
                match cache.begin(key) {
                    Lookup::Miss(claim) => claim.fill(proof.clone()),
                    Lookup::Hit(_) => panic!("cold store cannot hit"),
                }
            }
            cache.evict(2);
            // Drop saves the snapshot, without the evicted entry.
        }
        let cache = GoalCache::open_persistent(&dir, 5, None, None);
        assert_eq!(cache.peek(1), Some(proof.clone()));
        assert_eq!(cache.peek(2), None, "an evicted entry is not saved");
        assert_eq!(cache.peek(3), Some(proof));
        assert_eq!(cache.len(), 2);
        let stats = cache.persist_stats();
        let loaded = stats
            .iter()
            .find(|(k, _)| k == "store.load.entries")
            .map(|(_, v)| *v);
        assert_eq!(loaded, Some(2));
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_change_cold_starts_the_persistent_cache() {
        let dir = temp_dir("digest");
        {
            let cache = GoalCache::open_persistent(&dir, 5, None, None);
            if let Lookup::Miss(claim) = cache.begin(9) {
                claim.fill(CachedProof {
                    prover: ProverId::Smt,
                    bound: None,
                    fuel: 1,
                });
            };
        }
        let cache = GoalCache::open_persistent(&dir, 6, None, None);
        assert!(cache.is_empty(), "foreign-digest entries never replay");
        let stats = cache.persist_stats();
        assert!(
            stats.iter().any(|(k, v)| k == "store.recovered" && *v == 1),
            "reset must be observable: {stats:?}"
        );
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_directory_degrades_to_memory_cache() {
        // A file where the directory should be: open fails, cache works.
        let dir = temp_dir("file-blocks");
        std::fs::write(&dir, b"i am a file").unwrap();
        let cache = GoalCache::open_persistent(&dir, 5, None, None);
        assert!(!cache.is_persistent());
        if let Lookup::Miss(claim) = cache.begin(1) {
            claim.fill(CachedProof {
                prover: ProverId::Hol,
                bound: None,
                fuel: 2,
            });
        }
        assert!(cache.peek(1).is_some(), "memory cache still functions");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn concurrent_askers_deduplicate_in_flight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let cache = Arc::new(GoalCache::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let hits = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            let hits = Arc::clone(&hits);
            handles.push(std::thread::spawn(move || match cache.begin(99) {
                Lookup::Miss(claim) => {
                    computes.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    claim.fill(CachedProof {
                        prover: ProverId::Hol,
                        bound: None,
                        fuel: 3,
                    });
                }
                Lookup::Hit(_) => {
                    hits.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "one claimant computes");
        assert_eq!(hits.load(Ordering::SeqCst), 7, "everyone else hits");
    }
}
