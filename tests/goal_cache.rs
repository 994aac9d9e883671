//! Integration coverage for the run-wide normalized-goal cache: what may
//! be cached (proofs), what must never be (budget-starved `Unknown`s,
//! refutations), which goals collide (alpha-equivalent ones), and the one
//! hard invariant — a cache hit never changes a verdict.

use jahob_repro::jahob::{Budget, Dispatcher, GoalCache, Verdict};
use jahob_repro::logic::{form, Form, Sort};
use jahob_repro::util::{FxHashMap, Symbol};
use std::sync::Arc;

fn sig() -> FxHashMap<Symbol, Sort> {
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
    sig
}

fn cached_dispatcher(cache: &Arc<GoalCache>) -> Dispatcher {
    let mut d = Dispatcher::new(sig());
    d.cache = Some(Arc::clone(cache));
    d
}

#[test]
fn alpha_equivalent_goals_hit() {
    let cache = Arc::new(GoalCache::new());
    let d = cached_dispatcher(&cache);
    let a = form("ALL a b. a < b --> a + 1 <= b");
    let b = form("ALL p q. p < q --> p + 1 <= q");
    assert!(d.prove(&a).is_proved(), "battery sanity");
    assert!(d.prove(&b).is_proved(), "alpha variant must also prove");
    assert_eq!(d.stats.get("cache.miss"), 1, "one distinct goal");
    assert_eq!(d.stats.get("cache.hit"), 1, "the alpha variant hits");
}

#[test]
fn cross_dispatcher_hits_share_one_cache() {
    // Two dispatchers (two methods of a run) sharing the cache: the
    // second never re-proves what the first already discharged.
    let cache = Arc::new(GoalCache::new());
    let goal = form("card (S Un T) <= card S + card T");
    let d1 = cached_dispatcher(&cache);
    let first = d1.prove(&goal);
    let Verdict::Proved { prover, .. } = first else {
        panic!("battery sanity: {first:?}");
    };
    let d2 = cached_dispatcher(&cache);
    match d2.prove(&goal) {
        Verdict::Proved {
            prover: hit_prover, ..
        } => assert_eq!(hit_prover, prover, "a hit replays the proving prover"),
        other => panic!("cached goal must stay proved: {other:?}"),
    }
    assert_eq!(d2.stats.get("cache.hit"), 1);
    assert_eq!(d2.stats.get("cache.miss"), 0);
}

#[test]
fn budget_starved_unknowns_are_never_cached() {
    let cache = Arc::new(GoalCache::new());
    let d = cached_dispatcher(&cache);
    let goal = form("card (S Un T) <= card S + card T");
    // Starved: a couple of fuel units cannot carry any prover to a
    // verdict. The claim must be abandoned, not filled.
    let starved = d.prove_governed(&goal, &Budget::with_fuel(3));
    assert!(
        matches!(starved, Verdict::Unknown(_)),
        "3 fuel cannot prove BAPA goals: {starved:?}"
    );
    assert!(
        cache.is_empty(),
        "a budget-starved Unknown must leave no cache entry"
    );
    assert_eq!(d.stats.get("cache.hit"), 0);
    // With real budget the same dispatcher recomputes (miss, not a
    // poisoned hit) and proves.
    let recovered = d.prove_governed(&goal, &Budget::unlimited());
    assert!(recovered.is_proved(), "{recovered:?}");
    assert_eq!(d.stats.get("cache.miss"), 2, "starved + recomputed");
    assert_eq!(d.stats.get("cache.hit"), 0);
}

#[test]
fn refutations_are_never_cached() {
    let cache = Arc::new(GoalCache::new());
    let d = cached_dispatcher(&cache);
    let goal = form("x : S --> x : T");
    for _ in 0..2 {
        match d.prove(&goal) {
            Verdict::CounterModel(_) => {}
            other => panic!("battery sanity: {other:?}"),
        }
    }
    assert_eq!(
        d.stats.get("cache.hit"),
        0,
        "counter-models stay thread-local, both dispatches recompute"
    );
    assert!(cache.is_empty());
}

#[test]
fn hits_never_flip_a_verdict() {
    // The chaos-suite battery covers all three verdict kinds. Proving it
    // twice through a shared cache must agree kind-for-kind with an
    // uncached dispatcher.
    let battery = [
        "i < j --> i + 1 <= j",
        "S Int T <= S",
        "card (S Un T) <= card S + card T",
        "x = y --> next x = next y",
        "x : S --> x : T",
        "x : S & S <= T --> x : T",
        "S <= T & T <= S --> S = T",
        "ALL a b c. a ~= null & b ~= null & c ~= null --> a = b | b = c | a = c",
    ];
    let goals: Vec<Form> = battery.iter().map(|s| form(s)).collect();
    let kind = |v: &Verdict| match v {
        Verdict::Proved { .. } => 'P',
        Verdict::CounterModel(_) => 'R',
        Verdict::Unknown(_) => 'U',
    };
    let plain = Dispatcher::new(sig());
    let truth: Vec<char> = goals.iter().map(|g| kind(&plain.prove(g))).collect();

    let cache = Arc::new(GoalCache::new());
    let d = cached_dispatcher(&cache);
    for round in 0..2 {
        let got: Vec<char> = goals.iter().map(|g| kind(&d.prove(g))).collect();
        assert_eq!(got, truth, "cached round {round} flipped a verdict");
    }
    assert!(
        d.stats.get("cache.hit") > 0,
        "second round must actually hit: {:?}",
        d.stats.snapshot()
    );
}

#[test]
fn hits_report_saved_fuel() {
    let cache = Arc::new(GoalCache::new());
    let mut d = cached_dispatcher(&cache);
    d.config.obligation_fuel = 500_000;
    let goal = form("card (S Un T) <= card S + card T");
    assert!(d.prove(&goal).is_proved());
    assert!(d.prove(&goal).is_proved());
    assert!(
        d.stats.get("cache.saved.fuel") > 0,
        "a metered hit must report the fuel the original dispatch burned: {:?}",
        d.stats.snapshot()
    );
}
