//! Chaos suite (tentpole acceptance criterion): sweep deterministic fault
//! seeds and assert the dispatcher's one non-negotiable invariant —
//!
//! > no injected fault (panic, timeout, fuel starvation, slow-burn, or
//! > lying prover) ever produces a `Proved`/`Refuted` that disagrees with
//! > the fault-free verdict; faults degrade to diagnosed `Unknown` at
//! > worst.
//!
//! Every run is reproducible: the fault plan is a pure function of a `u64`
//! seed, so a failing seed here is a complete bug report.

use jahob_repro::jahob::{Dispatcher, Fault, FaultPlan, GoalCache, Lie, ReportRender, Verdict};
use jahob_repro::logic::{form, Form, Sort};
use jahob_repro::util::chaos::env_seed;
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

/// A battery covering every verdict kind and several provers: LIA- and
/// BAPA-valid goals, an EUF goal, refutable goals (counter-model search),
/// and a goal the whole portfolio fails on.
fn goal_battery() -> Vec<Form> {
    [
        "i < j --> i + 1 <= j",
        "S Int T <= S",
        "card (S Un T) <= card S + card T",
        "x = y --> next x = next y",
        "x : S --> x : T",
        "x : S & S <= T --> x : T",
        "S <= T & T <= S --> S = T",
        "ALL a b c. a ~= null & b ~= null & c ~= null --> a = b | b = c | a = c",
    ]
    .iter()
    .map(|s| form(s))
    .collect()
}

/// The verdict kind of the fault-free portfolio, computed with an
/// unmetered budget so chaos runs are compared against the portfolio's
/// full deciding power.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Proved,
    Refuted,
    Unknown,
}

fn kind(v: &Verdict) -> Kind {
    match v {
        Verdict::Proved { .. } => Kind::Proved,
        Verdict::CounterModel(_) => Kind::Refuted,
        Verdict::Unknown(_) => Kind::Unknown,
    }
}

#[test]
fn no_seed_ever_flips_a_verdict() {
    let goals = goal_battery();
    // Fault-free ground truth, one dispatcher reused across goals.
    let mut baseline = Dispatcher::new(sig());
    // Keep the model finder below the 3-object counter-model (and out of
    // bounded-validity mode) so the last battery goal stays a genuine
    // `Unknown` for the portfolio.
    baseline.config.bmc_bound = 2;
    baseline.config.bmc_as_validity = false;
    let truth: Vec<Kind> = goals.iter().map(|g| kind(&baseline.prove(g))).collect();
    assert_eq!(truth[0], Kind::Proved, "battery sanity");
    assert!(truth.contains(&Kind::Refuted), "battery sanity");
    assert!(truth.contains(&Kind::Unknown), "battery sanity");

    // CI shifts the sweep window with `JAHOB_CHAOS_SEED=<base>`; locally
    // the suite covers seeds 0..48. Either way a failure names the exact
    // seed to replay.
    let base = env_seed().unwrap_or(0);
    let mut total_injected = 0u64;
    for seed in base..base + 48 {
        let mut chaos = Dispatcher::new(sig());
        chaos.config.fault_plan = Some(Arc::new(FaultPlan::from_seed(seed)));
        // Paranoid-mode knobs: metered fuel so slow-burn faults bite, the
        // watchdog on so lying provers are cross-checked.
        chaos.config.obligation_fuel = 150_000;
        chaos.config.cross_check = true;
        chaos.config.bmc_bound = 2;
        chaos.config.bmc_as_validity = false;
        for (goal, expected) in goals.iter().zip(&truth) {
            let got = kind(&chaos.prove(goal));
            match got {
                Kind::Unknown => {} // degraded, never wrong
                decided => assert_eq!(
                    decided, *expected,
                    "seed {seed} flipped `{goal}`: chaos says {got:?}, fault-free says {expected:?}"
                ),
            }
        }
        total_injected += chaos
            .stats
            .snapshot()
            .iter()
            .filter(|(k, _)| k.starts_with("chaos.injected"))
            .map(|(_, v)| *v)
            .sum::<u64>();
    }
    // The sweep must actually have exercised the fault paths: at a ≈1/4
    // injection rate over 48 seeds × 8 goals, silence means the plan was
    // never armed.
    assert!(
        total_injected > 100,
        "suspiciously few injected faults: {total_injected}"
    );
}

/// A lying prover's verdict that slipped into the goal cache is still
/// caught by the watchdog: cache hits are re-confirmed under
/// `cross_check`, and an unconfirmable entry is demoted to `Unknown` and
/// evicted — the lie is never replayed.
#[test]
fn lying_provers_cached_verdict_is_caught_by_cross_check() {
    // `x : S --> x : T` is falsifiable: the honest portfolio refutes it.
    let goal = form("x : S --> x : T");
    let cache = Arc::new(GoalCache::new());

    // Dispatcher 1 runs with the watchdog OFF and HOL compelled to claim
    // `Proved` on every attempt (a targeted quiet plan, so the cache stays
    // active). The lie lands in the shared cache.
    let mut liar = Dispatcher::new(sig());
    liar.cache = Some(Arc::clone(&cache));
    liar.config.cross_check = false;
    liar.config.fault_plan = Some(Arc::new(FaultPlan::quiet().inject(
        "dispatch.hol-auto",
        0..u64::MAX,
        Fault::WrongVerdict(Lie::ClaimProved),
    )));
    let lied = liar.prove(&goal);
    assert!(
        lied.is_proved(),
        "setup: the unchecked liar must get its lie through: {lied:?}"
    );
    assert!(!cache.is_empty(), "setup: the lie must be cached");

    // Dispatcher 2 is honest (no fault plan) with the watchdog ON. The
    // cache hit replays `Proved [hol-auto]` — and the confirmation pass,
    // which excludes the claiming prover, refutes or fails to confirm it.
    let mut watchdog = Dispatcher::new(sig());
    watchdog.cache = Some(Arc::clone(&cache));
    watchdog.config.cross_check = true;
    let checked = watchdog.prove(&goal);
    assert!(
        matches!(checked, Verdict::Unknown(_)),
        "the cached lie must be demoted, not replayed: {checked:?}"
    );
    assert_eq!(watchdog.stats.get("cache.hit"), 1);
    assert_eq!(watchdog.stats.get("cache.evicted"), 1);
    assert!(cache.is_empty(), "the poisoned entry must be evicted");

    // With the entry gone, a fresh honest dispatch recomputes the truth.
    let mut honest = Dispatcher::new(sig());
    honest.cache = Some(Arc::clone(&cache));
    honest.config.cross_check = true;
    assert_eq!(
        kind(&honest.prove(&goal)),
        Kind::Refuted,
        "after eviction the honest portfolio refutes the goal"
    );
    assert_eq!(honest.stats.get("cache.hit"), 0);
}

/// Same-seed runs are bit-for-bit reproducible: identical verdict kinds
/// and identical injection counters. This is what makes `JAHOB_CHAOS_SEED`
/// failures replayable bug reports.
#[test]
fn chaos_runs_are_deterministic() {
    let goals = goal_battery();
    let run = |seed: u64| -> (Vec<Kind>, Vec<(String, u64)>) {
        let mut d = Dispatcher::new(sig());
        d.config.fault_plan = Some(Arc::new(FaultPlan::from_seed(seed)));
        d.config.obligation_fuel = 150_000;
        d.config.cross_check = true;
        d.config.bmc_bound = 2;
        d.config.bmc_as_validity = false;
        let kinds = goals.iter().map(|g| kind(&d.prove(g))).collect();
        let mut stats: Vec<(String, u64)> = d
            .stats
            .snapshot()
            .into_iter()
            .filter(|(k, _)| k.starts_with("chaos."))
            .collect();
        stats.sort();
        (kinds, stats)
    };
    for seed in [3u64, 17, 41] {
        assert_eq!(run(seed), run(seed), "seed {seed} not reproducible");
    }
}

/// Disk-fault chaos (ISSUE 6): sweep seeded plans over the persistent
/// proof store's IO boundary. For every seed the pins are the same as for
/// prover faults — verdicts never flip — plus the store's own:
///
/// * a faulted run completes (no panic, no pipeline error) with exactly
///   the fault-free verdicts, at worst from a cold cache;
/// * whatever the faults left on disk, the directory reopens cleanly and
///   a fresh fault-free run still agrees with the baseline.
#[test]
fn seeded_disk_faults_never_corrupt_the_store() {
    use jahob_repro::jahob::Config;

    // Small all-proved source: the sweep is about store IO, not provers.
    const SRC: &str = r#"
class Counter {
   /*:
     public static specvar count :: int;
     invariant "0 <= count";
   */
   private static int c;

   public static void reset()
   /*: modifies count ensures "count = 0" */
   {
      c = 0;
      //: count := "0";
   }

   public static void inc()
   /*: requires "0 <= count" modifies count ensures "count = old count + 1" */
   {
      c = c + 1;
      //: count := "count + 1";
   }
}
"#;

    fn run(
        dir: &std::path::Path,
        plan: Option<Arc<FaultPlan>>,
    ) -> jahob_repro::jahob::VerifyReport {
        let mut builder = Config::builder().workers(1).cache_path(dir);
        if let Some(plan) = plan {
            builder = builder.fault_plan(plan);
        }
        builder.build_verifier().verify(SRC).expect("run completes")
    }
    fn verdicts(report: &jahob_repro::jahob::VerifyReport) -> String {
        report
            .methods
            .iter()
            .map(|m| m.to_json(ReportRender::STABLE))
            .collect::<Vec<_>>()
            .join("\n")
    }
    // Prover faults may legitimately shift which prover discharges a goal
    // (the portfolio routes around a panicking backend) — the chaos
    // invariant is on verdict *kinds*, as in the prover-fault sweep.
    fn kinds(report: &jahob_repro::jahob::VerifyReport) -> Vec<Kind> {
        use jahob_repro::jahob::VerdictSummary;
        report
            .methods
            .iter()
            .flat_map(|m| m.obligations.iter())
            .map(|o| match &o.verdict {
                VerdictSummary::Proved { .. } => Kind::Proved,
                VerdictSummary::Refuted => Kind::Refuted,
                VerdictSummary::Unknown(_) => Kind::Unknown,
            })
            .collect()
    }

    let scratch = std::env::temp_dir().join(format!("jahob-chaos-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Fault-free ground truth (persistence on, pristine directory).
    let baseline_dir = scratch.join("baseline");
    std::fs::create_dir_all(&baseline_dir).expect("scratch dir");
    let truth_report = run(&baseline_dir, None);
    let truth = verdicts(&truth_report);
    let truth_kinds = kinds(&truth_report);

    let base = env_seed().unwrap_or(0);
    let mut store_faults_seen = 0u64;
    for seed in base..base + 16 {
        let dir = scratch.join(format!("seed-{seed}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");

        // Populate cleanly, then rerun twice under the seeded plan: the
        // second faulted run opens (and may mangle) a warm store.
        run(&dir, None);
        for _ in 0..2 {
            let plan = Some(Arc::new(FaultPlan::from_seed(seed)));
            let report = run(&dir, plan);
            for (got, expected) in kinds(&report).iter().zip(&truth_kinds) {
                match got {
                    Kind::Unknown => {} // degraded, never wrong
                    decided => assert_eq!(
                        decided, expected,
                        "seed {seed}: a store/prover fault flipped a verdict"
                    ),
                }
            }
            store_faults_seen += ["store.error", "store.recovered"]
                .iter()
                .map(|k| report.stats.get(*k).copied().unwrap_or(0))
                .sum::<u64>();
        }

        // However the faults left the directory, it reopens cleanly and
        // fault-free verification still agrees with the baseline.
        let healed = run(&dir, None);
        assert_eq!(
            truth,
            verdicts(&healed),
            "seed {seed}: battered directory must reopen to correct verdicts"
        );
    }
    // Each faulted run polls one store site, `store.load` (a seeded plan
    // stands the goal cache down, so nothing is saved), and both runs of
    // a seed replay its decision: at a ≈25% injection rate, 16 quiet
    // seeds happen about once in a hundred windows. Silence means the
    // disk-fault path was never armed.
    assert!(
        store_faults_seen > 0,
        "suspiciously quiet sweep: no store fault ever surfaced"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
