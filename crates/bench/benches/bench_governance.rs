//! Resource-governance overhead: budget plumbing must be invisible on
//! goals that fit comfortably inside their budget.
//!
//! Three measurements: a single prover (BAPA's Venn-region enumeration,
//! the hottest budgeted loop) with and without a live deadline+fuel
//! budget, the whole dispatcher portfolio with and without a
//! per-obligation deadline, and the portfolio with no fault plan vs a
//! quiet one (no plan must be free: one `Option` test per attempt).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jahob_bench::bapa_union_bound;
use jahob_logic::{form, Form, Sort};
use jahob_util::budget::Budget;
use jahob_util::{FxHashMap, Symbol};
use std::time::Duration;

fn bapa_sig() -> FxHashMap<Symbol, Sort> {
    (1..=8)
        .map(|i| (Symbol::intern(&format!("B{i}")), Sort::objset()))
        .collect()
}

fn bench_budget_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("governance/bapa_budget_overhead");
    group.sample_size(10);
    let sig = bapa_sig();
    for k in [2usize, 3, 4] {
        let goal = bapa_union_bound(k);
        group.bench_with_input(BenchmarkId::new("unlimited", k), &goal, |b, g| {
            b.iter(|| assert_eq!(jahob_bapa::bapa_valid(g, &sig), Ok(true)))
        });
        group.bench_with_input(BenchmarkId::new("governed", k), &goal, |b, g| {
            b.iter(|| {
                let budget = Budget::new(Some(Duration::from_secs(10)), 50_000_000);
                assert_eq!(jahob_bapa::bapa_valid_budgeted(g, &sig, &budget), Ok(true))
            })
        });
    }
    group.finish();
}

fn bench_governed_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("governance/dispatch_portfolio");
    group.sample_size(10);
    let mut sig: FxHashMap<Symbol, Sort> = FxHashMap::default();
    for (n, s) in [
        ("S", Sort::objset()),
        ("T", Sort::objset()),
        ("i", Sort::Int),
        ("j", Sort::Int),
    ] {
        sig.insert(Symbol::intern(n), s);
    }
    let goals: Vec<Form> = [
        "i < j --> i + 1 <= j",
        "S Int T <= S",
        "card (S Un T) <= card S + card T",
    ]
    .iter()
    .map(|s| form(s))
    .collect();
    for (name, timeout) in [
        ("ungoverned", None),
        ("deadline_1s", Some(Duration::from_secs(1))),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &timeout, |b, t| {
            b.iter(|| {
                let mut d = jahob::Dispatcher::new(sig.clone());
                d.config.obligation_timeout = *t;
                for g in &goals {
                    assert!(d.prove(g).is_proved());
                }
            })
        });
    }
    group.finish();
}

/// Chaos-layer overhead on the dispatch portfolio. `unarmed` is the
/// shipped configuration — no fault plan, so each attempt's `dispatch.*`
/// site costs one `Option` test; `armed_quiet` gives the dispatcher a
/// plan with no faults scheduled, pricing the decision path itself. The
/// acceptance bar is `unarmed` within 1% of the pre-chaos portfolio
/// numbers (`dispatch_portfolio/ungoverned` above).
fn bench_chaos_overhead(c: &mut Criterion) {
    use jahob::FaultPlan;
    use std::sync::Arc;
    let mut group = c.benchmark_group("governance/chaos_overhead");
    group.sample_size(10);
    let mut sig: FxHashMap<Symbol, Sort> = FxHashMap::default();
    for (n, s) in [
        ("S", Sort::objset()),
        ("T", Sort::objset()),
        ("i", Sort::Int),
        ("j", Sort::Int),
    ] {
        sig.insert(Symbol::intern(n), s);
    }
    let goals: Vec<Form> = [
        "i < j --> i + 1 <= j",
        "S Int T <= S",
        "card (S Un T) <= card S + card T",
    ]
    .iter()
    .map(|s| form(s))
    .collect();
    for (name, plan) in [
        ("unarmed", None),
        ("armed_quiet", Some(Arc::new(FaultPlan::quiet()))),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &plan, |b, p| {
            b.iter(|| {
                let mut d = jahob::Dispatcher::new(sig.clone());
                d.config.fault_plan = p.clone();
                for g in &goals {
                    assert!(d.prove(g).is_proved());
                }
            })
        });
    }
    group.finish();
}

/// The goal cache on a real workload, in its two roles. `cold` is a
/// from-scratch run with the cache off. `warm_rerun` is re-verification
/// with a cache pre-warmed by one full run (the interactive
/// edit-and-recheck loop from §6 of the paper): every proof replays
/// instead of re-dispatching, which is where the README "Performance"
/// number comes from. Verdicts are identical either way (see
/// `tests/goal_cache.rs::hits_never_flip_a_verdict`).
fn bench_goal_cache(c: &mut Criterion) {
    use jahob::Config;
    let mut group = c.benchmark_group("governance/goal_cache");
    group.sample_size(10);
    let src = std::fs::read_to_string("../../case_studies/list.javax")
        .or_else(|_| std::fs::read_to_string("case_studies/list.javax"))
        .expect("case_studies/list.javax");
    group.bench_function("cold", |b| {
        b.iter(|| {
            let verifier = Config::builder()
                .workers(1)
                .goal_cache(false)
                .build_verifier();
            let report = verifier.verify(&src).expect("pipeline");
            assert!(report.methods.iter().all(|m| m.error.is_none()));
        })
    });
    // One session, kept warm across iterations: the interactive loop.
    let warm = Config::builder()
        .workers(1)
        .goal_cache(true)
        .build_verifier();
    warm.verify(&src).expect("warm-up run");
    assert!(
        warm.goal_cache().is_some_and(|cache| !cache.is_empty()),
        "warm-up must populate the cache"
    );
    group.bench_function("warm_rerun", |b| {
        b.iter(|| {
            let report = warm.verify(&src).expect("pipeline");
            assert!(report.methods.iter().all(|m| m.error.is_none()));
            assert!(report.stats.get("cache.hit").copied().unwrap_or(0) > 0);
        })
    });
    group.finish();
}

/// Observability overhead on the full pipeline. `sink_off` is the shipped
/// configuration — every potential recording site costs one pointer test
/// and no event is ever built; the acceptance bar is noise-level overhead
/// against the pre-observability pipeline. `sink_on` buffers, assembles,
/// canonicalizes, and serializes the complete event stream into a
/// discarding sink, pricing the fully-enabled path.
fn bench_observability_overhead(c: &mut Criterion) {
    use jahob::{Config, NullSink};
    use std::sync::Arc;
    let mut group = c.benchmark_group("governance/observability");
    group.sample_size(10);
    let src = std::fs::read_to_string("../../case_studies/list.javax")
        .or_else(|_| std::fs::read_to_string("case_studies/list.javax"))
        .expect("case_studies/list.javax");
    group.bench_function("sink_off", |b| {
        let verifier = Config::builder().workers(1).build_verifier();
        b.iter(|| {
            let report = verifier.verify(&src).expect("pipeline");
            assert!(report.methods.iter().all(|m| m.error.is_none()));
        })
    });
    group.bench_function("sink_on", |b| {
        let verifier = Config::builder()
            .workers(1)
            .sink(Arc::new(NullSink))
            .build_verifier();
        b.iter(|| {
            let report = verifier.verify(&src).expect("pipeline");
            assert!(report.methods.iter().all(|m| m.error.is_none()));
        })
    });
    group.finish();
}

/// The persistent proof store on a real workload, cross-process (ISSUE
/// 6): `cold` verifies into a fresh store directory every iteration;
/// `warm_restart` builds a brand-new session per iteration — exactly what
/// a second process does — over a directory populated once up front, so
/// every proof replays from disk. No speed ratio is asserted; the asserts
/// check verdicts and store replay.
fn bench_persistent_cache(c: &mut Criterion) {
    use jahob::Config;
    let mut group = c.benchmark_group("governance/persistent_cache");
    group.sample_size(10);
    let src = std::fs::read_to_string("../../case_studies/list.javax")
        .or_else(|_| std::fs::read_to_string("case_studies/list.javax"))
        .expect("case_studies/list.javax");
    let scratch = std::env::temp_dir().join(format!("jahob-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let run = |dir: &std::path::Path| {
        let verifier = Config::builder()
            .workers(1)
            .cache_path(dir)
            .build_verifier();
        let report = verifier.verify(&src).expect("pipeline");
        assert!(report.methods.iter().all(|m| m.error.is_none()));
        report
    };

    let cold_dir = scratch.join("cold");
    group.bench_function("cold", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&cold_dir);
            std::fs::create_dir_all(&cold_dir).expect("scratch");
            run(&cold_dir)
        })
    });

    let warm_dir = scratch.join("warm");
    std::fs::create_dir_all(&warm_dir).expect("scratch");
    let populated = run(&warm_dir); // one cold populate, outside the timer
    assert!(
        populated
            .stats
            .get("store.flush.records")
            .copied()
            .unwrap_or(0)
            > 0,
        "populate run must persist proofs"
    );
    group.bench_function("warm_restart", |b| {
        b.iter(|| {
            let report = run(&warm_dir);
            assert!(report.stats.get("store.load.entries").copied().unwrap_or(0) > 0);
            report
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The verification daemon (ISSUE 9): `cold_oneshot` builds a fresh
/// session per iteration — exactly what a one-shot `jahob verify`
/// costs; `warm_daemon` submits the same file to one long-lived
/// `jahob serve` session over its Unix socket, so every proof replays
/// from the warm goal cache and the socket round-trip is all that is
/// added. No speed ratio is asserted; the asserts check report identity
/// and warm cache replay.
fn bench_service(c: &mut Criterion) {
    use jahob::cli::OutputMode;
    use jahob::{Client, Config, Service, SubmitOptions, SubmitOutcome};
    let mut group = c.benchmark_group("governance/service");
    group.sample_size(10);
    let src = std::fs::read_to_string("../../case_studies/list.javax")
        .or_else(|_| std::fs::read_to_string("case_studies/list.javax"))
        .expect("case_studies/list.javax");

    let cold = || {
        let report = Config::builder()
            .workers(1)
            .build_verifier()
            .verify(&src)
            .expect("pipeline");
        assert!(report.methods.iter().all(|m| m.error.is_none()));
        report
    };
    let baseline = cold().to_json(jahob::ReportRender::STABLE);
    group.bench_function("cold_oneshot", |b| b.iter(cold));

    let socket = std::env::temp_dir().join(format!("jahob-bench-svc-{}.sock", std::process::id()));
    let service =
        Service::bind(Config::builder().workers(1).socket(socket.clone()).build()).expect("bind");
    let server = std::thread::spawn(move || service.run().expect("service run"));
    let mut client = Client::connect(&socket).expect("connect");
    let options = SubmitOptions {
        output: OutputMode::Json,
        ..SubmitOptions::default()
    };
    let submit = |client: &mut Client| match client.submit(&src, &options, |_| {}) {
        Ok(SubmitOutcome::Report(text)) => text,
        other => panic!("unexpected submit outcome: {other:?}"),
    };
    // Warm the session outside the timer; the daemon's cold answer is
    // the one-shot answer, byte for byte.
    let first = submit(&mut client);
    assert_eq!(
        first.trim_end(),
        baseline,
        "daemon cold run diverged from one-shot"
    );
    let warmed = submit(&mut client);
    assert!(
        warmed.contains("\"cache.hit\""),
        "warm daemon runs must replay from the session cache"
    );
    group.bench_function("warm_daemon", |b| b.iter(|| submit(&mut client)));
    group.finish();
    client.drain().expect("drain");
    server.join().unwrap();
}

criterion_group!(
    benches,
    bench_budget_overhead,
    bench_governed_dispatch,
    bench_chaos_overhead,
    bench_goal_cache,
    bench_persistent_cache,
    bench_observability_overhead,
    bench_service
);
criterion_main!(benches);
