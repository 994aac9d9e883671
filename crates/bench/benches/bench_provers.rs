//! E8/E9/E10 and the SAT substrate: per-prover scaling benchmarks.
//!
//! * E8 — BAPA's Venn-region blowup: the union cardinality bound with a
//!   growing number of base sets (regions double per set), and BAPA on
//!   each piece of game.javax, narrowed as the dispatcher narrows it, in
//!   µs per piece.
//! * E9 — the Omega test vs Cooper's QE on the same existential family.
//! * E10 — Nelson–Oppen on the classic `fⁿ(a) = a` congruence family.
//! * SAT — pigeonhole instances (the CDCL engine under every prover).
//! * Elaboration — sort inference over the 98 case-study obligations, the
//!   one elaboration the dispatcher runs per obligation, in ns per node.
//! * Front matter — VC generation plus `Dispatcher::prepare` over the five
//!   case studies, the work a warm recheck repeats before any prover runs,
//!   in µs per pass.
//! * Model-finder sessions — every case-study piece that reaches the model
//!   finder, grouped by method, through one session per method and
//!   through a fresh session per piece, in µs per pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jahob_bench::{
    bapa_union_bound, case_study_obligations, case_study_programs, case_study_vcs, elaborate,
    euf_cycle, game_bapa_pieces, lia_interval, lia_interval_cooper, model_finder_pieces,
};
use jahob_logic::{Form, Sort};
use jahob_util::{FxHashMap, Symbol};
use std::time::{Duration, Instant};

fn bapa_sig() -> FxHashMap<Symbol, Sort> {
    (1..=8)
        .map(|i| (Symbol::intern(&format!("B{i}")), Sort::objset()))
        .collect()
}

fn bench_bapa(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8/bapa_union_bound");
    group.sample_size(10);
    let sig = bapa_sig();
    for k in [2usize, 3, 4, 5] {
        let goal = bapa_union_bound(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &goal, |b, g| {
            b.iter(|| assert_eq!(jahob_bapa::bapa_valid(g, &sig), Ok(true)))
        });
    }
    group.finish();
}

/// BAPA's answer on each of [`game_bapa_pieces`], in order: `V` valid,
/// `n` not valid, `-` outside the fragment even after narrowing.
const GAME_BAPA_ANSWERS: &str = "nnnnnnnnnnnnn-------V-n---VV";

fn bench_bapa_game_pieces(c: &mut Criterion) {
    let pieces = game_bapa_pieces();
    let mut group = c.benchmark_group("E8/bapa_game_pieces");
    group.sample_size(20);
    let mut elapsed = Duration::ZERO;
    let mut rounds = 0u32;
    group.bench_function("game", |b| {
        b.iter(|| {
            let started = Instant::now();
            let answers: String = pieces
                .iter()
                .map(|(goal, sig)| match jahob_bapa::bapa_valid(goal, sig) {
                    Ok(true) => 'V',
                    Ok(false) => 'n',
                    Err(_) => '-',
                })
                .collect();
            elapsed += started.elapsed();
            rounds += 1;
            assert_eq!(answers, GAME_BAPA_ANSWERS);
        })
    });
    group.finish();
    if rounds > 0 {
        let per_piece = elapsed.as_micros() as f64 / (f64::from(rounds) * pieces.len() as f64);
        println!(
            "bench E8/bapa_game_pieces: {per_piece:.1} µs/piece ({} pieces)",
            pieces.len()
        );
    }
}

fn bench_presburger(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9/omega_vs_cooper");
    group.sample_size(20);
    for n in [4i64, 16, 64, 256] {
        let system = lia_interval(n);
        group.bench_with_input(BenchmarkId::new("omega", n), &system, |b, s| {
            b.iter(|| jahob_presburger::omega_sat(s))
        });
        let quantified = lia_interval_cooper(n);
        group.bench_with_input(BenchmarkId::new("cooper", n), &quantified, |b, q| {
            b.iter(|| jahob_presburger::decide_closed(q).unwrap())
        });
    }
    group.finish();
}

fn bench_smt(c: &mut Criterion) {
    let mut group = c.benchmark_group("E10/nelson_oppen_euf");
    group.sample_size(10);
    let sig = FxHashMap::default();
    for k in [1usize, 2, 3] {
        let goal = euf_cycle(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &goal, |b, g| {
            b.iter(|| assert_eq!(jahob_smt::smt_valid(g, &sig), Ok(true)))
        });
    }
    group.finish();
}

fn bench_sat(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/sat_pigeonhole");
    group.sample_size(10);
    for holes in [4usize, 5, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(holes), &holes, |b, &holes| {
            b.iter(|| {
                let pigeons = holes + 1;
                let mut s = jahob_sat::Solver::new();
                s.reserve_vars(pigeons * holes);
                let var = |i: usize, j: usize| jahob_sat::Var((i * holes + j) as u32);
                for i in 0..pigeons {
                    let clause: Vec<_> = (0..holes).map(|j| var(i, j).positive()).collect();
                    s.add_clause(&clause);
                }
                for j in 0..holes {
                    for a in 0..pigeons {
                        for b2 in (a + 1)..pigeons {
                            s.add_clause(&[var(a, j).negative(), var(b2, j).negative()]);
                        }
                    }
                }
                assert_eq!(s.solve(), jahob_sat::SolveResult::Unsat);
            })
        });
    }
    group.finish();
}

fn bench_elaboration(c: &mut Criterion) {
    let programs = case_study_obligations();
    let goals: Vec<_> = programs
        .iter()
        .flat_map(|(sig, goals)| goals.iter().map(move |g| (sig, g)))
        .collect();
    let nodes: usize = goals.iter().map(|(_, g)| g.size()).sum();
    let mut group = c.benchmark_group("front/elaborate_obligations");
    group.sample_size(50);
    let mut elapsed = Duration::ZERO;
    let mut rounds = 0u32;
    group.bench_function("case_studies", |b| {
        b.iter(|| {
            let started = Instant::now();
            for (sig, goal) in &goals {
                assert!(elaborate(sig, goal).is_some(), "{goal}");
            }
            elapsed += started.elapsed();
            rounds += 1;
        })
    });
    group.finish();
    let per_node = elapsed.as_nanos() as f64 / (f64::from(rounds) * nodes as f64);
    println!(
        "bench front/elaborate_obligations: {per_node:.0} ns/node ({} obligations, {nodes} nodes)",
        goals.len()
    );
}

/// XOR of the goal-cache keys of the 117 pieces `prepare` makes of the 98
/// case-study obligations. A change to VC generation, simplification,
/// splitting, normalization or fingerprinting that moves any key moves
/// this, and every persisted cache entry with it.
const PIECE_KEYS_XOR: u128 = 0xf545_4817_c0b8_7c5b_b696_ae98_f5de_7611;

fn bench_vcgen_prepare(c: &mut Criterion) {
    let programs = case_study_programs();
    let dispatchers: Vec<_> = programs
        .iter()
        .map(|typed| jahob::Dispatcher::new(typed.sig.clone()))
        .collect();
    let mut group = c.benchmark_group("front/vcgen_prepare");
    group.sample_size(50);
    let mut elapsed = Duration::ZERO;
    let mut rounds = 0u32;
    group.bench_function("case_studies", |b| {
        b.iter(|| {
            let started = Instant::now();
            let (mut obligations, mut pieces, mut keys) = (0, 0, 0u128);
            for (typed, dispatcher) in programs.iter().zip(&dispatchers) {
                for vcs in case_study_vcs(typed) {
                    for ob in &vcs.obligations {
                        obligations += 1;
                        for piece in dispatcher.prepare(&ob.form).pieces {
                            pieces += 1;
                            keys ^= piece.key;
                        }
                    }
                }
            }
            elapsed += started.elapsed();
            rounds += 1;
            assert_eq!((obligations, pieces), (98, 117));
            assert_eq!(keys, PIECE_KEYS_XOR, "piece keys moved: {keys:#x}");
        })
    });
    group.finish();
    let per_pass = elapsed.as_micros() as f64 / f64::from(rounds);
    println!("bench front/vcgen_prepare: {per_pass:.0} µs/pass (98 obligations, 117 pieces)");
}

/// The model finder's answer on each of [`model_finder_pieces`], in
/// order: `V` valid up to universe 3, `C` a counter-model, `-` outside
/// the fragment (the dispatcher then weakens the piece, which this bench
/// leaves out).
const MODEL_FINDER_VERDICTS: &str = "VVVVVVVVVVVVVVVCCCCVV-------VVV----VVVVVVVVVVVVVVV";

/// Each piece's answer, one session per method when `shared`, else a
/// fresh session per piece.
fn model_finder_verdicts(methods: &[Vec<(Form, FxHashMap<Symbol, Sort>)>], shared: bool) -> String {
    let budget = jahob_util::budget::Budget::unlimited();
    let mut verdicts = String::new();
    for pieces in methods {
        let mut session = jahob_models::Session::new();
        for (goal, sig) in pieces {
            if !shared {
                session = jahob_models::Session::new();
            }
            verdicts.push(match session.bmc_valid(goal, sig, 3, &budget) {
                Ok(jahob_models::BmcVerdict::ValidUpTo(_)) => 'V',
                Ok(jahob_models::BmcVerdict::CounterModel(_)) => 'C',
                Err(_) => '-',
            });
        }
    }
    verdicts
}

fn bench_model_sessions(c: &mut Criterion) {
    let methods = model_finder_pieces();
    let pieces: usize = methods.iter().map(Vec::len).sum();
    let mut group = c.benchmark_group("models/method_sessions");
    group.sample_size(10);
    for (name, shared) in [("per_method", true), ("per_piece", false)] {
        let mut elapsed = Duration::ZERO;
        let mut rounds = 0u32;
        group.bench_function(name, |b| {
            b.iter(|| {
                let started = Instant::now();
                let verdicts = model_finder_verdicts(&methods, shared);
                elapsed += started.elapsed();
                rounds += 1;
                assert_eq!(verdicts, MODEL_FINDER_VERDICTS, "{name}");
            })
        });
        if rounds > 0 {
            let per_pass = elapsed.as_micros() as f64 / f64::from(rounds);
            println!(
                "bench models/method_sessions/{name}: {per_pass:.0} µs/pass ({pieces} pieces in {} methods)",
                methods.len()
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bapa,
    bench_bapa_game_pieces,
    bench_presburger,
    bench_smt,
    bench_sat,
    bench_elaboration,
    bench_vcgen_prepare,
    bench_model_sessions
);
criterion_main!(benches);
