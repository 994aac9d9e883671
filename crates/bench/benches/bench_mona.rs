//! E7: the MONA substitute on scalable WS1S families — tracks (subset
//! chains), quantifier alternation (ladders), list-segment length, and the
//! DFA-minimization ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jahob_mona::segments::{alternation_ladder, list_segment, subset_chain};
use jahob_mona::ws1s::{compile_opts, decide, WsVerdict};
use jahob_util::budget::Budget;

fn bench_subset_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7/subset_chain");
    group.sample_size(10);
    for n in [2usize, 4, 6, 8] {
        let formula = subset_chain(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &formula, |b, f| {
            b.iter(|| {
                assert!(matches!(
                    decide(f, &Budget::unlimited()).unwrap(),
                    WsVerdict::Valid
                ));
            })
        });
    }
    group.finish();
}

fn bench_alternation(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7/alternation_ladder");
    group.sample_size(10);
    for d in [1usize, 2, 3, 4] {
        let formula = alternation_ladder(d);
        group.bench_with_input(BenchmarkId::from_parameter(d), &formula, |b, f| {
            b.iter(|| {
                assert!(matches!(
                    decide(f, &Budget::unlimited()).unwrap(),
                    WsVerdict::Valid
                ));
            })
        });
    }
    group.finish();
}

fn bench_list_segment(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7/list_segment");
    group.sample_size(10);
    for n in [2usize, 4, 6, 8] {
        let formula = list_segment(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &formula, |b, f| {
            b.iter(|| {
                assert!(matches!(
                    decide(f, &Budget::unlimited()).unwrap(),
                    WsVerdict::Valid
                ));
            })
        });
    }
    group.finish();
}

fn bench_minimization_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7/minimize_ablation");
    group.sample_size(10);
    let formula = subset_chain(6);
    group.bench_function("with_minimize", |b| {
        b.iter(|| {
            compile_opts(&formula, true, &Budget::unlimited())
                .unwrap()
                .2
        })
    });
    group.bench_function("without_minimize", |b| {
        b.iter(|| {
            compile_opts(&formula, false, &Budget::unlimited())
                .unwrap()
                .2
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_subset_chain,
    bench_alternation,
    bench_list_segment,
    bench_minimization_ablation
);
criterion_main!(benches);
