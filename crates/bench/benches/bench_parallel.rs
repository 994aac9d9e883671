//! Parallel pipeline scaling: the whole `Verifier` front door at 1 vs 8
//! workers, and the raw pool overhead (threaded-vs-inline on trivial
//! tasks, pricing thread spawn and the shared counter).
//!
//! On a single-core container the 8-worker number degenerates to the
//! sequential one plus scheduling overhead — CI's multi-core `parallel`
//! job is where the scaling claim is actually checked.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jahob::Config;
use jahob_util::pool;

fn read_study(name: &str) -> String {
    // Criterion runs benches from the crate dir; keep the repo-root path
    // working too so `cargo bench` behaves the same from either place.
    std::fs::read_to_string(format!("../../case_studies/{name}"))
        .or_else(|_| std::fs::read_to_string(format!("case_studies/{name}")))
        .unwrap_or_else(|e| panic!("case_studies/{name}: {e}"))
}

fn bench_worker_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/verify");
    group.sample_size(10);
    // `list` has the most methods of the corpus — the widest fan-out.
    let src = read_study("list.javax");
    for workers in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let verifier = Config::builder()
                        .workers(workers)
                        .goal_cache(true)
                        .build_verifier();
                    let report = verifier.verify(&src).expect("pipeline");
                    assert!(report.methods.iter().all(|m| m.error.is_none()));
                })
            },
        );
    }
    group.finish();
}

/// Pool plumbing priced in isolation: fan 64 trivial tasks out on 1 vs 8
/// threads. At one worker `pool::run` spawns nothing and the calling
/// thread runs every task, as `run_pipeline` does at one worker; at 8 it
/// spawns 7 threads that each take their next index from one atomic
/// counter.
fn bench_pool_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/pool_overhead");
    group.sample_size(10);
    let items: Vec<u64> = (0..64).collect();
    for workers in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let out = pool::run(
                        workers,
                        &items,
                        &(),
                        || (),
                        |(), _, n| n.wrapping_mul(2654435761),
                    );
                    assert!(out.iter().all(|r| r.is_ok()) && out.len() == items.len());
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_worker_scaling, bench_pool_overhead);
criterion_main!(benches);
