//! E1–E6 and E11–E13: whole-system benchmarks.
//!
//! * E1–E5 — end-to-end verification time of each case study.
//! * E6 — the goal-decomposition ablation (portfolio split on/off).
//! * E11 — field constraint analysis: derived-field elimination cost.
//! * E12 — Houdini candidate-count sweep.
//! * E13 — bug finding: counter-model search on the seeded mutant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jahob_bench::*;
use jahob_util::budget::Budget;

fn bench_case_studies(c: &mut Criterion) {
    let mut group = c.benchmark_group("E1-E5/case_studies");
    group.sample_size(10);
    for (name, src) in [
        ("E1_list", list_source()),
        ("E2_client", client_source()),
        ("E3_assoclist", assoclist_source()),
        ("E4_globalset", globalset_source()),
        ("E5_game", game_source()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = jahob::Config::builder()
                    .build_verifier()
                    .verify(src)
                    .unwrap();
                report.tally()
            })
        });
    }
    group.finish();
}

fn bench_decomposition_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("E6/decomposition_ablation");
    group.sample_size(10);
    for (name, decompose) in [("split", true), ("whole", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let verifier = jahob::Config::builder()
                    .dispatch(jahob::DispatchConfig {
                        decompose,
                        ..Default::default()
                    })
                    .build_verifier();
                verifier.verify(game_source()).unwrap().tally()
            })
        });
    }
    group.finish();
}

fn bench_fca(c: &mut Criterion) {
    let mut group = c.benchmark_group("E11/field_constraint_analysis");
    group.sample_size(20);
    let goal = jahob_logic::form(
        "data n1 = data n2 & rtrancl_pt (% x y. next x = y) first n1 \
         & rtrancl_pt (% x y. next x = y) first n2 --> n1 = n2",
    );
    let field = jahob_util::Symbol::intern("data");
    group.bench_function("eliminate_data_field", |b| {
        b.iter(|| {
            let out = jahob_fca::eliminate_field(&goal, field, None);
            assert!(out.rewrites >= 2);
            out
        })
    });
    group.finish();
}

fn bench_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("E12/houdini_candidates");
    group.sample_size(10);
    use jahob_logic::Form;
    for k in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                // Candidates g ≤ c for c in 0..k over the loop g := g + 1
                // with guard g < k: only c = k survives... every c < k dies.
                let candidates: Vec<Form> = (0..=k as i64)
                    .map(|c| Form::binop(jahob_logic::BinOp::Le, Form::v("g"), Form::IntLit(c)))
                    .collect();
                let relation = jahob_logic::form(&format!("g2 = g + 1 & g + 1 <= {k}"));
                let kept = jahob_shape::houdini(
                    &candidates,
                    &mut |cand| {
                        jahob_presburger::translate::decide_valid(
                            &Form::implies(jahob_logic::form("g = 0"), cand.clone()),
                            &Budget::unlimited(),
                        )
                        .unwrap_or(false)
                    },
                    &mut |kept, cand| {
                        let primed = cand.subst1(jahob_util::Symbol::intern("g"), &Form::v("g2"));
                        let hyp = Form::and(
                            kept.iter()
                                .cloned()
                                .chain(std::iter::once(relation.clone()))
                                .collect(),
                        );
                        jahob_presburger::translate::decide_valid(
                            &Form::implies(hyp, primed),
                            &Budget::unlimited(),
                        )
                        .unwrap_or(false)
                    },
                );
                assert!(!kept.is_empty());
                kept.len()
            })
        });
    }
    group.finish();
}

fn bench_bug_finding(c: &mut Criterion) {
    let mut group = c.benchmark_group("E13/bug_finding");
    group.sample_size(10);
    group.bench_function("broken_add_countermodel", |b| {
        b.iter(|| {
            let report = jahob::Config::builder()
                .build_verifier()
                .verify(broken_add_source())
                .unwrap();
            let (_, refuted, _) = report.tally();
            assert!(refuted > 0);
            refuted
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_case_studies,
    bench_decomposition_ablation,
    bench_fca,
    bench_shape,
    bench_bug_finding
);
criterion_main!(benches);
