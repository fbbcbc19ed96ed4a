//! Criterion benches over the paper's experiment pipelines — one bench per
//! evaluation artifact, so regressions in any stage (fuzzing throughput,
//! repair convergence, ablation gaps) show up as timing changes.
//!
//! Table/figure *values* are regenerated by `cargo run -p bench --bin
//! reproduce`; these benches measure the machinery that produces them.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn fuzz_cfg() -> testgen::FuzzConfig {
    testgen::FuzzConfig::builder()
        .with_idle_stop_min(0.3)
        .with_max_execs(200)
        .build()
}

/// Table 4 machinery: one fuzzing campaign per representative subject.
fn bench_testgen(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments/testgen");
    g.sample_size(10);
    for id in ["P2", "P6", "P10"] {
        let s = benchsuite::subject(id).unwrap();
        let p = s.parse();
        let cfg = fuzz_cfg();
        g.bench_function(id, |b| {
            b.iter(|| {
                testgen::fuzz(
                    black_box(&p),
                    s.kernel,
                    s.seed_inputs.clone(),
                    &cfg,
                    &bench::default_env(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

/// Table 3 machinery: the repair loop per error class (one representative
/// subject each), performance exploration off for stable timing.
fn bench_repair(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments/repair");
    g.sample_size(10);
    for id in ["P1", "P6", "P9"] {
        let s = benchsuite::subject(id).unwrap();
        let p = s.parse();
        let fr = testgen::fuzz(
            &p,
            s.kernel,
            s.seed_inputs.clone(),
            &fuzz_cfg(),
            &bench::default_env(),
        )
        .unwrap();
        let broken = heterogen_core::initial_version(&p, &fr.profile);
        let sc = repair::SearchConfig::builder()
            .with_budget_min(200.0)
            .with_max_diff_tests(8)
            .with_explore_performance(false)
            .build();
        g.bench_function(id, |b| {
            b.iter(|| {
                repair::repair(
                    black_box(&p),
                    broken.clone(),
                    s.kernel,
                    &fr.corpus,
                    &fr.profile,
                    &sc,
                    &bench::default_env(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

/// Figure 9 machinery: the two ablations against the full system on P3.
/// The interesting output is the *ratio* of these three timings.
fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments/fig9_ablation_P3");
    g.sample_size(10);
    let s = benchsuite::subject("P3").unwrap();
    let p = s.parse();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let fr = testgen::fuzz(&p, s.kernel, seeds, &fuzz_cfg(), &bench::default_env()).unwrap();
    let broken = heterogen_core::initial_version(&p, &fr.profile);
    let base = repair::SearchConfig::builder()
        .with_budget_min(200.0)
        .with_max_diff_tests(8)
        .with_explore_performance(false)
        .build();
    let variants = [
        ("heterogen", base.clone()),
        (
            "without_dependence",
            base.clone()
                .to_builder()
                .with_dependence(false)
                .with_budget_min(720.0)
                .build(),
        ),
        (
            "without_checker",
            base.to_builder().with_style_checker(false).build(),
        ),
    ];
    for (name, sc) in variants {
        g.bench_function(name, |b| {
            b.iter(|| {
                repair::repair(
                    black_box(&p),
                    broken.clone(),
                    s.kernel,
                    &fr.corpus,
                    &fr.profile,
                    &sc,
                    &bench::default_env(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

/// End-to-end pipeline (Figure 1) on the quick subjects.
fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments/pipeline");
    g.sample_size(10);
    for id in ["P1", "P7"] {
        let s = benchsuite::subject(id).unwrap();
        let p = s.parse();
        let mut cfg = heterogen_core::PipelineConfig::quick();
        cfg.fuzz = fuzz_cfg();
        cfg.search.budget_min = 200.0;
        cfg.search.max_diff_tests = 8;
        let session = heterogen_core::HeteroGen::builder().config(cfg).build();
        g.bench_function(id, |b| {
            b.iter(|| {
                session
                    .run(heterogen_core::JobSpec::fuzz(
                        black_box(&p).clone(),
                        s.kernel,
                        s.seed_inputs.clone(),
                    ))
                    .unwrap()
            })
        });
    }
    g.finish();
}

/// Figure 3 machinery: corpus generation + classification of 1,000 posts.
fn bench_fig3(c: &mut Criterion) {
    c.bench_function("experiments/fig3_classify_1000", |b| {
        b.iter(|| {
            let corpus = benchsuite::forum::forum_corpus(1000, 42);
            corpus
                .iter()
                .map(|(m, _)| repair::classify_message(black_box(m)))
                .collect::<Vec<_>>()
                .len()
        })
    });
}

criterion_group!(
    benches,
    bench_testgen,
    bench_repair,
    bench_ablations,
    bench_pipeline,
    bench_fig3
);
criterion_main!(benches);
