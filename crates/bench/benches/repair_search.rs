//! Criterion benches for the repair-search hot loop and its parallel
//! evaluation engine.
//!
//! The interesting comparison is the same search at different thread
//! counts: the deterministic merge guarantees identical outcomes, so any
//! timing difference is pure evaluation parallelism. On a single-core
//! machine the thread variants should tie (the pool degrades to the
//! inline sequential path at `threads = 1` and to one worker otherwise).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn prepared(
    id: &str,
) -> (
    minic::Program,
    minic::Program,
    &'static str,
    Vec<testgen::TestCase>,
    minic_exec::Profile,
) {
    let s = benchsuite::subject(id).unwrap();
    let p = s.parse();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let fuzz_cfg = testgen::FuzzConfig::builder()
        .with_idle_stop_min(0.3)
        .with_max_execs(200)
        .build();
    let fr = testgen::fuzz(&p, s.kernel, seeds, &fuzz_cfg, &bench::default_env()).unwrap();
    let broken = heterogen_core::initial_version(&p, &fr.profile);
    (p, broken, s.kernel, fr.corpus, fr.profile)
}

/// The repair search at increasing thread counts on one repair-heavy
/// subject (P3: recursion + resize) and one performance-heavy subject
/// (P6: pragma exploration).
fn bench_search_threads(c: &mut Criterion) {
    for id in ["P3", "P6"] {
        let (p, broken, kernel, corpus, profile) = prepared(id);
        let mut g = c.benchmark_group(format!("repair_search/{id}"));
        g.sample_size(10);
        for threads in [1usize, 2, 4] {
            let sc = repair::SearchConfig::builder()
                .with_budget_min(200.0)
                .with_max_diff_tests(8)
                .with_explore_performance(true)
                .with_threads(threads)
                .build();
            g.bench_function(format!("threads{threads}"), |b| {
                b.iter(|| {
                    repair::repair(
                        black_box(&p),
                        broken.clone(),
                        kernel,
                        &corpus,
                        &profile,
                        &sc,
                        &bench::default_env(),
                    )
                    .unwrap()
                })
            });
        }
        g.finish();
    }
}

/// The structural-fingerprint dedup key against the pretty-print key it
/// replaced: the cost of admitting one candidate to the `seen` set.
fn bench_fingerprint(c: &mut Criterion) {
    let s = benchsuite::subject("P6").unwrap();
    let p = s.parse();
    let mut g = c.benchmark_group("repair_search/dedup_key");
    g.bench_function("fingerprint", |b| {
        b.iter(|| minic::fingerprint_program(black_box(&p)))
    });
    g.bench_function("print_string", |b| {
        b.iter(|| {
            format!(
                "{:?}\n{}",
                black_box(&p).config,
                minic::print_program(black_box(&p))
            )
        })
    });
    g.finish();
}

/// The trace layer's zero-cost-when-off claim: the same search in an `Env`
/// with the monomorphized `NullSink` (emission compiled out) versus one
/// with a disabled `&dyn TraceSink`, the shape `Session` drives. Both must be
/// indistinguishable — the `reproduce -- bench-guard` subcommand enforces
/// the bound in CI.
fn bench_trace_overhead(c: &mut Criterion) {
    let (p, broken, kernel, corpus, profile) = prepared("P3");
    let sc = repair::SearchConfig::builder()
        .with_budget_min(200.0)
        .with_max_diff_tests(8)
        .with_explore_performance(false)
        .with_threads(1)
        .build();
    let env = bench::default_env();
    let mut g = c.benchmark_group("repair_search/trace_overhead");
    g.sample_size(10);
    g.bench_function("untraced", |b| {
        b.iter(|| {
            repair::repair(
                black_box(&p),
                broken.clone(),
                kernel,
                &corpus,
                &profile,
                &sc,
                &env,
            )
            .unwrap()
        })
    });
    let dyn_sink: &dyn heterogen_trace::TraceSink = &heterogen_trace::NullSink;
    let dyn_env = bench::default_env().with_sink(dyn_sink);
    g.bench_function("null_sink", |b| {
        b.iter(|| {
            repair::repair(
                black_box(&p),
                broken.clone(),
                kernel,
                &corpus,
                &profile,
                &sc,
                &dyn_env,
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_search_threads,
    bench_fingerprint,
    bench_trace_overhead
);
criterion_main!(benches);
