//! Cross-crate checks of the experiment shapes (Figures 3/8, Tables 3/5,
//! HeteroRefactor scope). The heavyweight Figure 9 sweep lives in the
//! `reproduce` binary; a single-subject ablation is asserted here.

use heterogen_toolchain::{Env, SimBackend};
use heterogen_trace::NullSink;
use minic_exec::ExecEngine;
use repair::SearchConfig;

#[test]
fn fig3_classifier_recovers_the_pie() {
    let corpus = benchsuite::forum::forum_corpus(1000, 42);
    assert_eq!(corpus.len(), 1000);
    let accuracy = repair::classify::accuracy(&corpus);
    assert!(accuracy > 0.9, "classifier accuracy {accuracy}");
    for c in hls_sim::ErrorCategory::ALL {
        let share = corpus
            .iter()
            .filter(|(m, _)| repair::classify_message(m) == c)
            .count() as f64
            / 1000.0;
        assert!(
            (share - c.forum_share()).abs() < 0.05,
            "{c}: classified share {share} vs paper {}",
            c.forum_share()
        );
    }
}

#[test]
fn heterorefactor_transpiles_exactly_p3_and_p8() {
    let mut works = Vec::new();
    for s in benchsuite::subjects() {
        if heterorefactor::refactor(&s.parse()).success {
            works.push(s.id);
        }
    }
    assert_eq!(works, vec!["P3", "P8"], "paper: 2/10 vs HeteroGen 10/10");
}

#[test]
fn fig8_existing_tests_miss_the_stack_divergence() {
    let s = benchsuite::subject("P3").unwrap();
    let p = s.parse();
    let mut cfg = heterogen_core::PipelineConfig::quick();
    cfg.fuzz.idle_stop_min = 0.5;
    cfg.fuzz.max_execs = 400;

    // Repair guided only by the shallow pre-existing tests: succeeds on its
    // own terms…
    let session = heterogen_core::HeteroGen::builder().config(cfg).build();
    let existing_run = session
        .run(heterogen_core::JobSpec::with_tests(
            p.clone(),
            s.kernel,
            s.existing_tests.clone(),
        ))
        .unwrap();
    assert!(existing_run.success());

    // …but the generated suite exposes the undersized stack.
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let generated_run = session
        .run(heterogen_core::JobSpec::fuzz(p.clone(), s.kernel, seeds))
        .unwrap();
    assert!(generated_run.success());

    let tester = repair::DifferentialTester::with_engine(
        &p,
        s.kernel,
        &generated_run.tests,
        64,
        1,
        ExecEngine::default(),
    )
    .unwrap();
    let on_existing_output = tester.evaluate_with(
        &SimBackend::default_profile(),
        &existing_run.program,
        &NullSink,
    );
    let on_generated_output = tester.evaluate_with(
        &SimBackend::default_profile(),
        &generated_run.program,
        &NullSink,
    );
    assert!(
        on_existing_output.pass_ratio < 1.0,
        "the existing-tests-only output must diverge on deeper inputs (paper: 44% fail)"
    );
    assert_eq!(on_generated_output.pass_ratio, 1.0);
}

#[test]
fn checker_ablation_avoids_compilations() {
    let s = benchsuite::subject("P3").unwrap();
    let p = s.parse();
    let fuzz_cfg = testgen::FuzzConfig::builder()
        .with_idle_stop_min(0.5)
        .with_max_execs(400)
        .build();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let fr = testgen::fuzz(
        &p,
        s.kernel,
        seeds,
        &fuzz_cfg,
        &Env::new(SimBackend::default_profile()),
    )
    .unwrap();
    let broken = heterogen_core::initial_version(&p, &fr.profile);

    let base = SearchConfig::builder()
        .with_budget_min(180.0)
        .with_max_diff_tests(12)
        .build();
    let hg = repair::repair(
        &p,
        broken.clone(),
        s.kernel,
        &fr.corpus,
        &fr.profile,
        &base,
        &Env::new(SimBackend::default_profile()),
    )
    .unwrap();
    let wc = repair::repair(
        &p,
        broken,
        s.kernel,
        &fr.corpus,
        &fr.profile,
        &base.to_builder().with_style_checker(false).build(),
        &Env::new(SimBackend::default_profile()),
    )
    .unwrap();
    assert!(hg.success && wc.success);
    assert!(
        hg.stats.style_rejects > 0,
        "the style checker must prune part of the search space"
    );
    assert!(
        hg.stats.hls_invocation_ratio() < 1.0,
        "HeteroGen avoids a fraction of full compilations (paper: 75% on P3)"
    );
    assert_eq!(wc.stats.style_checks, 0);
    assert!(
        (wc.stats.hls_invocation_ratio() - 1.0).abs() < f64::EPSILON,
        "WithoutChecker compiles every candidate"
    );
}

#[test]
fn table5_manual_versions_beat_the_cpu_where_the_paper_says() {
    // The manual HLS ports must win on loop-bearing subjects; P1 (no loops)
    // is the model's documented exception.
    for id in ["P4", "P7", "P9"] {
        let s = benchsuite::subject(id).unwrap();
        let p = s.parse();
        let manual = s.parse_manual().unwrap();
        let tests: Vec<testgen::TestCase> = s.seed_inputs.clone();
        let tester = repair::DifferentialTester::with_engine(
            &p,
            s.kernel,
            &tests,
            8,
            1,
            ExecEngine::default(),
        )
        .unwrap();
        let r = tester.evaluate_with(&SimBackend::default_profile(), &manual, &NullSink);
        assert_eq!(r.pass_ratio, 1.0, "{id}: manual version diverges");
        assert!(
            r.fpga_latency_ms < tester.cpu_latency_ms(),
            "{id}: manual {:.4} ms vs CPU {:.4} ms",
            r.fpga_latency_ms,
            tester.cpu_latency_ms()
        );
    }
}

#[test]
fn table1_examples_classify_to_their_category() {
    for (category, _code, symptom) in hls_sim::errors::table1_examples() {
        assert_eq!(repair::classify_message(symptom), category, "{symptom}");
    }
}
