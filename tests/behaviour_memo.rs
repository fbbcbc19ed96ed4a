//! The behaviour memo replays pragma-only variants exactly.
//!
//! For every paper subject, the repaired program of a standard run, each
//! of its performance-exploration children and each of their children are
//! evaluated on one shared differential tester, whose memo replays most
//! of them, and again on a fresh tester per program, which simulates
//! everything. The reports must agree bit for bit.

use heterogen_core::{HeteroGen, JobSpec};
use heterogen_toolchain::SimBackend;
use heterogen_trace::NullSink;
use repair::{performance_edits, DiffReport, DifferentialTester};

/// The backend the suite runs under: `HETEROGEN_ENGINE=treewalk` builds it
/// on the reference interpreter (CI runs the suite once per engine); the
/// default is the bytecode VM.
fn backend_under_test() -> SimBackend {
    let engine = std::env::var("HETEROGEN_ENGINE")
        .ok()
        .map(|v| v.parse().expect("valid HETEROGEN_ENGINE"))
        .unwrap_or_default();
    SimBackend::default_profile().with_engine(engine)
}

/// The repaired program, then each applicable performance edit's child
/// followed by that child's own children.
fn pragma_family(repaired: &minic::Program) -> Vec<minic::Program> {
    let mut family = vec![repaired.clone()];
    for edit in performance_edits(repaired) {
        let Some(child) = edit.apply(repaired) else {
            continue;
        };
        let grandchildren: Vec<minic::Program> = performance_edits(&child)
            .iter()
            .filter_map(|e| e.apply(&child))
            .collect();
        family.push(child);
        family.extend(grandchildren);
    }
    family
}

fn bits(r: DiffReport) -> (u64, u64) {
    (r.pass_ratio.to_bits(), r.fpga_latency_ms.to_bits())
}

#[test]
fn pragma_variants_replay_bit_identically() {
    let backend = backend_under_test();
    let cfg = bench::standard_config();
    let mut replays = 0;
    for id in ["P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10"] {
        let s = benchsuite::subject(id).unwrap();
        let original = s.parse();
        let mut seeds = s.seed_inputs.clone();
        seeds.extend(s.existing_tests.clone());
        let report = HeteroGen::builder()
            .config(cfg.clone())
            .backend(backend.clone())
            .build()
            .run(
                JobSpec::builder(original.clone(), s.kernel)
                    .seeds(seeds)
                    .build(),
            )
            .unwrap_or_else(|e| panic!("{id}: pipeline failed: {e}"));
        let tester = || {
            DifferentialTester::with_engine(
                &original,
                s.kernel,
                &report.tests,
                cfg.search.max_diff_tests,
                2,
                backend.engine(),
            )
            .unwrap()
        };
        let shared = tester();
        for (i, p) in pragma_family(&report.program).iter().enumerate() {
            let memoized = shared.evaluate_with(&backend, p, &NullSink);
            let simulated = tester().evaluate_with(&backend, p, &NullSink);
            assert_eq!(bits(memoized), bits(simulated), "{id}: program {i}");
        }
        replays += shared.memo_stats().replays;
    }
    assert!(replays > 0, "the shared tester never replayed");
}
