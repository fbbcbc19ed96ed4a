//! Inputs that used to abort the whole process — a struct that contains
//! itself by value, nesting deep enough to exhaust the stack — surface as
//! typed errors instead, through `Session::run` and through the job server
//! alike; and the deepest input the parser accepts runs end to end.

use heterogen_core::{HeteroGen, JobSpec, PipelineConfig, PipelineError, Session};
use heterogen_server::{Server, ServerConfig};
use minic::MAX_NESTING;

fn tiny_pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::quick();
    cfg.fuzz.idle_stop_min = 0.2;
    cfg.fuzz.max_execs = 80;
    cfg.fuzz.threads = 1;
    cfg.search.threads = 1;
    cfg.search.budget_min = 120.0;
    cfg
}

fn session() -> Session {
    HeteroGen::builder().config(tiny_pipeline()).build()
}

/// P8 with one `*` deleted: `struct LNode* next;` becomes a by-value
/// field, so `LNode` contains itself. It parses and used to pass type
/// checking, then overflowed the stack of whatever sized it.
fn p8_self_containing() -> JobSpec {
    let s = benchsuite::subject("P8").expect("P8 exists");
    let src = s
        .source
        .replacen("struct LNode* next;", "struct LNode next;", 1);
    assert_ne!(src, s.source, "the mutation applies");
    let p = minic::parse(&src).expect("the mutant parses");
    JobSpec::fuzz(p, s.kernel, s.seed_inputs.clone())
}

fn assert_names_lnode(err: &PipelineError) {
    match err {
        PipelineError::Spec(m) => assert!(m.contains("`LNode`"), "{m}"),
        other => panic!("expected a spec error naming the struct, got {other:?}"),
    }
}

#[test]
fn self_containing_struct_is_a_spec_error() {
    let err = session().run(p8_self_containing()).unwrap_err();
    assert_names_lnode(&err);
}

#[test]
fn self_containing_struct_fails_only_its_own_server_job() {
    let server = Server::start(
        ServerConfig::builder()
            .with_workers(1)
            .with_pipeline(tiny_pipeline())
            .build(),
    );
    let good = || {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        JobSpec::fuzz(p, "kernel", vec![])
    };
    let before = server.submit(good()).unwrap();
    let bad = server.submit(p8_self_containing()).unwrap();
    let after = server.submit(good()).unwrap();
    assert_names_lnode(&bad.wait().report.unwrap_err());
    assert!(before.wait().report.is_ok());
    assert!(after.wait().report.is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
}

/// A kernel whose statement nesting and expression nesting both reach
/// exactly [`MAX_NESTING`]: `extra` more levels of each.
fn deep_kernel(extra: usize) -> String {
    // The body's `k` nested blocks sit at depths 1..=k, `x++;` inside them
    // at k + 1 and its expression at k + 2. `return` is depth 1, its
    // expression depth 2, and each prefix minus one more.
    let k = MAX_NESTING - 2 + extra;
    let minuses = MAX_NESTING - 2 + extra;
    format!(
        "int kernel(int x) {{ {}x++;{} return {}x; }}",
        "{ ".repeat(k),
        " }".repeat(k),
        "- ".repeat(minuses),
    )
}

#[test]
fn deepest_accepted_program_runs_end_to_end() {
    assert!(minic::parse(&deep_kernel(1)).is_err(), "one level over");
    let p = minic::parse(&deep_kernel(0)).expect("exactly at the limit");
    let report = session()
        .run(JobSpec::fuzz(p, "kernel", vec![]))
        .expect("the pipeline handles the deepest accepted input");
    assert!(report.testgen.tests > 0);
}
