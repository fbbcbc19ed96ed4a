//! Golden outputs for P1–P10, rebuilt through the same configuration,
//! backend and job spec as `reproduce` and compared byte for byte with the
//! files committed under `tests/golden/`:
//! - `Pn.json` is the report `reproduce run Pn --json` writes;
//! - `Pn.trace.jsonl` is the JSONL event stream `reproduce trace Pn --json`
//!   writes. Unlike the report, it carries every candidate's fingerprint.

use heterogen_core::{HeteroGen, JobSpec};
use heterogen_toolchain::SimBackend;
use heterogen_trace::JsonlSink;
use std::sync::Arc;

const REGENERATE_REPORTS: &str = "for p in P1 P2 P3 P4 P5 P6 P7 P8 P9 P10; do \
     cargo run --release -p bench --bin reproduce -- run $p --json tests/golden/$p.json; done";

const REGENERATE_TRACES: &str = "for p in P1 P2 P3 P4 P5 P6 P7 P8 P9 P10; do \
     cargo run --release -p bench --bin reproduce -- trace $p --json tests/golden/$p.trace.jsonl; \
     done";

/// One `Session::run` of subject `id` as `reproduce` drives it: untraced
/// (the default sink) as `reproduce run` does, or with every trace event
/// written to `sink` as `reproduce trace` does.
fn run(id: &str, sink: Option<Arc<JsonlSink>>) -> String {
    let s = benchsuite::subject(id).unwrap_or_else(|| panic!("missing subject {id}"));
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let mut builder = HeteroGen::builder()
        .config(bench::standard_config())
        .backend(SimBackend::default_profile());
    if let Some(sink) = sink {
        builder = builder.sink(sink);
    }
    let report = builder
        .build()
        .run(JobSpec::builder(s.parse(), s.kernel).seeds(seeds).build())
        .unwrap_or_else(|e| panic!("{id}: pipeline failed: {e}"));
    serde_json::to_string_pretty(&report).expect("serializable report")
}

/// Panics unless `actual` equals the committed `tests/golden/<file>`,
/// naming the first differing line and the command that regenerates it.
fn assert_matches(file: &str, actual: &str, regenerate: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}; regenerate the files with `{regenerate}`"));
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "{file} differs from {path} (first difference at {line}). If the change \
             is intended, regenerate the files with `{regenerate}`"
        );
    }
}

/// Checks the untraced report, then a traced run's trace and report: the
/// sink must not change what the pipeline reports.
fn assert_golden(id: &str) {
    let report_file = format!("{id}.json");
    assert_matches(&report_file, &run(id, None), REGENERATE_REPORTS);
    let sink = Arc::new(JsonlSink::new());
    let traced_report = run(id, Some(sink.clone()));
    assert_matches(&report_file, &traced_report, REGENERATE_REPORTS);
    assert_matches(
        &format!("{id}.trace.jsonl"),
        &sink.contents(),
        REGENERATE_TRACES,
    );
}

macro_rules! golden {
    ($($name:ident => $id:literal),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                assert_golden($id);
            }
        )*
    };
}

golden! {
    p1 => "P1",
    p2 => "P2",
    p3 => "P3",
    p4 => "P4",
    p5 => "P5",
    p6 => "P6",
    p7 => "P7",
    p8 => "P8",
    p9 => "P9",
    p10 => "P10",
}
