//! Golden reports: the `reproduce run <subject> --json` output for P1–P10,
//! rebuilt through the same configuration, backend and job spec and compared
//! byte for byte with the files committed under `tests/golden/`.

use heterogen_core::{HeteroGen, JobSpec};
use heterogen_toolchain::SimBackend;

const REGENERATE: &str = "for p in P1 P2 P3 P4 P5 P6 P7 P8 P9 P10; do \
     cargo run --release -p bench --bin reproduce -- run $p --json tests/golden/$p.json; done";

/// The report `reproduce run <id> --json` writes.
fn report_json(id: &str) -> String {
    let s = benchsuite::subject(id).unwrap_or_else(|| panic!("missing subject {id}"));
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let report = HeteroGen::builder()
        .config(bench::standard_config())
        .backend(SimBackend::default_profile())
        .build()
        .run(JobSpec::builder(s.parse(), s.kernel).seeds(seeds).build())
        .unwrap_or_else(|e| panic!("{id}: pipeline failed: {e}"));
    serde_json::to_string_pretty(&report).expect("serializable report")
}

fn assert_golden(id: &str) {
    let path = format!("{}/tests/golden/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}; regenerate the files with `{REGENERATE}`"));
    let report = report_json(id);
    if report != golden {
        let line = report
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "{id}: report differs from {path} (first difference at {line}). If the change \
             is intended, regenerate the files with `{REGENERATE}`"
        );
    }
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
