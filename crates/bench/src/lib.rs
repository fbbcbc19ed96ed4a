//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§6). The `reproduce` binary prints them; the Criterion
//! benches and the workspace integration tests drive the same entry points.
//!
//! Absolute numbers come from the simulated toolchain (see DESIGN.md); the
//! *shapes* — who wins, what fails, where the ablations bite — are the
//! reproduction targets, recorded in EXPERIMENTS.md.

use benchsuite::Subject;
use heterogen_core::{HeteroGen, JobSpec, PipelineConfig, PipelineReport};
use heterogen_toolchain::{Env, SimBackend};
use heterogen_trace::NullSink;
use minic_exec::ExecEngine;
use repair::DifferentialTester;
use serde::Serialize;

pub mod experiments;

pub use experiments::*;

/// The standard experiment configuration: paper-like budgets on the
/// simulated clock (3 h repair budget), quick real-time settings.
pub fn standard_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::quick();
    cfg.fuzz.idle_stop_min = 1.0;
    cfg.fuzz.max_execs = 800;
    cfg.search.budget_min = 180.0;
    cfg
}

/// The default evaluation context: the default backend profile on the
/// default engine, with tracing, faults and persistence off.
pub fn default_env() -> Env<SimBackend> {
    Env::new(SimBackend::default_profile())
}

/// Runs the full HeteroGen pipeline on one subject.
pub fn run_subject(s: &Subject, cfg: &PipelineConfig) -> PipelineReport {
    let p = s.parse();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    HeteroGen::builder()
        .config(cfg.clone())
        .build()
        .run(JobSpec::fuzz(p, s.kernel, seeds))
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", s.id))
}

/// Measures a program's mean FPGA latency over a test suite (for the
/// manual versions in Table 5).
pub fn fpga_latency_ms(
    original: &minic::Program,
    candidate: &minic::Program,
    kernel: &str,
    tests: &[testgen::TestCase],
) -> f64 {
    let d = DifferentialTester::with_engine(original, kernel, tests, 24, 1, ExecEngine::default())
        .expect("reference executes");
    d.evaluate_with(&SimBackend::default_profile(), candidate, &NullSink)
        .fpga_latency_ms
}

/// A plain-text table printer with padded columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", c, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Serializable experiment bundle for `reproduce --json`.
#[derive(Debug, Serialize, Default)]
pub struct ExperimentBundle {
    /// Figure 3 category tallies.
    pub fig3: Option<Vec<Fig3Row>>,
    /// Table 3 rows.
    pub table3: Option<Vec<Table3Row>>,
    /// Table 4 rows.
    pub table4: Option<Vec<Table4Row>>,
    /// Table 5 rows.
    pub table5: Option<Vec<Table5Row>>,
    /// Figure 8 result.
    pub fig8: Option<Fig8Result>,
    /// Figure 9 rows.
    pub fig9: Option<Vec<Fig9Row>>,
}
