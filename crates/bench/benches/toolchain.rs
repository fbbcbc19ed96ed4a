//! Criterion benches for the simulated toolchain: the interpreter, the two
//! checkers (whose real-time cost ratio motivates the paper's §5.3 trick),
//! and the FPGA simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use minic_exec::{ExecEngine, Machine, MachineConfig};
use std::hint::black_box;

fn bench_interpreter(c: &mut Criterion) {
    let mut g = c.benchmark_group("toolchain/interpret");
    for id in ["P3", "P6", "P9"] {
        let s = benchsuite::subject(id).unwrap();
        let p = s.parse();
        let args = s.seed_inputs[0].clone();
        g.bench_function(id, |b| {
            b.iter(|| {
                let mut m = Machine::new(black_box(&p), MachineConfig::cpu()).unwrap();
                m.run_kernel(s.kernel, black_box(&args))
            })
        });
    }
    g.finish();
}

fn bench_checkers(c: &mut Criterion) {
    let mut g = c.benchmark_group("toolchain/check");
    for id in ["P3", "P9"] {
        let s = benchsuite::subject(id).unwrap();
        let p = s.parse();
        g.bench_function(format!("{id}/style"), |b| {
            b.iter(|| hls_sim::check_style(black_box(&p)))
        });
        g.bench_function(format!("{id}/full"), |b| {
            b.iter(|| hls_sim::check_program(black_box(&p)))
        });
    }
    g.finish();
}

fn bench_fpga_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("toolchain/fpga_sim");
    for id in ["P6", "P9"] {
        let s = benchsuite::subject(id).unwrap();
        let manual = s.parse_manual().unwrap();
        let sim = hls_sim::FpgaSimulator::new(&manual, ExecEngine::default()).unwrap();
        let args = s.seed_inputs[0].clone();
        g.bench_function(id, |b| b.iter(|| sim.run(black_box(&args))));
    }
    g.finish();
}

criterion_group!(benches, bench_interpreter, bench_checkers, bench_fpga_sim);
criterion_main!(benches);
