//! Behaviour preservation via differential testing (paper §5.3).
//!
//! The original C program runs on the CPU interpreter once per test to form
//! the reference; each repair candidate is simulated on the FPGA side and
//! compared. "HeteroGen computes the ratio of tests that have identical
//! behavior, and compares the simulation latency … between CPU and FPGA."
//!
//! # Behaviour memo
//!
//! Performance exploration keeps adding pragma variants of one design, and
//! pragmas do not change what a simulation computes. A tester therefore
//! remembers, for as long as it lives (one repair job), each fault-free
//! simulation under the candidate's pragma-blind behaviour key
//! ([`minic::fingerprint_behaviour`]) and the test index. A later
//! candidate with the same key is replayed ([`hls_sim::replay`]): its
//! outputs and loop counts are reused, its op count repriced by its own
//! pragma statements and its latency re-estimated with its own pragmas —
//! exactly what a real run returns, so reports and traces are unchanged.
//! Look-ups and inserts happen on the calling thread, around the worker
//! pool; [`MemoStats`] counts every decision.

use heterogen_faults::{FaultInjector, ResilienceStats, RetryPolicy};
use heterogen_toolchain::{Env, Resilient, Toolchain};
use heterogen_trace::{Event, TraceSink};
use hls_sim::{BaseRun, Fallback, PragmaCover, SimResult};
use minic::Program;
use minic_exec::{CpuCostModel, ExecEngine, MachineConfig, Outcome, Prepared};
use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use testgen::TestCase;

/// Result of differentially testing one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffReport {
    /// Fraction of tests with identical observable behaviour.
    pub pass_ratio: f64,
    /// Mean FPGA latency over the tests (ms).
    pub fpga_latency_ms: f64,
}

impl DiffReport {
    /// The score of a candidate the backend cannot simulate at all.
    const UNSIMULATABLE: DiffReport = DiffReport {
        pass_ratio: 0.0,
        fpga_latency_ms: f64::INFINITY,
    };
}

/// How a tester's behaviour memo settled each test simulation: one
/// decision per test of every simulatable candidate evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Replayed from a stored run: nothing ran on the simulator.
    pub replays: u64,
    /// First simulation of this behaviour and test: ran for real.
    pub misses: u64,
    /// Ran for real: an uncovered pragma in the stored or the new program.
    pub uncovered_pragma: u64,
    /// Ran for real: the stored run trapped.
    pub trapped: u64,
    /// Ran for real: the repriced op count reached the fuel limit.
    pub fuel: u64,
    /// Ran for real: the backend keeps no run record.
    pub no_run_record: u64,
    /// Ran for real: faults were injected, so the memo was not consulted.
    pub faults_enabled: u64,
}

impl MemoStats {
    fn fall_back(&mut self, reason: Fallback) {
        match reason {
            Fallback::UncoveredPragma => self.uncovered_pragma += 1,
            Fallback::Trapped => self.trapped += 1,
            Fallback::Fuel => self.fuel += 1,
            Fallback::NoRunRecord => self.no_run_record += 1,
        }
    }

    /// Every counter by name, in reporting order.
    pub fn rows(&self) -> [(&'static str, u64); 7] {
        [
            ("replays", self.replays),
            ("misses", self.misses),
            ("fallback.uncovered_pragma", self.uncovered_pragma),
            ("fallback.trapped", self.trapped),
            ("fallback.fuel", self.fuel),
            ("fallback.no_run_record", self.no_run_record),
            ("fallback.faults_enabled", self.faults_enabled),
        ]
    }
}

/// Memo key: behaviour fingerprint pair, backend identity, test index.
type MemoKey = (u64, u64, u64, usize);

/// The behaviour memo: per key, the stored run stripped of its pragma
/// executions, or why it cannot be replayed.
#[derive(Debug, Default)]
struct Memo {
    runs: HashMap<MemoKey, Result<BaseRun, Fallback>>,
    stats: MemoStats,
}

/// Precomputed CPU reference outcomes for a test suite.
#[derive(Debug)]
pub struct DifferentialTester {
    tests: Vec<TestCase>,
    reference: Vec<Outcome>,
    cpu_latency_ms: f64,
    threads: usize,
    memo: Mutex<Memo>,
}

impl DifferentialTester {
    /// Runs the original program on `engine` for every test (capped at
    /// `max_tests`) and records the reference outcomes. The reference runs
    /// — and later candidate simulations — use up to `threads` workers
    /// (`0` = available parallelism). Per-test results are merged back in
    /// test order, so latency sums accumulate in the same order as the
    /// sequential loop and the reported numbers are bit-identical for every
    /// thread count and either engine.
    ///
    /// # Errors
    ///
    /// Fails when the original program cannot be executed at all.
    pub fn with_engine(
        original: &Program,
        kernel: &str,
        tests: &[TestCase],
        max_tests: usize,
        threads: usize,
        engine: ExecEngine,
    ) -> Result<DifferentialTester, String> {
        let tests: Vec<TestCase> = tests.iter().take(max_tests.max(1)).cloned().collect();
        if tests.is_empty() {
            return Err("differential testing needs at least one test".to_string());
        }
        let cost = CpuCostModel::new();
        let prepared = Prepared::new(engine, original);
        let runs: Vec<Result<(Outcome, f64), String>> =
            parallel::parallel_map(threads, &tests, |_, t| {
                let mut m = prepared
                    .runner(MachineConfig::cpu())
                    .map_err(|e| format!("reference machine: {e}"))?;
                let before = m.ops();
                let out = m.run_kernel(kernel, t);
                Ok((out, cost.latency_ms(m.ops() - before)))
            });
        let mut reference = Vec::with_capacity(tests.len());
        let mut total_ms = 0.0;
        for run in runs {
            let (out, ms) = run?;
            total_ms += ms;
            reference.push(out);
        }
        Ok(DifferentialTester {
            cpu_latency_ms: total_ms / tests.len() as f64,
            tests,
            reference,
            threads,
            memo: Mutex::default(),
        })
    }

    /// How the behaviour memo has settled this tester's simulations so far.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo().stats
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.memo.lock().expect("behaviour memo poisoned")
    }

    /// Number of tests in play.
    pub fn test_count(&self) -> usize {
        self.tests.len()
    }

    /// The capped test suite the tester evaluates against, in order —
    /// exactly the inputs a persisted verdict for this tester must be
    /// keyed on.
    pub fn tests(&self) -> &[TestCase] {
        &self.tests
    }

    /// Mean CPU latency of the original program over the tests (ms).
    pub fn cpu_latency_ms(&self) -> f64 {
        self.cpu_latency_ms
    }

    /// Simulates a candidate on `backend` and compares against the
    /// reference, then emits one [`Event::DiffEvaluated`] on `sink`. Tests
    /// run on the tester's worker pool; the pass count and latency sum are
    /// folded in test order and the event is emitted from the calling
    /// thread, so neither depends on the thread count. A backend that
    /// cannot simulate the candidate at all (or fails a test's invocation)
    /// scores that test as failing.
    ///
    /// Tests whose behaviour the memo already holds are replayed instead of
    /// simulated (see the module docs); the report is the same either way.
    pub fn evaluate_with<B, S>(&self, backend: &B, candidate: &Program, sink: &S) -> DiffReport
    where
        B: Toolchain + ?Sized,
        S: TraceSink + ?Sized,
    {
        let report = if backend.can_simulate(candidate) {
            let runs = self.simulate_memoized(backend, candidate);
            self.fold(runs.into_iter().map(Some))
        } else {
            DiffReport::UNSIMULATABLE
        };
        self.emit(sink, report)
    }

    /// Scores every test of `candidate`: replayed where the memo can, on
    /// the worker pool otherwise, and stores what ran for real.
    fn simulate_memoized<B>(&self, backend: &B, candidate: &Program) -> Vec<(bool, f64)>
    where
        B: Toolchain + ?Sized,
    {
        let (shape, ids) = minic::fingerprint_behaviour(candidate);
        let backend_id = {
            let info = backend.info();
            let mut h = DefaultHasher::new();
            (info.name, info.device, backend.engine()).hash(&mut h);
            h.finish()
        };
        let key = |i: usize| (shape, ids, backend_id, i);
        let cover = PragmaCover::of(candidate);

        let mut scores: Vec<Option<(bool, f64)>> = Vec::with_capacity(self.tests.len());
        {
            let mut memo = self.memo();
            let memo = &mut *memo;
            for i in 0..self.tests.len() {
                let Some(stored) = memo.runs.get(&key(i)) else {
                    memo.stats.misses += 1;
                    scores.push(None);
                    continue;
                };
                let replayed = stored.as_ref().map_err(|r| *r).and_then(|base| {
                    base.replay(candidate, cover.as_ref().ok_or(Fallback::UncoveredPragma)?)
                });
                match replayed {
                    Ok(sim) => {
                        memo.stats.replays += 1;
                        scores.push(Some(self.score(i, &sim)));
                    }
                    Err(reason) => {
                        memo.stats.fall_back(reason);
                        scores.push(None);
                    }
                }
            }
        }

        let live: Vec<usize> = (0..self.tests.len())
            .filter(|&i| scores[i].is_none())
            .collect();
        let runs: Vec<Option<SimResult>> = parallel::parallel_map(self.threads, &live, |_, &i| {
            backend
                .simulate(candidate, &self.tests[i], i as u64)
                .ok()
                .map(|sim| sim.result)
        });

        let mut memo = self.memo();
        for (&i, run) in live.iter().zip(runs) {
            let Some(sim) = run else {
                scores[i] = Some((false, 0.0));
                continue;
            };
            scores[i] = Some(self.score(i, &sim));
            let base = match &cover {
                Some(cover) => BaseRun::strip(&sim, cover),
                None => Err(Fallback::UncoveredPragma),
            };
            // The first replayable run of a behaviour is kept; one that
            // cannot be replayed gives way to a later one that can.
            match memo.runs.entry(key(i)) {
                Entry::Occupied(mut e) if e.get().is_err() => *e.get_mut() = base,
                Entry::Occupied(_) => {}
                Entry::Vacant(v) => {
                    v.insert(base);
                }
            }
        }
        scores.into_iter().flatten().collect()
    }

    /// `(behaviour_eq, latency_ms)` of test `i`'s simulation.
    fn score(&self, i: usize, sim: &SimResult) -> (bool, f64) {
        (
            self.reference[i].behaviour_eq(&sim.outcome),
            sim.estimate.latency_ms,
        )
    }

    /// Like [`DifferentialTester::evaluate_with`], simulating on
    /// `env.backend` through `env.faults`: transient simulator faults
    /// (including fuel spikes) are retried on the worker under `retry`'s
    /// schedule, and a test whose faults persist — a permanent fault, or a
    /// transient that outlives the retry budget — degrades to a failing
    /// test instead of aborting the evaluation. With a disabled injector
    /// this is exactly [`DifferentialTester::evaluate_with`].
    ///
    /// Each test's injector key is `mix_key(key, test_index)`, so fault
    /// decisions depend only on the candidate fingerprint and the test's
    /// position, never on scheduling. Workers return their absorbed fault
    /// counts; the calling thread replays them — resilience counters,
    /// backoff ledger, and trace events on `env.sink` — during the in-order
    /// merge, so the trace stream and the returned [`ResilienceStats`] are
    /// identical for every thread count. `at_min` timestamps the replayed
    /// events with the caller's simulated clock; backoff delays are billed
    /// to [`ResilienceStats::backoff_min`], not to that clock, so a
    /// transient-recovered run keeps the fault-free clock trajectory.
    pub fn evaluate_in<B, S, I>(
        &self,
        env: &Env<B, S, I>,
        candidate: &Program,
        retry: &RetryPolicy,
        key: u64,
        at_min: f64,
    ) -> (DiffReport, ResilienceStats)
    where
        B: Toolchain,
        S: TraceSink,
        I: FaultInjector,
    {
        let sink = &env.sink;
        if !env.faults.enabled() {
            return (
                self.evaluate_with(&env.backend, candidate, sink),
                ResilienceStats::default(),
            );
        }
        if !env.backend.can_simulate(candidate) {
            let report = self.emit(sink, DiffReport::UNSIMULATABLE);
            return (report, ResilienceStats::default());
        }
        // The memo holds fault-free runs only: here every test runs live.
        self.memo().stats.faults_enabled += self.tests.len() as u64;
        let resilient = Resilient::new(&env.backend, &env.faults, *retry);

        // End states a worker can reach: success, transient faults that
        // outlived the retry budget, or a permanent fault.
        const OK: u8 = 0;
        const EXHAUSTED: u8 = 1;
        const PERMANENT: u8 = 2;
        /// One worker's result: the measured `(behaviour_eq, latency_ms)`
        /// on success, the transients absorbed, and the end state.
        type TestRun = (Option<(bool, f64)>, u32, u8);
        let runs: Vec<TestRun> = parallel::parallel_map(self.threads, &self.tests, |i, t| {
            let test_key = heterogen_faults::mix_key(key, i as u64);
            match resilient.simulate(candidate, t, test_key) {
                Ok(sim) => (Some(self.score(i, &sim.result)), sim.transients, OK),
                Err(e) if e.is_exhausted() => (None, e.absorbed_transients(), EXHAUSTED),
                Err(e) => (None, e.absorbed_transients(), PERMANENT),
            }
        });

        let mut stats = ResilienceStats::default();
        for (i, (_, transients, end)) in runs.iter().enumerate() {
            let test_key = heterogen_faults::mix_key(key, i as u64);
            for a in 0..*transients {
                stats.transient_faults += 1;
                if sink.enabled() {
                    sink.emit(&Event::FaultInjected {
                        site: "hls_sim".to_string(),
                        fault: "transient".to_string(),
                        fingerprint: test_key,
                        attempt: u64::from(a),
                        at_min,
                    });
                }
                // The worker only kept retrying while the schedule granted a
                // delay; replaying `delay_before` here reproduces exactly the
                // retries it took (the final transient of an EXHAUSTED test
                // gets none).
                if let Some(delay) = retry.delay_before(a + 1) {
                    stats.retries += 1;
                    stats.backoff_min += delay;
                    if sink.enabled() {
                        sink.emit(&Event::RetryScheduled {
                            site: "hls_sim".to_string(),
                            fingerprint: test_key,
                            attempt: u64::from(a + 1),
                            delay_min: delay,
                            at_min,
                        });
                    }
                }
            }
            if *end != OK {
                stats.permanent_faults += 1;
                if *end == PERMANENT && sink.enabled() {
                    sink.emit(&Event::FaultInjected {
                        site: "hls_sim".to_string(),
                        fault: "permanent".to_string(),
                        fingerprint: test_key,
                        attempt: u64::from(*transients),
                        at_min,
                    });
                }
            }
        }
        let report = self.fold(runs.into_iter().map(|(result, _, _)| result));
        (self.emit(sink, report), stats)
    }

    /// Folds per-test `(behaviour_eq, latency_ms)` results in test order; a
    /// `None` (a faulted test) counts as failing with no latency.
    fn fold(&self, runs: impl Iterator<Item = Option<(bool, f64)>>) -> DiffReport {
        let mut passed = 0usize;
        let mut latency = 0.0;
        for (ok, ms) in runs.flatten() {
            if ok {
                passed += 1;
            }
            latency += ms;
        }
        DiffReport {
            pass_ratio: passed as f64 / self.tests.len() as f64,
            fpga_latency_ms: latency / self.tests.len() as f64,
        }
    }

    /// Emits the [`Event::DiffEvaluated`] every evaluation of `report`
    /// yields — live or replayed from a store — and passes it through.
    pub(crate) fn emit<S: TraceSink + ?Sized>(&self, sink: &S, report: DiffReport) -> DiffReport {
        if sink.enabled() {
            sink.emit(&Event::DiffEvaluated {
                tests: self.tests.len() as u64,
                pass_ratio: report.pass_ratio,
                fpga_latency_ms: report.fpga_latency_ms,
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterogen_toolchain::{
        BackendInfo, CompileCostModel, Compiled, SimBackend, Simulated, StyleViolation,
        ToolchainError,
    };
    use heterogen_trace::NullSink;
    use minic::ast::StmtKind;
    use minic_exec::ArgValue;

    fn tester(p: &Program, tests: &[TestCase], max_tests: usize) -> DifferentialTester {
        DifferentialTester::with_engine(p, "kernel", tests, max_tests, 1, ExecEngine::default())
            .unwrap()
    }

    fn evaluate(d: &DifferentialTester, candidate: &Program) -> DiffReport {
        d.evaluate_with(&SimBackend::default_profile(), candidate, &NullSink)
    }

    #[test]
    fn identical_program_passes_all() {
        let p = minic::parse("int kernel(int x) { return x * 3 + 1; }").unwrap();
        let tests: Vec<TestCase> = (0..5).map(|i| vec![ArgValue::Int(i)]).collect();
        let d = tester(&p, &tests, 100);
        let r = evaluate(&d, &p);
        assert_eq!(r.pass_ratio, 1.0);
        assert!(d.cpu_latency_ms() > 0.0);
    }

    #[test]
    fn narrowed_type_fails_on_large_inputs() {
        let orig = minic::parse("int kernel(int x) { int r = x; return r; }").unwrap();
        let narrowed = minic::parse("int kernel(int x) { fpga_uint<7> r = x; return r; }").unwrap();
        let tests: Vec<TestCase> = vec![
            vec![ArgValue::Int(5)],   // fits 7 bits → identical
            vec![ArgValue::Int(500)], // wraps → diverges
        ];
        let d = tester(&orig, &tests, 100);
        let r = evaluate(&d, &narrowed);
        assert_eq!(r.pass_ratio, 0.5);
    }

    #[test]
    fn caps_test_count() {
        let p = minic::parse("int kernel(int x) { return x; }").unwrap();
        let tests: Vec<TestCase> = (0..100).map(|i| vec![ArgValue::Int(i)]).collect();
        let d = tester(&p, &tests, 10);
        assert_eq!(d.test_count(), 10);
    }

    #[test]
    fn unsimulatable_candidate_scores_zero() {
        let p = minic::parse("int kernel(int x) { return x; }").unwrap();
        let broken = minic::parse("void helper(int x) { }").unwrap(); // no top
        let tests: Vec<TestCase> = vec![vec![ArgValue::Int(1)]];
        let d = tester(&p, &tests, 10);
        assert_eq!(evaluate(&d, &broken).pass_ratio, 0.0);
    }

    const ENGINES: [ExecEngine; 2] = [ExecEngine::TreeWalk, ExecEngine::Bytecode];

    /// A pipelined loop; the tests are arrays of 8 and a multiplier.
    const PIPELINED: &str = "int kernel(int a[8], int n) { int s = 0;
        for (int i = 0; i < 8; i++) {
#pragma HLS pipeline II=1
            s = s + a[i] * n;
        }
        return s; }";

    fn array_tests() -> Vec<TestCase> {
        (0..4)
            .map(|k| vec![ArgValue::IntArray((k..k + 8).collect()), ArgValue::Int(k)])
            .collect()
    }

    /// `p` with every pragma statement removed; every other node keeps its
    /// id, as along a repair edit path.
    fn without_pragmas(p: &Program) -> Program {
        let mut ids = Vec::new();
        minic::visit::visit_stmts(p, &mut |s| {
            if matches!(s.kind, StmtKind::Pragma(_)) {
                ids.push(s.id);
            }
        });
        let mut q = p.clone();
        for id in ids {
            assert!(minic::edit::remove_stmt(&mut q, id));
        }
        q
    }

    fn bits(r: DiffReport) -> (u64, u64) {
        (r.pass_ratio.to_bits(), r.fpga_latency_ms.to_bits())
    }

    /// Evaluates `first` then `second` on one tester over `reference`, and
    /// checks `second`'s report bit for bit against a fresh tester's (which
    /// simulates everything). Returns the shared tester's memo counts.
    fn second_evaluation<B: Toolchain>(
        backend: &B,
        engine: ExecEngine,
        reference: &Program,
        tests: &[TestCase],
        first: &Program,
        second: &Program,
    ) -> MemoStats {
        let tester =
            || DifferentialTester::with_engine(reference, "kernel", tests, 100, 2, engine).unwrap();
        let shared = tester();
        shared.evaluate_with(backend, first, &NullSink);
        let memoized = shared.evaluate_with(backend, second, &NullSink);
        let fresh = tester().evaluate_with(backend, second, &NullSink);
        assert_eq!(bits(memoized), bits(fresh), "{engine}");
        shared.memo_stats()
    }

    #[test]
    fn pragma_variant_replays_bit_identically() {
        let with = minic::parse(PIPELINED).unwrap();
        let without = without_pragmas(&with);
        let tests = array_tests();
        let n = tests.len() as u64;
        for engine in ENGINES {
            let backend = SimBackend::default_profile().with_engine(engine);
            for (first, second) in [(&without, &with), (&with, &without)] {
                let stats = second_evaluation(&backend, engine, &without, &tests, first, second);
                let want = MemoStats {
                    replays: n,
                    misses: n,
                    ..MemoStats::default()
                };
                assert_eq!(stats, want, "{engine}");
            }
        }
    }

    #[test]
    fn uncovered_pragma_runs_for_real() {
        let with = minic::parse(
            "int kernel(int a[8], int n) { int s = 0;
            if (n > 1) {
#pragma HLS inline
                s = 1;
            }
            for (int i = 0; i < 8; i++) { s = s + a[i] * n; }
            return s; }",
        )
        .unwrap();
        let without = without_pragmas(&with);
        let tests = array_tests();
        let n = tests.len() as u64;
        for engine in ENGINES {
            let backend = SimBackend::default_profile().with_engine(engine);
            for (first, second) in [(&without, &with), (&with, &without)] {
                let stats = second_evaluation(&backend, engine, &without, &tests, first, second);
                let want = MemoStats {
                    misses: n,
                    uncovered_pragma: n,
                    ..MemoStats::default()
                };
                assert_eq!(stats, want, "{engine}");
            }
        }
    }

    #[test]
    fn trapped_run_is_simulated_again() {
        let with = minic::parse(
            "int kernel(int n) { int s = 0;
            for (int i = 0; i < 4; i++) {
#pragma HLS pipeline
                s = s + 12 / n;
            }
            return s; }",
        )
        .unwrap();
        let without = without_pragmas(&with);
        let tests: Vec<TestCase> = [0, 3, 0, 4].map(|n| vec![ArgValue::Int(n)]).to_vec();
        for engine in ENGINES {
            let backend = SimBackend::default_profile().with_engine(engine);
            let stats = second_evaluation(&backend, engine, &without, &tests, &without, &with);
            let want = MemoStats {
                replays: 2,
                misses: 4,
                trapped: 2,
                ..MemoStats::default()
            };
            assert_eq!(stats, want, "{engine}");
        }
    }

    /// `SimBackend` with its run records dropped, like a backend that
    /// keeps none.
    struct Unrecorded(SimBackend);

    impl Toolchain for Unrecorded {
        fn info(&self) -> BackendInfo {
            self.0.info()
        }
        fn cost_model(&self) -> CompileCostModel {
            self.0.cost_model()
        }
        fn style_check(&self, p: &Program) -> Vec<StyleViolation> {
            self.0.style_check(p)
        }
        fn compile(&self, p: &Program, key: u64) -> Result<Compiled, ToolchainError> {
            self.0.compile(p, key)
        }
        fn simulate(
            &self,
            p: &Program,
            args: &[ArgValue],
            key: u64,
        ) -> Result<Simulated, ToolchainError> {
            let mut sim = self.0.simulate(p, args, key)?;
            sim.result.run = None;
            Ok(sim)
        }
    }

    #[test]
    fn backend_without_run_records_runs_for_real() {
        let with = minic::parse(PIPELINED).unwrap();
        let without = without_pragmas(&with);
        let tests = array_tests();
        let n = tests.len() as u64;
        let backend = Unrecorded(SimBackend::default_profile());
        let engine = ExecEngine::default();
        let stats = second_evaluation(&backend, engine, &without, &tests, &without, &with);
        let want = MemoStats {
            misses: n,
            no_run_record: n,
            ..MemoStats::default()
        };
        assert_eq!(stats, want);
    }

    #[test]
    fn covered_run_replaces_an_uncovered_entry() {
        let with = minic::parse(
            "int kernel(int a[8], int n) { int s = 0;
            if (n > 1) {
#pragma HLS inline
                s = 1;
            }
            for (int i = 0; i < 8; i++) {
#pragma HLS pipeline II=1
                s = s + a[i] * n;
            }
            return s; }",
        )
        .unwrap();
        let without = without_pragmas(&with);
        let mut covered = with.clone();
        let mut uncovered_id = None;
        minic::visit::visit_stmts(&with, &mut |s| {
            if let StmtKind::Pragma(p) = &s.kind {
                if !matches!(p.kind, minic::ast::PragmaKind::Pipeline { .. }) {
                    uncovered_id = Some(s.id);
                }
            }
        });
        assert!(minic::edit::remove_stmt(
            &mut covered,
            uncovered_id.unwrap()
        ));
        let tests = array_tests();
        let n = tests.len() as u64;
        for engine in ENGINES {
            let backend = SimBackend::default_profile().with_engine(engine);
            let d = DifferentialTester::with_engine(&without, "kernel", &tests, 100, 2, engine)
                .unwrap();
            // Stored: uncovered. Then a covered variant runs for real and
            // takes the entry over, so the next variant replays.
            d.evaluate_with(&backend, &with, &NullSink);
            d.evaluate_with(&backend, &covered, &NullSink);
            let replayed = d.evaluate_with(&backend, &without, &NullSink);
            let fresh = DifferentialTester::with_engine(&without, "kernel", &tests, 100, 2, engine)
                .unwrap()
                .evaluate_with(&backend, &without, &NullSink);
            assert_eq!(bits(replayed), bits(fresh), "{engine}");
            let want = MemoStats {
                replays: n,
                misses: n,
                uncovered_pragma: n,
                ..MemoStats::default()
            };
            assert_eq!(d.memo_stats(), want, "{engine}");
        }
    }

    #[test]
    fn another_backend_profile_or_engine_is_another_key() {
        let p = minic::parse(PIPELINED).unwrap();
        let tests = array_tests();
        let d = tester(&p, &tests, 100);
        let default = SimBackend::default_profile();
        let other_engine = match default.engine() {
            ExecEngine::Bytecode => ExecEngine::TreeWalk,
            ExecEngine::TreeWalk => ExecEngine::Bytecode,
        };
        d.evaluate_with(&default, &p, &NullSink);
        d.evaluate_with(&SimBackend::embedded_profile(), &p, &NullSink);
        d.evaluate_with(&default.with_engine(other_engine), &p, &NullSink);
        assert_eq!(d.memo_stats().misses, 3 * tests.len() as u64);
        assert_eq!(d.memo_stats().replays, 0);
    }

    #[test]
    fn injected_faults_bypass_the_memo() {
        let p = minic::parse(PIPELINED).unwrap();
        let tests = array_tests();
        let n = tests.len() as u64;
        let d = tester(&p, &tests, 100);
        let env = Env::new(SimBackend::default_profile())
            .with_faults(heterogen_faults::FaultPlan::builder(1).build());
        let (faulted, _) = d.evaluate_in(&env, &p, &RetryPolicy::default(), 7, 0.0);
        assert_eq!(d.memo_stats().faults_enabled, n);
        // Nothing was stored: the fault-free evaluation misses, and agrees.
        let clean = d.evaluate_with(&env.backend, &p, &NullSink);
        assert_eq!(d.memo_stats().misses, n);
        assert_eq!(bits(faulted), bits(clean));
    }
}
