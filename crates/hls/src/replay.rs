//! Replaying a simulation for a pragma-only variant of the program.
//!
//! HLS C simulation does not depend on pragmas: both execution engines run
//! a pragma statement as a no-op. They do charge it the one op every
//! executed statement costs, so two programs that differ only in pragmas
//! (and clock or device) produce the same outputs, traps and loop counts,
//! and op counts that differ by the pragma statements each executed.
//!
//! [`PragmaCover`] finds where a program's pragma statements sit. A pragma
//! is *covered* when its execution count can be read off a run's counts:
//! every statement before it in its block is a declaration, an expression,
//! a pragma or empty (none of which can skip or repeat what follows), and
//! the block is
//!
//! * a free function's body — it runs once per call of that function; or
//! * a loop body (in a function, method or constructor) — it runs once per
//!   iteration of that loop.
//!
//! Every other pragma (in an `if` branch or a plain block, after a
//! statement that can branch, at the head of a method) is uncovered, and a
//! program with one is never replayed.
//!
//! [`BaseRun::strip`] takes the covered pragma executions out of a real
//! run; [`BaseRun::replay`] adds a variant's own back and re-estimates the
//! latency with the variant's pragmas — exactly the [`SimResult`] a real
//! simulation of the variant returns.

use crate::schedule::estimate_latency;
use crate::sim::{SimResult, SimRun};
use minic::ast::{Block, Item, NodeId, Program, StmtKind};
use minic_exec::{MachineConfig, Outcome};
use std::sync::Arc;

/// Why a simulation must run for real instead of being replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fallback {
    /// The stored program or the variant has a pragma whose execution
    /// count a run does not record.
    UncoveredPragma,
    /// The stored run trapped: where it stopped may depend on the op count.
    Trapped,
    /// The repriced op count reaches the simulator's fuel limit, so the
    /// variant's real run might trap where the stored one did not.
    Fuel,
    /// The backend returned no [`SimRun`] to replay from.
    NoRunRecord,
}

/// Where a program's pragma statements sit, when each of them is covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PragmaCover {
    /// Pragmas at the head of a free function's body: `(function, count)`.
    per_call: Vec<(String, u64)>,
    /// Pragmas at the head of a loop body: `(loop id, count)`.
    per_iteration: Vec<(NodeId, u64)>,
}

impl PragmaCover {
    /// The cover of `p`, or `None` when `p` has an uncovered pragma.
    pub fn of(p: &Program) -> Option<PragmaCover> {
        let mut cover = PragmaCover::default();
        let mut methods: Vec<&str> = Vec::new();
        for item in &p.items {
            if let Item::Struct(sd) = &**item {
                methods.extend(sd.methods.iter().map(|m| m.name.as_str()));
                for body in sd.methods.iter().filter_map(|m| m.body.as_ref()) {
                    if head_pragmas(body)? > 0 {
                        return None;
                    }
                    cover.nested(body)?;
                }
                if let Some(ctor) = &sd.ctor {
                    if head_pragmas(&ctor.body)? > 0 {
                        return None;
                    }
                    cover.nested(&ctor.body)?;
                }
            }
        }
        for f in p.functions() {
            let Some(body) = &f.body else { continue };
            let n = head_pragmas(body)?;
            if n > 0 {
                // Call counts are kept by name: a method sharing it would
                // count toward the function too.
                if methods.contains(&f.name.as_str()) {
                    return None;
                }
                cover.per_call.push((f.name.clone(), n));
            }
            cover.nested(body)?;
        }
        Some(cover)
    }

    /// Pragma statements a run of this program executed, given its counts.
    pub fn executions(&self, run: &SimRun) -> u64 {
        let calls: u64 = self
            .per_call
            .iter()
            .map(|(f, n)| n * run.call_counts.get(f).copied().unwrap_or(0))
            .sum();
        let iterations: u64 = self
            .per_iteration
            .iter()
            .map(|(id, n)| n * run.loop_stats.get(id).copied().unwrap_or(0))
            .sum();
        calls + iterations
    }

    /// Registers the loop-head pragmas below `b`'s own statements; `None`
    /// on any other pragma there.
    fn nested(&mut self, b: &Block) -> Option<()> {
        for s in &b.stmts {
            match &s.kind {
                StmtKind::While(_, body)
                | StmtKind::DoWhile(body, _)
                | StmtKind::For(_, _, _, body) => {
                    if let StmtKind::For(Some(init), ..) = &s.kind {
                        if matches!(init.kind, StmtKind::Pragma(_)) {
                            return None;
                        }
                    }
                    let n = head_pragmas(body)?;
                    if n > 0 {
                        self.per_iteration.push((s.id, n));
                    }
                    self.nested(body)?;
                }
                StmtKind::If(_, then, els) => {
                    self.unheaded(then)?;
                    if let Some(els) = els {
                        self.unheaded(els)?;
                    }
                }
                StmtKind::Block(inner) => self.unheaded(inner)?,
                _ => {}
            }
        }
        Some(())
    }

    /// A block whose execution count no run records: no pragma may sit in
    /// it directly.
    fn unheaded(&mut self, b: &Block) -> Option<()> {
        if b.stmts
            .iter()
            .any(|s| matches!(s.kind, StmtKind::Pragma(_)))
        {
            return None;
        }
        self.nested(b)
    }
}

/// The pragma statements directly in `b`, or `None` when one follows a
/// statement that could skip or repeat it.
fn head_pragmas(b: &Block) -> Option<u64> {
    let mut prefix = true;
    let mut n = 0;
    for s in &b.stmts {
        match s.kind {
            StmtKind::Pragma(_) if prefix => n += 1,
            StmtKind::Pragma(_) => return None,
            StmtKind::Decl(_) | StmtKind::Expr(_) | StmtKind::Empty => {}
            _ => prefix = false,
        }
    }
    Some(n)
}

/// A real simulation with its covered pragma executions taken out: what
/// every pragma-only variant of the simulated program shares.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseRun {
    /// The outcome, `ops` reduced.
    outcome: Outcome,
    /// The run record, `ops` reduced.
    run: SimRun,
}

impl BaseRun {
    /// Strips a real simulation `result` of a program with cover `cover`.
    ///
    /// # Errors
    ///
    /// [`Fallback::Trapped`] for a trapped run, [`Fallback::NoRunRecord`]
    /// when the result carries no [`SimRun`].
    pub fn strip(result: &SimResult, cover: &PragmaCover) -> Result<BaseRun, Fallback> {
        if result.outcome.trapped {
            return Err(Fallback::Trapped);
        }
        let run = result.run.as_deref().ok_or(Fallback::NoRunRecord)?;
        let pragmas = cover.executions(run);
        // The counts come from the run itself, so they never exceed it;
        // should the rule ever disagree with an engine, run for real.
        let (Some(ops), Some(outcome_ops)) = (
            run.ops.checked_sub(pragmas),
            result.outcome.ops.checked_sub(pragmas),
        ) else {
            return Err(Fallback::UncoveredPragma);
        };
        Ok(BaseRun {
            outcome: Outcome {
                ops: outcome_ops,
                ..result.outcome.clone()
            },
            run: SimRun { ops, ..run.clone() },
        })
    }

    /// The simulation of `variant` (a program equal to the stripped one but
    /// for pragmas, clock and device, with cover `cover`): its own pragma
    /// executions added back and its latency re-estimated with its own
    /// pragmas and clock.
    ///
    /// # Errors
    ///
    /// [`Fallback::Fuel`] when the repriced op count is not strictly below
    /// the FPGA simulator's fuel.
    pub fn replay(&self, variant: &Program, cover: &PragmaCover) -> Result<SimResult, Fallback> {
        let pragmas = cover.executions(&self.run);
        let ops = self.run.ops + pragmas;
        if ops >= MachineConfig::fpga().fuel {
            return Err(Fallback::Fuel);
        }
        let estimate = estimate_latency(
            &self.run.model,
            variant,
            ops,
            &self.run.loop_stats,
            variant.config.clock_mhz,
        );
        Ok(SimResult {
            outcome: Outcome {
                ops: self.outcome.ops + pragmas,
                ..self.outcome.clone()
            },
            estimate,
            run: Some(Arc::new(SimRun {
                ops,
                ..self.run.clone()
            })),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FpgaSimulator;
    use minic_exec::{ArgValue, ExecEngine};

    const ENGINES: [ExecEngine; 2] = [ExecEngine::TreeWalk, ExecEngine::Bytecode];

    /// `p` with every pragma statement removed; every other node keeps its
    /// id, as along a repair edit path.
    fn without_pragmas(p: &Program) -> Program {
        let mut ids = Vec::new();
        minic::visit::visit_stmts(p, &mut |s| {
            if matches!(s.kind, StmtKind::Pragma(_)) {
                ids.push(s.id);
            }
        });
        assert!(!ids.is_empty(), "the case has pragmas");
        let mut q = p.clone();
        for id in ids {
            assert!(minic::edit::remove_stmt(&mut q, id));
        }
        q
    }

    fn replay_between(
        from: &Program,
        stored: &SimResult,
        to: &Program,
    ) -> Result<SimResult, Fallback> {
        let cover = |p| PragmaCover::of(p).ok_or(Fallback::UncoveredPragma);
        BaseRun::strip(stored, &cover(from)?)?.replay(to, &cover(to)?)
    }

    /// Replays real runs of `src` without its pragmas as `src`, and of
    /// `src` as the pragma-free program, on both engines. Every replay
    /// must equal the real run field for field; returns the verdict, which
    /// must not depend on the engine or the direction.
    fn replay_case(src: &str, args: &[ArgValue]) -> Result<(), Fallback> {
        let with = minic::parse(src).unwrap();
        let without = without_pragmas(&with);
        let mut verdict = None;
        for engine in ENGINES {
            let real_with = FpgaSimulator::new(&with, engine).unwrap().run(args);
            let real_without = FpgaSimulator::new(&without, engine).unwrap().run(args);
            for (from, stored, to, real) in [
                (&without, &real_without, &with, &real_with),
                (&with, &real_with, &without, &real_without),
            ] {
                let v = replay_between(from, stored, to).map(|replayed| {
                    assert_eq!(
                        &replayed, real,
                        "{engine}: replay differs from the real run"
                    );
                });
                assert_eq!(*verdict.get_or_insert(v), v, "{engine}");
            }
        }
        verdict.unwrap()
    }

    fn ints(n: i128) -> ArgValue {
        ArgValue::IntArray((1..=n).collect())
    }

    #[test]
    fn loop_head_pragma_replays_exactly() {
        let src = "int kernel(int a[16], int n) { int s = 0;
            for (int i = 0; i < 16; i++) {
#pragma HLS pipeline II=1
#pragma HLS unroll factor=4
                s = s + a[i] * n;
            }
            return s; }";
        for n in [-2, 0, 3, 1 << 20] {
            assert_eq!(replay_case(src, &[ints(16), ArgValue::Int(n)]), Ok(()));
        }
    }

    #[test]
    fn function_head_pragma_replays_exactly() {
        let src = "int helper(int x) {
#pragma HLS inline
            return x * 2 + 1; }
            int kernel(int n) {
#pragma HLS dataflow
            int s = 0;
            for (int i = 0; i < n; i++) { s = s + helper(i); }
            return s; }";
        for n in [0, 1, 7, 40] {
            assert_eq!(replay_case(src, &[ArgValue::Int(n)]), Ok(()));
        }
    }

    #[test]
    fn pragma_after_a_declaration_replays_exactly() {
        let src = "int kernel(int n) { int A[36];
#pragma HLS array_partition variable=A factor=4 dim=1
            for (int i = 0; i < 36; i++) { A[i] = i * n; }
            return A[5] + A[35]; }";
        assert_eq!(replay_case(src, &[ArgValue::Int(2)]), Ok(()));
    }

    #[test]
    fn array_partition_pragma_replays_exactly() {
        let src = "void kernel(int a[8]) {
#pragma HLS array_partition variable=a complete dim=1
            for (int i = 0; i < 8; i++) {
#pragma HLS unroll factor=4
                a[i] = a[i] + 1;
            } }";
        assert_eq!(replay_case(src, &[ints(8)]), Ok(()));
    }

    #[test]
    fn pragma_in_an_if_branch_is_uncovered() {
        let src = "int kernel(int n) { int s = 0;
            if (n > 0) {
#pragma HLS inline
                s = n + 1;
            }
            return s; }";
        let verdict = replay_case(src, &[ArgValue::Int(4)]);
        assert_eq!(verdict, Err(Fallback::UncoveredPragma));
    }

    #[test]
    fn pragma_after_a_returning_statement_is_uncovered() {
        let src = "int kernel(int n) {
            if (n < 0) { return 0; }
#pragma HLS inline
            return n + 1; }";
        let verdict = replay_case(src, &[ArgValue::Int(-1)]);
        assert_eq!(verdict, Err(Fallback::UncoveredPragma));
    }

    #[test]
    fn method_head_pragma_is_uncovered() {
        let src = "struct Acc {
                int total;
                void add(int x) {
#pragma HLS inline
                    total = total + x;
                }
            };
            int kernel(int n) { struct Acc a; a.total = 0; a.add(n); a.add(5); return a.total; }";
        let verdict = replay_case(src, &[ArgValue::Int(4)]);
        assert_eq!(verdict, Err(Fallback::UncoveredPragma));
    }

    #[test]
    fn trapped_stored_run_is_not_replayed() {
        let src = "int kernel(int n) { int s = 0;
            for (int i = 0; i < 4; i++) {
#pragma HLS pipeline
                s = s + 10 / n;
            }
            return s; }";
        assert_eq!(
            replay_case(src, &[ArgValue::Int(0)]),
            Err(Fallback::Trapped)
        );
        assert_eq!(replay_case(src, &[ArgValue::Int(5)]), Ok(()));
    }

    #[test]
    fn repriced_ops_at_the_fuel_limit_run_for_real() {
        let src = "int kernel(int n) { int s = 0;
            for (int i = 0; i < n; i++) {
#pragma HLS pipeline
                s = s + i;
            }
            return s; }";
        let with = minic::parse(src).unwrap();
        let without = without_pragmas(&with);
        let fuel = MachineConfig::fpga().fuel;
        for engine in ENGINES {
            // A real run of the pragma-free program, its op count moved up
            // toward the fuel limit; the variant adds 3 pragma executions.
            let real = FpgaSimulator::new(&without, engine)
                .unwrap()
                .run(&[ArgValue::Int(3)]);
            let near = |ops: u64| {
                let mut r = real.clone();
                r.outcome.ops = ops;
                r.run = Some(Arc::new(SimRun {
                    ops,
                    ..SimRun::clone(real.run.as_ref().unwrap())
                }));
                r
            };
            let below = replay_between(&without, &near(fuel - 4), &with).unwrap();
            assert_eq!(below.run.unwrap().ops, fuel - 1, "{engine}");
            for ops in [fuel - 3, fuel - 1] {
                let verdict = replay_between(&without, &near(ops), &with);
                assert_eq!(verdict.unwrap_err(), Fallback::Fuel, "{engine}");
            }
        }
    }

    #[test]
    fn result_without_run_record_is_not_replayed() {
        let p = minic::parse("int kernel(int n) { return n; }").unwrap();
        let mut r = FpgaSimulator::new(&p, ExecEngine::default())
            .unwrap()
            .run(&[ArgValue::Int(1)]);
        r.run = None;
        let cover = PragmaCover::of(&p).unwrap();
        assert_eq!(BaseRun::strip(&r, &cover), Err(Fallback::NoRunRecord));
    }
}
