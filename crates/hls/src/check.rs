//! The full synthesizability checker of the simulated HLS compiler.
//!
//! Walks a program and emits Vivado-style diagnostics for every construct the
//! paper's six error categories cover. This is the "expensive" check: the
//! repair loop only reaches it after the cheap [`style`](crate::style) pass,
//! and each invocation is billed by the [`cost`](crate::cost) model.

use crate::errors::{ErrorCategory, HlsDiagnostic, ToolchainError};
use heterogen_faults::{Fault, FaultInjector, FaultSite};
use minic::ast::*;
use minic::types::Type;
use minic::visit;
use std::collections::{BTreeMap, BTreeSet};

/// Runs the full synthesizability check.
///
/// Returns every diagnostic found (empty means the design is synthesizable).
///
/// # Examples
///
/// ```
/// let p = minic::parse("void kernel(int x) { int a[x]; }").unwrap();
/// let diags = hls_sim::check::check_program(&p);
/// assert!(!diags.is_empty());
/// ```
pub fn check_program(p: &Program) -> Vec<HlsDiagnostic> {
    let mut out = Vec::new();
    check_top_config(p, &mut out);
    let top = p.top_function_name().map(str::to_string);
    for f in p.functions() {
        let is_top = top.as_deref() == Some(f.name.as_str());
        check_function(p, f, is_top, &mut out);
    }
    for item in p.items.iter().map(|i| &**i) {
        match item {
            Item::Global(g) => check_global(p, g, &mut out),
            Item::Struct(s) => check_struct_def(p, s, &mut out),
            _ => {}
        }
    }
    check_struct_instantiation(p, &mut out);
    out
}

/// Whether a program passes the full check.
pub fn is_synthesizable(p: &Program) -> bool {
    check_program(p).is_empty()
}

/// Runs the full check through a fault injector, as the resilient repair
/// loop does.
///
/// `key` is the stable identity of the invocation (the candidate
/// fingerprint) and `attempt` the zero-based retry count; together they make
/// injected faults reproducible at any thread count. With
/// [`heterogen_faults::NoFaults`] this compiles down to a plain
/// [`check_program`] call.
///
/// # Errors
///
/// Returns a [`ToolchainError`] when the injector decides this invocation
/// fails; a poison fault panics instead (the caller's isolation boundary is
/// expected to catch it).
pub fn check_program_resilient<I>(
    p: &Program,
    injector: &I,
    key: u64,
    attempt: u32,
) -> Result<Vec<HlsDiagnostic>, ToolchainError>
where
    I: FaultInjector + ?Sized,
{
    if injector.enabled() {
        match injector.fault(FaultSite::HlsCheck, key, attempt) {
            Some(Fault::Poison) => heterogen_faults::poison(FaultSite::HlsCheck, key),
            Some(Fault::Permanent) => {
                return Err(ToolchainError::permanent(
                    "hls_check",
                    "synthesis front-end rejected the invocation",
                ));
            }
            Some(Fault::Transient) | Some(Fault::FuelSpike { .. }) => {
                return Err(ToolchainError::transient(
                    "hls_check",
                    attempt,
                    "synthesis front-end crashed; the invocation may be retried",
                ));
            }
            None => {}
        }
    }
    Ok(check_program(p))
}

fn check_top_config(p: &Program, out: &mut Vec<HlsDiagnostic>) {
    match p.top_function_name() {
        Some(name) => {
            if p.function(name).is_none() {
                out.push(
                    HlsDiagnostic::new(
                        "HLS 200-101",
                        format!("Cannot find the top function '{name}' in the design"),
                        ErrorCategory::TopFunction,
                    )
                    .on(name),
                );
            }
        }
        None => {
            out.push(HlsDiagnostic::new(
                "HLS 200-101",
                "Cannot find the top function in the design",
                ErrorCategory::TopFunction,
            ));
        }
    }
    let clk = p.config.clock_mhz;
    if !(50.0..=800.0).contains(&clk) {
        out.push(HlsDiagnostic::new(
            "HLS 200-102",
            format!(
                "Top function configuration invalid: clock {clk} MHz outside the supported range for device {}",
                p.config.device
            ),
            ErrorCategory::TopFunction,
        ));
    }
}

fn contains_long_double(t: &Type) -> bool {
    match t {
        Type::LongDouble => true,
        Type::Pointer(t) | Type::Array(t, _) | Type::Stream(t) => contains_long_double(t),
        _ => false,
    }
}

fn is_raw_pointer(t: &Type) -> bool {
    matches!(t, Type::Pointer(_))
}

fn unknown_extent(p: &Program, t: &Type) -> bool {
    match t {
        Type::Array(inner, size) => {
            minic::edit::resolve_array_size(p, size).is_none() || unknown_extent(p, inner)
        }
        _ => false,
    }
}

fn check_global(p: &Program, g: &VarDecl, out: &mut Vec<HlsDiagnostic>) {
    if contains_long_double(&g.ty) {
        out.push(unsupported_type_diag(&g.name, None));
    }
    if is_raw_pointer(&g.ty) {
        out.push(pointer_diag(&g.name, None));
    }
    if unknown_extent(p, &g.ty) {
        out.push(unknown_size_diag(&g.name, None));
    }
}

fn check_struct_def(p: &Program, s: &StructDef, out: &mut Vec<HlsDiagnostic>) {
    for f in &s.fields {
        if contains_long_double(&f.ty) {
            out.push(unsupported_type_diag(&f.name, None));
        }
        if is_raw_pointer(&f.ty) {
            out.push(
                HlsDiagnostic::new(
                    "SYNCHK 200-61",
                    format!(
                        "unsupported memory access on variable '{}' in struct '{}': pointer members are not synthesizable",
                        f.name, s.name
                    ),
                    ErrorCategory::UnsupportedDataTypes,
                )
                .on(f.name.clone())
                .in_function(s.name.clone())
                .at(s.id),
            );
        }
        if unknown_extent(p, &f.ty) {
            out.push(unknown_size_diag(&f.name, None));
        }
    }
}

fn unsupported_type_diag(symbol: &str, function: Option<&str>) -> HlsDiagnostic {
    let mut d = HlsDiagnostic::new(
        "SYNCHK 200-11",
        format!(
            "call of overloaded operator on '{symbol}' is ambiguous: type 'long double' is not synthesizable"
        ),
        ErrorCategory::UnsupportedDataTypes,
    )
    .on(symbol);
    if let Some(f) = function {
        d = d.in_function(f);
    }
    d
}

fn pointer_diag(symbol: &str, function: Option<&str>) -> HlsDiagnostic {
    let mut d = HlsDiagnostic::new(
        "SYNCHK 200-61",
        format!(
            "unsupported memory access on variable '{symbol}': pointer types are only permitted at the top-level hardware interface"
        ),
        ErrorCategory::UnsupportedDataTypes,
    )
    .on(symbol);
    if let Some(f) = function {
        d = d.in_function(f);
    }
    d
}

fn unknown_size_diag(symbol: &str, function: Option<&str>) -> HlsDiagnostic {
    let mut d = HlsDiagnostic::new(
        "SYNCHK 200-61",
        format!(
            "unsupported memory access on variable '{symbol}' which is (or contains) an array with unknown size at compile time"
        ),
        ErrorCategory::DynamicDataStructures,
    )
    .on(symbol);
    if let Some(f) = function {
        d = d.in_function(f);
    }
    d
}

fn check_function(p: &Program, f: &Function, is_top: bool, out: &mut Vec<HlsDiagnostic>) {
    // Recursion.
    if minic::edit::is_recursive(p, &f.name) {
        out.push(
            HlsDiagnostic::new(
                "XFORM 202-876",
                format!(
                    "Synthesizability check failed: recursive functions are not supported ('{}' calls itself)",
                    f.name
                ),
                ErrorCategory::DynamicDataStructures,
            )
            .on(f.name.clone())
            .in_function(f.name.clone())
            .at(f.id),
        );
    }
    // Parameter types.
    for par in &f.params {
        if contains_long_double(&par.ty) {
            out.push(unsupported_type_diag(&par.name, Some(&f.name)).at(f.id));
        }
        if is_raw_pointer(&par.ty) && !is_top {
            out.push(pointer_diag(&par.name, Some(&f.name)).at(f.id));
        }
        if unknown_extent(p, &par.ty) && !is_top {
            out.push(unknown_size_diag(&par.name, Some(&f.name)).at(f.id));
        }
    }
    if contains_long_double(&f.ret) {
        out.push(unsupported_type_diag(&f.name, Some(&f.name)).at(f.id));
    }
    if is_raw_pointer(&f.ret) && !is_top {
        out.push(pointer_diag(&f.name, Some(&f.name)).at(f.id));
    }

    let Some(body) = &f.body else { return };

    // Locals: long double, pointers, unknown-size arrays. malloc/free calls.
    let mut local_decl_issues = Vec::new();
    for s in &body.stmts {
        collect_stmt_issues(p, s, &f.name, &mut local_decl_issues);
    }
    out.extend(local_decl_issues);

    visit::visit_function_exprs(f, &mut |e| {
        if let ExprKind::Call(name, _) = &e.kind {
            if name == "malloc" || name == "free" {
                out.push(
                    HlsDiagnostic::new(
                        "SYNCHK 200-31",
                        format!(
                            "dynamic memory allocation/deallocation is not supported ('{name}' in '{}')",
                            f.name
                        ),
                        ErrorCategory::DynamicDataStructures,
                    )
                    .on(name.clone())
                    .in_function(f.name.clone())
                    .at(e.id),
                );
            }
        }
        if let ExprKind::Cast(t, _) = &e.kind {
            if contains_long_double(t) {
                out.push(unsupported_type_diag(&f.name, Some(&f.name)).at(e.id));
            }
        }
    });

    check_pragmas(p, f, out);
}

fn collect_stmt_issues(p: &Program, s: &Stmt, fname: &str, out: &mut Vec<HlsDiagnostic>) {
    match &s.kind {
        StmtKind::Decl(d) => {
            if contains_long_double(&d.ty) {
                out.push(unsupported_type_diag(&d.name, Some(fname)).at(s.id));
            }
            if is_raw_pointer(&d.ty) {
                out.push(pointer_diag(&d.name, Some(fname)).at(s.id));
            }
            if unknown_extent(p, &d.ty) {
                out.push(unknown_size_diag(&d.name, Some(fname)).at(s.id));
            }
        }
        StmtKind::If(_, t, e) => {
            for st in &t.stmts {
                collect_stmt_issues(p, st, fname, out);
            }
            if let Some(e) = e {
                for st in &e.stmts {
                    collect_stmt_issues(p, st, fname, out);
                }
            }
        }
        StmtKind::While(_, b) | StmtKind::DoWhile(b, _) => {
            for st in &b.stmts {
                collect_stmt_issues(p, st, fname, out);
            }
        }
        StmtKind::For(init, _, _, b) => {
            if let Some(i) = init {
                collect_stmt_issues(p, i, fname, out);
            }
            for st in &b.stmts {
                collect_stmt_issues(p, st, fname, out);
            }
        }
        StmtKind::Block(b) => {
            for st in &b.stmts {
                collect_stmt_issues(p, st, fname, out);
            }
        }
        _ => {}
    }
}

/// A loop in a function body together with its directly attached pragmas
/// (the pragma statements appearing first in the loop body) and trip bound.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// The loop statement id.
    pub id: NodeId,
    /// Pragmas at the head of the loop body.
    pub pragmas: Vec<PragmaKind>,
    /// Static trip count, when the loop is `for (i = 0; i < K; i++)`-shaped.
    pub static_trip: Option<u64>,
    /// Arrays indexed inside the loop body.
    pub arrays_accessed: Vec<String>,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
}

/// Collects every loop in a function with its pragma context.
pub fn collect_loops(p: &Program, f: &Function) -> Vec<LoopInfo> {
    let mut out = Vec::new();
    if let Some(body) = &f.body {
        for s in &body.stmts {
            collect_loops_stmt(p, s, 0, &mut out);
        }
    }
    out
}

fn collect_loops_stmt(p: &Program, s: &Stmt, depth: usize, out: &mut Vec<LoopInfo>) {
    let (body, static_trip): (&Block, Option<u64>) = match &s.kind {
        StmtKind::While(_, b) => (b, None),
        StmtKind::DoWhile(b, _) => (b, None),
        StmtKind::For(init, cond, _, b) => (b, static_trip_count(p, init, cond)),
        StmtKind::If(_, t, e) => {
            for st in &t.stmts {
                collect_loops_stmt(p, st, depth, out);
            }
            if let Some(e) = e {
                for st in &e.stmts {
                    collect_loops_stmt(p, st, depth, out);
                }
            }
            return;
        }
        StmtKind::Block(b) => {
            for st in &b.stmts {
                collect_loops_stmt(p, st, depth, out);
            }
            return;
        }
        _ => return,
    };
    let mut pragmas = Vec::new();
    for st in &body.stmts {
        if let StmtKind::Pragma(pr) = &st.kind {
            pragmas.push(pr.kind.clone());
        } else {
            break;
        }
    }
    let mut arrays = BTreeSet::new();
    for st in &body.stmts {
        visit::walk_stmt_exprs(st, &mut |e| {
            if let ExprKind::Index(base, _) = &e.kind {
                if let ExprKind::Ident(n) = &base.kind {
                    arrays.insert(n.clone());
                }
            }
        });
    }
    out.push(LoopInfo {
        id: s.id,
        pragmas,
        static_trip,
        arrays_accessed: arrays.into_iter().collect(),
        depth,
    });
    for st in &body.stmts {
        collect_loops_stmt(p, st, depth + 1, out);
    }
}

/// Extracts a static trip count from a canonical
/// `for (T i = 0; i < K; …)` header.
pub fn static_trip_count(
    p: &Program,
    init: &Option<Box<Stmt>>,
    cond: &Option<Expr>,
) -> Option<u64> {
    let start: i128 = match init.as_deref().map(|s| &s.kind) {
        Some(StmtKind::Decl(d)) => match d.init.as_ref().map(|e| &e.kind) {
            Some(ExprKind::IntLit(v, _)) => *v,
            _ => return None,
        },
        Some(StmtKind::Expr(e)) => match &e.kind {
            ExprKind::Assign(None, _, rhs) => match &rhs.kind {
                ExprKind::IntLit(v, _) => *v,
                _ => return None,
            },
            _ => return None,
        },
        _ => return None,
    };
    let cond = cond.as_ref()?;
    let ExprKind::Binary(op, _, rhs) = &cond.kind else {
        return None;
    };
    let bound: i128 = match &rhs.kind {
        ExprKind::IntLit(v, _) => *v,
        ExprKind::Ident(n) => p.define(n)?,
        _ => return None,
    };
    match op {
        BinOp::Lt => (bound - start).try_into().ok(),
        BinOp::Le => (bound - start + 1).try_into().ok(),
        _ => None,
    }
}

/// Partition factors declared for arrays anywhere in a function
/// (`u32::MAX` encodes `complete` partitioning). Used by the scheduler to
/// model memory-port limits.
pub fn partition_factors(f: &Function) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    let Some(body) = &f.body else { return out };
    for s in &body.stmts {
        visit::walk_stmt(s, &mut |s| {
            if let StmtKind::Pragma(pr) = &s.kind {
                if let PragmaKind::ArrayPartition {
                    var,
                    factor,
                    complete,
                    ..
                } = &pr.kind
                {
                    out.insert(var.clone(), if *complete { u32::MAX } else { *factor });
                }
            }
        });
    }
    out
}

fn check_pragmas(p: &Program, f: &Function, out: &mut Vec<HlsDiagnostic>) {
    let Some(body) = &f.body else { return };
    let has_dataflow = body
        .stmts
        .iter()
        .any(|s| matches!(&s.kind, StmtKind::Pragma(pr) if pr.kind == PragmaKind::Dataflow));

    // array_partition: factor must divide the array extent.
    let mut check_partition = |s: &Stmt| {
        if let StmtKind::Pragma(pr) = &s.kind {
            if let PragmaKind::ArrayPartition {
                var,
                factor,
                complete,
                ..
            } = &pr.kind
            {
                if *complete {
                    return;
                }
                if let Some(Type::Array(_, size)) =
                    &minic::edit::declared_type(p, Some(&f.name), var)
                {
                    if let Some(n) = minic::edit::resolve_array_size(p, size) {
                        if *factor == 0 || n % (*factor as u64) != 0 {
                            out.push(
                                HlsDiagnostic::new(
                                    "XFORM 202-711",
                                    format!(
                                        "Array '{var}' failed partition checking: factor {factor} does not divide array extent {n}"
                                    ),
                                    ErrorCategory::LoopParallelization,
                                )
                                .on(var.clone())
                                .in_function(f.name.clone())
                                .at(s.id),
                            );
                        }
                    }
                }
            }
        }
    };
    for s in &body.stmts {
        visit::walk_stmt(s, &mut check_partition);
    }

    // Unroll/dataflow interaction: a large unroll factor combined with a
    // dataflow region requires an explicit trip bound (paper post 721719:
    // the error appears only at factor >= 50 with a pre-existing dataflow
    // pragma; it is fixed by making the iteration count explicit).
    for l in collect_loops(p, f) {
        let unroll = l.pragmas.iter().find_map(|pk| match pk {
            PragmaKind::Unroll { factor } => Some(factor.unwrap_or(u32::MAX)),
            _ => None,
        });
        let has_tripcount = l
            .pragmas
            .iter()
            .any(|pk| matches!(pk, PragmaKind::LoopTripcount { .. }));
        if let Some(factor) = unroll {
            if has_dataflow && factor >= 32 && !has_tripcount && l.static_trip.is_none() {
                out.push(
                    HlsDiagnostic::new(
                        "HLS 200-70",
                        format!(
                            "Pre-synthesis failed: unroll factor {factor} inside a dataflow region requires a statically bounded loop (add an explicit tripcount)"
                        ),
                        ErrorCategory::LoopParallelization,
                    )
                    .in_function(f.name.clone())
                    .at(l.id),
                );
            }
        }
    }

    // Dataflow: the same array must not feed multiple simultaneous tasks.
    // A local buffer may legitimately appear in exactly two task calls
    // (single producer, single consumer); a third use — or a kernel
    // parameter consumed by two tasks (the paper's `my_func(data)` twice
    // case) — fails dataflow checking.
    if has_dataflow {
        let mut uses: BTreeMap<String, usize> = BTreeMap::new();
        for s in &body.stmts {
            if let StmtKind::Expr(e) = &s.kind {
                if let ExprKind::Call(_, args) = &e.kind {
                    for a in args {
                        if let ExprKind::Ident(n) = &a.kind {
                            if let Some(t) = minic::edit::declared_type(p, Some(&f.name), n) {
                                if t.is_array() || t.is_pointer() {
                                    *uses.entry(n.clone()).or_insert(0) += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        for (var, count) in uses {
            let is_param = f.params.iter().any(|q| q.name == var);
            let limit = if is_param { 2 } else { 3 };
            if count >= limit {
                out.push(
                    HlsDiagnostic::new(
                        "XFORM 202-711",
                        format!(
                            "Argument '{var}' failed dataflow checking: the same data is consumed by {count} simultaneous tasks"
                        ),
                        ErrorCategory::DataflowOptimization,
                    )
                    .on(var)
                    .in_function(f.name.clone()),
                );
            }
        }
    }
}

/// Struct instantiation rules: `S{…}` aggregates of method-bearing structs
/// need an explicit constructor, and a stream connecting two instances must
/// be `static`.
fn check_struct_instantiation(p: &Program, out: &mut Vec<HlsDiagnostic>) {
    for f in p.functions() {
        let Some(body) = &f.body else { continue };
        // Count struct-literal uses and which stream locals they mention.
        let mut stream_uses: BTreeMap<String, usize> = BTreeMap::new();
        let mut instantiated: BTreeSet<String> = BTreeSet::new();
        visit::visit_function_exprs(f, &mut |e| {
            if let ExprKind::StructLit(name, args) = &e.kind {
                instantiated.insert(name.clone());
                for a in args {
                    if let ExprKind::Ident(n) = &a.kind {
                        if let Some(Type::Stream(_)) =
                            minic::edit::declared_type(p, Some(&f.name), n)
                        {
                            *stream_uses.entry(n.clone()).or_insert(0) += 1;
                        }
                    }
                }
            }
        });
        for sname in &instantiated {
            let Some(def) = p.struct_def(sname) else {
                continue;
            };
            if !def.methods.is_empty() && def.ctor.is_none() {
                out.push(
                    HlsDiagnostic::new(
                        "SYNCHK 200-42",
                        format!(
                            "Argument 'this' has an unsynthesizable struct type '{sname}': no explicit constructor for hardware instantiation"
                        ),
                        ErrorCategory::StructAndUnion,
                    )
                    .on(sname.clone())
                    .in_function(f.name.clone())
                    .at(def.id),
                );
            }
        }
        if !instantiated.is_empty() {
            for (var, count) in stream_uses {
                if count >= 2 && !is_static_local(body, &var) {
                    out.push(
                        HlsDiagnostic::new(
                            "SYNCHK 200-96",
                            format!(
                                "Stream '{var}' connecting struct task instances must be static"
                            ),
                            ErrorCategory::StructAndUnion,
                        )
                        .on(var)
                        .in_function(f.name.clone()),
                    );
                }
            }
        }
    }
}

fn is_static_local(b: &Block, var: &str) -> bool {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Decl(d) if d.name == var => return d.is_static,
            StmtKind::Block(inner) if is_static_local(inner, var) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<HlsDiagnostic> {
        check_program(&minic::parse(src).unwrap())
    }

    fn has_category(ds: &[HlsDiagnostic], c: ErrorCategory) -> bool {
        ds.iter().any(|d| d.category == c)
    }

    #[test]
    fn clean_kernel_is_synthesizable() {
        let ds =
            diags("void kernel(int a[16]) { for (int i = 0; i < 16; i++) { a[i] = a[i] + 1; } }");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn recursion_reported() {
        let ds = diags("int kernel(int n) { if (n < 2) { return n; } return kernel(n - 1); }");
        assert!(has_category(&ds, ErrorCategory::DynamicDataStructures));
        assert!(ds.iter().any(|d| d.code == "XFORM 202-876"));
    }

    #[test]
    fn malloc_reported() {
        let ds = diags("void kernel(int n) { int* p = (int*)malloc(n); free(p); }");
        assert!(ds.iter().any(|d| d.code == "SYNCHK 200-31"));
    }

    #[test]
    fn long_double_reported() {
        let ds = diags("int kernel(int x) { long double y = x; return y; }");
        assert!(has_category(&ds, ErrorCategory::UnsupportedDataTypes));
        assert!(ds.iter().any(|d| d.message.contains("long double")));
    }

    #[test]
    fn pointer_local_reported_but_top_param_allowed() {
        let ds = diags("void kernel(float* out) { float x = out[0]; out[0] = x; }");
        assert!(ds.is_empty(), "top interface pointers allowed: {ds:?}");
        let ds =
            diags("void helper(float* p) { p[0] = 1.0; } void kernel(float a[4]) { helper(a); }");
        assert!(has_category(&ds, ErrorCategory::UnsupportedDataTypes));
    }

    #[test]
    fn unknown_size_array_reported() {
        let ds = diags("void kernel(int n) { int buf[n]; buf[0] = 1; }");
        assert!(has_category(&ds, ErrorCategory::DynamicDataStructures));
        assert!(ds.iter().any(|d| d.message.contains("unknown size")));
    }

    #[test]
    fn partition_factor_must_divide() {
        let ds = diags(
            r#"
            void kernel(int x) {
                int A[13];
            #pragma HLS array_partition variable=A factor=4 dim=1
                for (int i = 0; i < 13; i++) { A[i] = x; }
            }
        "#,
        );
        assert!(has_category(&ds, ErrorCategory::LoopParallelization));
        assert!(ds.iter().any(|d| d.code == "XFORM 202-711"));
    }

    #[test]
    fn partition_factor_dividing_is_clean() {
        let ds = diags(
            r#"
            void kernel(int x) {
                int A[12];
            #pragma HLS array_partition variable=A factor=4 dim=1
                for (int i = 0; i < 12; i++) { A[i] = x; }
            }
        "#,
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn dataflow_same_array_to_two_tasks() {
        // The paper's case: the top's own input feeds two simultaneous
        // tasks (post 595161).
        let ds = diags(
            r#"
            void task(int d[8]) { d[0] = 1; }
            void kernel(int data[8]) {
            #pragma HLS dataflow
                task(data);
                task(data);
            }
        "#,
        );
        assert!(has_category(&ds, ErrorCategory::DataflowOptimization));
        // A local buffer with one producer and one consumer is canonical.
        let ok = diags(
            r#"
            void produce(int d[8]) { d[0] = 1; }
            void consume(int d[8], int o[8]) { o[0] = d[0]; }
            void kernel(int out[8]) {
            #pragma HLS dataflow
                int buf[8];
                produce(buf);
                consume(buf, out);
            }
        "#,
        );
        assert!(ok.is_empty(), "{ok:?}");
        // A third use fails.
        let bad = diags(
            r#"
            void produce(int d[8]) { d[0] = 1; }
            void consume(int d[8], int o[8]) { o[0] = d[0]; }
            void kernel(int o1[8], int o2[8]) {
            #pragma HLS dataflow
                int buf[8];
                produce(buf);
                consume(buf, o1);
                consume(buf, o2);
            }
        "#,
        );
        assert!(has_category(&bad, ErrorCategory::DataflowOptimization));
    }

    #[test]
    fn unroll_with_dataflow_needs_bound() {
        let ds = diags(
            r#"
            void kernel(int a[128], int n) {
            #pragma HLS dataflow
                for (int i = 0; i < n; i++) {
            #pragma HLS unroll factor=50
                    a[i] = a[i] + 1;
                }
            }
        "#,
        );
        assert!(ds.iter().any(|d| d.code == "HLS 200-70"), "{ds:?}");
        // With a tripcount pragma the error disappears.
        let ds2 = diags(
            r#"
            void kernel(int a[128], int n) {
            #pragma HLS dataflow
                for (int i = 0; i < n; i++) {
            #pragma HLS unroll factor=50
            #pragma HLS loop_tripcount min=1 max=128
                    a[i] = a[i] + 1;
                }
            }
        "#,
        );
        assert!(!ds2.iter().any(|d| d.code == "HLS 200-70"), "{ds2:?}");
    }

    #[test]
    fn struct_without_ctor_reported() {
        let ds = diags(
            r#"
            struct If2 {
                hls::stream<unsigned> &in;
                hls::stream<unsigned> &out;
                void do1() { out.write(in.read()); }
            };
            void kernel(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
            #pragma HLS dataflow
                hls::stream<unsigned> tmp;
                If2{in, tmp}.do1();
                If2{tmp, out}.do1();
            }
        "#,
        );
        assert!(has_category(&ds, ErrorCategory::StructAndUnion));
        assert!(ds
            .iter()
            .any(|d| d.message.contains("unsynthesizable struct")));
        // Non-static connecting stream also reported.
        assert!(ds.iter().any(|d| d.message.contains("must be static")));
    }

    #[test]
    fn struct_with_ctor_and_static_stream_is_clean() {
        let ds = diags(
            r#"
            struct If2 {
                hls::stream<unsigned> &in;
                hls::stream<unsigned> &out;
                If2(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}
                void do1() { out.write(in.read()); }
            };
            void kernel(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
            #pragma HLS dataflow
                static hls::stream<unsigned> tmp;
                If2{in, tmp}.do1();
                If2{tmp, out}.do1();
            }
        "#,
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn missing_top_reported() {
        let ds = diags("void helper(int x) { }");
        assert!(has_category(&ds, ErrorCategory::TopFunction));
    }

    #[test]
    fn misnamed_top_config_reported() {
        let ds = diags("#pragma HLS top name=main_top\nvoid kernel(int a[4]) { a[0] = 1; }");
        assert!(ds.iter().any(|d| d.message.contains("main_top")));
    }

    #[test]
    fn bad_clock_reported() {
        let ds = diags("#pragma HLS config clock=1200\nvoid kernel(int a[4]) { a[0] = 1; }");
        assert!(has_category(&ds, ErrorCategory::TopFunction));
    }

    #[test]
    fn static_trip_count_extraction() {
        let p = minic::parse(
            "#define N 8\nvoid kernel(int a[8]) { for (int i = 0; i < N; i++) { a[i] = 0; } for (int j = 2; j <= 5; j++) { a[j] = 1; } }",
        )
        .unwrap();
        let f = p.function("kernel").unwrap();
        let loops = collect_loops(&p, f);
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].static_trip, Some(8));
        assert_eq!(loops[1].static_trip, Some(4));
        assert_eq!(loops[0].arrays_accessed, vec!["a".to_string()]);
    }

    #[test]
    fn resilient_check_with_no_faults_matches_plain_check() {
        let p = minic::parse("void kernel(int n) { int buf[n]; buf[0] = 1; }").unwrap();
        let plain = check_program(&p);
        let resilient = check_program_resilient(&p, &heterogen_faults::NoFaults, 42, 0).unwrap();
        assert_eq!(plain, resilient);
    }

    #[test]
    fn resilient_check_surfaces_injected_faults() {
        let p = minic::parse("void kernel(int a[4]) { a[0] = 1; }").unwrap();
        let plan = heterogen_faults::FaultPlan::builder(1)
            .with_transient_rate(1.0)
            .with_transient_len(1)
            .build();
        let err = check_program_resilient(&p, &plan, 5, 0).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(err.site(), "hls_check");
        // The transient run length is 1, so attempt 1 succeeds.
        assert!(check_program_resilient(&p, &plan, 5, 1).unwrap().is_empty());

        let permanent = heterogen_faults::FaultPlan::builder(1)
            .with_permanent_key(5)
            .build();
        let err = check_program_resilient(&p, &permanent, 5, 0).unwrap_err();
        assert!(!err.is_transient());
        // Other keys are untouched.
        assert!(check_program_resilient(&p, &permanent, 6, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "injected poison fault")]
    fn resilient_check_poison_panics() {
        let p = minic::parse("void kernel(int a[4]) { a[0] = 1; }").unwrap();
        let plan = heterogen_faults::FaultPlan::builder(1)
            .with_poison_key(9)
            .build();
        let _ = check_program_resilient(&p, &plan, 9, 0);
    }

    #[test]
    fn multiple_errors_reported_together() {
        let ds = diags(
            r#"
            void t(int n) { if (n > 0) { t(n - 1); } }
            void kernel(int n) {
                long double x = 0.0L;
                int* p = (int*)malloc(n);
                t(n);
                free(p);
            }
        "#,
        );
        assert!(has_category(&ds, ErrorCategory::DynamicDataStructures));
        assert!(has_category(&ds, ErrorCategory::UnsupportedDataTypes));
        assert!(ds.len() >= 4);
    }
}
