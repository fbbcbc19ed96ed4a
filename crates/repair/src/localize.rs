//! Repair localization (paper §5.2): from classified diagnostics to
//! concretized candidate edits.
//!
//! "HLS compiler error messages often provide a crucial hint on which
//! language constructs must be modified": each diagnostic is classified by
//! its *message text* and mapped to the Table 2 templates of that category,
//! with parameters (sizes, factors, bounds) drawn from the execution
//! profile collected during test generation.

use crate::classify::classify_message;
use crate::templates::{RepairEdit, ResizeTarget};
use hls_sim::{ErrorCategory, HlsDiagnostic};
use minic::ast::*;
use minic::types::Type;
use minic::visit;
use minic_exec::Profile;

/// Rounds up to the next power of two (≥ 2).
pub fn next_pow2(n: u64) -> u64 {
    n.max(2).next_power_of_two()
}

/// Produces candidate edits for a set of diagnostics on a program.
///
/// Multiple alternatives per diagnostic are intentional — the search ranks
/// and tries them; dependence gating happens in the search, not here.
pub fn candidate_edits(p: &Program, diags: &[HlsDiagnostic], profile: &Profile) -> Vec<RepairEdit> {
    let mut out: Vec<RepairEdit> = Vec::new();
    for d in diags {
        let edits = match classify_message(&d.message) {
            ErrorCategory::DynamicDataStructures => dynamic_edits(p, d, profile),
            ErrorCategory::UnsupportedDataTypes => type_edits(p, d, profile),
            ErrorCategory::DataflowOptimization => dataflow_edits(p, d),
            ErrorCategory::LoopParallelization => loop_edits(p, d),
            ErrorCategory::StructAndUnion => struct_edits(p, d, diags),
            ErrorCategory::TopFunction => top_edits(p, d),
        };
        for e in edits {
            if !out.contains(&e) {
                out.push(e);
            }
        }
    }
    out
}

/// Resize candidates: every size constant introduced by a previous
/// finitization edit can be doubled (the §6.2 divergence fix).
pub fn resize_edits(p: &Program) -> Vec<RepairEdit> {
    let mut out = Vec::new();
    for item in p.items.iter().map(|i| &**i) {
        if let Item::Define(name, _) = item {
            if name.ends_with("_STACK_SIZE") || name.ends_with("_ARR_SIZE") {
                out.push(RepairEdit::Resize {
                    target: ResizeTarget::Define(name.clone()),
                    factor: 2,
                });
            }
        }
    }
    out
}

fn dynamic_edits(p: &Program, d: &HlsDiagnostic, profile: &Profile) -> Vec<RepairEdit> {
    let mut out = Vec::new();
    let m = d.message.to_ascii_lowercase();
    if m.contains("recursi") {
        if let Some(f) = d.function.as_deref().or(d.symbol.as_deref()) {
            let depth = profile.max_depth.get(f).copied().unwrap_or(0);
            let capacity = if depth > 0 {
                next_pow2(depth + 1)
            } else {
                1024
            };
            out.push(RepairEdit::StackTrans {
                function: f.to_string(),
                capacity,
            });
        }
    }
    if m.contains("dynamic memory") || m.contains("malloc") {
        for s in malloced_structs(p) {
            let capacity = next_pow2((profile.peak_heap_cells as u64).clamp(16, 4096));
            out.push(RepairEdit::PointerToIndex {
                struct_name: s,
                capacity,
            });
        }
    }
    if m.contains("unknown size") {
        if let Some(var) = &d.symbol {
            let idx = d
                .function
                .as_deref()
                .and_then(|f| profile.max_index.get(&(f.to_string(), var.clone())))
                .copied()
                .unwrap_or(31);
            out.push(RepairEdit::ArrayStatic {
                var: var.clone(),
                function: d.function.clone(),
                size: next_pow2(idx.max(0) as u64 + 1),
            });
        }
    }
    out
}

fn type_edits(p: &Program, d: &HlsDiagnostic, profile: &Profile) -> Vec<RepairEdit> {
    let mut out = Vec::new();
    let m = d.message.to_ascii_lowercase();
    if m.contains("long double") {
        if let Some(var) = &d.symbol {
            out.push(RepairEdit::TypeTrans {
                var: var.clone(),
                function: d.function.clone(),
                to: Type::FpgaFloat { exp: 8, mant: 71 },
            });
            // The Figure 4 follow-ups; dependence-gated by the search.
            out.push(RepairEdit::TypeCasting {
                var: var.clone(),
                function: d.function.clone(),
            });
            out.push(RepairEdit::OpOverload {
                var: var.clone(),
                function: d.function.clone(),
            });
        }
    }
    if m.contains("pointer") {
        if let (Some(var), Some(function)) = (&d.symbol, &d.function) {
            // A pointer parameter of a helper: array-ify it with a profiled
            // extent.
            if let Some(f) = p.function(function) {
                if f.params.iter().any(|q| &q.name == var) {
                    let idx = profile
                        .max_index
                        .get(&(function.clone(), var.clone()))
                        .copied()
                        .unwrap_or(31);
                    out.push(RepairEdit::PointerParamToArray {
                        function: function.clone(),
                        param: var.clone(),
                        size: next_pow2(idx.max(0) as u64 + 1),
                    });
                }
            }
            // A struct pointer: the index transform covers it.
            if let Some(Type::Pointer(inner)) = minic::edit::declared_type(p, Some(function), var) {
                if let Type::Struct(s) = inner.as_ref() {
                    out.push(RepairEdit::PointerToIndex {
                        struct_name: s.clone(),
                        capacity: next_pow2((profile.peak_heap_cells as u64).clamp(16, 4096)),
                    });
                }
            }
        }
        // Pointer members of structs: index transform on that struct.
        if d.function.is_some() && d.symbol.is_some() {
            for s in malloced_structs(p) {
                let e = RepairEdit::PointerToIndex {
                    struct_name: s,
                    capacity: next_pow2((profile.peak_heap_cells as u64).clamp(16, 4096)),
                };
                if !out.contains(&e) {
                    out.push(e);
                }
            }
        }
    }
    out
}

fn dataflow_edits(_p: &Program, d: &HlsDiagnostic) -> Vec<RepairEdit> {
    let mut out = Vec::new();
    if let (Some(var), Some(function)) = (&d.symbol, &d.function) {
        out.push(RepairEdit::DuplicateArrayArg {
            function: function.clone(),
            var: var.clone(),
        });
    }
    if let Some(function) = &d.function {
        out.push(RepairEdit::DeletePragma {
            function: function.clone(),
            kind: "dataflow".to_string(),
        });
    }
    out
}

fn loop_edits(p: &Program, d: &HlsDiagnostic) -> Vec<RepairEdit> {
    let mut out = Vec::new();
    let m = d.message.to_ascii_lowercase();
    let Some(function) = &d.function else {
        return out;
    };
    if m.contains("partition") {
        if let Some(var) = &d.symbol {
            if let Some(Type::Array(_, size)) = minic::edit::declared_type(p, Some(function), var) {
                if let Some(extent) = minic::edit::resolve_array_size(p, &size) {
                    let factor = declared_partition_factor(p, function, var).unwrap_or(2);
                    // Alternative 1: pad the array up to a multiple.
                    let padded = extent.div_ceil(factor as u64) * factor as u64;
                    out.push(RepairEdit::PadArray {
                        var: var.clone(),
                        function: Some(function.clone()),
                        new_size: padded,
                    });
                    // Alternative 2: lower the factor to a divisor.
                    if let Some(div) = largest_divisor_at_most(extent, factor) {
                        out.push(RepairEdit::ReplacePragmaFactor {
                            function: function.clone(),
                            kind: "array_partition".to_string(),
                            var: Some(var.clone()),
                            value: div,
                        });
                    }
                }
            }
        }
    }
    if m.contains("pre-synthesis") || m.contains("tripcount") || m.contains("unroll") {
        if let Some(f) = p.function(function) {
            let loops = hls_sim::check::collect_loops(p, f);
            for (i, l) in loops.iter().enumerate() {
                let has_unroll = l
                    .pragmas
                    .iter()
                    .any(|pk| matches!(pk, PragmaKind::Unroll { .. }));
                if !has_unroll {
                    continue;
                }
                // Alternative 1: make the trip bound explicit.
                out.push(RepairEdit::IndexStatic {
                    function: function.clone(),
                    loop_index: i,
                    min: 1,
                    max: 4096,
                });
                // A mis-placed variant (function head) that only the cheap
                // style checker rules out — part of the search space the
                // paper's §5.3 checker prunes before compilation.
                out.push(RepairEdit::InsertPragma {
                    function: function.clone(),
                    loop_index: None,
                    pragma: PragmaKind::LoopTripcount { min: 1, max: 4096 },
                });
                // Alternative 2: lower the factor out of the failing range.
                out.push(RepairEdit::ReplacePragmaFactor {
                    function: function.clone(),
                    kind: "unroll".to_string(),
                    var: None,
                    value: 8,
                });
                // Alternative 3: drop the unroll altogether.
                out.push(RepairEdit::DeletePragma {
                    function: function.clone(),
                    kind: "unroll".to_string(),
                });
            }
        }
    }
    out
}

fn struct_edits(p: &Program, d: &HlsDiagnostic, all: &[HlsDiagnostic]) -> Vec<RepairEdit> {
    let mut out = Vec::new();
    let m = d.message.to_ascii_lowercase();
    if m.contains("unsynthesizable struct") {
        if let Some(s) = &d.symbol {
            // The two Figure 7 branches.
            out.push(RepairEdit::Constructor {
                struct_name: s.clone(),
            });
            out.push(RepairEdit::Flatten {
                struct_name: s.clone(),
            });
            out.push(RepairEdit::InstUpdate {
                struct_name: s.clone(),
            });
            // The companion stream fix (➌) if a static-stream diagnostic is
            // present for the same design.
            for other in all {
                if other.message.contains("must be static") {
                    if let (Some(var), Some(function)) = (&other.symbol, &other.function) {
                        out.push(RepairEdit::StreamStatic {
                            function: function.clone(),
                            var: var.clone(),
                        });
                    }
                }
            }
        }
    } else if m.contains("must be static") {
        if let (Some(var), Some(function)) = (&d.symbol, &d.function) {
            out.push(RepairEdit::StreamStatic {
                function: function.clone(),
                var: var.clone(),
            });
        }
    } else if m.contains("pointer") {
        for s in malloced_structs(p) {
            out.push(RepairEdit::PointerToIndex {
                struct_name: s,
                capacity: 1024,
            });
        }
    }
    out
}

fn top_edits(p: &Program, d: &HlsDiagnostic) -> Vec<RepairEdit> {
    let mut out = Vec::new();
    let m = d.message.to_ascii_lowercase();
    if m.contains("clock") {
        out.push(RepairEdit::FixClock);
        return out;
    }
    // Configuration exploration: prefer functions that look like kernels —
    // ones nobody calls, with parameters.
    let mut candidates: Vec<&Function> = p.functions().collect();
    candidates.sort_by_key(|f| {
        let called = minic::edit::callers_of(p, &f.name)
            .iter()
            .filter(|c| *c != &f.name)
            .count();
        (called, usize::MAX - f.params.len())
    });
    for f in candidates {
        out.push(RepairEdit::SetTop {
            name: f.name.clone(),
        });
    }
    out
}

/// Structs allocated via `(S*)malloc(...)` anywhere in the program.
pub fn malloced_structs(p: &Program) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    visit::visit_exprs(p, &mut |e| {
        if let ExprKind::Cast(Type::Pointer(inner), arg) = &e.kind {
            if let Type::Struct(s) = inner.as_ref() {
                if matches!(&arg.kind, ExprKind::Call(n, _) if n == "malloc") && !out.contains(s) {
                    out.push(s.clone());
                }
            }
        }
    });
    out
}

fn declared_partition_factor(p: &Program, function: &str, var: &str) -> Option<u32> {
    let f = p.function(function)?;
    hls_sim::check::partition_factors(f).get(var).copied()
}

fn largest_divisor_at_most(n: u64, at_most: u32) -> Option<u32> {
    (1..=at_most.min(n as u32))
        .rev()
        .find(|d| n.is_multiple_of(*d as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edits_for(src: &str) -> Vec<RepairEdit> {
        let p = minic::parse(src).unwrap();
        let diags = hls_sim::check_program(&p);
        candidate_edits(&p, &diags, &Profile::new())
    }

    #[test]
    fn recursion_yields_stack_trans() {
        let es = edits_for("void kernel(int n) { if (n > 0) { kernel(n - 1); } }");
        assert!(es
            .iter()
            .any(|e| matches!(e, RepairEdit::StackTrans { function, .. } if function == "kernel")));
    }

    #[test]
    fn malloc_yields_pointer_to_index() {
        let es = edits_for(
            "struct Node { int v; };\nvoid kernel(int n) { struct Node* p = (struct Node*)malloc(sizeof(struct Node)); free(p); }",
        );
        assert!(es.iter().any(
            |e| matches!(e, RepairEdit::PointerToIndex { struct_name, .. } if struct_name == "Node")
        ));
    }

    #[test]
    fn unknown_array_yields_array_static_with_profiled_size() {
        let p = minic::parse("void kernel(int n) { int buf[n]; buf[0] = 1; }").unwrap();
        let diags = hls_sim::check_program(&p);
        let mut profile = Profile::new();
        profile.record_index("kernel", "buf", 90);
        let es = candidate_edits(&p, &diags, &profile);
        assert!(es.iter().any(
            |e| matches!(e, RepairEdit::ArrayStatic { var, size, .. } if var == "buf" && *size == 128)
        ));
    }

    #[test]
    fn long_double_yields_figure4_chain() {
        let es = edits_for("int kernel(int x) { long double y = x; return y; }");
        let kinds: Vec<&str> = es.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"type_trans"));
        assert!(kinds.contains(&"type_casting"));
        assert!(kinds.contains(&"op_overload"));
    }

    #[test]
    fn partition_mismatch_yields_both_alternatives() {
        let es = edits_for(
            r#"
            void kernel(int x) {
                int A[13];
            #pragma HLS array_partition variable=A factor=4 dim=1
                for (int i = 0; i < 13; i++) { A[i] = x; }
            }
        "#,
        );
        assert!(es
            .iter()
            .any(|e| matches!(e, RepairEdit::PadArray { new_size: 16, .. })));
        assert!(es
            .iter()
            .any(|e| matches!(e, RepairEdit::ReplacePragmaFactor { value, .. } if *value == 1)));
    }

    #[test]
    fn struct_error_yields_both_figure7_branches() {
        let es = edits_for(
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
        let kinds: Vec<&str> = es.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"constructor"));
        assert!(kinds.contains(&"flatten"));
        assert!(kinds.contains(&"stream_static"));
        assert!(kinds.contains(&"inst_update"));
    }

    #[test]
    fn missing_top_yields_set_top_for_kernel_like_function() {
        let es = edits_for("void process(int a[4]) { a[0] = 1; }");
        assert!(es
            .iter()
            .any(|e| matches!(e, RepairEdit::SetTop { name } if name == "process")));
    }

    #[test]
    fn resize_edits_find_introduced_constants() {
        let p = minic::parse(
            "#define MSORT_STACK_SIZE 1024\n#define NODE_ARR_SIZE 64\n#define OTHER 3\nvoid kernel(int x) { }",
        )
        .unwrap();
        let es = resize_edits(&p);
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(1), 2);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(84), 128);
        assert_eq!(next_pow2(1024), 1024);
    }
}
