//! The lightweight coding-style checker.
//!
//! This is the reproduction of HeteroGen's "LLVM front-end for HLS" trick
//! (paper §5.3): a cheap structural pass that rejects obviously malformed
//! repair candidates *before* the expensive full compilation. It checks
//! pragma placement and reference validity only — semantic rules (factor
//! divisibility, dataflow argument sharing, …) are deliberately left to the
//! full checker, so the two passes have genuinely different costs and
//! coverage, which is what makes the paper's Figure 9 ablation meaningful.

use minic::ast::*;
use minic::visit;
use std::fmt;

/// A coding-style violation found by the cheap pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StyleViolation {
    /// Human-readable description.
    pub message: String,
    /// Enclosing function, when applicable.
    pub function: Option<String>,
}

impl fmt::Display for StyleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(func) => write!(f, "style: {} (in `{func}`)", self.message),
            None => write!(f, "style: {}", self.message),
        }
    }
}

/// Runs the style check. An empty result means the candidate is worth a full
/// compilation.
///
/// # Examples
///
/// ```
/// // An unroll pragma outside any loop is a style violation.
/// let p = minic::parse("void kernel(int a[4]) {\n#pragma HLS unroll factor=2\n a[0] = 1; }").unwrap();
/// assert!(!hls_sim::style::check_style(&p).is_empty());
/// ```
pub fn check_style(p: &Program) -> Vec<StyleViolation> {
    let mut out = Vec::new();
    for f in p.functions() {
        check_function(p, f, &mut out);
    }
    // File-scope pragmas: only `top`/config-like directives make sense.
    for item in p.items.iter().map(|i| &**i) {
        if let Item::Pragma(pr) = item {
            match &pr.kind {
                PragmaKind::Top { .. } | PragmaKind::Other(_) | PragmaKind::Interface { .. } => {}
                other => out.push(StyleViolation {
                    message: format!(
                        "pragma `{other:?}` is not valid at file scope; it must appear inside a function"
                    ),
                    function: None,
                }),
            }
        }
    }
    out
}

/// Whether the program passes the cheap style check.
pub fn conforms(p: &Program) -> bool {
    check_style(p).is_empty()
}

fn check_function(p: &Program, f: &Function, out: &mut Vec<StyleViolation>) {
    let Some(body) = &f.body else { return };
    // Function-level pragma placement: walk the statement tree, tracking
    // whether we are inside a loop body.
    for s in &body.stmts {
        check_stmt(p, f, s, false, out);
    }
    // `dataflow` must be at the top of the function body, not nested.
    let mut seen_non_pragma = false;
    for s in &body.stmts {
        match &s.kind {
            StmtKind::Pragma(pr) => {
                if pr.kind == PragmaKind::Dataflow && seen_non_pragma {
                    out.push(StyleViolation {
                        message: "dataflow pragma must be the first statement of the function body"
                            .to_string(),
                        function: Some(f.name.clone()),
                    });
                }
            }
            StmtKind::Decl(_) | StmtKind::Empty | StmtKind::Label(_) => {}
            _ => seen_non_pragma = true,
        }
    }
}

fn check_stmt(p: &Program, f: &Function, s: &Stmt, in_loop: bool, out: &mut Vec<StyleViolation>) {
    match &s.kind {
        StmtKind::Pragma(pr) => match &pr.kind {
            PragmaKind::Dataflow if in_loop => {
                out.push(StyleViolation {
                    message: "dataflow pragma is not valid inside a loop body".to_string(),
                    function: Some(f.name.clone()),
                });
            }
            PragmaKind::Unroll { factor } => {
                if !in_loop {
                    out.push(StyleViolation {
                        message: "unroll pragma must appear within a loop body".to_string(),
                        function: Some(f.name.clone()),
                    });
                }
                if let Some(0) = factor {
                    out.push(StyleViolation {
                        message: "unroll factor must be positive".to_string(),
                        function: Some(f.name.clone()),
                    });
                }
            }
            PragmaKind::Pipeline { ii } => {
                if !in_loop {
                    out.push(StyleViolation {
                        message: "pipeline pragma must appear within a loop body".to_string(),
                        function: Some(f.name.clone()),
                    });
                }
                if let Some(0) = ii {
                    out.push(StyleViolation {
                        message: "pipeline II must be positive".to_string(),
                        function: Some(f.name.clone()),
                    });
                }
            }
            PragmaKind::ArrayPartition {
                var,
                factor,
                complete,
                ..
            } => {
                if minic::edit::declared_type(p, Some(&f.name), var).is_none() {
                    out.push(StyleViolation {
                        message: format!(
                            "array_partition references `{var}`, which is not declared in scope"
                        ),
                        function: Some(f.name.clone()),
                    });
                } else if let Some(ty) = minic::edit::declared_type(p, Some(&f.name), var) {
                    if !ty.is_array() {
                        out.push(StyleViolation {
                            message: format!("array_partition target `{var}` is not an array"),
                            function: Some(f.name.clone()),
                        });
                    }
                }
                if !complete && *factor == 0 {
                    out.push(StyleViolation {
                        message: "array_partition needs a positive factor or `complete`"
                            .to_string(),
                        function: Some(f.name.clone()),
                    });
                }
            }
            PragmaKind::LoopTripcount { min, max } => {
                if !in_loop {
                    out.push(StyleViolation {
                        message: "loop_tripcount pragma must appear within a loop body".to_string(),
                        function: Some(f.name.clone()),
                    });
                }
                if min > max {
                    out.push(StyleViolation {
                        message: format!("loop_tripcount min {min} exceeds max {max}"),
                        function: Some(f.name.clone()),
                    });
                }
            }
            _ => {}
        },
        StmtKind::If(_, t, e) => {
            for st in &t.stmts {
                check_stmt(p, f, st, in_loop, out);
            }
            if let Some(e) = e {
                for st in &e.stmts {
                    check_stmt(p, f, st, in_loop, out);
                }
            }
        }
        StmtKind::While(_, b) | StmtKind::DoWhile(b, _) | StmtKind::For(_, _, _, b) => {
            for st in &b.stmts {
                check_stmt(p, f, st, true, out);
            }
        }
        StmtKind::Block(b) => {
            for st in &b.stmts {
                check_stmt(p, f, st, in_loop, out);
            }
        }
        _ => {}
    }
    // Statement-level: nothing else to check.
    let _ = visit::walk_stmt_exprs;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(src: &str) -> Vec<StyleViolation> {
        check_style(&minic::parse(src).unwrap())
    }

    #[test]
    fn clean_program_conforms() {
        let v = violations(
            r#"
            void kernel(int a[8]) {
            #pragma HLS dataflow
                for (int i = 0; i < 8; i++) {
            #pragma HLS unroll factor=2
                    a[i] = a[i] + 1;
                }
            }
        "#,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unroll_outside_loop_rejected() {
        let v = violations("void kernel(int a[4]) {\n#pragma HLS unroll factor=2\n a[0] = 1; }");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("within a loop"));
    }

    #[test]
    fn pipeline_outside_loop_rejected() {
        let v = violations("void kernel(int a[4]) {\n#pragma HLS pipeline\n a[0] = 1; }");
        assert!(!v.is_empty());
    }

    #[test]
    fn partition_unknown_variable_rejected() {
        let v = violations(
            "void kernel(int a[4]) {\n#pragma HLS array_partition variable=zz factor=2\n a[0] = 1; }",
        );
        assert!(v.iter().any(|x| x.message.contains("zz")));
    }

    #[test]
    fn partition_non_array_rejected() {
        let v = violations(
            "void kernel(int a[4]) { int s = 0;\n#pragma HLS array_partition variable=s factor=2\n a[0] = s; }",
        );
        assert!(v.iter().any(|x| x.message.contains("not an array")));
    }

    #[test]
    fn dataflow_must_lead_the_body() {
        let v = violations(
            "void task(int a[4]) { a[0] = 1; }\nvoid kernel(int a[4]) { task(a);\n#pragma HLS dataflow\n }",
        );
        assert!(v.iter().any(|x| x.message.contains("first statement")));
    }

    #[test]
    fn zero_factor_rejected() {
        let v = violations(
            "void kernel(int a[4]) { for (int i = 0; i < 4; i++) {\n#pragma HLS unroll factor=0\n a[i] = 0; } }",
        );
        assert!(v.iter().any(|x| x.message.contains("positive")));
    }

    #[test]
    fn tripcount_bounds_checked() {
        let v = violations(
            "void kernel(int a[4]) { for (int i = 0; i < 4; i++) {\n#pragma HLS loop_tripcount min=9 max=2\n a[i] = 0; } }",
        );
        assert!(v.iter().any(|x| x.message.contains("exceeds")));
    }

    #[test]
    fn style_misses_semantic_errors_by_design() {
        // Factor 4 on a 13-element array passes *style* (placement is fine)
        // but fails the *full* check — the separation that makes the
        // checker ablation meaningful.
        let src = r#"
            void kernel(int x) {
                int A[13];
            #pragma HLS array_partition variable=A factor=4 dim=1
                for (int i = 0; i < 13; i++) { A[i] = x; }
            }
        "#;
        let p = minic::parse(src).unwrap();
        assert!(check_style(&p).is_empty());
        assert!(!crate::check::check_program(&p).is_empty());
    }
}
