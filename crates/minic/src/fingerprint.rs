//! Structural 64-bit fingerprints of programs.
//!
//! The repair search dedups candidate programs; keying that set by
//! pretty-printed source means every candidate costs a full render plus a
//! permanently retained `String`. A fingerprint is an FNV-1a hash over the
//! AST *structure* — variant tags, names, literals, types, and the design
//! config — while ignoring [`NodeId`]s and
//! [`Span`](crate::token::Span)s, which differ between
//! otherwise identical candidates derived along different edit paths.
//!
//! Invariant (checked by a property test): programs with equal
//! pretty-printed source have equal fingerprints. The converse can fail
//! with probability ~2⁻⁶⁴ per pair; the search tolerates a false dedup hit
//! the same way it tolerates re-deriving an already-seen candidate.
//!
//! [`fingerprint_behaviour`] walks the same structure once more, leaving out
//! what cannot change a simulation's outcome — pragmas, the clock and the
//! device — and labels the remaining nodes on the way.

use crate::ast::{
    Block, Ctor, DesignConfig, Expr, ExprKind, Function, Item, NodeId, Param, Pragma, PragmaKind,
    Program, Stmt, StmtKind, StructDef, UnOp, VarDecl,
};
use crate::types::{ArraySize, Type};
use std::sync::Arc;

/// Streaming FNV-1a over structural bytes.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }
}

/// What a structural walk writes to: plain FNV-1a for
/// [`fingerprint_program`], or [`Behaviour`], which also labels nodes and
/// leaves pragmas out. Monomorphized, so the plain walk pays nothing for the
/// other.
trait Sink: Sized {
    /// Leave pragma items and statements, the clock and the device out.
    const PRAGMA_BLIND: bool = false;

    fn bytes(&mut self, bs: &[u8]);

    /// Records a statement or expression id.
    fn node(&mut self, _id: NodeId) {}

    /// Variant / position tag. Each call site uses a distinct constant so
    /// that differently-shaped trees cannot collide by concatenation.
    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i128(&mut self, v: i128) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn boolean(&mut self, v: bool) {
        self.tag(if v { 1 } else { 0 });
    }

    /// Length-prefixed so `("ab","c")` and `("a","bc")` differ.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.tag(0xE0),
            Some(x) => {
                self.tag(0xE1);
                f(self, x);
            }
        }
    }
}

impl Sink for Fnv {
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// The pragma-blind structure hash plus the labeling of the nodes it
/// covers.
struct Behaviour {
    shape: Fnv,
    ids: Fnv,
}

impl Sink for Behaviour {
    const PRAGMA_BLIND: bool = true;

    fn bytes(&mut self, bs: &[u8]) {
        self.shape.bytes(bs);
    }

    fn node(&mut self, id: NodeId) {
        self.ids.u64(id.0 as u64);
    }
}

fn is_pragma_stmt(s: &Stmt) -> bool {
    matches!(s.kind, StmtKind::Pragma(_))
}

/// Structural fingerprint of a whole program, including its
/// [`DesignConfig`]. `NodeId`s, spans, and the internal id counter do not
/// participate, so candidates that print identically hash identically.
pub fn fingerprint_program(p: &Program) -> u64 {
    let mut h = Fnv::new();
    hash_program(&mut h, p);
    h.0
}

/// The behaviour key of a program, from one walk: its structural
/// fingerprint with every pragma (file-scope and statement), the clock and
/// the device left out, paired with the fingerprint of the remaining
/// statement and expression ids.
///
/// Pragmas steer synthesis, not C semantics — both execution engines run a
/// pragma statement as a no-op — so two programs with equal keys behave
/// identically on every input, up to the one op each executed pragma
/// statement is charged. The id half keeps loop and branch ids (which a
/// run's loop statistics are keyed by) labeled alike. `config.top` stays
/// in: it picks the kernel. Neither value equals [`fingerprint_program`] or
/// [`fingerprint_node_ids`].
pub fn fingerprint_behaviour(p: &Program) -> (u64, u64) {
    let mut h = Behaviour {
        shape: Fnv::new(),
        ids: Fnv::new(),
    };
    hash_program(&mut h, p);
    (h.shape.0, h.ids.0)
}

fn hash_program<H: Sink>(h: &mut H, p: &Program) {
    hash_config(h, &p.config);
    let kept = |i: &&Arc<Item>| !(H::PRAGMA_BLIND && matches!(***i, Item::Pragma(_)));
    h.u64(p.items.iter().filter(kept).count() as u64);
    for item in p.items.iter().filter(kept) {
        hash_item(h, item);
    }
}

/// Fingerprint of a program's *node-id labeling*: an FNV-1a hash over every
/// statement and expression [`NodeId`] in deterministic
/// traversal order. Programs with equal [`fingerprint_program`] can still
/// differ here — reparses and print-identical candidates derived along
/// different edit paths renumber their nodes from different counters.
/// Consumers that bake `NodeId`s into derived artifacts (e.g. compiled
/// bytecode whose coverage and loop sites address the source AST) must key
/// caches by the *pair* of fingerprints, or a structural hit would hand
/// back sites labeled with another AST's ids.
pub fn fingerprint_node_ids(p: &Program) -> u64 {
    let mut h = Fnv::new();
    crate::visit::visit_stmts(p, &mut |s| h.u64(s.id.0 as u64));
    // Domain separator so a stmt-id suffix cannot collide with an
    // expr-id prefix.
    h.tag(0xEF);
    crate::visit::visit_exprs(p, &mut |e| h.u64(e.id.0 as u64));
    h.0
}

fn hash_config<H: Sink>(h: &mut H, c: &DesignConfig) {
    h.tag(0x01);
    h.opt(&c.top, |h, t| h.str(t));
    if !H::PRAGMA_BLIND {
        h.f64(c.clock_mhz);
        h.str(&c.device);
    }
}

fn hash_item<H: Sink>(h: &mut H, item: &Item) {
    match item {
        Item::Function(f) => {
            h.tag(0x10);
            hash_function(h, f);
        }
        Item::Struct(s) => {
            h.tag(0x11);
            hash_struct(h, s);
        }
        Item::Global(g) => {
            h.tag(0x12);
            hash_var_decl(h, g);
        }
        Item::Typedef(name, ty) => {
            h.tag(0x13);
            h.str(name);
            hash_type(h, ty);
        }
        Item::Include(s) => {
            h.tag(0x14);
            h.str(s);
        }
        Item::Define(name, v) => {
            h.tag(0x15);
            h.str(name);
            h.i128(*v);
        }
        Item::Pragma(p) => {
            h.tag(0x16);
            hash_pragma(h, p);
        }
    }
}

fn hash_function<H: Sink>(h: &mut H, f: &Function) {
    h.str(&f.name);
    hash_type(h, &f.ret);
    h.boolean(f.is_static);
    h.u64(f.params.len() as u64);
    for p in &f.params {
        hash_param(h, p);
    }
    h.opt(&f.body, hash_block);
}

fn hash_param<H: Sink>(h: &mut H, p: &Param) {
    h.str(&p.name);
    hash_type(h, &p.ty);
    h.boolean(p.by_ref);
}

fn hash_struct<H: Sink>(h: &mut H, s: &StructDef) {
    h.str(&s.name);
    h.boolean(s.is_union);
    h.u64(s.fields.len() as u64);
    for f in &s.fields {
        h.str(&f.name);
        hash_type(h, &f.ty);
        h.boolean(f.by_ref);
    }
    h.u64(s.methods.len() as u64);
    for m in &s.methods {
        hash_function(h, m);
    }
    h.opt(&s.ctor, hash_ctor);
}

fn hash_ctor<H: Sink>(h: &mut H, c: &Ctor) {
    h.u64(c.params.len() as u64);
    for p in &c.params {
        hash_param(h, p);
    }
    h.u64(c.inits.len() as u64);
    for (name, e) in &c.inits {
        h.str(name);
        hash_expr(h, e);
    }
    hash_block(h, &c.body);
}

fn hash_var_decl<H: Sink>(h: &mut H, d: &VarDecl) {
    h.str(&d.name);
    hash_type(h, &d.ty);
    h.boolean(d.is_static);
    h.boolean(d.is_const);
    h.opt(&d.init, hash_expr);
}

fn hash_block<H: Sink>(h: &mut H, b: &Block) {
    let kept = |s: &&Arc<Stmt>| !(H::PRAGMA_BLIND && is_pragma_stmt(s));
    h.u64(b.stmts.iter().filter(kept).count() as u64);
    for s in b.stmts.iter().filter(kept) {
        hash_stmt(h, s);
    }
}

fn hash_stmt<H: Sink>(h: &mut H, s: &Stmt) {
    h.node(s.id);
    match &s.kind {
        StmtKind::Decl(d) => {
            h.tag(0x30);
            hash_var_decl(h, d);
        }
        StmtKind::Expr(e) => {
            h.tag(0x31);
            hash_expr(h, e);
        }
        StmtKind::If(c, t, e) => {
            h.tag(0x32);
            hash_expr(h, c);
            hash_block(h, t);
            h.opt(e, hash_block);
        }
        StmtKind::While(c, b) => {
            h.tag(0x33);
            hash_expr(h, c);
            hash_block(h, b);
        }
        StmtKind::DoWhile(b, c) => {
            h.tag(0x34);
            hash_block(h, b);
            hash_expr(h, c);
        }
        StmtKind::For(init, cond, step, b) => {
            h.tag(0x35);
            h.opt(init, |h, s| hash_stmt(h, s));
            h.opt(cond, hash_expr);
            h.opt(step, hash_expr);
            hash_block(h, b);
        }
        StmtKind::Return(e) => {
            h.tag(0x36);
            h.opt(e, hash_expr);
        }
        StmtKind::Break => h.tag(0x37),
        StmtKind::Continue => h.tag(0x38),
        StmtKind::Block(b) => {
            h.tag(0x39);
            hash_block(h, b);
        }
        StmtKind::Pragma(p) => {
            h.tag(0x3A);
            hash_pragma(h, p);
        }
        StmtKind::Label(l) => {
            h.tag(0x3B);
            h.str(l);
        }
        StmtKind::Goto(l) => {
            h.tag(0x3C);
            h.str(l);
        }
        StmtKind::Empty => h.tag(0x3D),
    }
}

fn hash_expr<H: Sink>(h: &mut H, e: &Expr) {
    h.node(e.id);
    match &e.kind {
        ExprKind::IntLit(v, unsigned) => {
            h.tag(0x50);
            h.i128(*v);
            h.boolean(*unsigned);
        }
        ExprKind::FloatLit(v, long) => {
            h.tag(0x51);
            h.f64(*v);
            h.boolean(*long);
        }
        ExprKind::CharLit(c) => {
            h.tag(0x52);
            h.bytes(&[*c]);
        }
        ExprKind::StrLit(s) => {
            h.tag(0x53);
            h.str(s);
        }
        ExprKind::BoolLit(b) => {
            h.tag(0x54);
            h.boolean(*b);
        }
        ExprKind::Ident(name) => {
            h.tag(0x55);
            h.str(name);
        }
        ExprKind::Unary(op, a) => {
            h.tag(0x56);
            hash_unop(h, *op);
            hash_expr(h, a);
        }
        ExprKind::Binary(op, a, b) => {
            h.tag(0x57);
            h.tag(*op as u8);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        ExprKind::Assign(op, a, b) => {
            h.tag(0x58);
            h.opt(op, |h, o| h.tag(*o as u8));
            hash_expr(h, a);
            hash_expr(h, b);
        }
        ExprKind::Call(name, args) => {
            h.tag(0x59);
            h.str(name);
            hash_exprs(h, args);
        }
        ExprKind::MethodCall(recv, name, args) => {
            h.tag(0x5A);
            hash_expr(h, recv);
            h.str(name);
            hash_exprs(h, args);
        }
        ExprKind::Index(a, i) => {
            h.tag(0x5B);
            hash_expr(h, a);
            hash_expr(h, i);
        }
        ExprKind::Member(a, field, arrow) => {
            h.tag(0x5C);
            hash_expr(h, a);
            h.str(field);
            h.boolean(*arrow);
        }
        ExprKind::Cast(ty, a) => {
            h.tag(0x5D);
            hash_type(h, ty);
            hash_expr(h, a);
        }
        ExprKind::SizeOf(ty) => {
            h.tag(0x5E);
            hash_type(h, ty);
        }
        ExprKind::Ternary(c, t, e) => {
            h.tag(0x5F);
            hash_expr(h, c);
            hash_expr(h, t);
            hash_expr(h, e);
        }
        ExprKind::InitList(xs) => {
            h.tag(0x60);
            hash_exprs(h, xs);
        }
        ExprKind::StructLit(name, xs) => {
            h.tag(0x61);
            h.str(name);
            hash_exprs(h, xs);
        }
    }
}

fn hash_exprs<H: Sink>(h: &mut H, xs: &[Expr]) {
    h.u64(xs.len() as u64);
    for x in xs {
        hash_expr(h, x);
    }
}

fn hash_unop<H: Sink>(h: &mut H, op: UnOp) {
    match op {
        UnOp::Neg => h.tag(0x70),
        UnOp::Not => h.tag(0x71),
        UnOp::BitNot => h.tag(0x72),
        UnOp::Deref => h.tag(0x73),
        UnOp::AddrOf => h.tag(0x74),
        UnOp::Inc(pre) => {
            h.tag(0x75);
            h.boolean(pre);
        }
        UnOp::Dec(pre) => {
            h.tag(0x76);
            h.boolean(pre);
        }
    }
}

fn hash_pragma<H: Sink>(h: &mut H, p: &Pragma) {
    match &p.kind {
        PragmaKind::Pipeline { ii } => {
            h.tag(0x80);
            h.opt(ii, |h, v| h.u64(*v as u64));
        }
        PragmaKind::Unroll { factor } => {
            h.tag(0x81);
            h.opt(factor, |h, v| h.u64(*v as u64));
        }
        PragmaKind::Dataflow => h.tag(0x82),
        PragmaKind::ArrayPartition {
            var,
            factor,
            dim,
            complete,
        } => {
            h.tag(0x83);
            h.str(var);
            h.u64(*factor as u64);
            h.u64(*dim as u64);
            h.boolean(*complete);
        }
        PragmaKind::Interface { mode, port } => {
            h.tag(0x84);
            h.str(mode);
            h.str(port);
        }
        PragmaKind::Top { name } => {
            h.tag(0x85);
            h.str(name);
        }
        PragmaKind::Inline => h.tag(0x86),
        PragmaKind::LoopTripcount { min, max } => {
            h.tag(0x87);
            h.u64(*min);
            h.u64(*max);
        }
        PragmaKind::Other(s) => {
            h.tag(0x88);
            h.str(s);
        }
    }
}

fn hash_type<H: Sink>(h: &mut H, ty: &Type) {
    match ty {
        Type::Void => h.tag(0x90),
        Type::Bool => h.tag(0x91),
        Type::Int { width, signed } => {
            h.tag(0x92);
            h.u64(width.bits() as u64);
            h.boolean(*signed);
        }
        Type::Float => h.tag(0x93),
        Type::Double => h.tag(0x94),
        Type::LongDouble => h.tag(0x95),
        Type::FpgaInt { bits, signed } => {
            h.tag(0x96);
            h.u64(*bits as u64);
            h.boolean(*signed);
        }
        Type::FpgaFloat { exp, mant } => {
            h.tag(0x97);
            h.u64(*exp as u64);
            h.u64(*mant as u64);
        }
        Type::Pointer(inner) => {
            h.tag(0x98);
            hash_type(h, inner);
        }
        Type::Array(inner, size) => {
            h.tag(0x99);
            hash_type(h, inner);
            match size {
                ArraySize::Const(n) => {
                    h.tag(0xA0);
                    h.u64(*n);
                }
                ArraySize::Named(name) => {
                    h.tag(0xA1);
                    h.str(name);
                }
                ArraySize::Runtime(name) => {
                    h.tag(0xA2);
                    h.str(name);
                }
                ArraySize::Unknown => h.tag(0xA3),
            }
        }
        Type::Struct(name) => {
            h.tag(0x9A);
            h.str(name);
        }
        Type::Union(name) => {
            h.tag(0x9B);
            h.str(name);
        }
        Type::Stream(inner) => {
            h.tag(0x9C);
            hash_type(h, inner);
        }
        Type::Named(name) => {
            h.tag(0x9D);
            h.str(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const SRC: &str = r#"
        #define N 8
        int kernel(int a[8], int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
#pragma HLS pipeline II=1
                acc = acc + a[i];
            }
            return acc;
        }
    "#;

    #[test]
    fn stable_across_reparse() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&crate::print_program(&p1)).unwrap();
        assert_eq!(fingerprint_program(&p1), fingerprint_program(&p2));
    }

    #[test]
    fn ignores_node_ids() {
        let p1 = parse(SRC).unwrap();
        let mut p2 = parse(SRC).unwrap();
        // Renumbering synthesized ids must not affect the fingerprint; nor
        // does reparsing with a different id baseline (p2's ids are fresh).
        p2.renumber_synthesized();
        assert_eq!(fingerprint_program(&p1), fingerprint_program(&p2));
    }

    #[test]
    fn node_id_fingerprint_tracks_labeling_not_structure() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(SRC).unwrap();
        // Same source, same parse → same labeling.
        assert_eq!(fingerprint_node_ids(&p1), fingerprint_node_ids(&p2));
        // A padding global consumes ids, so dropping it afterwards yields a
        // program that prints identically (equal structural fingerprint)
        // but is labeled differently — the node-id fingerprint must differ.
        let mut shifted = parse(&format!("int __pad = 1;\n{SRC}")).unwrap();
        shifted.items.remove(0);
        assert_eq!(fingerprint_program(&p1), fingerprint_program(&shifted));
        assert_ne!(fingerprint_node_ids(&p1), fingerprint_node_ids(&shifted));
    }

    #[test]
    fn sensitive_to_structure_config_and_pragmas() {
        let base = parse(SRC).unwrap();
        let variant = parse(&SRC.replace("acc + a[i]", "acc - a[i]")).unwrap();
        assert_ne!(fingerprint_program(&base), fingerprint_program(&variant));

        let pragma = parse(&SRC.replace("II=1", "II=2")).unwrap();
        assert_ne!(fingerprint_program(&base), fingerprint_program(&pragma));

        let mut config = parse(SRC).unwrap();
        config.config.top = Some("kernel".to_string());
        assert_ne!(fingerprint_program(&base), fingerprint_program(&config));

        let define = parse(&SRC.replace("#define N 8", "#define N 9")).unwrap();
        assert_ne!(fingerprint_program(&base), fingerprint_program(&define));
    }

    #[test]
    fn behaviour_key_is_blind_to_pragmas_clock_and_device() {
        let base = parse(SRC).unwrap();
        let mut pragma_id = None;
        crate::visit::visit_stmts(&base, &mut |s| {
            if is_pragma_stmt(s) {
                pragma_id = Some(s.id);
            }
        });
        let mut stripped = base.clone();
        assert!(crate::edit::remove_stmt(&mut stripped, pragma_id.unwrap()));
        stripped.config.clock_mhz = 100.0;
        stripped.config.device = "other".to_string();
        stripped.items.push(Arc::new(Item::Pragma(Pragma {
            kind: PragmaKind::Dataflow,
        })));
        assert_ne!(fingerprint_program(&base), fingerprint_program(&stripped));
        assert_eq!(
            fingerprint_behaviour(&base),
            fingerprint_behaviour(&stripped)
        );
    }

    #[test]
    fn behaviour_key_tracks_structure_top_and_labeling() {
        let base = fingerprint_behaviour(&parse(SRC).unwrap());
        let variant = parse(&SRC.replace("acc + a[i]", "acc - a[i]")).unwrap();
        assert_ne!(base.0, fingerprint_behaviour(&variant).0);

        let mut top = parse(SRC).unwrap();
        top.config.top = Some("kernel".to_string());
        assert_ne!(base.0, fingerprint_behaviour(&top).0);

        // Print-identical, labeled differently: only the id half differs.
        let mut shifted = parse(&format!("int __pad = 1;\n{SRC}")).unwrap();
        shifted.items.remove(0);
        let shifted = fingerprint_behaviour(&shifted);
        assert_eq!(base.0, shifted.0);
        assert_ne!(base.1, shifted.1);
    }
}
