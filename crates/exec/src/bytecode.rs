//! Bytecode compiler for minic: lowers a [`Program`] into a flat instruction
//! array executed by [`crate::vm::Vm`].
//!
//! The compiler is **conservative**: any construct whose tree-walker
//! semantics it cannot reproduce exactly (goto, struct methods/ctors,
//! VLAs, …) aborts compilation of the whole program — [`compile`] returns
//! `None` and callers fall back to [`crate::interp::Machine`]. Everything
//! that does compile is *observably identical* to the walker: same values,
//! same `ExecError` classifications and message strings, same fuel (`ops`)
//! accounting, same coverage/profile/loop statistics, same allocation
//! order.
//!
//! Key ideas:
//!
//! - **Symbols are interned** (`names`), variables are resolved to frame
//!   **slots** at compile time (goto-free minic makes lexical scope equal
//!   the walker's dynamic scope), and jump targets are absolute indices.
//! - **Fuel charges are merged**: the walker charges 1 unit at every
//!   statement/expression/place entry; consecutive unit charges with no
//!   intervening side effect collapse into one stepwise `Insn::Charge`
//!   whose trap state (`ops == fuel + 1`) is exactly what the unit-at-a-
//!   time sequence would produce. Multi-unit charges (calls, streams,
//!   math builtins) keep walker overshoot semantics via `Insn::ChargeN`.
//! - **Types are erased**: every coercion site is precompiled to a `Co`
//!   (resolved scalar target, pointer stride, or a deterministic error),
//!   every store site to a `StoreK`, so the VM never consults typedef,
//!   struct, or define tables.
//! - **Statically-known runtime errors** (unknown variable/function,
//!   non-lvalue assignment, …) compile to `Insn::FailErr` at the exact
//!   program point — and with the exact message — where the walker would
//!   discover them.

use crate::error::ExecError;
use crate::value::Value;
use minic::ast::*;
use minic::typeck;
use minic::types::{ArraySize, Type};
use std::collections::HashMap;

/// Slot index; the high bit marks a global slot.
pub(crate) const GLOBAL_BIT: u32 = 1 << 31;

/// Maximum type-recursion depth before the compiler gives up (self-recursive
/// struct-by-value would loop in `size_of`).
const MAX_TYPE_DEPTH: u32 = 64;

/// A precompiled coercion target (mirrors [`crate::value::coerce`]).
#[derive(Debug, Clone)]
pub(crate) enum Co {
    /// Coerce to this (non-pointer) type; `coerce` never consults `size_of`
    /// for these.
    Ty(Type),
    /// Pointer target with precomputed `size_of(inner).max(1)` stride.
    PtrStride(usize),
    /// Pointer target whose pointee size is deterministically unknowable:
    /// coercing always fails with this error.
    PtrErr(ExecError),
}

/// A precompiled `store_typed` site.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StoreK {
    /// Raw single-cell store (streams).
    Raw,
    /// Struct/union aggregate copy of this many cells when the value is a
    /// pointer; raw store otherwise.
    AggOk(usize),
    /// Aggregate whose size is unknowable: fails (index into `errors`) when
    /// the value is a pointer, raw store otherwise.
    AggErr(u32),
    /// Scalar/pointer coercion site (index into `cos`).
    Co(u32),
}

/// Unary math builtins charging 8 fuel units.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Math1Op {
    Sqrt,
    Fabs,
    Exp,
    Log,
    Sin,
    Cos,
    Tan,
    Floor,
    Ceil,
    Round,
}

/// Binary math builtins charging 10 fuel units.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Math2Op {
    Pow,
    Fmin,
    Fmax,
    Atan2,
    Fmod,
}

/// One VM instruction. Place addresses travel the operand stack as
/// `Value::Ptr { addr, stride: 1 }`.
#[derive(Debug, Clone)]
pub(crate) enum Insn {
    /// Stop executing (globals epilogue / outermost return).
    Halt,
    /// `n` merged unit charges: on exhaustion `ops` is clamped to
    /// `fuel + 1`, exactly as `n` consecutive walker `charge(1)` calls.
    Charge(u64),
    /// A single multi-unit charge with walker overshoot semantics.
    ChargeN(u64),
    Const(Value),
    Pop,
    Jump(u32),
    /// Pop condition, record branch coverage, jump when false.
    BranchFalse {
        site: u32,
        target: u32,
    },
    /// Pop condition, record branch coverage, jump when true.
    BranchTrue {
        site: u32,
        target: u32,
    },
    /// Record an always-true branch outcome (`for` with no condition).
    CoverTrue {
        site: u32,
    },
    /// Count one loop iteration.
    LoopIter {
        site: u32,
    },
    /// Short-circuit `&&`: pop lhs; when falsy push `false` and jump.
    AndShort(u32),
    /// Short-circuit `||`: pop lhs; when truthy push `true` and jump.
    OrShort(u32),
    ToBool,
    /// Push the scalar stored in a variable's cell.
    LoadVar(u32),
    /// Push a decay pointer (array/aggregate rvalue) to a variable's cell.
    DecayVar {
        sl: u32,
        stride: usize,
    },
    /// Push a variable's cell address as a place.
    AddrVar(u32),
    /// Pop a place, push the value stored there.
    LoadPlace,
    /// Pop a place, push `Ptr { addr, stride }` (array/aggregate decay,
    /// `&` address-of).
    DecayPlace(usize),
    /// Pop a value, require a non-null pointer, push its address as a place.
    PlaceDeref,
    /// Pop base place and index: static-array indexing with bounds policy
    /// and (when `prof != u32::MAX`) max-index profiling.
    PlaceIndexArr {
        esize: usize,
        len: u64,
        prof: u32,
    },
    /// Pop base place and index: load the pointer stored at the base and
    /// offset by `index * stride`.
    PlaceIndexPtr,
    /// Pop a pointer rvalue and index: offset by `index * stride`.
    PlaceIndexVal,
    /// Pop a place, push it offset by a field offset.
    PlaceOffset(usize),
    /// Pop a value, require a non-null pointer (`->`), push as place.
    ArrowAddr,
    /// Assignment to a named variable (pop rhs, optional compound op,
    /// store via `k`, optional int-range profiling, push the reloaded
    /// value).
    StoreVar {
        sl: u32,
        k: StoreK,
        op: Option<BinOp>,
        prof: u32,
    },
    /// Assignment through a place (stack: rhs below place).
    StoreInd {
        k: StoreK,
        op: Option<BinOp>,
    },
    /// Declaration initializer store (no result pushed).
    StoreInit {
        sl: u32,
        k: StoreK,
    },
    /// Init-list element store at `slot address + off` through coercion
    /// `co` (no result pushed).
    StoreCell {
        sl: u32,
        off: usize,
        co: u32,
    },
    /// `++`/`--` on a popped place.
    IncDec {
        delta: i8,
        prefix: bool,
        k: StoreK,
        prof: u32,
    },
    /// Allocate `size` cells for a declaration (fresh per execution) and
    /// bind the slot; `stream` seeds the cell with a new stream handle.
    Alloc {
        sl: u32,
        size: usize,
        stream: bool,
    },
    /// `#define` global: allocate one cell holding the constant.
    GDefine {
        sl: u32,
        v: i128,
    },
    Neg,
    NotL,
    BitNot,
    /// Pop rhs/lhs, charge 1, apply [`crate::interp::binop_value`].
    Bin(BinOp),
    /// Pop, apply coercion `co`, push.
    CastTo(u32),
    /// Call a compiled function; argument count comes from its `FnSpec`.
    CallFn {
        f: u32,
    },
    /// Return the popped value (it stays on the operand stack).
    Ret,
    /// Return `Unit`.
    RetUnit,
    /// A statically-known runtime error at this program point.
    FailErr(u32),
    Malloc,
    FreeP,
    AbsI,
    Math1(Math1Op),
    Math2(Math2Op),
    Memset,
    Memcpy,
    /// Pop a stream-typed rvalue, push its handle.
    StreamFromVal,
    /// Pop a place holding a stream handle, push the handle.
    StreamFromPlace,
    StreamPush,
    StreamPop,
    StreamEmptyQ,
    StreamFullQ,
    StreamSizeQ,
}

/// Per-parameter precomputed binding/conversion data.
#[derive(Debug, Clone)]
pub(crate) struct ParamSpec {
    /// Interned parameter name (diagnostics for unbound parameters).
    pub pname: u32,
    /// Resolved declared type (kernel argument matching + error messages).
    pub pty: Type,
    /// Binding type (arrays decayed to pointers) is a stream: bind raw.
    pub is_stream: bool,
    /// Coercion for call-site binding (unused when `is_stream`).
    pub bco: u32,
    /// Coercion for kernel-entry integer arguments (`u32::MAX` when the
    /// parameter is not integer/bool typed).
    pub kco: u32,
    /// Kernel-entry array argument: element-is-float, or the error index
    /// for a non-array parameter.
    pub arr: Result<bool, u32>,
}

/// A compiled function.
#[derive(Debug, Clone)]
pub(crate) struct FnSpec {
    /// Interned function name.
    pub name: u32,
    /// Entry offset into `code`.
    pub entry: u32,
    /// Local slot count (parameters first).
    pub n_slots: u32,
    pub params: Vec<ParamSpec>,
}

/// A program compiled to bytecode. Independent of [`crate::interp::MachineConfig`]:
/// bounds policy, fuel and profiling are runtime concerns, so one compile
/// serves both CPU and FPGA configurations.
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) code: Vec<Insn>,
    pub(crate) funcs: Vec<FnSpec>,
    /// Function definitions by name (first definition wins, mirroring
    /// `Program::function`).
    pub(crate) by_name: HashMap<String, u32>,
    /// Interned names (functions, profiled variables, `"<global>"`).
    pub(crate) names: Vec<String>,
    /// Precomputed runtime errors referenced by instructions.
    pub(crate) errors: Vec<ExecError>,
    /// Precompiled coercions.
    pub(crate) cos: Vec<Co>,
    /// Branch-coverage sites (statement/ternary node ids).
    pub(crate) branch_sites: Vec<NodeId>,
    /// Loop-statistics sites.
    pub(crate) loop_sites: Vec<NodeId>,
    /// Int-range profile sites `(function name, variable name)`.
    pub(crate) int_sites: Vec<(u32, u32)>,
    /// Max-index profile sites `(function name, array name)`.
    pub(crate) idx_sites: Vec<(u32, u32)>,
    /// Global slot count.
    pub(crate) n_globals: u32,
    /// Entry offset of the globals-initialization segment.
    pub(crate) globals_entry: u32,
}

impl CompiledProgram {
    /// Number of instructions (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program compiled to no instructions (never true: the
    /// code array always holds at least the halt prologue).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// Compiles a program to bytecode, or returns `None` when it uses a
/// construct outside the supported subset (callers fall back to the
/// tree-walker).
pub fn compile(p: &Program) -> Option<CompiledProgram> {
    Compiler::new(p).run().ok()
}

/// Marker for "outside the bytecode subset — fall back to the walker".
struct Unsupported;

/// A compile-time variable binding (resolved type).
#[derive(Debug, Clone)]
struct CVar {
    sl: u32,
    ty: Type,
}

struct LoopCtx {
    /// Forward patches jumping to the loop end.
    brks: Vec<usize>,
    /// Forward patches for `continue` (do-while condition / for step).
    conts: Vec<usize>,
    /// Backward `continue` target when already known (`while`).
    cont_target: Option<u32>,
}

struct Compiler<'p> {
    p: &'p Program,
    expr_types: HashMap<NodeId, Type>,
    code: Vec<Insn>,
    funcs: Vec<FnSpec>,
    fn_asts: Vec<&'p Function>,
    by_name: HashMap<String, u32>,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    errors: Vec<ExecError>,
    cos: Vec<Co>,
    branch_sites: Vec<NodeId>,
    loop_sites: Vec<NodeId>,
    int_sites: Vec<(u32, u32)>,
    int_ids: HashMap<(u32, u32), u32>,
    idx_sites: Vec<(u32, u32)>,
    idx_ids: HashMap<(u32, u32), u32>,
    globals: HashMap<String, CVar>,
    locals: Vec<HashMap<String, CVar>>,
    next_slot: u32,
    n_globals: u32,
    cur_fn: u32,
    loop_stack: Vec<LoopCtx>,
    /// Unit charges accumulated since the last emitted instruction.
    pending: u64,
}

impl<'p> Compiler<'p> {
    fn new(p: &'p Program) -> Compiler<'p> {
        Compiler {
            p,
            expr_types: typeck::check(p).expr_types,
            code: Vec::new(),
            funcs: Vec::new(),
            fn_asts: Vec::new(),
            by_name: HashMap::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            errors: Vec::new(),
            cos: Vec::new(),
            branch_sites: Vec::new(),
            loop_sites: Vec::new(),
            int_sites: Vec::new(),
            int_ids: HashMap::new(),
            idx_sites: Vec::new(),
            idx_ids: HashMap::new(),
            globals: HashMap::new(),
            locals: Vec::new(),
            next_slot: 0,
            n_globals: 0,
            cur_fn: 0,
            loop_stack: Vec::new(),
            pending: 0,
        }
    }

    fn run(mut self) -> Result<CompiledProgram, Unsupported> {
        // Register function definitions first (calls resolve in any order;
        // the first definition of a name wins, like `Program::function`).
        for item in self.p.items.iter().map(|i| &**i) {
            if let Item::Function(f) = item {
                if f.body.is_some() && !self.by_name.contains_key(&f.name) {
                    let idx = self.funcs.len() as u32;
                    let name = self.name_id(&f.name);
                    self.by_name.insert(f.name.clone(), idx);
                    self.fn_asts.push(f);
                    self.funcs.push(FnSpec {
                        name,
                        entry: 0,
                        n_slots: 0,
                        params: Vec::new(),
                    });
                }
            }
        }
        // code[0] is the universal halt used as the outermost return target.
        self.code.push(Insn::Halt);
        let globals_entry = self.code.len() as u32;
        self.compile_globals()?;
        for i in 0..self.funcs.len() {
            self.compile_function(i)?;
        }
        debug_assert_eq!(self.pending, 0);
        Ok(CompiledProgram {
            code: self.code,
            funcs: self.funcs,
            by_name: self.by_name,
            names: self.names,
            errors: self.errors,
            cos: self.cos,
            branch_sites: self.branch_sites,
            loop_sites: self.loop_sites,
            int_sites: self.int_sites,
            idx_sites: self.idx_sites,
            n_globals: self.n_globals,
            globals_entry,
        })
    }

    // ----- small helpers ----------------------------------------------------

    fn name_id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_string());
        self.name_ids.insert(s.to_string(), id);
        id
    }

    fn err_id(&mut self, e: ExecError) -> u32 {
        self.errors.push(e);
        (self.errors.len() - 1) as u32
    }

    fn co_push(&mut self, co: Co) -> u32 {
        self.cos.push(co);
        (self.cos.len() - 1) as u32
    }

    fn bsite(&mut self, id: NodeId) -> u32 {
        self.branch_sites.push(id);
        (self.branch_sites.len() - 1) as u32
    }

    fn lsite(&mut self, id: NodeId) -> u32 {
        self.loop_sites.push(id);
        (self.loop_sites.len() - 1) as u32
    }

    fn int_site(&mut self, var: &str) -> u32 {
        let key = (self.cur_fn, self.name_id(var));
        if let Some(&id) = self.int_ids.get(&key) {
            return id;
        }
        let id = self.int_sites.len() as u32;
        self.int_sites.push(key);
        self.int_ids.insert(key, id);
        id
    }

    fn idx_site(&mut self, var: &str) -> u32 {
        let key = (self.cur_fn, self.name_id(var));
        if let Some(&id) = self.idx_ids.get(&key) {
            return id;
        }
        let id = self.idx_sites.len() as u32;
        self.idx_sites.push(key);
        self.idx_ids.insert(key, id);
        id
    }

    fn flush(&mut self) {
        if self.pending > 0 {
            let n = std::mem::take(&mut self.pending);
            self.code.push(Insn::Charge(n));
        }
    }

    fn emit(&mut self, i: Insn) {
        self.flush();
        self.code.push(i);
    }

    /// Binds a label here (flushing pending charges into the fall-through
    /// path first, so jumps land after them).
    fn here(&mut self) -> u32 {
        self.flush();
        self.code.len() as u32
    }

    fn emit_patch(&mut self, i: Insn) -> usize {
        self.emit(i);
        self.code.len() - 1
    }

    fn set_target(&mut self, at: usize, t: u32) {
        match &mut self.code[at] {
            Insn::Jump(x)
            | Insn::BranchFalse { target: x, .. }
            | Insn::BranchTrue { target: x, .. }
            | Insn::AndShort(x)
            | Insn::OrShort(x) => *x = t,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn patch_to_here(&mut self, at: usize) {
        let t = self.here();
        self.set_target(at, t);
    }

    /// Emits a statically-known runtime error at the current point.
    fn fail(&mut self, e: ExecError) {
        let id = self.err_id(e);
        self.emit(Insn::FailErr(id));
    }

    fn new_slot(&mut self) -> u32 {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }

    fn new_gslot(&mut self) -> u32 {
        let s = self.n_globals;
        self.n_globals += 1;
        s | GLOBAL_BIT
    }

    fn lookup(&self, name: &str) -> Option<&CVar> {
        for scope in self.locals.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v);
            }
        }
        self.globals.get(name)
    }

    // ----- type mirrors -----------------------------------------------------

    fn resolve(&self, t: &Type) -> Type {
        t.resolve_named(&|n| self.p.typedef(n).cloned())
    }

    /// Compile-time mirror of `Machine::size_of`: the inner result is what
    /// the walker would produce at runtime; the outer error bails out of
    /// bytecode compilation (recursion/overflow the walker would crash on).
    fn size_of(&self, t: &Type, depth: u32) -> Result<Result<usize, ExecError>, Unsupported> {
        if depth > MAX_TYPE_DEPTH {
            return Err(Unsupported);
        }
        let t = self.resolve(t);
        Ok(match &t {
            Type::Array(inner, size) => match minic::edit::resolve_array_size(self.p, size) {
                None => Err(ExecError::unknown_size("array with unresolved extent")),
                Some(n) => match self.size_of(inner, depth + 1)? {
                    Ok(s) => match (n as usize).checked_mul(s) {
                        Some(total) => Ok(total),
                        None => return Err(Unsupported),
                    },
                    Err(e) => Err(e),
                },
            },
            Type::Struct(name) => match self.p.struct_def(name) {
                None => Err(ExecError::unknown_size(format!("struct `{name}`"))),
                Some(def) => {
                    let mut sum = 0usize;
                    let mut out = None;
                    for f in &def.fields {
                        let s = if f.by_ref {
                            1
                        } else {
                            match self.size_of(&f.ty, depth + 1)? {
                                Ok(s) => s,
                                Err(e) => {
                                    out = Some(Err(e));
                                    break;
                                }
                            }
                        };
                        sum = match sum.checked_add(s) {
                            Some(v) => v,
                            None => return Err(Unsupported),
                        };
                    }
                    out.unwrap_or(Ok(sum.max(1)))
                }
            },
            Type::Union(name) => match self.p.struct_def(name) {
                None => Err(ExecError::unknown_size(format!("union `{name}`"))),
                Some(def) => {
                    let mut mx = 1usize;
                    let mut out = None;
                    for f in &def.fields {
                        match self.size_of(&f.ty, depth + 1)? {
                            Ok(s) => mx = mx.max(s),
                            Err(e) => {
                                out = Some(Err(e));
                                break;
                            }
                        }
                    }
                    out.unwrap_or(Ok(mx))
                }
            },
            _ => Ok(1),
        })
    }

    /// Compile-time mirror of `Machine::field_offset`.
    fn field_offset(
        &self,
        struct_name: &str,
        field: &str,
    ) -> Result<Result<(usize, Type), ExecError>, Unsupported> {
        let Some(def) = self.p.struct_def(struct_name) else {
            return Ok(Err(ExecError::setup(format!(
                "unknown struct `{struct_name}`"
            ))));
        };
        if def.is_union {
            return Ok(match def.field(field) {
                Some(f) => Ok((0, f.ty.clone())),
                None => Err(ExecError::setup(format!("no field `{field}`"))),
            });
        }
        let mut off = 0usize;
        for f in &def.fields {
            if f.name == field {
                return Ok(Ok((off, f.ty.clone())));
            }
            let s = if f.by_ref {
                1
            } else {
                match self.size_of(&f.ty, 0)? {
                    Ok(s) => s,
                    Err(e) => return Ok(Err(e)),
                }
            };
            off = match off.checked_add(s) {
                Some(v) => v,
                None => return Err(Unsupported),
            };
        }
        Ok(Err(ExecError::setup(format!(
            "no field `{field}` on `{struct_name}`"
        ))))
    }

    /// Precompiles `coerce(v, t)` for a target type *as the walker would
    /// pass it* (raw or resolved — `coerce` matches on the type as given).
    fn co_of(&mut self, t: &Type) -> Result<u32, Unsupported> {
        let co = match t {
            Type::Pointer(inner) => match self.size_of(inner, 0)? {
                Ok(n) => Co::PtrStride(n.max(1)),
                Err(e) => Co::PtrErr(e),
            },
            other => Co::Ty(other.clone()),
        };
        Ok(self.co_push(co))
    }

    /// Precompiles a `store_typed` site (resolves first, like the walker).
    fn storek(&mut self, ty: &Type) -> Result<StoreK, Unsupported> {
        let ty = self.resolve(ty);
        Ok(match &ty {
            Type::Struct(_) | Type::Union(_) => match self.size_of(&ty, 0)? {
                Ok(n) => StoreK::AggOk(n),
                Err(e) => {
                    let id = self.err_id(e);
                    StoreK::AggErr(id)
                }
            },
            Type::Stream(_) => StoreK::Raw,
            _ => StoreK::Co(self.co_of(&ty)?),
        })
    }

    /// Mirror of `Machine::static_type`: resolved binding type for a known
    /// identifier, raw inferred type otherwise.
    fn static_type(&self, e: &Expr) -> Option<Type> {
        if let ExprKind::Ident(n) = &e.kind {
            if let Some(cv) = self.lookup(n) {
                return Some(cv.ty.clone());
            }
        }
        self.expr_types.get(&e.id).cloned()
    }

    // ----- globals ----------------------------------------------------------

    fn compile_globals(&mut self) -> Result<(), Unsupported> {
        self.cur_fn = self.name_id("<global>");
        for item in self.p.items.iter().map(|i| &**i) {
            match item {
                Item::Define(name, v) => {
                    let sl = self.new_gslot();
                    self.emit(Insn::GDefine { sl, v: *v });
                    self.globals.insert(
                        name.clone(),
                        CVar {
                            sl,
                            ty: Type::int(),
                        },
                    );
                }
                Item::Global(g) => {
                    let rty = self.resolve(&g.ty);
                    let sl = self.new_gslot();
                    match self.size_of(&g.ty, 0)? {
                        Err(e) => {
                            // `Machine::new` fails here; code past this
                            // point in the globals segment is dead but the
                            // binding stays visible to later compilation.
                            self.fail(e);
                            self.globals.insert(g.name.clone(), CVar { sl, ty: rty });
                        }
                        Ok(size) => {
                            // The walker checks the *raw* declared type for
                            // stream initialization.
                            let stream = matches!(g.ty, Type::Stream(_));
                            self.emit(Insn::Alloc { sl, size, stream });
                            self.globals.insert(
                                g.name.clone(),
                                CVar {
                                    sl,
                                    ty: rty.clone(),
                                },
                            );
                            if let Some(init) = &g.init {
                                // Globals match init shapes on the raw type.
                                self.compile_init(sl, &g.ty, init)?;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        self.emit(Insn::Halt);
        Ok(())
    }

    // ----- functions --------------------------------------------------------

    fn compile_function(&mut self, idx: usize) -> Result<(), Unsupported> {
        let f = self.fn_asts[idx];
        let body = f.body.as_ref().ok_or(Unsupported)?;
        if block_has_goto(body) {
            return Err(Unsupported);
        }
        self.cur_fn = self.funcs[idx].name;
        self.next_slot = 0;
        self.locals = vec![HashMap::new()];
        self.loop_stack.clear();
        let mut specs = Vec::with_capacity(f.params.len());
        for param in &f.params {
            let pty = self.resolve(&param.ty);
            let bty = match &pty {
                Type::Array(e, _) => Type::Pointer(e.clone()),
                other => other.clone(),
            };
            let is_stream = matches!(bty, Type::Stream(_));
            let bco = if is_stream {
                u32::MAX
            } else {
                self.co_of(&bty)?
            };
            let kco = if pty.is_integer() || matches!(pty, Type::Bool) {
                self.co_of(&pty)?
            } else {
                u32::MAX
            };
            let arr = match &pty {
                Type::Array(e, _) | Type::Pointer(e) => Ok(self.resolve(e).is_float()),
                other => Err(self.err_id(ExecError::setup(format!(
                    "array argument for non-array parameter `{other}`"
                )))),
            };
            let sl = self.new_slot();
            let pname = self.name_id(&param.name);
            self.locals[0].insert(param.name.clone(), CVar { sl, ty: bty });
            specs.push(ParamSpec {
                pname,
                pty,
                is_stream,
                bco,
                kco,
                arr,
            });
        }
        let entry = self.here();
        for s in &body.stmts {
            self.compile_stmt(s)?;
        }
        self.emit(Insn::RetUnit);
        let name = self.funcs[idx].name;
        self.funcs[idx] = FnSpec {
            name,
            entry,
            n_slots: self.next_slot,
            params: specs,
        };
        debug_assert!(self.loop_stack.is_empty());
        Ok(())
    }

    // ----- statements -------------------------------------------------------

    fn compile_block(&mut self, b: &Block) -> Result<(), Unsupported> {
        self.locals.push(HashMap::new());
        for s in &b.stmts {
            self.compile_stmt(s)?;
        }
        self.locals.pop();
        Ok(())
    }

    fn compile_stmt(&mut self, s: &Stmt) -> Result<(), Unsupported> {
        self.pending += 1;
        match &s.kind {
            StmtKind::Decl(d) => self.compile_decl(d),
            StmtKind::Expr(e) => {
                self.compile_expr(e)?;
                self.emit(Insn::Pop);
                Ok(())
            }
            StmtKind::If(c, t, els) => {
                self.compile_expr(c)?;
                let site = self.bsite(s.id);
                let bf = self.emit_patch(Insn::BranchFalse { site, target: 0 });
                self.compile_block(t)?;
                if let Some(e) = els {
                    let j = self.emit_patch(Insn::Jump(0));
                    self.patch_to_here(bf);
                    self.compile_block(e)?;
                    self.patch_to_here(j);
                } else {
                    self.patch_to_here(bf);
                }
                Ok(())
            }
            StmtKind::While(c, b) => {
                let start = self.here();
                self.compile_expr(c)?;
                let site = self.bsite(s.id);
                let bf = self.emit_patch(Insn::BranchFalse { site, target: 0 });
                let lsite = self.lsite(s.id);
                self.emit(Insn::LoopIter { site: lsite });
                self.loop_stack.push(LoopCtx {
                    brks: Vec::new(),
                    conts: Vec::new(),
                    cont_target: Some(start),
                });
                self.compile_block(b)?;
                self.emit(Insn::Jump(start));
                let ctx = self.loop_stack.pop().expect("loop ctx");
                let end = self.here();
                self.set_target(bf, end);
                for at in ctx.brks {
                    self.set_target(at, end);
                }
                Ok(())
            }
            StmtKind::DoWhile(b, c) => {
                let start = self.here();
                let site = self.bsite(s.id);
                let lsite = self.lsite(s.id);
                self.emit(Insn::LoopIter { site: lsite });
                self.loop_stack.push(LoopCtx {
                    brks: Vec::new(),
                    conts: Vec::new(),
                    cont_target: None,
                });
                self.compile_block(b)?;
                let ctx = self.loop_stack.pop().expect("loop ctx");
                let cond_l = self.here();
                for at in ctx.conts {
                    self.set_target(at, cond_l);
                }
                self.compile_expr(c)?;
                self.emit(Insn::BranchTrue {
                    site,
                    target: start,
                });
                let end = self.here();
                for at in ctx.brks {
                    self.set_target(at, end);
                }
                Ok(())
            }
            StmtKind::For(init, cond, step, b) => {
                self.locals.push(HashMap::new());
                if let Some(i) = init {
                    // The walker lets any statement appear here and has
                    // bespoke flow handling for it; the compiled subset
                    // keeps the three forms real programs use.
                    match &i.kind {
                        StmtKind::Decl(_) | StmtKind::Expr(_) | StmtKind::Empty => {
                            self.compile_stmt(i)?
                        }
                        _ => return Err(Unsupported),
                    }
                }
                let start = self.here();
                let site = self.bsite(s.id);
                let bf = match cond {
                    Some(c) => {
                        self.compile_expr(c)?;
                        Some(self.emit_patch(Insn::BranchFalse { site, target: 0 }))
                    }
                    None => {
                        self.emit(Insn::CoverTrue { site });
                        None
                    }
                };
                let lsite = self.lsite(s.id);
                self.emit(Insn::LoopIter { site: lsite });
                self.loop_stack.push(LoopCtx {
                    brks: Vec::new(),
                    conts: Vec::new(),
                    cont_target: None,
                });
                self.compile_block(b)?;
                let ctx = self.loop_stack.pop().expect("loop ctx");
                let step_l = self.here();
                for at in ctx.conts {
                    self.set_target(at, step_l);
                }
                if let Some(st) = step {
                    self.compile_expr(st)?;
                    self.emit(Insn::Pop);
                }
                self.emit(Insn::Jump(start));
                let end = self.here();
                if let Some(at) = bf {
                    self.set_target(at, end);
                }
                for at in ctx.brks {
                    self.set_target(at, end);
                }
                self.locals.pop();
                Ok(())
            }
            StmtKind::Return(v) => {
                match v {
                    Some(e) => {
                        self.compile_expr(e)?;
                        self.emit(Insn::Ret);
                    }
                    None => self.emit(Insn::RetUnit),
                }
                Ok(())
            }
            StmtKind::Break => {
                if self.loop_stack.is_empty() {
                    // Flow::Break escapes the body; the function returns Unit.
                    self.emit(Insn::RetUnit);
                } else {
                    let at = self.emit_patch(Insn::Jump(0));
                    self.loop_stack.last_mut().expect("loop ctx").brks.push(at);
                }
                Ok(())
            }
            StmtKind::Continue => {
                match self.loop_stack.last() {
                    None => self.emit(Insn::RetUnit),
                    Some(ctx) => match ctx.cont_target {
                        Some(t) => self.emit(Insn::Jump(t)),
                        None => {
                            let at = self.emit_patch(Insn::Jump(0));
                            self.loop_stack.last_mut().expect("loop ctx").conts.push(at);
                        }
                    },
                }
                Ok(())
            }
            StmtKind::Block(b) => self.compile_block(b),
            StmtKind::Pragma(_) | StmtKind::Label(_) | StmtKind::Empty => Ok(()),
            StmtKind::Goto(_) => Err(Unsupported),
        }
    }

    fn compile_decl(&mut self, d: &VarDecl) -> Result<(), Unsupported> {
        let ty = self.resolve(&d.ty);
        // VLA extents need the walker's materialize-at-declaration pass.
        if has_runtime_extent(&ty) {
            return Err(Unsupported);
        }
        let sl = self.new_slot();
        match self.size_of(&ty, 0)? {
            Err(e) => self.fail(e),
            Ok(size) => {
                let stream = matches!(ty, Type::Stream(_));
                self.emit(Insn::Alloc { sl, size, stream });
                if let Some(init) = &d.init {
                    self.compile_init(sl, &ty, init)?;
                }
            }
        }
        self.locals
            .last_mut()
            .expect("scope")
            .insert(d.name.clone(), CVar { sl, ty });
        Ok(())
    }

    /// Mirror of `Machine::init_binding`; `ty` is the binding type exactly
    /// as the walker stores it (resolved for locals, raw for globals).
    fn compile_init(&mut self, sl: u32, ty: &Type, init: &Expr) -> Result<(), Unsupported> {
        match (ty, &init.kind) {
            (Type::Array(elem, _), ExprKind::InitList(elems)) => {
                match self.size_of(elem, 0)? {
                    Err(e) => self.fail(e),
                    Ok(esize) => {
                        let co = self.co_of(elem)?;
                        for (i, e) in elems.iter().enumerate() {
                            self.compile_expr(e)?;
                            self.emit(Insn::StoreCell {
                                sl,
                                off: i * esize,
                                co,
                            });
                        }
                    }
                }
                Ok(())
            }
            (Type::Struct(name), ExprKind::InitList(elems)) => {
                match self.p.struct_def(name) {
                    None => {
                        if !elems.is_empty() {
                            self.fail(ExecError::setup("unknown struct"));
                        }
                    }
                    Some(def) => {
                        for (i, e) in elems.iter().enumerate() {
                            let Some(field) = def.fields.get(i) else {
                                break;
                            };
                            let fname = field.name.clone();
                            match self.field_offset(name, &fname)? {
                                Err(err) => {
                                    self.fail(err);
                                    break;
                                }
                                Ok((off, fty)) => {
                                    // The walker coerces to the *raw* field
                                    // type here.
                                    let co = self.co_of(&fty)?;
                                    self.compile_expr(e)?;
                                    self.emit(Insn::StoreCell { sl, off, co });
                                }
                            }
                        }
                    }
                }
                Ok(())
            }
            _ => {
                self.compile_expr(init)?;
                let k = self.storek(ty)?;
                self.emit(Insn::StoreInit { sl, k });
                Ok(())
            }
        }
    }

    // ----- expressions ------------------------------------------------------

    fn compile_expr(&mut self, e: &Expr) -> Result<(), Unsupported> {
        self.pending += 1;
        match &e.kind {
            ExprKind::IntLit(v, unsigned) => {
                self.emit(Insn::Const(Value::Int {
                    v: *v,
                    bits: 64,
                    signed: !*unsigned,
                }));
                Ok(())
            }
            ExprKind::FloatLit(v, _) => {
                self.emit(Insn::Const(Value::double(*v)));
                Ok(())
            }
            ExprKind::CharLit(c) => {
                self.emit(Insn::Const(Value::Int {
                    v: *c as i128,
                    bits: 8,
                    signed: true,
                }));
                Ok(())
            }
            ExprKind::StrLit(_) => {
                self.emit(Insn::Const(Value::null()));
                Ok(())
            }
            ExprKind::BoolLit(b) => {
                self.emit(Insn::Const(Value::Bool(*b)));
                Ok(())
            }
            ExprKind::Ident(name) => self.compile_ident_rvalue(name),
            ExprKind::Unary(op, a) => self.compile_unary(e, *op, a),
            ExprKind::Binary(op, a, b) => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    self.compile_expr(a)?;
                    let at = self.emit_patch(match op {
                        BinOp::And => Insn::AndShort(0),
                        _ => Insn::OrShort(0),
                    });
                    self.compile_expr(b)?;
                    self.emit(Insn::ToBool);
                    self.patch_to_here(at);
                    return Ok(());
                }
                self.compile_expr(a)?;
                self.compile_expr(b)?;
                self.emit(Insn::Bin(*op));
                Ok(())
            }
            ExprKind::Assign(op, lhs, rhs) => {
                self.compile_expr(rhs)?;
                if let ExprKind::Ident(name) = &lhs.kind {
                    // Inline the walker's `place(Ident)` (entry charge +
                    // lookup) so assignment profiling can key on the name.
                    self.pending += 1;
                    match self.lookup(name).cloned() {
                        None => {
                            self.fail(ExecError::setup(format!("unknown variable `{name}`")));
                        }
                        Some(cv) => {
                            let k = self.storek(&cv.ty)?;
                            let prof = self.int_site(name);
                            self.emit(Insn::StoreVar {
                                sl: cv.sl,
                                k,
                                op: *op,
                                prof,
                            });
                        }
                    }
                } else {
                    let ty = self.compile_place(lhs)?;
                    let k = self.storek(&ty)?;
                    self.emit(Insn::StoreInd { k, op: *op });
                }
                Ok(())
            }
            ExprKind::Call(name, args) => self.compile_call(name, args),
            ExprKind::MethodCall(recv, method, args) => self.compile_method(recv, method, args),
            ExprKind::Index(..) | ExprKind::Member(..) => {
                let ty = self.compile_place(e)?;
                match &ty {
                    Type::Array(elem, _) => match self.size_of(elem, 0)? {
                        Ok(stride) => self.emit(Insn::DecayPlace(stride)),
                        Err(err) => self.fail(err),
                    },
                    Type::Struct(_) | Type::Union(_) => self.emit(Insn::DecayPlace(1)),
                    _ => self.emit(Insn::LoadPlace),
                }
                Ok(())
            }
            ExprKind::Cast(ty, a) => {
                self.compile_expr(a)?;
                let r = self.resolve(ty);
                let co = self.co_of(&r)?;
                self.emit(Insn::CastTo(co));
                Ok(())
            }
            ExprKind::SizeOf(ty) => {
                match self.size_of(ty, 0)? {
                    Ok(n) => self.emit(Insn::Const(Value::int(n as i128))),
                    Err(err) => self.fail(err),
                }
                Ok(())
            }
            ExprKind::Ternary(c, t, f) => {
                self.compile_expr(c)?;
                let site = self.bsite(e.id);
                let bf = self.emit_patch(Insn::BranchFalse { site, target: 0 });
                self.compile_expr(t)?;
                let j = self.emit_patch(Insn::Jump(0));
                self.patch_to_here(bf);
                self.compile_expr(f)?;
                self.patch_to_here(j);
                Ok(())
            }
            ExprKind::InitList(_) => {
                self.fail(ExecError::setup("initializer list outside declaration"));
                Ok(())
            }
            ExprKind::StructLit(..) => Err(Unsupported),
        }
    }

    fn compile_ident_rvalue(&mut self, name: &str) -> Result<(), Unsupported> {
        match self.lookup(name).cloned() {
            None => {
                self.fail(ExecError::setup(format!("unknown variable `{name}`")));
                Ok(())
            }
            Some(cv) => {
                match &cv.ty {
                    Type::Array(elem, _) => match self.size_of(elem, 0)? {
                        Ok(stride) => self.emit(Insn::DecayVar { sl: cv.sl, stride }),
                        Err(e) => self.fail(e),
                    },
                    Type::Struct(_) | Type::Union(_) => self.emit(Insn::DecayVar {
                        sl: cv.sl,
                        stride: 1,
                    }),
                    _ => self.emit(Insn::LoadVar(cv.sl)),
                }
                Ok(())
            }
        }
    }

    fn compile_unary(&mut self, e: &Expr, op: UnOp, a: &Expr) -> Result<(), Unsupported> {
        match op {
            UnOp::Neg => {
                self.compile_expr(a)?;
                self.emit(Insn::Neg);
                Ok(())
            }
            UnOp::Not => {
                self.compile_expr(a)?;
                self.emit(Insn::NotL);
                Ok(())
            }
            UnOp::BitNot => {
                self.compile_expr(a)?;
                self.emit(Insn::BitNot);
                Ok(())
            }
            UnOp::Deref => {
                // Rvalue deref goes through `place(e)`; arrays do *not*
                // decay here (walker quirk) — only aggregates do.
                let ty = self.compile_place(e)?;
                match &ty {
                    Type::Struct(_) | Type::Union(_) => self.emit(Insn::DecayPlace(1)),
                    _ => self.emit(Insn::LoadPlace),
                }
                Ok(())
            }
            UnOp::AddrOf => {
                let ty = self.compile_place(a)?;
                match self.size_of(&ty, 0)? {
                    Ok(stride) => self.emit(Insn::DecayPlace(stride)),
                    Err(err) => self.fail(err),
                }
                Ok(())
            }
            UnOp::Inc(prefix) | UnOp::Dec(prefix) => {
                let delta: i8 = if matches!(op, UnOp::Inc(_)) { 1 } else { -1 };
                let ty = self.compile_place(a)?;
                let k = self.storek(&ty)?;
                let prof = if let ExprKind::Ident(name) = &a.kind {
                    let name = name.clone();
                    self.int_site(&name)
                } else {
                    u32::MAX
                };
                self.emit(Insn::IncDec {
                    delta,
                    prefix,
                    k,
                    prof,
                });
                Ok(())
            }
        }
    }

    /// Compiles an lvalue: emits code leaving a place on the stack and
    /// returns the *resolved* place type. When the walker would fail
    /// deterministically, a `FailErr` is emitted and a dummy type returned
    /// (the continuation is unreachable).
    fn compile_place(&mut self, e: &Expr) -> Result<Type, Unsupported> {
        self.pending += 1;
        match &e.kind {
            ExprKind::Ident(name) => match self.lookup(name).cloned() {
                Some(cv) => {
                    self.emit(Insn::AddrVar(cv.sl));
                    Ok(cv.ty)
                }
                None => {
                    self.fail(ExecError::setup(format!("unknown variable `{name}`")));
                    Ok(Type::int())
                }
            },
            ExprKind::Unary(UnOp::Deref, inner) => {
                self.compile_expr(inner)?;
                self.emit(Insn::PlaceDeref);
                let ty = self
                    .expr_types
                    .get(&e.id)
                    .cloned()
                    .unwrap_or_else(Type::int);
                Ok(self.resolve(&ty))
            }
            ExprKind::Index(base, idx) => {
                self.compile_expr(idx)?;
                match &base.kind {
                    ExprKind::Ident(_) | ExprKind::Member(..) | ExprKind::Index(..) => {
                        let bty = self.compile_place(base)?;
                        match &bty {
                            Type::Array(elem, size) => {
                                let len = minic::edit::resolve_array_size(self.p, size)
                                    .unwrap_or(u64::MAX);
                                match self.size_of(elem, 0)? {
                                    Err(err) => {
                                        self.fail(err);
                                        Ok(Type::int())
                                    }
                                    Ok(esize) => {
                                        let prof = if let ExprKind::Ident(n) = &base.kind {
                                            let n = n.clone();
                                            self.idx_site(&n)
                                        } else {
                                            u32::MAX
                                        };
                                        self.emit(Insn::PlaceIndexArr { esize, len, prof });
                                        Ok(self.resolve(elem))
                                    }
                                }
                            }
                            Type::Pointer(elem) => {
                                self.emit(Insn::PlaceIndexPtr);
                                Ok(self.resolve(elem))
                            }
                            other => {
                                self.fail(ExecError::setup(format!(
                                    "indexing non-array `{other}`"
                                )));
                                Ok(Type::int())
                            }
                        }
                    }
                    _ => {
                        self.compile_expr(base)?;
                        self.emit(Insn::PlaceIndexVal);
                        let ty = self
                            .expr_types
                            .get(&e.id)
                            .cloned()
                            .unwrap_or_else(Type::int);
                        Ok(self.resolve(&ty))
                    }
                }
            }
            ExprKind::Member(base, field, arrow) => {
                let bty = if *arrow {
                    self.compile_expr(base)?;
                    self.emit(Insn::ArrowAddr);
                    match self.static_type(base) {
                        Some(Type::Pointer(t)) => self.resolve(&t),
                        _ => {
                            self.fail(ExecError::setup("`->` base type unknown"));
                            return Ok(Type::int());
                        }
                    }
                } else {
                    self.compile_place(base)?
                };
                match &bty {
                    Type::Struct(name) | Type::Union(name) => {
                        match self.field_offset(name, field)? {
                            Ok((off, fty)) => {
                                self.emit(Insn::PlaceOffset(off));
                                Ok(self.resolve(&fty))
                            }
                            Err(err) => {
                                self.fail(err);
                                Ok(Type::int())
                            }
                        }
                    }
                    other => {
                        self.fail(ExecError::setup(format!(
                            "member access on non-struct `{other}`"
                        )));
                        Ok(Type::int())
                    }
                }
            }
            ExprKind::StructLit(..) => Err(Unsupported),
            other => {
                self.fail(ExecError::setup(format!(
                    "expression is not an lvalue: {other:?}"
                )));
                Ok(Type::int())
            }
        }
    }

    fn compile_call(&mut self, name: &str, args: &[Expr]) -> Result<(), Unsupported> {
        match name {
            "malloc" => {
                let a0 = args.first().ok_or(Unsupported)?;
                self.compile_expr(a0)?;
                self.emit(Insn::Malloc);
                Ok(())
            }
            "free" => {
                let a0 = args.first().ok_or(Unsupported)?;
                self.compile_expr(a0)?;
                self.emit(Insn::FreeP);
                Ok(())
            }
            "sqrt" | "fabs" | "exp" | "log" | "sin" | "cos" | "tan" | "floor" | "ceil"
            | "round" => {
                let a0 = args.first().ok_or(Unsupported)?;
                self.compile_expr(a0)?;
                let op = match name {
                    "sqrt" => Math1Op::Sqrt,
                    "fabs" => Math1Op::Fabs,
                    "exp" => Math1Op::Exp,
                    "log" => Math1Op::Log,
                    "sin" => Math1Op::Sin,
                    "cos" => Math1Op::Cos,
                    "tan" => Math1Op::Tan,
                    "floor" => Math1Op::Floor,
                    "ceil" => Math1Op::Ceil,
                    _ => Math1Op::Round,
                };
                self.emit(Insn::Math1(op));
                Ok(())
            }
            "pow" | "fmin" | "fmax" | "atan2" | "fmod" => {
                if args.len() < 2 {
                    return Err(Unsupported);
                }
                self.compile_expr(&args[0])?;
                self.compile_expr(&args[1])?;
                let op = match name {
                    "pow" => Math2Op::Pow,
                    "fmin" => Math2Op::Fmin,
                    "fmax" => Math2Op::Fmax,
                    "atan2" => Math2Op::Atan2,
                    _ => Math2Op::Fmod,
                };
                self.emit(Insn::Math2(op));
                Ok(())
            }
            "abs" => {
                let a0 = args.first().ok_or(Unsupported)?;
                self.compile_expr(a0)?;
                self.emit(Insn::AbsI);
                Ok(())
            }
            "printf" => {
                for a in args {
                    self.compile_expr(a)?;
                    self.emit(Insn::Pop);
                }
                self.emit(Insn::Const(Value::int(0)));
                Ok(())
            }
            "memset" | "memcpy" => {
                if args.len() < 3 {
                    return Err(Unsupported);
                }
                self.compile_expr(&args[0])?;
                self.compile_expr(&args[1])?;
                self.compile_expr(&args[2])?;
                self.emit(if name == "memset" {
                    Insn::Memset
                } else {
                    Insn::Memcpy
                });
                Ok(())
            }
            _ => match self.by_name.get(name).copied() {
                None => {
                    self.fail(ExecError::setup(format!("unknown function `{name}`")));
                    Ok(())
                }
                Some(fi) => {
                    let nparams = self.fn_asts[fi as usize].params.len();
                    for a in args.iter().take(nparams) {
                        self.compile_expr(a)?;
                    }
                    if args.len() < nparams {
                        self.fail(ExecError::setup(format!("arity mismatch calling `{name}`")));
                    } else {
                        self.emit(Insn::CallFn { f: fi });
                    }
                    Ok(())
                }
            },
        }
    }

    fn compile_method(
        &mut self,
        recv: &Expr,
        method: &str,
        args: &[Expr],
    ) -> Result<(), Unsupported> {
        if matches!(self.static_type(recv), Some(Type::Stream(_))) {
            self.compile_expr(recv)?;
            self.emit(Insn::StreamFromVal);
            return self.compile_stream_op(method, args);
        }
        let ty = self.compile_place(recv)?;
        match &ty {
            Type::Stream(_) => {
                self.emit(Insn::StreamFromPlace);
                self.compile_stream_op(method, args)
            }
            // Struct methods need self-field scoping the VM doesn't model.
            Type::Struct(_) | Type::Union(_) => Err(Unsupported),
            other => {
                self.fail(ExecError::setup(format!(
                    "method call on non-struct `{other}`"
                )));
                Ok(())
            }
        }
    }

    fn compile_stream_op(&mut self, method: &str, args: &[Expr]) -> Result<(), Unsupported> {
        self.emit(Insn::ChargeN(2));
        match method {
            "write" | "push" => {
                let a0 = args.first().ok_or(Unsupported)?;
                self.compile_expr(a0)?;
                self.emit(Insn::StreamPush);
            }
            "read" | "pop" => self.emit(Insn::StreamPop),
            "empty" => self.emit(Insn::StreamEmptyQ),
            "full" => self.emit(Insn::StreamFullQ),
            "size" => self.emit(Insn::StreamSizeQ),
            other => {
                self.fail(ExecError::setup(format!("unknown stream method `{other}`")));
            }
        }
        Ok(())
    }
}

/// Whether a resolved local type still contains a runtime array extent
/// (only the array spine counts, mirroring `materialize_vla`).
fn has_runtime_extent(t: &Type) -> bool {
    match t {
        Type::Array(_, ArraySize::Runtime(_)) => true,
        Type::Array(inner, _) => has_runtime_extent(inner),
        _ => false,
    }
}

fn block_has_goto(b: &Block) -> bool {
    b.stmts.iter().any(stmt_has_goto)
}

fn stmt_has_goto(s: &Stmt) -> bool {
    match &s.kind {
        StmtKind::Goto(_) => true,
        StmtKind::Block(b) => block_has_goto(b),
        StmtKind::If(_, t, e) => block_has_goto(t) || e.as_ref().is_some_and(block_has_goto),
        StmtKind::While(_, b) | StmtKind::DoWhile(b, _) => block_has_goto(b),
        StmtKind::For(init, _, _, b) => {
            init.as_deref().is_some_and(stmt_has_goto) || block_has_goto(b)
        }
        _ => false,
    }
}
