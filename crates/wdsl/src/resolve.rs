//! Name resolution and static validation: [`WorkloadAst`] →
//! [`ResolvedWorkload`].
//!
//! The resolved form is the single semantic source of truth that BOTH
//! execution back ends consume: the reference interpreter walks
//! [`RStmt`]/[`RExpr`] directly, and the bytecode compiler lowers the
//! same trees. Because everything name- or layout-dependent is decided
//! here (variable slots, region base addresses, constant values,
//! `len()` folding), the two back ends cannot disagree about what a
//! program *means* — only about how they execute it, which the
//! differential tests pin down.
//!
//! Region layout reuses [`workloads::layout::Layout`] verbatim, so a DSL
//! port of a generator places its arrays at byte-identical addresses.

use std::collections::HashMap;
use std::sync::Arc;

use gpu_sim::kernel::ResourceReq;
use gpu_sim::program::KernelKindId;
use workloads::layout::{Layout, Region};
use workloads::HostKernel;

use crate::ast::{BinOp, Builtin, Expr, Stmt, StmtKind, WorkloadAst};
use crate::error::DslError;

/// Maximum number of threads a kernel or launch may request.
pub const MAX_THREADS: u32 = 1024;

/// A resolved expression. Identifiers are gone: variables are slot
/// indices, constants and `len()` are literals, data arrays and regions
/// are dense ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RExpr {
    /// Literal value (also: folded constants and `len()`).
    Lit(u64),
    /// Local variable slot.
    Slot(u32),
    /// The kernel's `param` value.
    Param,
    /// The TB index within the grid.
    Tb,
    /// `data_id[index]` — bounds-checked at runtime.
    Data(u32, Box<RExpr>),
    /// Byte address of element `index` of region `region_id`
    /// (`base + index * elem_bytes`, wrapping — the corpus only uses
    /// in-bounds indices, and keeping it total keeps both back ends
    /// trivially identical).
    Addr(u32, Box<RExpr>),
    /// `min`/`max`/`div_ceil`.
    Call(Builtin, Box<RExpr>, Box<RExpr>),
    /// Logical not.
    Not(Box<RExpr>),
    /// Binary operation.
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
}

/// A resolved statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RStmt {
    /// Store into a slot (`let` and assignment are identical once slots
    /// are assigned).
    Set(u32, RExpr),
    /// Conditional.
    If(RExpr, Vec<RStmt>, Vec<RStmt>),
    /// Counted loop: slot iterates `lo..hi` (bounds evaluated once).
    For(u32, RExpr, RExpr, Vec<RStmt>),
    /// Condition loop.
    While(RExpr, Vec<RStmt>),
    /// End the program early.
    Return,
    /// Emit `TbOp::Compute`.
    Compute(RExpr),
    /// Emit `TbOp::ComputeMasked`.
    ComputeMasked(RExpr, RExpr),
    /// Emit `TbOp::Sync`.
    Sync,
    /// Emit a shared-memory staging access.
    Shared,
    /// Emit a coalesced slice access of region `region`.
    Slice {
        /// `true` for a store.
        store: bool,
        /// Region id.
        region: u32,
        /// First element index.
        start: RExpr,
        /// Element count.
        count: RExpr,
    },
    /// Emit a broadcast access of one region element.
    Bcast {
        /// `true` for a store.
        store: bool,
        /// Region id.
        region: u32,
        /// Element index.
        index: RExpr,
    },
    /// Collect per-thread addresses (`yield`) and emit one gather or
    /// scatter op (none when no addresses were yielded).
    Addrs {
        /// `true` for a scatter.
        store: bool,
        /// Body; may contain control flow and `Yield`.
        body: Vec<RStmt>,
    },
    /// Append one address to the active gather/scatter collection.
    Yield(RExpr),
    /// Emit `TbOp::Launch`.
    Launch {
        /// Child kernel kind.
        kind: RExpr,
        /// Child parameter.
        param: RExpr,
        /// Child grid size.
        num_tbs: RExpr,
        /// Threads per child TB.
        threads: RExpr,
        /// Registers per thread.
        regs: RExpr,
        /// Shared-memory bytes per TB.
        smem: RExpr,
    },
}

/// A named data array.
#[derive(Debug, Clone)]
pub struct RData {
    /// Name in the source text (for error messages).
    pub name: String,
    /// The values.
    pub values: Arc<[u64]>,
}

/// A named memory region with its resolved placement.
#[derive(Debug, Clone)]
pub struct RRegion {
    /// Name in the source text.
    pub name: String,
    /// The allocated region (same bump allocator as the generators).
    pub region: Region,
}

/// One resolved kernel definition.
#[derive(Debug, Clone)]
pub struct RKernel {
    /// Workload-local kernel kind.
    pub kind: KernelKindId,
    /// Kernel name for traces.
    pub name: String,
    /// Threads per TB (drives slice coalescing exactly like
    /// `OpBuilder::new(threads)`).
    pub threads: u32,
    /// Number of variable slots the body needs.
    pub slots: u32,
    /// The body.
    pub body: Vec<RStmt>,
}

/// A fully resolved workload, ready for interpretation or compilation.
#[derive(Debug, Clone)]
pub struct ResolvedWorkload {
    /// Application name.
    pub name: String,
    /// Input name (may be empty).
    pub input: String,
    /// Regions in declaration (= layout) order.
    pub regions: Vec<RRegion>,
    /// Data arrays in declaration order.
    pub datas: Vec<RData>,
    /// Host launch list.
    pub hosts: Vec<HostKernel>,
    /// Kernels in declaration order (kinds are unique).
    pub kernels: Vec<RKernel>,
}

impl ResolvedWorkload {
    /// The kernel with the given kind, if any.
    pub fn kernel(&self, kind: KernelKindId) -> Option<&RKernel> {
        self.kernels.iter().find(|k| k.kind == kind)
    }
}

/// Resolves a parsed workload, consuming it so that each AST `data`
/// table is freed as soon as the result's `Arc` copy of it exists.
///
/// # Errors
///
/// Reports the first unknown or duplicate name, non-constant constant
/// expression, out-of-range declaration value, or structural violation
/// (`yield` outside `gather`, ops inside `gather`, duplicate kernel
/// kind, host launch of an undefined kind).
pub fn resolve(ast: WorkloadAst) -> Result<ResolvedWorkload, DslError> {
    Resolver::default().run(ast)
}

fn err(line: u32, message: impl Into<String>) -> DslError {
    DslError::Resolve { line, message: message.into() }
}

#[derive(Default)]
struct Resolver {
    consts: HashMap<String, u64>,
    data_ids: HashMap<String, u32>,
    datas: Vec<RData>,
    region_ids: HashMap<String, u32>,
    regions: Vec<RRegion>,
}

/// Per-kernel variable state: lexical scopes mapping names to slots.
struct Vars {
    scopes: Vec<HashMap<String, u32>>,
    next_slot: u32,
}

impl Vars {
    fn lookup(&self, name: &str) -> Option<u32> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }
}

impl Resolver {
    fn run(mut self, ast: WorkloadAst) -> Result<ResolvedWorkload, DslError> {
        if ast.name.is_empty() {
            return Err(err(0, "workload name must not be empty"));
        }
        // Data arrays first: `len()` is usable in constant expressions.
        for (line, name, values) in ast.datas {
            self.check_fresh(line, &name)?;
            let id =
                u32::try_from(self.datas.len()).map_err(|_| err(line, "too many data arrays"))?;
            self.data_ids.insert(name.clone(), id);
            self.datas.push(RData { name, values: values.into() });
        }
        for (line, name, expr) in &ast.consts {
            self.check_fresh(*line, name)?;
            let value = self.const_eval(*line, expr)?;
            self.consts.insert(name.clone(), value);
        }
        let mut layout = Layout::new();
        for (line, name, len, elem) in &ast.regions {
            self.check_fresh(*line, name)?;
            let len = self.const_eval(*line, len)?;
            let elem = self.const_eval(*line, elem)?;
            let elem = u32::try_from(elem).ok().filter(|&e| e > 0).ok_or_else(|| {
                err(*line, format!("region '{name}' element size {elem} is not in 1..=u32"))
            })?;
            if len.checked_mul(u64::from(elem)).is_none() {
                return Err(err(*line, format!("region '{name}' overflows the address space")));
            }
            let id =
                u32::try_from(self.regions.len()).map_err(|_| err(*line, "too many regions"))?;
            self.region_ids.insert(name.clone(), id);
            self.regions.push(RRegion { name: name.clone(), region: layout.alloc(len, elem) });
        }

        let mut kernels: Vec<RKernel> = Vec::new();
        for decl in &ast.kernels {
            let kind = self.const_eval(decl.line, &decl.kind)?;
            let kind = u16::try_from(kind)
                .map_err(|_| err(decl.line, format!("kernel kind {kind} does not fit u16")))?;
            if kernels.iter().any(|k| k.kind.0 == kind) {
                return Err(err(decl.line, format!("duplicate kernel kind {kind}")));
            }
            let threads = self.threads_value(decl.line, &decl.threads)?;
            let mut vars = Vars { scopes: vec![HashMap::new()], next_slot: 0 };
            let body = self.block(&decl.body, &mut vars, false)?;
            kernels.push(RKernel {
                kind: KernelKindId(kind),
                name: decl.name.clone(),
                threads,
                slots: vars.next_slot,
                body,
            });
        }
        if kernels.is_empty() {
            return Err(err(0, "workload defines no kernels"));
        }

        let mut hosts = Vec::new();
        for h in &ast.hosts {
            let kind = self.const_eval(h.line, &h.kind)?;
            let kind = u16::try_from(kind)
                .map_err(|_| err(h.line, format!("host kernel kind {kind} does not fit u16")))?;
            if !kernels.iter().any(|k| k.kind.0 == kind) {
                return Err(err(h.line, format!("host launches undefined kernel kind {kind}")));
            }
            let param = self.const_eval(h.line, &h.param)?;
            let num_tbs = self.u32_value(h.line, &h.tbs, "host tbs")?;
            if num_tbs == 0 {
                return Err(err(h.line, "host tbs must be positive"));
            }
            let threads = self.threads_value(h.line, &h.threads)?;
            let regs = self.u32_value(h.line, &h.regs, "host regs")?;
            let smem = self.u32_value(h.line, &h.smem, "host smem")?;
            hosts.push(HostKernel {
                kind: KernelKindId(kind),
                param,
                num_tbs,
                req: ResourceReq::new(threads, regs, smem),
            });
        }
        if hosts.is_empty() {
            return Err(err(0, "workload declares no host launches"));
        }

        Ok(ResolvedWorkload {
            name: ast.name,
            input: ast.input,
            regions: self.regions,
            datas: self.datas,
            hosts,
            kernels,
        })
    }

    fn check_fresh(&self, line: u32, name: &str) -> Result<(), DslError> {
        if name == "param" || name == "tb" {
            return Err(err(line, format!("'{name}' is reserved")));
        }
        if self.consts.contains_key(name)
            || self.data_ids.contains_key(name)
            || self.region_ids.contains_key(name)
        {
            return Err(err(line, format!("duplicate declaration of '{name}'")));
        }
        Ok(())
    }

    fn u32_value(&self, line: u32, expr: &Expr, what: &str) -> Result<u32, DslError> {
        let v = self.const_eval(line, expr)?;
        u32::try_from(v).map_err(|_| err(line, format!("{what} value {v} does not fit u32")))
    }

    fn threads_value(&self, line: u32, expr: &Expr) -> Result<u32, DslError> {
        let v = self.const_eval(line, expr)?;
        match u32::try_from(v) {
            Ok(t) if (1..=MAX_THREADS).contains(&t) => Ok(t),
            _ => Err(err(line, format!("threads value {v} is not in 1..={MAX_THREADS}"))),
        }
    }

    /// Evaluates a constant expression: literals, previously defined
    /// constants, `len(data)`, builtins and all operators — but nothing
    /// runtime-dependent (`param`, `tb`, variables, `data[i]`, `addr`).
    fn const_eval(&self, line: u32, expr: &Expr) -> Result<u64, DslError> {
        match expr {
            Expr::Int(v) => Ok(*v),
            Expr::Var(name) => self.consts.get(name).copied().ok_or_else(|| {
                err(line, format!("'{name}' is not a constant (in constant context)"))
            }),
            Expr::Len(name) => self.data_len(line, name),
            Expr::Call(b, x, y) => {
                let x = self.const_eval(line, x)?;
                let y = self.const_eval(line, y)?;
                match b {
                    Builtin::Min => Ok(x.min(y)),
                    Builtin::Max => Ok(x.max(y)),
                    Builtin::DivCeil => {
                        if y == 0 {
                            Err(err(line, "div_ceil by zero in constant expression"))
                        } else {
                            Ok(x.div_ceil(y))
                        }
                    }
                }
            }
            Expr::Not(x) => Ok(u64::from(self.const_eval(line, x)? == 0)),
            Expr::Bin(op, x, y) => {
                let a = self.const_eval(line, x)?;
                let b = self.const_eval(line, y)?;
                match op {
                    BinOp::Div | BinOp::Mod if b == 0 => {
                        Err(err(line, "division by zero in constant expression"))
                    }
                    _ => Ok(eval_bin(*op, a, b)),
                }
            }
            Expr::Index(..) | Expr::Addr(..) => {
                Err(err(line, "data indexing and addr() are not allowed in constant context"))
            }
        }
    }

    // ---- kernel bodies --------------------------------------------------

    fn block(
        &self,
        stmts: &[Stmt],
        vars: &mut Vars,
        in_gather: bool,
    ) -> Result<Vec<RStmt>, DslError> {
        vars.scopes.push(HashMap::new());
        let out = self.stmts(stmts, vars, in_gather);
        vars.scopes.pop();
        out
    }

    fn stmts(
        &self,
        stmts: &[Stmt],
        vars: &mut Vars,
        in_gather: bool,
    ) -> Result<Vec<RStmt>, DslError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.stmt(s, vars, in_gather)?);
        }
        Ok(out)
    }

    fn stmt(&self, stmt: &Stmt, vars: &mut Vars, in_gather: bool) -> Result<RStmt, DslError> {
        let line = stmt.line;
        let emits = |what: &str| -> DslError {
            err(line, format!("'{what}' is not allowed inside gather/scatter blocks"))
        };
        match &stmt.kind {
            StmtKind::Let(name, value) => {
                if name == "param" || name == "tb" {
                    return Err(err(line, format!("'{name}' is reserved")));
                }
                // Resolve the initializer BEFORE the name is in scope, so
                // `let x = x + 1;` refers to an outer `x` (or errors).
                let value = self.expr(line, value, vars)?;
                let slot = vars.next_slot;
                vars.next_slot += 1;
                if let Some(scope) = vars.scopes.last_mut() {
                    scope.insert(name.clone(), slot);
                }
                Ok(RStmt::Set(slot, value))
            }
            StmtKind::Assign(name, value) => {
                let slot = vars.lookup(name).ok_or_else(|| {
                    err(line, format!("assignment to undeclared variable '{name}'"))
                })?;
                let value = self.expr(line, value, vars)?;
                Ok(RStmt::Set(slot, value))
            }
            StmtKind::If(cond, then, otherwise) => Ok(RStmt::If(
                self.expr(line, cond, vars)?,
                self.block(then, vars, in_gather)?,
                self.block(otherwise, vars, in_gather)?,
            )),
            StmtKind::For(name, lo, hi, body) => {
                if name == "param" || name == "tb" {
                    return Err(err(line, format!("'{name}' is reserved")));
                }
                let lo = self.expr(line, lo, vars)?;
                let hi = self.expr(line, hi, vars)?;
                let slot = vars.next_slot;
                vars.next_slot += 1;
                vars.scopes.push(HashMap::from([(name.clone(), slot)]));
                let body = self.stmts(body, vars, in_gather);
                vars.scopes.pop();
                Ok(RStmt::For(slot, lo, hi, body?))
            }
            StmtKind::While(cond, body) => {
                Ok(RStmt::While(self.expr(line, cond, vars)?, self.block(body, vars, in_gather)?))
            }
            StmtKind::Return => {
                if in_gather {
                    Err(emits("return"))
                } else {
                    Ok(RStmt::Return)
                }
            }
            StmtKind::Compute(c) => {
                if in_gather {
                    Err(emits("compute"))
                } else {
                    Ok(RStmt::Compute(self.expr(line, c, vars)?))
                }
            }
            StmtKind::ComputeMasked(c, a) => {
                if in_gather {
                    Err(emits("compute_masked"))
                } else {
                    Ok(RStmt::ComputeMasked(self.expr(line, c, vars)?, self.expr(line, a, vars)?))
                }
            }
            StmtKind::Sync => {
                if in_gather {
                    Err(emits("sync"))
                } else {
                    Ok(RStmt::Sync)
                }
            }
            StmtKind::Shared => {
                if in_gather {
                    Err(emits("shared"))
                } else {
                    Ok(RStmt::Shared)
                }
            }
            StmtKind::Slice { store, region, start, count } => {
                if in_gather {
                    return Err(emits(if *store { "store_slice" } else { "load_slice" }));
                }
                Ok(RStmt::Slice {
                    store: *store,
                    region: self.region_id(line, region)?,
                    start: self.expr(line, start, vars)?,
                    count: self.expr(line, count, vars)?,
                })
            }
            StmtKind::Bcast { store, region, index } => {
                if in_gather {
                    return Err(emits(if *store { "store_bcast" } else { "load_bcast" }));
                }
                Ok(RStmt::Bcast {
                    store: *store,
                    region: self.region_id(line, region)?,
                    index: self.expr(line, index, vars)?,
                })
            }
            StmtKind::Addrs { store, body } => {
                if in_gather {
                    return Err(err(line, "gather/scatter blocks cannot nest"));
                }
                Ok(RStmt::Addrs { store: *store, body: self.block(body, vars, true)? })
            }
            StmtKind::Yield(value) => {
                if in_gather {
                    Ok(RStmt::Yield(self.expr(line, value, vars)?))
                } else {
                    Err(err(line, "'yield' is only allowed inside gather/scatter blocks"))
                }
            }
            StmtKind::Launch { kind, param, num_tbs, threads, regs, smem } => {
                if in_gather {
                    return Err(emits("launch"));
                }
                Ok(RStmt::Launch {
                    kind: self.expr(line, kind, vars)?,
                    param: self.expr(line, param, vars)?,
                    num_tbs: self.expr(line, num_tbs, vars)?,
                    threads: self.expr(line, threads, vars)?,
                    regs: self.expr(line, regs, vars)?,
                    smem: self.expr(line, smem, vars)?,
                })
            }
        }
    }

    fn region_id(&self, line: u32, name: &str) -> Result<u32, DslError> {
        self.region_ids
            .get(name)
            .copied()
            .ok_or_else(|| err(line, format!("unknown region '{name}'")))
    }

    fn data_id(&self, line: u32, name: &str) -> Result<u32, DslError> {
        self.data_ids
            .get(name)
            .copied()
            .ok_or_else(|| err(line, format!("unknown data array '{name}'")))
    }

    fn data_len(&self, line: u32, name: &str) -> Result<u64, DslError> {
        let id = self.data_id(line, name)?;
        Ok(self.datas[id as usize].values.len() as u64)
    }

    fn expr(&self, line: u32, expr: &Expr, vars: &Vars) -> Result<RExpr, DslError> {
        match expr {
            Expr::Int(v) => Ok(RExpr::Lit(*v)),
            Expr::Var(name) => {
                if let Some(slot) = vars.lookup(name) {
                    Ok(RExpr::Slot(slot))
                } else if name == "param" {
                    Ok(RExpr::Param)
                } else if name == "tb" {
                    Ok(RExpr::Tb)
                } else if let Some(v) = self.consts.get(name) {
                    Ok(RExpr::Lit(*v))
                } else {
                    Err(err(line, format!("unknown identifier '{name}'")))
                }
            }
            Expr::Index(name, index) => {
                Ok(RExpr::Data(self.data_id(line, name)?, Box::new(self.expr(line, index, vars)?)))
            }
            Expr::Len(name) => Ok(RExpr::Lit(self.data_len(line, name)?)),
            Expr::Addr(name, index) => Ok(RExpr::Addr(
                self.region_id(line, name)?,
                Box::new(self.expr(line, index, vars)?),
            )),
            Expr::Call(b, x, y) => Ok(RExpr::Call(
                *b,
                Box::new(self.expr(line, x, vars)?),
                Box::new(self.expr(line, y, vars)?),
            )),
            Expr::Not(x) => Ok(RExpr::Not(Box::new(self.expr(line, x, vars)?))),
            Expr::Bin(op, x, y) => Ok(RExpr::Bin(
                *op,
                Box::new(self.expr(line, x, vars)?),
                Box::new(self.expr(line, y, vars)?),
            )),
        }
    }
}

/// The shared arithmetic of every total binary operator: wrapping `+`
/// and `*`, saturating `-` (mirroring the generators' `saturating_sub`
/// tail math), total shifts (`0` when the amount is ≥ 64), and 0/1
/// comparisons. `Div`/`Mod` with a zero divisor must be screened by the
/// caller; here they are defined as 0 so the function stays total.
pub fn eval_bin(op: BinOp, a: u64, b: u64) -> u64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.saturating_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Mod => a.checked_rem(b).unwrap_or(0),
        BinOp::Shl => {
            if b >= 64 {
                0
            } else {
                a.wrapping_shl(b as u32)
            }
        }
        BinOp::Shr => {
            if b >= 64 {
                0
            } else {
                a.wrapping_shr(b as u32)
            }
        }
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::Eq => u64::from(a == b),
        BinOp::Ne => u64::from(a != b),
        BinOp::Lt => u64::from(a < b),
        BinOp::Le => u64::from(a <= b),
        BinOp::Gt => u64::from(a > b),
        BinOp::Ge => u64::from(a >= b),
        // `&&`/`||` on already-evaluated operands (short-circuiting is a
        // control-flow concern each back end handles; the *value* is the
        // same either way because expressions are side-effect free).
        BinOp::And => u64::from(a != 0 && b != 0),
        BinOp::Or => u64::from(a != 0 || b != 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn resolve_src(src: &str) -> Result<ResolvedWorkload, DslError> {
        resolve(parse(src).expect("parses"))
    }

    const HEADER: &str = r#"workload "t";
host kind = 0 param = 0 tbs = 1 threads = 32 regs = 8 smem = 0;
"#;

    fn with_kernel(body: &str) -> String {
        format!("{HEADER}kernel 0 \"k\" threads = 32 {{ {body} }}")
    }

    #[test]
    fn resolves_regions_with_generator_layout() {
        let src = format!(
            "{HEADER}region a[10, 4]; region b[3, 8];\nkernel 0 \"k\" threads = 32 {{ sync; }}"
        );
        let w = resolve_src(&src).expect("resolves");
        let mut layout = Layout::new();
        let a = layout.alloc(10, 4);
        let b = layout.alloc(3, 8);
        assert_eq!(w.regions[0].region, a);
        assert_eq!(w.regions[1].region, b);
    }

    #[test]
    fn consts_fold_and_len_is_literal() {
        let src = "workload \"t\";\ndata d = [1, 2, 3];\nconst N = len(d) * 2;\n\
             host kind = 0 param = N tbs = 1 threads = 32 regs = 8 smem = 0;\n\
             kernel 0 \"k\" threads = 32 { compute N; }";
        let w = resolve_src(src).expect("resolves");
        assert_eq!(w.hosts[0].param, 6);
        assert_eq!(w.kernels[0].body[0], RStmt::Compute(RExpr::Lit(6)));
    }

    #[test]
    fn let_allocates_slots_in_order() {
        let w =
            resolve_src(&with_kernel("let a = 1; let b = a + 1; b = b * 2;")).expect("resolves");
        let k = &w.kernels[0];
        assert_eq!(k.slots, 2);
        assert_eq!(k.body[0], RStmt::Set(0, RExpr::Lit(1)));
        assert!(matches!(&k.body[1], RStmt::Set(1, RExpr::Bin(BinOp::Add, a, _))
                if **a == RExpr::Slot(0)));
        assert!(matches!(&k.body[2], RStmt::Set(1, _)));
    }

    #[test]
    fn block_scoping_hides_inner_lets() {
        let e = resolve_src(&with_kernel("if 1 { let a = 1; } compute a;")).expect_err("must fail");
        assert!(e.to_string().contains("unknown identifier 'a'"), "{e}");
    }

    #[test]
    fn yield_outside_gather_is_rejected() {
        let e = resolve_src(&with_kernel("yield 1;")).expect_err("must fail");
        assert!(e.to_string().contains("only allowed inside gather"), "{e}");
    }

    #[test]
    fn ops_inside_gather_are_rejected() {
        for body in ["gather { sync; }", "gather { compute 1; }", "gather { gather { yield 1; } }"]
        {
            assert!(resolve_src(&with_kernel(body)).is_err(), "{body} must be rejected");
        }
    }

    #[test]
    fn control_flow_inside_gather_is_allowed() {
        let w = resolve_src(&with_kernel(
            "gather { for i in 0 .. 4 { if i % 2 == 0 { yield i * 128; } } }",
        ))
        .expect("resolves");
        assert!(matches!(&w.kernels[0].body[0], RStmt::Addrs { store: false, .. }));
    }

    #[test]
    fn duplicate_kernel_kind_is_rejected() {
        let src = format!(
            "{HEADER}kernel 0 \"a\" threads = 32 {{ sync; }}\n\
             kernel 0 \"b\" threads = 32 {{ sync; }}"
        );
        let e = resolve_src(&src).expect_err("must fail");
        assert!(e.to_string().contains("duplicate kernel kind"), "{e}");
    }

    #[test]
    fn host_of_undefined_kind_is_rejected() {
        let src = "workload \"t\";\n\
                   host kind = 7 param = 0 tbs = 1 threads = 32 regs = 8 smem = 0;\n\
                   kernel 0 \"k\" threads = 32 { sync; }";
        let e = resolve_src(src).expect_err("must fail");
        assert!(e.to_string().contains("undefined kernel kind 7"), "{e}");
    }

    #[test]
    fn reserved_names_cannot_be_bound() {
        assert!(resolve_src(&with_kernel("let tb = 1;")).is_err());
        assert!(resolve_src(&with_kernel("for param in 0 .. 2 { sync; }")).is_err());
    }

    #[test]
    fn eval_bin_matches_generator_arithmetic() {
        assert_eq!(eval_bin(BinOp::Sub, 3, 10), 0); // saturating like chunk_range
        assert_eq!(eval_bin(BinOp::Add, u64::MAX, 2), 1); // wrapping
        assert_eq!(eval_bin(BinOp::Shl, 1, 64), 0); // total shift
        assert_eq!(eval_bin(BinOp::Lt, 2, 3), 1);
        assert_eq!(eval_bin(BinOp::Div, 5, 0), 0); // screened by callers
    }
}
