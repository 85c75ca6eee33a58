//! Bytecode compiler: resolved kernels → verified [`CompiledKernel`]s.
//!
//! Lowering is deliberately boring — straight-line stack code, loops as
//! conditional back-edges, `&&`/`||` as short-circuit jumps with a
//! [`Op::Bool`] normalization so the produced *value* matches the
//! interpreter's 0/1 semantics exactly. Every compiled kernel is passed
//! through the [`crate::bytecode`] verifier before it can execute; the
//! returned maximum stack depth is what lets the VM preallocate and run
//! unchecked.

use std::collections::HashMap;

use crate::ast::{BinOp, Builtin};
use crate::bytecode::{verify, CompiledKernel, Limits, Op};
use crate::error::DslError;
use crate::resolve::{RExpr, RKernel, RStmt, ResolvedWorkload};

/// Compiles one kernel of a resolved workload.
///
/// # Errors
///
/// Returns [`DslError::Bytecode`] if the generated code fails
/// verification (a compiler bug, surfaced as a value rather than UB) or
/// exceeds the `u32` code-size limit.
pub fn compile_kernel(w: &ResolvedWorkload, k: &RKernel) -> Result<CompiledKernel, DslError> {
    let mut c = Compiler {
        code: Vec::new(),
        literals: Vec::new(),
        lit_ids: HashMap::new(),
        next_slot: k.slots,
        kernel: &k.name,
    };
    c.stmts(&k.body)?;
    c.emit(Op::Ret)?;
    let Compiler { code, literals, next_slot, .. } = c;
    let limits = Limits {
        literals: literals.len(),
        slots: next_slot.max(1),
        datas: w.datas.len(),
        regions: w.regions.len(),
    };
    let max_stack = verify(&k.name, &code, limits)?;
    let num_datas = u32::try_from(w.datas.len()).map_err(|_| DslError::Bytecode {
        kernel: k.name.clone(),
        message: "too many data arrays".to_string(),
    })?;
    let num_regions = u32::try_from(w.regions.len()).map_err(|_| DslError::Bytecode {
        kernel: k.name.clone(),
        message: "too many regions".to_string(),
    })?;
    Ok(CompiledKernel {
        kind: k.kind,
        name: k.name.clone(),
        threads: k.threads,
        slots: next_slot,
        code,
        literals,
        max_stack,
        num_datas,
        num_regions,
    })
}

/// Compiles every kernel of a resolved workload, in declaration order.
///
/// # Errors
///
/// Propagates the first [`compile_kernel`] failure.
pub fn compile(w: &ResolvedWorkload) -> Result<Vec<CompiledKernel>, DslError> {
    w.kernels.iter().map(|k| compile_kernel(w, k)).collect()
}

struct Compiler<'a> {
    code: Vec<Op>,
    literals: Vec<u64>,
    lit_ids: HashMap<u64, u32>,
    next_slot: u32,
    kernel: &'a str,
}

impl Compiler<'_> {
    fn bug(&self, message: impl Into<String>) -> DslError {
        DslError::Bytecode { kernel: self.kernel.to_string(), message: message.into() }
    }

    fn here(&self) -> Result<u32, DslError> {
        u32::try_from(self.code.len()).map_err(|_| self.bug("code exceeds u32 length"))
    }

    fn emit(&mut self, op: Op) -> Result<usize, DslError> {
        self.here()?; // length guard
        self.code.push(op);
        Ok(self.code.len() - 1)
    }

    fn patch(&mut self, at: usize, target: u32) -> Result<(), DslError> {
        match self.code[at] {
            Op::Jump(_) => self.code[at] = Op::Jump(target),
            Op::JumpIfZero(_) => self.code[at] = Op::JumpIfZero(target),
            Op::JumpIfNonZero(_) => self.code[at] = Op::JumpIfNonZero(target),
            other => return Err(self.bug(format!("patch of non-jump {other:?} at {at}"))),
        }
        Ok(())
    }

    fn lit(&mut self, value: u64) -> Result<(), DslError> {
        let id = match self.lit_ids.get(&value) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.literals.len())
                    .map_err(|_| self.bug("literal pool exceeds u32 length"))?;
                self.literals.push(value);
                self.lit_ids.insert(value, id);
                id
            }
        };
        self.emit(Op::Lit(id))?;
        Ok(())
    }

    fn temp_slot(&mut self) -> Result<u32, DslError> {
        let slot = self.next_slot;
        self.next_slot =
            self.next_slot.checked_add(1).ok_or_else(|| self.bug("slot count overflow"))?;
        Ok(slot)
    }

    fn stmts(&mut self, stmts: &[RStmt]) -> Result<(), DslError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &RStmt) -> Result<(), DslError> {
        match stmt {
            RStmt::Set(slot, value) => {
                self.expr(value)?;
                self.emit(Op::SetSlot(*slot))?;
            }
            RStmt::If(cond, then, otherwise) => {
                self.expr(cond)?;
                let to_else = self.emit(Op::JumpIfZero(u32::MAX))?;
                self.stmts(then)?;
                if otherwise.is_empty() {
                    let end = self.here()?;
                    self.patch(to_else, end)?;
                } else {
                    let to_end = self.emit(Op::Jump(u32::MAX))?;
                    let else_at = self.here()?;
                    self.patch(to_else, else_at)?;
                    self.stmts(otherwise)?;
                    let end = self.here()?;
                    self.patch(to_end, end)?;
                }
            }
            RStmt::For(slot, lo, hi, body) => {
                // i = lo; limit = hi; while i < limit { body; i = i + 1 }
                let limit = self.temp_slot()?;
                self.expr(lo)?;
                self.emit(Op::SetSlot(*slot))?;
                self.expr(hi)?;
                self.emit(Op::SetSlot(limit))?;
                let head = self.here()?;
                self.emit(Op::Slot(*slot))?;
                self.emit(Op::Slot(limit))?;
                self.emit(Op::Lt)?;
                let to_end = self.emit(Op::JumpIfZero(u32::MAX))?;
                self.stmts(body)?;
                self.emit(Op::Slot(*slot))?;
                self.lit(1)?;
                self.emit(Op::Add)?;
                self.emit(Op::SetSlot(*slot))?;
                self.emit(Op::Jump(head))?;
                let end = self.here()?;
                self.patch(to_end, end)?;
            }
            RStmt::While(cond, body) => {
                let head = self.here()?;
                self.expr(cond)?;
                let to_end = self.emit(Op::JumpIfZero(u32::MAX))?;
                self.stmts(body)?;
                self.emit(Op::Jump(head))?;
                let end = self.here()?;
                self.patch(to_end, end)?;
            }
            RStmt::Return => {
                self.emit(Op::Ret)?;
            }
            RStmt::Compute(c) => {
                self.expr(c)?;
                self.emit(Op::Compute)?;
            }
            RStmt::ComputeMasked(c, a) => {
                self.expr(c)?;
                self.expr(a)?;
                self.emit(Op::ComputeMasked)?;
            }
            RStmt::Sync => {
                self.emit(Op::Sync)?;
            }
            RStmt::Shared => {
                self.emit(Op::Shared)?;
            }
            RStmt::Slice { store, region, start, count } => {
                self.expr(start)?;
                self.expr(count)?;
                self.emit(Op::Slice { store: *store, region: *region })?;
            }
            RStmt::Bcast { store, region, index } => {
                self.expr(index)?;
                self.emit(Op::Bcast { store: *store, region: *region })?;
            }
            RStmt::Addrs { store, body } => {
                self.emit(Op::BeginAddrs { store: *store })?;
                self.stmts(body)?;
                self.emit(Op::EndAddrs)?;
            }
            RStmt::Yield(value) => {
                self.expr(value)?;
                self.emit(Op::EmitYield)?;
            }
            RStmt::Launch { kind, param, num_tbs, threads, regs, smem } => {
                self.expr(kind)?;
                self.expr(param)?;
                self.expr(num_tbs)?;
                self.expr(threads)?;
                self.expr(regs)?;
                self.expr(smem)?;
                self.emit(Op::Launch)?;
            }
        }
        Ok(())
    }

    fn expr(&mut self, expr: &RExpr) -> Result<(), DslError> {
        match expr {
            RExpr::Lit(v) => self.lit(*v)?,
            RExpr::Slot(s) => {
                self.emit(Op::Slot(*s))?;
            }
            RExpr::Param => {
                self.emit(Op::Param)?;
            }
            RExpr::Tb => {
                self.emit(Op::Tb)?;
            }
            RExpr::Data(id, index) => {
                self.expr(index)?;
                self.emit(Op::Data(*id))?;
            }
            RExpr::Addr(id, index) => {
                self.expr(index)?;
                self.emit(Op::RegionAddr(*id))?;
            }
            RExpr::Call(b, x, y) => {
                self.expr(x)?;
                self.expr(y)?;
                self.emit(match b {
                    Builtin::Min => Op::Min,
                    Builtin::Max => Op::Max,
                    Builtin::DivCeil => Op::DivCeil,
                })?;
            }
            RExpr::Not(x) => {
                self.expr(x)?;
                self.emit(Op::Not)?;
            }
            RExpr::Bin(BinOp::And, x, y) => {
                // x && y  ≡  if x == 0 { 0 } else { y != 0 }
                self.expr(x)?;
                let to_false = self.emit(Op::JumpIfZero(u32::MAX))?;
                self.expr(y)?;
                self.emit(Op::Bool)?;
                let to_end = self.emit(Op::Jump(u32::MAX))?;
                let false_at = self.here()?;
                self.patch(to_false, false_at)?;
                self.lit(0)?;
                let end = self.here()?;
                self.patch(to_end, end)?;
            }
            RExpr::Bin(BinOp::Or, x, y) => {
                // x || y  ≡  if x != 0 { 1 } else { y != 0 }
                self.expr(x)?;
                let to_true = self.emit(Op::JumpIfNonZero(u32::MAX))?;
                self.expr(y)?;
                self.emit(Op::Bool)?;
                let to_end = self.emit(Op::Jump(u32::MAX))?;
                let true_at = self.here()?;
                self.patch(to_true, true_at)?;
                self.lit(1)?;
                let end = self.here()?;
                self.patch(to_end, end)?;
            }
            RExpr::Bin(op, x, y) => {
                self.expr(x)?;
                self.expr(y)?;
                self.emit(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Mod => Op::Mod,
                    BinOp::Shl => Op::Shl,
                    BinOp::Shr => Op::Shr,
                    BinOp::BitAnd => Op::BitAnd,
                    BinOp::BitOr => Op::BitOr,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::And | BinOp::Or => {
                        return Err(self.bug("short-circuit op reached direct lowering"))
                    }
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::resolve;

    fn compile_src(src: &str) -> Vec<CompiledKernel> {
        compile(&resolve(parse(src).expect("parses")).expect("resolves")).expect("compiles")
    }

    fn kernel_src(body: &str) -> String {
        format!(
            "workload \"t\";\nregion r[64, 4];\ndata d = [5, 0, 9];\n\
             host kind = 0 param = 0 tbs = 1 threads = 32 regs = 8 smem = 0;\n\
             kernel 0 \"k\" threads = 32 {{ {body} }}"
        )
    }

    #[test]
    fn every_compiled_kernel_passes_verification() {
        // compile() runs the verifier internally; reaching here means the
        // trickier shapes (loops, short-circuit, gather) all verified.
        let ks = compile_src(&kernel_src(
            "let n = 0;\n\
             for i in 0 .. 4 { if i % 2 == 0 && d[i % 3] > 0 { n = n + 1; } }\n\
             while n > 0 { n = n - 1; compute n; }\n\
             gather { yield addr(r, n); }\n\
             if tb == 0 { return; } else { sync; }\n\
             launch 0, 0, 1, 32, 8, 0;",
        ));
        assert_eq!(ks.len(), 1);
        assert!(ks[0].max_stack() >= 2);
        assert!(ks[0].code_len() > 10);
    }

    #[test]
    fn literals_are_deduplicated() {
        let ks = compile_src(&kernel_src("compute 7; compute 7; compute 7;"));
        assert_eq!(ks[0].literals_len(), 1);
    }

    #[test]
    fn for_loop_allocates_a_hidden_limit_slot() {
        let ks = compile_src(&kernel_src("for i in 0 .. 3 { compute i; }"));
        // Resolver slot for `i` + compiler temp for the bound.
        assert_eq!(ks[0].slots, 2);
    }

    #[test]
    fn code_ends_with_ret() {
        let ks = compile_src(&kernel_src("compute 1;"));
        assert!(matches!(ks[0].code.last(), Some(Op::Ret)));
    }
}
