//! Reference AST-walking interpreter.
//!
//! This is the semantic oracle: slow, obvious, and structured exactly
//! like the resolved tree. The bytecode VM must agree with it on every
//! program — including the error cases — which the differential fuzzer
//! checks over randomized programs and the suite-equivalence tests
//! check over the real corpus.

use gpu_sim::program::TbProgram;

use crate::emit::{element_addr, EmitCtx};
use crate::error::{runtime, DslError};
use crate::resolve::{eval_bin, RExpr, RKernel, RStmt, ResolvedWorkload};

/// Statement budget per TB program (the VM uses the same constant as an
/// instruction budget). Generous: corpus programs execute a few
/// thousand statements; only a runaway loop gets anywhere near it.
pub const FUEL: u64 = 64 * 1024 * 1024;

/// Control-flow outcome of running a statement list.
enum Flow {
    Normal,
    Return,
}

struct Interp<'a> {
    w: &'a ResolvedWorkload,
    kernel: &'a str,
    param: u64,
    tb: u64,
    slots: Vec<u64>,
    fuel: u64,
}

/// Runs `kernel` for one TB via tree walking.
///
/// # Errors
///
/// Returns the same structured runtime errors as the VM: data index out
/// of bounds, division by zero, or fuel exhaustion.
pub fn interpret_tb(
    w: &ResolvedWorkload,
    kernel: &RKernel,
    param: u64,
    tb: u32,
) -> Result<TbProgram, DslError> {
    let mut interp = Interp {
        w,
        kernel: &kernel.name,
        param,
        tb: u64::from(tb),
        slots: vec![0; kernel.slots as usize],
        fuel: FUEL,
    };
    let mut ctx = EmitCtx::new(kernel.threads);
    interp.run(&kernel.body, &mut ctx)?;
    Ok(ctx.finish())
}

impl Interp<'_> {
    fn run(&mut self, stmts: &[RStmt], ctx: &mut EmitCtx) -> Result<Flow, DslError> {
        for stmt in stmts {
            self.fuel =
                self.fuel.checked_sub(1).ok_or_else(|| runtime::fuel_exhausted(self.kernel))?;
            match stmt {
                RStmt::Set(slot, value) => {
                    self.slots[*slot as usize] = self.eval(value)?;
                }
                RStmt::If(cond, then, otherwise) => {
                    let branch = if self.eval(cond)? != 0 { then } else { otherwise };
                    if let Flow::Return = self.run(branch, ctx)? {
                        return Ok(Flow::Return);
                    }
                }
                RStmt::For(slot, lo, hi, body) => {
                    let lo = self.eval(lo)?;
                    let hi = self.eval(hi)?;
                    // Mirror the VM lowering exactly: the loop variable
                    // is an ordinary slot re-read at the loop head, so a
                    // body write to it redirects iteration, and the
                    // increment wraps.
                    self.slots[*slot as usize] = lo;
                    while self.slots[*slot as usize] < hi {
                        // Charge one unit per iteration so an empty body
                        // still consumes fuel (the VM pays per
                        // instruction for the same loop).
                        self.fuel = self
                            .fuel
                            .checked_sub(1)
                            .ok_or_else(|| runtime::fuel_exhausted(self.kernel))?;
                        if let Flow::Return = self.run(body, ctx)? {
                            return Ok(Flow::Return);
                        }
                        self.slots[*slot as usize] = self.slots[*slot as usize].wrapping_add(1);
                    }
                }
                RStmt::While(cond, body) => {
                    while self.eval(cond)? != 0 {
                        self.fuel = self
                            .fuel
                            .checked_sub(1)
                            .ok_or_else(|| runtime::fuel_exhausted(self.kernel))?;
                        if let Flow::Return = self.run(body, ctx)? {
                            return Ok(Flow::Return);
                        }
                    }
                }
                RStmt::Return => return Ok(Flow::Return),
                RStmt::Compute(c) => {
                    let c = self.eval(c)?;
                    ctx.compute(c);
                }
                RStmt::ComputeMasked(c, a) => {
                    let c = self.eval(c)?;
                    let a = self.eval(a)?;
                    ctx.compute_masked(c, a);
                }
                RStmt::Sync => ctx.sync(),
                RStmt::Shared => ctx.shared(),
                RStmt::Slice { store, region, start, count } => {
                    let start = self.eval(start)?;
                    let count = self.eval(count)?;
                    ctx.slice(*store, self.w.regions[*region as usize].region, start, count);
                }
                RStmt::Bcast { store, region, index } => {
                    let index = self.eval(index)?;
                    ctx.bcast(*store, self.w.regions[*region as usize].region, index);
                }
                RStmt::Addrs { store, body } => {
                    ctx.begin_addrs(*store);
                    let flow = self.run(body, ctx)?;
                    ctx.end_addrs();
                    debug_assert!(
                        matches!(flow, Flow::Normal),
                        "return inside gather (resolver invariant)"
                    );
                }
                RStmt::Yield(value) => {
                    let addr = self.eval(value)?;
                    ctx.push_addr(addr);
                }
                RStmt::Launch { kind, param, num_tbs, threads, regs, smem } => {
                    let kind = self.eval(kind)?;
                    let param = self.eval(param)?;
                    let num_tbs = self.eval(num_tbs)?;
                    let threads = self.eval(threads)?;
                    let regs = self.eval(regs)?;
                    let smem = self.eval(smem)?;
                    ctx.launch(kind, param, num_tbs, threads, regs, smem);
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn eval(&self, expr: &RExpr) -> Result<u64, DslError> {
        use crate::ast::{BinOp, Builtin};
        match expr {
            RExpr::Lit(v) => Ok(*v),
            RExpr::Slot(slot) => Ok(self.slots[*slot as usize]),
            RExpr::Param => Ok(self.param),
            RExpr::Tb => Ok(self.tb),
            RExpr::Data(id, index) => {
                let index = self.eval(index)?;
                let data = &self.w.datas[*id as usize];
                data.values.get(usize::try_from(index).unwrap_or(usize::MAX)).copied().ok_or_else(
                    || runtime::data_oob(self.kernel, &data.name, index, data.values.len()),
                )
            }
            RExpr::Addr(id, index) => {
                let index = self.eval(index)?;
                Ok(element_addr(self.w.regions[*id as usize].region, index))
            }
            RExpr::Call(b, x, y) => {
                let x = self.eval(x)?;
                let y = self.eval(y)?;
                match b {
                    Builtin::Min => Ok(x.min(y)),
                    Builtin::Max => Ok(x.max(y)),
                    Builtin::DivCeil => {
                        if y == 0 {
                            Err(runtime::div_by_zero(self.kernel))
                        } else {
                            Ok(x.div_ceil(y))
                        }
                    }
                }
            }
            RExpr::Not(x) => Ok(u64::from(self.eval(x)? == 0)),
            RExpr::Bin(op, x, y) => match op {
                // Short-circuit: the right operand of `&&`/`||` is not
                // evaluated when the left decides — so `0 && (1/0)` is
                // 0, not an error, in both back ends.
                BinOp::And => {
                    if self.eval(x)? == 0 {
                        Ok(0)
                    } else {
                        Ok(u64::from(self.eval(y)? != 0))
                    }
                }
                BinOp::Or => {
                    if self.eval(x)? != 0 {
                        Ok(1)
                    } else {
                        Ok(u64::from(self.eval(y)? != 0))
                    }
                }
                BinOp::Div | BinOp::Mod => {
                    let a = self.eval(x)?;
                    let b = self.eval(y)?;
                    if b == 0 {
                        Err(runtime::div_by_zero(self.kernel))
                    } else {
                        Ok(eval_bin(*op, a, b))
                    }
                }
                _ => {
                    let a = self.eval(x)?;
                    let b = self.eval(y)?;
                    Ok(eval_bin(*op, a, b))
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::resolve;
    use gpu_sim::program::{AddrPattern, TbOp};

    fn run_one(src: &str, param: u64, tb: u32) -> Result<TbProgram, DslError> {
        let w = resolve(parse(src).expect("parses")).expect("resolves");
        let hk = w.hosts[0];
        let k = w.kernel(hk.kind).expect("kernel exists").clone();
        interpret_tb(&w, &k, param, tb)
    }

    fn kernel_src(body: &str) -> String {
        format!(
            "workload \"t\";\nregion r[64, 4];\ndata d = [5, 0, 9];\n\
             host kind = 0 param = 3 tbs = 2 threads = 32 regs = 8 smem = 0;\n\
             kernel 0 \"k\" threads = 32 {{ {body} }}"
        )
    }

    #[test]
    fn emits_chunked_slice_like_a_generator() {
        let prog = run_one(
            &kernel_src("let a = tb * 32; let cnt = min(32, 64 - a); load_slice r, a, cnt;"),
            0,
            1,
        )
        .expect("runs");
        match prog.ops() {
            [TbOp::Mem(m)] => match m.pattern {
                AddrPattern::Strided { base, stride } => {
                    assert_eq!(stride, 4);
                    assert_eq!(base, 128 + 32 * 4);
                }
                ref p => panic!("expected strided, got {p:?}"),
            },
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn for_loop_and_gather_collect_addresses() {
        let prog =
            run_one(&kernel_src("gather { for i in 0 .. 3 { yield addr(r, i * 2); } }"), 0, 0)
                .expect("runs");
        match prog.ops() {
            [TbOp::Mem(m)] => match &m.pattern {
                AddrPattern::Gather(a) => assert_eq!(a.as_ref(), [128, 136, 144]),
                p => panic!("expected gather, got {p:?}"),
            },
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn return_stops_the_program() {
        let prog = run_one(&kernel_src("compute 1; if tb == 0 { return; } compute 2;"), 0, 0)
            .expect("runs");
        assert_eq!(prog.ops(), &[TbOp::Compute(1)]);
    }

    #[test]
    fn data_oob_is_a_structured_error() {
        let err = run_one(&kernel_src("compute d[7];"), 0, 0).expect_err("must fail");
        assert_eq!(err, runtime::data_oob("k", "d", 7, 3));
    }

    #[test]
    fn division_by_zero_is_a_structured_error() {
        let err = run_one(&kernel_src("compute 1 / (tb - 5);"), 0, 0).expect_err("must fail");
        assert_eq!(err, runtime::div_by_zero("k"));
    }

    #[test]
    fn short_circuit_skips_faulting_operand() {
        let prog =
            run_one(&kernel_src("compute 1 + (0 && 1 / 0); compute 1 + (1 || d[99]);"), 0, 0)
                .expect("runs");
        assert_eq!(prog.ops(), &[TbOp::Compute(1), TbOp::Compute(2)]);
    }

    #[test]
    fn runaway_loop_exhausts_fuel() {
        let err = run_one(&kernel_src("while 1 { let x = 0; }"), 0, 0).expect_err("must fail");
        assert_eq!(err, runtime::fuel_exhausted("k"));
    }

    #[test]
    fn param_and_tb_are_visible() {
        let prog = run_one(&kernel_src("compute param * 10 + tb;"), 3, 1).expect("runs");
        assert_eq!(prog.ops(), &[TbOp::Compute(31)]);
    }
}
