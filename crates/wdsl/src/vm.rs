//! Stack VM: the hot execution path for compiled workload programs.
//!
//! The dispatch loop performs **no bounds checks**: program counter,
//! operand stack, variable slots, literal pool, and the data/region id
//! tables are accessed with `get_unchecked`. Soundness comes from two
//! compile-time facts plus one entry check:
//!
//! 1. The [`crate::bytecode`] verifier proved, per reachable pc, the exact
//!    stack depth and that every jump target, literal/slot/data/region
//!    id, and fall-through stays in range (see that module's docs).
//! 2. [`CompiledKernel`]s are only constructible through
//!    [`crate::compile()`], which runs the verifier.
//! 3. At entry the VM checks the region/data tables it was handed are at
//!    least as large as the tables the code was verified against.
//!
//! Runtime-*valued* indexing (a data-array subscript) stays checked and
//! fails with the same structured [`DslError::Runtime`] values the
//! reference interpreter produces — the differential fuzzer compares
//! both success and failure cases across back ends.

use gpu_sim::program::TbProgram;
use workloads::layout::Region;

use crate::ast::BinOp;
use crate::bytecode::{CompiledKernel, Op};
use crate::emit::{element_addr, EmitCtx};
use crate::error::{runtime, DslError};
use crate::interp::FUEL;
use crate::resolve::{eval_bin, RData};

/// Runs one TB program on the VM.
///
/// # Errors
///
/// Returns the same structured runtime errors as the interpreter (data
/// index out of bounds, division by zero, fuel exhaustion), or a
/// [`DslError::Bytecode`] if `regions`/`datas` are smaller than the
/// tables the kernel was verified against (a caller bug).
pub fn run_compiled(
    regions: &[Region],
    datas: &[RData],
    kernel: &CompiledKernel,
    param: u64,
    tb: u32,
) -> Result<TbProgram, DslError> {
    if regions.len() < kernel.num_regions as usize || datas.len() < kernel.num_datas as usize {
        return Err(DslError::Bytecode {
            kernel: kernel.name.clone(),
            message: format!(
                "tables smaller than verified limits: {} regions (need {}), {} datas (need {})",
                regions.len(),
                kernel.num_regions,
                datas.len(),
                kernel.num_datas
            ),
        });
    }
    let code = kernel.code.as_slice();
    let literals = kernel.literals.as_slice();
    let mut slots = vec![0u64; (kernel.slots.max(1)) as usize];
    let mut stack = vec![0u64; kernel.max_stack as usize];
    let mut sp = 0usize;
    let mut pc = 0usize;
    let mut fuel: u64 = FUEL;
    let mut ctx = EmitCtx::new(kernel.threads);

    // SAFETY for every `get_unchecked` below: the verifier proved that
    // at each reachable pc the operand-stack depth equals `sp`, never
    // exceeds `max_stack` (the allocation size), never underflows, and
    // that every embedded id is within the table the entry check bound.
    macro_rules! pop {
        () => {{
            sp -= 1;
            unsafe { *stack.get_unchecked(sp) }
        }};
    }
    macro_rules! push {
        ($v:expr) => {{
            let v: u64 = $v;
            unsafe {
                *stack.get_unchecked_mut(sp) = v;
            }
            sp += 1;
        }};
    }
    macro_rules! binop {
        ($op:expr) => {{
            let b = pop!();
            let a = pop!();
            push!(eval_bin($op, a, b));
        }};
    }

    loop {
        fuel = fuel.checked_sub(1).ok_or_else(|| runtime::fuel_exhausted(&kernel.name))?;
        // SAFETY: pc starts at 0 (code is verified non-empty), every
        // jump target was range-checked, and fallthrough past the end
        // was rejected for all reachable instructions.
        let op = unsafe { *code.get_unchecked(pc) };
        pc += 1;
        match op {
            Op::Lit(id) => {
                // SAFETY: literal ids verified < literals.len().
                push!(unsafe { *literals.get_unchecked(id as usize) });
            }
            Op::Slot(id) => {
                // SAFETY: slot ids verified < kernel.slots.
                push!(unsafe { *slots.get_unchecked(id as usize) });
            }
            Op::SetSlot(id) => {
                let v = pop!();
                // SAFETY: slot ids verified < kernel.slots.
                unsafe {
                    *slots.get_unchecked_mut(id as usize) = v;
                }
            }
            Op::Param => push!(param),
            Op::Tb => push!(u64::from(tb)),
            Op::Data(id) => {
                let index = pop!();
                // SAFETY: data ids verified < num_datas ≤ datas.len().
                let data = unsafe { datas.get_unchecked(id as usize) };
                let value = data
                    .values
                    .get(usize::try_from(index).unwrap_or(usize::MAX))
                    .copied()
                    .ok_or_else(|| {
                        runtime::data_oob(&kernel.name, &data.name, index, data.values.len())
                    })?;
                push!(value);
            }
            Op::RegionAddr(id) => {
                let index = pop!();
                // SAFETY: region ids verified < num_regions ≤ regions.len().
                let region = unsafe { *regions.get_unchecked(id as usize) };
                push!(element_addr(region, index));
            }
            Op::Min => {
                let b = pop!();
                let a = pop!();
                push!(a.min(b));
            }
            Op::Max => {
                let b = pop!();
                let a = pop!();
                push!(a.max(b));
            }
            Op::DivCeil => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(runtime::div_by_zero(&kernel.name));
                }
                push!(a.div_ceil(b));
            }
            Op::Add => binop!(BinOp::Add),
            Op::Sub => binop!(BinOp::Sub),
            Op::Mul => binop!(BinOp::Mul),
            Op::Div | Op::Mod => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(runtime::div_by_zero(&kernel.name));
                }
                push!(eval_bin(if matches!(op, Op::Div) { BinOp::Div } else { BinOp::Mod }, a, b));
            }
            Op::Shl => binop!(BinOp::Shl),
            Op::Shr => binop!(BinOp::Shr),
            Op::BitAnd => binop!(BinOp::BitAnd),
            Op::BitOr => binop!(BinOp::BitOr),
            Op::Eq => binop!(BinOp::Eq),
            Op::Ne => binop!(BinOp::Ne),
            Op::Lt => binop!(BinOp::Lt),
            Op::Le => binop!(BinOp::Le),
            Op::Gt => binop!(BinOp::Gt),
            Op::Ge => binop!(BinOp::Ge),
            Op::Not => {
                let x = pop!();
                push!(u64::from(x == 0));
            }
            Op::Bool => {
                let x = pop!();
                push!(u64::from(x != 0));
            }
            Op::Jump(t) => pc = t as usize,
            Op::JumpIfZero(t) => {
                if pop!() == 0 {
                    pc = t as usize;
                }
            }
            Op::JumpIfNonZero(t) => {
                if pop!() != 0 {
                    pc = t as usize;
                }
            }
            Op::Ret => break,
            Op::Compute => {
                let cycles = pop!();
                ctx.compute(cycles);
            }
            Op::ComputeMasked => {
                let active = pop!();
                let cycles = pop!();
                ctx.compute_masked(cycles, active);
            }
            Op::Sync => ctx.sync(),
            Op::Shared => ctx.shared(),
            Op::Slice { store, region } => {
                let count = pop!();
                let start = pop!();
                // SAFETY: region ids verified < num_regions ≤ regions.len().
                let region = unsafe { *regions.get_unchecked(region as usize) };
                ctx.slice(store, region, start, count);
            }
            Op::Bcast { store, region } => {
                let index = pop!();
                // SAFETY: region ids verified < num_regions ≤ regions.len().
                let region = unsafe { *regions.get_unchecked(region as usize) };
                ctx.bcast(store, region, index);
            }
            Op::BeginAddrs { store } => ctx.begin_addrs(store),
            Op::EndAddrs => ctx.end_addrs(),
            Op::EmitYield => {
                let addr = pop!();
                ctx.push_addr(addr);
            }
            Op::Launch => {
                let smem = pop!();
                let regs = pop!();
                let threads = pop!();
                let num_tbs = pop!();
                let launch_param = pop!();
                let kind = pop!();
                ctx.launch(kind, launch_param, num_tbs, threads, regs, smem);
            }
        }
    }
    Ok(ctx.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_kernel;
    use crate::interp::interpret_tb;
    use crate::parser::parse;
    use crate::resolve::{resolve, ResolvedWorkload};

    fn setup(src: &str) -> (ResolvedWorkload, Vec<Region>, CompiledKernel) {
        let w = resolve(parse(src).expect("parses")).expect("resolves");
        let regions: Vec<Region> = w.regions.iter().map(|r| r.region).collect();
        let k = compile_kernel(&w, &w.kernels[0]).expect("compiles");
        (w, regions, k)
    }

    fn kernel_src(body: &str) -> String {
        format!(
            "workload \"t\";\nregion r[64, 4];\ndata d = [5, 0, 9];\n\
             host kind = 0 param = 3 tbs = 2 threads = 32 regs = 8 smem = 0;\n\
             kernel 0 \"k\" threads = 32 {{ {body} }}"
        )
    }

    /// VM and interpreter must agree — success or identical error.
    fn assert_backends_agree(body: &str, param: u64, tb: u32) {
        let src = kernel_src(body);
        let (w, regions, ck) = setup(&src);
        let vm = run_compiled(&regions, &w.datas, &ck, param, tb);
        let interp = interpret_tb(&w, &w.kernels[0], param, tb);
        assert_eq!(vm, interp, "backends diverge on: {body}");
    }

    #[test]
    fn agrees_on_the_full_statement_menu() {
        assert_backends_agree(
            "let a = tb * 32; let cnt = min(32, 64 - a);\n\
             if cnt == 0 { compute 1; return; }\n\
             load_slice r, a, cnt;\n\
             compute 4;\n\
             gather { for i in 0 .. cnt { if d[i % 3] > 0 { yield addr(r, a + i); } } }\n\
             compute_masked 6, cnt;\n\
             shared; sync;\n\
             launch 0, a, div_ceil(cnt, 2), 32, 20, 0;\n\
             store_slice r, a, cnt;\n\
             load_bcast r, a; store_bcast r, a + 1;",
            3,
            1,
        );
    }

    #[test]
    fn agrees_on_loops_and_logic() {
        assert_backends_agree(
            "let n = 0;\n\
             for i in 0 .. 10 { if i % 3 == 0 || i == 7 { n = n + i; } }\n\
             while n > 0 && n != 4 { n = n - 3; }\n\
             compute n + 1;",
            0,
            0,
        );
    }

    #[test]
    fn agrees_on_runtime_errors() {
        assert_backends_agree("compute d[tb + 7];", 0, 0); // oob
        assert_backends_agree("compute 1 / (param - 3);", 3, 0); // div0
        assert_backends_agree("compute div_ceil(4, tb);", 0, 0); // div_ceil 0
        assert_backends_agree("compute 5 % (tb * 2);", 0, 0); // mod0
    }

    #[test]
    fn agrees_on_short_circuit_masking_faults() {
        assert_backends_agree("compute 1 + (0 && 1 / 0); compute 1 + (1 || d[99]);", 0, 0);
        assert_backends_agree("compute 1 + (1 && 1 / 0);", 0, 0); // fault taken
    }

    #[test]
    fn agrees_on_assignment_to_loop_variable() {
        // Both back ends treat the loop variable as an ordinary slot
        // re-read at the loop head, so a body write redirects iteration.
        assert_backends_agree("for i in 0 .. 6 { compute i + 1; i = i + 1; }", 0, 0);
        assert_backends_agree("for i in 0 .. 6 { compute i + 1; i = 100; }", 0, 0);
    }

    #[test]
    fn agrees_on_fuel_exhaustion() {
        assert_backends_agree("while 1 { let x = 0; }", 0, 0);
    }

    #[test]
    fn agrees_on_saturating_and_wrapping_arithmetic() {
        assert_backends_agree(
            "compute 3 - 10; compute (1 << 63) * 2 + 5; compute 1 << 70; compute !tb;",
            0,
            0,
        );
    }

    #[test]
    fn undersized_tables_are_rejected_not_ub() {
        let (w, _regions, ck) = setup(&kernel_src("load_slice r, 0, 32;"));
        let err = run_compiled(&[], &w.datas, &ck, 0, 0).expect_err("must fail");
        assert_eq!(err.stage(), "bytecode");
        assert!(err.to_string().contains("smaller than verified"), "{err}");
    }
}
