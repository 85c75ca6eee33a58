//! The dispatch-time lowering is exact: for every TB the suite can
//! reach, each warp's lowered line run equals what the per-issue path
//! computed (`coalesce(warp_addrs(..))`, first-touch order kept), and
//! each shared op's pass count equals `conflict_passes` of the warp's
//! addresses. Edge cases (tail warps, short gathers, broadcasts, stride
//! 0, strides past a line, other line sizes) are unit-tested next to
//! the lowering in `gpu_sim::lowered`.

use std::collections::HashSet;

use gpu_sim::coalesce::coalesce;
use gpu_sim::config::GpuConfig;
use gpu_sim::lowered::{LoweredOp, LoweredProgram};
use gpu_sim::program::{KernelKindId, MemSpace, TbOp, TbProgram};
use gpu_sim::smem::conflict_passes;
use workloads::{suite_seeded, Scale, Workload};

/// Asserts `program` lowered for `threads` threads matches the
/// per-issue oracle on every warp of every op.
fn check_program(program: &TbProgram, threads: u32, warp_size: u32, line_bits: u32, what: &str) {
    let lowered = LoweredProgram::lower(program, threads, warp_size, line_bits);
    assert_eq!(lowered.len(), program.len(), "{what}");
    for (pc, (op, low)) in program.ops().iter().zip(lowered.ops()).enumerate() {
        let TbOp::Mem(m) = op else { continue };
        for w in 0..lowered.num_warps() {
            let addrs = m.pattern.warp_addrs(w, warp_size, threads);
            match (m.space, *low) {
                (MemSpace::Global, LoweredOp::Global { is_store, runs }) => {
                    assert_eq!(is_store, m.is_store, "{what} pc {pc}");
                    assert_eq!(
                        lowered.lines(runs, w),
                        coalesce(&addrs, line_bits),
                        "{what} pc {pc} warp {w}"
                    );
                }
                (MemSpace::Shared, LoweredOp::Shared { passes }) => {
                    assert_eq!(
                        lowered.passes(passes, w),
                        conflict_passes(&addrs),
                        "{what} pc {pc} warp {w}"
                    );
                }
                (space, low) => panic!("{what} pc {pc}: {space:?} op lowered to {low:?}"),
            }
        }
    }
}

/// Walks every TB the workload's host kernels reach (transitively
/// through launches), checking each distinct `(kind, param, tb,
/// threads)` once. Returns how many were checked.
fn check_workload(w: &dyn Workload, line_bits: u32) -> usize {
    let warp_size = GpuConfig::kepler_k20c().warp_size;
    let mut pending: Vec<(KernelKindId, u64, u32, u32)> = Vec::new();
    for hk in w.host_kernels() {
        pending.extend((0..hk.num_tbs).map(|tb| (hk.kind, hk.param, tb, hk.req.threads)));
    }
    let mut seen = HashSet::new();
    while let Some(key @ (kind, param, tb, threads)) = pending.pop() {
        if !seen.insert(key) {
            continue;
        }
        let program = w.tb_program(kind, param, tb);
        let what = format!("{} kind {} param {param} tb {tb}", w.full_name(), kind.0);
        check_program(&program, threads, warp_size, line_bits, &what);
        for l in program.launches() {
            pending.extend((0..l.num_tbs).map(|tb| (l.kind, l.param, tb, l.req.threads)));
        }
    }
    seen.len()
}

fn check_suite(scale: Scale, seed: u64) {
    let line_bits = GpuConfig::kepler_k20c().line_bits();
    for w in suite_seeded(scale, seed) {
        assert!(check_workload(w.as_ref(), line_bits) > 0, "{} reached no TB", w.full_name());
    }
}

#[test]
fn tiny_suite_lowers_exactly() {
    check_suite(Scale::Tiny, 0);
    check_suite(Scale::Tiny, 7);
}

#[test]
fn tiny_suite_lowers_exactly_with_other_line_sizes() {
    for line_bits in [5, 9] {
        for w in suite_seeded(Scale::Tiny, 0) {
            check_workload(w.as_ref(), line_bits);
        }
    }
}

#[test]
fn ci_suite_lowers_exactly() {
    check_suite(Scale::Ci, 0);
}

#[test]
fn ci_suite_lowers_exactly_at_another_seed() {
    check_suite(Scale::Ci, 7);
}
