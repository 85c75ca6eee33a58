//! Lowered TB programs: a [`TbProgram`] decoded once for one TB's
//! geometry, so the SMX issue path only reads precomputed results.
//!
//! Lowering turns every memory op into what its warps will actually
//! send: a global op becomes one run of cache-line addresses per warp,
//! in first-touch order — exactly `coalesce(warp_addrs(..))` — and a
//! shared op becomes one bank-conflict pass count per warp. The lines
//! of all runs live in one contiguous arena indexed by per-warp
//! offsets. A lowering is a pure function of the program, the TB's
//! thread count, the warp width and the line size, so the engine may
//! lower at dispatch and a sweep may share the result between every
//! cell that dispatches the same TB ([`ProgramMemo`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::coalesce::coalesce_into;
use crate::config::GpuConfig;
use crate::program::{KernelKindId, LaunchSpec, MemSpace, TbOp, TbProgram};
use crate::smem::conflict_passes;
use crate::types::{Addr, LineAddr};

/// One op of a [`LoweredProgram`]. Memory ops and launches refer into
/// the program's arenas, which keeps the op itself small and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoweredOp {
    /// Every warp is busy for the given number of cycles.
    Compute(u32),
    /// Divergent ALU work with `active` useful threads per warp.
    ComputeMasked {
        /// Busy cycles.
        cycles: u32,
        /// Active threads per warp (clamped to the warp width at issue).
        active: u32,
    },
    /// A global-memory access; warp `w` sends
    /// [`LoweredProgram::lines`]`(runs, w)`.
    Global {
        /// `true` for stores.
        is_store: bool,
        /// Index of warp 0's run offset.
        runs: u32,
    },
    /// A shared-memory access; warp `w` takes
    /// [`LoweredProgram::passes`]`(passes, w)` serialized passes.
    Shared {
        /// Index of warp 0's pass count.
        passes: u32,
    },
    /// A device-side launch ([`LoweredProgram::launch`]).
    Launch(u32),
    /// TB-wide barrier.
    Sync,
}

/// A TB program lowered for one geometry: `threads` threads in warps of
/// `warp_size`, with `1 << line_bits`-byte cache lines.
#[derive(Debug)]
pub struct LoweredProgram {
    ops: Box<[LoweredOp]>,
    launches: Box<[LaunchSpec]>,
    /// Run `i` is `lines[offsets[i]..offsets[i + 1]]`; a global op's
    /// runs are `num_warps` consecutive entries.
    offsets: Box<[u32]>,
    lines: Box<[LineAddr]>,
    passes: Box<[u32]>,
    threads: u32,
    num_warps: u32,
}

impl LoweredProgram {
    /// Lowers `program` for a TB of `threads` threads.
    pub fn lower(program: &TbProgram, threads: u32, warp_size: u32, line_bits: u32) -> Self {
        let num_warps = threads.div_ceil(warp_size).max(1);
        let mut ops = Vec::with_capacity(program.len());
        let mut launches = Vec::new();
        let mut offsets = vec![0u32];
        let mut lines: Vec<LineAddr> = Vec::new();
        let mut passes = Vec::new();
        let mut addrs: Vec<Addr> = Vec::new();
        let mut run: Vec<LineAddr> = Vec::new();
        for op in program.ops() {
            ops.push(match op {
                TbOp::Compute(c) => LoweredOp::Compute(*c),
                TbOp::ComputeMasked { cycles, active } => {
                    LoweredOp::ComputeMasked { cycles: *cycles, active: *active }
                }
                TbOp::Mem(m) if m.space == MemSpace::Shared => {
                    let first = index(passes.len());
                    for w in 0..num_warps {
                        m.pattern.warp_addrs_into(w, warp_size, threads, &mut addrs);
                        passes.push(conflict_passes(&addrs));
                    }
                    LoweredOp::Shared { passes: first }
                }
                TbOp::Mem(m) => {
                    let runs = index(offsets.len() - 1);
                    for w in 0..num_warps {
                        m.pattern.warp_addrs_into(w, warp_size, threads, &mut addrs);
                        coalesce_into(&addrs, line_bits, &mut run);
                        lines.extend_from_slice(&run);
                        offsets.push(index(lines.len()));
                    }
                    LoweredOp::Global { is_store: m.is_store, runs }
                }
                TbOp::Launch(spec) => {
                    launches.push(spec.clone());
                    LoweredOp::Launch(index(launches.len() - 1))
                }
                TbOp::Sync => LoweredOp::Sync,
            });
        }
        LoweredProgram {
            ops: ops.into(),
            launches: launches.into(),
            offsets: offsets.into(),
            lines: lines.into(),
            passes: passes.into(),
            threads,
            num_warps,
        }
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[LoweredOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Threads in the TB this lowering is for.
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Warps in the TB (at least one, even for zero threads).
    pub fn num_warps(&self) -> u32 {
        self.num_warps
    }

    /// The distinct lines warp `warp` of the global op with run index
    /// `runs` touches, in first-touch order; empty when the warp has no
    /// active threads for the op.
    pub fn lines(&self, runs: u32, warp: u32) -> &[LineAddr] {
        let i = (runs + warp) as usize;
        &self.lines[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Serialized passes warp `warp` of the shared op with pass index
    /// `passes` takes.
    pub fn passes(&self, passes: u32, warp: u32) -> u32 {
        self.passes[(passes + warp) as usize]
    }

    /// The launch with index `i`.
    pub fn launch(&self, i: u32) -> &LaunchSpec {
        &self.launches[i as usize]
    }
}

/// Arena indices are `u32`: a TB program with four billion lines would
/// not fit in memory anyway.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("lowered program arena exceeds u32 indices")
}

/// Everything a lowering reads besides the geometry the memo is for.
type MemoKey = (KernelKindId, u64, u32, u32);

/// Lowered programs shared by simulations of one workload.
///
/// Programs are a pure function of `(kind, param, tb)`, so every cell
/// of a sweep that runs the same workload on the same geometry can
/// share one lowering per distinct `(kind, param, tb, threads)`. The
/// memo fills lazily as simulations dispatch TBs and is safe to share
/// across threads; a lowering is built outside the lock, so two
/// simulations that miss on the same key at once may both build it
/// (both results are equal; the first inserted is kept).
#[derive(Debug)]
pub struct ProgramMemo {
    warp_size: u32,
    line_bits: u32,
    programs: Mutex<HashMap<MemoKey, Arc<LoweredProgram>>>,
    built: AtomicU64,
    served: AtomicU64,
}

impl ProgramMemo {
    /// An empty memo for `cfg`'s warp width and line size.
    pub fn for_config(cfg: &GpuConfig) -> Self {
        ProgramMemo {
            warp_size: cfg.warp_size,
            line_bits: cfg.line_bits(),
            programs: Mutex::new(HashMap::new()),
            built: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// Whether lowerings in this memo are valid under `cfg`.
    pub fn matches(&self, cfg: &GpuConfig) -> bool {
        self.warp_size == cfg.warp_size && self.line_bits == cfg.line_bits()
    }

    /// The lowering of TB `tb` of a `(kind, param)` batch with
    /// `threads` threads, materializing it with `program` on a miss.
    pub fn get_or_lower(
        &self,
        kind: KernelKindId,
        param: u64,
        tb: u32,
        threads: u32,
        program: impl FnOnce() -> TbProgram,
    ) -> Arc<LoweredProgram> {
        self.served.fetch_add(1, Ordering::Relaxed);
        let key = (kind, param, tb, threads);
        if let Some(hit) = self.lock().get(&key) {
            return hit.clone();
        }
        let lowered =
            Arc::new(LoweredProgram::lower(&program(), threads, self.warp_size, self.line_bits));
        self.built.fetch_add(1, Ordering::Relaxed);
        self.lock().entry(key).or_insert(lowered).clone()
    }

    /// Programs materialized and lowered so far.
    pub fn built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    /// Lookups served so far (hits and builds alike).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<MemoKey, Arc<LoweredProgram>>> {
        // The map is only touched by lookups and inserts, which cannot
        // leave it inconsistent, so a poisoned lock is still usable.
        self.programs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::coalesce::coalesce;
    use crate::kernel::ResourceReq;
    use crate::program::{AddrPattern, MemOp};

    /// Checks every warp of every op against the per-issue oracle.
    fn assert_matches_oracle(program: &TbProgram, threads: u32, warp_size: u32, line_bits: u32) {
        let lowered = LoweredProgram::lower(program, threads, warp_size, line_bits);
        assert_eq!(lowered.len(), program.len());
        assert_eq!(lowered.threads(), threads);
        assert_eq!(lowered.num_warps(), threads.div_ceil(warp_size).max(1));
        for (op, low) in program.ops().iter().zip(lowered.ops()) {
            for w in 0..lowered.num_warps() {
                match (op, *low) {
                    (TbOp::Mem(m), LoweredOp::Global { is_store, runs }) => {
                        assert_eq!(m.space, MemSpace::Global);
                        assert_eq!(m.is_store, is_store);
                        let addrs = m.pattern.warp_addrs(w, warp_size, threads);
                        assert_eq!(lowered.lines(runs, w), coalesce(&addrs, line_bits), "{m:?}");
                    }
                    (TbOp::Mem(m), LoweredOp::Shared { passes }) => {
                        assert_eq!(m.space, MemSpace::Shared);
                        let addrs = m.pattern.warp_addrs(w, warp_size, threads);
                        assert_eq!(lowered.passes(passes, w), conflict_passes(&addrs));
                    }
                    (TbOp::Launch(spec), LoweredOp::Launch(i)) => {
                        assert_eq!(lowered.launch(i), spec);
                    }
                    (TbOp::Compute(c), LoweredOp::Compute(l)) => assert_eq!(*c, l),
                    (
                        TbOp::ComputeMasked { cycles, active },
                        LoweredOp::ComputeMasked { cycles: lc, active: la },
                    ) => assert_eq!((*cycles, *active), (lc, la)),
                    (TbOp::Sync, LoweredOp::Sync) => {}
                    (op, low) => panic!("{op:?} lowered to {low:?}"),
                }
            }
        }
    }

    fn program(patterns: Vec<AddrPattern>) -> TbProgram {
        let mut ops = Vec::new();
        for p in patterns {
            ops.push(TbOp::Mem(MemOp::load(p.clone())));
            ops.push(TbOp::Mem(MemOp::store(p.clone())));
            ops.push(TbOp::Mem(MemOp::shared(p)));
        }
        TbProgram::new(ops)
    }

    fn edge_patterns() -> Vec<AddrPattern> {
        vec![
            AddrPattern::Strided { base: 4096, stride: 4 },
            AddrPattern::Strided { base: 4096 + 64, stride: 4 },
            AddrPattern::Strided { base: 1000, stride: 0 },
            AddrPattern::Strided { base: 8, stride: 128 },
            AddrPattern::Strided { base: 8, stride: 300 },
            AddrPattern::Strided { base: u64::MAX - 95 * 4, stride: 4 },
            AddrPattern::Gather(vec![10, 20, 30, 1 << 20, 10, 5000, 20].into()),
            AddrPattern::Gather((0..48).map(|t| (t * 7919) % 4096).collect::<Vec<_>>().into()),
            AddrPattern::Broadcast(12345),
            AddrPattern::Broadcast(u64::MAX),
        ]
    }

    #[test]
    fn edge_cases_match_the_per_issue_oracle() {
        let prog = program(edge_patterns());
        // Full warps, a tail warp (40 = 32 + 8), a gather shorter than
        // the TB (warps past its end are empty), one thread, no threads.
        for threads in [64, 40, 96, 1, 0] {
            for line_bits in [7, 5, 12] {
                assert_matches_oracle(&prog, threads, 32, line_bits);
            }
            assert_matches_oracle(&prog, threads, 8, 7);
        }
    }

    #[test]
    fn empty_and_single_line_runs() {
        let gather = AddrPattern::Gather(vec![0, 128, 256].into());
        let prog = TbProgram::new(vec![
            TbOp::Mem(MemOp::load(gather)),
            TbOp::Mem(MemOp::load(AddrPattern::Strided { base: 0, stride: 0 })),
            TbOp::Mem(MemOp::load(AddrPattern::Strided { base: 64, stride: 4 })),
            TbOp::Mem(MemOp::load(AddrPattern::Broadcast(300))),
        ]);
        let low = LoweredProgram::lower(&prog, 64, 32, 7);
        let runs: Vec<u32> = low
            .ops()
            .iter()
            .map(|op| match op {
                LoweredOp::Global { runs, .. } => *runs,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(low.lines(runs[0], 0), &[0, 1, 2]);
        assert!(low.lines(runs[0], 1).is_empty(), "gather shorter than the TB");
        assert_eq!(low.lines(runs[1], 1), &[0], "stride 0 is one line");
        assert_eq!(low.lines(runs[2], 0), &[0, 1], "misaligned run spans two lines");
        assert_eq!(low.lines(runs[2], 1), &[1, 2]);
        assert_eq!(low.lines(runs[3], 1), &[2], "broadcast is one line");
    }

    #[test]
    fn launches_and_compute_survive_lowering() {
        let spec = LaunchSpec {
            kind: KernelKindId(2),
            param: 9,
            num_tbs: 3,
            req: ResourceReq::new(32, 8, 0),
        };
        let prog = TbProgram::new(vec![
            TbOp::Compute(3),
            TbOp::Launch(spec.clone()),
            TbOp::ComputeMasked { cycles: 2, active: 5 },
            TbOp::Sync,
        ]);
        assert_matches_oracle(&prog, 64, 32, 7);
        let low = LoweredProgram::lower(&prog, 64, 32, 7);
        assert_eq!(low.launch(0), &spec);
        assert!(LoweredProgram::lower(&TbProgram::default(), 32, 32, 7).is_empty());
    }

    #[test]
    fn memo_builds_each_key_once_and_serves_every_lookup() {
        let cfg = GpuConfig::small_test();
        let memo = ProgramMemo::for_config(&cfg);
        let mut calls = 0;
        let prog = || TbProgram::new(vec![TbOp::Mem(MemOp::load(AddrPattern::Broadcast(7)))]);
        for _ in 0..3 {
            for tb in 0..4 {
                memo.get_or_lower(KernelKindId(0), 1, tb, 64, || {
                    calls += 1;
                    prog()
                });
            }
        }
        // A different thread count is a different lowering.
        memo.get_or_lower(KernelKindId(0), 1, 0, 32, prog);
        assert_eq!((calls, memo.built(), memo.served()), (4, 5, 13));
        let a = memo.get_or_lower(KernelKindId(0), 1, 0, 64, || unreachable!());
        let b = memo.get_or_lower(KernelKindId(0), 1, 0, 64, || unreachable!());
        assert!(Arc::ptr_eq(&a, &b), "hits share one lowering");
        assert!(memo.matches(&cfg));
        let mut wide = cfg.clone();
        wide.line_bytes *= 2;
        assert!(!memo.matches(&wide));
    }
}
