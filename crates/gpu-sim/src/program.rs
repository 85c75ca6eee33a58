//! Thread-block programs: the instruction streams executed by warps.
//!
//! A kernel's behavior is described per thread block by a [`TbProgram`] —
//! a sequence of [`TbOp`]s that every warp of the TB executes in order
//! (memory operations carry concrete per-thread addresses). Programs are
//! produced on demand by a [`ProgramSource`], typically a workload
//! generator, so that the simulator never needs the application's real
//! code — only its compute/memory/launch shape.

use std::sync::Arc;

use crate::kernel::ResourceReq;
use crate::types::{Addr, LineAddr};

/// Identifies a kernel *kind* — one of the distinct kernel functions a
/// workload defines (e.g. "BFS parent sweep" vs "BFS child expand").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KernelKindId(pub u16);

/// The memory space targeted by a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Off-chip global memory, cached in L1/L2.
    Global,
    /// On-chip per-TB shared memory (scratchpad): fixed latency, no cache
    /// traffic.
    Shared,
}

/// How a warp memory instruction generates its 32 per-thread addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrPattern {
    /// Thread `t` of the TB accesses `base + t * stride` bytes.
    ///
    /// With `stride` equal to the element size this is a fully coalesced
    /// access; larger strides fan out over more lines.
    Strided {
        /// Byte address accessed by thread 0.
        base: Addr,
        /// Byte distance between consecutive threads' addresses.
        stride: u32,
    },
    /// Every thread accesses one explicit address; entry `t` is the
    /// address for thread `t` of the TB. If shorter than the TB, the
    /// remaining threads are inactive for this instruction.
    Gather(Arc<[Addr]>),
    /// All threads read the same address (e.g. a shared pointer or size).
    Broadcast(Addr),
}

impl AddrPattern {
    /// Returns the addresses touched by warp `warp` (threads
    /// `warp*warp_size ..` up to `threads` total), in thread order.
    pub fn warp_addrs(&self, warp: u32, warp_size: u32, threads: u32) -> Vec<Addr> {
        let mut out = Vec::new();
        self.warp_addrs_into(warp, warp_size, threads, &mut out);
        out
    }

    /// [`warp_addrs`](Self::warp_addrs) into a caller-owned buffer
    /// (cleared first), so hot paths can reuse one allocation per warp
    /// instruction instead of building a fresh `Vec`.
    pub fn warp_addrs_into(&self, warp: u32, warp_size: u32, threads: u32, out: &mut Vec<Addr>) {
        out.clear();
        let (first, count) = warp_threads(warp, warp_size, threads);
        if count == 0 {
            return;
        }
        match self {
            AddrPattern::Strided { base, stride } => {
                out.extend((0..count).map(|l| base + u64::from(first + l) * u64::from(*stride)));
            }
            AddrPattern::Gather(addrs) => {
                let lo = first as usize;
                let hi = (first + count) as usize;
                if lo < addrs.len() {
                    out.extend_from_slice(&addrs[lo..hi.min(addrs.len())]);
                }
            }
            AddrPattern::Broadcast(a) => {
                out.extend(std::iter::repeat_n(*a, count as usize));
            }
        }
    }

    /// Every address the whole TB touches (all threads). Kept as the
    /// per-thread oracle the line derivation ([`lines_into`](Self::lines_into))
    /// is tested against.
    pub fn tb_addrs(&self, threads: u32) -> Vec<Addr> {
        match self {
            AddrPattern::Strided { base, stride } => {
                (0..threads).map(|t| base + u64::from(t) * u64::from(*stride)).collect()
            }
            AddrPattern::Gather(addrs) => addrs.iter().copied().take(threads as usize).collect(),
            AddrPattern::Broadcast(a) => vec![*a; threads.min(1) as usize],
        }
    }

    /// Appends the `1 << line_bits`-byte cache lines that threads
    /// `first .. first + count` touch, derived from the pattern without
    /// listing per-thread addresses:
    ///
    /// * `Strided` with a stride of at most one line touches every line
    ///   from its first thread's to its last thread's, ascending;
    /// * `Strided` with a larger stride touches one line per thread,
    ///   ascending;
    /// * `Broadcast` touches one line;
    /// * `Gather` touches one line per address in range, in thread
    ///   order, repeats included.
    ///
    /// So a `Strided` or `Broadcast` result has no repeats and is in
    /// first-touch order, exactly `coalesce(addrs)`; a `Gather` result
    /// needs deduplication to be a line set. As in
    /// [`warp_addrs`](Self::warp_addrs), a strided address must not
    /// overflow `u64`.
    pub fn lines_into(&self, first: u32, count: u32, line_bits: u32, out: &mut Vec<LineAddr>) {
        if count == 0 {
            return;
        }
        match self {
            AddrPattern::Strided { base, stride } => {
                let stride = u64::from(*stride);
                let addr = |t: u32| base + u64::from(t) * stride;
                if stride <= 1 << line_bits {
                    out.extend(addr(first) >> line_bits..=addr(first + count - 1) >> line_bits);
                } else {
                    out.extend((first..first + count).map(|t| addr(t) >> line_bits));
                }
            }
            AddrPattern::Gather(addrs) => {
                let lo = (first as usize).min(addrs.len());
                let hi = (first as usize).saturating_add(count as usize).min(addrs.len());
                out.extend(addrs[lo..hi].iter().map(|a| a >> line_bits));
            }
            AddrPattern::Broadcast(a) => out.push(a >> line_bits),
        }
    }
}

/// The threads of warp `warp` in a TB of `threads` threads, as
/// `(first, count)`; `count` is 0 for a warp past the TB's end.
pub(crate) fn warp_threads(warp: u32, warp_size: u32, threads: u32) -> (u32, u32) {
    let first = warp * warp_size;
    (first, warp_size.min(threads.saturating_sub(first)))
}

/// A warp-level memory instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemOp {
    /// Target memory space.
    pub space: MemSpace,
    /// Per-thread address generator.
    pub pattern: AddrPattern,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

impl MemOp {
    /// A global-memory load.
    pub fn load(pattern: AddrPattern) -> Self {
        MemOp { space: MemSpace::Global, pattern, is_store: false }
    }

    /// A global-memory store.
    pub fn store(pattern: AddrPattern) -> Self {
        MemOp { space: MemSpace::Global, pattern, is_store: true }
    }

    /// A shared-memory access (load/store are timed identically).
    pub fn shared(pattern: AddrPattern) -> Self {
        MemOp { space: MemSpace::Shared, pattern, is_store: false }
    }
}

/// A device-side launch issued by a TB (CDP kernel or DTBL TB group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSpec {
    /// Kernel kind of the child.
    pub kind: KernelKindId,
    /// Opaque workload parameter forwarded to [`ProgramSource::tb_program`]
    /// for the child's TBs (e.g. an encoded vertex id).
    pub param: u64,
    /// Number of child TBs to launch.
    pub num_tbs: u32,
    /// Per-TB resource requirement of the child.
    pub req: ResourceReq,
}

/// One operation in a TB program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TbOp {
    /// Every warp is busy for the given number of cycles (ALU work).
    Compute(u32),
    /// Divergent ALU work: the warp issues and is busy for `cycles`, but
    /// only `active` threads per warp do useful work (a branchy region
    /// where most lanes are masked off). Costs the same issue slots and
    /// latency as [`Compute`](Self::Compute) while contributing fewer
    /// thread instructions — the IPC cost of control divergence.
    ComputeMasked {
        /// Busy cycles, as for `Compute`.
        cycles: u32,
        /// Active threads per warp (clamped to the warp width).
        active: u32,
    },
    /// Every warp issues this memory instruction (with its own lanes).
    Mem(MemOp),
    /// Warp 0 issues a device-side launch; other warps skip the op.
    Launch(LaunchSpec),
    /// TB-wide barrier: warps wait until all warps of the TB arrive.
    Sync,
}

/// The complete instruction stream of one thread block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TbProgram {
    ops: Vec<TbOp>,
}

impl TbProgram {
    /// Creates a program from an operation list.
    pub fn new(ops: Vec<TbOp>) -> Self {
        TbProgram { ops }
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[TbOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All launches the program will issue, in order.
    pub fn launches(&self) -> impl Iterator<Item = &LaunchSpec> {
        self.ops.iter().filter_map(|op| match op {
            TbOp::Launch(spec) => Some(spec),
            _ => None,
        })
    }

    /// All global-memory operations in the program.
    pub fn global_mem_ops(&self) -> impl Iterator<Item = &MemOp> {
        self.ops.iter().filter_map(|op| match op {
            TbOp::Mem(m) if m.space == MemSpace::Global => Some(m),
            _ => None,
        })
    }

    /// A canonical, self-delimiting byte encoding of the program.
    ///
    /// Two programs encode to the same bytes if and only if they are
    /// equal — every field of every op is serialized (little-endian,
    /// length-prefixed where variable). This is the comparison key for
    /// the workload-DSL equivalence gates: "byte-identical program
    /// streams" means equal `canonical_bytes`, checked across program
    /// *sources* (DSL-compiled vs legacy generator) and across runs.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 16);
        out.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        for op in &self.ops {
            match op {
                TbOp::Compute(cycles) => {
                    out.push(0);
                    out.extend_from_slice(&cycles.to_le_bytes());
                }
                TbOp::ComputeMasked { cycles, active } => {
                    out.push(1);
                    out.extend_from_slice(&cycles.to_le_bytes());
                    out.extend_from_slice(&active.to_le_bytes());
                }
                TbOp::Mem(m) => {
                    out.push(2);
                    out.push(match m.space {
                        MemSpace::Global => 0,
                        MemSpace::Shared => 1,
                    });
                    out.push(u8::from(m.is_store));
                    match &m.pattern {
                        AddrPattern::Strided { base, stride } => {
                            out.push(0);
                            out.extend_from_slice(&base.to_le_bytes());
                            out.extend_from_slice(&stride.to_le_bytes());
                        }
                        AddrPattern::Gather(addrs) => {
                            out.push(1);
                            out.extend_from_slice(&(addrs.len() as u64).to_le_bytes());
                            for a in addrs.iter() {
                                out.extend_from_slice(&a.to_le_bytes());
                            }
                        }
                        AddrPattern::Broadcast(a) => {
                            out.push(2);
                            out.extend_from_slice(&a.to_le_bytes());
                        }
                    }
                }
                TbOp::Launch(spec) => {
                    out.push(3);
                    out.extend_from_slice(&spec.kind.0.to_le_bytes());
                    out.extend_from_slice(&spec.param.to_le_bytes());
                    out.extend_from_slice(&spec.num_tbs.to_le_bytes());
                    out.extend_from_slice(&spec.req.threads.to_le_bytes());
                    out.extend_from_slice(&spec.req.regs_per_thread.to_le_bytes());
                    out.extend_from_slice(&spec.req.smem_bytes.to_le_bytes());
                }
                TbOp::Sync => out.push(4),
            }
        }
        out
    }
}

/// Produces TB programs on demand.
///
/// Implemented by workload generators. The result must be a pure
/// function of `(kind, param, tb_index)`: footprint analysis and timing
/// simulation then see identical address streams, and the engine may
/// call [`tb_program`](Self::tb_program) whenever it needs a TB's
/// program. A lone simulation calls it once per dispatched TB and
/// lowers the result ([`crate::lowered`]); simulations sharing a
/// [`ProgramMemo`](crate::lowered::ProgramMemo), as a sweep's cells of
/// one workload do, call it once per distinct TB between them.
pub trait ProgramSource: Send + Sync {
    /// Returns the program for TB `tb_index` of a batch with the given
    /// kind and parameter.
    fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram;

    /// Human-readable name of a kernel kind (for traces and reports).
    fn kind_name(&self, _kind: KernelKindId) -> String {
        "kernel".to_string()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn strided_warp_addrs_are_consecutive() {
        let p = AddrPattern::Strided { base: 1000, stride: 4 };
        let addrs = p.warp_addrs(1, 32, 128);
        assert_eq!(addrs.len(), 32);
        assert_eq!(addrs[0], 1000 + 32 * 4);
        assert_eq!(addrs[31], 1000 + 63 * 4);
    }

    #[test]
    fn strided_partial_last_warp() {
        let p = AddrPattern::Strided { base: 0, stride: 4 };
        let addrs = p.warp_addrs(1, 32, 40);
        assert_eq!(addrs.len(), 8);
    }

    #[test]
    fn warp_beyond_tb_is_empty() {
        let p = AddrPattern::Strided { base: 0, stride: 4 };
        assert!(p.warp_addrs(2, 32, 64).is_empty());
    }

    #[test]
    fn gather_respects_length() {
        let p = AddrPattern::Gather(vec![10, 20, 30].into());
        let addrs = p.warp_addrs(0, 32, 64);
        assert_eq!(addrs, vec![10, 20, 30]);
        assert!(p.warp_addrs(1, 32, 64).is_empty());
    }

    #[test]
    fn broadcast_replicates_for_active_lanes() {
        let p = AddrPattern::Broadcast(99);
        assert_eq!(p.warp_addrs(0, 32, 16), vec![99; 16]);
    }

    #[test]
    fn tb_addrs_covers_all_threads() {
        let p = AddrPattern::Strided { base: 0, stride: 8 };
        let addrs = p.tb_addrs(100);
        assert_eq!(addrs.len(), 100);
        assert_eq!(addrs[99], 99 * 8);
    }

    /// What `lines_into` must return for `addrs`, the addresses of the
    /// same threads: a gather's lines one per address, anything else
    /// coalesced (distinct lines in first-touch order).
    fn oracle_lines(p: &AddrPattern, addrs: &[Addr], line_bits: u32) -> Vec<LineAddr> {
        match p {
            AddrPattern::Gather(_) => addrs.iter().map(|a| a >> line_bits).collect(),
            _ => crate::coalesce::coalesce(addrs, line_bits),
        }
    }

    /// Patterns around every case of the derivation for lines of
    /// `1 << line_bits` bytes, drawn with `next`.
    fn derivation_patterns(line_bits: u32, next: &mut impl FnMut(u64) -> u64) -> Vec<AddrPattern> {
        let line = 1u32 << line_bits;
        let mut out = Vec::new();
        for stride in
            [0, 1, 4, line - 1, line, line + 1, 3 * line, 1 + next(4 * u64::from(line)) as u32]
        {
            for base in [0, u64::from(line) - 4, next(1 << 20)] {
                out.push(AddrPattern::Strided { base, stride });
            }
        }
        // Gathers shorter than, as long as, and longer than the TBs
        // below, with repeats and with lines out of order.
        for len in [0, 3, 40, 64, 300] {
            let span = 1 + next(16 * u64::from(line));
            out.push(AddrPattern::Gather((0..len).map(|_| next(span)).collect()));
        }
        out.push(AddrPattern::Broadcast(next(1 << 20)));
        // The last of 100 threads reads the top byte of the address space.
        out.push(AddrPattern::Strided { base: u64::MAX - 99 * 4, stride: 4 });
        out
    }

    #[test]
    fn line_derivation_matches_the_per_thread_oracle() {
        let mut state = 0x5EED_u64;
        let mut next = move |bound: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
        };
        for line_bits in [5, 7, 12] {
            for p in derivation_patterns(line_bits, &mut next) {
                for threads in [0, 1, 31, 32, 33, 64, 100] {
                    // TB granularity: all threads, against `tb_addrs`;
                    // the result is appended after what `out` holds.
                    let mut out = vec![7];
                    p.lines_into(0, threads, line_bits, &mut out);
                    let want = oracle_lines(&p, &p.tb_addrs(threads), line_bits);
                    assert_eq!(out[0], 7, "{p:?}: existing contents overwritten");
                    assert_eq!(out[1..], want, "{p:?}, {threads} threads, line bits {line_bits}");
                    // Warp granularity, against `warp_addrs`.
                    for warp_size in [32, 8] {
                        for w in 0..threads.div_ceil(warp_size) + 1 {
                            let (first, count) = warp_threads(w, warp_size, threads);
                            out.clear();
                            p.lines_into(first, count, line_bits, &mut out);
                            let addrs = p.warp_addrs(w, warp_size, threads);
                            assert_eq!(
                                out,
                                oracle_lines(&p, &addrs, line_bits),
                                "{p:?}, warp {w} of {warp_size} in {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn program_launch_iterator_finds_launches() {
        let spec = LaunchSpec {
            kind: KernelKindId(1),
            param: 42,
            num_tbs: 2,
            req: ResourceReq::new(32, 16, 0),
        };
        let prog = TbProgram::new(vec![TbOp::Compute(4), TbOp::Launch(spec.clone()), TbOp::Sync]);
        let launches: Vec<_> = prog.launches().collect();
        assert_eq!(launches, vec![&spec]);
        assert_eq!(prog.len(), 3);
        assert!(!prog.is_empty());
    }

    #[test]
    fn global_mem_ops_excludes_shared() {
        let prog = TbProgram::new(vec![
            TbOp::Mem(MemOp::load(AddrPattern::Broadcast(0))),
            TbOp::Mem(MemOp::shared(AddrPattern::Broadcast(0))),
        ]);
        assert_eq!(prog.global_mem_ops().count(), 1);
    }

    #[test]
    fn empty_program_is_well_behaved() {
        let prog = TbProgram::default();
        assert!(prog.is_empty());
        assert_eq!(prog.len(), 0);
        assert_eq!(prog.ops(), &[]);
        assert_eq!(prog.launches().count(), 0);
        assert_eq!(prog.global_mem_ops().count(), 0);
        // The encoding of an empty program is just its length prefix.
        assert_eq!(prog.canonical_bytes(), 0u64.to_le_bytes());
        assert_eq!(prog, TbProgram::new(Vec::new()));
    }

    #[test]
    fn zero_thread_tb_yields_no_addresses() {
        for p in [
            AddrPattern::Strided { base: 64, stride: 4 },
            AddrPattern::Gather(vec![1, 2, 3].into()),
            AddrPattern::Broadcast(7),
        ] {
            assert!(p.warp_addrs(0, 32, 0).is_empty(), "{p:?}");
            assert!(p.tb_addrs(0).is_empty(), "{p:?}");
        }
    }

    #[test]
    fn boundary_addresses_do_not_overflow_warp_iteration() {
        // A strided access whose last lane lands exactly on u64::MAX.
        let base = u64::MAX - 31 * 4;
        let p = AddrPattern::Strided { base, stride: 4 };
        let addrs = p.warp_addrs(0, 32, 32);
        assert_eq!(addrs.len(), 32);
        assert_eq!(addrs[0], base);
        assert_eq!(addrs[31], u64::MAX);
        // Gather and broadcast pass extreme addresses through verbatim.
        let g = AddrPattern::Gather(vec![0, u64::MAX].into());
        assert_eq!(g.warp_addrs(0, 32, 32), vec![0, u64::MAX]);
        let b = AddrPattern::Broadcast(u64::MAX);
        assert_eq!(b.tb_addrs(64), vec![u64::MAX]);
    }

    #[test]
    fn launches_iterate_in_program_order() {
        let spec = |param: u64| LaunchSpec {
            kind: KernelKindId(1),
            param,
            num_tbs: 1,
            req: ResourceReq::new(32, 16, 0),
        };
        let prog = TbProgram::new(vec![
            TbOp::Launch(spec(3)),
            TbOp::Compute(1),
            TbOp::Launch(spec(1)),
            TbOp::Sync,
            TbOp::Launch(spec(2)),
        ]);
        let order: Vec<u64> = prog.launches().map(|s| s.param).collect();
        assert_eq!(order, vec![3, 1, 2], "launches must keep program order, not sort");
    }

    #[test]
    fn canonical_bytes_distinguishes_unequal_programs() {
        let base = TbProgram::new(vec![
            TbOp::Compute(4),
            TbOp::Mem(MemOp::load(AddrPattern::Strided { base: 128, stride: 4 })),
            TbOp::Mem(MemOp::store(AddrPattern::Gather(vec![8, 16].into()))),
            TbOp::ComputeMasked { cycles: 6, active: 7 },
            TbOp::Sync,
        ]);
        assert_eq!(base.canonical_bytes(), base.clone().canonical_bytes());
        let variants = [
            TbProgram::new(vec![TbOp::Compute(5)]),
            TbProgram::new(vec![TbOp::ComputeMasked { cycles: 4, active: 32 }]),
            TbProgram::new(vec![TbOp::Mem(MemOp::store(AddrPattern::Strided {
                base: 128,
                stride: 4,
            }))]),
            TbProgram::new(vec![TbOp::Mem(MemOp::shared(AddrPattern::Broadcast(8)))]),
            TbProgram::new(vec![TbOp::Mem(MemOp::load(AddrPattern::Gather(vec![8, 16].into())))]),
        ];
        let mut blobs: Vec<Vec<u8>> = variants.iter().map(TbProgram::canonical_bytes).collect();
        blobs.push(base.canonical_bytes());
        let unique: std::collections::HashSet<&[u8]> = blobs.iter().map(Vec::as_slice).collect();
        assert_eq!(unique.len(), blobs.len(), "distinct programs must encode distinctly");
    }

    #[test]
    fn canonical_bytes_is_self_delimiting_across_concatenation() {
        // [Compute(1), Compute(2)] vs [Compute(1)] ++ [Compute(2)]:
        // the length prefix keeps stream concatenations unambiguous.
        let joined = TbProgram::new(vec![TbOp::Compute(1), TbOp::Compute(2)]);
        let mut glued = TbProgram::new(vec![TbOp::Compute(1)]).canonical_bytes();
        glued.extend(TbProgram::new(vec![TbOp::Compute(2)]).canonical_bytes());
        assert_ne!(joined.canonical_bytes(), glued);
    }
}
