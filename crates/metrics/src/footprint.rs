//! Shared-footprint analysis (paper Section III-A, Figure 2).
//!
//! The analysis expands a workload's complete TB tree *statically* — no
//! timing simulation — by walking host-kernel TB programs, collecting
//! every global-memory line each TB touches, and recursing into
//! device-side launches. From the tree it computes the paper's three
//! shared-footprint ratios:
//!
//! * **parent-child** `pc/c`: lines shared between a direct parent TB and
//!   the union of its children's lines, over the children's union size.
//! * **child-sibling** `cos/cs`: lines shared between one child TB and
//!   the union of its siblings' lines, over the siblings' union size
//!   (averaged over children).
//! * **parent-parent**: lines shared between adjacent parent TBs, over
//!   the other's size (the paper reports ~9%, far below parent-child).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::Range;

use gpu_sim::program::LaunchSpec;
use gpu_sim::types::{LineAddr, LineHasher};
use workloads::Workload;

const LINE_BITS: u32 = 7; // 128-byte lines, as in the paper's analysis

/// Safety cap on recursive launch depth.
const MAX_DEPTH: u32 = 8;

/// `owner` of a line that two or more children of one launching TB hold.
const MULTI: u32 = u32::MAX;

/// Results of the footprint analysis of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintAnalysis {
    /// Workload display name.
    pub workload: String,
    /// Mean parent-child shared footprint ratio over launching TBs.
    pub parent_child: f64,
    /// Mean child-sibling shared footprint ratio over child TBs with at
    /// least one sibling.
    pub child_sibling: f64,
    /// Mean adjacent parent-parent shared footprint ratio.
    pub parent_parent: f64,
    /// Number of direct-parent (launching) TBs analyzed.
    pub launching_tbs: usize,
    /// Total child TBs analyzed.
    pub child_tbs: usize,
}

impl FootprintAnalysis {
    /// Runs the analysis on a workload.
    pub fn analyze(workload: &dyn Workload) -> Self {
        Walk::default().analyze(workload)
    }
}

/// One depth-first expansion of a workload's TB tree, holding only the
/// lines of the TBs on the current path and of their expanded children:
/// a launching TB records its ratios once its last child returns.
#[derive(Default)]
struct Walk {
    /// Each held TB's distinct line ids; a TB's children follow it.
    ids: Vec<u32>,
    /// Per held launching TB, where its lines, then each child's, end.
    ends: Vec<usize>,
    /// Dense first-touch line ids: tables are sized by distinct lines.
    id_of: HashMap<LineAddr, u32, BuildHasherDefault<LineHasher>>,
    /// Per line id, the last epoch that marked it. Each TB's dedup, each
    /// parent mark and each parent-parent pair takes a fresh epoch.
    mark: Vec<u32>,
    epoch: u32,
    /// Per line id, the epoch of the last launching TB whose children
    /// touched it, and which child did, or `MULTI` once a second has.
    seen: Vec<u32>,
    owner: Vec<u32>,
    /// One TB's lines, repeats included.
    raw: Vec<LineAddr>,
    /// Ratios in post-order, each TB's children last to first.
    pc_ratios: Vec<f64>,
    cs_ratios: Vec<f64>,
    launching: usize,
    child_tbs: usize,
}

impl Walk {
    /// The analysis of `workload`; the walk must be fresh.
    fn analyze(&mut self, workload: &dyn Workload) -> FootprintAnalysis {
        // Adjacent parent-parent sharing: `ids` holds the previous
        // parent's lines while the next one expands.
        let mut pp_ratios = Vec::new();
        let hosts = workload.host_kernels();
        let parents = hosts.iter().flat_map(|hk| (0..hk.num_tbs).map(move |tb| (hk, tb)));
        for (i, (hk, tb)) in parents.enumerate() {
            let spec = LaunchSpec { kind: hk.kind, param: hk.param, num_tbs: 0, req: hk.req };
            let prev = self.ids.len();
            let end = self.expand(workload, &spec, tb, 0);
            if i > 0 && end > prev {
                let epoch = self.mark_lines(0..prev);
                let next = &self.ids[prev..end];
                let shared = next.iter().filter(|&&id| self.mark[id as usize] == epoch);
                pp_ratios.push(shared.count() as f64 / next.len() as f64);
            }
            self.ids.drain(..prev);
        }
        // The traversal order fixes the order `mean` sums in, and with
        // it the last bits of every ratio: a stack of the parents, each
        // popped TB pushing its children in order. That order is the
        // post-order `expand` records in, reversed.
        self.pc_ratios.reverse();
        self.cs_ratios.reverse();
        FootprintAnalysis {
            workload: workload.full_name(),
            parent_child: mean(&self.pc_ratios),
            child_sibling: mean(&self.cs_ratios),
            parent_parent: mean(&pp_ratios),
            launching_tbs: self.launching,
            child_tbs: self.child_tbs,
        }
    }

    /// Appends TB `tb` of `spec`'s batch's line ids to `ids`, expands its
    /// subtree below `MAX_DEPTH`, and returns where its lines end.
    fn expand(&mut self, workload: &dyn Workload, spec: &LaunchSpec, tb: u32, depth: u32) -> usize {
        let program = workload.tb_program(spec.kind, spec.param, tb);
        self.raw.clear();
        for m in program.global_mem_ops() {
            m.pattern.lines_into(0, spec.req.threads, LINE_BITS, &mut self.raw);
        }
        // Dedup by stamp: every id is written, and kept only if this
        // TB's epoch has not stamped it yet.
        self.epoch += 1;
        let epoch = self.epoch;
        let start = self.ids.len();
        self.ids.resize(start + self.raw.len(), 0);
        let mut end = start;
        let mut prev = None;
        for &line in &self.raw {
            // Threads of one op often share a line: skip the lookup.
            if prev.replace(line) == Some(line) {
                continue;
            }
            let id = *self.id_of.entry(line).or_insert_with(|| {
                self.mark.push(0);
                u32::try_from(self.mark.len() - 1).expect("footprint line ids exceed u32")
            });
            self.ids[end] = id;
            end += usize::from(self.mark[id as usize] != epoch);
            self.mark[id as usize] = epoch;
        }
        self.ids.truncate(end);
        if depth < MAX_DEPTH {
            let first = self.ends.len();
            self.ends.push(end);
            for launch in program.launches() {
                for child_tb in 0..launch.num_tbs {
                    let child_end = self.expand(workload, launch, child_tb, depth + 1);
                    self.ends.push(child_end);
                }
            }
            if self.ends.len() > first + 1 {
                self.count_children(start..end, first);
            }
            self.ends.truncate(first);
            self.ids.truncate(end);
        }
        end
    }

    /// Records the ratios of the TB with lines `parent` and children
    /// ending at `ends[first + 1..]`. A child's first touch of a line
    /// counts towards `uniq` and its `own`; a second child takes it back.
    fn count_children(&mut self, parent: Range<usize>, first: usize) {
        let n = self.ends.len() - first - 1;
        self.launching += 1;
        self.child_tbs += n;
        let epoch = self.mark_lines(parent);
        self.seen.resize(self.mark.len(), 0);
        self.owner.resize(self.mark.len(), 0);
        // Per child, the lines no sibling touches.
        let mut own = vec![0usize; n];
        let (mut uniq, mut in_parent) = (0usize, 0usize);
        for (i, child) in self.ends[first..].windows(2).enumerate() {
            for &id in &self.ids[child[0]..child[1]] {
                let id = id as usize;
                if self.seen[id] != epoch {
                    self.seen[id] = epoch;
                    self.owner[id] = i as u32;
                    uniq += 1;
                    own[i] += 1;
                    in_parent += usize::from(self.mark[id] == epoch);
                } else if self.owner[id] != MULTI {
                    own[self.owner[id] as usize] -= 1;
                    self.owner[id] = MULTI;
                }
            }
        }
        if uniq > 0 {
            self.pc_ratios.push(in_parent as f64 / uniq as f64);
        }
        if n >= 2 {
            for (child, &own) in self.ends[first..].windows(2).zip(&own).rev() {
                // `child ∩ siblings` is the child minus the lines only it
                // holds; the siblings' union is `uniq` minus those lines.
                let siblings = uniq - own;
                if siblings > 0 {
                    let shared = child[1] - child[0] - own;
                    self.cs_ratios.push(shared as f64 / siblings as f64);
                }
            }
        }
    }

    /// Marks the lines `ids[lines]` with a fresh epoch, which it returns.
    fn mark_lines(&mut self, lines: Range<usize>) -> u32 {
        self.epoch += 1;
        for &id in &self.ids[lines] {
            self.mark[id as usize] = self.epoch;
        }
        self.epoch
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Figure 2 for a whole suite: one row per workload plus the averages the
/// paper quotes in the text.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintSummary {
    /// Per-workload analyses, in suite order.
    pub rows: Vec<FootprintAnalysis>,
}

impl FootprintSummary {
    /// Mean parent-child ratio over the suite (paper: ~38%).
    pub fn mean_parent_child(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.parent_child).collect::<Vec<_>>())
    }

    /// Mean child-sibling ratio over the suite (paper: ~30%).
    pub fn mean_child_sibling(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.child_sibling).collect::<Vec<_>>())
    }

    /// Mean parent-parent ratio over the suite (paper: ~9%).
    pub fn mean_parent_parent(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.parent_parent).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::ResourceReq;
    use gpu_sim::program::{AddrPattern, KernelKindId, MemOp, ProgramSource, TbOp, TbProgram};
    use workloads::apps::amr::Amr;
    use workloads::apps::bfs::Bfs;
    use workloads::apps::join::{Join, JoinInput};
    use workloads::graph::GraphKind;
    use workloads::rng::SplitMix64;
    use workloads::{HostKernel, Scale};

    /// The straightforward analysis: `HashSet` line sets, and a fresh
    /// union of the siblings' lines for every child. Quadratic in the
    /// fan-out, but obviously what the module docs define; the fast
    /// analysis must reproduce it bit for bit.
    mod reference {
        use std::collections::HashSet;

        use gpu_sim::program::KernelKindId;
        use gpu_sim::types::LineAddr;
        use workloads::Workload;

        use super::super::{mean, FootprintAnalysis, LINE_BITS, MAX_DEPTH};

        struct TbNode {
            lines: HashSet<LineAddr>,
            children: Vec<TbNode>,
        }

        pub(super) fn analyze(workload: &dyn Workload) -> FootprintAnalysis {
            let mut parents: Vec<TbNode> = Vec::new();
            for hk in workload.host_kernels() {
                for tb in 0..hk.num_tbs {
                    parents.push(expand(workload, hk.kind, hk.param, tb, hk.req.threads, 0));
                }
            }
            let mut pc_ratios = Vec::new();
            let mut cs_ratios = Vec::new();
            let mut launching = 0usize;
            let mut child_count = 0usize;
            let mut stack: Vec<&TbNode> = parents.iter().collect();
            while let Some(node) = stack.pop() {
                if !node.children.is_empty() {
                    launching += 1;
                    child_count += node.children.len();
                    let child_union: HashSet<LineAddr> =
                        node.children.iter().flat_map(|c| c.lines.iter().copied()).collect();
                    if !child_union.is_empty() {
                        let shared = child_union.intersection(&node.lines).count();
                        pc_ratios.push(shared as f64 / child_union.len() as f64);
                    }
                    if node.children.len() >= 2 {
                        for (i, child) in node.children.iter().enumerate() {
                            let sibling_union: HashSet<LineAddr> = node
                                .children
                                .iter()
                                .enumerate()
                                .filter(|&(j, _)| j != i)
                                .flat_map(|(_, s)| s.lines.iter().copied())
                                .collect();
                            if !sibling_union.is_empty() {
                                let shared = sibling_union.intersection(&child.lines).count();
                                cs_ratios.push(shared as f64 / sibling_union.len() as f64);
                            }
                        }
                    }
                }
                stack.extend(node.children.iter());
            }
            let mut pp_ratios = Vec::new();
            for pair in parents.windows(2) {
                if !pair[1].lines.is_empty() {
                    let shared = pair[0].lines.intersection(&pair[1].lines).count();
                    pp_ratios.push(shared as f64 / pair[1].lines.len() as f64);
                }
            }
            FootprintAnalysis {
                workload: workload.full_name(),
                parent_child: mean(&pc_ratios),
                child_sibling: mean(&cs_ratios),
                parent_parent: mean(&pp_ratios),
                launching_tbs: launching,
                child_tbs: child_count,
            }
        }

        fn expand(
            workload: &dyn Workload,
            kind: KernelKindId,
            param: u64,
            tb_index: u32,
            threads: u32,
            depth: u32,
        ) -> TbNode {
            let program = workload.tb_program(kind, param, tb_index);
            let lines: HashSet<LineAddr> = program
                .global_mem_ops()
                .flat_map(|m| m.pattern.tb_addrs(threads))
                .map(|a| a >> LINE_BITS)
                .collect();
            let mut children = Vec::new();
            if depth < MAX_DEPTH {
                for launch in program.launches() {
                    for child_tb in 0..launch.num_tbs {
                        children.push(expand(
                            workload,
                            launch.kind,
                            launch.param,
                            child_tb,
                            launch.req.threads,
                            depth + 1,
                        ));
                    }
                }
            }
            TbNode { lines, children }
        }
    }

    /// Analyzes `w`, asserts every field equals the reference analysis
    /// (ratios bit for bit) and every ratio lies in `[0, 1]`, and returns
    /// the analysis.
    fn check(w: &dyn Workload) -> FootprintAnalysis {
        let fast = FootprintAnalysis::analyze(w);
        let slow = reference::analyze(w);
        let name = &slow.workload;
        assert_eq!(fast.workload, slow.workload);
        for (what, f, s) in [
            ("parent-child", fast.parent_child, slow.parent_child),
            ("child-sibling", fast.child_sibling, slow.child_sibling),
            ("parent-parent", fast.parent_parent, slow.parent_parent),
        ] {
            assert_eq!(f.to_bits(), s.to_bits(), "{name} {what}: {f} vs reference {s}");
            assert!((0.0..=1.0).contains(&f), "{name} {what} ratio {f} out of range");
        }
        assert_eq!(fast.launching_tbs, slow.launching_tbs, "{name} launching TBs");
        assert_eq!(fast.child_tbs, slow.child_tbs, "{name} child TBs");
        fast
    }

    fn check_suite(scale: Scale, seed: u64) {
        for w in workloads::suite_seeded(scale, seed) {
            check(w.as_ref());
        }
    }

    /// A seed other than the canonical 0, fixed so failures reproduce.
    const OTHER_SEED: u64 = 7;

    #[test]
    fn matches_reference_on_tiny_suite() {
        check_suite(Scale::Tiny, 0);
        check_suite(Scale::Tiny, OTHER_SEED);
    }

    #[test]
    fn matches_reference_on_ci_suite_seed_0() {
        check_suite(Scale::Ci, 0);
    }

    #[test]
    fn matches_reference_on_ci_suite_other_seed() {
        check_suite(Scale::Ci, OTHER_SEED);
    }

    /// A hand-written workload: `host` lists its host kernels and
    /// `program` builds every TB program from `(kind, param, tb_index)`.
    struct Synthetic {
        host: Vec<HostKernel>,
        program: fn(u16, u64, u32) -> Vec<TbOp>,
    }

    impl ProgramSource for Synthetic {
        fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
            TbProgram::new((self.program)(kind.0, param, tb_index))
        }
    }

    impl Workload for Synthetic {
        fn name(&self) -> &str {
            "synthetic"
        }

        fn input(&self) -> String {
            String::new()
        }

        fn host_kernels(&self) -> Vec<HostKernel> {
            self.host.clone()
        }
    }

    const THREADS: u32 = 32;
    const LINE: u64 = 1 << LINE_BITS;

    fn host(kind: u16, num_tbs: u32) -> HostKernel {
        HostKernel {
            kind: KernelKindId(kind),
            param: 0,
            num_tbs,
            req: ResourceReq::new(THREADS, 16, 0),
        }
    }

    fn launch(kind: u16, param: u64, num_tbs: u32) -> TbOp {
        TbOp::Launch(LaunchSpec {
            kind: KernelKindId(kind),
            param,
            num_tbs,
            req: ResourceReq::new(THREADS, 16, 0),
        })
    }

    /// One global load of every line in `lines`, one thread per line.
    fn load_lines(lines: &[u64]) -> TbOp {
        TbOp::Mem(MemOp::load(AddrPattern::Gather(lines.iter().map(|l| l * LINE).collect())))
    }

    #[test]
    fn child_without_global_ops_shares_nothing() {
        // Child 0 only computes and touches shared memory; children 1
        // and 2 each hold one private line and line 5.
        let w = Synthetic {
            host: vec![host(0, 1)],
            program: |kind, _, tb| match (kind, tb) {
                (0, _) => vec![load_lines(&[5]), launch(1, 0, 3)],
                (_, 0) => vec![
                    TbOp::Compute(4),
                    TbOp::Mem(MemOp::shared(AddrPattern::Strided { base: 0, stride: 4 })),
                ],
                (_, tb) => vec![load_lines(&[5, 10 + u64::from(tb)])],
            },
        };
        let a = check(&w);
        assert_eq!((a.launching_tbs, a.child_tbs), (1, 3));
        // Union {5, 11, 12}, parent holds 5.
        assert_eq!(a.parent_child, 1.0 / 3.0);
        // Child 0 shares 0 of 3; children 1 and 2 share 1 of 2 each.
        assert_eq!(a.child_sibling, (0.0 + 0.5 + 0.5) / 3.0);
    }

    #[test]
    fn single_child_launch_gives_no_sibling_ratio() {
        let w = Synthetic {
            host: vec![host(0, 2)],
            program: |kind, _, _| match kind {
                0 => vec![load_lines(&[1, 2]), launch(1, 0, 1)],
                _ => vec![load_lines(&[2, 3])],
            },
        };
        let a = check(&w);
        assert_eq!((a.launching_tbs, a.child_tbs), (2, 2));
        assert_eq!(a.parent_child, 0.5);
        assert_eq!(a.child_sibling, 0.0);
        assert_eq!(a.parent_parent, 1.0);
    }

    #[test]
    fn line_every_sibling_touches() {
        // Four children: line 100 in all of them, plus one private line.
        let w = Synthetic {
            host: vec![host(0, 1)],
            program: |kind, _, tb| match kind {
                0 => vec![launch(1, 0, 4)],
                _ => vec![load_lines(&[100]), load_lines(&[200 + u64::from(tb)])],
            },
        };
        let a = check(&w);
        assert_eq!(a.parent_child, 0.0);
        // Each child shares line 100 with a sibling union of 1 + 3 lines.
        assert_eq!(a.child_sibling, 0.25);
    }

    #[test]
    fn duplicate_addresses_count_once() {
        // Repeated addresses, and distinct addresses on one line, inside
        // one TB: the child holds lines {3, 4}, its sibling {4}.
        let w = Synthetic {
            host: vec![host(0, 1)],
            program: |kind, _, tb| match (kind, tb) {
                (0, _) => vec![load_lines(&[4, 4]), launch(1, 0, 2)],
                (_, 0) => vec![
                    load_lines(&[3, 3, 4, 3]),
                    TbOp::Mem(MemOp::load(AddrPattern::Gather(
                        vec![3 * LINE + 8, 3 * LINE + 16].into(),
                    ))),
                ],
                (_, _) => vec![load_lines(&[4, 4, 4])],
            },
        };
        let a = check(&w);
        assert_eq!(a.parent_child, 0.5);
        // Child 0 shares line 4 with {4}; child 1 shares 4 with {3, 4}.
        assert_eq!(a.child_sibling, (1.0 + 0.5) / 2.0);
    }

    #[test]
    fn gather_shorter_than_threads_and_broadcast() {
        // A 2-entry gather on a 32-thread TB touches just its 2 lines;
        // a broadcast touches one line however many threads read it.
        let w = Synthetic {
            host: vec![host(0, 1)],
            program: |kind, _, tb| match (kind, tb) {
                (0, _) => {
                    vec![TbOp::Mem(MemOp::load(AddrPattern::Broadcast(7 * LINE))), launch(1, 0, 2)]
                }
                (_, 0) => vec![load_lines(&[7, 8])],
                (_, _) => vec![TbOp::Mem(MemOp::load(AddrPattern::Broadcast(7 * LINE + 1)))],
            },
        };
        let a = check(&w);
        assert_eq!(a.parent_child, 0.5);
        assert_eq!(a.child_sibling, (1.0 + 0.5) / 2.0);
    }

    #[test]
    fn shared_space_is_excluded_and_stores_count() {
        // The children's only common addresses are in shared memory;
        // each stores one global line the parent loads.
        let w = Synthetic {
            host: vec![host(0, 1)],
            program: |kind, _, tb| match kind {
                0 => vec![load_lines(&[0, 1]), launch(1, 0, 2)],
                _ => vec![
                    TbOp::Mem(MemOp::shared(AddrPattern::Strided { base: 0, stride: 4 })),
                    TbOp::Mem(MemOp::store(AddrPattern::Broadcast(u64::from(tb) * LINE))),
                ],
            },
        };
        let a = check(&w);
        assert_eq!(a.parent_child, 1.0);
        assert_eq!(a.child_sibling, 0.0);
    }

    #[test]
    fn launches_nested_past_max_depth_are_cut() {
        // Every TB launches one child forever; expansion stops at
        // `MAX_DEPTH`, so the chain has `MAX_DEPTH` launchers.
        let w = Synthetic {
            host: vec![host(0, 1)],
            program: |_, depth, _| vec![load_lines(&[depth, depth + 1]), launch(0, depth + 1, 1)],
        };
        let a = check(&w);
        assert_eq!(a.launching_tbs, MAX_DEPTH as usize);
        assert_eq!(a.child_tbs, MAX_DEPTH as usize);
        assert_eq!(a.parent_child, 0.5);
    }

    #[test]
    fn adjacent_parents_cross_kernel_boundaries() {
        // Kernel 0's last TB and kernel 1's first TB are adjacent parents.
        let w = Synthetic {
            host: vec![host(0, 2), host(1, 2)],
            program: |kind, _, tb| {
                let base = u64::from(kind) * 10 + u64::from(tb);
                match (kind, tb) {
                    (1, 1) => vec![TbOp::Compute(1)],
                    _ => vec![load_lines(&[base, base + 1, 11])],
                }
            },
        };
        let a = check(&w);
        assert_eq!((a.launching_tbs, a.child_tbs), (0, 0));
        // Pairs: {0,1,11}/{1,2,11} 2/3, {1,2,11}/{10,11} 1/2, then an
        // empty last parent, which is skipped.
        assert_eq!(a.parent_parent, (2.0 / 3.0 + 0.5) / 2.0);
    }

    #[test]
    fn sparse_lines_get_dense_ids() {
        // Lines 2^40 bytes apart, and one at the top of the address
        // space: the id table holds exactly the distinct lines, however
        // wide their span.
        const FAR: u64 = 1 << 40;
        let w = Synthetic {
            host: vec![host(0, 2)],
            program: |kind, _, tb| {
                let tb = u64::from(tb);
                let gather =
                    |addrs: Vec<u64>| TbOp::Mem(MemOp::load(AddrPattern::Gather(addrs.into())));
                match kind {
                    0 => vec![gather(vec![tb * FAR, (tb + 1) * FAR, u64::MAX]), launch(1, tb, 3)],
                    _ => vec![
                        gather(vec![(tb + 1) * FAR + 8, 7 * FAR, (tb + 1) * FAR]),
                        TbOp::Mem(MemOp::store(AddrPattern::Broadcast(u64::MAX - 1))),
                    ],
                }
            },
        };
        let a = check(&w);
        assert_eq!((a.launching_tbs, a.child_tbs), (2, 6));
        // Every line: 0, FAR, 2FAR, 3FAR, 7FAR and the top line.
        let mut walk = Walk::default();
        walk.analyze(&w);
        assert_eq!(walk.id_of.len(), 6);
        assert_eq!(walk.mark.len(), 6);
        assert!(walk.id_of.contains_key(&(u64::MAX >> LINE_BITS)));
    }

    #[test]
    fn siblings_share_across_launch_groups() {
        // One parent, two launches: the second group's children share
        // lines 20 and 21 with the first group's. Every TB of both
        // launches is one sibling group.
        let w = Synthetic {
            host: vec![host(0, 1)],
            program: |kind, _, tb| {
                let tb = u64::from(tb);
                match kind {
                    0 => vec![load_lines(&[10, 30]), launch(1, 0, 2), launch(2, 0, 2)],
                    1 => vec![load_lines(&[10, 20 + tb])],
                    _ if tb == 0 => vec![load_lines(&[20, 30])],
                    _ => vec![load_lines(&[21, 30, 40])],
                }
            },
        };
        let a = check(&w);
        assert_eq!((a.launching_tbs, a.child_tbs), (1, 4));
        // Union {10, 20, 21, 30, 40}; the parent holds 10 and 30.
        assert_eq!(a.parent_child, 2.0 / 5.0);
        // Each child shares 2 lines; only the last holds a line (40)
        // no sibling does.
        assert_eq!(a.child_sibling, (0.4 + 0.4 + 0.4 + 0.5) / 4.0);
    }

    /// A random TB program. `kind` is the TB's depth and `(param, tb)`
    /// seeds it: zero to four ops drawn from repeat-heavy gathers,
    /// broadcasts, strided accesses, shared-memory ops and compute over
    /// a small line pool, so TBs share lines; then launches. Host TBs
    /// launch up to 40 children, a few depth-1 TBs as many, and deeper
    /// TBs usually one, so chains run past `MAX_DEPTH`.
    fn random_program(depth: u16, param: u64, tb: u32) -> Vec<TbOp> {
        let mut rng = SplitMix64::stream(param, u64::from(tb));
        let mut ops = Vec::new();
        for _ in 0..rng.below(5) {
            let addr = rng.below(48) * LINE + rng.below(LINE);
            let pattern = match rng.below(5) {
                0 => {
                    let n = 1 + rng.below(40);
                    let pool = 1 + rng.below(8);
                    AddrPattern::Gather((0..n).map(|_| addr + rng.below(pool) * LINE).collect())
                }
                1 => AddrPattern::Broadcast(addr),
                2 => AddrPattern::Strided {
                    base: addr,
                    stride: [0, 4, 8, 128, 512][rng.below(5) as usize],
                },
                3 => {
                    ops.push(TbOp::Mem(MemOp::shared(AddrPattern::Strided {
                        base: addr,
                        stride: 4,
                    })));
                    continue;
                }
                _ => {
                    ops.push(TbOp::Compute(1));
                    continue;
                }
            };
            let store = rng.below(4) == 0;
            ops.push(TbOp::Mem(if store { MemOp::store(pattern) } else { MemOp::load(pattern) }));
        }
        let launches = match depth {
            0 => vec![rng.below(21), rng.below(21)],
            1 if rng.below(8) == 0 => vec![rng.below(41)],
            _ => vec![u64::from(rng.below(8) != 0)],
        };
        for (i, n) in launches.into_iter().enumerate() {
            ops.push(TbOp::Launch(LaunchSpec {
                kind: KernelKindId(depth + 1),
                param: param ^ (u64::from(tb) << 8 | i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                num_tbs: n as u32,
                req: ResourceReq::new(1 + rng.below(64) as u32, 16, 0),
            }));
        }
        ops
    }

    #[test]
    fn matches_reference_on_random_trees() {
        for seed in 0..200u64 {
            let mut rng = SplitMix64::stream(seed, 0);
            let host = (0..1 + rng.below(3))
                .map(|_| HostKernel {
                    kind: KernelKindId(0),
                    param: rng.next_u64(),
                    num_tbs: 1 + rng.below(3) as u32,
                    req: ResourceReq::new(1 + rng.below(64) as u32, 16, 0),
                })
                .collect();
            check(&Synthetic { host, program: random_program });
        }
    }

    #[test]
    fn matches_reference_on_compiled_tiny_suite() {
        let suite = wdsl::compiled_suite_seeded(Scale::Tiny, 0, wdsl::ExecMode::Vm)
            .expect("the suite compiles");
        for w in suite {
            check(w.as_ref());
        }
    }

    #[test]
    fn ratios_are_in_unit_interval() {
        let a = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        for r in [a.parent_child, a.child_sibling, a.parent_parent] {
            assert!((0.0..=1.0).contains(&r), "ratio {r} out of range");
        }
        assert!(a.launching_tbs > 0);
        assert!(a.child_tbs > 0);
    }

    #[test]
    fn parent_child_exceeds_parent_parent() {
        let a = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        assert!(
            a.parent_child > a.parent_parent,
            "parent-child {} should exceed parent-parent {}",
            a.parent_child,
            a.parent_parent
        );
    }

    #[test]
    fn clustered_graph_has_more_sibling_sharing_than_random() {
        let cite = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        let rmat = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Graph500, Scale::Tiny));
        assert!(
            cite.child_sibling > rmat.child_sibling,
            "citation sibling {} should exceed graph500 sibling {}",
            cite.child_sibling,
            rmat.child_sibling
        );
    }

    #[test]
    fn amr_and_join_have_low_sibling_sharing() {
        let amr = FootprintAnalysis::analyze(&Amr::new(Scale::Tiny));
        let join = FootprintAnalysis::analyze(&Join::new(JoinInput::Uniform, Scale::Tiny));
        let bfs = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        assert!(amr.child_sibling < 0.1, "amr sibling {}", amr.child_sibling);
        assert!(join.child_sibling < bfs.child_sibling);
    }

    #[test]
    fn amr_counts_nested_launchers() {
        let a = FootprintAnalysis::analyze(&Amr::new(Scale::Tiny));
        // First-level children that deep-refine are launching TBs too.
        let amr = Amr::new(Scale::Tiny);
        assert!(a.launching_tbs > amr.host_kernels()[0].num_tbs as usize / 4);
    }

    #[test]
    fn regx_siblings_share_the_transition_table() {
        use workloads::apps::regx::{Regx, RegxInput};
        let regx = FootprintAnalysis::analyze(&Regx::new(RegxInput::Strings, Scale::Tiny));
        let bfs = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        assert!(
            regx.child_sibling > bfs.child_sibling,
            "regx sibling {} should top bfs {} (shared NFA table)",
            regx.child_sibling,
            bfs.child_sibling
        );
    }

    #[test]
    fn suite_summary_matches_paper_structure() {
        let all = workloads::suite(Scale::Tiny);
        let rows = all.iter().map(|w| FootprintAnalysis::analyze(w.as_ref())).collect();
        let summary = FootprintSummary { rows };
        assert_eq!(summary.rows.len(), all.len());
        // The headline structure: parent-child sharing is substantial and
        // exceeds parent-parent sharing on average.
        assert!(summary.mean_parent_child() > 0.2);
        assert!(summary.mean_parent_child() > summary.mean_parent_parent());
        assert!(summary.mean_child_sibling() > 0.0);
    }

    #[test]
    fn analysis_is_deterministic() {
        let w = Bfs::new(GraphKind::Cage15, Scale::Tiny);
        assert_eq!(FootprintAnalysis::analyze(&w), FootprintAnalysis::analyze(&w));
    }
}
