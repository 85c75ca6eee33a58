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

use gpu_sim::program::KernelKindId;
use gpu_sim::types::LineAddr;
use workloads::Workload;

const LINE_BITS: u32 = 7; // 128-byte lines, as in the paper's analysis

/// Safety cap on recursive launch depth.
const MAX_DEPTH: u32 = 8;

#[derive(Debug)]
struct TbNode {
    /// Every global-memory line the TB touches, sorted and deduplicated.
    lines: Box<[LineAddr]>,
    /// Children grouped per launch (each launch spawns `num_tbs` TBs).
    children: Vec<TbNode>,
}

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
        let mut parents: Vec<TbNode> = Vec::new();
        let mut lines = Vec::new();
        for hk in workload.host_kernels() {
            for tb in 0..hk.num_tbs {
                parents.push(expand(
                    workload,
                    hk.kind,
                    hk.param,
                    tb,
                    hk.req.threads,
                    0,
                    &mut lines,
                ));
            }
        }

        // Parent-child and child-sibling ratios over every launching TB
        // in the tree (host parents and nested launchers alike). The
        // traversal order fixes the order `mean` sums in, and with it
        // the last bits of every ratio: keep it.
        let mut pc_ratios = Vec::new();
        let mut cs_ratios = Vec::new();
        let mut launching = 0usize;
        let mut child_count = 0usize;
        let mut counts = ChildCounts::default();
        let mut stack: Vec<&TbNode> = parents.iter().collect();
        while let Some(node) = stack.pop() {
            if !node.children.is_empty() {
                launching += 1;
                child_count += node.children.len();
                counts.count(node);
                if counts.uniq > 0 {
                    pc_ratios.push(counts.in_parent as f64 / counts.uniq as f64);
                }
                if node.children.len() >= 2 {
                    for (child, &own) in node.children.iter().zip(&counts.own) {
                        // `child ∩ siblings` is the child minus the lines
                        // only it holds; the siblings' union is every
                        // child's line minus those same lines.
                        let siblings = counts.uniq - own;
                        if siblings > 0 {
                            let shared = child.lines.len() - own;
                            cs_ratios.push(shared as f64 / siblings as f64);
                        }
                    }
                }
            }
            stack.extend(node.children.iter());
        }

        // Adjacent parent-parent sharing.
        let mut pp_ratios = Vec::new();
        for pair in parents.windows(2) {
            if !pair[1].lines.is_empty() {
                let shared = intersection_len(&pair[0].lines, &pair[1].lines);
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
}

/// Line counts over one launching TB's children, computed from a single
/// sort of every child's lines tagged with the child's index. Buffers
/// are reused from one launching TB to the next.
#[derive(Debug, Default)]
struct ChildCounts {
    /// `(line, child index)` for every line of every child.
    tagged: Vec<(LineAddr, usize)>,
    /// Distinct lines over all children: the size of their union.
    uniq: usize,
    /// How many of those distinct lines the parent also touches.
    in_parent: usize,
    /// Per child, how many of its lines no sibling touches.
    own: Vec<usize>,
}

impl ChildCounts {
    fn count(&mut self, parent: &TbNode) {
        self.tagged.clear();
        for (i, child) in parent.children.iter().enumerate() {
            self.tagged.extend(child.lines.iter().map(|&line| (line, i)));
        }
        self.tagged.sort_unstable_by_key(|&(line, _)| line);
        self.own.clear();
        self.own.resize(parent.children.len(), 0);
        self.uniq = 0;
        self.in_parent = 0;
        // Each child's lines are distinct, so a run of one tag is a line
        // exactly one child holds.
        for run in self.tagged.chunk_by(|a, b| a.0 == b.0) {
            self.uniq += 1;
            if let [(_, only)] = run {
                self.own[*only] += 1;
            }
            if parent.lines.binary_search(&run[0].0).is_ok() {
                self.in_parent += 1;
            }
        }
    }
}

/// `|a ∩ b|` for two sorted, deduplicated line sets.
fn intersection_len(a: &[LineAddr], b: &[LineAddr]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The node of TB `tb_index` of a `(kind, param)` batch and, below
/// `MAX_DEPTH`, its launched subtree. `lines` is scratch space reused
/// across every TB of the tree.
fn expand(
    workload: &dyn Workload,
    kind: KernelKindId,
    param: u64,
    tb_index: u32,
    threads: u32,
    depth: u32,
    lines: &mut Vec<LineAddr>,
) -> TbNode {
    let program = workload.tb_program(kind, param, tb_index);
    lines.clear();
    for m in program.global_mem_ops() {
        m.pattern.lines_into(0, threads, LINE_BITS, lines);
    }
    lines.sort_unstable();
    lines.dedup();
    let own: Box<[LineAddr]> = lines.as_slice().into();
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
                    lines,
                ));
            }
        }
    }
    TbNode { lines: own, children }
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
    /// Analyzes every workload in a suite.
    pub fn analyze_suite(suite: &[std::sync::Arc<dyn Workload>]) -> Self {
        FootprintSummary {
            rows: suite.iter().map(|w| FootprintAnalysis::analyze(w.as_ref())).collect(),
        }
    }

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
    use gpu_sim::program::{AddrPattern, LaunchSpec, MemOp, ProgramSource, TbOp, TbProgram};
    use workloads::apps::amr::Amr;
    use workloads::apps::bfs::Bfs;
    use workloads::apps::join::{Join, JoinInput};
    use workloads::graph::GraphKind;
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
        let summary = FootprintSummary::analyze_suite(&all);
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
