//! The eight irregular dynamic-parallelism benchmarks of the LaPerm paper
//! (Table II), re-expressed as TB-program generators over synthetic
//! inputs with the same structural properties as the paper's data sets.
//!
//! | Application | Inputs |
//! |---|---|
//! | Adaptive Mesh Refinement (AMR) | combustion-simulation-like mesh |
//! | Barnes-Hut Tree (BHT) | random data points |
//! | Breadth-First Search (BFS) | citation, graph500, cage15 |
//! | Graph Coloring (CLR) | citation, graph500, cage15 |
//! | Regular Expression Match (REGX) | DARPA-packet-like, random strings |
//! | Product Recommendation (PRE) | MovieLens-like ratings |
//! | Relational Join (JOIN) | uniform, Gaussian key distributions |
//! | Single-Source Shortest Path (SSSP) | citation, graph500, cage15 |
//!
//! Every benchmark implements [`Workload`]: it owns its input data,
//! produces per-TB instruction streams through its
//! [`ProgramSource`], and reports the
//! host kernels that start it. Device-side launches are embedded in the
//! generated programs, so the same workload runs under CDP or DTBL and
//! under any TB scheduler.
//!
//! # Example
//!
//! ```
//! use workloads::{suite, Scale};
//!
//! let all = suite(Scale::Tiny);
//! assert_eq!(all.len(), 16);
//! assert!(all.iter().any(|w| w.full_name() == "bfs-citation"));
//! ```

pub mod apps;
pub mod dsl_emit;
pub mod graph;
pub mod layout;
pub mod rng;
pub mod scale;
pub mod validate;

use std::sync::Arc;

use gpu_sim::kernel::ResourceReq;
use gpu_sim::program::{KernelKindId, ProgramSource, TbProgram};

pub use scale::Scale;
pub use validate::{validate_workload, ValidationError};

/// A kernel launched from the host to start a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostKernel {
    /// Kernel kind (workload-local id).
    pub kind: KernelKindId,
    /// Opaque parameter.
    pub param: u64,
    /// Grid size in TBs.
    pub num_tbs: u32,
    /// Per-TB resources.
    pub req: ResourceReq,
}

/// A benchmark application: input data plus program generation.
///
/// # Implementing your own workload
///
/// A workload owns its input data, names the host kernels that start it,
/// and generates each TB's program on demand. Device-side launches are
/// just [`TbOp::Launch`](gpu_sim::program::TbOp) ops inside parent
/// programs:
///
/// ```
/// use gpu_sim::kernel::ResourceReq;
/// use gpu_sim::program::{
///     AddrPattern, KernelKindId, LaunchSpec, MemOp, ProgramSource, TbOp, TbProgram,
/// };
/// use workloads::{HostKernel, Workload};
///
/// /// Each parent TB scans a private block and spawns one child that
/// /// re-reads it.
/// struct Scan { blocks: u32 }
///
/// impl ProgramSource for Scan {
///     fn tb_program(&self, kind: KernelKindId, param: u64, tb: u32) -> TbProgram {
///         let block = if kind.0 == 0 { u64::from(tb) } else { param } * 4096;
///         let load = TbOp::Mem(MemOp::load(AddrPattern::Strided { base: block, stride: 4 }));
///         if kind.0 == 0 {
///             TbProgram::new(vec![
///                 load.clone(),
///                 TbOp::Launch(LaunchSpec {
///                     kind: KernelKindId(1),
///                     param: u64::from(tb),
///                     num_tbs: 1,
///                     req: ResourceReq::new(64, 16, 0),
///                 }),
///                 TbOp::Compute(32),
///             ])
///         } else {
///             TbProgram::new(vec![load, TbOp::Compute(16)])
///         }
///     }
/// }
///
/// impl Workload for Scan {
///     fn name(&self) -> &str { "scan" }
///     fn input(&self) -> String { String::new() }
///     fn host_kernels(&self) -> Vec<HostKernel> {
///         vec![HostKernel {
///             kind: KernelKindId(0),
///             param: 0,
///             num_tbs: self.blocks,
///             req: ResourceReq::new(128, 16, 0),
///         }]
///     }
/// }
///
/// // It now runs under any scheduler and launch model:
/// use gpu_sim::{config::GpuConfig, engine::Simulator};
/// let w = Scan { blocks: 16 };
/// let hk = w.host_kernels()[0];
/// let mut sim = Simulator::new(GpuConfig::small_test(), Box::new(w));
/// sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).unwrap();
/// let stats = sim.run_to_completion().unwrap();
/// assert_eq!(stats.tb_records.len(), 32); // 16 parents + 16 children
/// ```
pub trait Workload: ProgramSource {
    /// Application name ("bfs", "amr", …).
    fn name(&self) -> &str;

    /// Input data-set name ("citation", "uniform", …); empty when the
    /// application has a single canonical input.
    fn input(&self) -> String;

    /// Kernels the host launches to run the benchmark, in order.
    fn host_kernels(&self) -> Vec<HostKernel>;

    /// `name` and `input` joined for reports ("bfs-citation").
    fn full_name(&self) -> String {
        let input = self.input();
        if input.is_empty() {
            self.name().to_string()
        } else {
            format!("{}-{}", self.name(), input)
        }
    }

    /// The workload's programs expressed as workload-DSL source text,
    /// when the application provides a port (every suite workload does).
    /// The compiled program stream must be byte-identical to this
    /// generator's — the `wdsl` crate's suite-equivalence tests and the
    /// CI corpus gate enforce that. `None` means generator-only.
    fn dsl_text(&self) -> Option<String> {
        None
    }

    /// Identifies the code that serves this workload's programs, so two
    /// program paths never share cached results: `"generator"` for the
    /// Rust generators; a compiled DSL port names a digest of its
    /// source.
    fn program_id(&self) -> &str {
        "generator"
    }
}

/// Adapter that lets an `Arc<dyn Workload>` serve as the engine's program
/// source while the harness keeps its own handle.
#[derive(Clone)]
pub struct SharedSource(pub Arc<dyn Workload>);

impl std::fmt::Debug for SharedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedSource({})", self.0.full_name())
    }
}

impl ProgramSource for SharedSource {
    fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
        self.0.tb_program(kind, param, tb_index)
    }

    fn kind_name(&self, kind: KernelKindId) -> String {
        self.0.kind_name(kind)
    }
}

/// The full Table II suite at the given scale: 16 application/input
/// pairs, in the paper's order.
pub fn suite(scale: Scale) -> Vec<Arc<dyn Workload>> {
    suite_seeded(scale, 0)
}

/// [`suite`] with an explicit input seed, for multi-sample experiments
/// (seed 0 is the canonical instance used throughout the repository).
/// Each graph input is generated once and shared by BFS, CLR and SSSP.
pub fn suite_seeded(scale: Scale, seed: u64) -> Vec<Arc<dyn Workload>> {
    let (mut bfs, mut clr, mut sssp) = (Vec::new(), Vec::new(), Vec::new());
    for kind in graph::GraphKind::all() {
        let (b, c, s) = graph_apps(kind, scale, seed);
        bfs.push(Arc::new(b) as Arc<dyn Workload>);
        clr.push(Arc::new(c) as Arc<dyn Workload>);
        sssp.push(Arc::new(s) as Arc<dyn Workload>);
    }
    let mut out: Vec<Arc<dyn Workload>> = Vec::new();
    out.push(Arc::new(apps::amr::Amr::new_seeded(scale, seed)));
    out.push(Arc::new(apps::bht::Bht::new_seeded(scale, seed)));
    out.extend(bfs);
    out.extend(clr);
    for input in apps::regx::RegxInput::all() {
        out.push(Arc::new(apps::regx::Regx::new_seeded(input, scale, seed)));
    }
    out.push(Arc::new(apps::pre::Pre::new_seeded(scale, seed)));
    for input in apps::join::JoinInput::all() {
        out.push(Arc::new(apps::join::Join::new_seeded(input, scale, seed)));
    }
    out.extend(sssp);
    out
}

/// BFS, CLR and SSSP over the input `kind`, sharing one generated graph;
/// each equals its own `new_seeded(kind, scale, seed)`.
fn graph_apps(
    kind: graph::GraphKind,
    scale: Scale,
    seed: u64,
) -> (apps::bfs::Bfs, apps::clr::Clr, apps::sssp::Sssp) {
    let graph = Arc::new(apps::graph_common::GraphApp::input_graph(kind, scale, seed));
    (
        apps::bfs::Bfs::with_graph(kind, scale, graph.clone()),
        apps::clr::Clr::with_graph(kind, scale, graph.clone()),
        apps::sssp::Sssp::with_graph(kind, scale, graph),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_sixteen_workloads() {
        let s = suite(Scale::Tiny);
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn full_names_are_unique() {
        let s = suite(Scale::Tiny);
        let mut names: Vec<String> = s.iter().map(|w| w.full_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16, "duplicate workload names");
    }

    #[test]
    fn every_workload_has_host_kernels() {
        for w in suite(Scale::Tiny) {
            assert!(!w.host_kernels().is_empty(), "{} has no host kernels", w.full_name());
            for hk in w.host_kernels() {
                assert!(hk.num_tbs > 0);
                assert!(hk.req.threads > 0);
            }
        }
    }

    #[test]
    fn every_workload_generates_nonempty_parent_programs() {
        for w in suite(Scale::Tiny) {
            let hk = w.host_kernels()[0];
            let prog = w.tb_program(hk.kind, hk.param, 0);
            assert!(!prog.is_empty(), "{} parent TB 0 has empty program", w.full_name());
        }
    }

    #[test]
    fn every_workload_launches_children_somewhere() {
        for w in suite(Scale::Tiny) {
            let hk = w.host_kernels()[0];
            let launches: usize = (0..hk.num_tbs)
                .map(|tb| w.tb_program(hk.kind, hk.param, tb).launches().count())
                .sum();
            assert!(launches > 0, "{} launches no children", w.full_name());
        }
    }

    #[test]
    fn seeded_suites_differ_from_canonical() {
        let a = suite_seeded(Scale::Tiny, 0);
        let b = suite_seeded(Scale::Tiny, 12345);
        // Same structure...
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.full_name(), y.full_name());
        }
        // ...but different generated inputs for at least the graph apps.
        let hk = a[2].host_kernels()[0];
        let differs = (0..hk.num_tbs).any(|tb| {
            a[2].tb_program(hk.kind, hk.param, tb) != b[2].tb_program(hk.kind, hk.param, tb)
        });
        assert!(differs, "seeds must change the generated inputs");
    }

    #[test]
    fn graph_apps_of_one_input_share_its_graph() {
        use crate::apps::{bfs::Bfs, clr::Clr, sssp::Sssp};
        for kind in graph::GraphKind::all() {
            let (bfs, clr, sssp) = graph_apps(kind, Scale::Tiny, 3);
            let graph = bfs.app().graph();
            assert!(std::ptr::eq(graph, clr.app().graph()), "{kind:?}: clr has its own graph");
            assert!(std::ptr::eq(graph, sssp.app().graph()), "{kind:?}: sssp has its own graph");
            let alone = Bfs::new_seeded(kind, Scale::Tiny, 3);
            assert_eq!(graph, alone.app().graph(), "{kind:?}: shared graph differs");
            // The DSL port spells out the whole workload, graph included.
            assert_eq!(bfs.dsl_text(), alone.dsl_text());
            assert_eq!(clr.dsl_text(), Clr::new_seeded(kind, Scale::Tiny, 3).dsl_text());
            assert_eq!(sssp.dsl_text(), Sssp::new_seeded(kind, Scale::Tiny, 3).dsl_text());
        }
    }

    #[test]
    fn shared_source_delegates() {
        let w = suite(Scale::Tiny).remove(0);
        let hk = w.host_kernels()[0];
        let src = SharedSource(w.clone());
        assert_eq!(src.tb_program(hk.kind, hk.param, 0), w.tb_program(hk.kind, hk.param, 0));
    }
}
