//! Single-Source Shortest Path (SSSP) with dynamic parallelism.
//!
//! Same sweep/expand structure as BFS but each edge visit also loads the
//! edge weight and performs a heavier relaxation, roughly doubling the
//! per-child memory footprint.

use std::sync::Arc;

use gpu_sim::program::{KernelKindId, ProgramSource, TbProgram};

use crate::apps::graph_common::{GraphApp, GraphFlavor};
use crate::graph::{Csr, GraphKind};
use crate::{HostKernel, Scale, Workload};

/// SSSP on one of the three Table II graph inputs.
#[derive(Debug)]
pub struct Sssp {
    app: GraphApp,
}

impl Sssp {
    /// Builds SSSP over the given input at the given scale.
    pub fn new(kind: GraphKind, scale: Scale) -> Self {
        Sssp { app: GraphApp::new(GraphFlavor::Sssp, kind, scale) }
    }

    /// Builds with an explicit input seed (for multi-sample experiments).
    pub fn new_seeded(kind: GraphKind, scale: Scale, seed: u64) -> Self {
        Sssp { app: GraphApp::new_seeded(GraphFlavor::Sssp, kind, scale, seed) }
    }

    /// Builds over a shared input graph (see [`GraphApp::with_graph`]).
    pub(crate) fn with_graph(kind: GraphKind, scale: Scale, graph: Arc<Csr>) -> Self {
        Sssp { app: GraphApp::with_graph(GraphFlavor::Sssp, kind, scale, graph) }
    }

    /// The underlying graph skeleton (for analysis).
    pub fn app(&self) -> &GraphApp {
        &self.app
    }
}

impl ProgramSource for Sssp {
    fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
        self.app.tb_program(kind, param, tb_index)
    }

    fn kind_name(&self, kind: KernelKindId) -> String {
        self.app.kind_name(kind)
    }
}

impl Workload for Sssp {
    fn name(&self) -> &str {
        "sssp"
    }

    fn input(&self) -> String {
        self.app.graph_kind().name().to_string()
    }

    fn host_kernels(&self) -> Vec<HostKernel> {
        self.app.host_kernels()
    }

    fn dsl_text(&self) -> Option<String> {
        Some(self.app.dsl_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_include_input() {
        let s = Sssp::new(GraphKind::Cage15, Scale::Tiny);
        assert_eq!(s.full_name(), "sssp-cage15");
    }

    #[test]
    fn sssp_footprint_exceeds_bfs_footprint() {
        use crate::apps::bfs::Bfs;
        use crate::apps::common::PARENT;
        use gpu_sim::program::ProgramSource;
        // SSSP allocates a weights region alongside the CSR arrays, so
        // its TB tree touches strictly more address space.
        let sssp = Sssp::new(GraphKind::Citation, Scale::Tiny);
        let bfs = Bfs::new(GraphKind::Citation, Scale::Tiny);
        let max_addr = |w: &dyn ProgramSource, tbs: u32| -> u64 {
            (0..tbs)
                .flat_map(|tb| {
                    w.tb_program(PARENT, 0, tb)
                        .global_mem_ops()
                        .flat_map(|m| m.pattern.tb_addrs(32))
                        .collect::<Vec<_>>()
                })
                .max()
                .unwrap_or(0)
        };
        let n = sssp.host_kernels()[0].num_tbs;
        assert!(max_addr(&sssp, n) > max_addr(&bfs, n));
    }

    #[test]
    fn kind_names_are_flavored() {
        let s = Sssp::new(GraphKind::Citation, Scale::Tiny);
        assert_eq!(s.kind_name(crate::apps::common::PARENT), "sssp-sweep");
        assert_eq!(s.kind_name(crate::apps::common::CHILD), "sssp-expand");
    }
}
