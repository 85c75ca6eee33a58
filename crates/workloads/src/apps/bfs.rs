//! Breadth-First Search (BFS) with dynamic parallelism.
//!
//! The parent kernel sweeps the frontier; heavy vertices launch child TB
//! groups that expand the neighbor list cooperatively (the CSR structure
//! gives sibling TBs spatially close neighbor lists on clustered inputs —
//! the effect Figure 2 of the paper measures across the three graphs).

use std::sync::Arc;

use gpu_sim::program::{KernelKindId, ProgramSource, TbProgram};

use crate::apps::graph_common::{GraphApp, GraphFlavor};
use crate::graph::{Csr, GraphKind};
use crate::{HostKernel, Scale, Workload};

/// BFS on one of the three Table II graph inputs.
#[derive(Debug)]
pub struct Bfs {
    app: GraphApp,
}

impl Bfs {
    /// Builds BFS over the given input at the given scale.
    pub fn new(kind: GraphKind, scale: Scale) -> Self {
        Bfs { app: GraphApp::new(GraphFlavor::Bfs, kind, scale) }
    }

    /// Builds with an explicit input seed (for multi-sample experiments).
    pub fn new_seeded(kind: GraphKind, scale: Scale, seed: u64) -> Self {
        Bfs { app: GraphApp::new_seeded(GraphFlavor::Bfs, kind, scale, seed) }
    }

    /// Builds over a shared input graph (see [`GraphApp::with_graph`]).
    pub(crate) fn with_graph(kind: GraphKind, scale: Scale, graph: Arc<Csr>) -> Self {
        Bfs { app: GraphApp::with_graph(GraphFlavor::Bfs, kind, scale, graph) }
    }

    /// The underlying graph skeleton (for analysis).
    pub fn app(&self) -> &GraphApp {
        &self.app
    }
}

impl ProgramSource for Bfs {
    fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
        self.app.tb_program(kind, param, tb_index)
    }

    fn kind_name(&self, kind: KernelKindId) -> String {
        self.app.kind_name(kind)
    }
}

impl Workload for Bfs {
    fn name(&self) -> &str {
        "bfs"
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
        let b = Bfs::new(GraphKind::Graph500, Scale::Tiny);
        assert_eq!(b.full_name(), "bfs-graph500");
        assert_eq!(b.name(), "bfs");
    }

    #[test]
    fn kind_names_are_descriptive() {
        let b = Bfs::new(GraphKind::Citation, Scale::Tiny);
        assert_eq!(b.kind_name(crate::apps::common::PARENT), "bfs-sweep");
        assert_eq!(b.kind_name(crate::apps::common::CHILD), "bfs-expand");
    }
}
