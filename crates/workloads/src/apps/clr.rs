//! Greedy graph coloring (CLR) with dynamic parallelism.
//!
//! Heavy vertices launch child TB groups that read all neighbor colors
//! cooperatively and then commit the vertex's own color.

use std::sync::Arc;

use gpu_sim::program::{KernelKindId, ProgramSource, TbProgram};

use crate::apps::graph_common::{GraphApp, GraphFlavor};
use crate::graph::{Csr, GraphKind};
use crate::{HostKernel, Scale, Workload};

/// Graph coloring on one of the three Table II graph inputs.
#[derive(Debug)]
pub struct Clr {
    app: GraphApp,
}

impl Clr {
    /// Builds coloring over the given input at the given scale.
    pub fn new(kind: GraphKind, scale: Scale) -> Self {
        Clr { app: GraphApp::new(GraphFlavor::Clr, kind, scale) }
    }

    /// Builds with an explicit input seed (for multi-sample experiments).
    pub fn new_seeded(kind: GraphKind, scale: Scale, seed: u64) -> Self {
        Clr { app: GraphApp::new_seeded(GraphFlavor::Clr, kind, scale, seed) }
    }

    /// Builds over a shared input graph (see [`GraphApp::with_graph`]).
    pub(crate) fn with_graph(kind: GraphKind, scale: Scale, graph: Arc<Csr>) -> Self {
        Clr { app: GraphApp::with_graph(GraphFlavor::Clr, kind, scale, graph) }
    }

    /// The underlying graph skeleton (for analysis).
    pub fn app(&self) -> &GraphApp {
        &self.app
    }
}

impl ProgramSource for Clr {
    fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
        self.app.tb_program(kind, param, tb_index)
    }

    fn kind_name(&self, kind: KernelKindId) -> String {
        self.app.kind_name(kind)
    }
}

impl Workload for Clr {
    fn name(&self) -> &str {
        "clr"
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
        let c = Clr::new(GraphKind::Citation, Scale::Tiny);
        assert_eq!(c.full_name(), "clr-citation");
    }

    #[test]
    fn all_inputs_validate() {
        for kind in GraphKind::all() {
            let c = Clr::new(kind, Scale::Tiny);
            crate::validate_workload(&c).unwrap_or_else(|e| panic!("{}: {e}", c.full_name()));
        }
    }

    #[test]
    fn seeded_instances_share_structure_not_edges() {
        let a = Clr::new_seeded(GraphKind::Citation, Scale::Tiny, 1);
        let b = Clr::new_seeded(GraphKind::Citation, Scale::Tiny, 2);
        assert_eq!(a.app().graph().num_vertices(), b.app().graph().num_vertices());
        assert_ne!(a.app().graph(), b.app().graph());
    }
}
