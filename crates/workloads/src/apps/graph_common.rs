//! Shared skeleton for the graph benchmarks (BFS, SSSP, CLR).
//!
//! All three follow the dynamic-parallelism idiom the paper describes: a
//! parent kernel sweeps the vertex worklist in chunks; light vertices are
//! expanded inline (irregular intra-thread accesses), while heavy
//! vertices spawn a child TB group whose threads expand the neighbor list
//! cooperatively (converting intra-thread to inter-thread locality). The
//! parent writes a per-chunk work buffer that its children re-read —
//! the parent-generated data of Section III-A's temporal-locality
//! pattern.

use std::sync::Arc;

use gpu_sim::kernel::ResourceReq;
use gpu_sim::program::{KernelKindId, TbProgram};
use gpu_sim::types::Addr;

use crate::apps::common::{chunk_range, num_chunks, OpBuilder, CHILD, PARENT};
use crate::dsl_emit::DslWriter;
use crate::graph::{Csr, GraphKind};
use crate::layout::{Layout, Region};
use crate::{HostKernel, Scale};

/// Which graph algorithm runs on the skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFlavor {
    /// Breadth-first search: frontier expansion, distance updates.
    Bfs,
    /// Single-source shortest path: adds per-edge weight loads and a
    /// heavier relaxation step.
    Sssp,
    /// Greedy graph coloring: reads neighbor colors, writes own color.
    Clr,
}

impl GraphFlavor {
    fn name(self) -> &'static str {
        match self {
            GraphFlavor::Bfs => "bfs",
            GraphFlavor::Sssp => "sssp",
            GraphFlavor::Clr => "clr",
        }
    }

    fn parent_compute(self) -> u32 {
        match self {
            GraphFlavor::Bfs => 6,
            GraphFlavor::Sssp => 10,
            GraphFlavor::Clr => 8,
        }
    }

    fn child_compute(self) -> u32 {
        match self {
            GraphFlavor::Bfs => 6,
            GraphFlavor::Sssp => 12,
            GraphFlavor::Clr => 10,
        }
    }
}

/// Mean degree of the generated input graphs at a scale.
fn avg_degree(scale: Scale) -> u32 {
    match scale {
        Scale::Tiny => 6,
        Scale::Ci | Scale::Small => 8,
        Scale::Paper => 10,
    }
}

/// A graph benchmark instance: input graph plus memory layout.
#[derive(Debug)]
pub struct GraphApp {
    flavor: GraphFlavor,
    kind: GraphKind,
    graph: Arc<Csr>,
    chunk: u32,
    child_threads: u32,
    heavy_threshold: u32,
    row_offsets: Region,
    col_indices: Region,
    frontier: Region,
    values: Region,
    weights: Option<Region>,
    workbuf: Region,
}

impl GraphApp {
    /// Vertices handled per parent TB (= parent TB thread count).
    pub const CHUNK: u32 = 32;
    /// Threads per child TB.
    pub const CHILD_THREADS: u32 = 32;

    /// Builds the benchmark for a graph input at a scale, with the
    /// default input seed.
    pub fn new(flavor: GraphFlavor, kind: GraphKind, scale: Scale) -> Self {
        Self::new_seeded(flavor, kind, scale, 0)
    }

    /// Builds the benchmark with an explicit input seed (for
    /// multi-sample experiments).
    pub fn new_seeded(flavor: GraphFlavor, kind: GraphKind, scale: Scale, seed: u64) -> Self {
        Self::with_graph(flavor, kind, scale, Arc::new(Self::input_graph(kind, scale, seed)))
    }

    /// The input graph of `kind` at `scale` with input seed `seed`. It
    /// does not depend on the flavor, so BFS, CLR and SSSP over one
    /// input can share a single graph ([`with_graph`](Self::with_graph)).
    pub(crate) fn input_graph(kind: GraphKind, scale: Scale, seed: u64) -> Csr {
        let n = scale.items() * 8;
        let seed = seed ^ 0x1A9E_0000 ^ u64::from(n) ^ (kind.name().len() as u64) << 32;
        kind.generate(n, avg_degree(scale), seed)
    }

    /// Builds the benchmark over `graph`, which must be
    /// [`input_graph`](Self::input_graph)`(kind, scale, _)` for the
    /// workload to be the one [`new_seeded`](Self::new_seeded) builds.
    pub(crate) fn with_graph(
        flavor: GraphFlavor,
        kind: GraphKind,
        scale: Scale,
        graph: Arc<Csr>,
    ) -> Self {
        let n = graph.num_vertices();
        let mut layout = Layout::new();
        let m = u64::from(graph.num_edges());
        let row_offsets = layout.alloc(u64::from(n) + 1, 4);
        let col_indices = layout.alloc(m.max(1), 4);
        let frontier = layout.alloc(u64::from(n), 4);
        let values = layout.alloc(u64::from(n), 4);
        let weights = matches!(flavor, GraphFlavor::Sssp).then(|| layout.alloc(m.max(1), 4));
        let workbuf = layout.alloc(u64::from(n), 4);
        GraphApp {
            flavor,
            kind,
            graph,
            chunk: Self::CHUNK,
            child_threads: Self::CHILD_THREADS,
            heavy_threshold: avg_degree(scale) * 2,
            row_offsets,
            col_indices,
            frontier,
            values,
            weights,
            workbuf,
        }
    }

    /// The input graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The flavor name ("bfs" / "sssp" / "clr").
    pub fn flavor_name(&self) -> &'static str {
        self.flavor.name()
    }

    /// The graph input kind.
    pub fn graph_kind(&self) -> GraphKind {
        self.kind
    }

    /// Degree at which a vertex is expanded by a child TB group.
    pub fn heavy_threshold(&self) -> u32 {
        self.heavy_threshold
    }

    fn child_req(&self) -> ResourceReq {
        ResourceReq::new(self.child_threads, 20, 0)
    }

    /// The host kernels that run the benchmark.
    pub fn host_kernels(&self) -> Vec<HostKernel> {
        vec![HostKernel {
            kind: PARENT,
            param: 0,
            num_tbs: num_chunks(self.graph.num_vertices(), self.chunk),
            req: ResourceReq::new(self.chunk, 24, 256),
        }]
    }

    fn parent_program(&self, tb_index: u32) -> TbProgram {
        let n = self.graph.num_vertices();
        let (a, cnt) = chunk_range(n, self.chunk, tb_index);
        if cnt == 0 {
            return OpBuilder::new(self.chunk).compute(1).build();
        }
        let vertices = a..a + cnt;
        let mut b = OpBuilder::new(self.chunk);

        // Read the frontier slice and row offsets for this chunk.
        b.load_slice(self.frontier, u64::from(a), u64::from(cnt));
        b.load_slice(self.row_offsets, u64::from(a), u64::from(cnt) + 1);
        b.compute(4);

        // Peek each vertex's first neighbor and its value: the irregular
        // intra-thread accesses that motivate spawning children.
        let mut firsts: Vec<Addr> = Vec::with_capacity(cnt as usize);
        firsts.extend(
            vertices
                .clone()
                .filter(|&v| self.graph.degree(v) > 0)
                .map(|v| self.col_indices.addr(u64::from(self.graph.row_start(v)))),
        );
        b.gather(firsts);
        let mut first_vals: Vec<Addr> = Vec::with_capacity(cnt as usize);
        first_vals.extend(
            vertices
                .clone()
                .filter(|&v| self.graph.degree(v) > 0)
                .map(|v| self.values.addr(u64::from(self.graph.neighbors(v)[0]))),
        );
        b.gather(first_vals);
        b.compute(self.flavor.parent_compute());

        // Publish the per-chunk work buffer the children will consume,
        // then spawn children *before* the inline tail work — the common
        // CDP idiom: generate data, launch, keep computing. The head
        // start is what gives the children a chance to run while their
        // parent's data is still hot.
        b.store_slice(self.workbuf, u64::from(a), u64::from(cnt));
        for v in vertices.clone() {
            let d = self.graph.degree(v);
            if d >= self.heavy_threshold {
                b.launch(CHILD, u64::from(v), d.div_ceil(self.child_threads), self.child_req());
            }
        }
        b.sync();

        // Light vertices are expanded inline: several neighbor rounds of
        // irregular intra-thread accesses.
        for round in 1..5usize {
            let mut addrs: Vec<Addr> = Vec::with_capacity(cnt as usize);
            addrs.extend(
                vertices
                    .clone()
                    .filter(|&v| self.graph.degree(v) < self.heavy_threshold)
                    .filter(|&v| self.graph.degree(v) as usize > round)
                    .map(|v| self.values.addr(u64::from(self.graph.neighbors(v)[round]))),
            );
            b.gather(addrs);
            b.compute(4);
        }
        b.store_slice(self.values, u64::from(a), u64::from(cnt));
        b.build()
    }

    fn child_program(&self, vertex: u64, tb_index: u32) -> TbProgram {
        let v = vertex as u32;
        let d = self.graph.degree(v);
        let start = tb_index * self.child_threads;
        let cnt = self.child_threads.min(d.saturating_sub(start));
        let mut b = OpBuilder::new(self.child_threads);
        if cnt == 0 {
            return b.compute(1).build();
        }
        let row_start = u64::from(self.graph.row_start(v)) + u64::from(start);

        // Re-read the vertex header and the parent's work buffer — the
        // parent-generated data that carries the temporal locality.
        b.load_bcast(self.row_offsets, u64::from(v));
        let parent_chunk = u64::from((v / self.chunk) * self.chunk);
        b.load_slice(self.workbuf, parent_chunk, u64::from(self.child_threads));

        // Expand this TB's slice of the neighbor list, coalesced.
        b.load_slice(self.col_indices, row_start, u64::from(cnt));
        b.compute(4);

        // Visit neighbor values: the sibling-locality-bearing accesses.
        let neighbors = &self.graph.neighbors(v)[start as usize..(start + cnt) as usize];
        // One allocation, shared by the load below and the store in the
        // relaxation flavors (an `Arc` clone is a refcount bump).
        let value_addrs: std::sync::Arc<[Addr]> =
            neighbors.iter().map(|&t| self.values.addr(u64::from(t))).collect();
        b.gather(value_addrs.clone());

        if let Some(weights) = self.weights {
            b.load_slice(weights, row_start, u64::from(cnt));
            b.compute(6);
        }
        if cnt < self.child_threads {
            // Tail TB: only `cnt` of the warp's lanes are live — the
            // divergence cost of expanding a ragged neighbor list.
            b.compute_masked(self.flavor.child_compute(), cnt);
        } else {
            b.compute(self.flavor.child_compute());
        }

        match self.flavor {
            GraphFlavor::Clr => {
                // Coloring: write this vertex's color once.
                b.store_bcast(self.values, u64::from(v));
            }
            GraphFlavor::Bfs | GraphFlavor::Sssp => {
                // Relaxation: update the visited neighbors.
                b.scatter(value_addrs);
            }
        }
        b.build()
    }

    /// Program generation shared by the flavor wrappers.
    pub fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
        match kind {
            PARENT => self.parent_program(tb_index),
            _ => self.child_program(param, tb_index),
        }
    }

    /// Kernel kind names for traces.
    pub fn kind_name(&self, kind: KernelKindId) -> String {
        match kind {
            PARENT => format!("{}-sweep", self.flavor.name()),
            _ => format!("{}-expand", self.flavor.name()),
        }
    }

    /// The workload-DSL port: the CSR structure becomes `data` arrays
    /// (`rowstart` is `row_offsets` including the terminating edge
    /// count), and the kernels recompute every degree test and neighbor
    /// address from them exactly as the generator above does.
    pub fn dsl_text(&self) -> String {
        let n = self.graph.num_vertices();
        let m = u64::from(self.graph.num_edges());
        let flavor = self.flavor.name();
        let mut w = DslWriter::new(flavor, self.kind.name());
        w.comment(&format!("{n} vertices, {m} edges, CSR dumped as data arrays"));
        w.data(
            "rowstart",
            (0..=n).map(|v| if v == n { m } else { u64::from(self.graph.row_start(v)) }),
        );
        w.data("cols", (0..n).flat_map(|v| self.graph.neighbors(v)).map(|&t| u64::from(t)));
        w.region("row_offsets", u64::from(n) + 1, 4);
        w.region("col_indices", m.max(1), 4);
        w.region("frontier", u64::from(n), 4);
        w.region("values", u64::from(n), 4);
        if self.weights.is_some() {
            w.region("weights", m.max(1), 4);
        }
        w.region("workbuf", u64::from(n), 4);
        w.host(0, 0, num_chunks(n, self.chunk), self.chunk, 24, 256);

        let heavy = self.heavy_threshold;
        let pc = self.flavor.parent_compute();
        w.kernel(
            0,
            &format!("{flavor}-sweep"),
            self.chunk,
            &format!(
                "    let a = tb * 32;
    let cnt = min(32, {n} - a);
    if cnt == 0 {{
        compute 1;
        return;
    }}
    load_slice frontier, a, cnt;
    load_slice row_offsets, a, cnt + 1;
    compute 4;
    gather {{
        for v in a .. a + cnt {{
            if rowstart[v + 1] - rowstart[v] > 0 {{
                yield addr(col_indices, rowstart[v]);
            }}
        }}
    }}
    gather {{
        for v in a .. a + cnt {{
            if rowstart[v + 1] - rowstart[v] > 0 {{
                yield addr(values, cols[rowstart[v]]);
            }}
        }}
    }}
    compute {pc};
    store_slice workbuf, a, cnt;
    for v in a .. a + cnt {{
        let d = rowstart[v + 1] - rowstart[v];
        if d >= {heavy} {{
            launch 1, v, div_ceil(d, 32), 32, 20, 0;
        }}
    }}
    sync;
    for round in 1 .. 5 {{
        gather {{
            for v in a .. a + cnt {{
                let d = rowstart[v + 1] - rowstart[v];
                if d < {heavy} && d > round {{
                    yield addr(values, cols[rowstart[v] + round]);
                }}
            }}
        }}
        compute 4;
    }}
    store_slice values, a, cnt;
"
            ),
        );

        let cc = self.flavor.child_compute();
        let weight_rounds = if self.weights.is_some() {
            "    load_slice weights, row, cnt;\n    compute 6;\n"
        } else {
            ""
        };
        let writeback = match self.flavor {
            GraphFlavor::Clr => "    store_bcast values, param;\n".to_string(),
            GraphFlavor::Bfs | GraphFlavor::Sssp => "    scatter {
        for i in 0 .. cnt {
            yield addr(values, cols[row + i]);
        }
    }
"
            .to_string(),
        };
        w.kernel(
            1,
            &format!("{flavor}-expand"),
            self.child_threads,
            &format!(
                "    let d = rowstart[param + 1] - rowstart[param];
    let start = tb * 32;
    let cnt = min(32, d - start);
    if cnt == 0 {{
        compute 1;
        return;
    }}
    let row = rowstart[param] + start;
    load_bcast row_offsets, param;
    load_slice workbuf, (param / 32) * 32, 32;
    load_slice col_indices, row, cnt;
    compute 4;
    gather {{
        for i in 0 .. cnt {{
            yield addr(values, cols[row + i]);
        }}
    }}
{weight_rounds}    if cnt < 32 {{
        compute_masked {cc}, cnt;
    }} else {{
        compute {cc};
    }}
{writeback}"
            ),
        );
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> GraphApp {
        GraphApp::new(GraphFlavor::Bfs, GraphKind::Citation, Scale::Tiny)
    }

    #[test]
    fn host_kernel_covers_all_vertices() {
        let a = app();
        let hk = a.host_kernels();
        assert_eq!(hk.len(), 1);
        assert!(hk[0].num_tbs * GraphApp::CHUNK >= a.graph().num_vertices());
    }

    #[test]
    fn heavy_vertices_launch_child_groups() {
        let a = app();
        let mut total_launches = 0usize;
        for tb in 0..a.host_kernels()[0].num_tbs {
            let prog = a.tb_program(PARENT, 0, tb);
            for l in prog.launches() {
                assert_eq!(l.kind, CHILD);
                let v = l.param as u32;
                assert!(a.graph().degree(v) >= a.heavy_threshold());
                assert_eq!(l.num_tbs, a.graph().degree(v).div_ceil(GraphApp::CHILD_THREADS));
                total_launches += 1;
            }
        }
        assert!(total_launches > 0);
    }

    #[test]
    fn child_program_is_deterministic() {
        let a = app();
        let heavy = (0..a.graph().num_vertices())
            .find(|&v| a.graph().degree(v) >= a.heavy_threshold())
            .unwrap();
        assert_eq!(
            a.tb_program(CHILD, u64::from(heavy), 0),
            a.tb_program(CHILD, u64::from(heavy), 0)
        );
    }

    #[test]
    fn child_shares_workbuf_lines_with_parent() {
        let a = app();
        let heavy = (0..a.graph().num_vertices())
            .find(|&v| a.graph().degree(v) >= a.heavy_threshold())
            .unwrap();
        let parent_tb = heavy / GraphApp::CHUNK;
        let lines = |prog: &TbProgram, threads: u32| -> std::collections::HashSet<u64> {
            prog.global_mem_ops()
                .flat_map(|m| m.pattern.tb_addrs(threads))
                .map(|addr| addr >> 7)
                .collect()
        };
        let parent_lines = lines(&a.tb_program(PARENT, 0, parent_tb), GraphApp::CHUNK);
        let child_lines = lines(&a.tb_program(CHILD, u64::from(heavy), 0), GraphApp::CHILD_THREADS);
        let shared = child_lines.intersection(&parent_lines).count();
        assert!(shared >= 2, "child shares only {shared} lines with its parent TB");
    }

    #[test]
    fn sssp_touches_weights() {
        let a = GraphApp::new(GraphFlavor::Sssp, GraphKind::Cage15, Scale::Tiny);
        let heavy = (0..a.graph().num_vertices())
            .find(|&v| a.graph().degree(v) >= a.heavy_threshold())
            .unwrap();
        let bfs = GraphApp::new(GraphFlavor::Bfs, GraphKind::Cage15, Scale::Tiny);
        let sssp_ops = a.tb_program(CHILD, u64::from(heavy), 0).len();
        let bfs_ops = bfs.tb_program(CHILD, u64::from(heavy), 0).len();
        assert!(sssp_ops > bfs_ops, "SSSP child must do extra weight work");
    }

    #[test]
    fn out_of_range_child_tb_is_trivial() {
        let a = app();
        let prog = a.tb_program(CHILD, 0, 1000);
        assert_eq!(prog.len(), 1);
    }

    #[test]
    fn clr_writes_own_color_not_neighbors() {
        let a = GraphApp::new(GraphFlavor::Clr, GraphKind::Citation, Scale::Tiny);
        let heavy = (0..a.graph().num_vertices())
            .find(|&v| a.graph().degree(v) >= a.heavy_threshold())
            .unwrap();
        let prog = a.tb_program(CHILD, u64::from(heavy), 0);
        let stores: Vec<_> = prog.global_mem_ops().filter(|m| m.is_store).collect();
        assert_eq!(stores.len(), 1);
        assert!(matches!(stores[0].pattern, gpu_sim::program::AddrPattern::Broadcast(_)));
    }
}
