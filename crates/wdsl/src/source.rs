//! [`CompiledWorkload`]: a `.dsl` file as a drop-in [`Workload`].
//!
//! This is the seam that routes `Workload → TbProgram` through the
//! compiled path: parse → resolve → compile once, then serve
//! `tb_program` requests from the bytecode VM (or, in
//! [`ExecMode::Interp`], from the reference interpreter — the
//! cross-verification oracle). The legacy generators stay available
//! behind the same trait, so benches and CI can diff the two paths.

use std::sync::Arc;

use gpu_sim::program::{KernelKindId, ProgramSource, TbProgram};
use workloads::layout::Region;
use workloads::{HostKernel, Scale, Workload};

use crate::bytecode::CompiledKernel;
use crate::compile::compile;
use crate::error::DslError;
use crate::interp::interpret_tb;
use crate::parser::parse;
use crate::resolve::{resolve, ResolvedWorkload};
use crate::vm::run_compiled;

/// Which back end serves `tb_program` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The verified bytecode VM (the hot path).
    #[default]
    Vm,
    /// The reference AST interpreter (the oracle; slower).
    Interp,
}

impl ExecMode {
    /// Short tag for reports ("vm" / "interp").
    pub fn tag(self) -> &'static str {
        match self {
            ExecMode::Vm => "vm",
            ExecMode::Interp => "interp",
        }
    }
}

/// A fully compiled workload: resolved tables plus verified bytecode,
/// usable anywhere a [`Workload`] is.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    resolved: ResolvedWorkload,
    /// Flattened region table for the VM.
    regions: Vec<Region>,
    kernels: Vec<CompiledKernel>,
    mode: ExecMode,
    /// `dsl-` and a 64-bit digest of the source text, computed once at
    /// compilation ([`Workload::program_id`]).
    program_id: String,
}

impl CompiledWorkload {
    /// Compiles `.dsl` source text end to end.
    ///
    /// # Errors
    ///
    /// Returns the first error of any pipeline stage (lex, parse,
    /// resolve, bytecode verification).
    pub fn from_source(src: &str, mode: ExecMode) -> Result<Self, DslError> {
        let resolved = resolve(parse(src)?)?;
        let kernels = compile(&resolved)?;
        let regions = resolved.regions.iter().map(|r| r.region).collect();
        let program_id = format!("dsl-{:016x}", digest(src.as_bytes()));
        Ok(CompiledWorkload { resolved, regions, kernels, mode, program_id })
    }

    /// The same workload served by the other/selected back end.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Which back end serves programs.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The resolved form (tables, host list, kernel trees).
    pub fn resolved(&self) -> &ResolvedWorkload {
        &self.resolved
    }

    /// The compiled kernels, in declaration order.
    pub fn kernels(&self) -> &[CompiledKernel] {
        &self.kernels
    }

    /// Fallible program generation — the structured-error twin of
    /// [`ProgramSource::tb_program`].
    ///
    /// # Errors
    ///
    /// Returns [`DslError::Runtime`] for unknown kernel kinds and for
    /// program faults (out-of-bounds data index, division by zero, fuel
    /// exhaustion), identically for both back ends.
    pub fn try_tb_program(
        &self,
        kind: KernelKindId,
        param: u64,
        tb: u32,
    ) -> Result<TbProgram, DslError> {
        match self.mode {
            ExecMode::Vm => {
                let kernel = self
                    .kernels
                    .iter()
                    .find(|k| k.kind == kind)
                    .ok_or_else(|| unknown_kind(&self.resolved.name, kind))?;
                run_compiled(&self.regions, &self.resolved.datas, kernel, param, tb)
            }
            ExecMode::Interp => {
                let kernel = self
                    .resolved
                    .kernel(kind)
                    .ok_or_else(|| unknown_kind(&self.resolved.name, kind))?;
                interpret_tb(&self.resolved, kernel, param, tb)
            }
        }
    }
}

/// A 64-bit digest of `bytes`: FNV-1a over little-endian 8-byte words
/// (the zero-padded tail last), seeded with the length. Unlike `std`'s
/// hasher its value is fixed across toolchains, so cache keys built from
/// it persist; reading words rather than bytes keeps it to a few
/// milliseconds over the ci suite's 12 MB of DSL source.
fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ word).wrapping_mul(PRIME);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME)
}

fn unknown_kind(workload: &str, kind: KernelKindId) -> DslError {
    DslError::Runtime {
        kernel: workload.to_string(),
        message: format!("no kernel with kind {}", kind.0),
    }
}

impl ProgramSource for CompiledWorkload {
    /// # Panics
    ///
    /// `ProgramSource` is infallible by contract (program generation is
    /// a pure function the engine may call at any point), so a runtime
    /// fault in a *checked-in* program — which the corpus tests and the
    /// CI gate make unreachable — surfaces as a panic carrying the
    /// structured error's message. The fallible entry point is
    /// [`CompiledWorkload::try_tb_program`].
    fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
        match self.try_tb_program(kind, param, tb_index) {
            Ok(p) => p,
            Err(e) => panic!("workload-DSL program failed: {e}"),
        }
    }

    fn kind_name(&self, kind: KernelKindId) -> String {
        self.resolved.kernel(kind).map_or_else(|| format!("kind-{}", kind.0), |k| k.name.clone())
    }
}

impl Workload for CompiledWorkload {
    fn name(&self) -> &str {
        &self.resolved.name
    }

    fn input(&self) -> String {
        self.resolved.input.clone()
    }

    fn host_kernels(&self) -> Vec<HostKernel> {
        self.resolved.hosts.clone()
    }

    fn program_id(&self) -> &str {
        &self.program_id
    }
}

/// Compiles a generator workload's DSL port, if it provides one.
///
/// # Errors
///
/// Propagates compilation errors from the workload's `dsl_text`.
pub fn compile_workload(
    w: &dyn Workload,
    mode: ExecMode,
) -> Result<Option<CompiledWorkload>, DslError> {
    match w.dsl_text() {
        None => Ok(None),
        Some(src) => CompiledWorkload::from_source(&src, mode).map(Some),
    }
}

/// The full suite served through the compiled path: every workload of
/// [`workloads::suite_seeded`] replaced by its compiled DSL port.
///
/// Equal `data` tables are held once per suite: the BFS, CLR and SSSP
/// ports of one input all embed its graph, and each points at one copy.
///
/// # Errors
///
/// Returns [`DslError`] if a suite workload lacks a DSL port or its
/// port fails to compile — both are repo bugs the CI corpus gate
/// catches.
pub fn compiled_suite_seeded(
    scale: Scale,
    seed: u64,
    mode: ExecMode,
) -> Result<Vec<Arc<dyn Workload>>, DslError> {
    let suite = compiled_suite(scale, seed, mode)?;
    Ok(suite.into_iter().map(|w| Arc::new(w) as Arc<dyn Workload>).collect())
}

/// [`compiled_suite_seeded`] before type erasure.
fn compiled_suite(
    scale: Scale,
    seed: u64,
    mode: ExecMode,
) -> Result<Vec<CompiledWorkload>, DslError> {
    let mut tables: Vec<Arc<[u64]>> = Vec::new();
    let mut out = Vec::new();
    for w in workloads::suite_seeded(scale, seed) {
        let mut compiled =
            compile_workload(w.as_ref(), mode)?.ok_or_else(|| DslError::Resolve {
                line: 0,
                message: format!("suite workload '{}' has no DSL port", w.full_name()),
            })?;
        for data in &mut compiled.resolved.datas {
            // Slice equality compares lengths before contents.
            match tables.iter().find(|t| t[..] == data.values[..]) {
                Some(table) => data.values = Arc::clone(table),
                None => tables.push(Arc::clone(&data.values)),
            }
        }
        out.push(compiled);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = r#"
workload "toy" input "x";
region vals[64, 4];
host kind = 0 param = 0 tbs = 2 threads = 32 regs = 8 smem = 0;
kernel 0 "toy-sweep" threads = 32 {
    let a = tb * 32;
    load_slice vals, a, 32;
    launch 1, a, 1, 32, 8, 0;
}
kernel 1 "toy-child" threads = 32 {
    load_slice vals, param, 32;
    compute 4;
}
"#;

    #[test]
    fn program_id_names_the_source() {
        let toy = CompiledWorkload::from_source(TOY, ExecMode::Vm).expect("compiles");
        let again = CompiledWorkload::from_source(TOY, ExecMode::Interp).expect("compiles");
        assert!(toy.program_id().starts_with("dsl-"), "{}", toy.program_id());
        assert_eq!(toy.program_id(), again.program_id(), "the back end is not the program");
        let edited = TOY.replace("compute 4", "compute 5");
        let edited = CompiledWorkload::from_source(&edited, ExecMode::Vm).expect("compiles");
        assert_ne!(toy.program_id(), edited.program_id());
        assert_ne!(digest(b"ab"), digest(b"ab\0"), "zero padding is not the same source");
    }

    #[test]
    fn serves_programs_through_both_backends_identically() {
        let vm = CompiledWorkload::from_source(TOY, ExecMode::Vm).expect("compiles");
        let interp = vm.clone().with_mode(ExecMode::Interp);
        assert_eq!(vm.full_name(), "toy-x");
        for kind in [KernelKindId(0), KernelKindId(1)] {
            for tb in 0..2 {
                assert_eq!(vm.try_tb_program(kind, 0, tb), interp.try_tb_program(kind, 0, tb));
            }
        }
    }

    #[test]
    fn child_kernels_are_reachable_via_launchspec() {
        let w = CompiledWorkload::from_source(TOY, ExecMode::Vm).expect("compiles");
        let hk = w.host_kernels()[0];
        let parent = w.tb_program(hk.kind, hk.param, 0);
        let launch = parent.launches().next().expect("parent launches");
        let child = w.tb_program(launch.kind, launch.param, 0);
        assert!(!child.is_empty());
        assert_eq!(w.kind_name(launch.kind), "toy-child");
    }

    #[test]
    fn unknown_kind_is_a_structured_error() {
        let w = CompiledWorkload::from_source(TOY, ExecMode::Vm).expect("compiles");
        let err = w.try_tb_program(KernelKindId(9), 0, 0).expect_err("must fail");
        assert!(err.to_string().contains("no kernel with kind 9"), "{err}");
    }

    #[test]
    fn suite_holds_one_copy_of_each_data_table() {
        let suite = compiled_suite(Scale::Tiny, 0, ExecMode::Vm).expect("compiles");
        let tables: Vec<&Arc<[u64]>> =
            suite.iter().flat_map(|w| &w.resolved.datas).map(|d| &d.values).collect();
        for (i, a) in tables.iter().enumerate() {
            for b in &tables[..i] {
                assert_eq!(a == b, Arc::ptr_eq(a, b), "equal tables must be one allocation");
            }
        }
        let mut graph_ports = 0;
        for bfs in suite.iter().filter(|w| w.name() == "bfs") {
            for app in ["clr", "sssp"] {
                let port = suite
                    .iter()
                    .find(|w| w.name() == app && w.input() == bfs.input())
                    .unwrap_or_else(|| panic!("no {app} port of {}", bfs.input()));
                let (ours, theirs) = (&bfs.resolved.datas, &port.resolved.datas);
                assert_eq!(ours.len(), theirs.len(), "{}", port.full_name());
                for (x, y) in ours.iter().zip(theirs) {
                    assert_eq!(x.name, y.name);
                    assert!(Arc::ptr_eq(&x.values, &y.values), "{}: {}", port.full_name(), y.name);
                }
                graph_ports += 1;
            }
        }
        assert_eq!(graph_ports, 6, "three inputs, each shared by clr and sssp with bfs");
    }

    #[test]
    fn shared_tables_serve_the_standalone_programs() {
        let suite = compiled_suite(Scale::Tiny, 0, ExecMode::Vm).expect("compiles");
        let generators = workloads::suite_seeded(Scale::Tiny, 0);
        assert_eq!(suite.len(), generators.len());
        for (shared, generator) in suite.iter().zip(&generators) {
            let alone = compile_workload(generator.as_ref(), ExecMode::Vm)
                .expect("compiles")
                .expect("has a DSL port");
            let name = alone.full_name();
            assert_eq!(shared.full_name(), name);
            let datas = |w: &CompiledWorkload| {
                w.resolved.datas.iter().map(|d| d.values.to_vec()).collect::<Vec<_>>()
            };
            assert_eq!(datas(shared), datas(&alone), "{name}");
            let interp = shared.clone().with_mode(ExecMode::Interp);
            for hk in alone.host_kernels() {
                for tb in [0, hk.num_tbs / 2, hk.num_tbs - 1] {
                    let want = alone.try_tb_program(hk.kind, hk.param, tb).expect("runs");
                    assert_eq!(shared.try_tb_program(hk.kind, hk.param, tb).as_ref(), Ok(&want));
                    assert_eq!(interp.try_tb_program(hk.kind, hk.param, tb).as_ref(), Ok(&want));
                    for l in want.launches() {
                        let child = alone.try_tb_program(l.kind, l.param, 0).expect("runs");
                        assert_eq!(shared.try_tb_program(l.kind, l.param, 0), Ok(child.clone()));
                        assert_eq!(interp.try_tb_program(l.kind, l.param, 0), Ok(child));
                    }
                }
            }
        }
    }

    #[test]
    fn pipeline_errors_surface_per_stage() {
        for (src, stage) in [
            ("workload @", "lex"),
            ("workload \"w\" kernel", "parse"),
            ("workload \"w\"; kernel 0 \"k\" threads = 32 { compute x; }", "resolve"),
        ] {
            let err = CompiledWorkload::from_source(src, ExecMode::Vm).expect_err("must fail");
            assert_eq!(err.stage(), stage, "{src}: {err}");
        }
    }
}
