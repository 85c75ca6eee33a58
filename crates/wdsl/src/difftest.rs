//! Differential-testing support: seeded random DSL programs and a
//! VM-vs-interpreter comparator.
//!
//! [`random_program`] emits random *source text* — so the lexer and
//! parser are exercised too, not just the back ends — that is
//! well-formed by construction but free to fault at runtime (data
//! indices out of bounds, divisions by zero): the comparator requires
//! the two back ends to agree on faults as much as on programs. Loops
//! are generated in terminating shapes only, keeping runs far from the
//! fuel limit so a fuel-count mismatch between back ends cannot mask a
//! real divergence.
//!
//! `crates/wdsl/tests/differential.rs` runs [`fuzz_case`] over a seed
//! range in every `cargo test`; on failure the offending program text is
//! written to a file, which CI uploads as an artifact.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use workloads::rng::SplitMix64;
use workloads::Workload;

use crate::source::{CompiledWorkload, ExecMode};

/// Parameter probes used besides host/launch parameters.
const PROBE_PARAMS: [u64; 4] = [0, 1, 7, 63];
/// TB indices probed per (kind, param).
const PROBE_TBS: u32 = 3;
/// Cap on distinct programs compared per case (the host-driven walk
/// follows launches and could otherwise blow up).
const MAX_PROGRAMS: usize = 512;

struct Gen {
    rng: SplitMix64,
    src: String,
    /// Names of data arrays with their lengths.
    datas: Vec<(String, usize)>,
    /// Region names.
    regions: Vec<String>,
    /// Number of kernels (kinds `0..kinds`).
    kinds: u64,
    /// In-scope variable names, innermost last.
    vars: Vec<String>,
    /// Subset of `vars` that random assignments may target: `let`-vars
    /// only. Loop counters are excluded so every generated loop is
    /// terminating by construction (loop conditions reference nothing
    /// else), keeping runs far from the fuel limit.
    muts: Vec<String>,
    next_var: u32,
    /// Statement budget for the kernel being generated.
    budget: u32,
}

impl Gen {
    fn below(&mut self, bound: u64) -> u64 {
        self.rng.below(bound.max(1))
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick_data(&mut self) -> String {
        let i = self.below(self.datas.len() as u64) as usize;
        self.datas[i].0.clone()
    }

    fn pick_region(&mut self) -> String {
        let i = self.below(self.regions.len() as u64) as usize;
        self.regions[i].clone()
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.chance(35) {
            return self.atom();
        }
        match self.below(8) {
            0 => format!("!{}", self.atom()),
            1 => {
                let f = ["min", "max", "div_ceil"][self.below(3) as usize];
                format!("{f}({}, {})", self.expr(depth - 1), self.expr(depth - 1))
            }
            2 if !self.datas.is_empty() => {
                let d = self.pick_data();
                format!("{d}[{}]", self.expr(depth - 1))
            }
            3 if !self.regions.is_empty() => {
                let r = self.pick_region();
                format!("addr({r}, {})", self.expr(depth - 1))
            }
            _ => {
                let op = [
                    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "==", "!=", "<", "<=", ">",
                    ">=", "&&", "||",
                ][self.below(17) as usize];
                format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
            }
        }
    }

    fn atom(&mut self) -> String {
        match self.below(6) {
            0 => "param".to_string(),
            1 => "tb".to_string(),
            2 if !self.vars.is_empty() => {
                let i = self.below(self.vars.len() as u64) as usize;
                self.vars[i].clone()
            }
            3 if !self.datas.is_empty() => {
                let d = self.pick_data();
                format!("len({d})")
            }
            4 if self.chance(10) => {
                // Extreme literals to poke wrap/saturate/shift edges.
                ["18446744073709551615", "9223372036854775808", "4294967296", "64"]
                    [self.below(4) as usize]
                    .to_string()
            }
            _ => format!("{}", self.below(100)),
        }
    }

    // ---- statements -----------------------------------------------------

    fn fresh_var(&mut self) -> String {
        let name = format!("v{}", self.next_var);
        self.next_var += 1;
        name
    }

    fn stmts(&mut self, indent: usize, depth: u32, in_gather: bool) {
        let n = 1 + self.below(4);
        for _ in 0..n {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            self.stmt(indent, depth, in_gather);
        }
    }

    fn stmt(&mut self, indent: usize, depth: u32, in_gather: bool) {
        let pad = "    ".repeat(indent);
        let outer_vars = self.vars.len();
        let outer_muts = self.muts.len();
        let choice = self.below(if in_gather { 6 } else { 14 });
        match choice {
            0 => {
                let e = self.expr(2);
                let v = self.fresh_var();
                let _ = writeln!(self.src, "{pad}let {v} = {e};");
                self.vars.push(v.clone());
                self.muts.push(v);
                // Stays visible to later siblings in this block; the
                // enclosing block statement truncates on exit.
                return;
            }
            1 if !self.muts.is_empty() => {
                let i = self.below(self.muts.len() as u64) as usize;
                let v = self.muts[i].clone();
                let e = self.expr(2);
                let _ = writeln!(self.src, "{pad}{v} = {e};");
            }
            2 if depth > 0 => {
                let c = self.expr(2);
                let _ = writeln!(self.src, "{pad}if {c} {{");
                self.stmts(indent + 1, depth - 1, in_gather);
                // Then-branch `let`s are block-scoped: drop them before
                // generating the else-branch, which cannot see them.
                self.vars.truncate(outer_vars);
                self.muts.truncate(outer_muts);
                if self.chance(40) {
                    let _ = writeln!(self.src, "{pad}}} else {{");
                    self.stmts(indent + 1, depth - 1, in_gather);
                }
                let _ = writeln!(self.src, "{pad}}}");
            }
            3 if depth > 0 => {
                let v = self.fresh_var();
                let lo = self.below(4);
                let hi = lo + self.below(6);
                let _ = writeln!(self.src, "{pad}for {v} in {lo} .. {hi} {{");
                self.vars.push(v);
                self.stmts(indent + 1, depth - 1, in_gather);
                let _ = writeln!(self.src, "{pad}}}");
            }
            4 if depth > 0 => {
                // Terminating-by-construction while: counts a fresh
                // variable down to zero with saturating subtraction.
                let v = self.fresh_var();
                let start = self.below(6);
                let _ = writeln!(self.src, "{pad}let {v} = {start};");
                let _ = writeln!(self.src, "{pad}while {v} > 0 {{");
                self.vars.push(v.clone());
                self.stmts(indent + 1, depth - 1, in_gather);
                let _ = writeln!(self.src, "{pad}    {v} = {v} - 1;");
                let _ = writeln!(self.src, "{pad}}}");
            }
            5 if in_gather => {
                let e = self.expr(2);
                let _ = writeln!(self.src, "{pad}yield {e};");
            }
            _ if in_gather => {
                let e = self.expr(1);
                let _ = writeln!(self.src, "{pad}yield {e};");
            }
            5 => {
                let e = self.expr(2);
                let _ = writeln!(self.src, "{pad}compute {e};");
            }
            6 => {
                let c = self.expr(1);
                let a = self.expr(1);
                let _ = writeln!(self.src, "{pad}compute_masked {c}, {a};");
            }
            7 => {
                let _ = writeln!(self.src, "{pad}sync;");
            }
            8 => {
                let _ = writeln!(self.src, "{pad}shared;");
            }
            9 if !self.regions.is_empty() => {
                let r = self.pick_region();
                let op = if self.chance(50) { "load_slice" } else { "store_slice" };
                let s = self.expr(1);
                let c = self.expr(1);
                let _ = writeln!(self.src, "{pad}{op} {r}, {s}, {c};");
            }
            10 if !self.regions.is_empty() => {
                let r = self.pick_region();
                let op = if self.chance(50) { "load_bcast" } else { "store_bcast" };
                let i = self.expr(1);
                let _ = writeln!(self.src, "{pad}{op} {r}, {i};");
            }
            11 if depth > 0 => {
                let op = if self.chance(50) { "gather" } else { "scatter" };
                let _ = writeln!(self.src, "{pad}{op} {{");
                self.stmts(indent + 1, depth - 1, true);
                let _ = writeln!(self.src, "{pad}}}");
            }
            12 => {
                let kind = self.below(self.kinds);
                let p = self.expr(1);
                let tbs = 1 + self.below(4);
                let _ = writeln!(self.src, "{pad}launch {kind}, {p}, {tbs}, 32, 8, 0;");
            }
            13 if self.chance(20) && !in_gather => {
                let _ = writeln!(self.src, "{pad}return;");
            }
            _ => {
                let e = self.expr(1);
                let _ = writeln!(self.src, "{pad}compute {e};");
            }
        }
        self.vars.truncate(outer_vars);
        self.muts.truncate(outer_muts);
    }
}

/// Generates one random, well-formed-by-construction DSL program.
pub fn random_program(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed ^ 0xD1F7_7E57);
    let mut g = Gen {
        src: String::new(),
        datas: Vec::new(),
        regions: Vec::new(),
        kinds: 1 + rng.below(3),
        vars: Vec::new(),
        muts: Vec::new(),
        next_var: 0,
        budget: 0,
        rng,
    };
    let _ = writeln!(g.src, "workload \"fuzz\" input \"s{seed}\";");
    let n_data = g.below(3);
    for i in 0..n_data {
        let len = 1 + g.below(12) as usize;
        let values: Vec<String> = (0..len).map(|_| format!("{}", g.below(1 << 20))).collect();
        let _ = writeln!(g.src, "data d{i} = [{}];", values.join(", "));
        g.datas.push((format!("d{i}"), len));
    }
    let n_regions = 1 + g.below(2);
    for i in 0..n_regions {
        let len = 1 + g.below(96);
        let elem = [4u64, 8][g.below(2) as usize];
        let _ = writeln!(g.src, "region r{i}[{len}, {elem}];");
        g.regions.push(format!("r{i}"));
    }
    let kinds = g.kinds;
    let host_param = g.below(8);
    let host_tbs = 1 + g.below(4);
    let _ = writeln!(
        g.src,
        "host kind = 0 param = {host_param} tbs = {host_tbs} threads = 32 regs = 8 smem = 0;"
    );
    for kind in 0..kinds {
        let _ = writeln!(g.src, "kernel {kind} \"fz-k{kind}\" threads = 32 {{");
        g.vars.clear();
        g.muts.clear();
        g.budget = 40;
        g.stmts(1, 3, false);
        let _ = writeln!(g.src, "}}");
    }
    g.src
}

/// Compiles `src` and compares the VM against the interpreter over the
/// probe matrix plus a host-driven walk that follows every launch.
///
/// # Errors
///
/// Returns a human-readable description of the first divergence (or
/// pipeline failure — generated programs must always compile).
pub fn compare_backends(src: &str) -> Result<usize, String> {
    let vm = CompiledWorkload::from_source(src, ExecMode::Vm)
        .map_err(|e| format!("pipeline failed: {e}"))?;
    let interp = vm.clone().with_mode(ExecMode::Interp);

    let kinds: Vec<u16> = vm.resolved().kernels.iter().map(|k| k.kind.0).collect();
    let mut queue: Vec<(u16, u64, u32)> = Vec::new();
    for &kind in &kinds {
        for &param in &PROBE_PARAMS {
            for tb in 0..PROBE_TBS {
                queue.push((kind, param, tb));
            }
        }
    }
    for hk in vm.host_kernels() {
        for tb in 0..hk.num_tbs.min(PROBE_TBS) {
            queue.push((hk.kind.0, hk.param, tb));
        }
    }

    let mut seen: BTreeSet<(u16, u64, u32)> = BTreeSet::new();
    let mut compared = 0usize;
    while let Some(case) = queue.pop() {
        if seen.len() >= MAX_PROGRAMS || !seen.insert(case) {
            continue;
        }
        let (kind, param, tb) = case;
        let kid = gpu_sim::program::KernelKindId(kind);
        let a = vm.try_tb_program(kid, param, tb);
        let b = interp.try_tb_program(kid, param, tb);
        if a != b {
            return Err(format!(
                "divergence at kind {kind}, param {param}, tb {tb}:\n  vm:     {a:?}\n  interp: {b:?}"
            ));
        }
        compared += 1;
        if let Ok(prog) = a {
            for spec in prog.launches() {
                for child_tb in 0..spec.num_tbs.min(PROBE_TBS) {
                    queue.push((spec.kind.0, spec.param, child_tb));
                }
            }
        }
    }
    Ok(compared)
}

/// One fuzz iteration: generate program `seed`, compare back ends.
///
/// # Errors
///
/// Returns the failure description *and* the full program text, ready
/// to be written to a CI artifact.
pub fn fuzz_case(seed: u64) -> Result<usize, String> {
    let src = random_program(seed);
    compare_backends(&src).map_err(|e| format!("seed {seed}: {e}\n--- program ---\n{src}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_programs_are_deterministic() {
        assert_eq!(random_program(7), random_program(7));
        assert_ne!(random_program(7), random_program(8));
    }

    #[test]
    fn random_programs_compile_and_agree_smoke() {
        for seed in 0..32 {
            let compared = fuzz_case(seed).expect("back ends agree");
            assert!(compared > 0, "seed {seed} compared nothing");
        }
    }

    #[test]
    fn comparator_reports_pipeline_failures() {
        let err = compare_backends("workload \"x\";").expect_err("must fail");
        assert!(err.contains("pipeline failed"), "{err}");
    }
}
