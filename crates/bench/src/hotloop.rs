//! Wall-clock throughput benchmark of the simulator's hot loop.
//!
//! Measures simulated cycles per wall-clock second on fixed
//! configurations:
//!
//! * `figure4-toy` — the paper's Figure 4 walk-through machine, looped
//!   many times (dominated by per-cycle fixed costs);
//! * `bfs-citation/kepler_k20c` — one real workload at `Scale::Small` on
//!   the Table I machine (dominated by the dispatch/execute path);
//! * `bfs-citation/kepler_k20c/dsl-vm` — the same workload served
//!   through its compiled DSL port (the `wdsl` bytecode VM); the delta
//!   against the plain case is the VM's program-generation overhead in
//!   the hot path;
//! * `launch-storm/kepler_k20c` — a CDP relay that bursts launches
//!   through a finite two-slot pending-launch buffer on the Table I
//!   machine, dominated by launch-path queueing (spill-queue release
//!   edges), which the event engine wakes for exactly.
//!
//! The `hotloop` binary runs all cases and emits `BENCH_hotloop.json`
//! (with the producing machine's `host_cpus`, so cross-host wall-clock
//! comparisons are recognizable) and the performance trajectory is
//! tracked across PRs (see the "Performance" section of
//! `docs/ARCHITECTURE.md`).

use std::sync::Arc;
use std::time::Instant;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::{EngineMode, GpuConfig, LaunchLimits, OverflowPolicy};
use gpu_sim::engine::Simulator;
use gpu_sim::kernel::ResourceReq;
use gpu_sim::program::{KernelKindId, LaunchSpec, ProgramSource, TbOp, TbProgram};
use sim_metrics::harness::SchedulerKind;
use wdsl::{compile_workload, ExecMode};
use workloads::{suite, Scale, SharedSource, Workload};

use crate::fig4::Figure4Source;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct HotloopResult {
    /// Case name (stable across PRs; used for baseline comparison).
    pub name: String,
    /// Scheduler under test.
    pub scheduler: String,
    /// Launch model under test.
    pub launch_model: String,
    /// Simulation engine under test (`event` or `cycle-stepped`).
    pub engine: String,
    /// Simulation repetitions measured.
    pub iters: u32,
    /// Total simulated cycles across all repetitions.
    pub cycles: u64,
    /// Total wall-clock seconds across all repetitions.
    pub wall_secs: f64,
    /// Simulated cycles per wall-clock second (the tracked metric).
    pub cycles_per_sec: f64,
}

impl HotloopResult {
    fn from_run(
        name: &str,
        scheduler: &str,
        launch_model: &str,
        engine: EngineMode,
        iters: u32,
        cycles: u64,
        wall_secs: f64,
    ) -> Self {
        HotloopResult {
            name: name.to_string(),
            scheduler: scheduler.to_string(),
            launch_model: launch_model.to_string(),
            engine: engine.name().to_string(),
            iters,
            cycles,
            wall_secs,
            cycles_per_sec: if wall_secs > 0.0 { cycles as f64 / wall_secs } else { 0.0 },
        }
    }

    /// Renders the result as a JSON object (hand-rolled; the workspace
    /// has no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"scheduler\": \"{}\", \"launch_model\": \"{}\", \
             \"engine\": \"{}\", \"iters\": {}, \"cycles\": {}, \
             \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.1}}}",
            self.name,
            self.scheduler,
            self.launch_model,
            self.engine,
            self.iters,
            self.cycles,
            self.wall_secs,
            self.cycles_per_sec,
        )
    }
}

/// Runs the Figure-4 toy machine `iters` times and measures throughput.
pub fn bench_figure4_toy(iters: u32) -> HotloopResult {
    let cfg = GpuConfig::figure4_toy();
    let mut cycles = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let mut sim = Simulator::new(cfg.clone(), Box::new(Figure4Source))
            .with_launch_model(LaunchModelKind::Dtbl.build(LaunchLatency::zero()));
        sim.launch_host_kernel(KernelKindId(0), 0, 8, ResourceReq::new(32, 8, 0))
            .expect("toy kernel launches");
        let stats = sim.run_to_completion().expect("toy run completes");
        cycles += stats.cycles;
    }
    let wall = start.elapsed().as_secs_f64();
    HotloopResult::from_run("figure4-toy", "rr", "dtbl", cfg.engine_mode, iters, cycles, wall)
}

/// Runs `bfs-citation` at [`Scale::Small`] on the Table I Kepler machine
/// and measures throughput. This is the reference workload for the
/// acceptance threshold tracked across PRs.
pub fn bench_kepler_reference(iters: u32) -> HotloopResult {
    let cfg = GpuConfig::kepler_k20c();
    let workload: Arc<dyn Workload> = suite(Scale::Small)
        .into_iter()
        .find(|w| w.full_name() == "bfs-citation")
        .expect("bfs-citation in suite");
    let sched = SchedulerKind::AdaptiveBind;
    let model = LaunchModelKind::Dtbl;
    let mut cycles = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(workload.clone())))
            .with_scheduler(sched.build(&cfg))
            .with_launch_model(model.build(LaunchLatency::default_for(model)));
        for hk in workload.host_kernels() {
            sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req)
                .expect("host kernel launches");
        }
        let stats = sim.run_to_completion().expect("reference run completes");
        cycles += stats.cycles;
    }
    let wall = start.elapsed().as_secs_f64();
    HotloopResult::from_run(
        "bfs-citation/kepler_k20c",
        sched.name(),
        model.name(),
        cfg.engine_mode,
        iters,
        cycles,
        wall,
    )
}

/// [`bench_kepler_reference`] with the workload served through its DSL
/// port: compiled once up front, then every `tb_program` request during
/// simulation runs the bytecode VM instead of the Rust generator. The
/// simulated machine is identical (programs are byte-identical across
/// paths), so the throughput delta against the plain reference case *is*
/// the VM's program-generation overhead in the simulator's hot path —
/// tracked across PRs like every other case.
pub fn bench_kepler_reference_dsl(iters: u32) -> HotloopResult {
    let cfg = GpuConfig::kepler_k20c();
    let generator = suite(Scale::Small)
        .into_iter()
        .find(|w| w.full_name() == "bfs-citation")
        .expect("bfs-citation in suite");
    let compiled = compile_workload(generator.as_ref(), ExecMode::Vm)
        .expect("bfs-citation DSL port compiles")
        .expect("bfs-citation has a DSL port");
    let workload: Arc<dyn Workload> = Arc::new(compiled);
    let sched = SchedulerKind::AdaptiveBind;
    let model = LaunchModelKind::Dtbl;
    let mut cycles = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(workload.clone())))
            .with_scheduler(sched.build(&cfg))
            .with_launch_model(model.build(LaunchLatency::default_for(model)));
        for hk in workload.host_kernels() {
            sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req)
                .expect("host kernel launches");
        }
        let stats = sim.run_to_completion().expect("reference run completes");
        cycles += stats.cycles;
    }
    let wall = start.elapsed().as_secs_f64();
    HotloopResult::from_run(
        "bfs-citation/kepler_k20c/dsl-vm",
        sched.name(),
        model.name(),
        cfg.engine_mode,
        iters,
        cycles,
        wall,
    )
}

/// A CDP launch storm driven through a finite pending-launch buffer:
/// generation `param` of kernel kind 0 is a single-TB kernel that
/// computes briefly, then device-launches one chain continuation plus
/// `leaves` short-lived leaf kernels (leaf flag in the parameter's high
/// bit), until `depth` generations have run. The burst overflows the
/// configured pending-launch buffer, so most launches sit in the
/// memory-backed spill queue for `extra_latency` cycles before entering
/// the buffer — simulated time is dominated by launch-path queueing,
/// the launch-dominated shape the event engine is built for.
pub(crate) struct LaunchStormSource {
    pub(crate) depth: u64,
    pub(crate) leaves: u32,
}

const STORM_LEAF_BIT: u64 = 1 << 32;

impl ProgramSource for LaunchStormSource {
    fn tb_program(&self, kind: KernelKindId, param: u64, _tb: u32) -> TbProgram {
        let gen = param & (STORM_LEAF_BIT - 1);
        let leaf = param & STORM_LEAF_BIT != 0;
        let mut ops = vec![TbOp::Compute(8)];
        if !leaf && gen + 1 < self.depth {
            // Continuation first, so the relay claims a buffer slot
            // before the leaves saturate it.
            ops.push(TbOp::Launch(LaunchSpec {
                kind,
                param: gen + 1,
                num_tbs: 1,
                req: ResourceReq::new(32, 8, 0),
            }));
            for _ in 0..self.leaves {
                ops.push(TbOp::Launch(LaunchSpec {
                    kind,
                    param: (gen + 1) | STORM_LEAF_BIT,
                    num_tbs: 1,
                    req: ResourceReq::new(32, 8, 0),
                }));
            }
        }
        TbProgram::new(ops)
    }
}

/// The finite launch path the storm saturates: a two-slot pending-launch
/// buffer spilling to a memory-backed queue, as CDP's software queue
/// does when the hardware buffer fills.
fn storm_limits() -> LaunchLimits {
    LaunchLimits {
        pending_launch_capacity: Some(2),
        policy: OverflowPolicy::SpillVirtual { extra_latency: 2500 },
        ..LaunchLimits::unbounded()
    }
}

/// Runs the launch storm on the Table I Kepler machine. The spill queue
/// is occupied for most of the run; the event engine skips the idle
/// cycles between the queue's release edges.
pub fn bench_launch_storm(iters: u32) -> HotloopResult {
    let mut cfg = GpuConfig::kepler_k20c();
    cfg.launch_limits = storm_limits();
    let model = LaunchModelKind::Cdp;
    let mut cycles = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let source = LaunchStormSource { depth: 200, leaves: 3 };
        let mut sim = Simulator::new(cfg.clone(), Box::new(source))
            .with_launch_model(model.build(LaunchLatency::default_for(model)));
        sim.launch_host_kernel(KernelKindId(0), 0, 1, ResourceReq::new(32, 8, 0))
            .expect("storm root launches");
        let stats = sim.run_to_completion().expect("storm run completes");
        cycles += stats.cycles;
    }
    let wall = start.elapsed().as_secs_f64();
    HotloopResult::from_run(
        "launch-storm/kepler_k20c",
        "rr",
        model.name(),
        cfg.engine_mode,
        iters,
        cycles,
        wall,
    )
}

/// Runs the full hotloop suite.
pub fn run_hotloop() -> Vec<HotloopResult> {
    vec![
        bench_figure4_toy(5000),
        bench_kepler_reference(15),
        bench_kepler_reference_dsl(15),
        bench_launch_storm(10),
    ]
}

/// Renders results (plus optional per-case baseline throughput from a
/// previous run) as the `BENCH_hotloop.json` document. `host_cpus` is
/// recorded so a reader (and the CI gate) can tell when two documents
/// were produced on different machines — wall-clock throughput is only
/// comparable within one host class.
pub fn render_json(
    results: &[HotloopResult],
    baseline: &[(String, f64)],
    host_cpus: usize,
) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"hotloop\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    ");
        let mut obj = r.to_json();
        if let Some((_, base)) = baseline.iter().find(|(n, _)| *n == r.name) {
            let speedup = if *base > 0.0 { r.cycles_per_sec / base } else { 0.0 };
            obj.truncate(obj.len() - 1);
            obj.push_str(&format!(
                ", \"baseline_cycles_per_sec\": {base:.1}, \"speedup\": {speedup:.2}}}"
            ));
        }
        out.push_str(&obj);
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(name, cycles_per_sec)` pairs from a previously written
/// `BENCH_hotloop.json` (minimal parser for our own fixed format).
pub fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name) = field_str(line, "name") else { continue };
        let Some(cps) = field_num(line, "cycles_per_sec") else { continue };
        out.push((name, cps));
    }
    out
}

/// Extracts the producing machine's `host_cpus` from a previously
/// written `BENCH_hotloop.json`. `None` for documents from before the
/// field existed.
pub fn parse_host_cpus(json: &str) -> Option<usize> {
    json.lines().find_map(|l| field_num(l, "host_cpus").map(|n| n as usize))
}

/// Compares measured throughput against a baseline with a tolerance.
///
/// A case regresses when its throughput drops more than
/// `max_regression_pct` percent below the baseline's. Cases without a
/// baseline entry (new benchmarks) are noted but never fail. When
/// `hosts` is `Some((baseline_cpus, current_cpus))` and the two differ,
/// the documents were produced on different machine classes and their
/// wall-clock numbers are not comparable: misses are annotated `MISS`
/// in the report but do not fail the check (a 1-CPU runner replaying an
/// 8-core baseline would otherwise be misread as a regression). Returns
/// `(all cases within tolerance, human-readable report)`; the report
/// names every failing case with both numbers so a CI failure is
/// actionable without re-running locally.
pub fn check_regressions(
    results: &[HotloopResult],
    baseline: &[(String, f64)],
    max_regression_pct: f64,
    hosts: Option<(usize, usize)>,
) -> (bool, String) {
    let mut ok = true;
    let mut report = String::new();
    let cross_host = matches!(hosts, Some((base, cur)) if base != cur);
    if cross_host {
        if let Some((base, cur)) = hosts {
            report.push_str(&format!(
                "  NOTE baseline was produced on a {base}-cpu host, this run on a \
                 {cur}-cpu host; misses are annotated, not failed\n"
            ));
        }
    }
    for r in results {
        let Some((_, base)) = baseline.iter().find(|(n, _)| *n == r.name) else {
            report.push_str(&format!(
                "  NEW  {}: {:.0} cycles/sec (no baseline)\n",
                r.name, r.cycles_per_sec
            ));
            continue;
        };
        let floor = base * (1.0 - max_regression_pct / 100.0);
        if r.cycles_per_sec < floor {
            let tag = if cross_host { "MISS" } else { "FAIL" };
            if !cross_host {
                ok = false;
            }
            report.push_str(&format!(
                "  {tag} {}: {:.0} cycles/sec is {:.1}% below baseline {:.0} \
                 (tolerance {max_regression_pct:.0}%)\n",
                r.name,
                r.cycles_per_sec,
                (1.0 - r.cycles_per_sec / base) * 100.0,
                base
            ));
        } else {
            report.push_str(&format!(
                "  OK   {}: {:.0} cycles/sec vs baseline {:.0} ({:+.1}%)\n",
                r.name,
                r.cycles_per_sec,
                base,
                (r.cycles_per_sec / base - 1.0) * 100.0
            ));
        }
    }
    (ok, report)
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_toy_measures_throughput() {
        let r = bench_figure4_toy(2);
        assert_eq!(r.iters, 2);
        assert!(r.cycles > 0);
        assert!(r.cycles_per_sec > 0.0);
    }

    #[test]
    fn json_roundtrip_recovers_throughput() {
        let r = HotloopResult::from_run("case-a", "rr", "dtbl", EngineMode::Event, 3, 1000, 0.5);
        let json = render_json(std::slice::from_ref(&r), &[], 4);
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "case-a");
        assert!((parsed[0].1 - 2000.0).abs() < 0.5);
        assert_eq!(parse_host_cpus(&json), Some(4));
        assert!(json.contains("\"engine\": \"event\""), "{json}");
    }

    #[test]
    fn host_cpus_absent_from_old_documents() {
        let r = HotloopResult::from_run("case-a", "rr", "dtbl", EngineMode::Event, 3, 1000, 0.5);
        let json = render_json(std::slice::from_ref(&r), &[], 4);
        let stripped: String =
            json.lines().filter(|l| !l.contains("host_cpus")).collect::<Vec<_>>().join("\n");
        assert_eq!(parse_host_cpus(&stripped), None);
    }

    #[test]
    fn render_includes_speedup_against_baseline() {
        let r = HotloopResult::from_run("case-a", "rr", "dtbl", EngineMode::Event, 1, 3000, 1.0);
        let json = render_json(&[r], &[("case-a".to_string(), 1000.0)], 1);
        assert!(json.contains("\"speedup\": 3.00"), "{json}");
        assert!(json.contains("\"baseline_cycles_per_sec\": 1000.0"), "{json}");
    }

    #[test]
    fn regression_within_tolerance_passes() {
        // 800 vs 1000 baseline = -20%, inside a 30% tolerance.
        let r = HotloopResult::from_run("case-a", "rr", "dtbl", EngineMode::Event, 1, 800, 1.0);
        let (ok, report) = check_regressions(&[r], &[("case-a".to_string(), 1000.0)], 30.0, None);
        assert!(ok, "{report}");
        assert!(report.contains("OK   case-a"), "{report}");
    }

    #[test]
    fn regression_beyond_tolerance_fails_with_both_numbers() {
        // 600 vs 1000 baseline = -40%, outside a 30% tolerance.
        let r = HotloopResult::from_run("case-a", "rr", "dtbl", EngineMode::Event, 1, 600, 1.0);
        let (ok, report) =
            check_regressions(&[r], &[("case-a".to_string(), 1000.0)], 30.0, Some((2, 2)));
        assert!(!ok);
        assert!(report.contains("FAIL case-a"), "{report}");
        assert!(report.contains("600"), "{report}");
        assert!(report.contains("1000"), "{report}");
    }

    #[test]
    fn cross_host_miss_is_annotated_not_failed() {
        // Same -40% miss, but the baseline came from an 8-cpu host and
        // this run from a 1-cpu host: annotate, don't fail.
        let r = HotloopResult::from_run("case-a", "rr", "dtbl", EngineMode::Event, 1, 600, 1.0);
        let (ok, report) =
            check_regressions(&[r], &[("case-a".to_string(), 1000.0)], 30.0, Some((8, 1)));
        assert!(ok, "{report}");
        assert!(report.contains("MISS case-a"), "{report}");
        assert!(report.contains("8-cpu host"), "{report}");
        assert!(!report.contains("FAIL"), "{report}");
    }

    #[test]
    fn a_case_without_baseline_never_fails() {
        let r = HotloopResult::from_run("brand-new", "rr", "dtbl", EngineMode::Event, 1, 600, 1.0);
        let (ok, report) = check_regressions(&[r], &[("case-a".to_string(), 1000.0)], 30.0, None);
        assert!(ok, "{report}");
        assert!(report.contains("NEW  brand-new"), "{report}");
    }

    #[test]
    fn launch_storm_spills_and_is_engine_identical() {
        // A short storm must retire one chain TB plus `leaves` leaf TBs
        // per generation, overflow the two-slot buffer, and produce
        // identical statistics under both engines.
        let run = |engine: EngineMode| {
            let mut cfg = GpuConfig::small_test();
            cfg.engine_mode = engine;
            cfg.launch_limits = storm_limits();
            let model = LaunchModelKind::Cdp;
            let source = LaunchStormSource { depth: 5, leaves: 3 };
            let mut sim = Simulator::new(cfg, Box::new(source))
                .with_launch_model(model.build(LaunchLatency::default_for(model)));
            sim.launch_host_kernel(KernelKindId(0), 0, 1, ResourceReq::new(32, 8, 0))
                .expect("storm root launches");
            sim.run_to_completion().expect("storm completes")
        };
        let event = run(EngineMode::Event);
        let stepped = run(EngineMode::CycleStepped);
        assert_eq!(event, stepped);
        // Generations 0..4 each retire one chain TB; 1..4 add 3 leaves.
        assert_eq!(event.tb_records.len(), 5 + 4 * 3);
        let spills = event
            .launch_counters
            .iter()
            .find(|(k, _)| *k == "spill_events")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(spills > 0, "storm never overflowed the buffer: {:?}", event.launch_counters);
        // Every link pays at least the CDP base latency.
        assert!(event.cycles > 4 * 2500, "cycles = {}", event.cycles);
    }
}
