//! Cross-engine equivalence: the event-driven engine, which skips idle
//! cycles, and the cycle-stepped reference, which steps every SMX on
//! every cycle, are two executions of the *same* machine and must be
//! observationally indistinguishable. This suite samples random
//! configuration cells — workload × scheduler × launch model × optional
//! fault seed × optional finite launch-path limits — runs each under
//! both [`EngineMode`]s, and requires the outcomes to match exactly: completed runs produce equal [`SimStats`], failed
//! runs produce the same error. A CDP launch storm drives a deep relay
//! through a two-slot pending-launch buffer that spills, the one shape
//! the suite cells do not reach. A last test renders the full
//! tiny-scale sweep document (`repro.json`) once per engine and
//! compares the JSON byte-for-byte; the CI `repro-gate` job makes the
//! same diff at ci scale, text report included.

use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::{EngineMode, GpuConfig, LaunchLimits, OverflowPolicy};
use gpu_sim::engine::Simulator;
use gpu_sim::fault::FaultPlan;
use gpu_sim::kernel::ResourceReq;
use gpu_sim::program::{KernelKindId, LaunchSpec, ProgramSource, TbOp, TbProgram};
use gpu_sim::stats::SimStats;
use laperm_bench::sweep::SweepDoc;
use laperm_bench::{ProgramPath, Resilience};
use sim_metrics::harness::SchedulerKind;
use workloads::{suite, Scale, SharedSource, Workload};

/// Minimal xorshift64 PRNG: the cell sample is deterministic, so a
/// failure names a reproducible cell.
struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One sampled configuration cell. `Debug` output is the reproduction
/// recipe printed on mismatch.
#[derive(Debug, Clone)]
struct Cell {
    workload_idx: usize,
    model: LaunchModelKind,
    sched: SchedulerKind,
    fault_seed: Option<u64>,
    limits: Option<LaunchLimits>,
}

fn sample_cell(rng: &mut XorShift64, num_workloads: usize) -> Cell {
    let models = LaunchModelKind::all();
    let scheds = SchedulerKind::all();
    let limits = match rng.next() % 3 {
        0 => None,
        1 => Some(LaunchLimits {
            kmu_capacity: Some(2),
            pending_launch_capacity: Some(2),
            smx_queue_capacity: Some(64),
            policy: OverflowPolicy::StallParent,
        }),
        _ => Some(LaunchLimits {
            kmu_capacity: Some(2),
            pending_launch_capacity: Some(2),
            smx_queue_capacity: Some(64),
            policy: OverflowPolicy::SpillVirtual { extra_latency: 200 },
        }),
    };
    Cell {
        workload_idx: rng.pick(num_workloads),
        model: models[rng.pick(models.len())],
        sched: scheds[rng.pick(scheds.len())],
        fault_seed: rng.next().is_multiple_of(2).then(|| rng.next() % 64),
        limits,
    }
}

/// Runs one cell under one engine mode to its structured end. Errors
/// are compared by display string: the variants carry the diagnosis
/// (wedge cycle, suspects), so equal strings mean an equal diagnosis.
fn run_cell(w: &Arc<dyn Workload>, cell: &Cell, engine: EngineMode) -> Result<SimStats, String> {
    let mut cfg = GpuConfig::small_test();
    cfg.num_smxs = 4;
    cfg.engine_mode = engine;
    // A wedged cell must fail structurally (and identically) in both
    // engines rather than spin to max_cycles.
    cfg.watchdog_window = Some(100_000);
    if let Some(limits) = cell.limits {
        cfg.launch_limits = limits;
    }
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(cell.sched.build(&cfg))
        .with_launch_model(cell.model.build(LaunchLatency::default_for(cell.model)));
    if let Some(seed) = cell.fault_seed {
        sim = sim.with_fault_plan(FaultPlan::from_seed(seed, cfg.num_smxs));
    }
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).map_err(|e| e.to_string())?;
    }
    sim.run_to_completion().map_err(|e| e.to_string())
}

/// Property: any sampled cell ends the same way — equal statistics or
/// an equal structured error — under both engines.
#[test]
fn random_cells_are_engine_equivalent() {
    let all = suite(Scale::Tiny);
    let mut rng = XorShift64(0x5EED_CE11_u64 | 1);
    let mut faulted = 0;
    for trial in 0..16 {
        let cell = sample_cell(&mut rng, all.len());
        let w = &all[cell.workload_idx];
        faulted += usize::from(cell.fault_seed.is_some());
        let event = run_cell(w, &cell, EngineMode::Event);
        let stepped = run_cell(w, &cell, EngineMode::CycleStepped);
        match (event, stepped) {
            (Ok(a), Ok(b)) => assert_eq!(
                a,
                b,
                "trial {trial}, {} {cell:?}: engines produced different statistics",
                w.full_name()
            ),
            (Err(a), Err(b)) => assert_eq!(
                a,
                b,
                "trial {trial}, {} {cell:?}: engines produced different errors",
                w.full_name()
            ),
            (a, b) => panic!(
                "trial {trial}, {} {cell:?}: outcome class diverged: \
                 event={a:?} vs cycle-stepped={b:?}",
                w.full_name()
            ),
        }
    }
    // The sample is only meaningful if it actually covered faulted
    // cells; with 16 coin flips this failing is a (fixed) seed problem,
    // not flakiness.
    assert!(faulted > 0, "the sample never drew a faulted cell");
}

/// A CDP launch storm: generation `param` of kernel kind 0 is a
/// single-TB kernel that computes briefly, then device-launches one
/// chain continuation plus `leaves` short-lived leaf kernels (leaf flag
/// in the parameter's high bit), until `depth` generations have run.
/// The burst overflows a finite pending-launch buffer, so most launches
/// sit in the memory-backed spill queue before entering the buffer —
/// simulated time is dominated by launch-path queueing, the shape the
/// event engine skips through.
struct LaunchStormSource {
    depth: u64,
    leaves: u32,
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

/// A short storm must retire one chain TB plus `leaves` leaf TBs per
/// generation, overflow the two-slot buffer, and produce identical
/// statistics under both engines.
#[test]
fn launch_storm_spills_and_is_engine_identical() {
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

/// The rendered sweep document — the actual `repro.json` byte stream —
/// is identical under both engines at tiny scale. The document carries
/// no wall-clock or engine-mode fields, so byte equality means every
/// record of every matrix cell (cycles, rates, stalls, locality
/// provenance) is the same. CI repeats this comparison at ci scale.
#[test]
fn tiny_sweep_documents_are_byte_identical() {
    let render = |engine| {
        let res = Resilience::default();
        SweepDoc::build_resilient(Scale::Tiny, 0, 2, engine, ProgramPath::Generator, &res)
            .expect("generator sweep builds")
            .0
            .to_json()
    };
    let event = render(EngineMode::Event);
    let stepped = render(EngineMode::CycleStepped);
    if event != stepped {
        for (i, (a, b)) in event.lines().zip(stepped.lines()).enumerate() {
            assert_eq!(a, b, "repro.json line {} differs between engines", i + 1);
        }
        panic!("repro.json documents differ in length between engines");
    }
}
