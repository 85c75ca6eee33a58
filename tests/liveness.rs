//! Randomized liveness suite for the hardened launch path.
//!
//! Every scenario here — seed-derived fault plans, finite launch-path
//! capacities under both overflow policies, and permanently killed SMXs
//! — must end in one of exactly two ways: completed statistics, or a
//! structured [`SimError`]. A panic or a silent spin to `max_cycles`
//! fails the suite. This is the executable form of the robustness
//! contract in docs/ARCHITECTURE.md ("Robustness").

use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::{EngineMode, GpuConfig, LaunchLimits, OverflowPolicy};
use gpu_sim::engine::Simulator;
use gpu_sim::error::SimError;
use gpu_sim::fault::{Fault, FaultPlan};
use gpu_sim::program::{KernelKindId, ProgramSource, TbOp, TbProgram};
use gpu_sim::stats::SimStats;
use gpu_sim::types::SmxId;
use sim_metrics::harness::SchedulerKind;
use workloads::{suite, Scale, SharedSource, Workload};

fn base_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::small_test();
    // Fault windows compose with idle-cycle skipping (their edges are
    // wake-up sources), so faulted runs stay quick; keep the watchdog window
    // small anyway so a genuinely wedged run fails fast — the wedge
    // jump lands on the deadline instead of grinding toward max_cycles.
    cfg.watchdog_window = Some(100_000);
    cfg
}

fn build_sim(
    w: &Arc<dyn Workload>,
    model: LaunchModelKind,
    sched: SchedulerKind,
    cfg: &GpuConfig,
) -> Simulator {
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(sched.build(cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)));
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("host launch");
    }
    sim
}

/// Runs one faulted scenario to its structured end. Completion must
/// leave real statistics; an error must be one of the liveness-layer
/// variants, never an engine invariant violation.
fn run_faulted(
    w: &Arc<dyn Workload>,
    model: LaunchModelKind,
    sched: SchedulerKind,
    cfg: &GpuConfig,
    plan: FaultPlan,
) -> Result<SimStats, SimError> {
    let seed = plan.seed();
    let mut sim = build_sim(w, model, sched, cfg).with_fault_plan(plan);
    let result = sim.run_to_completion();
    match &result {
        Ok(stats) => {
            assert!(stats.cycles > 0, "seed {seed}: completed with no cycles");
        }
        Err(SimError::NoForwardProgress { suspects, .. }) => {
            assert!(!suspects.is_empty(), "seed {seed}: watchdog fired without naming suspects");
        }
        Err(SimError::CycleLimitExceeded { .. }) => {}
        Err(other) => panic!("seed {seed}: unexpected error class: {other}"),
    }
    result
}

/// Every seed-derived fault plan terminates with stats or a structured
/// error, across schedulers and both launch models.
#[test]
fn every_fault_seed_terminates_structurally() {
    let all = suite(Scale::Tiny);
    let cfg = base_cfg();
    let models = LaunchModelKind::all();
    let scheds = SchedulerKind::all();
    for seed in 0..16u64 {
        let w = &all[seed as usize % all.len()];
        let model = models[seed as usize % models.len()];
        let sched = scheds[seed as usize % scheds.len()];
        let plan = FaultPlan::from_seed(seed, cfg.num_smxs);
        let _ = run_faulted(w, model, sched, &cfg, plan);
    }
}

/// Fault seeds survive finite launch-path capacities under both
/// overflow policies: degradation composes with fault injection.
#[test]
fn fault_seeds_survive_finite_limits_under_both_policies() {
    let all = suite(Scale::Tiny);
    let policies =
        [OverflowPolicy::StallParent, OverflowPolicy::SpillVirtual { extra_latency: 200 }];
    for seed in 0..8u64 {
        for (pi, policy) in policies.iter().enumerate() {
            let mut cfg = base_cfg();
            cfg.launch_limits = LaunchLimits {
                kmu_capacity: Some(2),
                pending_launch_capacity: Some(2),
                smx_queue_capacity: Some(64),
                policy: *policy,
            };
            let w = &all[(seed as usize + pi) % all.len()];
            let plan = FaultPlan::from_seed(seed, cfg.num_smxs);
            let _ = run_faulted(w, LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind, &cfg, plan);
        }
    }
}

/// The same fault seed replays bit-identically: completed runs produce
/// equal statistics, failed runs produce the same error.
#[test]
fn fault_seeds_replay_bit_identically() {
    let all = suite(Scale::Tiny);
    let cfg = base_cfg();
    for seed in [3u64, 7, 11] {
        let w = &all[seed as usize % all.len()];
        let run = || {
            run_faulted(
                w,
                LaunchModelKind::Dtbl,
                SchedulerKind::AdaptiveBind,
                &cfg,
                FaultPlan::from_seed(seed, cfg.num_smxs),
            )
        };
        match (run(), run()) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed}: stats diverged between replays"),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "seed {seed}: errors diverged")
            }
            (a, b) => panic!("seed {seed}: outcome class diverged: {a:?} vs {b:?}"),
        }
    }
}

/// Killing every SMX forever wedges the machine; the watchdog must fire
/// with named suspects instead of spinning to the cycle limit.
#[test]
fn permanently_killed_smxs_trip_the_watchdog() {
    let all = suite(Scale::Tiny);
    let w = all.first().expect("non-empty suite");
    let mut cfg = base_cfg();
    cfg.watchdog_window = Some(20_000);
    let faults = (0..cfg.num_smxs)
        .map(|i| Fault::KillSmx { smx: SmxId(i), from: 0, until: u64::MAX })
        .collect();
    let mut sim = build_sim(w, LaunchModelKind::Dtbl, SchedulerKind::RoundRobin, &cfg)
        .with_fault_plan(FaultPlan::new(faults));
    match sim.run_to_completion() {
        Err(SimError::NoForwardProgress { window, cycle, suspects }) => {
            assert_eq!(window, 20_000);
            assert!(cycle >= window, "watchdog fired before a full window elapsed");
            assert!(!suspects.is_empty(), "watchdog fired without naming stuck TBs");
        }
        other => panic!("expected NoForwardProgress, got {other:?}"),
    }
}

/// A legitimate idle stretch far longer than the watchdog window must
/// not trip it: an event-engine jump lands on real machine progress by
/// construction, so it pushes the deadline past itself. CDP launch
/// latencies (2500+ cycles) dwarf the 1000-cycle window here; the run
/// must still complete in both engine modes, skipping under the event
/// engine and stepping every cycle under the reference.
#[test]
fn legit_idle_longer_than_watchdog_window_completes() {
    let all = suite(Scale::Tiny);
    let w = all.first().expect("non-empty suite");
    for engine in [EngineMode::Event, EngineMode::CycleStepped] {
        let mut cfg = base_cfg();
        cfg.engine_mode = engine;
        cfg.watchdog_window = Some(1_000);
        let mut sim = build_sim(w, LaunchModelKind::Cdp, SchedulerKind::RoundRobin, &cfg);
        let stats = sim
            .run_to_completion()
            .unwrap_or_else(|e| panic!("{engine}: legit idle tripped the engine: {e}"));
        assert!(stats.cycles > 2_500, "{engine}: run never crossed a launch-latency window");
        // Only the event engine skips; the reference steps every cycle.
        let skipped = sim.fast_forwarded_cycles();
        assert_eq!(skipped > 0, engine == EngineMode::Event, "{engine}: skipped {skipped}");
    }
}

/// A genuine wedge arising mid-run — every SMX killed forever after the
/// machine has fully dispatched its work — must trip the watchdog even
/// though the engine is fully quiescent (no wake-up left anywhere, no
/// TB awaiting dispatch): the wedge jump deliberately lands on the
/// watchdog deadline, where the progress compare fires. The event
/// engine must jump there and diagnose the identical wedge at the
/// identical cycle as the never-skipping reference.
#[test]
fn wedge_during_quiescence_still_trips_watchdog() {
    /// Four long-running compute TBs: all dispatched within a few
    /// cycles, all still resident when the kill window opens.
    struct FourLongTbs;
    impl ProgramSource for FourLongTbs {
        fn tb_program(&self, _kind: KernelKindId, _param: u64, _tb: u32) -> TbProgram {
            TbProgram::new(vec![TbOp::Compute(500)])
        }
    }
    let mut outcomes = Vec::new();
    for engine in [EngineMode::Event, EngineMode::CycleStepped] {
        let mut cfg = base_cfg();
        cfg.engine_mode = engine;
        cfg.watchdog_window = Some(20_000);
        let faults = (0..cfg.num_smxs)
            .map(|i| Fault::KillSmx { smx: SmxId(i), from: 20, until: u64::MAX })
            .collect();
        let mut sim = Simulator::new(cfg.clone(), Box::new(FourLongTbs))
            .with_fault_plan(FaultPlan::new(faults));
        sim.launch_host_kernel(KernelKindId(0), 0, 4, gpu_sim::kernel::ResourceReq::new(32, 8, 0))
            .expect("host launch");
        match sim.run_to_completion() {
            Err(SimError::NoForwardProgress { window, cycle, suspects }) => {
                assert_eq!(window, 20_000);
                assert!(cycle >= window, "{engine}: watchdog fired before a full window");
                assert!(!suspects.is_empty(), "{engine}: watchdog named no suspects");
                outcomes.push((cycle, suspects.len()));
            }
            other => panic!("{engine}: expected NoForwardProgress, got {other:?}"),
        }
        // The event engine jumps straight to the deadline; the
        // reference grinds there cycle by cycle and must agree.
        let skipped = sim.fast_forwarded_cycles();
        assert_eq!(skipped > 0, engine == EngineMode::Event, "{engine}: skipped {skipped}");
    }
    assert_eq!(outcomes[0], outcomes[1], "engines diagnosed the wedge differently");
}

/// The one documented behavioural difference between the engines
/// (docs/ARCHITECTURE.md, "Idle-cycle skipping"): a single legitimate op
/// that idles the machine for longer than `watchdog_window`. The
/// reference steps every quiet cycle, sees no progress across a full
/// window, and trips the watchdog; the event engine's jump lands on the
/// op's completion, which re-arms the deadline past it, so the run
/// completes.
#[test]
fn one_long_idle_op_trips_only_the_reference_watchdog() {
    struct OneLongOp;
    impl ProgramSource for OneLongOp {
        fn tb_program(&self, _kind: KernelKindId, _param: u64, _tb: u32) -> TbProgram {
            TbProgram::new(vec![TbOp::Compute(5_000)])
        }
    }
    for engine in [EngineMode::Event, EngineMode::CycleStepped] {
        let mut cfg = base_cfg();
        cfg.engine_mode = engine;
        cfg.watchdog_window = Some(1_000);
        let mut sim = Simulator::new(cfg, Box::new(OneLongOp));
        sim.launch_host_kernel(KernelKindId(0), 0, 1, gpu_sim::kernel::ResourceReq::new(32, 8, 0))
            .expect("host launch");
        match (engine, sim.run_to_completion()) {
            (EngineMode::CycleStepped, Err(SimError::NoForwardProgress { window, .. })) => {
                assert_eq!(window, 1_000);
            }
            (EngineMode::Event, Ok(stats)) => {
                assert!(stats.cycles > 5_000, "the op's idle stretch was not simulated");
                assert_eq!(stats.tb_records.len(), 1);
            }
            (engine, other) => panic!("{engine}: unexpected outcome {other:?}"),
        }
    }
}

/// Both fault layers at once: simulator-level fault plans (seed-derived
/// per cell) composed with harness-level injections (a panicking cell,
/// a wedged cell). The harness layer must recover independently — its
/// transient faults retry away without disturbing what the simulator
/// layer produces — so the composed sweep ends exactly like a sweep
/// under simulator faults alone, at any `--jobs`.
#[test]
fn composed_sim_and_harness_faults_recover_independently() {
    use laperm_bench::sweep::matrix_cells;
    use laperm_bench::{run_matrix_cells_resilient, HarnessFault, HarnessFaultPlan, Resilience};

    let cells = matrix_cells(Scale::Tiny, 0);
    let subset = &cells[..8];
    let cfg = base_cfg();
    let sim_only =
        Resilience { retries: 2, backoff_ms: 0, sim_fault_seed: Some(42), ..Resilience::default() };
    let composed = Resilience {
        faults: Some(HarnessFaultPlan::new(vec![
            HarnessFault::PanicCell { cell: 1, attempts: 1 },
            HarnessFault::WedgeCell { cell: 4, attempts: 2 },
        ])),
        ..sim_only.clone()
    };

    let baseline = run_matrix_cells_resilient(subset, 4, &cfg, "tiny/42", &sim_only)
        .expect("sim-fault sweep")
        .0;
    // Every simulator-layer end is structured (the core liveness
    // contract), and the attribution fields survive the sweep layer.
    for f in &baseline.failures {
        assert!(
            f.error.contains("no forward progress") || f.error.contains("cycle limit"),
            "unstructured sim-fault end: {}",
            f.error
        );
        assert_eq!(f.attempts, 3, "deterministic sim fault must exhaust the retry budget");
    }

    for jobs in [1, 4] {
        let (outcome, _) = run_matrix_cells_resilient(subset, jobs, &cfg, "tiny/42", &composed)
            .expect("composed sweep");
        for f in &outcome.failures {
            assert!(
                !f.error.contains("injected"),
                "jobs {jobs}: transient harness fault leaked into the report: {}",
                f.error
            );
        }
        assert_eq!(
            outcome.records, baseline.records,
            "jobs {jobs}: harness faults disturbed simulator-layer records"
        );
        assert_eq!(
            outcome.failures, baseline.failures,
            "jobs {jobs}: harness faults disturbed simulator-layer failures"
        );
    }
}

/// A transient full-dispatch-queue window only delays the run: the
/// machine drains the backlog afterwards and completes with the same
/// work done.
#[test]
fn transient_queue_full_window_is_survivable() {
    let all = suite(Scale::Tiny);
    let w = all.first().expect("non-empty suite");
    let cfg = base_cfg();
    let healthy = {
        let mut sim = build_sim(w, LaunchModelKind::Cdp, SchedulerKind::RoundRobin, &cfg);
        sim.run_to_completion().expect("healthy run")
    };
    let plan = FaultPlan::new(vec![Fault::QueueFull { from: 100, until: 3_000 }]);
    let mut sim =
        build_sim(w, LaunchModelKind::Cdp, SchedulerKind::RoundRobin, &cfg).with_fault_plan(plan);
    let faulted = sim.run_to_completion().expect("faulted run should still complete");
    assert_eq!(
        faulted.tb_records.len(),
        healthy.tb_records.len(),
        "queue-full window changed the amount of work completed"
    );
    assert!(faulted.cycles >= healthy.cycles, "stalling dispatch cannot speed the run up");
}
