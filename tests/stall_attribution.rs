//! The stall-cause accounting invariant: every SMX cycle is attributed
//! to exactly one bucket — busy, or one of the five `StallCause`s — so
//! per SMX `busy + stalls.total() == cycles`, whether the engine skips
//! idle cycles (event) or steps every one (cycle-stepped).

use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::{EngineMode, GpuConfig};
use gpu_sim::engine::Simulator;
use gpu_sim::stats::SimStats;
use sim_metrics::harness::SchedulerKind;
use workloads::{suite, Scale, SharedSource, Workload};

fn run(
    w: &Arc<dyn Workload>,
    model: LaunchModelKind,
    sched: SchedulerKind,
    engine: EngineMode,
) -> SimStats {
    let mut cfg = GpuConfig::small_test();
    cfg.num_smxs = 4;
    cfg.engine_mode = engine;
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(sched.build(&cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)));
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("launch");
    }
    sim.run_to_completion().expect("run to completion")
}

#[test]
fn every_smx_cycle_is_attributed() {
    let all = suite(Scale::Tiny);
    for w in all.iter().take(3) {
        for model in LaunchModelKind::all() {
            for sched in SchedulerKind::all() {
                for engine in [EngineMode::Event, EngineMode::CycleStepped] {
                    let stats = run(w, model, sched, engine);
                    assert_eq!(stats.smx_stalls.len(), stats.smx_busy_cycles.len());
                    for (i, (busy, stalls)) in
                        stats.smx_busy_cycles.iter().zip(&stats.smx_stalls).enumerate()
                    {
                        assert_eq!(
                            busy + stalls.total(),
                            stats.cycles,
                            "{} under {model}/{sched} ({engine}): SMX{i} attribution \
                             {busy} busy + {} stalled != {} cycles ({stalls:?})",
                            w.full_name(),
                            stalls.total(),
                            stats.cycles,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn stall_mix_reflects_workload_behavior() {
    let all = suite(Scale::Tiny);
    let w = all.iter().find(|w| w.full_name() == "bfs-citation").expect("bfs in suite");
    let stats = run(w, LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind, EngineMode::Event);
    let total = stats.total_stalls();
    // A graph traversal with global-memory loads must stall on memory
    // somewhere, and scoreboard waits (ALU latency) are unavoidable.
    assert!(total.memory_pending > 0, "no memory stalls in a memory-bound workload: {total:?}");
    assert!(total.scoreboard > 0, "no scoreboard stalls: {total:?}");
    // Dead cycles between kernel phases are charged to NoTb, never lost.
    assert!(total.no_tb > 0, "no idle (NoTb) cycles attributed: {total:?}");
}
