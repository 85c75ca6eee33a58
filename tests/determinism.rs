//! End-to-end determinism: the simulator is a pure function of its
//! inputs, and the event engine's idle-cycle skipping changes *no*
//! observable statistic — it only skips cycles that would have been
//! no-ops, so every run matches the never-skipping cycle-stepped
//! reference (see "Idle-cycle skipping" in docs/ARCHITECTURE.md).

use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::{EngineMode, GpuConfig, LaunchLimits, OverflowPolicy};
use gpu_sim::engine::Simulator;
use gpu_sim::fault::{Fault, FaultPlan};
use gpu_sim::stats::SimStats;
use gpu_sim::trace::{TraceEvent, TraceRecord, VecSink};
use gpu_sim::types::SmxId;
use sim_metrics::harness::SchedulerKind;
use workloads::{suite, Scale, SharedSource, Workload};

/// Runs one workload to completion and returns its full statistics plus
/// the number of idle cycles the engine skipped.
fn run(
    w: &Arc<dyn Workload>,
    model: LaunchModelKind,
    sched: SchedulerKind,
    engine: EngineMode,
) -> (SimStats, u64) {
    let mut cfg = GpuConfig::small_test();
    cfg.num_smxs = 4;
    cfg.engine_mode = engine;
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(sched.build(&cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)));
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("launch");
    }
    let stats = sim.run_to_completion().expect("run to completion");
    (stats, sim.fast_forwarded_cycles())
}

/// [`run`] with a trace sink attached, returning the event stream too.
fn run_traced(
    w: &Arc<dyn Workload>,
    model: LaunchModelKind,
    sched: SchedulerKind,
    engine: EngineMode,
) -> (SimStats, Vec<TraceRecord>) {
    let mut cfg = GpuConfig::small_test();
    cfg.num_smxs = 4;
    cfg.engine_mode = engine;
    let sink = VecSink::new();
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(sched.build(&cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)))
        .with_trace(Box::new(sink.clone()));
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("launch");
    }
    let stats = sim.run_to_completion().expect("run to completion");
    (stats, sink.records())
}

#[test]
fn repeated_runs_are_bit_identical() {
    let all = suite(Scale::Tiny);
    for w in all.iter().take(3) {
        for sched in SchedulerKind::all() {
            let (a, _) = run(w, LaunchModelKind::Dtbl, sched, EngineMode::Event);
            let (b, _) = run(w, LaunchModelKind::Dtbl, sched, EngineMode::Event);
            assert_eq!(a, b, "{} under {sched} diverged between runs", w.full_name());
        }
    }
}

#[test]
fn fast_forward_changes_no_statistic() {
    let all = suite(Scale::Tiny);
    let mut total_skipped = 0;
    for w in all.iter().take(3) {
        for model in LaunchModelKind::all() {
            for sched in SchedulerKind::all() {
                let (on, skipped) = run(w, model, sched, EngineMode::Event);
                let (off, none_skipped) = run(w, model, sched, EngineMode::CycleStepped);
                assert_eq!(
                    on,
                    off,
                    "{} under {model}/{sched}: skipping changed the statistics",
                    w.full_name()
                );
                assert_eq!(none_skipped, 0, "the cycle-stepped reference skipped a cycle");
                total_skipped += skipped;
            }
        }
    }
    // The invariant is only meaningful if skipping actually engaged
    // somewhere in the sweep (CDP launch latencies leave the machine
    // idle while a child kernel matures).
    assert!(total_skipped > 0, "the event engine never skipped a cycle");
}

/// [`run`] with finite launch-path limits under a chosen overflow
/// policy.
fn run_limited(
    w: &Arc<dyn Workload>,
    model: LaunchModelKind,
    sched: SchedulerKind,
    policy: OverflowPolicy,
    engine: EngineMode,
) -> (SimStats, u64) {
    let mut cfg = GpuConfig::small_test();
    cfg.num_smxs = 4;
    cfg.engine_mode = engine;
    cfg.launch_limits = LaunchLimits {
        kmu_capacity: Some(2),
        pending_launch_capacity: Some(2),
        smx_queue_capacity: Some(64),
        policy,
    };
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(sched.build(&cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)));
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("launch");
    }
    let stats = sim.run_to_completion().expect("run to completion");
    (stats, sim.fast_forwarded_cycles())
}

/// Backpressure determinism: with finite launch-path capacities under
/// either overflow policy, skipping still changes no statistic —
/// stalled parents, spilled launches, and backlogged kernels all resolve
/// on the same cycles whether idle gaps were stepped or jumped.
#[test]
fn finite_limits_are_fast_forward_invariant() {
    let all = suite(Scale::Tiny);
    let policies =
        [OverflowPolicy::StallParent, OverflowPolicy::SpillVirtual { extra_latency: 200 }];
    for w in all.iter().take(2) {
        for model in LaunchModelKind::all() {
            for policy in policies {
                let sched = SchedulerKind::AdaptiveBind;
                let (on, _) = run_limited(w, model, sched, policy, EngineMode::Event);
                let (off, skipped) = run_limited(w, model, sched, policy, EngineMode::CycleStepped);
                assert_eq!(
                    on,
                    off,
                    "{} under {model}/{}: skipping changed statistics with finite limits",
                    w.full_name(),
                    policy.name()
                );
                assert_eq!(skipped, 0, "the cycle-stepped reference skipped a cycle");
            }
        }
    }
}

/// Finite-limit runs are repeatable: the same configuration produces
/// bit-identical statistics on every execution.
#[test]
fn finite_limit_runs_are_bit_identical() {
    let all = suite(Scale::Tiny);
    let w = all.first().expect("non-empty suite");
    for policy in [OverflowPolicy::StallParent, OverflowPolicy::SpillVirtual { extra_latency: 200 }]
    {
        let run = || {
            let sched = SchedulerKind::SmxBind;
            run_limited(w, LaunchModelKind::Dtbl, sched, policy, EngineMode::Event).0
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "{} diverged between runs", policy.name());
    }
}

/// Attaching a fault plan must not silently disable skipping: a
/// faulted event-engine run whose launch latencies leave long idle
/// stretches still skips them (the fault windows become wake-up edges,
/// not an off-switch), and the skip changes no statistic against the
/// never-skipping reference.
#[test]
fn faulted_runs_keep_fast_forward_active() {
    let all = suite(Scale::Tiny);
    let w = all.first().expect("non-empty suite");
    let run = |engine: EngineMode| {
        let mut cfg = GpuConfig::small_test();
        cfg.num_smxs = 4;
        cfg.engine_mode = engine;
        let model = LaunchModelKind::Cdp;
        let plan = FaultPlan::new(vec![
            Fault::QueueFull { from: 100, until: 3_000 },
            Fault::KillSmx { smx: SmxId(1), from: 200, until: 9_000 },
        ]);
        let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
            .with_scheduler(SchedulerKind::AdaptiveBind.build(&cfg))
            .with_launch_model(model.build(LaunchLatency::default_for(model)))
            .with_fault_plan(plan);
        for hk in w.host_kernels() {
            sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("launch");
        }
        let stats = sim.run_to_completion().expect("faulted run completes");
        (stats, sim.fast_forwarded_cycles())
    };
    let (on, skipped) = run(EngineMode::Event);
    let (off, none_skipped) = run(EngineMode::CycleStepped);
    assert_eq!(on, off, "skipping changed the statistics of a faulted run");
    assert!(skipped > 0, "fault plan silently disabled skipping");
    assert_eq!(none_skipped, 0, "the cycle-stepped reference skipped a cycle");
}

#[test]
fn fast_forward_preserves_trace_stream() {
    // Beyond the aggregate statistics: the *event stream* is identical
    // under both engines, modulo the FastForward markers the event
    // engine's skips emit. Every other event lands on the same cycle
    // with the same payload.
    let all = suite(Scale::Tiny);
    let mut jumps = 0;
    for w in all.iter().take(3) {
        for model in LaunchModelKind::all() {
            for sched in [SchedulerKind::RoundRobin, SchedulerKind::AdaptiveBind] {
                let (_, on) = run_traced(w, model, sched, EngineMode::Event);
                let (_, off) = run_traced(w, model, sched, EngineMode::CycleStepped);
                jumps +=
                    on.iter().filter(|r| matches!(r.event, TraceEvent::FastForward { .. })).count();
                let on_filtered: Vec<&TraceRecord> = on
                    .iter()
                    .filter(|r| !matches!(r.event, TraceEvent::FastForward { .. }))
                    .collect();
                assert!(
                    !off.iter().any(|r| matches!(r.event, TraceEvent::FastForward { .. })),
                    "FastForward emitted by the cycle-stepped reference"
                );
                assert_eq!(on_filtered.len(), off.len());
                for (a, b) in on_filtered.iter().zip(&off) {
                    assert_eq!(
                        **a,
                        *b,
                        "{} under {model}/{sched}: trace streams diverge",
                        w.full_name()
                    );
                }
            }
        }
    }
    assert!(jumps > 0, "no FastForward event was ever traced");
}
