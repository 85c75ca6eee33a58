//! Cross-layer invariants of the full trace stream: scheduler events,
//! engine events, and final statistics all tell one consistent story,
//! the Perfetto export of a real run validates, and its run summary
//! renders every profiler block and counter.

use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::stats::SimStats;
use gpu_sim::trace::{TraceEvent, TraceRecord, VecSink};
use sim_metrics::harness::SchedulerKind;
use sim_metrics::report::run_summary;
use sim_metrics::{perfetto_json, validate_trace};
use workloads::{suite, Scale, SharedSource, Workload};

const NUM_SMXS: u16 = 4;

/// One traced run; `profiled` turns on all three profilers.
fn traced(
    w: &Arc<dyn Workload>,
    model: LaunchModelKind,
    sched: SchedulerKind,
    profiled: bool,
) -> (Vec<TraceRecord>, SimStats) {
    let mut cfg = GpuConfig::small_test();
    cfg.num_smxs = NUM_SMXS;
    cfg.profile_locality = profiled;
    cfg.profile_engine = profiled;
    cfg.profile_latency = profiled;
    let sink = VecSink::new();
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(sched.build(&cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)))
        .with_trace(Box::new(sink.clone()));
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("launch");
    }
    let stats = sim.run_to_completion().expect("run to completion");
    (sink.records(), stats)
}

#[test]
fn tb_completes_on_its_dispatch_smx() {
    let all = suite(Scale::Tiny);
    for w in all.iter().take(3) {
        for sched in SchedulerKind::all() {
            let (records, _) = traced(w, LaunchModelKind::Dtbl, sched, false);
            let mut dispatch_smx = std::collections::HashMap::new();
            for r in &records {
                match r.event {
                    TraceEvent::TbDispatched { tb, smx } => {
                        assert!(
                            dispatch_smx.insert(tb, smx).is_none(),
                            "{tb} dispatched twice under {sched}"
                        );
                    }
                    TraceEvent::TbCompleted { tb, smx } => {
                        assert_eq!(
                            dispatch_smx.get(&tb),
                            Some(&smx),
                            "{tb} completed on a different SMX than it was dispatched to"
                        );
                    }
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn trace_cycles_never_decrease() {
    let all = suite(Scale::Tiny);
    for w in all.iter().take(3) {
        let (records, _) = traced(w, LaunchModelKind::Cdp, SchedulerKind::AdaptiveBind, false);
        for pair in records.windows(2) {
            assert!(
                pair[0].cycle <= pair[1].cycle,
                "trace went backwards: {} then {}",
                pair[0].cycle,
                pair[1].cycle
            );
        }
    }
}

#[test]
fn traced_steals_match_scheduler_counter() {
    let all = suite(Scale::Tiny);
    let mut total_steals = 0;
    for w in all.iter().take(3) {
        let (records, stats) = traced(w, LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind, false);
        let traced_steals =
            records.iter().filter(|r| matches!(r.event, TraceEvent::Stage3Steal { .. })).count()
                as u64;
        let counted = stats
            .scheduler_counters
            .iter()
            .find(|(k, _)| *k == "stage3_steals")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(
            traced_steals,
            counted,
            "{}: trace shows {traced_steals} steals, counter says {counted}",
            w.full_name()
        );
        total_steals += counted;
    }
    assert!(total_steals > 0, "no steal ever happened across the sweep");
}

#[test]
fn every_laperm_dispatch_dequeues_exactly_once() {
    let all = suite(Scale::Tiny);
    for w in all.iter().take(3) {
        let (records, stats) = traced(w, LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind, false);
        let dequeues =
            records.iter().filter(|r| matches!(r.event, TraceEvent::QueueDequeued { .. })).count();
        assert_eq!(
            dequeues,
            stats.tb_records.len(),
            "{}: every dispatched TB leaves a queue exactly once",
            w.full_name()
        );
        let enqueues =
            records.iter().filter(|r| matches!(r.event, TraceEvent::QueueEnqueued { .. })).count();
        assert!(enqueues > 0, "no batch was ever enqueued");
    }
}

#[test]
fn perfetto_export_of_real_run_validates() {
    let all = suite(Scale::Tiny);
    let w = all.iter().find(|w| w.full_name() == "bfs-citation").expect("bfs in suite");
    let (records, stats) = traced(w, LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind, false);
    let json = perfetto_json(&records, &stats, &[], NUM_SMXS);
    let check = validate_trace(&json).expect("trace validates");
    assert_eq!(check.smx_tracks, usize::from(NUM_SMXS));
    assert_eq!(check.spans, stats.tb_records.len());
    assert!(check.counters > 0, "no queue-depth counter samples");
    assert!(check.instants > 0, "no instant events");
}

#[test]
fn summary_of_real_run_names_every_block_and_counter() {
    let all = suite(Scale::Tiny);
    let w = all.iter().find(|w| w.full_name() == "bfs-citation").expect("bfs in suite");
    let (_, stats) = traced(w, LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind, true);
    let summary = run_summary(&stats);
    let cycles = format!(" {}", stats.cycles);
    assert!(summary.lines().any(|l| l.starts_with("cycles ") && l.ends_with(&cycles)), "{summary}");
    for block in ["child wait", "locality provenance", "engine self-profile", "latency attribution"]
    {
        assert!(summary.contains(block), "summary lacks {block}:\n{summary}");
    }
    let counters: Vec<&str> =
        stats.scheduler_counters.iter().chain(&stats.launch_counters).map(|(k, _)| *k).collect();
    assert!(counters.contains(&"stage3_steals") && counters.contains(&"dtbl_table_overflows"));
    for name in counters {
        assert!(summary.lines().any(|l| l.starts_with(name)), "summary lacks {name}:\n{summary}");
    }
}
