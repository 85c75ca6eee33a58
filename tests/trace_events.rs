//! Integration tests of the scheduling-event trace: the event stream is
//! complete, ordered, and consistent with the run's statistics.

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::kernel::ResourceReq;
use gpu_sim::program::{KernelKindId, LaunchSpec, ProgramSource, TbOp, TbProgram};
use gpu_sim::trace::{TraceEvent, VecSink};

const PARENT: KernelKindId = KernelKindId(0);
const CHILD: KernelKindId = KernelKindId(1);

struct TwoLevel;

impl ProgramSource for TwoLevel {
    fn tb_program(&self, kind: KernelKindId, _param: u64, tb_index: u32) -> TbProgram {
        match kind {
            PARENT => {
                let mut ops = vec![TbOp::Compute(10)];
                if tb_index.is_multiple_of(2) {
                    ops.push(TbOp::Launch(LaunchSpec {
                        kind: CHILD,
                        param: u64::from(tb_index),
                        num_tbs: 2,
                        req: ResourceReq::new(32, 8, 0),
                    }));
                }
                // Keep the parent kernel alive long enough for DTBL
                // groups to coalesce onto its KDU entry.
                ops.push(TbOp::Compute(400));
                TbProgram::new(ops)
            }
            _ => TbProgram::new(vec![TbOp::Compute(10)]),
        }
    }
}

fn traced_run(model: LaunchModelKind) -> (Vec<gpu_sim::trace::TraceRecord>, gpu_sim::SimStats) {
    let cfg = GpuConfig::small_test();
    let sink = VecSink::new();
    let handle = sink.clone();
    let mut sim = Simulator::new(cfg, Box::new(TwoLevel))
        .with_launch_model(model.build(LaunchLatency::uniform(50)))
        .with_trace(Box::new(sink));
    sim.launch_host_kernel(PARENT, 0, 8, ResourceReq::new(32, 8, 0)).unwrap();
    let stats = sim.run_to_completion().unwrap();
    (handle.records(), stats)
}

#[test]
fn every_dispatch_has_a_completion() {
    let (records, stats) = traced_run(LaunchModelKind::Dtbl);
    let dispatches: Vec<_> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::TbDispatched { tb, .. } => Some(tb),
            _ => None,
        })
        .collect();
    let completions: Vec<_> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::TbCompleted { tb, .. } => Some(tb),
            _ => None,
        })
        .collect();
    assert_eq!(dispatches.len(), stats.tb_records.len());
    assert_eq!(completions.len(), dispatches.len());
    let mut d = dispatches.clone();
    let mut c = completions.clone();
    d.sort();
    c.sort();
    assert_eq!(d, c, "dispatch/completion multisets differ");
}

#[test]
fn events_are_time_ordered() {
    let (records, _) = traced_run(LaunchModelKind::Dtbl);
    for pair in records.windows(2) {
        assert!(pair[0].cycle <= pair[1].cycle);
    }
}

#[test]
fn completion_never_precedes_dispatch_per_tb() {
    let (records, _) = traced_run(LaunchModelKind::Cdp);
    use std::collections::HashMap;
    let mut dispatched_at = HashMap::new();
    for r in &records {
        match r.event {
            TraceEvent::TbDispatched { tb, .. } => {
                assert!(dispatched_at.insert(tb, r.cycle).is_none(), "{tb} dispatched twice");
            }
            TraceEvent::TbCompleted { tb, .. } => {
                let d = dispatched_at.get(&tb).expect("completed TB was dispatched");
                assert!(r.cycle >= *d);
            }
            _ => {}
        }
    }
}

#[test]
fn dtbl_traces_coalesced_groups_and_cdp_traces_kernels() {
    let (dtbl, _) = traced_run(LaunchModelKind::Dtbl);
    assert!(dtbl.iter().any(|r| matches!(r.event, TraceEvent::GroupCoalesced { .. })));

    let (cdp, _) = traced_run(LaunchModelKind::Cdp);
    let queued = cdp.iter().filter(|r| matches!(r.event, TraceEvent::KernelQueued { .. })).count();
    // 1 host kernel + 4 launching parents' device kernels.
    assert_eq!(queued, 5);
    assert!(!cdp.iter().any(|r| matches!(r.event, TraceEvent::GroupCoalesced { .. })));
}

#[test]
fn launch_events_match_launching_parents() {
    let (records, _) = traced_run(LaunchModelKind::Dtbl);
    let launches: Vec<_> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::LaunchIssued { by, num_tbs } => Some((by, num_tbs)),
            _ => None,
        })
        .collect();
    assert_eq!(launches.len(), 4);
    for (by, num_tbs) in launches {
        assert_eq!(by.index % 2, 0, "only even parents launch");
        assert_eq!(num_tbs, 2);
    }
}

#[test]
fn rendered_trace_is_readable() {
    let (records, _) = traced_run(LaunchModelKind::Dtbl);
    let text: String = records.iter().map(|r| format!("{}\n", r.event)).collect();
    assert_eq!(text.lines().count(), records.len());
    assert!(text.contains("dispatched to SMX"));
    assert!(text.contains("completed on SMX"));
}
