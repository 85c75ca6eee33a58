//! One-shot experiment runner: workload × launch model × TB scheduler.

use std::sync::Arc;
use std::time::Instant;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::cache::{ReuseClass, NUM_REUSE_CLASSES};
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::error::SimError;
use gpu_sim::fault::FaultPlan;
use gpu_sim::stats::{LatencyStats, Pow2Hist, SimStats, StallBreakdown, NUM_WAKE_SOURCES};
use gpu_sim::tb_sched::{RoundRobinScheduler, TbScheduler};
use laperm::{LaPermConfig, LaPermPolicy, LaPermScheduler};
use workloads::{SharedSource, Workload};

/// Which TB scheduler a run uses: the baseline or one of the three
/// LaPerm policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Baseline round-robin (Section II-B).
    RoundRobin,
    /// LaPerm TB-Pri.
    TbPri,
    /// LaPerm SMX-Bind.
    SmxBind,
    /// LaPerm Adaptive-Bind.
    AdaptiveBind,
}

impl SchedulerKind {
    /// All four schedulers, in the paper's figure order.
    pub fn all() -> [SchedulerKind; 4] {
        [
            SchedulerKind::RoundRobin,
            SchedulerKind::TbPri,
            SchedulerKind::SmxBind,
            SchedulerKind::AdaptiveBind,
        ]
    }

    /// Display name used in figures ("rr", "tb-pri", …).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "rr",
            SchedulerKind::TbPri => "tb-pri",
            SchedulerKind::SmxBind => "smx-bind",
            SchedulerKind::AdaptiveBind => "adaptive-bind",
        }
    }

    /// Builds the scheduler for a GPU configuration.
    pub fn build(self, cfg: &GpuConfig) -> Box<dyn TbScheduler> {
        let laperm_cfg = LaPermConfig::for_gpu(cfg);
        match self {
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
            SchedulerKind::TbPri => Box::new(LaPermScheduler::new(LaPermPolicy::TbPri, laperm_cfg)),
            SchedulerKind::SmxBind => {
                Box::new(LaPermScheduler::new(LaPermPolicy::SmxBind, laperm_cfg))
            }
            SchedulerKind::AdaptiveBind => {
                Box::new(LaPermScheduler::new(LaPermPolicy::AdaptiveBind, laperm_cfg))
            }
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Provenance summary of one profiled run: which scheduling relation
/// (see [`ReuseClass`]) produced each cache hit. Present only when the
/// run's [`GpuConfig::profile_locality`] was on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityRecord {
    /// Total L1 hits at profiling time (partition denominator).
    pub l1_hits: u64,
    /// Total L2 hits at profiling time.
    pub l2_hits: u64,
    /// L1 hits by reuse class, indexed by [`ReuseClass::index`].
    pub l1_class_hits: [u64; NUM_REUSE_CLASSES],
    /// L2 hits by reuse class.
    pub l2_class_hits: [u64; NUM_REUSE_CLASSES],
    /// L2 hits whose accessor ran on the installing SMX.
    pub l2_same_smx: u64,
    /// L2 hits crossing SMXs.
    pub l2_cross_smx: u64,
    /// L1 hits by child TBs placed on their parent's SMX (bound).
    pub bound_hits: u64,
    /// Of `bound_hits`, those on lines installed by the direct parent.
    pub bound_parent_child: u64,
    /// L1 hits by child TBs placed elsewhere (stolen / spilled).
    pub stolen_hits: u64,
    /// Of `stolen_hits`, those on lines installed by the direct parent.
    pub stolen_parent_child: u64,
    /// Mean install-to-hit distance of L1 parent-child hits, in cycles.
    pub l1_pc_mean_dist: f64,
    /// Mean install-to-hit distance of L2 parent-child hits, in cycles.
    pub l2_pc_mean_dist: f64,
}

impl LocalityRecord {
    /// Share of classified L1 hits in `class` (0 when none classified).
    pub fn l1_share(&self, class: ReuseClass) -> f64 {
        share(self.l1_class_hits[class.index()], self.l1_class_hits.iter().sum())
    }

    /// Share of classified L2 hits in `class`.
    pub fn l2_share(&self, class: ReuseClass) -> f64 {
        share(self.l2_class_hits[class.index()], self.l2_class_hits.iter().sum())
    }

    /// Parent-child fraction of bound child hits.
    pub fn bound_share(&self) -> f64 {
        share(self.bound_parent_child, self.bound_hits)
    }

    /// Parent-child fraction of stolen child hits.
    pub fn stolen_share(&self) -> f64 {
        share(self.stolen_parent_child, self.stolen_hits)
    }
}

fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// Engine introspection summary of one profiled run: the deterministic,
/// sim-side slice of [`gpu_sim::stats::EngineStats`] (wall-clock fields
/// stay out so profiled documents remain bit-reproducible). Present only
/// when the run's [`GpuConfig::profile_engine`] was on.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRecord {
    /// Total engine loop iterations (event-mode: ≪ `cycles`).
    pub loop_iterations: u64,
    /// Loop iterations by wake source, indexed by
    /// [`gpu_sim::stats::WakeSource::index`]; sums to `loop_iterations`.
    pub wake_counts: [u64; NUM_WAKE_SOURCES],
    /// Event-heap depth at each event-mode iteration.
    pub heap_depth: Pow2Hist,
    /// Due SMX wake-ups serviced per event-mode iteration.
    pub events_per_cycle: Pow2Hist,
    /// Lengths of cycle jumps (fast-forward and watchdog).
    pub jump_len: Pow2Hist,
}

/// Host-side cost of producing one sweep cell: wall time and (when
/// engine profiling was on) the component that dominated it. This is
/// telemetry, not a measurement of the simulated machine — it varies
/// run to run, so it compares equal to everything: sweep results stay
/// `==`-identical across job counts and hosts, and the repro.json
/// document never carries it.
#[derive(Debug, Clone, Default)]
pub struct HostCost {
    /// Wall nanoseconds spent simulating this cell.
    pub ns: u64,
    /// Stage with the largest sampled host-time share
    /// (see [`gpu_sim::stats::ENGINE_HOST_COMPONENTS`]); `None` when the
    /// run did not profile the engine.
    pub dominant_component: Option<String>,
}

impl PartialEq for HostCost {
    /// Always equal: host cost is nondeterministic telemetry and must
    /// not break the sweep executor's bit-identity guarantees.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// The measurements of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload display name.
    pub workload: String,
    /// "cdp" or "dtbl".
    pub launch_model: String,
    /// Scheduler display name.
    pub scheduler: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Overall L1 hit rate.
    pub l1_hit_rate: f64,
    /// Overall L2 hit rate.
    pub l2_hit_rate: f64,
    /// L1 hit rate of child-TB accesses only.
    pub child_l1_hit_rate: f64,
    /// Mean cycles between a child launch and its first TB dispatch.
    pub mean_child_wait: f64,
    /// Fraction of child TBs that ran on their direct parent's SMX.
    pub parent_smx_affinity: f64,
    /// Mean SMX busy fraction.
    pub smx_utilization: f64,
    /// Max/mean SMX busy cycles.
    pub load_imbalance: f64,
    /// Dynamic (child) TB count.
    pub dynamic_tbs: usize,
    /// Total TB count.
    pub total_tbs: usize,
    /// Work-stealing dispatches (Adaptive-Bind stage 3).
    pub steals: u64,
    /// On-chip priority-queue overflows.
    pub queue_overflows: u64,
    /// Dynamic batches pushed into the priority queues.
    pub queue_pushes: u64,
    /// Largest priority-queue occupancy observed in any set.
    pub max_queue_depth: u64,
    /// Modeled queue entry-search work in cycles.
    pub queue_search_cycles: u64,
    /// DTBL aggregation-table overflows (0 under CDP, which has no
    /// table). A non-zero value at paper scale means the 128-entry
    /// on-chip table saturated and launches paid the overflow penalty.
    pub table_overflows: u64,
    /// Stall cycles summed over all SMXs, by cause.
    pub stalls: StallBreakdown,
    /// Locality provenance summary (`None` unless the run profiled).
    pub locality: Option<LocalityRecord>,
    /// Engine introspection summary (`None` unless the run profiled
    /// the engine).
    pub engine: Option<EngineRecord>,
    /// Per-TB lifecycle latency summary (`None` unless the run profiled
    /// latency).
    pub latency: Option<LatencyStats>,
    /// Host-side cost telemetry (always recorded; excluded from
    /// equality and from repro.json).
    pub host: HostCost,
}

impl RunRecord {
    fn from_stats(workload: &str, stats: &SimStats) -> Self {
        let counter = |name: &str| {
            stats.scheduler_counters.iter().find(|(k, _)| *k == name).map(|(_, v)| *v).unwrap_or(0)
        };
        let launch_counter = |name: &str| {
            stats.launch_counters.iter().find(|(k, _)| *k == name).map(|(_, v)| *v).unwrap_or(0)
        };
        RunRecord {
            workload: workload.to_string(),
            launch_model: stats.launch_model.clone(),
            scheduler: stats.scheduler.clone(),
            cycles: stats.cycles,
            ipc: stats.ipc(),
            l1_hit_rate: stats.l1.hit_rate(),
            l2_hit_rate: stats.l2.hit_rate(),
            child_l1_hit_rate: stats.l1.child_hit_rate(),
            mean_child_wait: stats.mean_child_wait(),
            parent_smx_affinity: stats.parent_smx_affinity(),
            smx_utilization: stats.smx_utilization(),
            load_imbalance: stats.load_imbalance(),
            dynamic_tbs: stats.dynamic_tbs(),
            total_tbs: stats.tb_records.len(),
            steals: counter("stage3_steals"),
            queue_overflows: counter("onchip_overflows"),
            queue_pushes: counter("queue_pushes"),
            max_queue_depth: counter("max_queue_depth"),
            queue_search_cycles: counter("queue_search_cycles"),
            table_overflows: launch_counter("dtbl_table_overflows"),
            stalls: stats.total_stalls(),
            locality: stats.locality.as_ref().map(|loc| {
                let pc = ReuseClass::ParentChild.index();
                LocalityRecord {
                    l1_hits: stats.l1.hits,
                    l2_hits: stats.l2.hits,
                    l1_class_hits: stats.l1.prov.by_class,
                    l2_class_hits: stats.l2.prov.by_class,
                    l2_same_smx: stats.l2.prov.same_smx,
                    l2_cross_smx: stats.l2.prov.cross_smx,
                    bound_hits: loc.bind.bound_hits,
                    bound_parent_child: loc.bind.bound_parent_child,
                    stolen_hits: loc.bind.stolen_hits,
                    stolen_parent_child: loc.bind.stolen_parent_child,
                    l1_pc_mean_dist: loc.l1_reuse_dist[pc].mean(),
                    l2_pc_mean_dist: loc.l2_reuse_dist[pc].mean(),
                }
            }),
            engine: stats.engine.as_ref().map(|eng| EngineRecord {
                loop_iterations: eng.loop_iterations,
                wake_counts: eng.wake_counts,
                heap_depth: eng.heap_depth,
                events_per_cycle: eng.events_per_cycle,
                jump_len: eng.jump_len,
            }),
            latency: stats.latency.clone(),
            host: HostCost {
                ns: 0, // filled in by the runner, which owns the clock
                dominant_component: stats
                    .engine
                    .as_ref()
                    .and_then(|eng| eng.dominant_component())
                    .map(str::to_string),
            },
        }
    }
}

/// Runs one workload to completion under the given launch model and
/// scheduler, with the model's default launch latency.
///
/// # Errors
///
/// Propagates any [`SimError`] from the engine (invalid kernels, cycle
/// limit, scheduler misbehavior).
pub fn run_once(
    workload: &Arc<dyn Workload>,
    model: LaunchModelKind,
    scheduler: SchedulerKind,
    cfg: &GpuConfig,
) -> Result<RunRecord, SimError> {
    run_with_latency(workload, model, LaunchLatency::default_for(model), scheduler, cfg)
}

/// [`run_once`] with an explicit launch latency (for sensitivity sweeps).
///
/// # Errors
///
/// Propagates any [`SimError`] from the engine.
pub fn run_with_latency(
    workload: &Arc<dyn Workload>,
    model: LaunchModelKind,
    latency: LaunchLatency,
    scheduler: SchedulerKind,
    cfg: &GpuConfig,
) -> Result<RunRecord, SimError> {
    run_with_latency_faulted(workload, model, latency, scheduler, cfg, None)
}

/// [`run_with_latency`] with an optional simulator-level fault plan
/// attached before the host kernels launch. This is how the resilient
/// sweep layer composes the PR-5 in-simulator fault injection with its
/// own harness-level plan: the simulator sees exactly the same faults
/// it would in a standalone liveness run.
///
/// # Errors
///
/// Propagates any [`SimError`] from the engine (including the
/// structured liveness errors a fault plan can force).
pub fn run_with_latency_faulted(
    workload: &Arc<dyn Workload>,
    model: LaunchModelKind,
    latency: LaunchLatency,
    scheduler: SchedulerKind,
    cfg: &GpuConfig,
    fault_plan: Option<FaultPlan>,
) -> Result<RunRecord, SimError> {
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(workload.clone())))
        .with_scheduler(scheduler.build(cfg))
        .with_launch_model(model.build(latency));
    if let Some(plan) = fault_plan {
        sim = sim.with_fault_plan(plan);
    }
    for hk in workload.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req)?;
    }
    let t0 = Instant::now();
    let stats = sim.run_to_completion()?;
    let host_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut record = RunRecord::from_stats(&workload.full_name(), &stats);
    // Use the harness's short scheduler labels in figures ("tb-pri"
    // rather than the engine's "laperm-tb-pri").
    record.scheduler = scheduler.name().to_string();
    record.host.ns = host_ns;
    Ok(record)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use workloads::apps::bfs::Bfs;
    use workloads::graph::GraphKind;
    use workloads::Scale;

    fn workload() -> Arc<dyn Workload> {
        Arc::new(Bfs::new(GraphKind::Citation, Scale::Tiny))
    }

    #[test]
    fn run_once_completes_and_reports() {
        let rec = run_once(
            &workload(),
            LaunchModelKind::Dtbl,
            SchedulerKind::RoundRobin,
            &GpuConfig::small_test(),
        )
        .unwrap();
        assert!(rec.cycles > 0);
        assert!(rec.ipc > 0.0);
        assert!((0.0..=1.0).contains(&rec.l1_hit_rate));
        assert!((0.0..=1.0).contains(&rec.l2_hit_rate));
        assert!(rec.dynamic_tbs > 0);
        assert!(rec.total_tbs > rec.dynamic_tbs);
        assert_eq!(rec.launch_model, "dtbl");
        assert_eq!(rec.scheduler, "rr");
        assert_eq!(rec.workload, "bfs-citation");
    }

    #[test]
    fn all_scheduler_kinds_run() {
        let w = workload();
        let cfg = GpuConfig::small_test();
        for s in SchedulerKind::all() {
            let rec = run_once(&w, LaunchModelKind::Dtbl, s, &cfg).unwrap();
            assert_eq!(rec.scheduler, s.name());
            assert!(rec.cycles > 0, "{s} produced no cycles");
        }
    }

    #[test]
    fn smx_bind_has_full_affinity() {
        let rec = run_once(
            &workload(),
            LaunchModelKind::Dtbl,
            SchedulerKind::SmxBind,
            &GpuConfig::small_test(),
        )
        .unwrap();
        assert_eq!(rec.parent_smx_affinity, 1.0);
        assert_eq!(rec.steals, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let w = workload();
        let cfg = GpuConfig::small_test();
        let a = run_once(&w, LaunchModelKind::Cdp, SchedulerKind::AdaptiveBind, &cfg).unwrap();
        let b = run_once(&w, LaunchModelKind::Cdp, SchedulerKind::AdaptiveBind, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cdp_children_wait_longer_than_dtbl() {
        let w = workload();
        let cfg = GpuConfig::small_test();
        let cdp = run_once(&w, LaunchModelKind::Cdp, SchedulerKind::RoundRobin, &cfg).unwrap();
        let dtbl = run_once(&w, LaunchModelKind::Dtbl, SchedulerKind::RoundRobin, &cfg).unwrap();
        assert!(
            cdp.mean_child_wait > dtbl.mean_child_wait,
            "cdp wait {} should exceed dtbl wait {}",
            cdp.mean_child_wait,
            dtbl.mean_child_wait
        );
    }
}
