//! The LaPerm TB scheduler (paper Section IV, Figures 5 and 6).

use gpu_sim::config::{GpuConfig, OverflowPolicy};
use gpu_sim::kernel::Batch;
use gpu_sim::tb_sched::{DispatchDecision, DispatchView, KmuView, TbScheduler};
use gpu_sim::trace::TraceEvent;
use gpu_sim::types::{BatchId, Cycle, Priority, SmxId, TbRef};

use crate::policy::LaPermPolicy;
use crate::queues::PriorityQueues;

/// Configuration of the LaPerm scheduler hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaPermConfig {
    /// Maximum dynamic priority level `L`; deeper nesting clamps to it.
    pub max_level: u8,
    /// Number of SMXs on the GPU.
    pub num_smxs: u16,
    /// SMXs per cluster sharing one L1 and one queue set (1 on Kepler;
    /// >1 models architectures with clustered L1s, Section IV-B).
    pub cluster_size: u16,
    /// On-chip SRAM entries per queue set before overflowing to the
    /// global-memory buffer.
    pub onchip_capacity: usize,
    /// Adaptive-Bind stage 3 fires only when the SMX has at least this
    /// many free TB slots (0 = steal whenever the queues are empty, the
    /// paper's flow chart; higher values add hysteresis so busy SMXs do
    /// not shred other SMXs' locality for marginal balance).
    pub steal_min_free_slots: u32,
    /// Contention-aware TB throttling: cap resident TBs per SMX below the
    /// hardware limit (`None` = hardware limit). Section IV-F suggests
    /// combining LaPerm with the dynamic TB-count adjustment of prior
    /// work when the small L1 cannot hold all resident TBs' reusable
    /// data; this knob is the static form of that optimization.
    pub throttle_tbs: Option<u32>,
    /// The hardware TB-slot limit per SMX (for throttle accounting).
    pub hw_tbs_per_smx: u32,
    /// Hard cap on batches resident across all priority-queue sets
    /// (on-chip plus memory-backed spill); `None` = unbounded. Taken
    /// from [`GpuConfig::launch_limits`]. When the cap is reached,
    /// `queue_overflow_policy` decides what the KMU extension does.
    pub queue_capacity: Option<usize>,
    /// What happens at the queue cap: `StallParent` declines KMU
    /// dispatch (kernels wait in the KMU), `SpillVirtual` admits the
    /// kernel anyway and counts a virtual-queue spill.
    pub queue_overflow_policy: OverflowPolicy,
}

impl LaPermConfig {
    /// The paper's defaults for a GPU configuration: `L = 4`, one SMX per
    /// cluster, 128 on-chip entries per set.
    pub fn for_gpu(cfg: &GpuConfig) -> Self {
        LaPermConfig {
            max_level: 4,
            num_smxs: cfg.num_smxs,
            cluster_size: 1,
            onchip_capacity: PriorityQueues::ONCHIP_ENTRIES,
            steal_min_free_slots: 0,
            throttle_tbs: None,
            hw_tbs_per_smx: cfg.max_tbs_per_smx,
            queue_capacity: cfg.launch_limits.smx_queue_capacity,
            queue_overflow_policy: cfg.launch_limits.policy,
        }
    }

    /// Caps resident TBs per SMX (contention-aware throttling, §IV-F).
    pub fn with_throttle_tbs(mut self, tbs: u32) -> Self {
        self.throttle_tbs = Some(tbs.max(1));
        self
    }

    /// Overrides the stage-3 steal hysteresis.
    pub fn with_steal_min_free_slots(mut self, slots: u32) -> Self {
        self.steal_min_free_slots = slots;
        self
    }

    /// Overrides the maximum nesting level `L`.
    pub fn with_max_level(mut self, max_level: u8) -> Self {
        self.max_level = max_level.max(1);
        self
    }

    /// Overrides the SMX cluster size.
    pub fn with_cluster_size(mut self, cluster_size: u16) -> Self {
        self.cluster_size = cluster_size.max(1);
        self
    }

    /// Overrides the on-chip queue capacity.
    pub fn with_onchip_capacity(mut self, entries: usize) -> Self {
        self.onchip_capacity = entries.max(1);
        self
    }

    fn num_clusters(&self) -> usize {
        usize::from(self.num_smxs).div_ceil(usize::from(self.cluster_size))
    }

    fn cluster_of(&self, smx: SmxId) -> usize {
        smx.index() / usize::from(self.cluster_size)
    }
}

/// The LaPerm TB scheduler.
///
/// Implements all three scheduling decisions behind one
/// [`TbScheduler`]: the [`LaPermPolicy`] chooses how much of the
/// mechanism is active. See the crate docs for the scheduling rules and
/// the paper mapping.
#[derive(Debug)]
pub struct LaPermScheduler {
    policy: LaPermPolicy,
    cfg: LaPermConfig,
    queues: PriorityQueues,
    /// SMX placement cursor (TB-Pri) or the per-cycle SMX under
    /// consideration (binding policies).
    cursor: usize,
    /// Recorded backup queue set per cluster (Adaptive-Bind stage 3).
    backup: Vec<Option<usize>>,
    stage1_dispatches: u64,
    stage2_dispatches: u64,
    stage3_steals: u64,
    kmu_search_cycles: u64,
    /// KMU dispatches admitted past the queue hard cap under
    /// `SpillVirtual` (0 and unreported when the cap is unbounded).
    queue_hard_spills: u64,
    /// Event reporting, off by default; the engine enables it when a
    /// trace sink is attached (`TbScheduler::set_tracing`). While off the
    /// buffer stays empty and untraced runs allocate nothing here.
    tracing: bool,
    trace_buf: Vec<TraceEvent>,
}

impl LaPermScheduler {
    /// Creates a LaPerm scheduler.
    pub fn new(policy: LaPermPolicy, cfg: LaPermConfig) -> Self {
        let sets = if policy.binds_to_smx() { cfg.num_clusters() } else { 1 };
        LaPermScheduler {
            policy,
            queues: PriorityQueues::new(sets, cfg.max_level, cfg.onchip_capacity),
            cursor: 0,
            backup: vec![None; sets],
            stage1_dispatches: 0,
            stage2_dispatches: 0,
            stage3_steals: 0,
            kmu_search_cycles: 0,
            queue_hard_spills: 0,
            tracing: false,
            trace_buf: Vec::new(),
            cfg,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> LaPermPolicy {
        self.policy
    }

    /// The configuration in use.
    pub fn config(&self) -> &LaPermConfig {
        &self.cfg
    }

    /// Work-stealing (stage 3) dispatches so far.
    pub fn steals(&self) -> u64 {
        self.stage3_steals
    }

    fn clamped_level(&self, batch: &Batch) -> u8 {
        batch.priority.0.clamp(1, self.cfg.max_level)
    }

    /// Buffers `event` for the engine to drain (no-op unless tracing).
    fn trace(&mut self, event: TraceEvent) {
        if self.tracing {
            self.trace_buf.push(event);
        }
    }

    /// Records a dispatch served from `set`'s dynamic queues.
    fn trace_dequeue(&mut self, batch: &Batch, set: usize) {
        if self.tracing {
            let level = self.clamped_level(batch);
            let depth = self.queues.occupancy(set) as u32;
            self.trace_buf.push(TraceEvent::QueueDequeued {
                batch: batch.id,
                set: set as u16,
                level,
                depth,
            });
        }
    }

    /// Records a dispatch served from the shared level-0 queue, consulted
    /// on behalf of queue set `set`.
    fn trace_global_dequeue(&mut self, batch: BatchId, set: usize) {
        if self.tracing {
            let depth = self.queues.global_occupancy() as u32;
            self.trace_buf.push(TraceEvent::QueueDequeued {
                batch,
                set: set as u16,
                level: 0,
                depth,
            });
        }
    }

    /// `true` if dispatching one more TB to `smx` respects the
    /// contention throttle.
    fn under_throttle(&self, view: &DispatchView<'_>, smx: SmxId) -> bool {
        match self.cfg.throttle_tbs {
            None => true,
            Some(limit) => {
                let free = view.smx_free[smx.index()].tb_slots;
                let resident = self.cfg.hw_tbs_per_smx.saturating_sub(free);
                resident < limit
            }
        }
    }

    fn pick_tb_pri(&mut self, view: &DispatchView<'_>) -> Option<DispatchDecision> {
        let live = |b: BatchId| view.batch(b).has_undispatched_tbs();
        let (candidate, from_queue0) = match self.queues.highest(0, live) {
            Some(b) => (b, false),
            None => (self.queues.global_front(live)?, true),
        };
        let req = view.batch(candidate).req;
        let n = view.num_smxs();
        let smx = (0..n)
            .map(|i| SmxId(((self.cursor + i) % n) as u16))
            .find(|&s| view.fits(s, &req) && self.under_throttle(view, s))?;
        self.cursor = (smx.index() + 1) % n;
        if from_queue0 {
            self.stage2_dispatches += 1;
            self.trace_global_dequeue(candidate, 0);
        } else {
            self.stage1_dispatches += 1;
            self.trace_dequeue(view.batch(candidate), 0);
        }
        Some(DispatchDecision { batch: candidate, smx })
    }

    fn pick_bound(&mut self, view: &DispatchView<'_>) -> Option<DispatchDecision> {
        // One SMX is considered per cycle (paper Figure 6).
        let smx = SmxId(self.cursor as u16);
        self.cursor = (self.cursor + 1) % view.num_smxs();
        let set = self.cfg.cluster_of(smx);
        let live = |b: BatchId| view.batch(b).has_undispatched_tbs();

        if !self.under_throttle(view, smx) {
            return None;
        }

        // Stage 1: this SMX's own priority queues, highest level first.
        if let Some(candidate) = self.queues.highest(set, live) {
            if view.fits(smx, &view.batch(candidate).req) {
                self.stage1_dispatches += 1;
                self.trace_dequeue(view.batch(candidate), set);
                return Some(DispatchDecision { batch: candidate, smx });
            }
            return None;
        }

        // Stage 2: the shared parent queue (level 0).
        if let Some(candidate) = self.queues.global_front(live) {
            if view.fits(smx, &view.batch(candidate).req) {
                self.stage2_dispatches += 1;
                self.trace_global_dequeue(candidate, set);
                return Some(DispatchDecision { batch: candidate, smx });
            }
            return None;
        }

        // Stage 3 (Adaptive-Bind only): adopt a backup SMX's queues.
        if !self.policy.steals() {
            return None;
        }
        if view.smx_free[smx.index()].tb_slots < self.cfg.steal_min_free_slots {
            return None;
        }
        let prev_backup = self.backup[set];
        let backup = self.backup[set]
            .filter(|&b| self.queues.highest(b, live).is_some())
            .or_else(|| self.queues.find_nonempty_set(set + 1, set, live));
        self.backup[set] = backup;
        if let Some(b) = backup {
            if prev_backup != Some(b) {
                self.trace(TraceEvent::BackupAdopted { smx, backup_set: b as u16 });
            }
        }
        let victim_set = backup?;
        let candidate = self.queues.highest(victim_set, live)?;
        if view.fits(smx, &view.batch(candidate).req) {
            self.stage3_steals += 1;
            self.trace_dequeue(view.batch(candidate), victim_set);
            self.trace(TraceEvent::Stage3Steal {
                thief: smx,
                victim_set: victim_set as u16,
                batch: candidate,
                tbs_moved: 1,
            });
            return Some(DispatchDecision { batch: candidate, smx });
        }
        None
    }
}

impl TbScheduler for LaPermScheduler {
    fn name(&self) -> &'static str {
        match self.policy {
            LaPermPolicy::TbPri => "laperm-tb-pri",
            LaPermPolicy::SmxBind => "laperm-smx-bind",
            LaPermPolicy::AdaptiveBind => "laperm-adaptive-bind",
        }
    }

    fn on_batch_schedulable(&mut self, batch: &Batch, _cycle: Cycle) {
        match &batch.origin {
            None => {
                self.queues.push_global(batch.id);
                if self.tracing {
                    let depth = self.queues.global_occupancy() as u32;
                    self.trace_buf.push(TraceEvent::QueueEnqueued {
                        batch: batch.id,
                        set: 0,
                        level: 0,
                        depth,
                    });
                }
            }
            Some(origin) => {
                let level = self.clamped_level(batch);
                let set = if self.policy.binds_to_smx() {
                    self.cfg.cluster_of(origin.parent_smx)
                } else {
                    0
                };
                self.queues.push(set, level, batch.id);
                if self.tracing {
                    self.trace_buf.push(TraceEvent::PriorityAssigned {
                        batch: batch.id,
                        raw: batch.priority,
                        clamped: Priority(level),
                    });
                    let depth = self.queues.occupancy(set) as u32;
                    self.trace_buf.push(TraceEvent::QueueEnqueued {
                        batch: batch.id,
                        set: set as u16,
                        level,
                        depth,
                    });
                }
            }
        }
    }

    fn on_tb_finished(&mut self, _tb: TbRef, _smx: SmxId, _cycle: Cycle) {}

    fn pick(&mut self, view: &DispatchView<'_>) -> Option<DispatchDecision> {
        match self.policy {
            LaPermPolicy::TbPri => self.pick_tb_pri(view),
            LaPermPolicy::SmxBind | LaPermPolicy::AdaptiveBind => self.pick_bound(view),
        }
    }

    fn kmu_pick(&mut self, view: &KmuView<'_>) -> Option<usize> {
        // The KMU extension searches its priority queues highest-first;
        // worst case it scans all L levels (Section IV-E).
        self.kmu_search_cycles += u64::from(self.cfg.max_level);
        // Backpressure: with the scheduler's queues at their hard cap,
        // StallParent declines dispatch (the kernel waits in the KMU);
        // SpillVirtual admits it and charges a virtual-queue spill.
        if let Some(cap) = self.cfg.queue_capacity {
            if self.queues.total_occupancy() >= cap {
                match self.cfg.queue_overflow_policy {
                    OverflowPolicy::StallParent => return None,
                    OverflowPolicy::SpillVirtual { .. } => self.queue_hard_spills += 1,
                }
            }
        }
        let level = |batch: &Batch| {
            if batch.origin.is_some() {
                self.clamped_level(batch)
            } else {
                0
            }
        };
        let mut best = 0;
        let mut best_level = level(view.batch(0));
        for i in 1..view.len() {
            let l = level(view.batch(i));
            if l > best_level {
                best = i;
                best_level = l;
            }
        }
        Some(best)
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let q = self.queues.stats();
        let mut counters = vec![
            ("stage1_dispatches", self.stage1_dispatches),
            ("stage2_dispatches", self.stage2_dispatches),
            ("stage3_steals", self.stage3_steals),
            ("queue_pushes", q.pushes),
            ("onchip_overflows", q.onchip_overflows),
            ("queue_search_cycles", q.search_cycles),
            ("kmu_search_cycles", self.kmu_search_cycles),
            ("max_queue_depth", q.max_depth as u64),
        ];
        // Only surfaced when the cap exists, so default-run reports (and
        // the goldens derived from them) are unchanged.
        if self.cfg.queue_capacity.is_some() {
            counters.push(("queue_hard_spills", self.queue_hard_spills));
        }
        counters
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
    }

    fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.trace_buf);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use dynpar::{LaunchLatency, LaunchModelKind};
    use gpu_sim::config::GpuConfig;
    use gpu_sim::engine::Simulator;
    use gpu_sim::kernel::ResourceReq;
    use gpu_sim::program::{KernelKindId, LaunchSpec, ProgramSource, TbOp, TbProgram};
    use gpu_sim::stats::SimStats;
    use gpu_sim::tb_sched::RoundRobinScheduler;

    const PARENT: KernelKindId = KernelKindId(0);
    const CHILD: KernelKindId = KernelKindId(1);

    /// The paper's Figure 4(a) launch structure: 8 parent TBs; P2 launches
    /// 2 children, P4 launches 4 children.
    struct Figure4Source;

    impl ProgramSource for Figure4Source {
        fn tb_program(&self, kind: KernelKindId, _param: u64, tb_index: u32) -> TbProgram {
            match kind {
                PARENT => {
                    let mut ops = vec![TbOp::Compute(20)];
                    let children = match tb_index {
                        2 => 2,
                        4 => 4,
                        _ => 0,
                    };
                    if children > 0 {
                        ops.push(TbOp::Launch(LaunchSpec {
                            kind: CHILD,
                            param: u64::from(tb_index),
                            num_tbs: children,
                            req: ResourceReq::new(32, 8, 0),
                        }));
                    }
                    ops.push(TbOp::Compute(20));
                    TbProgram::new(ops)
                }
                _ => TbProgram::new(vec![TbOp::Compute(20)]),
            }
        }
    }

    fn run(policy: Option<LaPermPolicy>) -> SimStats {
        let cfg = GpuConfig::figure4_toy();
        let mut sim = Simulator::new(cfg.clone(), Box::new(Figure4Source));
        sim = match policy {
            Some(p) => {
                sim.with_scheduler(Box::new(LaPermScheduler::new(p, LaPermConfig::for_gpu(&cfg))))
            }
            None => sim.with_scheduler(Box::new(RoundRobinScheduler::new())),
        };
        sim = sim.with_launch_model(LaunchModelKind::Dtbl.build(LaunchLatency::zero()));
        sim.launch_host_kernel(PARENT, 0, 8, ResourceReq::new(32, 8, 0)).unwrap();
        sim.run_to_completion().unwrap()
    }

    #[test]
    fn all_policies_complete_all_tbs() {
        for policy in LaPermPolicy::all() {
            let stats = run(Some(policy));
            assert_eq!(stats.tb_records.len(), 8 + 6, "policy {policy}");
            assert_eq!(stats.dynamic_tbs(), 6, "policy {policy}");
        }
    }

    #[test]
    fn smx_bind_runs_children_on_parent_smx() {
        let stats = run(Some(LaPermPolicy::SmxBind));
        assert_eq!(stats.parent_smx_affinity(), 1.0);
    }

    #[test]
    fn round_robin_scatters_children() {
        let stats = run(None);
        assert!(stats.parent_smx_affinity() < 1.0);
    }

    #[test]
    fn tb_pri_dispatches_children_before_remaining_parents() {
        let stats = run(Some(LaPermPolicy::TbPri));
        // Find the dispatch position of the first child and the last
        // parent; with prioritization some child must jump the queue.
        let first_child = stats.tb_records.iter().position(|r| r.is_dynamic).unwrap();
        let last_parent = stats.tb_records.iter().rposition(|r| !r.is_dynamic).unwrap();
        assert!(
            first_child < last_parent,
            "child at {first_child} should dispatch before parent at {last_parent}"
        );
    }

    #[test]
    fn baseline_dispatches_all_parents_first() {
        let stats = run(None);
        let first_child = stats.tb_records.iter().position(|r| r.is_dynamic).unwrap();
        let last_parent = stats.tb_records.iter().rposition(|r| !r.is_dynamic).unwrap();
        assert!(first_child > last_parent);
    }

    #[test]
    fn tb_pri_reduces_child_wait() {
        let rr = run(None);
        let pri = run(Some(LaPermPolicy::TbPri));
        assert!(
            pri.mean_child_wait() < rr.mean_child_wait(),
            "TB-Pri wait {} should beat RR wait {}",
            pri.mean_child_wait(),
            rr.mean_child_wait()
        );
    }

    #[test]
    fn adaptive_bind_steals_on_skewed_launches() {
        let stats = run(Some(LaPermPolicy::AdaptiveBind));
        let steals = stats
            .scheduler_counters
            .iter()
            .find(|(k, _)| *k == "stage3_steals")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(steals > 0, "P4's four children should trigger stealing");
        // Stolen children run off their parent's SMX, so affinity < 1.
        assert!(stats.parent_smx_affinity() < 1.0);
        assert!(stats.parent_smx_affinity() > 0.0);
    }

    #[test]
    fn smx_bind_never_steals() {
        let stats = run(Some(LaPermPolicy::SmxBind));
        let steals = stats
            .scheduler_counters
            .iter()
            .find(|(k, _)| *k == "stage3_steals")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(steals, 0);
    }

    #[test]
    fn tracing_emits_queue_steal_and_priority_events() {
        let cfg = GpuConfig::figure4_toy();
        let sink = gpu_sim::trace::VecSink::new();
        let mut sim = Simulator::new(cfg.clone(), Box::new(Figure4Source))
            .with_trace(Box::new(sink.clone()))
            .with_scheduler(Box::new(LaPermScheduler::new(
                LaPermPolicy::AdaptiveBind,
                LaPermConfig::for_gpu(&cfg),
            )))
            .with_launch_model(LaunchModelKind::Dtbl.build(LaunchLatency::zero()));
        sim.launch_host_kernel(PARENT, 0, 8, ResourceReq::new(32, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();

        let records = sink.records();
        let count =
            |f: &dyn Fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count() as u64;
        let steals_in_trace = count(&|e| matches!(e, TraceEvent::Stage3Steal { .. }));
        let steals_counted = stats
            .scheduler_counters
            .iter()
            .find(|(k, _)| *k == "stage3_steals")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(steals_in_trace > 0);
        assert_eq!(steals_in_trace, steals_counted);
        // 1 host + 2 dynamic batches enqueue; only dynamic ones get a
        // priority assignment.
        assert_eq!(count(&|e| matches!(e, TraceEvent::QueueEnqueued { .. })), 3);
        assert_eq!(count(&|e| matches!(e, TraceEvent::PriorityAssigned { .. })), 2);
        // Every dispatched TB was served from some queue.
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::QueueDequeued { .. })),
            stats.tb_records.len() as u64
        );
    }

    #[test]
    fn untraced_scheduler_buffers_nothing() {
        use gpu_sim::kernel::{BatchKind, BatchState, Origin};
        use gpu_sim::types::Priority;

        let cfg = LaPermConfig::for_gpu(&GpuConfig::small_test());
        let mut sched = LaPermScheduler::new(LaPermPolicy::AdaptiveBind, cfg);
        let batch = Batch {
            id: BatchId(0),
            batch_kind: BatchKind::TbGroup,
            kind: gpu_sim::program::KernelKindId(1),
            param: 0,
            num_tbs: 4,
            req: ResourceReq::new(32, 8, 0),
            origin: Some(Origin {
                parent_batch: BatchId(0),
                parent_tb: 0,
                parent_smx: SmxId(0),
                parent_priority: Priority::HOST,
            }),
            priority: Priority(1),
            created_at: 0,
            matured_at: 0,
            schedulable_at: Some(0),
            state: BatchState::Schedulable,
            next_tb: 0,
            finished_tbs: 0,
            kdu_entry: Some(0),
        };
        // Tracing off (the default): enqueueing must leave nothing to
        // drain, so untraced runs never grow the event buffer.
        sched.on_batch_schedulable(&batch, 0);
        let mut out = Vec::new();
        sched.drain_trace(&mut out);
        assert!(out.is_empty());

        // Flipped on, the same notification produces events.
        sched.set_tracing(true);
        sched.on_batch_schedulable(&batch, 0);
        sched.drain_trace(&mut out);
        assert!(out
            .iter()
            .any(|e| matches!(e, TraceEvent::QueueEnqueued { batch: BatchId(0), .. })));
        assert!(out.iter().any(|e| matches!(
            e,
            TraceEvent::PriorityAssigned { raw: Priority(1), clamped: Priority(1), .. }
        )));
    }

    #[test]
    fn kmu_pick_prefers_highest_clamped_priority() {
        use gpu_sim::kernel::{Batch, BatchKind, BatchState, Origin, ResourceReq};
        use gpu_sim::program::KernelKindId;
        use gpu_sim::types::{BatchId, Priority};

        let make = |id: u32, depth: u8| Batch {
            id: BatchId(id),
            batch_kind: if depth == 0 { BatchKind::HostKernel } else { BatchKind::DeviceKernel },
            kind: KernelKindId(0),
            param: 0,
            num_tbs: 1,
            req: ResourceReq::new(32, 8, 0),
            origin: (depth > 0).then(|| Origin {
                parent_batch: BatchId(0),
                parent_tb: 0,
                parent_smx: SmxId(0),
                parent_priority: Priority(depth - 1),
            }),
            priority: Priority(depth),
            created_at: 0,
            matured_at: 0,
            schedulable_at: None,
            state: BatchState::Pending,
            next_tb: 0,
            finished_tbs: 0,
            kdu_entry: None,
        };

        let cfg = LaPermConfig::for_gpu(&GpuConfig::small_test()).with_max_level(2);
        let mut sched = LaPermScheduler::new(LaPermPolicy::TbPri, cfg);
        let batches = vec![
            make(0, 0), // host
            make(1, 1), // child
            make(2, 7), // clamps to 2
            make(3, 9), // also clamps to 2 — FCFS tie
        ];
        let pick = |sched: &mut LaPermScheduler, ids: &[u32]| {
            let pending: Vec<BatchId> = ids.iter().map(|&i| BatchId(i)).collect();
            sched.kmu_pick(&gpu_sim::tb_sched::KmuView { pending: &pending, batches: &batches })
        };

        // Highest clamped priority wins.
        assert_eq!(pick(&mut sched, &[0, 1]), Some(1));
        // Clamped ties resolve FCFS (earlier index).
        assert_eq!(pick(&mut sched, &[0, 2, 3]), Some(1));
        // Host-only stays FCFS.
        assert_eq!(pick(&mut sched, &[0]), Some(0));
        // The search cost is accounted (L cycles per pick).
        let kmu_cycles = sched
            .counters()
            .iter()
            .find(|(k, _)| *k == "kmu_search_cycles")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(kmu_cycles, 3 * 2);
    }

    #[test]
    fn kmu_pick_backpressure_at_queue_cap() {
        use gpu_sim::kernel::{Batch, BatchKind, BatchState};
        use gpu_sim::types::Priority;

        let host = Batch {
            id: BatchId(0),
            batch_kind: BatchKind::HostKernel,
            kind: KernelKindId(0),
            param: 0,
            num_tbs: 1,
            req: ResourceReq::new(32, 8, 0),
            origin: None,
            priority: Priority::HOST,
            created_at: 0,
            matured_at: 0,
            schedulable_at: None,
            state: BatchState::Pending,
            next_tb: 0,
            finished_tbs: 0,
            kdu_entry: None,
        };
        let batches = vec![host.clone()];
        let pending = vec![BatchId(0)];
        let view = gpu_sim::tb_sched::KmuView { pending: &pending, batches: &batches };

        // StallParent: at the cap the scheduler declines to dispatch.
        let mut cfg = LaPermConfig::for_gpu(&GpuConfig::small_test());
        cfg.queue_capacity = Some(1);
        cfg.queue_overflow_policy = gpu_sim::config::OverflowPolicy::StallParent;
        let mut sched = LaPermScheduler::new(LaPermPolicy::TbPri, cfg);
        assert_eq!(sched.kmu_pick(&view), Some(0));
        sched.on_batch_schedulable(&host, 0);
        assert_eq!(sched.kmu_pick(&view), None);

        // SpillVirtual: the pick proceeds, charged as a hard spill.
        cfg.queue_overflow_policy =
            gpu_sim::config::OverflowPolicy::SpillVirtual { extra_latency: 10 };
        let mut sched = LaPermScheduler::new(LaPermPolicy::TbPri, cfg);
        sched.on_batch_schedulable(&host, 0);
        assert_eq!(sched.kmu_pick(&view), Some(0));
        let spills = sched
            .counters()
            .iter()
            .find(|(k, _)| *k == "queue_hard_spills")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(spills, 1);
    }

    #[test]
    fn bound_policies_dispatch_parents_only_on_the_cursor_smx() {
        // Under SMX-Bind, stage 2 considers exactly one SMX per cycle, so
        // parent TBs fill SMX0, SMX1, SMX2, SMX3 in cursor order.
        let stats = run(Some(LaPermPolicy::SmxBind));
        let first_four: Vec<u16> =
            stats.tb_records.iter().filter(|r| !r.is_dynamic).take(4).map(|r| r.smx.0).collect();
        assert_eq!(first_four, vec![0, 1, 2, 3]);
    }

    #[test]
    fn throttle_builder_sets_and_floors() {
        let cfg = LaPermConfig::for_gpu(&GpuConfig::small_test()).with_throttle_tbs(0);
        assert_eq!(cfg.throttle_tbs, Some(1));
        let cfg = cfg.with_throttle_tbs(6);
        assert_eq!(cfg.throttle_tbs, Some(6));
    }

    #[test]
    fn scheduler_names_match_policy() {
        let cfg = LaPermConfig::for_gpu(&GpuConfig::small_test());
        assert_eq!(LaPermScheduler::new(LaPermPolicy::TbPri, cfg).name(), "laperm-tb-pri");
        assert_eq!(LaPermScheduler::new(LaPermPolicy::SmxBind, cfg).name(), "laperm-smx-bind");
        assert_eq!(
            LaPermScheduler::new(LaPermPolicy::AdaptiveBind, cfg).name(),
            "laperm-adaptive-bind"
        );
    }

    #[test]
    fn config_builders_clamp() {
        let cfg = LaPermConfig::for_gpu(&GpuConfig::small_test())
            .with_max_level(0)
            .with_cluster_size(0)
            .with_onchip_capacity(0);
        assert_eq!(cfg.max_level, 1);
        assert_eq!(cfg.cluster_size, 1);
        assert_eq!(cfg.onchip_capacity, 1);
    }

    #[test]
    fn cluster_mapping() {
        let cfg = LaPermConfig {
            max_level: 2,
            num_smxs: 8,
            cluster_size: 2,
            onchip_capacity: 128,
            steal_min_free_slots: 0,
            throttle_tbs: None,
            hw_tbs_per_smx: 16,
            queue_capacity: None,
            queue_overflow_policy: OverflowPolicy::StallParent,
        };
        assert_eq!(cfg.num_clusters(), 4);
        assert_eq!(cfg.cluster_of(SmxId(0)), 0);
        assert_eq!(cfg.cluster_of(SmxId(1)), 0);
        assert_eq!(cfg.cluster_of(SmxId(7)), 3);
    }

    #[test]
    fn clustered_binding_keeps_children_in_cluster() {
        let gpu = GpuConfig::figure4_toy();
        let laperm_cfg = LaPermConfig::for_gpu(&gpu).with_cluster_size(2);
        let mut sim = Simulator::new(gpu, Box::new(Figure4Source))
            .with_scheduler(Box::new(LaPermScheduler::new(LaPermPolicy::SmxBind, laperm_cfg)))
            .with_launch_model(LaunchModelKind::Dtbl.build(LaunchLatency::zero()));
        sim.launch_host_kernel(PARENT, 0, 8, ResourceReq::new(32, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        for r in stats.tb_records.iter().filter(|r| r.is_dynamic) {
            let (_, _, parent_smx) = r.parent.unwrap();
            assert_eq!(
                r.smx.index() / 2,
                parent_smx.index() / 2,
                "child must stay in its parent's cluster"
            );
        }
    }
}
