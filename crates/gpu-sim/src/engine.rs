//! The simulation engine: owns the SMXs, memory system, KMU/KDU, launch
//! model, and TB scheduler, and advances them cycle by cycle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{AccessClass, Lineage, ReuseClass};
use crate::config::{EngineMode, GpuConfig, OverflowPolicy};
use crate::error::{SimError, StuckTb};
use crate::fault::{FaultPlan, LaunchDisposition};
use crate::kdu::Kdu;
use crate::kernel::{Batch, BatchKind, BatchState, Origin, ResourceReq};
use crate::kmu::Kmu;
use crate::launch::{Delivery, DynamicLaunchModel, ImmediateLaunchModel, LaunchRequest};
use crate::lowered::{LoweredProgram, ProgramMemo};
use crate::mem::MemorySystem;
use crate::program::{KernelKindId, ProgramSource};
use crate::smx::{Smx, SmxResources, TbCompletion};
use crate::stats::{EngineStats, LatencyStats, LocalityStats, SimStats, TbRecord, WakeSource};
use crate::tb_sched::{DispatchDecision, DispatchView, KmuView, RoundRobinScheduler, TbScheduler};
use crate::trace::{TraceEvent, TraceSink};
use crate::types::{BatchId, Cycle, Priority, SmxId, TbRef};
use crate::warp_sched::{GreedyThenOldest, LooseRoundRobin, WarpScheduler};

/// Compact `sched_list`/`sched_seq` once the exhausted prefix exceeds this
/// many entries, amortizing the two `drain`s over thousands of dispatches.
const SCHED_PRUNE_THRESHOLD: usize = 4096;

/// Host-time sampling stride for engine profiling: one in this many
/// loop iterations is timed with `Instant` spans, bounding the
/// profiling overhead. Reported as [`EngineStats::host_sampling`].
const HOST_SAMPLING: u64 = 64;

/// Most suspects named by a [`SimError::NoForwardProgress`] report.
const MAX_WATCHDOG_SUSPECTS: usize = 8;

/// Everything the watchdog considers "forward progress", snapshotted once
/// per window: TB dispatches, TB retirements, batch creations, retired
/// warp instructions, launch submissions, and launch deliveries.
type ProgressSignature = (u64, u64, u64, u64, u64, u64);

/// Engine introspection state, boxed behind an `Option` so unprofiled
/// runs allocate nothing and the loop pays one branch per stage (the
/// locality profiler's zero-cost-when-off pattern).
struct EngineProf {
    /// The accumulating statistics surfaced as [`SimStats::engine`].
    stats: EngineStats,
    /// Why the *next* loop iteration will run — decided by the advance
    /// step of the current iteration, charged at the start of the next.
    next_wake: WakeSource,
}

impl EngineProf {
    fn new() -> Self {
        EngineProf {
            stats: EngineStats { host_sampling: HOST_SAMPLING, ..EngineStats::default() },
            // The first iteration runs because work was launched, which
            // is a component (KMU) publishing.
            next_wake: WakeSource::ComponentTick,
        }
    }
}

/// A complete GPU simulation.
///
/// Build one with [`Simulator::new`], optionally swap in a TB scheduler
/// ([`with_scheduler`](Self::with_scheduler)) and launch model
/// ([`with_launch_model`](Self::with_launch_model)), launch host kernels,
/// then [`run_to_completion`](Self::run_to_completion).
pub struct Simulator {
    cfg: GpuConfig,
    cycle: Cycle,
    smxs: Vec<Smx>,
    mem: MemorySystem,
    kmu: Kmu,
    kdu: Kdu,
    batches: Vec<Batch>,
    scheduler: Box<dyn TbScheduler>,
    launch_model: Box<dyn DynamicLaunchModel>,
    source: Box<dyn ProgramSource>,
    // Lowered programs shared with other simulations of the same
    // workload (see `with_program_memo`); `None` lowers at every
    // dispatch.
    programs: Option<Arc<ProgramMemo>>,
    // KDU-FCFS-ordered list of schedulable batches; `sched_head` is a
    // lazily advanced cursor past exhausted prefix entries.
    sched_list: Vec<BatchId>,
    sched_seq: Vec<u64>,
    sched_head: usize,
    undispatched: u64,
    dispatch_seq: u64,
    tb_records: Vec<TbRecord>,
    fast_forwarded_cycles: u64,
    // Finite-launch-path state. All four queues stay empty under the
    // default unbounded limits with no fault plan, so the default
    // configuration takes none of these paths (goldens are bit-identical).
    launch_backlog: VecDeque<(Cycle, Delivery)>,
    spill_queue: VecDeque<(Cycle, LaunchRequest)>,
    delayed_launches: Vec<(Cycle, LaunchRequest)>,
    fault: Option<FaultPlan>,
    launch_submitted_total: u64,
    delivered_total: u64,
    finished_tbs_total: u64,
    kmu_overflows: u64,
    backlog_hwm: u64,
    spill_events: u64,
    spill_hwm: u64,
    // Forward-progress watchdog: the counter snapshot taken at the last
    // window boundary, and the next cycle at which to compare.
    watchdog_sig: ProgressSignature,
    watchdog_deadline: Cycle,
    // Event-engine state: a min-heap of SMX wake-ups keyed
    // (cycle, smx index) and the authoritative wake per SMX. Heap
    // entries whose cycle no longer matches `smx_wake` are stale and
    // discarded on pop (lazy invalidation); `Cycle::MAX` means no wake
    // is scheduled. Armed (`event_live`) by the first event-mode
    // `step`; never maintained under `EngineMode::CycleStepped`.
    event_heap: BinaryHeap<Reverse<(Cycle, u16)>>,
    smx_wake: Vec<Cycle>,
    event_live: bool,
    // Engine introspection (`cfg.profile_engine`): wake-source tagging,
    // structural histograms, and sampled host-time spans. `None` (no
    // allocation, no work) when profiling is off.
    engine_prof: Option<Box<EngineProf>>,
    // Scratch buffers reused every cycle so the hot loop allocates
    // nothing in steady state.
    delivery_scratch: Vec<Delivery>,
    smx_free_scratch: Vec<SmxResources>,
    sched_trace_scratch: Vec<TraceEvent>,
    trace: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("scheduler", &self.scheduler.name())
            .field("launch_model", &self.launch_model.name())
            .field("batches", &self.batches.len())
            .field("undispatched", &self.undispatched)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Creates a simulator with the baseline round-robin TB scheduler and
    /// a zero-latency CDP-style launch model.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GpuConfig::validate`].
    pub fn new(cfg: GpuConfig, source: Box<dyn ProgramSource>) -> Self {
        cfg.validate().expect("invalid GpuConfig");
        let make_warp_sched = || -> Box<dyn WarpScheduler> {
            match cfg.warp_scheduler {
                crate::config::WarpSchedPolicy::Gto => Box::new(GreedyThenOldest::new()),
                crate::config::WarpSchedPolicy::Lrr => Box::new(LooseRoundRobin::new()),
            }
        };
        let smxs = (0..cfg.num_smxs).map(|i| Smx::new(SmxId(i), &cfg, make_warp_sched())).collect();
        let mut mem = MemorySystem::new(&cfg);
        if cfg.profile_locality {
            mem.enable_provenance();
        }
        let kdu = Kdu::new(cfg.max_concurrent_kernels);
        Simulator {
            cycle: 0,
            smxs,
            mem,
            kmu: Kmu::new(),
            kdu,
            batches: Vec::new(),
            scheduler: Box::new(RoundRobinScheduler::new()),
            launch_model: Box::new(ImmediateLaunchModel::new()),
            source,
            programs: None,
            sched_list: Vec::new(),
            sched_seq: Vec::new(),
            sched_head: 0,
            undispatched: 0,
            dispatch_seq: 0,
            tb_records: Vec::new(),
            fast_forwarded_cycles: 0,
            launch_backlog: VecDeque::new(),
            spill_queue: VecDeque::new(),
            delayed_launches: Vec::new(),
            fault: None,
            launch_submitted_total: 0,
            delivered_total: 0,
            finished_tbs_total: 0,
            kmu_overflows: 0,
            backlog_hwm: 0,
            spill_events: 0,
            spill_hwm: 0,
            watchdog_sig: (0, 0, 0, 0, 0, 0),
            watchdog_deadline: cfg.watchdog_window.unwrap_or(Cycle::MAX),
            event_heap: BinaryHeap::new(),
            smx_wake: Vec::new(),
            event_live: false,
            engine_prof: cfg.profile_engine.then(|| Box::new(EngineProf::new())),
            delivery_scratch: Vec::new(),
            smx_free_scratch: Vec::new(),
            sched_trace_scratch: Vec::new(),
            trace: None,
            cfg,
        }
    }

    /// Replaces the TB scheduler (call before launching kernels).
    pub fn with_scheduler(mut self, mut scheduler: Box<dyn TbScheduler>) -> Self {
        scheduler.set_tracing(self.trace.is_some());
        self.scheduler = scheduler;
        self
    }

    /// Replaces the dynamic launch model (call before launching kernels).
    pub fn with_launch_model(mut self, model: Box<dyn DynamicLaunchModel>) -> Self {
        self.launch_model = model;
        self
    }

    /// Attaches a scheduling-event trace sink (see [`crate::trace`]).
    pub fn with_trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self.scheduler.set_tracing(true);
        self
    }

    /// Attaches a deterministic fault-injection plan (see [`crate::fault`]).
    ///
    /// Fault windows compose with the event engine's idle-cycle
    /// skipping: `KillSmx` release edges become wake-up sources
    /// (`FaultPlan::first_alive`) and delayed launches contribute
    /// their maturity cycles, so skips land exactly where the machine
    /// next changes state. Statistics are bit-identical to stepping
    /// every cycle (asserted by `tests/determinism.rs`).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Serves dispatched TBs' lowered programs from `memo`, building
    /// missing entries from this simulator's program source. Every
    /// simulation sharing a memo must run the same workload (programs
    /// are keyed by `(kind, param, tb, threads)` alone).
    ///
    /// # Panics
    ///
    /// If `memo` was built for another warp width or line size.
    pub fn with_program_memo(mut self, memo: Arc<ProgramMemo>) -> Self {
        assert!(memo.matches(&self.cfg), "program memo built for another warp width or line size");
        self.programs = Some(memo);
        self
    }

    /// The attached fault plan, with its fired-fault counters.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    fn emit(&mut self, cycle: Cycle, event: TraceEvent) {
        if let Some(sink) = &mut self.trace {
            sink.record(cycle, event);
        }
    }

    /// Forwards events buffered inside the TB scheduler to the sink,
    /// stamped with the current cycle. A branch and nothing else when no
    /// sink is attached (schedulers only buffer while tracing is on).
    fn drain_sched_trace(&mut self, now: Cycle) {
        if self.trace.is_none() {
            return;
        }
        let mut buf = std::mem::take(&mut self.sched_trace_scratch);
        self.scheduler.drain_trace(&mut buf);
        for event in buf.drain(..) {
            self.emit(now, event);
        }
        self.sched_trace_scratch = buf;
    }

    /// The hardware configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// All batches created so far.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// Thread blocks currently resident across all SMXs.
    pub fn resident_tbs(&self) -> usize {
        self.smxs.iter().map(Smx::resident_tbs).sum()
    }

    /// Occupied KDU entries (concurrently resident kernels).
    pub fn kdu_occupancy(&self) -> usize {
        self.kdu.occupied()
    }

    /// Kernels waiting in the KMU for a free KDU entry.
    pub fn kmu_pending(&self) -> usize {
        self.kmu.len()
    }

    /// Idle cycles the event engine jumped over (always 0 under
    /// [`EngineMode::CycleStepped`]). These cycles are still counted in
    /// [`cycle`](Self::cycle); they just were not stepped one by one.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.fast_forwarded_cycles
    }

    /// A cheap counter snapshot for windowed time-series analysis (see
    /// [`MachineSample`](crate::stats::MachineSample)).
    pub fn sample(&self) -> crate::stats::MachineSample {
        let l1 = self.mem.l1_stats_total();
        let l2 = self.mem.l2_stats();
        crate::stats::MachineSample {
            cycle: self.cycle,
            thread_instructions: self.smxs.iter().map(|s| s.thread_instructions).sum(),
            l1_hits: l1.hits,
            l1_misses: l1.misses,
            l2_hits: l2.hits,
            l2_misses: l2.misses,
            resident_tbs: self.resident_tbs(),
            undispatched_tbs: self.undispatched,
            l1_parent_child_hits: l1.prov.class(ReuseClass::ParentChild),
            l2_parent_child_hits: l2.prov.class(ReuseClass::ParentChild),
        }
    }

    /// Launches a kernel from the host.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::KernelTooLarge`] if a single TB of the kernel
    /// can never fit on an SMX, or if the grid is empty.
    pub fn launch_host_kernel(
        &mut self,
        kind: KernelKindId,
        param: u64,
        num_tbs: u32,
        req: ResourceReq,
    ) -> Result<BatchId, SimError> {
        let id = self.create_batch(BatchKind::HostKernel, kind, param, num_tbs, req, None)?;
        self.kmu.push(id);
        self.emit(self.cycle, TraceEvent::KernelQueued { batch: id });
        Ok(id)
    }

    fn create_batch(
        &mut self,
        batch_kind: BatchKind,
        kind: KernelKindId,
        param: u64,
        num_tbs: u32,
        req: ResourceReq,
        origin: Option<Origin>,
    ) -> Result<BatchId, SimError> {
        let id = BatchId(self.batches.len() as u32);
        let reason = if num_tbs == 0 {
            Some("grid has zero TBs".to_string())
        } else if req.threads == 0 {
            Some("TB has zero threads".to_string())
        } else if req.threads > self.cfg.max_threads_per_smx {
            Some(format!("{} threads exceed SMX limit", req.threads))
        } else if req.regs_per_tb() > self.cfg.max_regs_per_smx {
            Some(format!("{} registers exceed SMX limit", req.regs_per_tb()))
        } else if req.smem_bytes > self.cfg.max_smem_per_smx {
            Some(format!("{} bytes shared memory exceed SMX limit", req.smem_bytes))
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(SimError::KernelTooLarge { batch: id, reason });
        }
        let priority = match &origin {
            Some(o) => o.parent_priority.child(),
            None => Priority::HOST,
        };
        self.batches.push(Batch {
            id,
            batch_kind,
            kind,
            param,
            num_tbs,
            req,
            origin,
            priority,
            created_at: self.cycle,
            matured_at: self.cycle,
            schedulable_at: None,
            state: BatchState::Pending,
            next_tb: 0,
            finished_tbs: 0,
            kdu_entry: None,
        });
        Ok(id)
    }

    /// `true` when no work remains anywhere in the machine.
    pub fn is_done(&self) -> bool {
        self.kmu.is_empty()
            && self.launch_model.in_flight() == 0
            && self.launch_backlog.is_empty()
            && self.spill_queue.is_empty()
            && self.delayed_launches.is_empty()
            && self.undispatched == 0
            && self.smxs.iter().all(|s| s.resident_tbs() == 0)
    }

    /// Opens a profiled loop iteration: charges the pending wake-source
    /// tag (set by the *previous* iteration's advance), counts the
    /// iteration, records heap depth (event engine only), and decides
    /// whether this iteration's host-time spans are sampled. Returns
    /// `false` (never sample) when profiling is off, so the hot loop
    /// pays one branch.
    fn prof_begin(&mut self, heap_depth: Option<u64>) -> bool {
        let Some(p) = &mut self.engine_prof else { return false };
        p.stats.wake_counts[p.next_wake.index()] += 1;
        p.stats.loop_iterations += 1;
        if let Some(d) = heap_depth {
            p.stats.heap_depth.record(d);
        }
        let sample = (p.stats.loop_iterations - 1) % p.stats.host_sampling == 0;
        p.stats.host_samples += u64::from(sample);
        sample
    }

    /// Closes a sampled host-time span around stage `stage`
    /// (indexes [`crate::stats::ENGINE_HOST_COMPONENTS`]).
    fn prof_add(&mut self, stage: usize, t0: Option<Instant>) {
        if let (Some(t0), Some(p)) = (t0, &mut self.engine_prof) {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            p.stats.host_ns[stage] = p.stats.host_ns[stage].saturating_add(ns);
        }
    }

    /// Tags what the *next* loop iteration will have been woken by, and
    /// records the length of the cycle jump that reaches it (0 for a
    /// consecutive cycle).
    fn prof_set_wake(&mut self, source: WakeSource, jump: u64) {
        if let Some(p) = &mut self.engine_prof {
            if jump > 0 {
                p.stats.jump_len.record(jump);
            }
            p.next_wake = source;
        }
    }

    /// Runs one iteration of the engine selected by
    /// [`GpuConfig::engine_mode`] — the loop body
    /// [`run_to_completion`](Self::run_to_completion) repeats, so a
    /// manual `while !sim.is_done() { sim.step()? }` observes exactly
    /// the engine that produces the run's results. Under
    /// [`EngineMode::Event`] the first call arms the wake-up heap and
    /// each call then advances to the machine's next event (possibly
    /// many cycles); under [`EngineMode::CycleStepped`] each call
    /// advances exactly one cycle.
    ///
    /// # Errors
    ///
    /// Propagates scheduler misbehavior ([`SimError::BadDispatch`]),
    /// invalid device launches ([`SimError::KernelTooLarge`]), a tripped
    /// forward-progress watchdog ([`SimError::NoForwardProgress`]), and
    /// violated engine invariants ([`SimError::EngineInvariant`]).
    pub fn step(&mut self) -> Result<(), SimError> {
        match self.cfg.engine_mode {
            EngineMode::Event => {
                if !self.event_live {
                    self.arm_event_heap();
                }
                self.step_event()
            }
            EngineMode::CycleStepped => self.step_cycle(),
        }
    }

    /// One iteration of the reference engine: every stage, and every
    /// alive SMX in a linear scan, on the consecutive cycle.
    fn step_cycle(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        let sample = self.prof_begin(None);
        self.watchdog_check(now)?;
        let t = sample.then(Instant::now);
        self.stage_launch_maturation(now)?;
        self.prof_add(0, t);
        let t = sample.then(Instant::now);
        self.stage_kmu_dispatch(now)?;
        self.prof_add(1, t);
        let t = sample.then(Instant::now);
        self.stage_tb_dispatch(now)?;
        self.prof_add(2, t);

        // 4. SMXs execute, in ascending index order (the launch-credit
        // pool and launch submission order depend on it).
        let t = sample.then(Instant::now);
        let mut launch_credits = self.launch_credit_pool();
        for i in 0..self.smxs.len() {
            if self.fault.as_ref().is_some_and(|p| p.smx_killed_at(SmxId(i as u16), now)) {
                // A killed SMX issues nothing this cycle. Its deferred
                // stall accounting charges the frozen span to whatever
                // it was last waiting on.
                continue;
            }
            self.run_smx(i, now, &mut launch_credits)?;
        }
        self.prof_add(3, t);

        // Never skipping: the next iteration is an ordinary
        // per-component tick on the consecutive cycle.
        self.cycle += 1;
        self.prof_set_wake(WakeSource::ComponentTick, 0);
        Ok(())
    }

    /// Stage 0: once per window, compare the progress counters against
    /// the last snapshot and re-arm the deadline.
    fn watchdog_check(&mut self, now: Cycle) -> Result<(), SimError> {
        if now >= self.watchdog_deadline {
            let sig = self.progress_signature();
            if sig == self.watchdog_sig {
                return Err(self.no_forward_progress(now));
            }
            self.watchdog_sig = sig;
            self.watchdog_deadline =
                now.saturating_add(self.cfg.watchdog_window.unwrap_or(Cycle::MAX));
        }
        Ok(())
    }

    /// Stage 1: matured device-side launches enter the scheduling
    /// hardware.
    fn stage_launch_maturation(&mut self, now: Cycle) -> Result<(), SimError> {
        // Held-back work first (fault delays, spilled launches, KMU
        // backlog — all empty in the default unbounded configuration),
        // then the launch model's own matured launches.
        if !self.delayed_launches.is_empty() {
            let mut i = 0;
            while i < self.delayed_launches.len() {
                if self.delayed_launches[i].0 <= now {
                    let (_, req) = self.delayed_launches.remove(i);
                    self.admit_to_launch_model(req, now);
                } else {
                    i += 1;
                }
            }
        }
        while let Some(&(ready, _)) = self.spill_queue.front() {
            if ready > now || !self.launch_buffer_has_space() {
                break;
            }
            if let Some((_, req)) = self.spill_queue.pop_front() {
                self.launch_model.submit(req);
            }
        }
        while let Some(&(ready, _)) = self.launch_backlog.front() {
            if ready > now {
                break;
            }
            let Some((_, delivery)) = self.launch_backlog.pop_front() else { break };
            if let Some(rejected) = self.deliver_launch(delivery, now)? {
                // The KMU is still full; everything behind this entry
                // contends for the same queue, so stop for this cycle.
                self.launch_backlog.push_front((self.backlog_retry_at(now), rejected));
                break;
            }
        }
        if self.launch_model.in_flight() > 0 {
            let mut deliveries = std::mem::take(&mut self.delivery_scratch);
            self.launch_model.drain_ready(now, &mut deliveries);
            for delivery in deliveries.drain(..) {
                if let Some(rejected) = self.deliver_launch(delivery, now)? {
                    self.kmu_overflows += 1;
                    self.launch_backlog.push_back((self.backlog_retry_at(now), rejected));
                    self.backlog_hwm = self.backlog_hwm.max(self.launch_backlog.len() as u64);
                }
            }
            self.delivery_scratch = deliveries;
        }
        Ok(())
    }

    /// Stage 2: KMU moves pending kernels into free KDU entries (unless
    /// a fault window holds the dispatch path down).
    fn stage_kmu_dispatch(&mut self, now: Cycle) -> Result<(), SimError> {
        let kmu_blocked = self.fault.as_ref().is_some_and(|p| p.queue_full_at(now));
        if !kmu_blocked {
            for _ in 0..self.cfg.kmu_dispatch_per_cycle {
                if self.kmu.is_empty() || !self.kdu.has_free_entry() {
                    break;
                }
                let picked = {
                    let view =
                        KmuView { pending: self.kmu.make_contiguous(), batches: &self.batches };
                    let len = view.len();
                    self.scheduler.kmu_pick(&view).map(|idx| idx.min(len - 1))
                };
                // A scheduler may decline to dispatch (backpressure on
                // its internal queues); the kernel stays in the KMU.
                let Some(idx) = picked else { break };
                let Some(id) = self.kmu.take(idx) else {
                    return Err(SimError::EngineInvariant {
                        cycle: now,
                        what: format!("KMU pick {idx} out of range"),
                    });
                };
                let Some(entry) = self.kdu.insert(id) else {
                    return Err(SimError::EngineInvariant {
                        cycle: now,
                        what: format!("KDU rejected {id} despite a checked-free entry"),
                    });
                };
                self.emit(now, TraceEvent::KernelToKdu { batch: id, entry });
                self.make_schedulable(id, entry, now)?;
            }
        }
        Ok(())
    }

    /// Stage 3: the SMX scheduler dispatches at most one TB. The
    /// scheduler's `pick` runs (and may mutate its cost counters) on
    /// every cycle with undispatched TBs, so the event engine may not
    /// skip such a cycle.
    fn stage_tb_dispatch(&mut self, now: Cycle) -> Result<(), SimError> {
        if self.undispatched > 0 {
            self.prune_sched_list();
            self.smx_free_scratch.clear();
            self.smx_free_scratch.extend(self.smxs.iter().map(Smx::free));
            let decision = self.scheduler.pick(&DispatchView {
                cycle: now,
                schedulable: &self.sched_list[self.sched_head..],
                batches: &self.batches,
                smx_free: &self.smx_free_scratch,
            });
            // Queue dequeues / steals / backup adoptions happen inside
            // `pick`; surface them before the dispatch they produced.
            self.drain_sched_trace(now);
            if let Some(d) = decision {
                self.place(d, now)?;
            }
        }
        Ok(())
    }

    /// The stage-4 launch-credit pool. Under a finite pending-launch
    /// buffer with the StallParent policy, the remaining buffer slots
    /// gate launch issue as a credit pool shared across SMXs this
    /// cycle; with unbounded limits the pool is infinite and the gate
    /// is inert.
    fn launch_credit_pool(&self) -> u64 {
        match (self.cfg.launch_limits.pending_launch_capacity, self.cfg.launch_limits.policy) {
            (Some(cap), OverflowPolicy::StallParent) => {
                (cap as u64).saturating_sub(self.launch_model.in_flight() as u64)
            }
            _ => u64::MAX,
        }
    }

    /// Steps one (alive) SMX and absorbs its launches and completions.
    fn run_smx(&mut self, i: usize, now: Cycle, launch_credits: &mut u64) -> Result<(), SimError> {
        {
            let events = self.smxs[i].step(now, &mut self.mem, &self.cfg, launch_credits);
            for launch in events.launches {
                let parent_batch = launch.by.batch;
                let parent_priority = self.batches[parent_batch.index()].priority;
                // Validate the child's shape before it enters the launch
                // path, so misbehaving workloads fail loudly.
                if launch.spec.num_tbs == 0 || launch.spec.req.threads == 0 {
                    return Err(SimError::KernelTooLarge {
                        batch: BatchId(self.batches.len() as u32),
                        reason: "device launch with empty grid or zero-thread TBs".into(),
                    });
                }
                self.emit(
                    now,
                    TraceEvent::LaunchIssued { by: launch.by, num_tbs: launch.spec.num_tbs },
                );
                self.submit_launch(
                    LaunchRequest {
                        kind: launch.spec.kind,
                        param: launch.spec.param,
                        num_tbs: launch.spec.num_tbs,
                        req: launch.spec.req,
                        origin: Origin {
                            parent_batch,
                            parent_tb: launch.by.index,
                            parent_smx: launch.smx,
                            parent_priority,
                        },
                        issued_at: now,
                    },
                    now,
                );
            }
            for completion in events.completions {
                self.finish_tb(completion, now)?;
            }
        }
        Ok(())
    }

    /// The cycle at which SMX `i` next does observable work, at or after
    /// `floor`: its resident TBs' earliest ready time, pushed past any
    /// `KillSmx` window covering it. `Cycle::MAX` when the SMX is empty
    /// or a window holds it down forever.
    fn smx_wake_for(&self, i: usize, floor: Cycle) -> Cycle {
        if self.smxs[i].resident_tbs() == 0 {
            return Cycle::MAX;
        }
        let wake = self.smxs[i].next_event().max(floor);
        match &self.fault {
            Some(p) => p.first_alive(SmxId(i as u16), wake).unwrap_or(Cycle::MAX),
            None => wake,
        }
    }

    /// Records `at` as SMX `i`'s next wake-up and schedules it in the
    /// event heap. Superseded heap entries are left in place; they are
    /// recognized (cycle no longer matches `smx_wake`) and discarded
    /// when popped.
    fn set_smx_wake(&mut self, i: usize, at: Cycle) {
        if self.smx_wake[i] == at {
            return;
        }
        self.smx_wake[i] = at;
        if at != Cycle::MAX {
            self.event_heap.push(Reverse((at, i as u16)));
        }
    }

    /// One iteration of the event engine: the same stage pipeline as
    /// [`step_cycle`](Self::step_cycle), but stage 4 visits only the
    /// SMXs whose scheduled wake-up is due (popped from the min-heap in
    /// (cycle, index) order, which preserves the launch-credit and
    /// submission ordering of the linear scan), and the cycle counter
    /// then jumps to the machine's next event instead of incrementing
    /// blindly.
    fn step_event(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        let heap_depth = self.event_heap.len() as u64;
        let sample = self.prof_begin(Some(heap_depth));
        self.watchdog_check(now)?;
        let t = sample.then(Instant::now);
        self.stage_launch_maturation(now)?;
        self.prof_add(0, t);
        let t = sample.then(Instant::now);
        self.stage_kmu_dispatch(now)?;
        self.prof_add(1, t);
        let t = sample.then(Instant::now);
        self.stage_tb_dispatch(now)?;
        self.prof_add(2, t);

        let t = sample.then(Instant::now);
        let mut launch_credits = self.launch_credit_pool();
        let mut due: u64 = 0;
        while let Some(&Reverse((wake, idx))) = self.event_heap.peek() {
            if wake > now {
                break;
            }
            self.event_heap.pop();
            let i = idx as usize;
            if self.smx_wake[i] != wake {
                continue; // superseded entry
            }
            due += 1;
            if self.fault.as_ref().is_some_and(|p| p.smx_killed_at(SmxId(idx), now)) {
                let at = self.smx_wake_for(i, now.saturating_add(1));
                self.set_smx_wake(i, at);
                continue;
            }
            self.run_smx(i, now, &mut launch_credits)?;
            let at = self.smx_wake_for(i, now.saturating_add(1));
            self.set_smx_wake(i, at);
        }
        self.prof_add(3, t);
        if let Some(p) = &mut self.engine_prof {
            p.stats.events_per_cycle.record(due);
        }

        self.cycle += 1;
        let t = sample.then(Instant::now);
        self.event_advance();
        self.prof_add(4, t);
        Ok(())
    }

    /// Advances `cycle` to the next cycle on which any stage can act:
    /// the earliest of TB dispatch (every cycle while TBs await
    /// dispatch), KMU→KDU dispatch (every cycle the queue is open with
    /// a free entry — the scheduler's `kmu_pick` may mutate counters
    /// even when it declines), held-back launch-path work, launch-model
    /// maturity, and the SMX wake heap. With no event pending on a
    /// non-drained machine (every resident SMX killed forever), jumps
    /// to the watchdog deadline *without* re-arming it, so the wedge is
    /// diagnosed on the same cycle as single-stepping would.
    ///
    /// Skipping is safe because idle cycles mutate nothing: SMX `step`
    /// early-returns before [`Smx::next_event`], launch models only act
    /// when a launch matures, and memory latencies are computed lazily
    /// at access time. Deferred SMX stall accounting charges a skipped
    /// span to each SMX's unchanged wait cause on its next active step
    /// or stats read.
    fn event_advance(&mut self) {
        let c = self.cycle;
        let mut target = Cycle::MAX;
        // Which candidate arm produced the winning (earliest) target.
        // Ties keep the first winner, matching the original
        // `target.min(at)` fold exactly (`at < target` strictly).
        let mut source = WakeSource::ComponentTick;
        if self.undispatched > 0 {
            target = c;
        } else {
            if !self.kmu.is_empty() && self.kdu.has_free_entry() {
                let open = match &self.fault {
                    Some(p) => p.first_queue_open(c),
                    None => Some(c),
                };
                if let Some(open) = open {
                    let at = open.max(c);
                    if at < target {
                        target = at;
                        // Waiting on a QueueFull window to lift is a
                        // fault edge; an already-open queue is a plain
                        // dispatch tick.
                        source = if open > c {
                            WakeSource::FaultEdge
                        } else {
                            WakeSource::ComponentTick
                        };
                    }
                }
            }
            for &(ready, _) in &self.delayed_launches {
                let at = ready.max(c);
                if at < target {
                    target = at;
                    source = WakeSource::FaultEdge;
                }
            }
            if let Some(&(ready, _)) = self.spill_queue.front() {
                if self.launch_buffer_has_space() {
                    let at = ready.max(c);
                    if at < target {
                        target = at;
                        source = WakeSource::BackpressureRelease;
                    }
                }
                // With the buffer full, the release is gated on a
                // delivery maturing, which the in-flight arm below
                // already wakes for.
            }
            if let Some(&(ready, _)) = self.launch_backlog.front() {
                let at = ready.max(c);
                if at < target {
                    target = at;
                    source = WakeSource::BackpressureRelease;
                }
            }
            if self.launch_model.in_flight() > 0 {
                let ready = self.launch_model.next_ready().unwrap_or(c);
                let at = ready.max(c);
                if at < target {
                    target = at;
                    source = WakeSource::ComponentTick;
                }
            }
            while let Some(&Reverse((wake, idx))) = self.event_heap.peek() {
                if self.smx_wake[idx as usize] == wake {
                    if wake < target {
                        target = wake;
                        source = WakeSource::ComponentTick;
                    }
                    break;
                }
                self.event_heap.pop(); // superseded entry
            }
        }

        let wedge = target == Cycle::MAX;
        if wedge {
            if self.is_done() {
                return;
            }
            target = self.watchdog_deadline;
        }
        let target = target.min(self.cfg.max_cycles.saturating_add(1));
        let jump = target.saturating_sub(c);
        self.prof_set_wake(
            if wedge {
                WakeSource::WatchdogDeadline
            } else if jump >= 1 {
                WakeSource::FastForwardJump
            } else {
                source
            },
            jump,
        );
        if target > c {
            self.fast_forwarded_cycles += target - c;
            self.emit(c, TraceEvent::FastForward { from: c, to: target });
            self.cycle = target;
            if !wedge {
                // A jump lands exactly on the machine's next event,
                // which is progress by construction; push the watchdog
                // deadline past it so a long (legitimate) idle stretch
                // cannot trip it. A wedge jump deliberately leaves the
                // deadline alone so the stage-0 compare fires there.
                if let Some(window) = self.cfg.watchdog_window {
                    self.watchdog_deadline =
                        self.watchdog_deadline.max(target.saturating_add(window));
                }
            }
        }
    }

    /// Arms the event engine: seeds the wake-up heap with each SMX's
    /// next event. From here on `place` and `step_event` keep it
    /// current.
    fn arm_event_heap(&mut self) {
        self.event_live = true;
        self.event_heap.clear();
        self.smx_wake.clear();
        self.smx_wake.resize(self.smxs.len(), Cycle::MAX);
        for i in 0..self.smxs.len() {
            // An empty SMX's wake is `Cycle::MAX`, which schedules nothing.
            let at = self.smx_wake_for(i, self.cycle);
            self.set_smx_wake(i, at);
        }
    }

    /// The counter snapshot the watchdog compares across a window.
    fn progress_signature(&self) -> ProgressSignature {
        (
            self.dispatch_seq,
            self.finished_tbs_total,
            self.batches.len() as u64,
            self.smxs.iter().map(|s| s.warp_instructions).sum(),
            self.launch_submitted_total,
            self.delivered_total,
        )
    }

    /// Builds the watchdog report: resident TBs first (with their SMX
    /// and its current wait cause), then batches still awaiting dispatch.
    fn no_forward_progress(&self, now: Cycle) -> SimError {
        let mut suspects = Vec::new();
        'resident: for smx in &self.smxs {
            for tb in smx.resident_refs() {
                if suspects.len() >= MAX_WATCHDOG_SUSPECTS {
                    break 'resident;
                }
                suspects.push(StuckTb {
                    tb,
                    smx: Some(smx.id()),
                    level: self.batches[tb.batch.index()].priority.0,
                    cause: Some(smx.wait_cause()),
                });
            }
        }
        for b in &self.batches {
            if suspects.len() >= MAX_WATCHDOG_SUSPECTS {
                break;
            }
            if b.state != BatchState::Complete && b.has_undispatched_tbs() {
                suspects.push(StuckTb {
                    tb: TbRef { batch: b.id, index: b.next_tb },
                    smx: None,
                    level: b.priority.0,
                    cause: None,
                });
            }
        }
        SimError::NoForwardProgress {
            window: self.cfg.watchdog_window.unwrap_or(0),
            cycle: now,
            suspects,
        }
    }

    /// When a KMU-rejected delivery retries: next cycle under
    /// `StallParent` (the message waits at the queue head), after the
    /// virtual-queue round trip under `SpillVirtual`.
    fn backlog_retry_at(&self, now: Cycle) -> Cycle {
        match self.cfg.launch_limits.policy {
            OverflowPolicy::StallParent => now + 1,
            OverflowPolicy::SpillVirtual { extra_latency } => now + 1 + u64::from(extra_latency),
        }
    }

    /// `true` while the pending-launch buffer can take another launch.
    fn launch_buffer_has_space(&self) -> bool {
        self.cfg
            .launch_limits
            .pending_launch_capacity
            .is_none_or(|cap| self.launch_model.in_flight() < cap)
    }

    /// Routes a launch that already passed fault disposition into the
    /// launch model, spilling to the virtual queue when the pending
    /// buffer is full under `SpillVirtual`. (Under `StallParent` the
    /// credit gate in `step` prevents over-submission instead.)
    fn admit_to_launch_model(&mut self, req: LaunchRequest, now: Cycle) {
        if let OverflowPolicy::SpillVirtual { extra_latency } = self.cfg.launch_limits.policy {
            if !self.launch_buffer_has_space() {
                self.spill_events += 1;
                self.spill_queue.push_back((now + u64::from(extra_latency), req));
                self.spill_hwm = self.spill_hwm.max(self.spill_queue.len() as u64);
                return;
            }
        }
        self.launch_model.submit(req);
    }

    /// Accepts a launch issued by an SMX this cycle: counts it, applies
    /// fault disposition (drop / delay), then admits it.
    fn submit_launch(&mut self, req: LaunchRequest, now: Cycle) {
        self.launch_submitted_total += 1;
        let nth = self.launch_submitted_total;
        if let Some(plan) = &mut self.fault {
            match plan.launch_disposition(nth) {
                LaunchDisposition::Pass => {}
                LaunchDisposition::Drop => return,
                LaunchDisposition::Delay(extra) => {
                    self.delayed_launches.push((now.saturating_add(extra), req));
                    return;
                }
            }
        }
        self.admit_to_launch_model(req, now);
    }

    /// [`step`](Self::step)s until [`is_done`](Self::is_done) or the
    /// cycle limit. Both engine modes produce bit-identical statistics,
    /// trace streams (modulo `FastForward` markers), and errors
    /// (asserted by `tests/engine_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimitExceeded`] past `cfg.max_cycles`, or
    /// any error from [`step`](Self::step).
    pub fn run_to_completion(&mut self) -> Result<SimStats, SimError> {
        while !self.is_done() {
            self.step()?;
            if self.cycle > self.cfg.max_cycles {
                return Err(SimError::CycleLimitExceeded { limit: self.cfg.max_cycles });
            }
        }
        Ok(self.stats())
    }

    /// A snapshot of the statistics so far.
    pub fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.cycle,
            warp_instructions: self.smxs.iter().map(|s| s.warp_instructions).sum(),
            instruction_mix: {
                let mut mix = crate::stats::InstructionMix::default();
                for s in &self.smxs {
                    mix.merge(&s.instruction_mix);
                }
                mix
            },
            thread_instructions: self.smxs.iter().map(|s| s.thread_instructions).sum(),
            l1: self.mem.l1_stats_total(),
            l2: *self.mem.l2_stats(),
            dram_accesses: self.mem.dram_accesses(),
            dram_mean_queueing: self.mem.dram_mean_queueing(),
            dram_row_hit_rate: self.mem.dram_row_hit_rate(),
            mshr_merges: self.mem.mshr_merges(),
            l2_writebacks: self.mem.l2_writebacks(),
            smx_busy_cycles: self.smxs.iter().map(|s| s.busy_cycles).collect(),
            smx_stalls: self.smxs.iter().map(|s| s.stalls(self.cycle)).collect(),
            smx_tbs: self.smxs.iter().map(|s| s.tbs_executed).collect(),
            tb_records: self.tb_records.clone(),
            scheduler_counters: self.scheduler.counters(),
            launch_counters: {
                // Engine-level overflow counters only appear when the
                // launch path can actually overflow, keeping default-run
                // reports (and goldens) unchanged; model counters (e.g.
                // DTBL table overflows) are always surfaced.
                let mut counters = Vec::new();
                if !self.cfg.launch_limits.is_unbounded() {
                    counters.push(("kmu_overflows", self.kmu_overflows));
                    counters.push(("launch_backlog_hwm", self.backlog_hwm));
                    counters.push(("spill_events", self.spill_events));
                    counters.push(("spill_occupancy_hwm", self.spill_hwm));
                }
                if let Some(plan) = &self.fault {
                    counters.push(("fault_dropped_launches", plan.dropped));
                    counters.push(("fault_delayed_launches", plan.delayed));
                }
                counters.extend(self.launch_model.counters());
                counters
            },
            scheduler: self.scheduler.name().to_string(),
            launch_model: self.launch_model.name().to_string(),
            locality: self.cfg.profile_locality.then(|| {
                let mut bind = crate::stats::BindReuse::default();
                for s in &self.smxs {
                    bind.merge(&s.bind_reuse);
                }
                LocalityStats {
                    l1_reuse_dist: self.mem.l1_reuse_dist_total(),
                    l2_reuse_dist: self.mem.l2_reuse_dist(),
                    bind,
                }
            }),
            engine: self.engine_prof.as_ref().map(|p| p.stats.clone()),
            latency: self
                .cfg
                .profile_latency
                .then(|| LatencyStats::from_records(&self.tb_records, self.kmu.depth_hwm())),
        }
    }

    /// Admits a matured launch into the scheduling hardware.
    ///
    /// Returns `Ok(Some(delivery))` — handing the delivery back — when it
    /// needs a KMU slot and the KMU is at its configured capacity; the
    /// caller queues it in the launch backlog. The batch is only created
    /// on admission, so batch IDs stay dense and in admission order.
    fn deliver_launch(
        &mut self,
        delivery: Delivery,
        now: Cycle,
    ) -> Result<Option<Delivery>, SimError> {
        let kmu_has_space =
            self.cfg.launch_limits.kmu_capacity.is_none_or(|cap| self.kmu.len() < cap);
        match delivery {
            Delivery::DeviceKernel(req) => {
                if !kmu_has_space {
                    return Ok(Some(Delivery::DeviceKernel(req)));
                }
                let id = self.create_batch(
                    BatchKind::DeviceKernel,
                    req.kind,
                    req.param,
                    req.num_tbs,
                    req.req,
                    Some(req.origin),
                )?;
                self.batches[id.index()].created_at = req.issued_at;
                self.delivered_total += 1;
                self.kmu.push(id);
                self.emit(now, TraceEvent::KernelQueued { batch: id });
            }
            Delivery::TbGroup(req) => {
                let parent_entry = self.batches[req.origin.parent_batch.index()]
                    .kdu_entry
                    .filter(|&e| self.kdu.entry(e).is_some());
                // A group whose parent entry is gone falls back to the
                // KMU and therefore needs a slot there.
                if parent_entry.is_none() && !kmu_has_space {
                    return Ok(Some(Delivery::TbGroup(req)));
                }
                let id = self.create_batch(
                    BatchKind::TbGroup,
                    req.kind,
                    req.param,
                    req.num_tbs,
                    req.req,
                    Some(req.origin),
                )?;
                self.batches[id.index()].created_at = req.issued_at;
                self.delivered_total += 1;
                match parent_entry {
                    Some(entry) => {
                        if !self.kdu.attach_group(entry, id) {
                            return Err(SimError::EngineInvariant {
                                cycle: now,
                                what: format!("KDU entry {entry} refused group {id}"),
                            });
                        }
                        self.emit(now, TraceEvent::GroupCoalesced { batch: id, entry });
                        self.make_schedulable(id, entry, now)?;
                    }
                    None => {
                        // The parent kernel's entry is gone; fall back to a
                        // device-kernel launch through the KMU.
                        self.batches[id.index()].batch_kind = BatchKind::DeviceKernel;
                        self.kmu.push(id);
                        self.emit(now, TraceEvent::KernelQueued { batch: id });
                    }
                }
            }
        }
        Ok(None)
    }

    fn make_schedulable(&mut self, id: BatchId, entry: usize, now: Cycle) -> Result<(), SimError> {
        let Some(seq) = self.kdu.entry(entry).map(|e| e.seq) else {
            return Err(SimError::EngineInvariant {
                cycle: now,
                what: format!("KDU entry {entry} vacant while admitting {id}"),
            });
        };
        {
            let b = &mut self.batches[id.index()];
            b.state = BatchState::Schedulable;
            b.schedulable_at = Some(now);
            b.kdu_entry = Some(entry);
            self.undispatched += u64::from(b.num_tbs);
        }
        // Insert in KDU-FCFS order: after the last batch whose entry seq
        // is <= this one (groups go behind their base kernel and earlier
        // siblings).
        let mut pos = self.sched_seq.len();
        while pos > 0 && self.sched_seq[pos - 1] > seq {
            pos -= 1;
        }
        let pos = pos.max(self.sched_head);
        self.sched_list.insert(pos, id);
        self.sched_seq.insert(pos, seq);
        self.scheduler.on_batch_schedulable(&self.batches[id.index()], now);
        self.drain_sched_trace(now);
        Ok(())
    }

    fn prune_sched_list(&mut self) {
        while self.sched_head < self.sched_list.len() {
            let b = &self.batches[self.sched_list[self.sched_head].index()];
            if b.has_undispatched_tbs() {
                break;
            }
            self.sched_head += 1;
        }
        if self.sched_head > SCHED_PRUNE_THRESHOLD {
            self.sched_list.drain(..self.sched_head);
            self.sched_seq.drain(..self.sched_head);
            self.sched_head = 0;
        }
    }

    /// TB `tb` of a `(kind, param)` batch, lowered for `threads` threads:
    /// served by the program memo when one is attached, otherwise
    /// materialized from the source and lowered here.
    fn lowered_program(
        &self,
        kind: KernelKindId,
        param: u64,
        tb: u32,
        threads: u32,
    ) -> Arc<LoweredProgram> {
        let program = || self.source.tb_program(kind, param, tb);
        match &self.programs {
            Some(memo) => memo.get_or_lower(kind, param, tb, threads, program),
            None => Arc::new(LoweredProgram::lower(
                &program(),
                threads,
                self.cfg.warp_size,
                self.cfg.line_bits(),
            )),
        }
    }

    fn place(&mut self, d: DispatchDecision, now: Cycle) -> Result<(), SimError> {
        let Some(batch) = self.batches.get(d.batch.index()) else {
            return Err(SimError::BadDispatch {
                batch: d.batch,
                smx: d.smx,
                reason: "unknown batch".into(),
            });
        };
        if batch.state != BatchState::Schedulable || !batch.has_undispatched_tbs() {
            return Err(SimError::BadDispatch {
                batch: d.batch,
                smx: d.smx,
                reason: "batch not schedulable or exhausted".into(),
            });
        }
        if d.smx.index() >= self.smxs.len() || !self.smxs[d.smx.index()].fits(&batch.req) {
            return Err(SimError::BadDispatch {
                batch: d.batch,
                smx: d.smx,
                reason: "insufficient SMX resources".into(),
            });
        }

        let (tb_index, kind, param, req, origin, priority) = {
            let b = &mut self.batches[d.batch.index()];
            let tb_index = b.next_tb;
            b.next_tb += 1;
            (tb_index, b.kind, b.param, b.req, b.origin, b.priority)
        };
        self.undispatched -= 1;

        let tb = TbRef { batch: d.batch, index: tb_index };
        let program = self.lowered_program(kind, param, tb_index, req.threads);
        let class = if origin.is_some() { AccessClass::Child } else { AccessClass::Parent };
        self.dispatch_seq += 1;
        let lineage = if self.cfg.profile_locality {
            self.lineage_of(tb, d.smx, origin)
        } else {
            Lineage::new(tb, d.smx)
        };
        self.smxs[d.smx.index()].place(lineage, class, program, req, self.dispatch_seq, now);

        if self.event_live {
            // The placed TB is runnable this very cycle; stage 4 of the
            // event engine must see the SMX in its due set.
            let at = self.smx_wake_for(d.smx.index(), now);
            self.set_smx_wake(d.smx.index(), at);
        }
        self.emit(now, TraceEvent::TbDispatched { tb, smx: d.smx });
        let batch = &self.batches[d.batch.index()];
        self.tb_records.push(TbRecord {
            tb,
            kind,
            smx: d.smx,
            priority,
            is_dynamic: origin.is_some(),
            parent: origin.map(|o| (o.parent_batch, o.parent_tb, o.parent_smx)),
            created_at: batch.created_at,
            matured_at: batch.matured_at,
            // A batch is always schedulable before its TBs dispatch; the
            // `Cycle::MAX` fallback would only fire on an engine bug and
            // then surfaces as a partition violation, not a panic.
            schedulable_at: batch.schedulable_at.unwrap_or(Cycle::MAX),
            dispatched_at: now,
            first_issue_at: Cycle::MAX,
            finished_at: 0,
        });
        Ok(())
    }

    /// Resolves the full ancestry of `tb` (dispatched to `smx` with the
    /// given launch `origin`) by walking the batch table's origin chain.
    /// Only called when `cfg.profile_locality` is on, so plain runs never
    /// pay for the walk.
    fn lineage_of(&self, tb: TbRef, smx: SmxId, origin: Option<Origin>) -> Lineage {
        let mut lineage = Lineage::new(tb, smx);
        lineage.parent_smx = origin.as_ref().map(|o| o.parent_smx);
        let mut cur = origin;
        while let Some(o) = cur {
            lineage.push_ancestor(TbRef { batch: o.parent_batch, index: o.parent_tb });
            cur = self.batches[o.parent_batch.index()].origin;
        }
        lineage
    }

    fn finish_tb(&mut self, c: TbCompletion, now: Cycle) -> Result<(), SimError> {
        self.emit(now, TraceEvent::TbCompleted { tb: c.tb, smx: c.smx });
        self.finished_tbs_total += 1;
        // Dispatch `n` pushed the `n`-th record.
        let record = c.dispatch_seq.checked_sub(1).and_then(|i| usize::try_from(i).ok());
        if let Some(r) = record.and_then(|i| self.tb_records.get_mut(i)) {
            r.finished_at = c.finished_at;
            // A TB that retired without issuing (an empty program, which
            // retires in its dispatch cycle) keeps the SMX sentinel; its
            // retirement stands in for the first issue.
            r.first_issue_at =
                if c.first_issue_at == Cycle::MAX { c.finished_at } else { c.first_issue_at };
        }
        let (complete, entry) = {
            let b = &mut self.batches[c.tb.batch.index()];
            b.finished_tbs += 1;
            let complete = b.is_complete();
            if complete {
                b.state = BatchState::Complete;
            }
            (complete, b.kdu_entry)
        };
        self.scheduler.on_tb_finished(c.tb, c.smx, now);

        if complete {
            if let Some(e) = entry {
                let all_done = self.kdu.entry(e).is_some_and(|entry| {
                    let done = |id: BatchId| self.batches[id.index()].state == BatchState::Complete;
                    done(entry.base) && entry.groups.iter().all(|&g| done(g))
                });
                if all_done {
                    let Some(removed) = self.kdu.remove(e) else {
                        return Err(SimError::EngineInvariant {
                            cycle: now,
                            what: format!("KDU entry {e} vanished during completion sweep"),
                        });
                    };
                    self.batches[removed.base.index()].kdu_entry = None;
                    for g in removed.groups {
                        self.batches[g.index()].kdu_entry = None;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::program::{AddrPattern, LaunchSpec, MemOp, TbOp, TbProgram};
    use crate::stats::critical_path_chain;

    /// Each parent TB does some compute; TB index `launcher` launches
    /// `children` child TBs that load the same lines the parent touched.
    struct NestedSource {
        launcher: u32,
        children: u32,
    }

    impl ProgramSource for NestedSource {
        fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
            match kind.0 {
                0 => {
                    let mut ops = vec![
                        TbOp::Mem(MemOp::load(AddrPattern::Strided {
                            base: u64::from(tb_index) * 4096,
                            stride: 4,
                        })),
                        TbOp::Compute(8),
                    ];
                    if tb_index == self.launcher {
                        ops.push(TbOp::Launch(LaunchSpec {
                            kind: KernelKindId(1),
                            param: u64::from(tb_index),
                            num_tbs: self.children,
                            req: ResourceReq::new(32, 8, 0),
                        }));
                    }
                    TbProgram::new(ops)
                }
                _ => TbProgram::new(vec![
                    TbOp::Mem(MemOp::load(AddrPattern::Strided { base: param * 4096, stride: 4 })),
                    TbOp::Compute(4),
                ]),
            }
        }
    }

    fn simple_sim() -> Simulator {
        Simulator::new(GpuConfig::small_test(), Box::new(NestedSource { launcher: 1, children: 3 }))
    }

    #[test]
    fn host_kernel_runs_to_completion() {
        let mut sim = simple_sim();
        sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        assert!(sim.is_done());
        // 6 parents + 3 children.
        assert_eq!(stats.tb_records.len(), 9);
        assert_eq!(stats.dynamic_tbs(), 3);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn every_tb_retires() {
        let mut sim = simple_sim();
        sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        for r in &stats.tb_records {
            assert!(r.finished_at >= r.dispatched_at, "TB {} never retired", r.tb);
        }
    }

    #[test]
    fn child_records_carry_parent_info() {
        let mut sim = simple_sim();
        sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        let children: Vec<_> = stats.tb_records.iter().filter(|r| r.is_dynamic).collect();
        assert_eq!(children.len(), 3);
        for c in children {
            let (pb, ptb, _psmx) = c.parent.unwrap();
            assert_eq!(pb, BatchId(0));
            assert_eq!(ptb, 1);
            assert_eq!(c.priority, Priority(1));
        }
    }

    #[test]
    fn zero_tb_host_kernel_rejected() {
        let mut sim = simple_sim();
        let err =
            sim.launch_host_kernel(KernelKindId(0), 0, 0, ResourceReq::new(64, 8, 0)).unwrap_err();
        assert!(matches!(err, SimError::KernelTooLarge { .. }));
    }

    #[test]
    fn oversized_kernel_rejected() {
        let mut sim = simple_sim();
        let cfg_threads = sim.config().max_threads_per_smx;
        let err = sim
            .launch_host_kernel(KernelKindId(0), 0, 1, ResourceReq::new(cfg_threads + 1, 8, 0))
            .unwrap_err();
        assert!(matches!(err, SimError::KernelTooLarge { .. }));
    }

    #[test]
    fn empty_machine_is_done() {
        let sim = simple_sim();
        assert!(sim.is_done());
    }

    #[test]
    fn round_robin_spreads_parent_tbs() {
        let mut sim = simple_sim();
        sim.launch_host_kernel(KernelKindId(0), 0, 4, ResourceReq::new(64, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        let parents: Vec<_> =
            stats.tb_records.iter().filter(|r| !r.is_dynamic).map(|r| r.smx.0).collect();
        // 4 parents on a 4-SMX machine, dispatched round-robin.
        assert_eq!(parents, vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_host_kernels_fcfs() {
        let mut sim = Simulator::new(
            GpuConfig::small_test(),
            Box::new(NestedSource { launcher: u32::MAX, children: 0 }),
        );
        sim.launch_host_kernel(KernelKindId(0), 0, 2, ResourceReq::new(64, 8, 0)).unwrap();
        sim.launch_host_kernel(KernelKindId(0), 1, 2, ResourceReq::new(64, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        assert_eq!(stats.tb_records.len(), 4);
        // First kernel's TBs dispatch before the second kernel's.
        let order: Vec<u32> = stats.tb_records.iter().map(|r| r.tb.batch.0).collect();
        assert_eq!(order, vec![0, 0, 1, 1]);
    }

    #[test]
    fn engine_profile_partitions_loop_iterations() {
        // Both engines: the wake-source counts must sum exactly to the
        // total number of loop iterations, and iterations must be live.
        for mode in [EngineMode::Event, EngineMode::CycleStepped] {
            let mut cfg = GpuConfig::small_test();
            cfg.engine_mode = mode;
            cfg.profile_engine = true;
            let mut sim = Simulator::new(cfg, Box::new(NestedSource { launcher: 1, children: 3 }));
            sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
            let stats = sim.run_to_completion().unwrap();
            let eng = stats.engine.as_ref().expect("profiling on");
            assert!(eng.loop_iterations > 0, "{mode:?}: no iterations recorded");
            assert_eq!(
                eng.wake_total(),
                eng.loop_iterations,
                "{mode:?}: wake sources must partition loop iterations exactly"
            );
            assert!(eng.host_samples > 0, "{mode:?}: sampling stride never fired");
        }
    }

    #[test]
    fn engine_profile_off_leaves_stats_unchanged() {
        // Profiling is observational: SimStats (minus the engine field)
        // must be bit-identical with it on and off.
        let run = |profile: bool| {
            let mut cfg = GpuConfig::small_test();
            cfg.profile_engine = profile;
            let mut sim = Simulator::new(cfg, Box::new(NestedSource { launcher: 1, children: 3 }));
            sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
            sim.run_to_completion().unwrap()
        };
        let off = run(false);
        let mut on = run(true);
        assert!(off.engine.is_none());
        assert!(on.engine.is_some());
        on.engine = None;
        assert_eq!(off, on);
    }

    #[test]
    fn latency_profile_off_leaves_stats_unchanged() {
        // Latency profiling is observational: SimStats (minus the
        // latency field) must be bit-identical with it on and off.
        let run = |profile: bool| {
            let mut cfg = GpuConfig::small_test();
            cfg.profile_latency = profile;
            let mut sim = Simulator::new(cfg, Box::new(NestedSource { launcher: 1, children: 3 }));
            sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
            sim.run_to_completion().unwrap()
        };
        let off = run(false);
        let mut on = run(true);
        assert!(off.latency.is_none());
        assert!(on.latency.is_some());
        on.latency = None;
        assert_eq!(off, on);
    }

    #[test]
    fn latency_partition_is_exact_in_both_engine_modes() {
        for mode in [EngineMode::Event, EngineMode::CycleStepped] {
            let mut cfg = GpuConfig::small_test();
            cfg.engine_mode = mode;
            cfg.profile_latency = true;
            let mut sim = Simulator::new(cfg, Box::new(NestedSource { launcher: 1, children: 3 }));
            sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
            let stats = sim.run_to_completion().unwrap();
            let lat = stats.latency.as_ref().expect("profiling on");
            let ctx = format!("{mode:?}");
            assert_eq!(lat.partition_violations, 0, "{ctx}: out-of-order stamps");
            assert_eq!(
                lat.tbs,
                stats.tb_records.len() as u64,
                "{ctx}: every dispatched TB must be in the histograms"
            );
            for h in [&lat.launch_path, &lat.queue_wait, &lat.dispatch_gap, &lat.exec] {
                assert_eq!(h.count, lat.tbs, "{ctx}: component count mismatch");
            }
            // The four components partition the lifetime exactly, in
            // aggregate and therefore per TB (each is per-TB exact by
            // telescoping; sums catch any miss).
            assert_eq!(
                lat.launch_path.sum + lat.queue_wait.sum + lat.dispatch_gap.sum + lat.exec.sum,
                lat.lifetime.sum,
                "{ctx}: components must sum to lifetime"
            );
            // Child splits partition the child histogram.
            assert_eq!(
                lat.bound_queue_wait.count + lat.stolen_queue_wait.count,
                lat.child_queue_wait.count,
                "{ctx}: bound/stolen must partition children"
            );
            assert_eq!(lat.child_queue_wait.count, 3, "{ctx}: 3 children expected");
            // Depth rollup covers every TB.
            let depth_total: u64 = lat.depth_queue_wait.iter().map(|(_, h)| h.count).sum();
            assert_eq!(depth_total, lat.tbs, "{ctx}: depth rollup incomplete");
            let kind_total: u64 = lat.kind_lifetime.iter().map(|(_, h)| h.count).sum();
            assert_eq!(kind_total, lat.tbs, "{ctx}: kind rollup incomplete");
            // Critical path: non-trivial on a nested run, internally
            // exact, and bounded by the makespan.
            let cp = &lat.critical_path;
            let chain = critical_path_chain(&stats.tb_records);
            assert_eq!(cp.len as usize, chain.len(), "{ctx}: chain length mismatch");
            assert!(cp.len >= 1, "{ctx}: empty critical path");
            assert_eq!(
                cp.queue_cycles + cp.exec_cycles,
                cp.cycles,
                "{ctx}: critical-path attribution must partition its weight"
            );
            assert!(cp.cycles <= stats.cycles, "{ctx}: path longer than the run");
            // Chain is stored root-first: parents dispatch before
            // their children.
            for pair in chain.windows(2) {
                let d = |i: usize| stats.tb_records[i].dispatched_at;
                assert!(d(pair[0]) <= d(pair[1]), "{ctx}: chain not root-first");
            }
        }
    }

    #[test]
    fn latency_stats_bit_identical_across_engine_modes() {
        let run = |mode: EngineMode| {
            let mut cfg = GpuConfig::small_test();
            cfg.engine_mode = mode;
            cfg.profile_latency = true;
            let mut sim = Simulator::new(cfg, Box::new(NestedSource { launcher: 1, children: 3 }));
            sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
            sim.run_to_completion().unwrap().latency.expect("profiling on")
        };
        assert_eq!(run(EngineMode::Event), run(EngineMode::CycleStepped));
    }

    #[test]
    fn stats_cache_totals_consistent() {
        let mut sim = simple_sim();
        sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        assert_eq!(stats.l1.accesses(), stats.l1.hits + stats.l1.misses);
        // Every L2 access stems from an L1 miss or store.
        assert!(stats.l2.accesses() <= stats.l1.accesses());
        assert!(stats.dram_accesses <= stats.l2.accesses());
    }

    #[test]
    fn sched_list_compacts_after_many_exhausted_batches() {
        // Thousands of single-TB kernels leave behind thousands of
        // exhausted sched-list entries; the prune must compact them
        // instead of letting the cursor (and the backing Vecs) grow
        // without bound.
        let mut cfg = GpuConfig::small_test();
        cfg.max_cycles = 10_000_000;
        let mut sim =
            Simulator::new(cfg, Box::new(NestedSource { launcher: u32::MAX, children: 0 }));
        let total = SCHED_PRUNE_THRESHOLD as u32 + 128;
        for i in 0..total {
            sim.launch_host_kernel(KernelKindId(0), u64::from(i), 1, ResourceReq::new(32, 8, 0))
                .unwrap();
        }
        let stats = sim.run_to_completion().unwrap();
        assert_eq!(stats.tb_records.len(), total as usize);
        assert!(
            sim.sched_head <= SCHED_PRUNE_THRESHOLD,
            "cursor never compacted: sched_head = {}",
            sim.sched_head
        );
        assert!(
            sim.sched_list.len() < total as usize,
            "sched_list still holds all {} exhausted entries",
            sim.sched_list.len()
        );
        assert_eq!(sim.sched_list.len(), sim.sched_seq.len());
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut cfg = GpuConfig::small_test();
        cfg.max_cycles = 10;
        let mut sim = Simulator::new(cfg, Box::new(NestedSource { launcher: 0, children: 8 }));
        sim.launch_host_kernel(KernelKindId(0), 0, 64, ResourceReq::new(64, 8, 0)).unwrap();
        let err = sim.run_to_completion().unwrap_err();
        assert_eq!(err, SimError::CycleLimitExceeded { limit: 10 });
    }

    // ---- finite launch-path resources, faults, and the watchdog ----

    use crate::config::{LaunchLimits, OverflowPolicy};
    use crate::fault::{Fault, FaultPlan};

    /// Every kind-0 TB immediately launches `children` kind-1 TBs from a
    /// single warp — maximal pressure on the launch path.
    struct LaunchStorm {
        children: u32,
    }

    impl ProgramSource for LaunchStorm {
        fn tb_program(&self, kind: KernelKindId, _param: u64, tb_index: u32) -> TbProgram {
            match kind.0 {
                0 => TbProgram::new(vec![
                    TbOp::Launch(LaunchSpec {
                        kind: KernelKindId(1),
                        param: u64::from(tb_index),
                        num_tbs: self.children,
                        req: ResourceReq::new(32, 8, 0),
                    }),
                    TbOp::Compute(2),
                ]),
                _ => TbProgram::new(vec![TbOp::Compute(4)]),
            }
        }
    }

    /// A CDP-style launch model with a fixed maturation delay, so the
    /// pending-launch buffer stays occupied long enough to contend over.
    struct SlowLaunchModel {
        delay: u64,
        pending: Vec<(Cycle, LaunchRequest)>,
    }

    impl DynamicLaunchModel for SlowLaunchModel {
        fn submit(&mut self, req: LaunchRequest) {
            self.pending.push((req.issued_at + self.delay, req));
        }

        fn drain_ready(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
            let mut i = 0;
            while i < self.pending.len() {
                if self.pending[i].0 <= now {
                    out.push(Delivery::DeviceKernel(self.pending.remove(i).1));
                } else {
                    i += 1;
                }
            }
        }

        fn in_flight(&self) -> usize {
            self.pending.len()
        }

        fn name(&self) -> &'static str {
            "slow-test"
        }
    }

    fn counter(stats: &SimStats, name: &str) -> u64 {
        stats
            .launch_counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    }

    #[test]
    fn stall_parent_backpressure_completes_with_launch_path_stalls() {
        let mut cfg = GpuConfig::small_test();
        cfg.launch_limits.pending_launch_capacity = Some(1);
        cfg.launch_limits.policy = OverflowPolicy::StallParent;
        let mut sim = Simulator::new(cfg, Box::new(LaunchStorm { children: 1 }))
            .with_launch_model(Box::new(SlowLaunchModel { delay: 50, pending: Vec::new() }));
        sim.launch_host_kernel(KernelKindId(0), 0, 8, ResourceReq::new(32, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        // Every parent and every child still retires.
        assert_eq!(stats.tb_records.len(), 16);
        // With one buffer slot held for 50 cycles, the other launchers
        // must have blocked on the launch path at some point.
        assert!(stats.total_stalls().launch_path > 0);
        // StallParent never spills.
        assert_eq!(counter(&stats, "spill_events"), 0);
    }

    #[test]
    fn spill_virtual_spills_and_completes() {
        let mut cfg = GpuConfig::small_test();
        cfg.launch_limits.pending_launch_capacity = Some(1);
        cfg.launch_limits.policy = OverflowPolicy::SpillVirtual { extra_latency: 25 };
        let mut sim = Simulator::new(cfg, Box::new(LaunchStorm { children: 1 }))
            .with_launch_model(Box::new(SlowLaunchModel { delay: 50, pending: Vec::new() }));
        sim.launch_host_kernel(KernelKindId(0), 0, 8, ResourceReq::new(32, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        assert_eq!(stats.tb_records.len(), 16);
        // Parents never block under SpillVirtual; the overflow goes to
        // the memory-backed virtual queue instead.
        assert!(counter(&stats, "spill_events") > 0);
        assert!(counter(&stats, "spill_occupancy_hwm") >= 1);
        assert_eq!(stats.total_stalls().launch_path, 0);
    }

    #[test]
    fn kmu_capacity_overflow_backlogs_and_drains() {
        let mut cfg = GpuConfig::small_test();
        // One concurrent kernel: the host kernel pins the only KDU entry
        // while child kernels pile into a one-slot KMU.
        cfg.max_concurrent_kernels = 1;
        cfg.launch_limits.kmu_capacity = Some(1);
        let mut sim = Simulator::new(cfg, Box::new(LaunchStorm { children: 2 }));
        sim.launch_host_kernel(KernelKindId(0), 0, 8, ResourceReq::new(32, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        assert_eq!(stats.tb_records.len(), 24);
        assert!(counter(&stats, "kmu_overflows") > 0);
        assert!(counter(&stats, "launch_backlog_hwm") >= 1);
    }

    #[test]
    fn large_finite_limits_match_unbounded_bit_for_bit() {
        let run = |limits: LaunchLimits| {
            let mut cfg = GpuConfig::small_test();
            cfg.launch_limits = limits;
            let mut sim = Simulator::new(cfg, Box::new(LaunchStorm { children: 2 }));
            sim.launch_host_kernel(KernelKindId(0), 0, 8, ResourceReq::new(32, 8, 0)).unwrap();
            let mut stats = sim.run_to_completion().unwrap();
            // The counter lists differ by construction (finite limits
            // surface extra zero counters); everything else must match.
            stats.launch_counters.clear();
            stats
        };
        let generous = LaunchLimits {
            kmu_capacity: Some(10_000),
            pending_launch_capacity: Some(10_000),
            smx_queue_capacity: Some(10_000),
            policy: OverflowPolicy::StallParent,
        };
        assert_eq!(run(LaunchLimits::unbounded()), run(generous));
    }

    #[test]
    fn watchdog_names_stuck_tbs_when_all_smxs_die() {
        let mut cfg = GpuConfig::small_test();
        cfg.watchdog_window = Some(1_000);
        let faults =
            (0..4).map(|i| Fault::KillSmx { smx: SmxId(i), from: 0, until: u64::MAX }).collect();
        let mut sim =
            Simulator::new(cfg, Box::new(NestedSource { launcher: u32::MAX, children: 0 }))
                .with_fault_plan(FaultPlan::new(faults));
        sim.launch_host_kernel(KernelKindId(0), 0, 4, ResourceReq::new(64, 8, 0)).unwrap();
        let err = sim.run_to_completion().unwrap_err();
        match err {
            SimError::NoForwardProgress { window, suspects, .. } => {
                assert_eq!(window, 1_000);
                assert!(!suspects.is_empty());
                assert!(suspects.iter().any(|s| s.smx.is_some()));
            }
            other => panic!("expected NoForwardProgress, got {other}"),
        }
    }

    #[test]
    fn fault_drop_prunes_children_and_counts() {
        let mut sim =
            simple_sim().with_fault_plan(FaultPlan::new(vec![Fault::DropLaunch { nth: 1 }]));
        sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        // The single child launch was dropped: only the 6 parents ran.
        assert_eq!(stats.tb_records.len(), 6);
        assert_eq!(counter(&stats, "fault_dropped_launches"), 1);
        assert_eq!(sim.fault_plan().map(|p| p.dropped), Some(1));
    }

    #[test]
    fn fault_delay_preserves_the_outcome() {
        let baseline = {
            let mut sim = simple_sim();
            sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
            sim.run_to_completion().unwrap()
        };
        let mut sim = simple_sim()
            .with_fault_plan(FaultPlan::new(vec![Fault::DelayLaunch { nth: 1, extra: 500 }]));
        sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        // Same work happens, just later.
        assert_eq!(stats.tb_records.len(), baseline.tb_records.len());
        assert!(stats.cycles >= baseline.cycles);
        assert_eq!(counter(&stats, "fault_delayed_launches"), 1);
    }

    #[test]
    fn queue_full_window_holds_dispatch_down() {
        let mut sim = simple_sim()
            .with_fault_plan(FaultPlan::new(vec![Fault::QueueFull { from: 0, until: 200 }]));
        sim.launch_host_kernel(KernelKindId(0), 0, 6, ResourceReq::new(64, 8, 0)).unwrap();
        let stats = sim.run_to_completion().unwrap();
        // Nothing can reach the KDU before cycle 200.
        assert!(stats.cycles >= 200);
        assert_eq!(stats.tb_records.len(), 9);
    }
}
