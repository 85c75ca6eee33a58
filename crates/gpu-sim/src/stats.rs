//! Simulation statistics.

use std::collections::{BTreeMap, HashMap};

use crate::cache::{CacheStats, NUM_REUSE_CLASSES};
use crate::program::KernelKindId;
use crate::types::{BatchId, Cycle, Priority, SmxId, TbRef};

/// A power-of-two-bucket histogram of `u64` values: bucket 0 holds the
/// value 0, bucket `i` holds values in `[2^(i-1), 2^i)`. Fixed-size and
/// allocation-free so it can live inside the simulator's hot state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pow2Hist {
    /// Bucket counts (see type docs for the bucket boundaries).
    pub buckets: [u64; 65],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for Pow2Hist {
    fn default() -> Self {
        Pow2Hist { buckets: [0; 65], count: 0, sum: 0, max: 0 }
    }
}

impl Pow2Hist {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let bucket = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of the bucket holding value 0 (`i == 0`) or
    /// the range `[2^(i-1), 2^i)`.
    fn bucket_hi(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Upper bound of the `q`-quantile (`0.0..=1.0`): the smallest
    /// bucket boundary with at least `ceil(q * count)` recorded values
    /// at or below it, clamped to the observed maximum. Returns 0 for an
    /// empty histogram. With power-of-two buckets the bound is exact for
    /// single-valued buckets and at most 2x the true quantile otherwise
    /// — stable enough to compare policies against each other.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let threshold = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= threshold {
                return Self::bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_hi(i), n))
            .collect()
    }

    /// Accumulates another histogram into this one.
    pub fn merge(&mut self, other: &Pow2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Child-TB L1 reuse split by placement: *bound* children ran on their
/// direct parent's SMX, *stolen* (or otherwise redirected) children did
/// not. The contrast backs the Adaptive-Bind stolen-TB claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BindReuse {
    /// L1 hits by children resident on their parent's SMX.
    pub bound_hits: u64,
    /// …of which classified parent-child reuse.
    pub bound_parent_child: u64,
    /// L1 hits by children resident away from their parent's SMX.
    pub stolen_hits: u64,
    /// …of which classified parent-child reuse.
    pub stolen_parent_child: u64,
}

impl BindReuse {
    /// Parent-child share of bound-child L1 hits.
    pub fn bound_share(&self) -> f64 {
        if self.bound_hits == 0 {
            0.0
        } else {
            self.bound_parent_child as f64 / self.bound_hits as f64
        }
    }

    /// Parent-child share of stolen-child L1 hits.
    pub fn stolen_share(&self) -> f64 {
        if self.stolen_hits == 0 {
            0.0
        } else {
            self.stolen_parent_child as f64 / self.stolen_hits as f64
        }
    }

    /// Accumulates another split into this one.
    pub fn merge(&mut self, other: &BindReuse) {
        self.bound_hits += other.bound_hits;
        self.bound_parent_child += other.bound_parent_child;
        self.stolen_hits += other.stolen_hits;
        self.stolen_parent_child += other.stolen_parent_child;
    }
}

/// Locality-provenance profile of one run: per-class reuse-distance
/// histograms for both cache levels plus the bound/stolen child split.
/// The per-class *hit counts* live in the caches' own stats
/// (`SimStats::l1.prov` / `SimStats::l2.prov`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocalityStats {
    /// L1 reuse distance (cycles between install and hit) per class,
    /// merged over all SMXs, indexed by
    /// [`ReuseClass::index`](crate::cache::ReuseClass::index).
    pub l1_reuse_dist: [Pow2Hist; NUM_REUSE_CLASSES],
    /// L2 reuse distance per class.
    pub l2_reuse_dist: [Pow2Hist; NUM_REUSE_CLASSES],
    /// Bound vs stolen child L1 reuse split.
    pub bind: BindReuse,
}

/// Why the engine ran a loop iteration at the cycle it did.
///
/// Every iteration of either engine loop is tagged with exactly one
/// source — the arm of the wake-up computation that put the clock on
/// this cycle — so the per-source counts partition
/// [`EngineStats::loop_iterations`] exactly (asserted by
/// `tests/engine_introspection.rs` and the `engine-wake-partition`
/// shape assertion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSource {
    /// A component published this cycle: an SMX wake-up from the event
    /// heap, a ready KMU with a free KDU entry, a maturing launch in
    /// the launch model, or the TB-dispatch stage (which must tick
    /// every cycle while TBs await dispatch). Consecutive-cycle steps
    /// land here.
    ComponentTick,
    /// A fault window's edge was the earliest event: a `QueueFull`
    /// window opening the KMU dispatch path, or a fault-delayed launch
    /// reaching maturity.
    FaultEdge,
    /// A finite-launch-path release was the earliest event: the spill
    /// queue's round trip completing or a KMU-backlog retry coming due.
    BackpressureRelease,
    /// Quiescent-wedge jump: nothing can ever act again, so the engine
    /// jumped straight to the watchdog deadline to diagnose the wedge.
    WatchdogDeadline,
    /// The event engine skipped at least one idle cycle to reach this
    /// iteration; the jump length is recorded in
    /// [`EngineStats::jump_len`]. (The landing cycle's underlying cause
    /// is one of the sources above; the jump tag records that the
    /// iteration was *reached by skipping*, which is what the host-cost
    /// decomposition cares about.)
    FastForwardJump,
}

/// Number of [`WakeSource`] variants.
pub const NUM_WAKE_SOURCES: usize = 5;

impl WakeSource {
    /// All sources, in [`index`](Self::index) order.
    pub const ALL: [WakeSource; NUM_WAKE_SOURCES] = [
        WakeSource::ComponentTick,
        WakeSource::FaultEdge,
        WakeSource::BackpressureRelease,
        WakeSource::WatchdogDeadline,
        WakeSource::FastForwardJump,
    ];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            WakeSource::ComponentTick => 0,
            WakeSource::FaultEdge => 1,
            WakeSource::BackpressureRelease => 2,
            WakeSource::WatchdogDeadline => 3,
            WakeSource::FastForwardJump => 4,
        }
    }

    /// Stable snake_case name for reports and metrics.
    pub fn name(self) -> &'static str {
        match self {
            WakeSource::ComponentTick => "component_tick",
            WakeSource::FaultEdge => "fault_edge",
            WakeSource::BackpressureRelease => "backpressure_release",
            WakeSource::WatchdogDeadline => "watchdog_deadline",
            WakeSource::FastForwardJump => "fast_forward_jump",
        }
    }
}

/// Engine pipeline stages whose host time is sampled, in
/// [`EngineStats::host_ns`] index order. "Components" here are the
/// engine's units of host work: the three front-end stages, the SMX
/// stepping loop (which includes the memory system — caches and DRAM
/// answer inside SMX steps), and the wake-up/advance computation.
pub const ENGINE_HOST_COMPONENTS: [&str; 5] =
    ["launch_maturation", "kmu_dispatch", "tb_dispatch", "smx", "advance"];

/// Engine introspection for one run: why the loop woke, how deep the
/// event heap ran, how far idle-cycle skips jumped, and where host
/// nanoseconds went. `Some` in [`SimStats::engine`] only when the run
/// had [`GpuConfig::profile_engine`](crate::config::GpuConfig) set.
///
/// Everything except the `host_*` fields is a deterministic function of
/// the simulated machine (bit-identical across hosts and `--jobs`
/// counts, but *not* across engine modes — the introspection observes
/// the engine, not the simulation). The `host_*` fields are wall-clock
/// measurements and are never serialized into `repro.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Total engine loop iterations (cycles actually stepped).
    pub loop_iterations: u64,
    /// Iterations per wake source, indexed by [`WakeSource::index`].
    /// Sums exactly to `loop_iterations`.
    pub wake_counts: [u64; NUM_WAKE_SOURCES],
    /// Event-heap depth sampled at every event-loop iteration (empty in
    /// cycle-stepped mode, which has no heap).
    pub heap_depth: Pow2Hist,
    /// Due SMX wake-ups processed per event-loop iteration (empty in
    /// cycle-stepped mode).
    pub events_per_cycle: Pow2Hist,
    /// Lengths of multi-cycle jumps (idle skips and wedge jumps).
    pub jump_len: Pow2Hist,
    /// Host-time sampling stride: one in `host_sampling` iterations is
    /// timed with `Instant` spans.
    pub host_sampling: u64,
    /// Iterations that were host-timed.
    pub host_samples: u64,
    /// Sampled host nanoseconds per engine stage, indexed like
    /// [`ENGINE_HOST_COMPONENTS`]. Nondeterministic; excluded from
    /// `repro.json`.
    pub host_ns: [u64; 5],
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats {
            loop_iterations: 0,
            wake_counts: [0; NUM_WAKE_SOURCES],
            heap_depth: Pow2Hist::default(),
            events_per_cycle: Pow2Hist::default(),
            jump_len: Pow2Hist::default(),
            host_sampling: 1,
            host_samples: 0,
            host_ns: [0; 5],
        }
    }
}

impl EngineStats {
    /// Sum of the wake-source counts; always equals `loop_iterations`.
    pub fn wake_total(&self) -> u64 {
        self.wake_counts.iter().sum()
    }

    /// Iterations tagged with `source`.
    pub fn wake_count(&self, source: WakeSource) -> u64 {
        self.wake_counts[source.index()]
    }

    /// Total sampled host nanoseconds across all engine stages.
    pub fn host_total_ns(&self) -> u64 {
        self.host_ns.iter().sum()
    }

    /// The engine stage with the largest sampled host time, or `None`
    /// when no span was sampled. Ties break toward the earlier stage.
    pub fn dominant_component(&self) -> Option<&'static str> {
        if self.host_total_ns() == 0 {
            return None;
        }
        let mut best = 0;
        for (i, &ns) in self.host_ns.iter().enumerate() {
            if ns > self.host_ns[best] {
                best = i;
            }
        }
        Some(ENGINE_HOST_COMPONENTS[best])
    }
}

/// Why an SMX failed to issue on a given cycle.
///
/// Exactly one cause is charged per SMX per non-issuing cycle, so per
/// SMX `busy_cycles + StallBreakdown::total() == cycles` (asserted by
/// `tests/stall_attribution.rs`). A stalled cycle is attributed to the
/// wait of the *earliest-ready* warp of the earliest-ready resident TB
/// — the critical path out of the stall.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting on an ALU / shared-memory / launch-issue latency.
    #[default]
    Scoreboard,
    /// Waiting on an in-flight global-memory access.
    MemoryPending,
    /// Waiting on a global-memory access that found the MSHR file full.
    MshrFull,
    /// Waiting for the TB's warps to arrive at a barrier.
    Barrier,
    /// No resident TB at all (starved by the TB scheduler or done).
    NoTb,
    /// Blocked on an exhausted launch-path resource under the
    /// `StallParent` overflow policy (pending-launch buffer full).
    LaunchPath,
}

impl StallCause {
    /// Compact code (declaration order) for packing a cause next to a
    /// cycle count in one word; inverse of [`from_code`](Self::from_code).
    pub(crate) fn code(self) -> u64 {
        self as u64
    }

    /// Decodes [`code`](Self::code); values above the range map to
    /// [`NoTb`](Self::NoTb).
    pub(crate) fn from_code(code: u64) -> Self {
        match code {
            0 => StallCause::Scoreboard,
            1 => StallCause::MemoryPending,
            2 => StallCause::MshrFull,
            3 => StallCause::Barrier,
            5 => StallCause::LaunchPath,
            _ => StallCause::NoTb,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Scoreboard => "scoreboard",
            StallCause::MemoryPending => "memory-pending",
            StallCause::MshrFull => "mshr-full",
            StallCause::Barrier => "barrier",
            StallCause::NoTb => "no-tb",
            StallCause::LaunchPath => "launch-path",
        }
    }
}

/// Per-SMX stall-cycle histogram, one bucket per [`StallCause`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles stalled on scoreboard (ALU/shared/launch) latencies.
    pub scoreboard: u64,
    /// Cycles stalled on in-flight global-memory accesses.
    pub memory_pending: u64,
    /// Cycles stalled behind an MSHR-full global access.
    pub mshr_full: u64,
    /// Cycles stalled at barriers.
    pub barrier: u64,
    /// Cycles with no resident TB.
    pub no_tb: u64,
    /// Cycles blocked on an exhausted launch-path resource.
    pub launch_path: u64,
}

impl StallBreakdown {
    /// Charges `n` cycles to `cause`.
    #[inline]
    pub fn add(&mut self, cause: StallCause, n: u64) {
        match cause {
            StallCause::Scoreboard => self.scoreboard += n,
            StallCause::MemoryPending => self.memory_pending += n,
            StallCause::MshrFull => self.mshr_full += n,
            StallCause::Barrier => self.barrier += n,
            StallCause::NoTb => self.no_tb += n,
            StallCause::LaunchPath => self.launch_path += n,
        }
    }

    /// Charges one cycle to `cause`.
    #[inline]
    pub fn bump(&mut self, cause: StallCause) {
        self.add(cause, 1);
    }

    /// Total stalled cycles across all causes.
    pub fn total(&self) -> u64 {
        self.scoreboard
            + self.memory_pending
            + self.mshr_full
            + self.barrier
            + self.no_tb
            + self.launch_path
    }

    /// Accumulates another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.scoreboard += other.scoreboard;
        self.memory_pending += other.memory_pending;
        self.mshr_full += other.mshr_full;
        self.barrier += other.barrier;
        self.no_tb += other.no_tb;
        self.launch_path += other.launch_path;
    }
}

/// Per-thread-block execution record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbRecord {
    /// TB identity.
    pub tb: TbRef,
    /// Kernel kind of the TB's batch (workload-defined function id).
    pub kind: KernelKindId,
    /// SMX it ran on.
    pub smx: SmxId,
    /// Batch nesting priority (0 = host kernel).
    pub priority: Priority,
    /// `true` for device-launched TBs.
    pub is_dynamic: bool,
    /// Direct parent (batch, TB index, SMX), for dynamic TBs.
    pub parent: Option<(BatchId, u32, SmxId)>,
    /// Cycle the batch's launch was issued.
    pub created_at: Cycle,
    /// Cycle the batch's launch matured into the scheduling hardware
    /// (KMU enqueue for kernels, direct KDU attach for DTBL groups).
    pub matured_at: Cycle,
    /// Cycle the batch became schedulable (entered the KDU).
    pub schedulable_at: Cycle,
    /// Cycle the TB was dispatched to its SMX.
    pub dispatched_at: Cycle,
    /// Cycle the TB's first instruction issued, or its retirement cycle
    /// if it retired without issuing (empty program). `Cycle::MAX`
    /// until the TB retires, so the sentinel also marks a TB still
    /// resident.
    pub first_issue_at: Cycle,
    /// Cycle the TB retired (0 until completion).
    pub finished_at: Cycle,
}

impl TbRecord {
    /// `true` once the TB has retired.
    fn is_retired(&self) -> bool {
        self.first_issue_at != Cycle::MAX
    }
}

/// A cheap point-in-time sample of the machine's cumulative counters,
/// for windowed time-series analysis (unlike
/// [`SimStats`], taking one does not clone per-TB records).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineSample {
    /// Cycle the sample was taken.
    pub cycle: Cycle,
    /// Cumulative thread instructions.
    pub thread_instructions: u64,
    /// Cumulative L1 hits (all SMXs).
    pub l1_hits: u64,
    /// Cumulative L1 misses.
    pub l1_misses: u64,
    /// Cumulative L2 hits.
    pub l2_hits: u64,
    /// Cumulative L2 misses.
    pub l2_misses: u64,
    /// TBs resident across the SMXs right now.
    pub resident_tbs: usize,
    /// TBs visible but not yet dispatched right now.
    pub undispatched_tbs: u64,
    /// Cumulative L1 hits classified parent-child (zero unless locality
    /// profiling is enabled).
    pub l1_parent_child_hits: u64,
    /// Cumulative L2 hits classified parent-child.
    pub l2_parent_child_hits: u64,
}

impl MachineSample {
    /// Windowed IPC between `earlier` and `self`.
    pub fn ipc_since(&self, earlier: &MachineSample) -> f64 {
        let cycles = self.cycle.saturating_sub(earlier.cycle);
        if cycles == 0 {
            0.0
        } else {
            (self.thread_instructions - earlier.thread_instructions) as f64 / cycles as f64
        }
    }

    /// Windowed L1 hit rate between `earlier` and `self`.
    pub fn l1_rate_since(&self, earlier: &MachineSample) -> f64 {
        let hits = self.l1_hits - earlier.l1_hits;
        let misses = self.l1_misses - earlier.l1_misses;
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Windowed L2 hit rate between `earlier` and `self`.
    pub fn l2_rate_since(&self, earlier: &MachineSample) -> f64 {
        let hits = self.l2_hits - earlier.l2_hits;
        let misses = self.l2_misses - earlier.l2_misses;
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// Issued warp-instruction counts by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstructionMix {
    /// ALU/compute warp instructions.
    pub compute: u64,
    /// Global-memory loads.
    pub loads: u64,
    /// Global-memory stores.
    pub stores: u64,
    /// Shared-memory accesses.
    pub shared: u64,
    /// Device-launch issues (once per warp reaching the op).
    pub launches: u64,
    /// Barrier arrivals.
    pub barriers: u64,
}

impl InstructionMix {
    /// Total warp instructions.
    pub fn total(&self) -> u64 {
        self.compute + self.loads + self.stores + self.shared + self.launches + self.barriers
    }

    /// Fraction of instructions touching global memory.
    pub fn memory_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / total as f64
        }
    }

    /// Accumulates another mix into this one.
    pub fn merge(&mut self, other: &InstructionMix) {
        self.compute += other.compute;
        self.loads += other.loads;
        self.stores += other.stores;
        self.shared += other.shared;
        self.launches += other.launches;
        self.barriers += other.barriers;
    }
}

/// The critical path through a run's launch DAG: the chain of TBs,
/// root-first, whose back-to-back latencies bound the makespan. Each
/// link's weight splits into *queueing* (launch issue to first
/// instruction issue of the chain TB) and *execution* (first issue
/// until the next chain TB's launch was issued, or retirement for the
/// final TB), so `queue_cycles + exec_cycles == cycles` exactly and two
/// policies can be compared by scheduling-induced critical-path
/// inflation rather than IPC alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Number of TBs on the path (0 for a run with no TBs).
    pub len: u32,
    /// Total path weight: the final TB's retirement cycle minus the
    /// root TB's launch-issue cycle.
    pub cycles: u64,
    /// Path cycles attributable to queueing (launch path + scheduler
    /// queue + dispatch gap) summed over the chain.
    pub queue_cycles: u64,
    /// Path cycles attributable to execution, summed over the chain.
    pub exec_cycles: u64,
}

impl CriticalPath {
    /// Weighs the chain [`critical_path_chain`] extracts from `records`.
    pub fn from_records(records: &[TbRecord]) -> Self {
        let chain = critical_path_chain(records);
        let (Some(&top), Some(&last)) = (chain.first(), chain.last()) else {
            return CriticalPath::default();
        };
        let mut cp = CriticalPath {
            len: u32::try_from(chain.len()).unwrap_or(u32::MAX),
            cycles: records[last].finished_at - records[top].created_at,
            ..CriticalPath::default()
        };
        for (k, &i) in chain.iter().enumerate() {
            let r = &records[i];
            // Execution runs until the chain-child's launch was issued;
            // the final TB's until its retirement.
            let end = chain.get(k + 1).map_or(r.finished_at, |&c| records[c].created_at);
            cp.queue_cycles += r.first_issue_at.saturating_sub(r.created_at);
            cp.exec_cycles += end.saturating_sub(r.first_issue_at);
        }
        cp
    }
}

/// The run's critical path as indices into `records`, root-first
/// (parent before child). Starts from the TB that retired last
/// (earliest record on ties, deterministic) and walks the
/// [`TbRecord::parent`] lineage root-ward. A child's launch is issued at
/// or after its parent's first instruction, so the [`CriticalPath`]
/// weights telescope to exactly `finished(final) - created(root)`. The
/// walk stops early at an ancestor that has not retired (a parent can
/// outlive its children); the attribution stays exact for the truncated
/// chain. Empty when no TB has retired.
pub fn critical_path_chain(records: &[TbRecord]) -> Vec<usize> {
    let mut last: Option<usize> = None;
    for (i, r) in records.iter().enumerate() {
        if r.is_retired() && last.is_none_or(|j| r.finished_at > records[j].finished_at) {
            last = Some(i);
        }
    }
    let Some(mut i) = last else { return Vec::new() };
    let index: HashMap<TbRef, usize> = records.iter().enumerate().map(|(i, r)| (r.tb, i)).collect();
    let mut chain = vec![i];
    while let Some((batch, index_in_batch, _)) = records[i].parent {
        match index.get(&TbRef { batch, index: index_in_batch }) {
            Some(&p) if records[p].is_retired() => {
                chain.push(p);
                i = p;
            }
            _ => break,
        }
    }
    chain.reverse();
    chain
}

/// Per-TB lifecycle latency attribution, computed from the
/// [`TbRecord`] lifecycle stamps by [`LatencyStats::from_records`];
/// `Some` on [`SimStats`] only when the run had
/// [`GpuConfig::profile_latency`] set.
///
/// Every retired TB's lifetime (launch issue to retirement) is
/// decomposed into an exactly-partitioning sum of four components, each
/// aggregated into a [`Pow2Hist`]:
///
/// ```text
/// launch_path  launch issued  -> scheduler-enqueued (KMU + maturation)
/// queue_wait   enqueued       -> dispatched to an SMX
/// dispatch_gap dispatched     -> first instruction issue
/// exec         first issue    -> retired
/// ```
///
/// `kmu_wait` (KMU maturation to enqueue) is a strict sub-interval of
/// `launch_path`, recorded separately for diagnosis but excluded from
/// the partition. TBs whose stamps are not monotonically ordered are
/// counted in `partition_violations` and left out of every histogram;
/// the `lat-partition-exact` shape assertion requires that count to be
/// zero.
///
/// [`GpuConfig::profile_latency`]: crate::config::GpuConfig::profile_latency
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// TBs recorded into the histograms (== dispatched TBs minus
    /// `partition_violations`).
    pub tbs: u64,
    /// TBs with out-of-order lifecycle stamps, excluded from the
    /// histograms. Always 0 unless a stamping bug is introduced.
    pub partition_violations: u64,
    /// High-water mark of the KMU pending-kernel queue depth.
    pub kmu_depth_hwm: u64,
    /// Launch issue to scheduler enqueue, all TBs.
    pub launch_path: Pow2Hist,
    /// KMU maturation to scheduler enqueue (sub-interval of
    /// `launch_path`, informational).
    pub kmu_wait: Pow2Hist,
    /// Scheduler enqueue to SMX dispatch, all TBs.
    pub queue_wait: Pow2Hist,
    /// SMX dispatch to first instruction issue, all TBs.
    pub dispatch_gap: Pow2Hist,
    /// First instruction issue to retirement, all TBs.
    pub exec: Pow2Hist,
    /// Full lifetime (launch issue to retirement), all TBs.
    pub lifetime: Pow2Hist,
    /// `queue_wait` restricted to dynamic (device-launched) TBs — the
    /// latency LaPerm's reordering policies act on.
    pub child_queue_wait: Pow2Hist,
    /// `child_queue_wait` for children dispatched to their direct
    /// parent's SMX.
    pub bound_queue_wait: Pow2Hist,
    /// `child_queue_wait` for children dispatched elsewhere.
    pub stolen_queue_wait: Pow2Hist,
    /// `queue_wait` split by batch nesting depth (priority 0 = host
    /// kernels), sorted by depth, empty entries elided.
    pub depth_queue_wait: Vec<(u8, Pow2Hist)>,
    /// `lifetime` rolled up per kernel kind, sorted by kind id.
    pub kind_lifetime: Vec<(u16, Pow2Hist)>,
    /// Critical path through the launch DAG.
    pub critical_path: CriticalPath,
}

impl LatencyStats {
    /// Aggregates the lifecycle stamps of every retired TB in `records`
    /// (TBs still resident are skipped; on a completed run that is
    /// every dispatched TB, which the `lat-partition-exact` shape
    /// assertion relies on). `kmu_depth_hwm` is carried through as is.
    pub fn from_records(records: &[TbRecord], kmu_depth_hwm: u64) -> Self {
        let mut s = LatencyStats { kmu_depth_hwm, ..LatencyStats::default() };
        let mut depth: BTreeMap<u8, Pow2Hist> = BTreeMap::new();
        let mut kind: BTreeMap<u16, Pow2Hist> = BTreeMap::new();
        for r in records.iter().filter(|r| r.is_retired()) {
            let ordered = r.created_at <= r.matured_at
                && r.matured_at <= r.schedulable_at
                && r.schedulable_at <= r.dispatched_at
                && r.dispatched_at <= r.first_issue_at
                && r.first_issue_at <= r.finished_at;
            if !ordered {
                // Out-of-order stamps would make the components lie;
                // count the TB instead of recording a garbage partition.
                s.partition_violations += 1;
                continue;
            }
            s.tbs += 1;
            let queue_wait = r.dispatched_at - r.schedulable_at;
            s.launch_path.record(r.schedulable_at - r.created_at);
            s.kmu_wait.record(r.schedulable_at - r.matured_at);
            s.queue_wait.record(queue_wait);
            s.dispatch_gap.record(r.first_issue_at - r.dispatched_at);
            s.exec.record(r.finished_at - r.first_issue_at);
            s.lifetime.record(r.finished_at - r.created_at);
            if r.is_dynamic {
                s.child_queue_wait.record(queue_wait);
                if r.parent.is_some_and(|(_, _, parent_smx)| parent_smx == r.smx) {
                    s.bound_queue_wait.record(queue_wait);
                } else {
                    s.stolen_queue_wait.record(queue_wait);
                }
            }
            depth.entry(r.priority.0).or_default().record(queue_wait);
            kind.entry(r.kind.0).or_default().record(r.finished_at - r.created_at);
        }
        s.depth_queue_wait = depth.into_iter().collect();
        s.kind_lifetime = kind.into_iter().collect();
        s.critical_path = CriticalPath::from_records(records);
        s
    }

    /// `p50 / p95 / p99 / max (mean, n)` rendering of one histogram,
    /// the one form every histogram of a run summary takes.
    pub fn quantile_line(h: &Pow2Hist) -> String {
        format!(
            "p50 {} / p95 {} / p99 {} / max {} (mean {:.1}, n={})",
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99),
            h.max,
            h.mean(),
            h.count
        )
    }
}

/// Aggregate results of one simulation run.
///
/// `PartialEq` compares every counter and per-TB record, which is what
/// the determinism tests lean on: two runs are "the same" only if every
/// observable statistic is bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Issued warp instructions by kind.
    pub instruction_mix: InstructionMix,
    /// Thread instructions issued.
    pub thread_instructions: u64,
    /// Aggregated L1 statistics (all SMXs).
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// DRAM transactions.
    pub dram_accesses: u64,
    /// Mean DRAM queueing delay per transaction.
    pub dram_mean_queueing: f64,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// L2 misses merged with in-flight fills (MSHR merges).
    pub mshr_merges: u64,
    /// Dirty L2 evictions written back to DRAM.
    pub l2_writebacks: u64,
    /// Busy cycles per SMX.
    pub smx_busy_cycles: Vec<u64>,
    /// Stall-cause breakdown per SMX. Per SMX,
    /// `smx_busy_cycles[i] + smx_stalls[i].total() == cycles`.
    pub smx_stalls: Vec<StallBreakdown>,
    /// TBs executed per SMX.
    pub smx_tbs: Vec<u64>,
    /// Per-TB records, in dispatch order.
    pub tb_records: Vec<TbRecord>,
    /// Scheduler-specific counters.
    pub scheduler_counters: Vec<(&'static str, u64)>,
    /// Launch-path counters: engine-side overflow/spill/backlog counts
    /// plus model-specific counters (e.g. DTBL aggregation-table
    /// overflows). Empty entries are elided, so unbounded default runs
    /// carry only model counters.
    pub launch_counters: Vec<(&'static str, u64)>,
    /// TB scheduler name.
    pub scheduler: String,
    /// Launch model name.
    pub launch_model: String,
    /// Locality provenance profile; `Some` only when the run had
    /// `GpuConfig::profile_locality` set.
    pub locality: Option<LocalityStats>,
    /// Engine introspection; `Some` only when the run had
    /// `GpuConfig::profile_engine` set. Unlike every other field, this
    /// one observes the *engine*, not the machine: it legitimately
    /// differs between [`EngineMode`](crate::config::EngineMode)s.
    pub engine: Option<EngineStats>,
    /// Per-TB lifecycle latency attribution; `Some` only when the run
    /// had `GpuConfig::profile_latency` set. Machine-observing, so it
    /// is bit-identical across engine modes.
    pub latency: Option<LatencyStats>,
}

impl SimStats {
    /// Instructions per cycle (thread instructions).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_instructions as f64 / self.cycles as f64
        }
    }

    /// Mean SMX utilization: busy cycles / total cycles, averaged over
    /// SMXs.
    pub fn smx_utilization(&self) -> f64 {
        if self.cycles == 0 || self.smx_busy_cycles.is_empty() {
            return 0.0;
        }
        let total: u64 = self.smx_busy_cycles.iter().sum();
        total as f64 / (self.cycles as f64 * self.smx_busy_cycles.len() as f64)
    }

    /// Load imbalance across SMXs: max busy cycles / mean busy cycles
    /// (1.0 = perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        if self.smx_busy_cycles.is_empty() {
            return 1.0;
        }
        let max = self.smx_busy_cycles.iter().max().copied().unwrap_or(0) as f64;
        let mean =
            self.smx_busy_cycles.iter().sum::<u64>() as f64 / self.smx_busy_cycles.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Stall cycles summed over all SMXs, by cause.
    pub fn total_stalls(&self) -> StallBreakdown {
        let mut total = StallBreakdown::default();
        for s in &self.smx_stalls {
            total.merge(s);
        }
        total
    }

    /// Dynamic (child) TB count.
    pub fn dynamic_tbs(&self) -> usize {
        self.tb_records.iter().filter(|r| r.is_dynamic).count()
    }

    /// Mean cycles a dynamic TB waited between its launch being issued
    /// and its dispatch to an SMX.
    pub fn mean_child_wait(&self) -> f64 {
        let waits: Vec<u64> = self
            .tb_records
            .iter()
            .filter(|r| r.is_dynamic)
            .map(|r| r.dispatched_at.saturating_sub(r.created_at))
            .collect();
        if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<u64>() as f64 / waits.len() as f64
        }
    }

    /// Per-kernel-kind execution summary: TB count and mean resident
    /// time (dispatch to retire), sorted by kind id. Useful to see how
    /// much of a run is spent in parent sweeps vs child expansions.
    pub fn per_kind_summary(&self) -> Vec<(KernelKindId, usize, f64)> {
        let mut acc: std::collections::BTreeMap<u16, (usize, u64)> =
            std::collections::BTreeMap::new();
        for r in &self.tb_records {
            let e = acc.entry(r.kind.0).or_insert((0, 0));
            e.0 += 1;
            e.1 += r.finished_at.saturating_sub(r.dispatched_at);
        }
        acc.into_iter()
            .map(|(kind, (count, total))| {
                (KernelKindId(kind), count, total as f64 / count.max(1) as f64)
            })
            .collect()
    }

    /// Fraction of dynamic TBs that ran on the same SMX as their direct
    /// parent TB.
    pub fn parent_smx_affinity(&self) -> f64 {
        let mut same = 0usize;
        let mut total = 0usize;
        for r in &self.tb_records {
            if let Some((_, _, parent_smx)) = r.parent {
                total += 1;
                if parent_smx == r.smx {
                    same += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            same as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn record(dynamic: bool, smx: u16, parent_smx: Option<u16>) -> TbRecord {
        TbRecord {
            tb: TbRef { batch: BatchId(0), index: 0 },
            kind: KernelKindId(u16::from(dynamic)),
            smx: SmxId(smx),
            priority: Priority(u8::from(dynamic)),
            is_dynamic: dynamic,
            parent: parent_smx.map(|s| (BatchId(0), 0, SmxId(s))),
            created_at: 10,
            matured_at: 10,
            schedulable_at: 20,
            dispatched_at: 30,
            first_issue_at: 30,
            finished_at: 100,
        }
    }

    /// A retired TB with the given lifecycle stamps, in order: created,
    /// matured, schedulable, dispatched, first issue, finished.
    fn stamped(tb: (u32, u32), parent: Option<(u32, u32)>, stamps: [Cycle; 6]) -> TbRecord {
        TbRecord {
            tb: TbRef { batch: BatchId(tb.0), index: tb.1 },
            parent: parent.map(|(b, i)| (BatchId(b), i, SmxId(0))),
            is_dynamic: parent.is_some(),
            created_at: stamps[0],
            matured_at: stamps[1],
            schedulable_at: stamps[2],
            dispatched_at: stamps[3],
            first_issue_at: stamps[4],
            finished_at: stamps[5],
            ..record(false, 0, None)
        }
    }

    #[test]
    fn from_records_counts_out_of_order_stamps_as_violations() {
        let good = stamped((0, 0), None, [0, 0, 2, 5, 6, 40]);
        // Dispatched before it became schedulable.
        let bad = stamped((0, 1), None, [0, 0, 9, 5, 6, 40]);
        let lat = LatencyStats::from_records(&[good, bad], 3);
        assert_eq!(lat.partition_violations, 1);
        assert_eq!(lat.tbs, 1);
        assert_eq!(lat.kmu_depth_hwm, 3);
        for h in [&lat.launch_path, &lat.queue_wait, &lat.dispatch_gap, &lat.exec, &lat.lifetime] {
            assert_eq!(h.count, 1, "the violating TB must stay out of every histogram");
        }
        assert_eq!(lat.lifetime.sum, 40);
    }

    #[test]
    fn from_records_charges_a_never_issued_tb_to_exec() {
        // An empty program retires in its dispatch cycle without issuing;
        // the engine stamps retirement as its first issue, so it lands in
        // every histogram (exec included) with an exact partition.
        let empty = stamped((0, 0), None, [0, 1, 4, 9, 9, 9]);
        // Still resident: skipped, not a violation.
        let mut resident = stamped((0, 1), None, [0, 1, 4, 9, 0, 0]);
        resident.first_issue_at = Cycle::MAX;
        let lat = LatencyStats::from_records(&[empty, resident], 0);
        assert_eq!((lat.tbs, lat.partition_violations), (1, 0));
        assert_eq!((lat.exec.count, lat.exec.sum), (1, 0));
        assert_eq!(lat.dispatch_gap.sum, 0);
        assert_eq!(lat.kmu_wait.sum, 3);
        assert_eq!(
            lat.launch_path.sum + lat.queue_wait.sum + lat.dispatch_gap.sum + lat.exec.sum,
            lat.lifetime.sum
        );
        assert_eq!(lat.lifetime.sum, 9);
    }

    #[test]
    fn critical_path_partitions_its_weight() {
        // root (B0.0) launches B1.0 at cycle 12, which launches B2.0 at
        // 30; B2.0 retires last. B0.1 is off the path.
        let records = [
            stamped((0, 0), None, [0, 0, 1, 2, 4, 50]),
            stamped((0, 1), None, [0, 0, 1, 3, 5, 20]),
            stamped((1, 0), Some((0, 0)), [12, 14, 14, 18, 19, 60]),
            stamped((2, 0), Some((1, 0)), [30, 31, 31, 40, 41, 90]),
        ];
        assert_eq!(critical_path_chain(&records), vec![0, 2, 3]);
        let cp = CriticalPath::from_records(&records);
        assert_eq!(cp.len, 3);
        assert_eq!(cp.cycles, 90);
        // Queue: (4-0) + (19-12) + (41-30); exec: (12-4) + (30-19) + (90-41).
        assert_eq!(cp.queue_cycles, 4 + 7 + 11);
        assert_eq!(cp.exec_cycles, 8 + 11 + 49);
        assert_eq!(cp.queue_cycles + cp.exec_cycles, cp.cycles);
        assert_eq!(LatencyStats::from_records(&records, 0).critical_path, cp);
        // No retired TB, no path.
        assert_eq!(CriticalPath::from_records(&[]), CriticalPath::default());
    }

    #[test]
    fn ipc_divides_instructions_by_cycles() {
        let stats = SimStats { cycles: 100, thread_instructions: 250, ..Default::default() };
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ipc_zero_cycles_is_zero() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn utilization_and_imbalance() {
        let stats =
            SimStats { cycles: 100, smx_busy_cycles: vec![100, 50, 50], ..Default::default() };
        assert!((stats.smx_utilization() - (200.0 / 300.0)).abs() < 1e-12);
        assert!((stats.load_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_idle_machine_is_one() {
        let stats = SimStats { smx_busy_cycles: vec![0, 0], ..Default::default() };
        assert_eq!(stats.load_imbalance(), 1.0);
    }

    #[test]
    fn child_wait_counts_dynamic_only() {
        let stats = SimStats {
            tb_records: vec![record(true, 0, Some(1)), record(false, 1, None)],
            ..Default::default()
        };
        assert!((stats.mean_child_wait() - 20.0).abs() < 1e-12);
        assert_eq!(stats.dynamic_tbs(), 1);
    }

    #[test]
    fn instruction_mix_totals_and_fractions() {
        let mut mix =
            InstructionMix { compute: 4, loads: 3, stores: 1, shared: 1, launches: 1, barriers: 2 };
        assert_eq!(mix.total(), 12);
        assert!((mix.memory_fraction() - 4.0 / 12.0).abs() < 1e-12);
        mix.merge(&InstructionMix { compute: 1, ..Default::default() });
        assert_eq!(mix.total(), 13);
        assert_eq!(InstructionMix::default().memory_fraction(), 0.0);
    }

    #[test]
    fn stall_breakdown_totals_and_merges() {
        let mut b = StallBreakdown::default();
        b.bump(StallCause::Scoreboard);
        b.add(StallCause::MemoryPending, 3);
        b.add(StallCause::MshrFull, 2);
        b.bump(StallCause::Barrier);
        b.add(StallCause::NoTb, 5);
        assert_eq!(b.total(), 12);
        b.add(StallCause::LaunchPath, 0);
        let mut other = StallBreakdown::default();
        other.merge(&b);
        other.merge(&b);
        assert_eq!(other.total(), 24);
        assert_eq!(other.memory_pending, 6);
        let stats = SimStats { smx_stalls: vec![b, b, b], ..Default::default() };
        assert_eq!(stats.total_stalls().total(), 36);
    }

    #[test]
    fn stall_cause_codes_round_trip() {
        for cause in [
            StallCause::Scoreboard,
            StallCause::MemoryPending,
            StallCause::MshrFull,
            StallCause::Barrier,
            StallCause::NoTb,
            StallCause::LaunchPath,
        ] {
            assert_eq!(StallCause::from_code(cause.code()), cause);
            assert!(!cause.name().is_empty());
        }
    }

    #[test]
    fn launch_path_stalls_counted_in_total() {
        let mut b = StallBreakdown::default();
        b.add(StallCause::LaunchPath, 4);
        assert_eq!(b.total(), 4);
        let mut other = StallBreakdown::default();
        other.merge(&b);
        assert_eq!(other.launch_path, 4);
    }

    #[test]
    fn per_kind_summary_groups_and_averages() {
        let mut a = record(false, 0, None);
        a.finished_at = 130; // 100 resident
        let mut b = record(false, 1, None);
        b.finished_at = 50; // 20 resident
        let c = record(true, 2, Some(0)); // kind 1, 70 resident
        let stats = SimStats { tb_records: vec![a, b, c], ..Default::default() };
        let summary = stats.per_kind_summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].0, KernelKindId(0));
        assert_eq!(summary[0].1, 2);
        assert!((summary[0].2 - 60.0).abs() < 1e-12);
        assert_eq!(summary[1].1, 1);
        assert!((summary[1].2 - 70.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = Pow2Hist::default();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0);
        }
    }

    #[test]
    fn percentile_with_all_mass_in_one_bucket() {
        let mut h = Pow2Hist::default();
        for _ in 0..1000 {
            h.record(10); // bucket [8, 16), hi = 15
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 10, "q={q} must clamp to observed max");
        }
        // A single zero: bucket 0's upper bound is exactly 0.
        let mut z = Pow2Hist::default();
        z.record(0);
        assert_eq!(z.percentile(0.99), 0);
    }

    #[test]
    fn percentile_with_saturated_top_bucket() {
        let mut h = Pow2Hist::default();
        h.record(1);
        h.record(2);
        h.record((1u64 << 63) + 9); // top bucket (nominal hi = u64::MAX)
        assert_eq!(h.percentile(0.01), 1);
        // The p99 lands in the top bucket, whose nominal upper bound is
        // u64::MAX; the observed max clamps it to a finite answer.
        assert_eq!(h.percentile(0.99), (1u64 << 63) + 9);
        assert_eq!(h.percentile(1.0), (1u64 << 63) + 9);
    }

    #[test]
    fn percentile_walks_buckets_in_order() {
        let mut h = Pow2Hist::default();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.10), 1);
        // 5th of 10 values is 16, in bucket [16, 32) with hi 31.
        assert_eq!(h.percentile(0.50), 31);
        assert_eq!(h.percentile(1.0), 512);
        // Out-of-range q clamps.
        assert_eq!(h.percentile(-1.0), 1);
        assert_eq!(h.percentile(2.0), 512);
    }

    #[test]
    fn quantile_line_mentions_all_quantiles() {
        let mut h = Pow2Hist::default();
        h.record(100);
        let s = LatencyStats::quantile_line(&h);
        for needle in ["p50 100", "p95 100", "p99 100", "max 100", "mean 100", "n=1"] {
            assert!(s.contains(needle), "quantile line missing {needle}: {s}");
        }
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = Pow2Hist::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1049);
        assert_eq!(h.max, 1024);
        let buckets = h.nonzero_buckets();
        // 0 | 1 | [2,3] | [4,7] | [8,15] | [1024,2047]
        assert_eq!(buckets, vec![(0, 1), (1, 1), (3, 2), (7, 2), (15, 1), (2047, 1)]);
    }

    #[test]
    fn histogram_quantiles_bound_from_above() {
        let mut h = Pow2Hist::default();
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1000);
        assert!(h.percentile(0.5) >= 4);
        assert!(h.percentile(0.5) < 8);
        assert_eq!(h.percentile(1.0), 1000);
        assert_eq!(Pow2Hist::default().percentile(0.5), 0);
        assert!((h.mean() - (99.0 * 4.0 + 1000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn top_bucket_renders_without_overflow() {
        // The top bucket holds [2^63, u64::MAX]; its label must be
        // u64::MAX, never a shift by 64. Run summaries render every
        // histogram through `quantile_line`.
        let mut h = Pow2Hist::default();
        h.record(u64::MAX);
        assert_eq!(h.nonzero_buckets(), vec![(u64::MAX, 1)]);
        let text = LatencyStats::quantile_line(&h);
        assert!(text.contains(&format!("p99 {} / max {}", u64::MAX, u64::MAX)), "{text}");
    }

    #[test]
    fn affinity_fraction() {
        let stats = SimStats {
            tb_records: vec![
                record(true, 0, Some(0)),
                record(true, 1, Some(0)),
                record(false, 2, None),
            ],
            ..Default::default()
        };
        assert!((stats.parent_smx_affinity() - 0.5).abs() < 1e-12);
    }
}
