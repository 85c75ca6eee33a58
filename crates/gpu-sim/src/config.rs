//! GPU hardware configuration.
//!
//! The default configuration reproduces Table I of the LaPerm paper: an
//! NVIDIA Kepler K20c (GK110) as modeled in GPGPU-Sim.

/// Which warp scheduling policy the SMXs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WarpSchedPolicy {
    /// Greedy-Then-Oldest (the paper's Table I baseline).
    #[default]
    Gto,
    /// Loose round-robin.
    Lrr,
}

impl WarpSchedPolicy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WarpSchedPolicy::Gto => "gto",
            WarpSchedPolicy::Lrr => "lrr",
        }
    }
}

impl std::fmt::Display for WarpSchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the engine advances simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Discrete-event execution: components publish their next wake-up
    /// cycle and the engine jumps between wake-ups via a min-heap,
    /// touching only the components that are due and skipping every
    /// cycle on which nothing can act. Statistics are bit-identical to
    /// [`EngineMode::CycleStepped`]; the CI `repro-gate` job asserts
    /// this on the ci-scale matrix.
    #[default]
    Event,
    /// Reference mode: a linear scan that steps every SMX on every
    /// cycle and never skips a cycle. Kept as the oracle the event
    /// engine is diffed against.
    CycleStepped,
}

impl EngineMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Event => "event",
            EngineMode::CycleStepped => "cycle-stepped",
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a finite launch-path resource is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverflowPolicy {
    /// Backpressure: the launching warp (or the upstream queue stage)
    /// blocks until space frees. Stall cycles are attributed to
    /// [`StallCause::LaunchPath`](crate::stats::StallCause::LaunchPath).
    #[default]
    StallParent,
    /// Spill to a memory-backed virtual queue (CDP's software queue,
    /// DTBL's global-memory overflow buffer): the launch proceeds but is
    /// charged `extra_latency` additional cycles.
    SpillVirtual {
        /// Extra cycles charged to each spilled launch.
        extra_latency: u32,
    },
}

impl OverflowPolicy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OverflowPolicy::StallParent => "stall-parent",
            OverflowPolicy::SpillVirtual { .. } => "spill-virtual",
        }
    }
}

/// Finite capacities along the device-launch path, with one shared
/// [`OverflowPolicy`].
///
/// Every capacity defaults to `None` (unbounded), which reproduces the
/// idealized machine bit-for-bit: no gate is evaluated, no launch is
/// deferred, and no counter moves. Finite values model the real
/// hardware's 32 HWQs, fixed pending-launch buffer, and bounded per-SMX
/// scheduler queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LaunchLimits {
    /// Maximum kernels the KMU pending queue holds. Matured launches that
    /// find it full are deferred (StallParent) or spilled (SpillVirtual).
    pub kmu_capacity: Option<usize>,
    /// Maximum device launches the launch model may hold in flight; the
    /// CDP pending-launch buffer. Past it, launching warps block
    /// (StallParent) or the launch sits in a memory-virtualized queue for
    /// `extra_latency` cycles before entering the buffer (SpillVirtual).
    pub pending_launch_capacity: Option<usize>,
    /// Hard cap on total entries across one scheduler's per-SMX priority
    /// queues (LaPerm's on-chip SRAM plus bounded overflow). At the cap,
    /// the scheduler declines to accept new kernels from the KMU.
    pub smx_queue_capacity: Option<usize>,
    /// What to do at each exhausted capacity.
    pub policy: OverflowPolicy,
}

impl LaunchLimits {
    /// Unbounded limits: today's idealized behavior.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// `true` when every capacity is `None` (no gate is ever evaluated).
    pub fn is_unbounded(&self) -> bool {
        self.kmu_capacity.is_none()
            && self.pending_launch_capacity.is_none()
            && self.smx_queue_capacity.is_none()
    }
}

/// Complete hardware configuration for a simulated GPU.
///
/// Construct with [`GpuConfig::kepler_k20c`] (the paper's Table I
/// configuration) or [`GpuConfig::small_test`] (a tiny configuration for
/// fast unit tests), then adjust fields as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of stream multiprocessors.
    pub num_smxs: u16,
    /// Maximum resident threads per SMX.
    pub max_threads_per_smx: u32,
    /// Maximum resident thread blocks per SMX.
    pub max_tbs_per_smx: u32,
    /// Register file size per SMX (number of 32-bit registers).
    pub max_regs_per_smx: u32,
    /// Shared memory per SMX in bytes.
    pub max_smem_per_smx: u32,
    /// Warp width (threads per warp).
    pub warp_size: u32,
    /// Warp instructions issued per SMX per cycle.
    pub issue_width: u32,
    /// Warp scheduling policy.
    pub warp_scheduler: WarpSchedPolicy,

    /// L1 data cache size per SMX in bytes.
    pub l1_bytes: u32,
    /// L1 associativity.
    pub l1_assoc: u32,
    /// Shared L2 cache size in bytes.
    pub l2_bytes: u32,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// Cache line size in bytes (power of two).
    pub line_bytes: u32,

    /// L1 hit latency in cycles.
    pub l1_hit_latency: u32,
    /// Additional latency for an L2 hit (beyond L1 probe).
    pub l2_hit_latency: u32,
    /// DRAM access latency in cycles.
    pub dram_latency: u32,
    /// Cycles a DRAM channel is busy serving one 128-byte transaction
    /// (bandwidth model).
    pub dram_service_cycles: u32,
    /// Number of independent DRAM channels.
    pub dram_channels: u32,
    /// Latency of a shared-memory access in cycles.
    pub smem_latency: u32,
    /// Extra cycles of serialization per additional coalesced transaction
    /// in one warp memory instruction.
    pub transaction_issue_cycles: u32,

    /// Maximum concurrently resident kernels (KDU entries).
    pub max_concurrent_kernels: u32,
    /// Kernels the KMU may move into the KDU per cycle.
    pub kmu_dispatch_per_cycle: u32,
    /// Pipeline latency of a compute instruction in cycles.
    pub alu_latency: u32,
    /// Cycles charged to the launching warp for issuing a device-side
    /// launch (driver-side setup is modeled by the launch model instead).
    pub launch_issue_cycles: u32,

    /// Safety valve: abort [`run_to_completion`] after this many cycles.
    ///
    /// [`run_to_completion`]: crate::engine::Simulator::run_to_completion
    pub max_cycles: u64,

    /// How [`Simulator::step`] advances time — the engine's one switch.
    /// [`EngineMode::Event`] (the default) drives the machine from a
    /// min-heap of component wake-ups and jumps over idle stretches;
    /// [`EngineMode::CycleStepped`] steps every SMX on every cycle and
    /// is kept as the equivalence oracle. Both produce bit-identical
    /// statistics and trace streams (modulo `FastForward` markers); see
    /// `docs/ARCHITECTURE.md`, "Idle-cycle skipping".
    ///
    /// [`Simulator::step`]: crate::engine::Simulator::step
    pub engine_mode: EngineMode,

    /// Locality provenance profiling: tag every cache line with the TB
    /// that installed it and classify each hit by its relation to the
    /// accessor (self / parent-child / sibling / ancestor / unrelated).
    /// Off by default; when off the simulator allocates no tag storage
    /// and the memory path takes no extra work. Profiling is purely
    /// observational — cycles and every other statistic are identical
    /// with it on or off.
    pub profile_locality: bool,

    /// Engine introspection profiling: tag every engine-loop iteration
    /// with its [`WakeSource`](crate::stats::WakeSource), histogram
    /// event-heap depth / due events per cycle / idle-skip jump
    /// lengths, and sample host-time spans around each engine stage.
    /// Off by default; when off the simulator allocates no profiling
    /// state and the hot loop takes one `Option` branch per stage.
    /// Profiling is purely observational — cycles and every other
    /// statistic are identical with it on or off — but the resulting
    /// [`EngineStats`](crate::stats::EngineStats) deliberately differs
    /// between engine modes (it observes the engine, not the machine).
    pub profile_engine: bool,

    /// Per-TB lifecycle latency attribution: have
    /// [`Simulator::stats`](crate::engine::Simulator::stats) summarize
    /// the lifecycle stamps every run keeps on its
    /// [`TbRecord`](crate::stats::TbRecord)s (launch issued →
    /// KMU-matured → scheduler-enqueued → dispatched → first issue →
    /// retired) into [`LatencyStats`](crate::stats::LatencyStats): each
    /// lifetime decomposed into the exactly-partitioning sum
    /// `launch_path + queue_wait + dispatch_gap + exec`, plus the
    /// parent→child critical path of the run. Off by default; the flag
    /// only decides whether the summary is built, so cycles and every
    /// other statistic are identical with it on or off. The summary
    /// observes the simulated machine, so it is bit-identical across
    /// engine modes.
    pub profile_latency: bool,

    /// Finite launch-path capacities and the overflow policy applied at
    /// each. Defaults to unbounded, which is bit-identical to the
    /// pre-limit engine.
    pub launch_limits: LaunchLimits,

    /// Forward-progress watchdog: every `Some(n)` cycles the engine
    /// snapshots its progress counters (dispatches, retirements, created
    /// batches, executed warp instructions) and returns
    /// [`SimError::NoForwardProgress`](crate::error::SimError::NoForwardProgress)
    /// if none moved across a full window — naming the stuck TBs instead
    /// of spinning to `max_cycles`. The default window is far longer than
    /// any legitimate quiet stretch (launch latencies are thousands of
    /// cycles; memory latencies hundreds), so it cannot fire on healthy
    /// runs. `None` disables the check.
    pub watchdog_window: Option<u64>,
}

impl GpuConfig {
    /// The paper's Table I configuration (Kepler K20c, GK110).
    ///
    /// 13 SMXs; per SMX: 2048 threads, 16 TBs, 65536 registers, 32 KB
    /// shared memory, 32 KB L1; shared 1536 KB L2; 128-byte lines; at most
    /// 32 concurrent kernels; GTO warp scheduler (see
    /// [`warp_sched`](crate::warp_sched)).
    pub fn kepler_k20c() -> Self {
        GpuConfig {
            num_smxs: 13,
            max_threads_per_smx: 2048,
            max_tbs_per_smx: 16,
            max_regs_per_smx: 65_536,
            max_smem_per_smx: 32 * 1024,
            warp_size: 32,
            issue_width: 4,
            warp_scheduler: WarpSchedPolicy::Gto,
            l1_bytes: 32 * 1024,
            l1_assoc: 4,
            l2_bytes: 1536 * 1024,
            l2_assoc: 16,
            line_bytes: 128,
            l1_hit_latency: 28,
            l2_hit_latency: 120,
            dram_latency: 220,
            dram_service_cycles: 4,
            dram_channels: 8,
            smem_latency: 24,
            transaction_issue_cycles: 2,
            max_concurrent_kernels: 32,
            kmu_dispatch_per_cycle: 1,
            alu_latency: 6,
            launch_issue_cycles: 8,
            max_cycles: 500_000_000,
            engine_mode: EngineMode::Event,
            profile_locality: false,
            profile_engine: false,
            profile_latency: false,
            launch_limits: LaunchLimits::unbounded(),
            watchdog_window: Some(2_000_000),
        }
    }

    /// A small configuration for fast, deterministic unit tests: 4 SMXs,
    /// tiny caches, one TB per SMX by default resource pressure.
    pub fn small_test() -> Self {
        GpuConfig {
            num_smxs: 4,
            max_threads_per_smx: 256,
            max_tbs_per_smx: 4,
            max_regs_per_smx: 16_384,
            max_smem_per_smx: 16 * 1024,
            warp_size: 32,
            issue_width: 2,
            warp_scheduler: WarpSchedPolicy::Gto,
            l1_bytes: 4 * 1024,
            l1_assoc: 4,
            l2_bytes: 64 * 1024,
            l2_assoc: 8,
            line_bytes: 128,
            l1_hit_latency: 4,
            l2_hit_latency: 20,
            dram_latency: 60,
            dram_service_cycles: 4,
            dram_channels: 2,
            smem_latency: 4,
            transaction_issue_cycles: 1,
            max_concurrent_kernels: 8,
            kmu_dispatch_per_cycle: 1,
            alu_latency: 4,
            launch_issue_cycles: 2,
            max_cycles: 50_000_000,
            engine_mode: EngineMode::Event,
            profile_locality: false,
            profile_engine: false,
            profile_latency: false,
            launch_limits: LaunchLimits::unbounded(),
            watchdog_window: Some(500_000),
        }
    }

    /// A Maxwell-generation-like configuration: more, narrower SMs with a
    /// larger shared L2. The paper claims its ideas "apply to other
    /// general purpose GPU architectures"; this config backs the
    /// generality experiment.
    pub fn maxwell_like() -> Self {
        let mut cfg = Self::kepler_k20c();
        cfg.num_smxs = 16;
        cfg.max_tbs_per_smx = 32;
        cfg.issue_width = 2;
        cfg.l1_bytes = 24 * 1024;
        cfg.l1_assoc = 6;
        cfg.l2_bytes = 2048 * 1024;
        cfg.l2_hit_latency = 130;
        cfg
    }

    /// The 4-SMX, one-TB-per-SMX toy machine used for the paper's Figure 4
    /// walk-through example.
    pub fn figure4_toy() -> Self {
        let mut cfg = Self::small_test();
        cfg.num_smxs = 4;
        cfg.max_tbs_per_smx = 1;
        cfg.max_threads_per_smx = 64;
        cfg
    }

    /// Number of warps in a TB of `threads` threads (rounded up).
    pub fn warps_per_tb(&self, threads: u32) -> u32 {
        threads.div_ceil(self.warp_size)
    }

    /// log2 of the line size, for address-to-line conversion.
    pub fn line_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Tightens the forward-progress watchdog to at most `deadline`
    /// cycles, keeping an already-stricter window. This is how a
    /// per-cell deadline reuses the watchdog machinery: the sweep
    /// harness never weakens a configured window, it only caps it.
    /// `deadline == 0` (which [`GpuConfig::validate`] would reject as a
    /// window) is ignored.
    pub fn tighten_watchdog(&mut self, deadline: u64) {
        if deadline == 0 {
            return;
        }
        self.watchdog_window = Some(match self.watchdog_window {
            Some(current) => current.min(deadline),
            None => deadline,
        });
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (zero sizes, non-power-of-two line size, associativity
    /// not dividing the cache, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_smxs == 0 {
            return Err("num_smxs must be nonzero".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!("line_bytes {} must be a power of two", self.line_bytes));
        }
        if self.warp_size == 0 || self.issue_width == 0 {
            return Err("warp_size and issue_width must be nonzero".into());
        }
        for (name, bytes, assoc) in
            [("L1", self.l1_bytes, self.l1_assoc), ("L2", self.l2_bytes, self.l2_assoc)]
        {
            let lines = bytes / self.line_bytes;
            if lines == 0 || assoc == 0 || !lines.is_multiple_of(assoc) {
                return Err(format!(
                    "{name} geometry invalid: {bytes} bytes, {assoc}-way, {} lines",
                    lines
                ));
            }
        }
        if self.dram_channels == 0 {
            return Err("dram_channels must be nonzero".into());
        }
        if self.max_concurrent_kernels == 0 {
            return Err("max_concurrent_kernels must be nonzero".into());
        }
        for (name, cap) in [
            ("launch_limits.kmu_capacity", self.launch_limits.kmu_capacity),
            ("launch_limits.pending_launch_capacity", self.launch_limits.pending_launch_capacity),
            ("launch_limits.smx_queue_capacity", self.launch_limits.smx_queue_capacity),
        ] {
            if cap == Some(0) {
                return Err(format!("{name} must be nonzero when finite"));
            }
        }
        if self.watchdog_window == Some(0) {
            return Err("watchdog_window must be nonzero when enabled".into());
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::kepler_k20c()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn kepler_config_is_valid() {
        GpuConfig::kepler_k20c().validate().unwrap();
    }

    #[test]
    fn small_test_config_is_valid() {
        GpuConfig::small_test().validate().unwrap();
    }

    #[test]
    fn maxwell_like_is_valid_and_differs() {
        let m = GpuConfig::maxwell_like();
        m.validate().unwrap();
        assert_eq!(m.num_smxs, 16);
        assert!(m.l2_bytes > GpuConfig::kepler_k20c().l2_bytes);
    }

    #[test]
    fn figure4_toy_holds_one_tb_per_smx() {
        let cfg = GpuConfig::figure4_toy();
        cfg.validate().unwrap();
        assert_eq!(cfg.num_smxs, 4);
        assert_eq!(cfg.max_tbs_per_smx, 1);
    }

    #[test]
    fn kepler_matches_table1() {
        let cfg = GpuConfig::kepler_k20c();
        assert_eq!(cfg.num_smxs, 13);
        assert_eq!(cfg.max_threads_per_smx, 2048);
        assert_eq!(cfg.max_tbs_per_smx, 16);
        assert_eq!(cfg.max_regs_per_smx, 65_536);
        assert_eq!(cfg.l1_bytes, 32 * 1024);
        assert_eq!(cfg.l2_bytes, 1536 * 1024);
        assert_eq!(cfg.line_bytes, 128);
        assert_eq!(cfg.max_concurrent_kernels, 32);
    }

    #[test]
    fn warps_per_tb_rounds_up() {
        let cfg = GpuConfig::kepler_k20c();
        assert_eq!(cfg.warps_per_tb(32), 1);
        assert_eq!(cfg.warps_per_tb(33), 2);
        assert_eq!(cfg.warps_per_tb(256), 8);
        assert_eq!(cfg.warps_per_tb(1), 1);
    }

    #[test]
    fn line_bits_matches_line_size() {
        let cfg = GpuConfig::kepler_k20c();
        assert_eq!(cfg.line_bits(), 7);
    }

    #[test]
    fn tighten_watchdog_only_ever_tightens() {
        let mut cfg = GpuConfig::small_test();
        cfg.watchdog_window = Some(100_000);
        cfg.tighten_watchdog(500_000);
        assert_eq!(cfg.watchdog_window, Some(100_000), "looser deadline must not widen");
        cfg.tighten_watchdog(20_000);
        assert_eq!(cfg.watchdog_window, Some(20_000));
        cfg.tighten_watchdog(0);
        assert_eq!(cfg.watchdog_window, Some(20_000), "zero deadline is ignored");
        cfg.watchdog_window = None;
        cfg.tighten_watchdog(30_000);
        assert_eq!(cfg.watchdog_window, Some(30_000), "deadline enables a disabled watchdog");
        cfg.validate().unwrap();
    }

    #[test]
    fn invalid_line_size_rejected() {
        let mut cfg = GpuConfig::small_test();
        cfg.line_bytes = 100;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn invalid_cache_geometry_rejected() {
        let mut cfg = GpuConfig::small_test();
        cfg.l1_assoc = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_smxs_rejected() {
        let mut cfg = GpuConfig::small_test();
        cfg.num_smxs = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_kepler() {
        assert_eq!(GpuConfig::default(), GpuConfig::kepler_k20c());
    }

    #[test]
    fn default_limits_are_unbounded() {
        let cfg = GpuConfig::kepler_k20c();
        assert!(cfg.launch_limits.is_unbounded());
        assert_eq!(cfg.launch_limits.policy, OverflowPolicy::StallParent);
    }

    #[test]
    fn zero_finite_capacity_rejected() {
        let mut cfg = GpuConfig::small_test();
        cfg.launch_limits.kmu_capacity = Some(0);
        assert!(cfg.validate().is_err());
        cfg.launch_limits.kmu_capacity = Some(1);
        cfg.validate().unwrap();
    }

    #[test]
    fn zero_watchdog_window_rejected() {
        let mut cfg = GpuConfig::small_test();
        cfg.watchdog_window = Some(0);
        assert!(cfg.validate().is_err());
        cfg.watchdog_window = None;
        cfg.validate().unwrap();
    }

    #[test]
    fn engine_mode_defaults_to_event() {
        assert_eq!(GpuConfig::kepler_k20c().engine_mode, EngineMode::Event);
        assert_eq!(GpuConfig::small_test().engine_mode, EngineMode::Event);
        assert_eq!(EngineMode::default(), EngineMode::Event);
        assert_eq!(EngineMode::Event.name(), "event");
        assert_eq!(EngineMode::CycleStepped.name(), "cycle-stepped");
    }

    #[test]
    fn overflow_policy_names() {
        assert_eq!(OverflowPolicy::StallParent.name(), "stall-parent");
        assert_eq!(OverflowPolicy::SpillVirtual { extra_latency: 500 }.name(), "spill-virtual");
    }
}
