//! Tracing decorators: each wraps one layer the engine calls into and
//! times those calls from outside, without changing what the layer does.
//!
//! * [`TimedSource`] wraps the `ProgramSource` handed to
//!   `Simulator::new` (program materialization: the Rust generators or
//!   the `wdsl` bytecode VM);
//! * [`TimedScheduler`] wraps the `TbScheduler` (the round-robin
//!   baseline and the three LaPerm policies), timing `pick`, `kmu_pick`
//!   and the `on_*` hooks;
//! * [`TimedLaunchModel`] wraps the `DynamicLaunchModel` (the `dynpar`
//!   CDP and DTBL launch paths), timing `submit` and `drain_ready`.
//!
//! All three add into one shared [`LayerClock`]. The decorators only
//! forward and count, so a decorated run yields exactly the statistics
//! of an undecorated one (the tests below check `SimStats` equality).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::error::SimError;
use gpu_sim::kernel::Batch;
use gpu_sim::launch::{Delivery, DynamicLaunchModel, LaunchRequest};
use gpu_sim::program::{KernelKindId, ProgramSource, TbProgram};
use gpu_sim::stats::SimStats;
use gpu_sim::tb_sched::{DispatchDecision, DispatchView, KmuView, TbScheduler};
use gpu_sim::trace::TraceEvent;
use gpu_sim::types::{Cycle, SmxId, TbRef};
use sim_metrics::harness::SchedulerKind;
use workloads::{SharedSource, Workload};

/// Call counts and host nanoseconds per decorated layer. The counters
/// are statistics that publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct LayerClock {
    program_calls: AtomicU64,
    program_ns: AtomicU64,
    sched_picks: AtomicU64,
    sched_dispatches: AtomicU64,
    sched_ns: AtomicU64,
    launch_submits: AtomicU64,
    launch_drains: AtomicU64,
    launch_ns: AtomicU64,
}

/// A plain-value copy of a [`LayerClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// `tb_program` calls.
    pub program_calls: u64,
    /// Host ns inside `tb_program`.
    pub program_ns: u64,
    /// `pick` calls.
    pub sched_picks: u64,
    /// `pick` calls that returned a dispatch.
    pub sched_dispatches: u64,
    /// Host ns inside the scheduler's `pick`, `kmu_pick` and `on_*`.
    pub sched_ns: u64,
    /// `submit` calls.
    pub launch_submits: u64,
    /// `drain_ready` calls.
    pub launch_drains: u64,
    /// Host ns inside `submit` and `drain_ready`.
    pub launch_ns: u64,
}

impl LayerClock {
    /// The counts so far.
    pub fn counts(&self) -> LayerCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LayerCounts {
            program_calls: get(&self.program_calls),
            program_ns: get(&self.program_ns),
            sched_picks: get(&self.sched_picks),
            sched_dispatches: get(&self.sched_dispatches),
            sched_ns: get(&self.sched_ns),
            launch_submits: get(&self.launch_submits),
            launch_drains: get(&self.launch_drains),
            launch_ns: get(&self.launch_ns),
        }
    }
}

fn timed<T>(ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
    out
}

/// Nanoseconds since `t0`, saturating.
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Program-materialization decorator.
pub struct TimedSource<S> {
    inner: S,
    clock: Arc<LayerClock>,
}

impl<S: ProgramSource> ProgramSource for TimedSource<S> {
    fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
        self.clock.program_calls.fetch_add(1, Ordering::Relaxed);
        timed(&self.clock.program_ns, || self.inner.tb_program(kind, param, tb_index))
    }

    fn kind_name(&self, kind: KernelKindId) -> String {
        self.inner.kind_name(kind)
    }
}

/// TB-scheduler decorator.
pub struct TimedScheduler {
    inner: Box<dyn TbScheduler>,
    clock: Arc<LayerClock>,
}

impl TbScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_batch_schedulable(&mut self, batch: &Batch, cycle: Cycle) {
        timed(&self.clock.sched_ns, || self.inner.on_batch_schedulable(batch, cycle));
    }

    fn on_tb_finished(&mut self, tb: TbRef, smx: SmxId, cycle: Cycle) {
        timed(&self.clock.sched_ns, || self.inner.on_tb_finished(tb, smx, cycle));
    }

    fn pick(&mut self, view: &DispatchView<'_>) -> Option<DispatchDecision> {
        let decision = timed(&self.clock.sched_ns, || self.inner.pick(view));
        self.clock.sched_picks.fetch_add(1, Ordering::Relaxed);
        if decision.is_some() {
            self.clock.sched_dispatches.fetch_add(1, Ordering::Relaxed);
        }
        decision
    }

    fn kmu_pick(&mut self, view: &KmuView<'_>) -> Option<usize> {
        timed(&self.clock.sched_ns, || self.inner.kmu_pick(view))
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.inner.set_tracing(enabled);
    }

    fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        self.inner.drain_trace(out);
    }
}

/// Launch-model decorator.
pub struct TimedLaunchModel {
    inner: Box<dyn DynamicLaunchModel>,
    clock: Arc<LayerClock>,
}

impl DynamicLaunchModel for TimedLaunchModel {
    fn submit(&mut self, req: LaunchRequest) {
        self.clock.launch_submits.fetch_add(1, Ordering::Relaxed);
        timed(&self.clock.launch_ns, || self.inner.submit(req));
    }

    fn drain_ready(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        self.clock.launch_drains.fetch_add(1, Ordering::Relaxed);
        timed(&self.clock.launch_ns, || self.inner.drain_ready(now, out));
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn next_ready(&self) -> Option<Cycle> {
        self.inner.next_ready()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Runs one matrix cell the way the sweep harness does (the same
/// `Simulator` construction as `sim_metrics::harness::run_once`), with
/// every decorated layer reporting into `clock` when one is given.
///
/// # Errors
///
/// Propagates the engine's [`SimError`].
pub fn simulate_cell(
    workload: &Arc<dyn Workload>,
    model: LaunchModelKind,
    scheduler: SchedulerKind,
    cfg: &GpuConfig,
    clock: Option<&Arc<LayerClock>>,
) -> Result<SimStats, SimError> {
    let source = SharedSource(workload.clone());
    let sched = scheduler.build(cfg);
    let launch = model.build(LaunchLatency::default_for(model));
    let mut sim = match clock {
        None => Simulator::new(cfg.clone(), Box::new(source))
            .with_scheduler(sched)
            .with_launch_model(launch),
        Some(clock) => Simulator::new(
            cfg.clone(),
            Box::new(TimedSource { inner: source, clock: clock.clone() }),
        )
        .with_scheduler(Box::new(TimedScheduler { inner: sched, clock: clock.clone() }))
        .with_launch_model(Box::new(TimedLaunchModel { inner: launch, clock: clock.clone() })),
    };
    for hk in workload.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req)?;
    }
    sim.run_to_completion()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_metrics::harness::run_once;
    use workloads::{suite_seeded, Scale};

    #[test]
    fn decorated_cells_yield_identical_statistics() {
        // One tiny-scale workload under every model × scheduler, with
        // every profiler on, so the comparison covers the provenance
        // and latency statistics too.
        let mut cfg = GpuConfig::kepler_k20c();
        cfg.profile_locality = true;
        cfg.profile_latency = true;
        let workload = suite_seeded(Scale::Tiny, 0)
            .into_iter()
            .find(|w| w.full_name() == "bfs-citation")
            .expect("bfs-citation is in the suite");
        for model in LaunchModelKind::all() {
            for scheduler in SchedulerKind::all() {
                let clock = Arc::new(LayerClock::default());
                let plain = simulate_cell(&workload, model, scheduler, &cfg, None)
                    .expect("undecorated cell runs");
                let traced = simulate_cell(&workload, model, scheduler, &cfg, Some(&clock))
                    .expect("decorated cell runs");
                assert_eq!(plain, traced, "{model:?}/{scheduler:?}: tracing changed the run");
                let counts = clock.counts();
                assert!(counts.program_calls > 0, "{counts:?}");
                assert!(counts.sched_dispatches > 0, "{counts:?}");
                assert!(counts.sched_picks >= counts.sched_dispatches, "{counts:?}");
                assert!(counts.launch_submits > 0, "{counts:?}");
                assert!(counts.launch_drains > 0, "{counts:?}");
                // Every dispatched TB had its program materialized.
                assert_eq!(counts.sched_dispatches, plain.tb_records.len() as u64);
            }
        }
    }

    #[test]
    fn simulate_cell_matches_the_sweep_harness() {
        let cfg = GpuConfig::kepler_k20c();
        let workload = suite_seeded(Scale::Tiny, 0).remove(0);
        let model = LaunchModelKind::Dtbl;
        let scheduler = SchedulerKind::AdaptiveBind;
        let stats = simulate_cell(&workload, model, scheduler, &cfg, None).expect("cell runs");
        let record = run_once(&workload, model, scheduler, &cfg).expect("harness cell runs");
        assert_eq!(stats.cycles, record.cycles);
        assert_eq!(stats.ipc(), record.ipc);
        assert_eq!(stats.tb_records.len(), record.total_tbs);
    }
}
