//! Windowed time-series measurement of a running simulation.
//!
//! The aggregate results of [`harness`](crate::harness) hide *when* the
//! locality benefit materializes: LaPerm's gains concentrate in the
//! phase where children run interleaved with their parents. The timeline
//! runner steps a simulation manually and samples the machine's cheap
//! counters every `window` cycles, yielding per-window IPC and cache hit
//! rates.

use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::{EngineMode, GpuConfig};
use gpu_sim::engine::Simulator;
use gpu_sim::error::SimError;
use gpu_sim::stats::MachineSample;
use workloads::{SharedSource, Workload};

use crate::harness::SchedulerKind;

/// One window of a run's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Cycle at the end of the window.
    pub cycle: u64,
    /// IPC within the window.
    pub ipc: f64,
    /// Thread instructions retired within the window. Windows tile the
    /// run exactly, so these sum to the run's total instruction count.
    pub instructions: u64,
    /// L1 hit rate within the window.
    pub l1_hit_rate: f64,
    /// L2 hit rate within the window.
    pub l2_hit_rate: f64,
    /// Resident TBs at the end of the window.
    pub resident_tbs: usize,
    /// Undispatched (visible) TBs at the end of the window.
    pub undispatched_tbs: u64,
}

/// Runs a workload to completion, sampling every `window` cycles.
///
/// # Errors
///
/// Propagates any [`SimError`] from the engine.
pub fn run_timeline(
    workload: &Arc<dyn Workload>,
    model: LaunchModelKind,
    scheduler: SchedulerKind,
    cfg: &GpuConfig,
    window: u64,
) -> Result<Vec<TimelinePoint>, SimError> {
    let window = window.max(1);
    // Step cycle by cycle on the reference engine: the event engine
    // would jump over window boundaries and make the sampling grid
    // depend on the workload's idle structure. Statistics are identical
    // either way; only the sample spacing is at stake.
    let mut cfg = cfg.clone();
    cfg.engine_mode = EngineMode::CycleStepped;
    let cfg = &cfg;
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(workload.clone())))
        .with_scheduler(scheduler.build(cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)));
    for hk in workload.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req)?;
    }

    let mut points = Vec::new();
    let mut previous = sim.sample();
    while !sim.is_done() {
        for _ in 0..window {
            if sim.is_done() {
                break;
            }
            sim.step()?;
            if sim.cycle() > cfg.max_cycles {
                return Err(SimError::CycleLimitExceeded { limit: cfg.max_cycles });
            }
        }
        let sample = sim.sample();
        points.push(point_between(&previous, &sample));
        previous = sample;
    }
    Ok(points)
}

fn point_between(earlier: &MachineSample, later: &MachineSample) -> TimelinePoint {
    TimelinePoint {
        cycle: later.cycle,
        ipc: later.ipc_since(earlier),
        instructions: later.thread_instructions.saturating_sub(earlier.thread_instructions),
        l1_hit_rate: later.l1_rate_since(earlier),
        l2_hit_rate: later.l2_rate_since(earlier),
        resident_tbs: later.resident_tbs,
        undispatched_tbs: later.undispatched_tbs,
    }
}

/// Downsamples a timeline to at most `max_points` evenly spaced windows
/// (for compact text reports).
pub fn downsample(points: &[TimelinePoint], max_points: usize) -> Vec<TimelinePoint> {
    if points.len() <= max_points || max_points == 0 {
        return points.to_vec();
    }
    let stride = points.len().div_ceil(max_points);
    points.iter().copied().step_by(stride).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use workloads::{suite, Scale};

    #[test]
    fn timeline_covers_whole_run() {
        let all = suite(Scale::Tiny);
        let w = &all[2]; // bfs-citation
        let mut cfg = GpuConfig::small_test();
        cfg.num_smxs = 4;
        let points = run_timeline(w, LaunchModelKind::Dtbl, SchedulerKind::RoundRobin, &cfg, 500)
            .expect("timeline runs");
        assert!(!points.is_empty());
        // Cycles strictly increase and end at the run's end.
        for pair in points.windows(2) {
            assert!(pair[0].cycle < pair[1].cycle);
        }
        // The machine drains by the last window.
        let last = points.last().unwrap();
        assert_eq!(last.resident_tbs, 0);
        assert_eq!(last.undispatched_tbs, 0);
        // Rates stay in range.
        for p in &points {
            assert!((0.0..=1.0).contains(&p.l1_hit_rate), "{p:?}");
            assert!((0.0..=1.0).contains(&p.l2_hit_rate), "{p:?}");
            assert!(p.ipc >= 0.0);
        }
    }

    #[test]
    fn timeline_aggregate_matches_run_once() {
        let all = suite(Scale::Tiny);
        let w = &all[0]; // amr
        let mut cfg = GpuConfig::small_test();
        cfg.num_smxs = 4;
        let points =
            run_timeline(w, LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind, &cfg, 1000)
                .expect("timeline");
        let rec =
            crate::harness::run_once(w, LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind, &cfg)
                .expect("run");
        // Total cycles agree (same deterministic simulation).
        assert_eq!(points.last().unwrap().cycle, rec.cycles);
        // Windows tile the run: per-window instruction counts sum to
        // the run's total (RunRecord stores it as ipc = total / cycles).
        let total: u64 = points.iter().map(|p| p.instructions).sum();
        assert!(total > 0);
        assert!((total as f64 - rec.ipc * rec.cycles as f64).abs() < 0.5, "{total} vs {}", rec.ipc);
    }

    #[test]
    fn downsample_bounds_length() {
        let p = TimelinePoint {
            cycle: 0,
            ipc: 0.0,
            instructions: 0,
            l1_hit_rate: 0.0,
            l2_hit_rate: 0.0,
            resident_tbs: 0,
            undispatched_tbs: 0,
        };
        let points: Vec<TimelinePoint> =
            (0..100).map(|i| TimelinePoint { cycle: i, ..p }).collect();
        let d = downsample(&points, 10);
        assert!(d.len() <= 10);
        assert_eq!(d[0].cycle, 0);
        assert_eq!(downsample(&points, 1000).len(), 100);
    }
}
