//! A lightweight counter/gauge/histogram registry.
//!
//! One [`MetricsRegistry`] collects everything a run wants to report:
//! monotonically accumulated counters, point-in-time gauges, and the
//! simulator's own [`Pow2Hist`] histograms with fixed power-of-two
//! buckets (so recording is two
//! instructions and the memory footprint is constant, no matter how many
//! samples go in). The harness, timeline, Perfetto exporter, and the
//! `laperm-trace` CLI all speak this one vocabulary; [`registry_for_run`]
//! builds the standard registry from a finished run's statistics and
//! trace.

use std::collections::BTreeMap;

use gpu_sim::cache::ReuseClass;
use gpu_sim::stats::{Pow2Hist, SimStats, WakeSource, ENGINE_HOST_COMPONENTS};
use gpu_sim::trace::{TraceEvent, TraceRecord};

/// A named collection of counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Pow2Hist>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn count(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the gauge `name`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The histogram `name`, created empty on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Pow2Hist {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Reads a counter (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram.
    pub fn histogram_value(&self, name: &str) -> Option<&Pow2Hist> {
        self.histograms.get(name)
    }

    /// A human-readable dump: one metric per line, histograms with
    /// count/mean/p50/p99/max.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<32}{v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name:<32}{v:.4}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name:<32}count {} / mean {:.1} / p50 <= {} / p99 <= {} / max {}\n",
                h.count,
                h.mean(),
                h.percentile(0.5),
                h.percentile(0.99),
                h.max,
            ));
        }
        out
    }

    /// Renders the registry as a JSON object (hand-rolled; the workspace
    /// has no serde). Histograms serialize their summary plus the
    /// non-empty `[bucket upper bound, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            out.push_str(if first { "\n" } else { ",\n" });
            out.push_str(&format!("    \"{name}\": {v}"));
            first = false;
        }
        out.push_str("\n  },\n  \"gauges\": {");
        let mut first = true;
        for (name, v) in &self.gauges {
            out.push_str(if first { "\n" } else { ",\n" });
            out.push_str(&format!("    \"{name}\": {v:.6}"));
            first = false;
        }
        out.push_str("\n  },\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            out.push_str(if first { "\n" } else { ",\n" });
            let buckets: Vec<String> =
                h.nonzero_buckets().iter().map(|(hi, c)| format!("[{hi}, {c}]")).collect();
            out.push_str(&format!(
                "    \"{name}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}",
                h.count,
                h.sum,
                h.max,
                buckets.join(", ")
            ));
            first = false;
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Builds the standard registry for one finished run: headline counters
/// and gauges from `stats`, plus child-wait, TB-residency, and
/// queue-depth histograms (the latter sampled from the trace's
/// enqueue/dequeue events, empty when no trace was collected).
pub fn registry_for_run(stats: &SimStats, records: &[TraceRecord]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.count("cycles", stats.cycles);
    reg.count("warp_instructions", stats.warp_instructions);
    reg.count("thread_instructions", stats.thread_instructions);
    reg.count("dram_accesses", stats.dram_accesses);
    reg.count("tbs_total", stats.tb_records.len() as u64);
    reg.count("tbs_dynamic", stats.dynamic_tbs() as u64);
    for (name, v) in &stats.scheduler_counters {
        reg.count(name, *v);
    }
    for (name, v) in &stats.launch_counters {
        reg.count(name, *v);
    }
    let stalls = stats.total_stalls();
    reg.count("stall_scoreboard_cycles", stalls.scoreboard);
    reg.count("stall_memory_pending_cycles", stalls.memory_pending);
    reg.count("stall_mshr_full_cycles", stalls.mshr_full);
    reg.count("stall_barrier_cycles", stalls.barrier);
    reg.count("stall_no_tb_cycles", stalls.no_tb);
    reg.count("stall_launch_path_cycles", stalls.launch_path);

    reg.gauge("ipc", stats.ipc());
    reg.gauge("l1_hit_rate", stats.l1.hit_rate());
    reg.gauge("l2_hit_rate", stats.l2.hit_rate());
    reg.gauge("parent_smx_affinity", stats.parent_smx_affinity());
    reg.gauge("smx_utilization", stats.smx_utilization());
    reg.gauge("load_imbalance", stats.load_imbalance());
    reg.gauge("mean_child_wait", stats.mean_child_wait());

    for r in &stats.tb_records {
        if r.is_dynamic {
            reg.histogram("child_wait_cycles").record(r.dispatched_at.saturating_sub(r.created_at));
        }
        let name = if r.is_dynamic { "child_resident_cycles" } else { "parent_resident_cycles" };
        reg.histogram(name).record(r.finished_at.saturating_sub(r.dispatched_at));
    }
    for r in records {
        match r.event {
            TraceEvent::QueueEnqueued { depth, .. } | TraceEvent::QueueDequeued { depth, .. } => {
                reg.histogram("queue_depth").record(u64::from(depth));
            }
            _ => {}
        }
    }
    if let Some(loc) = &stats.locality {
        for class in ReuseClass::ALL {
            reg.count(&format!("l1_hits_{}", class.name()), stats.l1.prov.class(class));
            reg.count(&format!("l2_hits_{}", class.name()), stats.l2.prov.class(class));
            let l1h = &loc.l1_reuse_dist[class.index()];
            if l1h.count > 0 {
                *reg.histogram(&format!("l1_reuse_dist_{}", class.name())) = *l1h;
            }
            let l2h = &loc.l2_reuse_dist[class.index()];
            if l2h.count > 0 {
                *reg.histogram(&format!("l2_reuse_dist_{}", class.name())) = *l2h;
            }
        }
        reg.count("l2_hits_same_smx", stats.l2.prov.same_smx);
        reg.count("l2_hits_cross_smx", stats.l2.prov.cross_smx);
        reg.count("bound_child_hits", loc.bind.bound_hits);
        reg.count("bound_child_parent_child_hits", loc.bind.bound_parent_child);
        reg.count("stolen_child_hits", loc.bind.stolen_hits);
        reg.count("stolen_child_parent_child_hits", loc.bind.stolen_parent_child);
        reg.gauge("l1_parent_child_share", stats.l1.prov.share(ReuseClass::ParentChild));
        reg.gauge("l2_parent_child_share", stats.l2.prov.share(ReuseClass::ParentChild));
    }
    if let Some(eng) = &stats.engine {
        reg.count("engine_loop_iterations", eng.loop_iterations);
        for source in WakeSource::ALL {
            reg.count(&format!("engine_wake_{}", source.name()), eng.wake_count(source));
        }
        for (hist, name) in [
            (&eng.heap_depth, "engine_heap_depth"),
            (&eng.events_per_cycle, "engine_events_per_cycle"),
            (&eng.jump_len, "engine_jump_len"),
        ] {
            if hist.count > 0 {
                *reg.histogram(name) = *hist;
            }
        }
        // Host-side wall time is telemetry, not simulation state: it
        // lives here (and in the Perfetto host track) but never in
        // repro.json.
        reg.count("engine_host_samples", eng.host_samples);
        for (i, comp) in ENGINE_HOST_COMPONENTS.iter().enumerate() {
            reg.count(&format!("engine_host_{comp}_ns"), eng.host_ns[i]);
        }
    }
    if let Some(lat) = &stats.latency {
        reg.count("latency_tbs", lat.tbs);
        reg.count("latency_partition_violations", lat.partition_violations);
        reg.count("latency_kmu_depth_hwm", lat.kmu_depth_hwm);
        for (hist, name) in [
            (&lat.launch_path, "latency_launch_path"),
            (&lat.kmu_wait, "latency_kmu_wait"),
            (&lat.queue_wait, "latency_queue_wait"),
            (&lat.dispatch_gap, "latency_dispatch_gap"),
            (&lat.exec, "latency_exec"),
            (&lat.lifetime, "latency_lifetime"),
            (&lat.child_queue_wait, "latency_child_queue_wait"),
            (&lat.bound_queue_wait, "latency_bound_queue_wait"),
            (&lat.stolen_queue_wait, "latency_stolen_queue_wait"),
        ] {
            if hist.count > 0 {
                *reg.histogram(name) = *hist;
            }
        }
        for (depth, hist) in &lat.depth_queue_wait {
            *reg.histogram(&format!("latency_queue_wait_depth{depth}")) = *hist;
        }
        reg.count("critical_path_len", u64::from(lat.critical_path.len));
        reg.count("critical_path_cycles", lat.critical_path.cycles);
        reg.count("critical_path_queue_cycles", lat.critical_path.queue_cycles);
        reg.count("critical_path_exec_cycles", lat.critical_path.exec_cycles);
    }
    reg
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use gpu_sim::types::BatchId;

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
    fn registry_counts_gauges_and_renders() {
        let mut reg = MetricsRegistry::new();
        reg.count("widgets", 2);
        reg.count("widgets", 3);
        reg.gauge("speed", 1.5);
        reg.histogram("lat").record(7);
        assert_eq!(reg.counter_value("widgets"), 5);
        assert_eq!(reg.gauge_value("speed"), Some(1.5));
        assert_eq!(reg.histogram_value("lat").unwrap().count, 1);
        let text = reg.render();
        assert!(text.contains("widgets"));
        assert!(text.contains("1.5000"));
        assert!(text.contains("p99"));
        let json = reg.to_json();
        assert!(json.contains("\"widgets\": 5"));
        assert!(json.contains("\"lat\": {\"count\": 1"));
    }

    #[test]
    fn run_registry_builds_standard_metrics() {
        use gpu_sim::program::KernelKindId;
        use gpu_sim::stats::TbRecord;
        use gpu_sim::types::{Priority, SmxId, TbRef};

        let stats = SimStats {
            cycles: 100,
            tb_records: vec![
                TbRecord {
                    tb: TbRef { batch: BatchId(0), index: 0 },
                    kind: KernelKindId(0),
                    smx: SmxId(0),
                    priority: Priority(0),
                    is_dynamic: false,
                    parent: None,
                    created_at: 0,
                    dispatched_at: 0,
                    finished_at: 50,
                },
                TbRecord {
                    tb: TbRef { batch: BatchId(1), index: 0 },
                    kind: KernelKindId(1),
                    smx: SmxId(0),
                    priority: Priority(1),
                    is_dynamic: true,
                    parent: Some((BatchId(0), 0, SmxId(0))),
                    created_at: 10,
                    dispatched_at: 30,
                    finished_at: 60,
                },
            ],
            ..Default::default()
        };
        let trace = vec![
            TraceRecord {
                cycle: 5,
                event: TraceEvent::QueueEnqueued { batch: BatchId(1), set: 0, level: 1, depth: 3 },
            },
            TraceRecord {
                cycle: 9,
                event: TraceEvent::QueueDequeued { batch: BatchId(1), set: 0, level: 1, depth: 2 },
            },
        ];
        let reg = registry_for_run(&stats, &trace);
        assert_eq!(reg.counter_value("cycles"), 100);
        assert_eq!(reg.counter_value("tbs_dynamic"), 1);
        let wait = reg.histogram_value("child_wait_cycles").unwrap();
        assert_eq!(wait.count, 1);
        assert_eq!(wait.sum, 20);
        assert_eq!(reg.histogram_value("queue_depth").unwrap().count, 2);
        assert_eq!(reg.histogram_value("parent_resident_cycles").unwrap().sum, 50);
        assert_eq!(reg.histogram_value("child_resident_cycles").unwrap().sum, 30);
    }

    #[test]
    fn run_registry_includes_locality_when_profiled() {
        use gpu_sim::stats::LocalityStats;

        let mut stats = SimStats::default();
        assert!(
            !registry_for_run(&stats, &[]).render().contains("l1_hits_parent_child"),
            "unprofiled runs carry no locality metrics"
        );

        stats.l1.prov.by_class[ReuseClass::ParentChild.index()] = 7;
        stats.l2.prov.same_smx = 3;
        stats.l2.prov.cross_smx = 1;
        let mut loc = LocalityStats::default();
        loc.l1_reuse_dist[ReuseClass::ParentChild.index()].record(100);
        loc.l1_reuse_dist[ReuseClass::ParentChild.index()].record(300);
        loc.bind.bound_hits = 5;
        loc.bind.bound_parent_child = 4;
        stats.locality = Some(loc);

        let reg = registry_for_run(&stats, &[]);
        assert_eq!(reg.counter_value("l1_hits_parent_child"), 7);
        assert_eq!(reg.counter_value("l2_hits_same_smx"), 3);
        assert_eq!(reg.counter_value("bound_child_parent_child_hits"), 4);
        let h = reg.histogram_value("l1_reuse_dist_parent_child").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 400);
        assert_eq!(reg.gauge_value("l1_parent_child_share"), Some(1.0));
    }

    #[test]
    fn run_registry_includes_engine_when_profiled() {
        use gpu_sim::stats::EngineStats;

        let mut stats = SimStats::default();
        assert!(
            !registry_for_run(&stats, &[]).render().contains("engine_loop_iterations"),
            "unprofiled runs carry no engine metrics"
        );

        let mut eng = EngineStats {
            loop_iterations: 10,
            wake_counts: [6, 1, 1, 0, 2],
            host_samples: 3,
            host_ns: [0, 0, 0, 9000, 0],
            ..EngineStats::default()
        };
        eng.heap_depth.record(4);
        eng.jump_len.record(128);
        eng.jump_len.record(2);
        stats.engine = Some(eng);

        let reg = registry_for_run(&stats, &[]);
        assert_eq!(reg.counter_value("engine_loop_iterations"), 10);
        assert_eq!(reg.counter_value("engine_wake_component_tick"), 6);
        assert_eq!(reg.counter_value("engine_wake_fast_forward_jump"), 2);
        assert_eq!(reg.histogram_value("engine_heap_depth").unwrap().count, 1);
        let jumps = reg.histogram_value("engine_jump_len").unwrap();
        assert_eq!(jumps.count, 2);
        assert_eq!(jumps.sum, 130);
        assert!(reg.histogram_value("engine_events_per_cycle").is_none());
        assert_eq!(reg.counter_value("engine_host_smx_ns"), 9000);
        assert_eq!(reg.counter_value("engine_host_samples"), 3);
    }

    #[test]
    fn run_registry_includes_latency_when_profiled() {
        use gpu_sim::stats::{CriticalPath, LatencyStats};

        let mut stats = SimStats::default();
        assert!(
            !registry_for_run(&stats, &[]).render().contains("latency_tbs"),
            "unprofiled runs carry no latency metrics"
        );

        let mut lat = LatencyStats {
            tbs: 4,
            kmu_depth_hwm: 2,
            critical_path: CriticalPath {
                len: 2,
                cycles: 900,
                queue_cycles: 300,
                exec_cycles: 600,
                ..CriticalPath::default()
            },
            ..LatencyStats::default()
        };
        lat.queue_wait.record(10);
        lat.queue_wait.record(600);
        lat.depth_queue_wait.push((1, lat.child_queue_wait));
        lat.depth_queue_wait[0].1.record(600);
        stats.latency = Some(lat);

        let reg = registry_for_run(&stats, &[]);
        assert_eq!(reg.counter_value("latency_tbs"), 4);
        assert_eq!(reg.counter_value("latency_kmu_depth_hwm"), 2);
        assert_eq!(reg.counter_value("critical_path_cycles"), 900);
        assert_eq!(reg.counter_value("critical_path_queue_cycles"), 300);
        let qw = reg.histogram_value("latency_queue_wait").unwrap();
        assert_eq!(qw.count, 2);
        assert_eq!(qw.sum, 610);
        assert_eq!(reg.histogram_value("latency_queue_wait_depth1").unwrap().count, 1);
        assert!(reg.histogram_value("latency_exec").is_none(), "empty hists are omitted");
    }

    #[test]
    fn top_bucket_renders_without_overflow() {
        // The top bucket holds [2^63, u64::MAX]; its label must be
        // u64::MAX, never a shift by 64.
        let mut reg = MetricsRegistry::new();
        reg.histogram("huge").record(u64::MAX);
        assert_eq!(reg.histogram_value("huge").unwrap().nonzero_buckets(), vec![(u64::MAX, 1)]);
        let text = reg.render();
        assert!(text.contains(&format!("p99 <= {}", u64::MAX)), "{text}");
        let json = reg.to_json();
        assert!(json.contains(&format!("[{}, 1]", u64::MAX)), "{json}");
    }
}
