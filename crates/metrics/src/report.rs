//! Aggregation and table rendering for experiment reports, and the one
//! text summary of a single finished run ([`run_summary`]).

use gpu_sim::cache::ReuseClass;
use gpu_sim::stats::{
    EngineStats, LatencyStats, LocalityStats, Pow2Hist, SimStats, WakeSource,
    ENGINE_HOST_COMPONENTS,
};

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean; 0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is negative.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    assert!(xs.iter().all(|&x| x >= 0.0), "geomean of negative value");
    let log_sum: f64 = xs.iter().map(|&x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// A fixed-width text table (the `repro` binary's output format).
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Mean and sample standard deviation; (0, 0) for an empty slice.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let m = mean(xs);
    if xs.len() < 2 {
        return (m, 0.0);
    }
    let var = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    (m, var.sqrt())
}

/// Renders labeled values as a horizontal ASCII bar chart, scaled so the
/// largest value spans `width` characters.
pub fn bar_chart(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    let label_width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let bars = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
        out.push_str(&format!("{label:<label_width$}  {:<width$}  {value:.2}\n", "#".repeat(bars)));
    }
    out
}

/// Formats a ratio as a percentage with one decimal ("38.4%").
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a normalized value with two decimals ("1.27x").
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// The text summary of one finished run: the headline counters, quantile
/// lines for child wait and TB residency, and the scheduler's and launch
/// model's counters, then one block per profiler the run enabled —
/// locality provenance, the two-clock engine self-profile, and latency
/// attribution. A profiler that did not run prints no block, never an
/// empty table (an empty table reads as a measured zero). Histograms
/// render through [`LatencyStats::quantile_line`].
pub fn run_summary(stats: &SimStats) -> String {
    let mut out = headline(stats);
    if let Some(loc) = &stats.locality {
        out += &format!("\n{}", locality_block(stats, loc));
    }
    if let Some(eng) = &stats.engine {
        out += &format!("\n{}", engine_block(stats, eng));
    }
    if let Some(lat) = &stats.latency {
        out += &format!("\n{}", latency_block(lat));
    }
    out
}

/// One `name value` line per headline measure, child wait and TB
/// residency as quantile lines, then every scheduler and launch counter.
fn headline(s: &SimStats) -> String {
    let (mut child_wait, mut parent_resident, mut child_resident) =
        (Pow2Hist::default(), Pow2Hist::default(), Pow2Hist::default());
    for r in &s.tb_records {
        let resident = r.finished_at.saturating_sub(r.dispatched_at);
        if r.is_dynamic {
            child_wait.record(r.dispatched_at.saturating_sub(r.created_at));
            child_resident.record(resident);
        } else {
            parent_resident.record(resident);
        }
    }
    let mix = s.instruction_mix;
    let stalls = s.total_stalls();
    let mut out = String::new();
    let mut line = |k: &str, v: String| out.push_str(&format!("{k:<22}{v}\n"));
    line("scheduler", s.scheduler.clone());
    line("launch model", s.launch_model.clone());
    line("cycles", s.cycles.to_string());
    line("IPC", format!("{:.2}", s.ipc()));
    line("L1 hit rate", pct(s.l1.hit_rate()));
    line("L2 hit rate", pct(s.l2.hit_rate()));
    line("DRAM accesses", s.dram_accesses.to_string());
    line("DRAM row hits", pct(s.dram_row_hit_rate));
    line("MSHR merges", s.mshr_merges.to_string());
    line("L2 write-backs", s.l2_writebacks.to_string());
    line("TBs (total/child)", format!("{}/{}", s.tb_records.len(), s.dynamic_tbs()));
    line("mean child wait", format!("{:.0} cycles", s.mean_child_wait()));
    line("parent-SMX affinity", pct(s.parent_smx_affinity()));
    line("SMX utilization", pct(s.smx_utilization()));
    line("load imbalance", format!("{:.2}", s.load_imbalance()));
    line(
        "instructions",
        format!("{} warp / {} thread", s.warp_instructions, s.thread_instructions),
    );
    line(
        "instruction mix",
        format!(
            "{} compute / {} load / {} store / {} shared / {} launch / {} barrier",
            mix.compute, mix.loads, mix.stores, mix.shared, mix.launches, mix.barriers
        ),
    );
    line(
        "stall cycles",
        format!(
            "{} scoreboard / {} mem / {} mshr-full / {} barrier / {} no-TB / {} launch-path",
            stalls.scoreboard,
            stalls.memory_pending,
            stalls.mshr_full,
            stalls.barrier,
            stalls.no_tb,
            stalls.launch_path
        ),
    );
    line("child wait", LatencyStats::quantile_line(&child_wait));
    line("parent resident", LatencyStats::quantile_line(&parent_resident));
    line("child resident", LatencyStats::quantile_line(&child_resident));
    for (name, v) in s.scheduler_counters.iter().chain(&s.launch_counters) {
        line(name, v.to_string());
    }
    out
}

/// Hit counts and shares per lineage class at each cache level with
/// mean reuse distances, the L2 same/cross-SMX and bound/stolen splits,
/// and each class's reuse-distance quantiles.
fn locality_block(stats: &SimStats, loc: &LocalityStats) -> String {
    let mut t = Table::new(vec![
        "reuse class",
        "l1 hits",
        "l1 share",
        "l1 dist",
        "l2 hits",
        "l2 share",
        "l2 dist",
    ]);
    let mut dist = Table::new(vec!["reuse distance", "quantiles"]);
    for class in ReuseClass::ALL {
        let i = class.index();
        t.row(vec![
            class.name().to_string(),
            stats.l1.prov.class(class).to_string(),
            pct(stats.l1.prov.share(class)),
            format!("{:.0} cyc", loc.l1_reuse_dist[i].mean()),
            stats.l2.prov.class(class).to_string(),
            pct(stats.l2.prov.share(class)),
            format!("{:.0} cyc", loc.l2_reuse_dist[i].mean()),
        ]);
    }
    for (level, hists) in [("l1", &loc.l1_reuse_dist), ("l2", &loc.l2_reuse_dist)] {
        for class in ReuseClass::ALL {
            let h = &hists[class.index()];
            if h.count > 0 {
                dist.row(vec![format!("{level} {}", class.name()), LatencyStats::quantile_line(h)]);
            }
        }
    }
    let b = &loc.bind;
    format!(
        "locality provenance\n{}\
         L2 hits on installing SMX: {} same, {} cross\n\
         child L1 hits: bound {} ({} parent-child, {}), stolen {} ({} parent-child, {})\n\
         \n{}",
        t.render(),
        stats.l2.prov.same_smx,
        stats.l2.prov.cross_smx,
        b.bound_hits,
        b.bound_parent_child,
        pct(b.bound_share()),
        b.stolen_hits,
        b.stolen_parent_child,
        pct(b.stolen_share()),
        dist.render(),
    )
}

/// The two-clock engine self-profile: the simulated clock's wake-source
/// decomposition and loop-shape quantiles, then the host clock's sampled
/// per-component wall time.
fn engine_block(stats: &SimStats, eng: &EngineStats) -> String {
    let mut t = Table::new(vec!["wake source", "iterations", "share"]);
    let total = eng.wake_total().max(1);
    for src in WakeSource::ALL {
        let c = eng.wake_count(src);
        t.row(vec![src.name().to_string(), c.to_string(), pct(c as f64 / total as f64)]);
    }
    let mut h = Table::new(vec!["component", "host time", "share"]);
    let host_total = eng.host_total_ns().max(1);
    for (comp, &ns) in ENGINE_HOST_COMPONENTS.iter().zip(&eng.host_ns) {
        h.row(vec![
            comp.to_string(),
            format!("{:.3} ms", ns as f64 / 1e6),
            pct(ns as f64 / host_total as f64),
        ]);
    }
    format!(
        "engine self-profile\n{}\
         loop iterations: {} over {} cycles ({:.3} iters/cycle)\n\
         fast-forward jumps: {}\n\
         event-heap depth: {}\n\
         due events/cycle: {}\n\
         \nhost time by component ({} of {} iterations sampled, stride {})\n{}\
         dominant component: {}\n",
        t.render(),
        eng.loop_iterations,
        stats.cycles,
        eng.loop_iterations as f64 / stats.cycles.max(1) as f64,
        LatencyStats::quantile_line(&eng.jump_len),
        LatencyStats::quantile_line(&eng.heap_depth),
        LatencyStats::quantile_line(&eng.events_per_cycle),
        eng.host_samples,
        eng.loop_iterations,
        eng.host_sampling,
        h.render(),
        eng.dominant_component().unwrap_or("-"),
    )
}

/// TB lifecycle attribution: the four-way lifetime decomposition, the
/// bound/stolen child queue-wait split, queue wait by nesting depth, and
/// the launch-DAG critical path.
fn latency_block(lat: &LatencyStats) -> String {
    let mut t = Table::new(vec!["component", "quantiles"]);
    for (name, h) in [
        ("lifetime", &lat.lifetime),
        ("launch path", &lat.launch_path),
        ("  of which KMU wait", &lat.kmu_wait),
        ("queue wait", &lat.queue_wait),
        ("dispatch gap", &lat.dispatch_gap),
        ("exec", &lat.exec),
        ("child queue wait", &lat.child_queue_wait),
        ("  bound children", &lat.bound_queue_wait),
        ("  stolen children", &lat.stolen_queue_wait),
    ] {
        t.row(vec![name.to_string(), LatencyStats::quantile_line(h)]);
    }
    let mut d = Table::new(vec!["nesting depth", "TBs", "queue wait"]);
    for (depth, h) in &lat.depth_queue_wait {
        d.row(vec![depth.to_string(), h.count.to_string(), LatencyStats::quantile_line(h)]);
    }
    let cp = &lat.critical_path;
    format!(
        "latency attribution ({} TBs, {} partition violations, KMU depth high-water {})\n{}\
         \nqueue wait by nesting depth\n{}\
         \ncritical path: {} TBs, {} cycles ({} queue / {} exec, {:.1}% scheduling-induced)\n",
        lat.tbs,
        lat.partition_violations,
        lat.kmu_depth_hwm,
        t.render(),
        d.render(),
        cp.len,
        cp.cycles,
        cp.queue_cycles,
        cp.exec_cycles,
        100.0 * cp.queue_cycles as f64 / (cp.queue_cycles + cp.exec_cycles).max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use gpu_sim::program::KernelKindId;
    use gpu_sim::stats::{CriticalPath, TbRecord};
    use gpu_sim::types::{BatchId, Priority, SmxId, TbRef};

    #[test]
    fn mean_and_geomean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_handles_zero() {
        assert!(geomean(&[0.0, 1.0]) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn geomean_rejects_negative() {
        geomean(&[-1.0]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer-name", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer-name"));
        // The value column starts at the same offset in all data rows.
        let col = lines[3].find('2').unwrap();
        assert_eq!(lines[2].as_bytes()[col], b'1');
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains('x'));
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.384), "38.4%");
        assert_eq!(ratio(1.266), "1.27x");
    }

    #[test]
    fn mean_std_basics() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((s - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn bar_chart_scales_to_width() {
        let rows = vec![("a".to_string(), 1.0), ("bb".to_string(), 2.0)];
        let chart = bar_chart(&rows, 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].matches('#').count(), 5);
        assert_eq!(lines[1].matches('#').count(), 10);
        assert!(lines[1].starts_with("bb"));
    }

    #[test]
    fn bar_chart_handles_zero_max() {
        let rows = vec![("x".to_string(), 0.0)];
        assert!(bar_chart(&rows, 10).contains("0.00"));
    }

    fn tb(index: u32, dynamic: bool, created: u64, dispatched: u64, finished: u64) -> TbRecord {
        TbRecord {
            tb: TbRef { batch: BatchId(u32::from(dynamic)), index },
            kind: KernelKindId(u16::from(dynamic)),
            smx: SmxId(0),
            priority: Priority(u8::from(dynamic)),
            is_dynamic: dynamic,
            parent: dynamic.then_some((BatchId(0), 0, SmxId(0))),
            created_at: created,
            matured_at: created,
            schedulable_at: created,
            dispatched_at: dispatched,
            first_issue_at: dispatched,
            finished_at: finished,
        }
    }

    #[test]
    fn summary_mentions_every_headline_metric() {
        let stats = SimStats {
            cycles: 100,
            thread_instructions: 250,
            scheduler: "rr".to_string(),
            launch_model: "dtbl".to_string(),
            scheduler_counters: vec![("stage3_steals", 7)],
            launch_counters: vec![("dtbl_table_overflows", 3)],
            ..Default::default()
        };
        let s = run_summary(&stats);
        for needle in [
            "cycles",
            "IPC",
            "L1 hit rate",
            "stage3_steals",
            "dtbl_table_overflows  3",
            "2.50",
            "rr",
            "250 thread",
        ] {
            assert!(s.contains(needle), "summary missing {needle}:\n{s}");
        }
    }

    #[test]
    fn summary_quantiles_child_wait_and_residency() {
        let stats = SimStats {
            cycles: 100,
            tb_records: vec![tb(0, false, 0, 0, 50), tb(0, true, 10, 30, 60)],
            ..Default::default()
        };
        let s = run_summary(&stats);
        for needle in [
            "child wait            p50 20 / p95 20 / p99 20 / max 20 (mean 20.0, n=1)",
            "parent resident       p50 50 / p95 50 / p99 50 / max 50 (mean 50.0, n=1)",
            "child resident        p50 30 / p95 30 / p99 30 / max 30 (mean 30.0, n=1)",
        ] {
            assert!(s.contains(needle), "summary missing {needle}:\n{s}");
        }
    }

    #[test]
    fn summary_includes_locality_section_only_when_profiled() {
        let mut stats = SimStats::default();
        assert!(!run_summary(&stats).contains("locality provenance"));
        stats.l1.prov.by_class[ReuseClass::ParentChild.index()] = 7;
        stats.l2.prov.same_smx = 3;
        stats.l2.prov.cross_smx = 1;
        let mut loc = LocalityStats::default();
        loc.l1_reuse_dist[ReuseClass::ParentChild.index()].record(100);
        loc.l1_reuse_dist[ReuseClass::ParentChild.index()].record(300);
        loc.bind.bound_hits = 5;
        loc.bind.bound_parent_child = 4;
        stats.locality = Some(loc);
        let s = run_summary(&stats);
        for needle in [
            "locality provenance",
            "parent_child  7        100.0%    200 cyc",
            "L2 hits on installing SMX: 3 same, 1 cross",
            "bound 5 (4 parent-child, 80.0%)",
            "l1 parent_child  p50 127 / p95 300 / p99 300 / max 300 (mean 200.0, n=2)",
        ] {
            assert!(s.contains(needle), "summary missing {needle}:\n{s}");
        }
        assert!(!s.contains("l2 parent_child"), "empty reuse histograms get no row:\n{s}");
    }

    #[test]
    fn summary_includes_engine_section_only_when_profiled() {
        let mut stats = SimStats { cycles: 20, ..Default::default() };
        assert!(!run_summary(&stats).contains("engine self-profile"));
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
        let s = run_summary(&stats);
        for needle in [
            "component_tick        6           60.0%",
            "fast_forward_jump     2           20.0%",
            "loop iterations: 10 over 20 cycles (0.500 iters/cycle)",
            "fast-forward jumps: p50 3 / p95 128 / p99 128 / max 128 (mean 65.0, n=2)",
            "event-heap depth: p50 4 / p95 4 / p99 4 / max 4 (mean 4.0, n=1)",
            "due events/cycle: p50 0 / p95 0 / p99 0 / max 0 (mean 0.0, n=0)",
            "(3 of 10 iterations sampled",
            "smx                0.009 ms   100.0%",
            "dominant component: smx",
        ] {
            assert!(s.contains(needle), "summary missing {needle}:\n{s}");
        }
    }

    #[test]
    fn summary_includes_latency_section_only_when_profiled() {
        let mut stats = SimStats { cycles: 100, ..Default::default() };
        assert!(!run_summary(&stats).contains("critical path"));
        let mut lifetime = Pow2Hist::default();
        lifetime.record(64);
        stats.latency = Some(LatencyStats {
            lifetime,
            critical_path: CriticalPath { len: 2, cycles: 90, queue_cycles: 30, exec_cycles: 60 },
            ..Default::default()
        });
        let s = run_summary(&stats);
        for needle in [
            "lifetime             p50 64 / p95 64 / p99 64 / max 64 (mean 64.0, n=1)",
            "child queue wait",
            "critical path: 2 TBs, 90 cycles (30 queue / 60 exec, 33.3% scheduling-induced)",
        ] {
            assert!(s.contains(needle), "summary missing {needle}:\n{s}");
        }
    }

    #[test]
    fn summary_latency_block_reports_counters_and_queue_wait() {
        let mut lat = LatencyStats {
            tbs: 4,
            kmu_depth_hwm: 2,
            critical_path: CriticalPath {
                len: 2,
                cycles: 900,
                queue_cycles: 300,
                exec_cycles: 600,
            },
            ..Default::default()
        };
        lat.queue_wait.record(10);
        lat.queue_wait.record(600);
        lat.depth_queue_wait.push((1, lat.child_queue_wait));
        lat.depth_queue_wait[0].1.record(600);
        let stats = SimStats { cycles: 1000, latency: Some(lat), ..Default::default() };
        let s = run_summary(&stats);
        for needle in [
            "latency attribution (4 TBs, 0 partition violations, KMU depth high-water 2)",
            "max 600 (mean 305.0, n=2)",
            "exec                 p50 0 / p95 0 / p99 0 / max 0 (mean 0.0, n=0)",
            "queue wait by nesting depth",
            "1              1    p50 600",
            "critical path: 2 TBs, 900 cycles (300 queue / 600 exec, 33.3% scheduling-induced)",
        ] {
            assert!(s.contains(needle), "summary missing {needle}:\n{s}");
        }
    }
}
