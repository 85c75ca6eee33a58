//! CSV export of experiment results, for external plotting tools.

use crate::harness::RunRecord;

/// Escapes one CSV field (quotes fields containing separators).
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders run records as CSV with a header row.
pub fn runs_to_csv(records: &[RunRecord]) -> String {
    let mut out = String::from(
        "workload,launch_model,scheduler,cycles,ipc,l1_hit_rate,l2_hit_rate,\
         child_l1_hit_rate,mean_child_wait,parent_smx_affinity,smx_utilization,\
         load_imbalance,dynamic_tbs,total_tbs,steals,queue_overflows,table_overflows,\
         stall_scoreboard,stall_memory_pending,stall_mshr_full,stall_barrier,stall_no_tb,\
         stall_launch_path,host_ns,dominant_component,\
         child_queue_wait_p50,child_queue_wait_p99,critical_path_cycles\n",
    );
    for r in records {
        // The latency columns stay empty when the run was not profiled,
        // so unprofiled sweeps keep a stable shape without inventing
        // zero quantiles.
        let lat = r.latency.as_ref().map_or_else(
            || ",,".to_string(),
            |lat| {
                format!(
                    "{},{},{}",
                    lat.child_queue_wait.percentile(0.50),
                    lat.child_queue_wait.percentile(0.99),
                    lat.critical_path.cycles,
                )
            },
        );
        out.push_str(&format!(
            "{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.2},{:.6},{:.6},{:.6},{},{},{},{},{},\
             {},{},{},{},{},{},{},{},{}\n",
            field(&r.workload),
            field(&r.launch_model),
            field(&r.scheduler),
            r.cycles,
            r.ipc,
            r.l1_hit_rate,
            r.l2_hit_rate,
            r.child_l1_hit_rate,
            r.mean_child_wait,
            r.parent_smx_affinity,
            r.smx_utilization,
            r.load_imbalance,
            r.dynamic_tbs,
            r.total_tbs,
            r.steals,
            r.queue_overflows,
            r.table_overflows,
            r.stalls.scoreboard,
            r.stalls.memory_pending,
            r.stalls.mshr_full,
            r.stalls.barrier,
            r.stalls.no_tb,
            r.stalls.launch_path,
            r.host.ns,
            field(r.host.dominant_component.as_deref().unwrap_or("-")),
            lat,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            workload: "bfs,weird\"name".to_string(),
            launch_model: "dtbl".to_string(),
            scheduler: "rr".to_string(),
            cycles: 100,
            ipc: 1.5,
            l1_hit_rate: 0.5,
            l2_hit_rate: 0.75,
            child_l1_hit_rate: 0.25,
            mean_child_wait: 12.0,
            parent_smx_affinity: 0.1,
            smx_utilization: 0.9,
            load_imbalance: 1.1,
            dynamic_tbs: 3,
            total_tbs: 7,
            steals: 2,
            queue_overflows: 0,
            queue_pushes: 3,
            max_queue_depth: 2,
            queue_search_cycles: 9,
            table_overflows: 0,
            stalls: gpu_sim::stats::StallBreakdown {
                scoreboard: 40,
                memory_pending: 30,
                mshr_full: 10,
                barrier: 5,
                no_tb: 15,
                launch_path: 0,
            },
            locality: None,
            engine: None,
            latency: None,
            host: crate::harness::HostCost { ns: 1_500_000, dominant_component: None },
        }
    }

    #[test]
    fn runs_csv_has_header_and_rows() {
        let csv = runs_to_csv(&[record()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("workload,launch_model,scheduler,cycles"));
        assert!(lines[0].ends_with(
            "dominant_component,child_queue_wait_p50,child_queue_wait_p99,critical_path_cycles"
        ));
        assert!(lines[1].contains(",dtbl,rr,100,1.5"));
        // Host cost precedes the latency columns; an unprofiled run's
        // dominant component renders as "-" and the latency columns
        // stay empty.
        assert!(lines[1].ends_with(",1500000,-,,,"));
    }

    #[test]
    fn dominant_component_column_carries_profiled_value() {
        let mut r = record();
        r.host.dominant_component = Some("smx".to_string());
        let csv = runs_to_csv(&[r]);
        assert!(csv.lines().nth(1).is_some_and(|l| l.ends_with(",1500000,smx,,,")));
    }

    #[test]
    fn latency_columns_carry_quantiles_when_profiled() {
        let mut r = record();
        let mut child_queue_wait = gpu_sim::stats::Pow2Hist::default();
        for v in [4, 5, 6, 200] {
            child_queue_wait.record(v);
        }
        r.latency = Some(gpu_sim::stats::LatencyStats {
            child_queue_wait,
            critical_path: gpu_sim::stats::CriticalPath { cycles: 950, ..Default::default() },
            ..Default::default()
        });
        let csv = runs_to_csv(&[r]);
        let p50 = 7; // bucket [4,7] upper bound
        let p99 = 200; // top bucket clamped to the observed max
        assert!(csv.lines().nth(1).is_some_and(|l| l.ends_with(&format!(",{p50},{p99},950"))));
    }

    #[test]
    fn fields_with_separators_are_quoted() {
        let csv = runs_to_csv(&[record()]);
        assert!(csv.contains("\"bfs,weird\"\"name\""));
    }

    #[test]
    fn empty_inputs_give_header_only() {
        assert_eq!(runs_to_csv(&[]).lines().count(), 1);
    }
}
