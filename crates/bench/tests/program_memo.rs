//! The sweep executor's per-workload program memo: each distinct TB
//! program is materialized once per workload and shared by the
//! workload's cells, and sharing it changes no record.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use gpu_sim::program::{KernelKindId, ProgramSource, TbProgram};
use laperm_bench::resilience::{HarnessFault, HarnessFaultPlan};
use laperm_bench::sweep::{
    matrix_cells_for, run_matrix_cells, suite_for_path, sweep_config, MatrixCell,
};
use laperm_bench::{run_matrix_cells_resilient, ProgramPath, Resilience};
use sim_metrics::harness::{run_once, RunRecord};
use workloads::{HostKernel, Scale, Workload};

/// A workload that counts how often each program is materialized.
struct Counting {
    inner: Arc<dyn Workload>,
    calls: Mutex<HashMap<(KernelKindId, u64, u32), u64>>,
}

impl ProgramSource for Counting {
    fn tb_program(&self, kind: KernelKindId, param: u64, tb: u32) -> TbProgram {
        *self.calls.lock().unwrap().entry((kind, param, tb)).or_default() += 1;
        self.inner.tb_program(kind, param, tb)
    }
}

impl Workload for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input(&self) -> String {
        self.inner.input()
    }

    fn host_kernels(&self) -> Vec<HostKernel> {
        self.inner.host_kernels()
    }
}

fn suite(path: ProgramPath) -> Vec<Arc<dyn Workload>> {
    // Two workloads keep debug-build runtimes low: one with gathers and
    // nested launches, one strided.
    suite_for_path(Scale::Tiny, 0, path)
        .unwrap()
        .into_iter()
        .filter(|w| ["bfs-citation", "join-uniform"].contains(&w.full_name().as_str()))
        .collect()
}

/// Every cell run on its own through the harness, without a memo.
fn memo_less(cells: &[MatrixCell]) -> Vec<RunRecord> {
    let cfg = sweep_config(gpu_sim::config::EngineMode::Event, false);
    cells
        .iter()
        .map(|c| run_once(&c.workload, c.model, c.scheduler, &cfg).unwrap())
        .map(zero_host)
        .collect()
}

fn zero_host(mut record: RunRecord) -> RunRecord {
    record.host.ns = 0;
    record
}

#[test]
fn each_distinct_program_is_materialized_once_per_workload() {
    let counting = Arc::new(Counting {
        inner: suite(ProgramPath::Generator)[0].clone(),
        calls: Mutex::new(HashMap::new()),
    });
    let workload: Arc<dyn Workload> = counting.clone();
    let cells = matrix_cells_for(&[workload]);
    let cfg = sweep_config(gpu_sim::config::EngineMode::Event, false);
    let (outcome, report) =
        run_matrix_cells_resilient(&cells, 1, &cfg, "tiny/0", &Resilience::default()).unwrap();
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let calls = counting.calls.lock().unwrap();
    assert!(calls.values().all(|&n| n == 1), "a program was materialized twice");
    assert_eq!(report.programs_built, calls.len() as u64);
    // Every dispatched TB of every cell was served by the memo.
    let dispatched: usize = outcome.records.iter().map(|r| r.total_tbs).sum();
    assert_eq!(report.programs_served, dispatched as u64);
    assert!(report.programs_served >= 8 * report.programs_built);
}

#[test]
fn memo_records_match_memo_less_runs_on_both_paths_and_job_counts() {
    let cfg = sweep_config(gpu_sim::config::EngineMode::Event, false);
    for path in [ProgramPath::Generator, ProgramPath::Dsl] {
        let cells = matrix_cells_for(&suite(path));
        let expected = memo_less(&cells);
        for jobs in [1, 2] {
            let outcome = run_matrix_cells(&cells, jobs, &cfg);
            assert!(outcome.failures.is_empty(), "{path:?}: {:?}", outcome.failures);
            let records: Vec<RunRecord> = outcome.records.into_iter().map(zero_host).collect();
            assert_eq!(records, expected, "{path:?} at --jobs {jobs}");
        }
    }
}

#[test]
fn retried_cells_still_match_memo_less_runs() {
    let cfg = sweep_config(gpu_sim::config::EngineMode::Event, false);
    let cells = matrix_cells_for(&suite(ProgramPath::Generator)[..1]);
    // Cell 1 panics once before simulating; cell 2 wedges once (every
    // SMX killed). Both retries draw on the memo the other cells fill.
    let res = Resilience {
        retries: 1,
        faults: Some(HarnessFaultPlan::new(vec![
            HarnessFault::PanicCell { cell: 1, attempts: 1 },
            HarnessFault::WedgeCell { cell: 2, attempts: 1 },
        ])),
        ..Resilience::default()
    };
    for jobs in [1, 2] {
        let (outcome, report) =
            run_matrix_cells_resilient(&cells, jobs, &cfg, "tiny/0", &res).unwrap();
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert_eq!(report.retried_attempts, 2);
        let records: Vec<RunRecord> = outcome.records.into_iter().map(zero_host).collect();
        assert_eq!(records, memo_less(&cells), "--jobs {jobs}");
    }
}
