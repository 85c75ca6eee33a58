//! Launch-latency sensitivity (paper Section IV-D).
//!
//! LaPerm assumes child TBs can start soon after their direct parent; a
//! slow launch path erodes the exploitable temporal locality. This
//! example sweeps a uniform launch latency and reports the Adaptive-Bind
//! gain over the baseline at each point.
//!
//! Usage: `cargo run --release --example launch_latency [workload]`

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::GpuConfig;
use laperm_bench::sweep::{default_jobs, run_matrix_cells, MatrixCell};
use sim_metrics::harness::SchedulerKind;
use sim_metrics::report::Table;
use workloads::{suite, Scale};

fn main() {
    let target = std::env::args().nth(1).unwrap_or_else(|| "sssp-cage15".to_string());
    let all = suite(Scale::Small);
    let workload = all.iter().find(|w| w.full_name() == target).unwrap_or_else(|| {
        eprintln!("unknown workload {target}");
        std::process::exit(1);
    });

    println!("workload: {}, DTBL delivery, small scale\n", workload.full_name());
    // One sweep cell per latency point and scheduler, RR then Adaptive-Bind.
    let bases = [0u32, 250, 1000, 4000, 16000, 64000];
    let cells: Vec<MatrixCell> = bases
        .iter()
        .flat_map(|&base| {
            [SchedulerKind::RoundRobin, SchedulerKind::AdaptiveBind].map(|s| MatrixCell {
                latency: Some(LaunchLatency::uniform(base)),
                ..MatrixCell::new(workload.clone(), LaunchModelKind::Dtbl, s)
            })
        })
        .collect();
    let outcome = run_matrix_cells(&cells, default_jobs(), &GpuConfig::kepler_k20c());
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let mut t = Table::new(vec!["latency (cycles)", "rr IPC", "adaptive IPC", "gain"]);
    for (base, pair) in bases.iter().zip(outcome.records.chunks(2)) {
        let (rr, ad) = (&pair[0], &pair[1]);
        t.row(vec![
            base.to_string(),
            format!("{:.1}", rr.ipc),
            format!("{:.1}", ad.ipc),
            format!("{:.2}x", ad.ipc / rr.ipc),
        ]);
    }
    println!("{}", t.render());
    println!("The locality advantage decays as launches get slower (Section IV-D).");
}
