//! Single-run simulator CLI: pick a workload, launch model, scheduler,
//! and hardware knobs, and get a full run report.
//!
//! ```text
//! laperm-sim [options]
//!   --workload <name>      suite workload (default bfs-citation); "list" to enumerate
//!   --scheduler <name>     rr | tb-pri | smx-bind | adaptive-bind | random (default adaptive-bind)
//!   --model <name>         cdp | dtbl (default dtbl)
//!   --scale <name>         tiny | ci | small | paper (default small)
//!   --seed <n>             input seed (default 0)
//!   --smxs <n>             override SMX count
//!   --l1-kb <n>            override L1 size per SMX
//!   --l2-kb <n>            override total L2 size
//!   --launch-latency <n>   override base launch latency in cycles
//!   --trace                print the first scheduling events
//! ```
//!
//! Any other token exits 2 (see `laperm_bench::cli`).

use dynpar::LaunchLatency;
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::trace::{render, VecSink};
use laperm_bench::cli::{build_scheduler, fail, Args, RUN_FLAGS};
use workloads::SharedSource;

fn main() {
    let value_flags = [&RUN_FLAGS[..], &["--l1-kb", "--l2-kb", "--launch-latency"]].concat();
    let args = Args::from_env(&value_flags, &["--trace"], 0);
    let model = args.model();
    let mut cfg = GpuConfig::kepler_k20c();
    if let Some(n) = args.smxs() {
        cfg.num_smxs = n;
    }
    // Cache sizes are `u32` byte counts.
    let kib = |flag| args.num::<u32>(flag, (u32::MAX / 1024).into()).map(|kb| kb * 1024);
    if let Some(bytes) = kib("--l1-kb") {
        cfg.l1_bytes = bytes;
    }
    if let Some(bytes) = kib("--l2-kb") {
        cfg.l2_bytes = bytes;
    }
    let latency = match args.num("--launch-latency", u32::MAX.into()) {
        Some(base) => LaunchLatency::uniform(base),
        None => LaunchLatency::default_for(model),
    };
    let Some(workload) = args.workload() else { return };
    if let Err(e) = cfg.validate() {
        fail(format!("invalid configuration: {e}"));
    }

    let sink = VecSink::new();
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(workload.clone())))
        .with_scheduler(build_scheduler(args.scheduler(), &cfg))
        .with_launch_model(model.build(latency));
    if args.has("--trace") {
        sim = sim.with_trace(Box::new(sink.clone()));
    }
    for hk in workload.host_kernels() {
        if let Err(e) = sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req) {
            eprintln!("launch failed: {e}");
            std::process::exit(1);
        }
    }
    let stats = match sim.run_to_completion() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{} | {} | {} | {} SMXs | seed {}",
        workload.full_name(),
        model,
        stats.scheduler,
        cfg.num_smxs,
        args.seed()
    );
    print!("{}", stats.summary());
    println!("\nper-kernel-kind breakdown:");
    for (kind, count, mean_resident) in stats.per_kind_summary() {
        println!(
            "  {:<16} {:>6} TBs, mean resident {:.0} cycles",
            workload.kind_name(kind),
            count,
            mean_resident
        );
    }
    if args.has("--trace") {
        let records = sink.records();
        println!("\nfirst scheduling events:");
        print!("{}", render(&records[..records.len().min(30)]));
    }
}
