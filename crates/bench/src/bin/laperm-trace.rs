//! Single-run simulator CLI: run one (workload × launch model ×
//! scheduler) simulation with every profiler on, print the run summary,
//! and write a Chrome `trace_event` JSON document loadable in
//! <https://ui.perfetto.dev>.
//!
//! ```text
//! laperm-trace [options]
//!   --workload <name>      suite workload (default bfs-citation); "list" to enumerate
//!   --scheduler <name>     rr | tb-pri | smx-bind | adaptive-bind | random (default adaptive-bind)
//!   --model <name>         cdp | dtbl (default dtbl)
//!   --scale <name>         tiny | ci | small | paper (default small)
//!   --seed <n>             input seed (default 0)
//!   --smxs <n>             override SMX count
//!   --l1-kb <n>            override L1 size per SMX
//!   --l2-kb <n>            override total L2 size
//!   --launch-latency <n>   override base launch latency in cycles
//!   --out <path>           output file (default trace.json)
//!   --sample-every <n>     IPC counter sampling window in cycles (default 1000, 0 = off)
//!   --check                validate the document and exit non-zero on violation
//! ```
//!
//! The run always profiles cache-hit provenance, the engine (both
//! clocks) and TB lifecycle latency. Profiling only observes: the
//! simulated cycles are those of an unprofiled run. The summary is
//! [`sim_metrics::report::run_summary`] followed by a per-kernel-kind
//! breakdown; the trace carries every event, the provenance counters,
//! the engine's host-time spans and the launch-DAG critical path as
//! flow arrows.
//!
//! Argument parsing is strict: any token that is not a recognized flag
//! (or a recognized flag's value) exits 2 listing the valid flags (see
//! `laperm_bench::cli`).

use dynpar::LaunchLatency;
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::trace::VecSink;
use laperm_bench::cli::{build_scheduler, fail, Args, RUN_FLAGS};
use sim_metrics::report::run_summary;
use sim_metrics::{perfetto_json, validate_trace};
use workloads::SharedSource;

/// Value flags beyond the shared single-run ones.
const VALUE_FLAGS: [&str; 5] =
    ["--l1-kb", "--l2-kb", "--launch-latency", "--out", "--sample-every"];

fn main() {
    let args = Args::from_env(&[&RUN_FLAGS[..], &VALUE_FLAGS].concat(), &["--check"], 0);
    let model = args.model();
    let sample_every = args.num("--sample-every", u64::MAX).unwrap_or(1000);
    let out = args.value("--out").unwrap_or("trace.json");
    let mut cfg = GpuConfig::kepler_k20c();
    cfg.profile_locality = true;
    cfg.profile_engine = true;
    cfg.profile_latency = true;
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
        .with_launch_model(model.build(latency))
        .with_trace(Box::new(sink.clone()));
    for hk in workload.host_kernels() {
        if let Err(e) = sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req) {
            eprintln!("launch failed: {e}");
            std::process::exit(1);
        }
    }

    // Step manually so the machine can be sampled for the IPC counter
    // track. `step` runs the configured engine (the event engine by
    // default, as `repro` does); a jump just lands past the next
    // sampling boundary.
    let mut samples = Vec::new();
    if sample_every > 0 {
        samples.push(sim.sample());
    }
    let mut next_sample = sample_every;
    while !sim.is_done() {
        if let Err(e) = sim.step() {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
        if sample_every > 0 && sim.cycle() >= next_sample {
            samples.push(sim.sample());
            next_sample = sim.cycle() + sample_every;
        }
        if sim.cycle() > cfg.max_cycles {
            eprintln!("simulation exceeded {} cycles", cfg.max_cycles);
            std::process::exit(1);
        }
    }
    let stats = sim.stats();
    let records = sink.records();

    let json = perfetto_json(&records, &stats, &samples, cfg.num_smxs);
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("cannot write {}: {e}", out);
        std::process::exit(1);
    }

    println!(
        "{} | {} | {} | {} SMXs | seed {}",
        workload.full_name(),
        model,
        stats.scheduler,
        cfg.num_smxs,
        args.seed()
    );
    println!(
        "{} cycles, {} trace events, {} TB records -> {} ({} bytes)",
        stats.cycles,
        records.len(),
        stats.tb_records.len(),
        out,
        json.len()
    );

    match validate_trace(&json) {
        Ok(check) => println!(
            "validated: {} events, {} SMX tracks, {} spans, {} counter samples \
             ({} provenance), {} instants, {} host spans, {} critical-path flows",
            check.events,
            check.smx_tracks,
            check.spans,
            check.counters,
            check.prov_counters,
            check.instants,
            check.host_spans,
            check.flows
        ),
        Err(e) => {
            eprintln!("trace validation failed: {e}");
            if args.has("--check") {
                std::process::exit(1);
            }
        }
    }

    print!("\n{}", run_summary(&stats));
    println!("\nper-kernel-kind breakdown:");
    for (kind, count, mean_resident) in stats.per_kind_summary() {
        println!(
            "  {:<16} {:>6} TBs, mean resident {:.0} cycles",
            workload.kind_name(kind),
            count,
            mean_resident
        );
    }
}
