//! Perfetto trace exporter CLI: run one (workload × launch model ×
//! scheduler) simulation with full tracing and write a Chrome
//! `trace_event` JSON document loadable in <https://ui.perfetto.dev>.
//!
//! ```text
//! laperm-trace [options]
//!   --workload <name>      suite workload (default bfs-citation); "list" to enumerate
//!   --scheduler <name>     rr | tb-pri | smx-bind | adaptive-bind | random (default adaptive-bind)
//!   --model <name>         cdp | dtbl (default dtbl)
//!   --scale <name>         tiny | ci | small | paper (default small)
//!   --seed <n>             input seed (default 0)
//!   --smxs <n>             override SMX count
//!   --out <path>           output file (default trace.json)
//!   --sample-every <n>     IPC counter sampling window in cycles (default 1000, 0 = off)
//!   --check                validate the document and exit non-zero on violation
//!   --metrics              also print the run's metrics registry
//!   --locality             profile cache-hit provenance; print the per-class reuse summary
//!   --engine-profile       profile the engine; print the two-clock self-profile summary
//!   --latency              profile TB lifecycle latency; print the attribution summary and
//!                          draw the launch-DAG critical path as flow arrows in the trace
//! ```
//!
//! Argument parsing is strict: any token that is not a recognized flag
//! (or a recognized flag's value) is a hard error listing the valid
//! flags. A typo'd or `--flag=value`-style argument therefore
//! fails loudly instead of silently running with defaults.
//!
//! A profiler summary whose statistics are missing from the finished
//! run is likewise a hard error, never an empty table: an empty table
//! is indistinguishable from a measured zero.

use dynpar::LaunchLatency;
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::trace::VecSink;
use laperm_bench::cli::{build_scheduler, fail, Args, RUN_FLAGS};
use sim_metrics::{perfetto_json, registry_for_run, validate_trace};
use workloads::SharedSource;

/// Boolean flags.
const BOOL_FLAGS: [&str; 5] =
    ["--check", "--metrics", "--locality", "--engine-profile", "--latency"];

fn main() {
    let args =
        Args::from_env(&[&RUN_FLAGS[..], &["--out", "--sample-every"]].concat(), &BOOL_FLAGS, 0);
    let model = args.model();
    let sample_every = args.num("--sample-every", u64::MAX).unwrap_or(1000);
    let out = args.value("--out").unwrap_or("trace.json");
    let mut cfg = GpuConfig::kepler_k20c();
    cfg.profile_locality = args.has("--locality");
    cfg.profile_engine = args.has("--engine-profile");
    cfg.profile_latency = args.has("--latency");
    if let Some(n) = args.smxs() {
        cfg.num_smxs = n;
    }
    let Some(workload) = args.workload() else { return };
    if let Err(e) = cfg.validate() {
        fail(format!("invalid configuration: {e}"));
    }

    let sink = VecSink::new();
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(workload.clone())))
        .with_scheduler(build_scheduler(args.scheduler(), &cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)))
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
             ({} provenance), {} instants, {} critical-path flows",
            check.events,
            check.smx_tracks,
            check.spans,
            check.counters,
            check.prov_counters,
            check.instants,
            check.flows
        ),
        Err(e) => {
            eprintln!("trace validation failed: {e}");
            if args.has("--check") {
                std::process::exit(1);
            }
        }
    }

    if args.has("--metrics") {
        let registry = registry_for_run(&stats, &records);
        print!("\n{}", registry.render());
    }

    if cfg.profile_locality {
        match locality_summary(&stats) {
            Some(s) => print!("\n{s}"),
            None => missing_profile("--locality", "locality"),
        }
    }

    if cfg.profile_engine {
        match engine_summary(&stats) {
            Some(s) => print!("\n{s}"),
            None => missing_profile("--engine-profile", "engine"),
        }
    }

    if cfg.profile_latency {
        match latency_summary(&stats) {
            Some(s) => print!("\n{s}"),
            None => missing_profile("--latency", "latency"),
        }
    }
}

/// A profiler summary was requested but the finished run carries no
/// such statistics. Hard-error instead of printing an empty table: an
/// empty table reads as a measured zero, and profiling cannot be
/// recovered after the run — it must be enabled on the simulation
/// config before it executes.
fn missing_profile(flag: &str, what: &str) -> ! {
    eprintln!(
        "{flag} was given but the run produced no {what} statistics; \
         the simulation config did not enable the {what} profiler. \
         Rerun with {flag} on a build whose config honors it \
         (profiling cannot be reconstructed from a finished run)."
    );
    std::process::exit(1);
}

/// Renders the two-clock engine self-profile: the simulated clock's
/// wake-source decomposition and loop-shape histograms, then the host
/// clock's sampled per-component wall time. `None` when the run did
/// not profile the engine (the caller hard-errors).
fn engine_summary(stats: &gpu_sim::stats::SimStats) -> Option<String> {
    use gpu_sim::stats::{WakeSource, ENGINE_HOST_COMPONENTS};
    use sim_metrics::report::Table;
    let eng = stats.engine.as_ref()?;
    let mut t = Table::new(vec!["wake source", "iterations", "share"]);
    let total = eng.wake_total().max(1);
    for src in WakeSource::ALL {
        let c = eng.wake_count(src);
        t.row(vec![
            src.name().to_string(),
            c.to_string(),
            format!("{:.1}%", 100.0 * c as f64 / total as f64),
        ]);
    }
    let mut out = format!(
        "engine self-profile\n{}\
         loop iterations: {} over {} cycles ({:.3} iters/cycle)\n\
         fast-forward jumps: {} (mean {:.1} cycles, max {})\n\
         event-heap depth: mean {:.1}, max {}\n",
        t.render(),
        eng.loop_iterations,
        stats.cycles,
        eng.loop_iterations as f64 / (stats.cycles.max(1)) as f64,
        eng.jump_len.count,
        eng.jump_len.mean(),
        eng.jump_len.max,
        eng.heap_depth.mean(),
        eng.heap_depth.max,
    );
    let mut h = Table::new(vec!["component", "host time", "share"]);
    let host_total = eng.host_total_ns().max(1);
    for (i, comp) in ENGINE_HOST_COMPONENTS.iter().enumerate() {
        let ns = eng.host_ns[i];
        h.row(vec![
            comp.to_string(),
            format!("{:.3} ms", ns as f64 / 1e6),
            format!("{:.1}%", 100.0 * ns as f64 / host_total as f64),
        ]);
    }
    out.push_str(&format!(
        "\nhost time by component ({} of {} iterations sampled, stride {})\n{}\
         dominant component: {}\n",
        eng.host_samples,
        eng.loop_iterations,
        eng.host_sampling,
        h.render(),
        eng.dominant_component().unwrap_or("-"),
    ));
    Some(out)
}

/// Renders the TB lifecycle attribution summary: the four-way lifetime
/// decomposition, the bound/stolen child queue-wait split, queue wait
/// by nesting depth, and the launch-DAG critical path. `None` when the
/// run did not profile latency (the caller hard-errors).
fn latency_summary(stats: &gpu_sim::stats::SimStats) -> Option<String> {
    use gpu_sim::stats::LatencyStats;
    use sim_metrics::report::Table;
    let lat = stats.latency.as_ref()?;
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
    Some(format!(
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
    ))
}

/// Renders the per-class reuse summary for a profiled run: hit counts
/// and shares per lineage class at each cache level, mean reuse
/// distances, plus the L2 same/cross-SMX and bound/stolen splits.
/// `None` when the run did not profile locality (the caller
/// hard-errors).
fn locality_summary(stats: &gpu_sim::stats::SimStats) -> Option<String> {
    use gpu_sim::cache::ReuseClass;
    use sim_metrics::report::Table;
    let loc = stats.locality.as_ref()?;
    let mut t = Table::new(vec![
        "reuse class",
        "l1 hits",
        "l1 share",
        "l1 dist",
        "l2 hits",
        "l2 share",
        "l2 dist",
    ]);
    for class in ReuseClass::ALL {
        let i = class.index();
        t.row(vec![
            class.name().to_string(),
            stats.l1.prov.class(class).to_string(),
            format!("{:.1}%", 100.0 * stats.l1.prov.share(class)),
            format!("{:.0} cyc", loc.l1_reuse_dist[i].mean()),
            stats.l2.prov.class(class).to_string(),
            format!("{:.1}%", 100.0 * stats.l2.prov.share(class)),
            format!("{:.0} cyc", loc.l2_reuse_dist[i].mean()),
        ]);
    }
    Some(format!(
        "locality provenance\n{}\
         L2 hits on installing SMX: {} same, {} cross\n\
         child L1 hits: bound {} ({:.1}% parent-child), stolen {} ({:.1}% parent-child)\n",
        t.render(),
        stats.l2.prov.same_smx,
        stats.l2.prov.cross_smx,
        loc.bind.bound_hits,
        100.0 * loc.bind.bound_share(),
        loc.bind.stolen_hits,
        100.0 * loc.bind.stolen_share(),
    ))
}
