//! Regenerates the LaPerm paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale tiny|ci|small|paper] [--jobs N] [--json FILE]
//!                    [--engine event|cycle-stepped] [--programs generator|dsl]
//!                    [--cache-dir DIR] [--retries N] [--cell-deadline CYCLES]
//!                    [--retry-backoff-ms MS]
//! repro check [--json FILE]
//! repro dsl FILE.dsl [--jobs N]
//!
//! experiments:
//!   table1    GPU configuration (Table I)
//!   table2    benchmark inventory (Table II)
//!   fig2      shared footprint ratios (Figure 2)
//!   fig4      scheduling walk-through placements (Figure 4)
//!   fig7      L2 hit rates (Figure 7)     — runs the full matrix
//!   fig8      L1 hit rates (Figure 8)     — runs the full matrix
//!   fig9      normalized IPC (Figure 9)   — runs the full matrix
//!   locality  cache-hit provenance by lineage class — runs the full matrix
//!   latency   launch-latency sensitivity (Section IV-D), then TB
//!             lifecycle attribution and the launch-DAG critical path
//!             over a latency-profiled rerun of the matrix
//!   timeline  windowed IPC/L1 over one run, RR vs Adaptive-Bind
//!   variance  headline gain over several input seeds (mean ± std)
//!   csv       full run matrix as CSV on stdout (for plotting)
//!   cache     L1/L2 capacity sensitivity (paper's future work)
//!   saturation IPC vs DTBL aggregation-table size per scheduler
//!   generality Kepler vs Maxwell-like architecture
//!   overhead  queue hardware overheads (Section IV-E)
//!   ablate    design-choice ablations
//!   all       everything above; also writes the repro.json artifact
//!   profile   rerun the matrix with engine introspection on; prints the
//!             wake-source decomposition and writes a profiled document
//!             (default repro_profile.json, never clobbering repro.json)
//!   check     evaluate the shape assertions against repro.json and
//!             exit nonzero on any violation (the CI reproduction gate);
//!             point it at repro_profile.json to bind the engine shapes
//!   dsl       compile a workload-DSL file and run it under every
//!             launch model × scheduler on the Table I machine
//! ```
//!
//! `--jobs N` fans independent simulations over N worker threads
//! (default: all cores). Output is bit-identical for any N; only the
//! stderr progress interleaving differs.
//!
//! The matrix subcommands — `all`, `fig7`, `fig8`, `fig9`, `locality`,
//! `csv`, `profile` and `latency` — run the evaluation matrix through
//! one resilient sweep, so the sweep flags below apply to every one of
//! them.
//!
//! `--engine` selects the simulation engine (default: `event`, the
//! discrete-event engine that skips idle cycles; `cycle-stepped` is the
//! reference linear scan that steps every SMX on every cycle and never
//! skips one). The CI `engine-equivalence` job runs `all` once per
//! engine and diffs the two `repro.json` documents byte-for-byte.
//!
//! `--programs` selects the program-generation path (default:
//! generator). `dsl` serves every suite workload from its DSL port
//! compiled to bytecode; programs are byte-identical across paths, so
//! the CI `dsl-differential` job runs `all` once per path and diffs the
//! two `repro.json` documents byte-for-byte.
//!
//! Resilience flags (see docs/ARCHITECTURE.md, "Resilient sweeps"):
//! `--cache-dir DIR` persists every completed cell to a checksummed
//! journal and resumes from it (a crashed sweep recomputes only what it
//! lost; corrupt or torn records are detected and recomputed, never
//! served); `--retries N` retries a failed cell with deterministic
//! exponential backoff (`--retry-backoff-ms`, default 100) before
//! recording a permanent failure; `--cell-deadline CYCLES` caps each
//! cell's forward-progress watchdog window. A partial sweep prints a
//! `FAILED` line per failed cell on stderr, renders a `DEGRADED (k/N
//! cells failed)` banner and failures table ahead of the report over
//! the surviving cells, and exits 1. Without `--cache-dir`, output is
//! byte-identical to the resilience-free executor. The undocumented
//! `--kill-after-cells N` hard-kills the process after N cells are
//! committed to the cache — the CI `sweep-resilience` job's crash
//! injection.
//!
//! An unknown experiment, or a flag value outside its valid set
//! (`--scale`, `--engine`, `--programs`, a non-integer count), exits 2
//! naming the valid choices, as does a sweep that cannot start (a DSL
//! port that fails to compile, an unusable `--cache-dir`).
//!
//! `repro check` exit codes: 0 every assertion passed; 1 assertion
//! violation(s) on a healthy document; 2 degraded input (the document
//! carries failed cells — assertions ran over survivors only); 3 the
//! document is unreadable, corrupt, or schema-incompatible.

#![deny(clippy::unwrap_used)]

use std::sync::Arc;

use gpu_sim::config::{EngineMode, GpuConfig};
use laperm_bench::sweep::{
    footprint_analyses, matrix_cells_for, run_matrix_cells, sweep_config, FootprintRow,
};
use laperm_bench::{
    ablate, check_document, default_jobs, fig2, fig7, fig8, fig9, figure4, full_report, generality,
    latency_report, locality, overhead, profile, render_check_report, saturation, suite_for_path,
    sweep_cache, table1, table2, timeline, variance, CheckVerdict, MatrixRecords, ProgramPath,
    Resilience, SweepDoc,
};
use sim_metrics::FootprintAnalysis;
use wdsl::{CompiledWorkload, ExecMode};
use workloads::{Scale, Workload};

struct Args {
    experiment: String,
    /// Positional operand after the experiment (`repro dsl FILE`).
    operand: Option<String>,
    scale: Scale,
    jobs: usize,
    json_path: Option<String>,
    engine: EngineMode,
    programs: ProgramPath,
    resilience: Resilience,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args.first().map(String::as_str).unwrap_or("all").to_string();
    let operand = args.get(1).filter(|a| !a.starts_with('-')).cloned();
    let value_of = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let scale = match value_of("--scale") {
        Some("tiny") => Scale::Tiny,
        Some("ci") => Scale::Ci,
        Some("small") => Scale::Small,
        Some("paper") | None => Scale::Paper,
        Some(other) => {
            eprintln!("unknown scale {other}; choose tiny, ci, small or paper");
            std::process::exit(2);
        }
    };
    let jobs = match value_of("--jobs") {
        Some(n) => n.parse().unwrap_or_else(|_| {
            eprintln!("--jobs expects a positive integer, got {n}");
            std::process::exit(2);
        }),
        None => default_jobs(),
    };
    let json_path = value_of("--json").map(String::from);
    let engine = match value_of("--engine") {
        Some("cycle-stepped") => EngineMode::CycleStepped,
        Some("event") | None => EngineMode::Event,
        Some(other) => {
            eprintln!(
                "unknown engine {other}; choose event (skips idle cycles) or \
                 cycle-stepped (never-skipping reference)"
            );
            std::process::exit(2);
        }
    };
    let programs = match value_of("--programs") {
        None => ProgramPath::Generator,
        Some(s) => ProgramPath::parse(s).unwrap_or_else(|| {
            eprintln!("unknown program path {s}; choose generator or dsl");
            std::process::exit(2);
        }),
    };
    let int_flag = |flag: &str| -> Option<u64> {
        value_of(flag).map(|n| {
            n.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a non-negative integer, got {n}");
                std::process::exit(2);
            })
        })
    };
    let resilience = Resilience {
        cache_dir: value_of("--cache-dir").map(std::path::PathBuf::from),
        retries: int_flag("--retries").map(|n| n as u32).unwrap_or(0),
        backoff_ms: int_flag("--retry-backoff-ms").unwrap_or(100),
        cell_deadline: int_flag("--cell-deadline"),
        kill_after_cells: int_flag("--kill-after-cells"),
        faults: None,
        sim_fault_seed: None,
    };
    Args { experiment, operand, scale, jobs, json_path, engine, programs, resilience }
}

/// Runs a matrix subcommand: sweeps the evaluation matrix through the
/// resilient executor `repro all` uses (honouring `--engine`,
/// `--programs` and the resilience flags), writes the document to
/// `json` when given, and prints `render`'s report over the completed
/// records and Figure 2's footprint analyses (computed once, for the
/// document, only when `json` is given; empty otherwise). `profiled`
/// turns on engine introspection and latency attribution. Failed cells
/// print as `FAILED` lines and a `DEGRADED` banner ahead of the report,
/// then the process exits 1.
fn run_matrix_command(
    args: &Args,
    profiled: bool,
    json: Option<&str>,
    render: impl FnOnce(&MatrixRecords, &[FootprintAnalysis]) -> String,
) {
    let fatal = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let suite = suite_for_path(args.scale, 0, args.programs).unwrap_or_else(|e| fatal(e));
    let cfg = sweep_config(args.engine, profiled);
    let (mut doc, report) =
        SweepDoc::build_matrix(args.scale, 0, args.jobs, &cfg, &suite, &args.resilience)
            .unwrap_or_else(|e| fatal(e));
    // Only the written document carries Figure 2's footprint rows.
    let mut footprints = Vec::new();
    if let Some(path) = json {
        footprints = footprint_analyses(&suite, args.jobs);
        doc.footprints = footprints.iter().map(FootprintRow::from).collect();
        std::fs::write(path, doc.to_json())
            .unwrap_or_else(|e| fatal(format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if args.resilience.cache_dir.is_some() {
        if let Some(damage) = &report.journal_damage {
            eprintln!("cell journal damage repaired: {damage}; dropped records were recomputed");
        }
        eprintln!(
            "cell cache: {} hits, {} misses, {} committed this run",
            report.cache_hits, report.cache_misses, report.committed
        );
    }
    eprintln!("programs: {} built, {} served", report.programs_built, report.programs_served);
    for f in &doc.failures {
        eprintln!("FAILED {}/{}/{}: {}", f.workload, f.launch_model, f.scheduler, f.error);
    }
    // A partial sweep degrades instead of aborting: the banner and
    // failures table lead the report, the surviving cells still render.
    let banner = doc.degraded_banner();
    if let Some(banner) = &banner {
        print!("{banner}");
    }
    print!("{}", render(&MatrixRecords::from_records(doc.records), &footprints));
    if banner.is_some() {
        std::process::exit(1);
    }
}

/// `repro check`: the reproduction gate. Reads `repro.json`, evaluates
/// the shape assertions, and exits by case: 0 all passed, 1 assertion
/// violation, 2 degraded input (failed cells; survivors evaluated), 3
/// unreadable or corrupt document. Each nonzero case says which it is.
fn run_check(args: &Args) {
    let path = args.json_path.as_deref().unwrap_or("repro.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("I/O error: cannot read {path} (run `repro all` first): {e}");
        std::process::exit(3);
    });
    let doc = SweepDoc::from_json(&text).unwrap_or_else(|e| {
        eprintln!("corrupt or incompatible sweep document {path}: {e}");
        std::process::exit(3);
    });
    let (outcomes, verdict) = check_document(&doc);
    print!("{}", render_check_report(&doc, &outcomes));
    match verdict {
        CheckVerdict::Pass => {}
        CheckVerdict::Violation => {
            eprintln!("assertion violation(s) on a complete document");
            std::process::exit(1);
        }
        CheckVerdict::Degraded => {
            eprintln!(
                "degraded input: {}/{} cells failed; assertions evaluated over survivors only",
                doc.failures.len(),
                doc.total_cells()
            );
            std::process::exit(2);
        }
    }
}

/// `repro dsl FILE.dsl`: compile a workload-DSL file end to end and run
/// it under every launch model × scheduler on the Table I machine. This
/// is the quickstart path for a hand-written `.dsl` program: the file
/// becomes a full workload (host kernels included) without any Rust.
fn run_dsl(args: &Args) {
    let Some(file) = args.operand.as_deref() else {
        eprintln!("usage: repro dsl FILE.dsl [--jobs N]");
        std::process::exit(2);
    };
    let src = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        std::process::exit(2);
    });
    let compiled = CompiledWorkload::from_source(&src, ExecMode::Vm).unwrap_or_else(|e| {
        eprintln!("{file}: [{}] {e}", e.stage());
        std::process::exit(2);
    });
    let workload: Arc<dyn Workload> = Arc::new(compiled);
    let mut cfg = GpuConfig::kepler_k20c();
    cfg.profile_locality = true;
    let cells = matrix_cells_for(std::slice::from_ref(&workload));
    let outcome = run_matrix_cells(&cells, args.jobs, &cfg);
    println!("{} on kepler_k20c (compiled DSL, bytecode VM):", workload.full_name());
    println!(
        "{:<6} {:<14} {:>10} {:>6} {:>6} {:>6} {:>10}",
        "model", "scheduler", "cycles", "IPC", "L1%", "L2%", "childwait"
    );
    for r in &outcome.records {
        println!(
            "{:<6} {:<14} {:>10} {:>6.1} {:>6.1} {:>6.1} {:>10.1}",
            r.launch_model,
            r.scheduler,
            r.cycles,
            r.ipc,
            r.l1_hit_rate * 100.0,
            r.l2_hit_rate * 100.0,
            r.mean_child_wait,
        );
    }
    for f in &outcome.failures {
        eprintln!("FAILED {}/{}/{}: {}", f.workload, f.launch_model, f.scheduler, f.error);
    }
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();

    match args.experiment.as_str() {
        "table1" => println!("{}", table1()),
        "table2" => println!("{}", table2(args.scale)),
        "fig2" => println!("{}", fig2(args.scale, args.jobs)),
        "fig4" => println!("{}", figure4()),
        "fig7" => run_matrix_command(&args, false, None, |m, _| format!("{}\n", fig7(m))),
        "fig8" => run_matrix_command(&args, false, None, |m, _| format!("{}\n", fig8(m))),
        "fig9" => run_matrix_command(&args, false, None, |m, _| format!("{}\n", fig9(m))),
        "locality" => run_matrix_command(&args, false, None, |m, _| format!("{}\n", locality(m))),
        "latency" => {
            run_matrix_command(&args, true, None, |m, _| latency_report(args.scale, args.jobs, m))
        }
        "timeline" => println!("{}", timeline(args.scale, args.jobs)),
        "variance" => println!("{}", variance(args.scale, args.jobs)),
        "csv" => run_matrix_command(&args, false, None, |m, _| {
            sim_metrics::export::runs_to_csv(m.records())
        }),
        "cache" => println!("{}", sweep_cache(args.scale, args.jobs)),
        "saturation" => println!("{}", saturation(args.scale, args.jobs)),
        "generality" => println!("{}", generality(args.scale, args.jobs)),
        "overhead" => println!("{}", overhead(args.scale, args.jobs)),
        "ablate" => println!("{}", ablate(args.scale, args.jobs)),
        // The profiled document never clobbers the `repro all` artifact,
        // whose byte-identity the `engine-equivalence` CI job depends
        // on; `repro check --json repro_profile.json` binds the engine
        // and latency shape assertions against it.
        "all" => {
            let path = args.json_path.as_deref().unwrap_or("repro.json");
            run_matrix_command(&args, false, Some(path), |m, fp| {
                full_report(args.scale, args.jobs, m, fp)
            })
        }
        "profile" => {
            let path = args.json_path.as_deref().unwrap_or("repro_profile.json");
            run_matrix_command(&args, true, Some(path), |m, _| profile(m))
        }
        "check" => run_check(&args),
        "dsl" => run_dsl(&args),
        other => {
            eprintln!("unknown experiment {other}");
            eprintln!(
                "choose from: table1 table2 fig2 fig4 fig7 fig8 fig9 locality latency \
                 timeline variance csv cache saturation generality overhead ablate all \
                 profile check dsl"
            );
            std::process::exit(2);
        }
    }
}
