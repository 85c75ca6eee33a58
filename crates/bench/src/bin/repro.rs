//! Regenerates the LaPerm paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale tiny|ci|small|paper] [--jobs N]
//!                    [--engine event|cycle-stepped] [--programs generator|dsl]
//!                    [--cache-dir DIR] [--retries N] [--cell-deadline CYCLES]
//!                    [--retry-backoff-ms MS]
//! repro all|profile [the flags above] [--json FILE]
//! repro check [--json FILE]
//! repro dsl FILE.dsl [--jobs N] [--engine event|cycle-stepped]
//!                    [--cache-dir DIR] [--retries N] [--cell-deadline CYCLES]
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
//!   latency   launch-latency sensitivity (Section IV-D)
//!   timeline  windowed IPC/L1 over one run, RR vs Adaptive-Bind
//!   variance  headline gain over several input seeds (mean ± std)
//!   csv       full run matrix as CSV on stdout (for plotting)
//!   cache     L1/L2 capacity sensitivity (paper's future work)
//!   saturation IPC vs DTBL aggregation-table size per scheduler
//!   generality Kepler vs Maxwell-like architecture
//!   overhead  queue hardware overheads (Section IV-E)
//!   ablate    design-choice ablations
//!   all       everything above; also writes the repro.json artifact
//!   profile   rerun the matrix with engine introspection and latency
//!             attribution on; prints the wake-source decomposition, then
//!             TB lifecycle attribution and the launch-DAG critical path,
//!             and writes a profiled document (default
//!             repro_profile.json, never clobbering repro.json)
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
//! Every simulation but `timeline`'s is a cell of one resilient sweep
//! session: the matrix subcommands (`all`, `fig7`, `fig8`, `fig9`,
//! `locality`, `csv`, `profile`) sweep the matrix first, and every study
//! section (`latency`, `variance`, `cache`, `saturation`, `generality`,
//! `overhead`, `ablate`) then runs its points through the same session,
//! which serves a point it already ran. So `--engine` and the sweep
//! flags below apply to every section.
//!
//! `--engine` selects the simulation engine (default: `event`, the
//! discrete-event engine that skips idle cycles; `cycle-stepped` is the
//! reference linear scan that steps every SMX on every cycle and never
//! skips one). The CI `repro-gate` job reruns `all` under
//! `cycle-stepped` and diffs its `repro.json` and text report
//! byte-for-byte against the event engine's.
//!
//! `--programs` selects the program-generation path (default:
//! generator). `dsl` serves every suite workload from its DSL port
//! compiled to bytecode. Each invocation builds its suite once, on that
//! path, and every section reads it: the matrix, Figure 2 and every
//! study (`variance` builds its extra input seeds on the same path).
//! Programs are byte-identical across paths, so the CI `repro-gate` job
//! reruns `all` with `--programs dsl` and diffs its `repro.json` and
//! text report byte-for-byte against the generator path's.
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
//! the surviving cells, and exits 1; a failed study cell prints a
//! `FAILED` line, reads as zero in its section, and exits 1 too. Each
//! `FAILED` line names its cell by
//! [`MatrixCell::label`](laperm_bench::sweep::MatrixCell::label), study
//! axes included. `repro dsl` runs its cells as a study. The `programs:`
//! and `cell cache:` lines total the whole run. Without `--cache-dir`,
//! output is byte-identical to the resilience-free executor. The
//! undocumented `--kill-after-cells N` hard-kills the process after N
//! cells of the run are committed to the cache: the crash the CI
//! `repro-gate` job resumes from.
//!
//! An unknown experiment or flag, a flag with no value, an operand after
//! any experiment but `dsl`, `--json` on any experiment but `all`,
//! `profile` and `check`, or a flag value outside its valid set
//! (`--scale`, `--engine`, `--programs`, a non-integer or out-of-range
//! count) exits 2 naming the valid choices, as does a sweep that cannot
//! start (a DSL port that fails to compile, an unusable `--cache-dir`).
//!
//! `repro check` exit codes: 0 every assertion passed; 1 assertion
//! violation(s) on a healthy document; 2 degraded input (the document
//! carries failed cells — assertions ran over survivors only); 3 the
//! document is unreadable, corrupt, or schema-incompatible.

#![deny(clippy::unwrap_used)]

use std::sync::Arc;

use gpu_sim::config::EngineMode;
use laperm_bench::cli::{self, fail};
use laperm_bench::experiments::render_fig2;
use laperm_bench::sweep::{footprint_analyses, matrix_cells_for, sweep_config, FootprintRow};
use laperm_bench::{
    ablate, check_document, default_jobs, fig7, fig8, fig9, figure4, full_report, generality,
    latency_sweep, locality, overhead, profile, render_check_report, saturation, suite_for_path,
    sweep_cache, table1, table2, timeline, variance, CheckVerdict, MatrixRecords, ProgramPath,
    Resilience, Session, SweepDoc,
};
use sim_metrics::FootprintAnalysis;
use wdsl::{CompiledWorkload, ExecMode};
use workloads::{Scale, Workload};

/// Flags that consume the following token as their value; `repro` has
/// no boolean flags.
const VALUE_FLAGS: [&str; 10] = [
    "--scale",
    "--jobs",
    "--json",
    "--engine",
    "--programs",
    "--cache-dir",
    "--retries",
    "--retry-backoff-ms",
    "--cell-deadline",
    "--kill-after-cells",
];

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
    let args = cli::Args::from_env(&VALUE_FLAGS, &[], 2);
    let experiment = args.operand(0).unwrap_or("all").to_string();
    let operand = args.operand(1).map(String::from);
    if let Some(extra) = operand.as_deref().filter(|_| experiment != "dsl") {
        fail(format!("unexpected argument {extra}: only `repro dsl` takes an operand"));
    }
    if args.value("--json").is_some() && !matches!(experiment.as_str(), "all" | "profile" | "check")
    {
        fail(format!("--json applies only to all, profile and check, not {experiment}"));
    }
    let engine = match args.value("--engine") {
        Some("cycle-stepped") => EngineMode::CycleStepped,
        Some("event") | None => EngineMode::Event,
        Some(other) => fail(format!(
            "unknown engine {other}; choose event (skips idle cycles) or \
             cycle-stepped (never-skipping reference)"
        )),
    };
    let programs = match args.value("--programs") {
        None => ProgramPath::Generator,
        Some(s) => ProgramPath::parse(s)
            .unwrap_or_else(|| fail(format!("unknown program path {s}; choose generator or dsl"))),
    };
    let resilience = Resilience {
        cache_dir: args.value("--cache-dir").map(std::path::PathBuf::from),
        retries: args.num("--retries", u32::MAX.into()).unwrap_or(0),
        backoff_ms: args.num("--retry-backoff-ms", u64::MAX).unwrap_or(100),
        cell_deadline: args.num("--cell-deadline", u64::MAX),
        kill_after_cells: args.num("--kill-after-cells", u64::MAX),
        faults: None,
        sim_fault_seed: None,
    };
    Args {
        experiment,
        operand,
        scale: args.scale(Scale::Paper),
        jobs: args.num("--jobs", u64::MAX).unwrap_or_else(default_jobs),
        json_path: args.value("--json").map(String::from),
        engine,
        programs,
        resilience,
    }
}

/// Runs one report through a [`Session`] over `suite` (the run's
/// suite), honouring `--engine` and the resilience flags: with `matrix`
/// it sweeps the matrix first and writes the document to `json` when
/// given, then prints `render`'s report over the matrix records and
/// Figure 2's footprint analyses (computed, for the document, only when
/// `json` is given). `profiled` turns on engine introspection and
/// latency attribution. Failed cells print as `FAILED` lines (matrix
/// ones also as a `DEGRADED` banner), then the process exits 1.
fn run_report(
    args: &Args,
    suite: &[Arc<dyn Workload>],
    profiled: bool,
    matrix: bool,
    json: Option<&str>,
    render: impl FnOnce(&mut Session, &MatrixRecords, &[FootprintAnalysis]) -> String,
) {
    let cfg = sweep_config(args.engine, profiled);
    let res = args.resilience.clone();
    let mut session = Session::new(args.scale, args.programs, cfg, args.jobs, res);
    if args.experiment == "dsl" {
        session = session.with_fixed_inputs();
    }
    let mut doc = matrix.then(|| session.matrix(suite).unwrap_or_else(|e| fail(e)));
    // Only the written document carries Figure 2's footprint rows.
    let mut footprints = Vec::new();
    if let (Some(path), Some(doc)) = (json, doc.as_mut()) {
        footprints = footprint_analyses(suite, args.jobs);
        doc.footprints = footprints.iter().map(FootprintRow::from).collect();
        std::fs::write(path, doc.to_json())
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    // A partial sweep degrades instead of aborting: the banner and
    // failures table lead the report, the surviving cells still render.
    let banner = doc.as_ref().and_then(SweepDoc::degraded_banner);
    let (records, mut failures) = doc.map(|d| (d.records, d.failures)).unwrap_or_default();
    let text = render(&mut session, &MatrixRecords::from_records(records), &footprints);
    if let Some(e) = session.setup_error() {
        fail(e);
    }
    let report = session.report();
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
    failures.extend_from_slice(session.failures());
    for f in &failures {
        eprintln!("FAILED {}: {}", f.label, f.error);
    }
    if let Some(banner) = &banner {
        print!("{banner}");
    }
    print!("{text}");
    if !failures.is_empty() {
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
/// it under every launch model × scheduler on the sweep's machine (the
/// Table I configuration on `--engine`), through a [`Session`] like any
/// study, so the resilience flags apply. This is the quickstart path
/// for a hand-written `.dsl` program: the file becomes a full workload
/// (host kernels included) without any Rust.
fn run_dsl(args: &Args) {
    let Some(file) = args.operand.as_deref() else {
        fail(
            "usage: repro dsl FILE.dsl [--jobs N] [--engine event|cycle-stepped] \
             [--cache-dir DIR] [--retries N] [--cell-deadline CYCLES]",
        )
    };
    let src =
        std::fs::read_to_string(file).unwrap_or_else(|e| fail(format!("cannot read {file}: {e}")));
    let compiled = CompiledWorkload::from_source(&src, ExecMode::Vm)
        .unwrap_or_else(|e| fail(format!("{file}: [{}] {e}", e.stage())));
    let workload: Arc<dyn Workload> = Arc::new(compiled);
    let cells = matrix_cells_for(std::slice::from_ref(&workload));
    run_report(args, &[], false, false, None, |s, _, _| {
        let mut out =
            format!("{} on kepler_k20c (compiled DSL, bytecode VM):\n", workload.full_name());
        out += &format!(
            "{:<6} {:<14} {:>10} {:>6} {:>6} {:>6} {:>10}\n",
            "model", "scheduler", "cycles", "IPC", "L1%", "L2%", "childwait"
        );
        for r in s.run(0, &cells) {
            out += &format!(
                "{:<6} {:<14} {:>10} {:>6.1} {:>6.1} {:>6.1} {:>10.1}\n",
                r.launch_model,
                r.scheduler,
                r.cycles,
                r.ipc,
                r.l1_hit_rate * 100.0,
                r.l2_hit_rate * 100.0,
                r.mean_child_wait,
            );
        }
        out
    });
}

fn main() {
    let args = parse_args();
    let (scale, jobs) = (args.scale, args.jobs);
    // The run's one suite: input seed 0 on the `--programs` path. Each
    // subcommand that reads a suite builds it here, once.
    let suite = || suite_for_path(scale, 0, args.programs).unwrap_or_else(|e| fail(e));
    // A study subcommand: one section through a session with no matrix.
    let run_study = |study: fn(&mut Session, &[Arc<dyn Workload>]) -> String| {
        let all = suite();
        run_report(&args, &all, false, false, None, |s, _, _| format!("{}\n", study(s, &all)));
    };

    match args.experiment.as_str() {
        "table1" => println!("{}", table1()),
        "table2" => println!("{}", table2(scale, &suite())),
        "fig2" => println!("{}", render_fig2(scale, &footprint_analyses(&suite(), jobs))),
        "fig4" => println!("{}", figure4()),
        "fig7" => {
            run_report(&args, &suite(), false, true, None, |_, m, _| format!("{}\n", fig7(m)))
        }
        "fig8" => {
            run_report(&args, &suite(), false, true, None, |_, m, _| format!("{}\n", fig8(m)))
        }
        "fig9" => {
            run_report(&args, &suite(), false, true, None, |_, m, _| format!("{}\n", fig9(m)))
        }
        "locality" => {
            run_report(&args, &suite(), false, true, None, |_, m, _| format!("{}\n", locality(m)))
        }
        "latency" => run_study(latency_sweep),
        "timeline" => println!("{}", timeline(scale, &suite(), jobs)),
        "variance" => run_study(variance),
        "csv" => run_report(&args, &suite(), false, true, None, |_, m, _| {
            sim_metrics::export::runs_to_csv(m.records())
        }),
        "cache" => run_study(sweep_cache),
        "saturation" => run_study(saturation),
        "generality" => run_study(generality),
        "overhead" => run_study(overhead),
        "ablate" => run_study(ablate),
        // The profiled document never clobbers the `repro all` artifact,
        // whose byte-identity across engines and program paths the CI
        // `repro-gate` job diffs; `repro check --json
        // repro_profile.json` binds the engine and latency shape
        // assertions against it.
        "all" => {
            let path = args.json_path.as_deref().unwrap_or("repro.json");
            let all = suite();
            run_report(&args, &all, false, true, Some(path), |s, m, fp| full_report(s, &all, m, fp))
        }
        "profile" => {
            let path = args.json_path.as_deref().unwrap_or("repro_profile.json");
            run_report(&args, &suite(), true, true, Some(path), |_, m, _| profile(m))
        }
        "check" => run_check(&args),
        "dsl" => run_dsl(&args),
        other => {
            eprintln!("unknown experiment {other}");
            fail(
                "choose from: table1 table2 fig2 fig4 fig7 fig8 fig9 locality latency \
                 timeline variance csv cache saturation generality overhead ablate all \
                 profile check dsl",
            );
        }
    }
}
