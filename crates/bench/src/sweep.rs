//! Parallel sweep executor and the `repro.json` sweep document.
//!
//! [`run_cells`] is a work-queue executor: `jobs` workers (the calling
//! thread plus `jobs - 1` scoped threads) pull cell indices from a
//! shared atomic counter, run each cell inside
//! `catch_unwind` (one panicking run cannot take down the sweep), and
//! store results *by input index*, so the output order — and therefore
//! every rendered report — is identical for any job count and any
//! completion order. Determinism of the contents comes from the cells
//! themselves: each cell fully describes its run (workload generated
//! from a seed fixed at sweep-construction time, launch model,
//! scheduler, GPU config), never from execution order.
//!
//! [`SweepDoc`] is the machine-readable artifact (`repro.json`) that
//! `repro all` emits alongside the text report and that `repro check`
//! evaluates shape assertions against (see [`crate::shapes`]).

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dynpar::{DtblModel, LaunchLatency, LaunchModelKind};
use gpu_sim::config::{EngineMode, GpuConfig, WarpSchedPolicy};
use gpu_sim::launch::DynamicLaunchModel;
use gpu_sim::tb_sched::TbScheduler;
use laperm::LaPermConfig;
use sim_metrics::harness::{RunRecord, SchedulerKind};
use sim_metrics::json::{parse, run_from_json, run_to_json, Json};
use sim_metrics::FootprintAnalysis;
use wdsl::{compiled_suite_seeded, ExecMode};
use workloads::{suite_seeded, Scale, Workload};

use crate::resilience::{run_matrix_cells_resilient, Resilience, ResilienceReport};

/// Which program-generation path serves `Workload → TbProgram` during a
/// sweep: the legacy Rust generators, or each workload's DSL port
/// compiled to bytecode and served by the `wdsl` VM. The two paths are
/// program-byte-identical (the wdsl suite-equivalence tests enforce it),
/// so a sweep document built under either must render the same bytes —
/// the CI `repro-gate` job diffs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgramPath {
    /// The legacy Rust program generators (the oracle).
    #[default]
    Generator,
    /// DSL ports compiled to bytecode, served by the verified VM.
    Dsl,
}

impl ProgramPath {
    /// Stable name for flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            ProgramPath::Generator => "generator",
            ProgramPath::Dsl => "dsl",
        }
    }

    /// Parses a `--programs` flag value.
    pub fn parse(s: &str) -> Option<ProgramPath> {
        match s {
            "generator" => Some(ProgramPath::Generator),
            "dsl" => Some(ProgramPath::Dsl),
            _ => None,
        }
    }
}

/// The full Table II suite served through the chosen program path.
///
/// # Errors
///
/// The DSL path reports a workload whose port fails to compile (a repo
/// bug the wdsl corpus tests catch first).
pub fn suite_for_path(
    scale: Scale,
    seed: u64,
    path: ProgramPath,
) -> Result<Vec<Arc<dyn Workload>>, String> {
    match path {
        ProgramPath::Generator => Ok(suite_seeded(scale, seed)),
        ProgramPath::Dsl => compiled_suite_seeded(scale, seed, ExecMode::Vm)
            .map_err(|e| format!("DSL suite compilation failed: {e}")),
    }
}

/// The default worker count: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Runs `run` over `cells` on up to `jobs` threads and returns one
/// result per cell, in input order. A panicking cell yields
/// `Err(message)` for that cell only; all other cells still run. The
/// calling thread is one of the `jobs` workers, so one job spawns no
/// thread: a spawned worker allocates from its own malloc arena, which
/// lingers as resident memory after the thread exits.
pub fn run_cells<I, T, F>(cells: &[I], jobs: usize, run: F) -> Vec<Result<T, String>>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let jobs = jobs.max(1).min(cells.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..cells.len()).map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= cells.len() {
            break;
        }
        let result = catch_unwind(AssertUnwindSafe(|| run(&cells[i])))
            .map_err(|payload| panic_message(payload.as_ref()));
        *slots[i].lock().expect("result slot") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(worker);
        }
        worker();
    });
    slots.into_iter().map(|slot| slot.into_inner().expect("slot lock").expect("cell ran")).collect()
}

/// [`run_cells`] for infallible work: unwraps every result, re-raising
/// the first worker panic (with its message) on the caller's thread.
pub fn parallel_map<I, T, F>(cells: &[I], jobs: usize, run: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    run_cells(cells, jobs, run)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("sweep worker panicked: {e}")))
        .collect()
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One simulation of a sweep: a cell of the evaluation matrix, or a
/// study point that varies more axes. An axis left `None` takes the
/// matrix default, and [`crate::cell_key`] folds in resolved values, so
/// a study point set to the defaults keys as the matrix cell it equals.
#[derive(Clone)]
pub struct MatrixCell {
    /// The workload (generated from the sweep's seed).
    pub workload: Arc<dyn Workload>,
    /// Launch model under test.
    pub model: LaunchModelKind,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Device-launch latency (default: the model's).
    pub latency: Option<LaunchLatency>,
    /// DTBL on-chip aggregation-table entries (default: 128).
    pub table_entries: Option<usize>,
    /// LaPerm configuration (default: `LaPermConfig::for_gpu`).
    pub laperm: Option<LaPermConfig>,
    /// A machine change on top of the sweep configuration.
    pub gpu: Option<GpuOverride>,
}

/// A change a study cell makes to the sweep's machine. The sweep's own
/// settings (engine, profiling, watchdog) carry over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuOverride {
    /// L1 bytes per SMX.
    L1Bytes(u32),
    /// Total L2 bytes.
    L2Bytes(u32),
    /// Warp scheduling policy.
    WarpScheduler(WarpSchedPolicy),
    /// The machine of [`GpuConfig::maxwell_like`].
    MaxwellLike,
}

impl std::fmt::Display for GpuOverride {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuOverride::L1Bytes(bytes) => write!(f, "l1={}KB", bytes / 1024),
            GpuOverride::L2Bytes(bytes) => write!(f, "l2={}KB", bytes / 1024),
            GpuOverride::WarpScheduler(policy) => write!(f, "warp={policy}"),
            GpuOverride::MaxwellLike => f.write_str("machine=maxwell-like"),
        }
    }
}

impl MatrixCell {
    /// The matrix cell `w × model × scheduler`, every other axis default.
    pub fn new(w: Arc<dyn Workload>, model: LaunchModelKind, scheduler: SchedulerKind) -> Self {
        let (latency, table_entries, laperm, gpu) = (None, None, None, None);
        MatrixCell { workload: w, model, scheduler, latency, table_entries, laperm, gpu }
    }

    /// The cell's name in progress, retry and `FAILED` lines:
    /// `workload/model/scheduler`, then each axis the cell sets. Of a
    /// LaPerm configuration it names the fields a study tunes; the rest
    /// come from the machine.
    pub fn label(&self) -> String {
        let mut label = format!("{}/{}/{}", self.workload.full_name(), self.model, self.scheduler);
        if let Some(l) = self.latency {
            label += &format!(" latency={}+{}/tb+{}/inflight", l.base, l.per_tb, l.per_inflight);
        }
        if let Some(entries) = self.table_entries {
            label += &format!(" table={entries}");
        }
        if let Some(c) = self.laperm {
            let throttle = c.throttle_tbs.map_or("-".to_string(), |tbs| tbs.to_string());
            label += &format!(
                " laperm=L{},cluster{},onchip{},steal{},throttle{throttle}",
                c.max_level, c.cluster_size, c.onchip_capacity, c.steal_min_free_slots
            );
        }
        if let Some(change) = self.gpu {
            label += &format!(" {change}");
        }
        label
    }

    /// The configuration the cell runs under: `sweep` plus its change.
    pub fn config<'c>(&self, sweep: &'c GpuConfig) -> Cow<'c, GpuConfig> {
        let Some(change) = self.gpu else { return Cow::Borrowed(sweep) };
        let cfg = sweep.clone();
        Cow::Owned(match change {
            GpuOverride::L1Bytes(l1_bytes) => GpuConfig { l1_bytes, ..cfg },
            GpuOverride::L2Bytes(l2_bytes) => GpuConfig { l2_bytes, ..cfg },
            GpuOverride::WarpScheduler(warp_scheduler) => GpuConfig { warp_scheduler, ..cfg },
            GpuOverride::MaxwellLike => GpuConfig {
                engine_mode: cfg.engine_mode,
                profile_locality: cfg.profile_locality,
                profile_engine: cfg.profile_engine,
                profile_latency: cfg.profile_latency,
                watchdog_window: cfg.watchdog_window,
                ..GpuConfig::maxwell_like()
            },
        })
    }

    /// The cell's launch latency, DTBL table size (`None` under CDP) and
    /// LaPerm configuration (`None` for the schedulers that take none),
    /// resolved on its machine `cfg`: what [`crate::cell_key`] folds in.
    pub fn resolved(
        &self,
        cfg: &GpuConfig,
    ) -> (LaunchLatency, Option<usize>, Option<LaPermConfig>) {
        let latency = self.latency.unwrap_or_else(|| LaunchLatency::default_for(self.model));
        let table = (self.model == LaunchModelKind::Dtbl)
            .then(|| self.table_entries.unwrap_or(DtblModel::DEFAULT_ONCHIP_CAPACITY));
        let laperm = self.laperm.unwrap_or_else(|| LaPermConfig::for_gpu(cfg));
        (latency, table, self.scheduler.policy().map(|_| laperm))
    }

    /// The cell's launch model and TB scheduler on its machine `cfg`,
    /// built fresh for one run.
    pub fn build(&self, cfg: &GpuConfig) -> (Box<dyn DynamicLaunchModel>, Box<dyn TbScheduler>) {
        let (latency, table, laperm) = self.resolved(cfg);
        let launch: Box<dyn DynamicLaunchModel> = match table {
            Some(n) => {
                Box::new(DtblModel::with_table(latency, n, DtblModel::DEFAULT_OVERFLOW_PENALTY))
            }
            None => self.model.build(latency),
        };
        (launch, self.scheduler.build_with(laperm.unwrap_or_else(|| LaPermConfig::for_gpu(cfg))))
    }
}

/// A per-cell failure: which cell (by canonical matrix index), the
/// configuration that failed, how many supervised attempts were spent,
/// and the error or panic message. Reported in `repro.json` so CI can
/// attribute a broken run to its exact configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Index of the failed cell in canonical matrix order.
    pub cell_index: usize,
    /// Workload display name.
    pub workload: String,
    /// Launch model name.
    pub launch_model: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Supervised attempts spent before giving up (1 = no retries).
    pub attempts: u32,
    /// Error or panic message from the final attempt.
    pub error: String,
    /// The failed cell's [`MatrixCell::label`]. `repro.json` does not
    /// carry it: a document's failures are matrix cells, which read back
    /// as `workload/launch_model/scheduler`.
    pub label: String,
}

/// The outcome of a matrix sweep: completed records in canonical cell
/// order, plus any per-cell failures.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Completed runs, in canonical (workload × model × scheduler) order.
    pub records: Vec<RunRecord>,
    /// Failed cells, in canonical order.
    pub failures: Vec<SweepFailure>,
}

/// The canonical cell list for the full evaluation matrix at a scale:
/// every suite workload × both launch models × all four schedulers, in
/// the paper's figure order.
pub fn matrix_cells(scale: Scale, seed: u64) -> Vec<MatrixCell> {
    matrix_cells_for(&suite_seeded(scale, seed))
}

/// The canonical cell list over an explicit workload list (how the DSL
/// program path reuses the same matrix shape).
pub fn matrix_cells_for(workloads: &[Arc<dyn Workload>]) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for w in workloads {
        for model in LaunchModelKind::all() {
            for scheduler in SchedulerKind::all() {
                cells.push(MatrixCell::new(w.clone(), model, scheduler));
            }
        }
    }
    cells
}

/// Runs an explicit cell list (the building block tests use to sweep
/// subsets quickly). This is the default-policy entry into the
/// resilient executor: no cache, no retries, no deadline — behavior
/// (records, failures, stderr progress) is identical to the
/// pre-resilience executor.
pub fn run_matrix_cells(cells: &[MatrixCell], jobs: usize, cfg: &GpuConfig) -> SweepOutcome {
    match run_matrix_cells_resilient(cells, jobs, cfg, "adhoc/0", &Resilience::default()) {
        Ok((outcome, _)) => outcome,
        // Setup can only fail when a cache directory is configured;
        // the default policy has none.
        Err(e) => panic!("sweep setup failed: {e}"),
    }
}

/// One workload's shared-footprint ratios in the sweep document
/// (Figure 2's per-row content).
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintRow {
    /// Workload display name.
    pub workload: String,
    /// Parent-child shared footprint ratio.
    pub parent_child: f64,
    /// Child-sibling shared footprint ratio.
    pub child_sibling: f64,
    /// Adjacent parent-parent shared footprint ratio.
    pub parent_parent: f64,
}

impl From<&FootprintAnalysis> for FootprintRow {
    fn from(a: &FootprintAnalysis) -> Self {
        FootprintRow {
            workload: a.workload.clone(),
            parent_child: a.parent_child,
            child_sibling: a.child_sibling,
            parent_parent: a.parent_parent,
        }
    }
}

/// The `repro.json` document: everything the shape-assertion suite
/// needs, keyed by configuration, in canonical order.
#[derive(Debug, Clone)]
pub struct SweepDoc {
    /// Scale name ("tiny", "ci", "small", "paper").
    pub scale: String,
    /// Input seed the suite was generated with.
    pub seed: u64,
    /// Completed matrix runs in canonical order.
    pub records: Vec<RunRecord>,
    /// Failed cells (empty on a healthy sweep).
    pub failures: Vec<SweepFailure>,
    /// Per-workload shared-footprint ratios (Figure 2).
    pub footprints: Vec<FootprintRow>,
}

/// Schema version written to and required from `repro.json`. Version 2
/// added the optional per-run `locality` object (cache-hit provenance;
/// sweeps always profile, so matrix runs carry it). Version 3 added the
/// per-run `table_overflows` counter (DTBL aggregation-table overflows)
/// and the `launch_path` stall cause. Version 4 added the optional
/// per-run `engine` object (engine introspection; present only in
/// documents swept under `sweep_config(_, true)`, as `repro profile`
/// does — default sweeps keep it off so both engine modes render
/// byte-identical documents). Version 5 added the optional per-run
/// `latency` object (TB lifecycle attribution and launch-DAG critical
/// path; carried by profiled documents only, for the same cross-engine
/// byte-diff reason — latency stats ARE bit-identical
/// across engine modes, but default sweeps stay minimal). Version 6
/// added the structured failure fields `cell_index` and `attempts`
/// (which cell of the canonical matrix failed and how many supervised
/// attempts the resilient executor spent on it).
pub const SWEEP_SCHEMA_VERSION: u64 = 6;

/// The configuration every matrix cell of a sweep runs under: the
/// Table I machine on `engine_mode`. Locality provenance profiling is
/// always on: it is observational (cycle counts are bit-identical with
/// it off), and having the provenance split in every `repro.json` is
/// what lets `repro check` assert the *mechanism* — which scheduling
/// relation produced the hits — not just the headline rates.
/// `profiled` also turns on engine introspection and latency
/// attribution: every run then carries the optional `engine` object
/// (wake-source counts, heap depth, jump lengths) and the optional
/// `latency` object (lifecycle histograms, critical path). Engine
/// introspection legitimately differs between engine modes, so default
/// sweeps keep it off; `repro profile` turns it on.
pub fn sweep_config(engine_mode: EngineMode, profiled: bool) -> GpuConfig {
    let mut cfg = GpuConfig::kepler_k20c();
    cfg.profile_locality = true;
    cfg.engine_mode = engine_mode;
    cfg.profile_engine = profiled;
    cfg.profile_latency = profiled;
    cfg
}

/// Figure 2's shared-footprint analysis of every workload, fanned out
/// over `jobs` workers: the document half of a sweep that simulates
/// nothing.
pub fn footprint_analyses(all: &[Arc<dyn Workload>], jobs: usize) -> Vec<FootprintAnalysis> {
    parallel_map(all, jobs, |w| FootprintAnalysis::analyze(w.as_ref()))
}

/// [`footprint_analyses`] as the document's footprint rows.
pub fn footprint_rows(all: &[Arc<dyn Workload>], jobs: usize) -> Vec<FootprintRow> {
    footprint_analyses(all, jobs).iter().map(FootprintRow::from).collect()
}

impl SweepDoc {
    /// The defaults-only sweep: the event engine on the generator path
    /// under the default resilience policy, matrix and footprint rows
    /// both fanned out over `jobs` workers.
    pub fn build(scale: Scale, seed: u64, jobs: usize) -> SweepDoc {
        match Self::build_resilient(
            scale,
            seed,
            jobs,
            EngineMode::Event,
            ProgramPath::Generator,
            &Resilience::default(),
        ) {
            Ok((doc, _)) => doc,
            // The generator path never fails to build its suite, and the
            // default policy configures no cache.
            Err(e) => panic!("default sweep setup failed: {e}"),
        }
    }

    /// The full `repro.json` document — matrix plus footprint rows — on
    /// an explicit engine mode and program path under an explicit
    /// resilience policy: cell cache, retries, per-cell deadline, and (in
    /// tests) harness-level fault injection. Also returns what the
    /// policy did — cache hits/misses, journal damage repaired, retries
    /// spent. The document records neither the engine nor the path, so
    /// the CI `repro-gate` job diffs the rendered JSON byte-for-byte
    /// across them.
    ///
    /// # Errors
    ///
    /// Reports DSL suite compilation failures and cache-directory or
    /// journal I/O setup errors. Per-cell failures are NOT errors: they
    /// degrade the document (see [`SweepDoc::degraded_banner`]).
    pub fn build_resilient(
        scale: Scale,
        seed: u64,
        jobs: usize,
        engine_mode: EngineMode,
        path: ProgramPath,
        res: &Resilience,
    ) -> Result<(SweepDoc, ResilienceReport), String> {
        let all = suite_for_path(scale, seed, path)?;
        let cfg = sweep_config(engine_mode, false);
        let (mut doc, report) = Self::build_matrix(scale, seed, jobs, &cfg, &all, res)?;
        doc.footprints = footprint_rows(&all, jobs);
        Ok((doc, report))
    }

    /// The matrix half of a sweep: every workload of `all` under both
    /// launch models and all four schedulers, run on `cfg` through the
    /// resilient executor, with no footprint rows (the figure
    /// subcommands never print them). The cell cache keys on the scale
    /// and seed, so `all` must be the suite they generate.
    ///
    /// # Errors
    ///
    /// Reports cache-directory or journal I/O setup errors; per-cell
    /// failures land in the document's `failures`.
    pub fn build_matrix(
        scale: Scale,
        seed: u64,
        jobs: usize,
        cfg: &GpuConfig,
        all: &[Arc<dyn Workload>],
        res: &Resilience,
    ) -> Result<(SweepDoc, ResilienceReport), String> {
        let cells = matrix_cells_for(all);
        let sweep_tag = format!("{}/{seed}", scale.name());
        let (outcome, report) = run_matrix_cells_resilient(&cells, jobs, cfg, &sweep_tag, res)?;
        let doc = SweepDoc {
            scale: scale.name().to_string(),
            seed,
            records: outcome.records,
            failures: outcome.failures,
            footprints: Vec::new(),
        };
        Ok((doc, report))
    }

    /// Total matrix cells the document describes (completed + failed).
    pub fn total_cells(&self) -> usize {
        self.records.len() + self.failures.len()
    }

    /// The `DEGRADED` banner and failures table for a partial sweep, or
    /// `None` for a healthy one. `repro all` and `repro check` print
    /// this ahead of their reports instead of aborting: the surviving
    /// cells still carry evaluable signal.
    pub fn degraded_banner(&self) -> Option<String> {
        if self.failures.is_empty() {
            return None;
        }
        let mut out =
            format!("DEGRADED ({}/{} cells failed)\n\n", self.failures.len(), self.total_cells());
        out.push_str(&format!(
            "{:>5}  {:<18} {:<6} {:<14} {:>8}  error\n",
            "cell", "workload", "model", "scheduler", "attempts"
        ));
        for f in &self.failures {
            out.push_str(&format!(
                "{:>5}  {:<18} {:<6} {:<14} {:>8}  {}\n",
                f.cell_index, f.workload, f.launch_model, f.scheduler, f.attempts, f.error
            ));
        }
        out.push('\n');
        Some(out)
    }

    /// Renders the document as `repro.json` (one run per line for
    /// readable diffs; the content is still ordinary JSON).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {SWEEP_SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"scale\": {},\n", Json::Str(self.scale.clone()).render()));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"runs\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 < self.records.len() { "," } else { "" };
            out.push_str(&format!("    {}{sep}\n", run_to_json(r).render()));
        }
        out.push_str("  ],\n  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            let obj = Json::Obj(vec![
                ("cell_index".into(), Json::Num(f.cell_index.to_string())),
                ("workload".into(), Json::Str(f.workload.clone())),
                ("launch_model".into(), Json::Str(f.launch_model.clone())),
                ("scheduler".into(), Json::Str(f.scheduler.clone())),
                ("attempts".into(), Json::Num(f.attempts.to_string())),
                ("error".into(), Json::Str(f.error.clone())),
            ]);
            let sep = if i + 1 < self.failures.len() { "," } else { "" };
            out.push_str(&format!("    {}{sep}\n", obj.render()));
        }
        out.push_str("  ],\n  \"footprints\": [\n");
        for (i, f) in self.footprints.iter().enumerate() {
            let obj = Json::Obj(vec![
                ("workload".into(), Json::Str(f.workload.clone())),
                ("parent_child".into(), Json::from_f64(f.parent_child)),
                ("child_sibling".into(), Json::from_f64(f.child_sibling)),
                ("parent_parent".into(), Json::from_f64(f.parent_parent)),
            ]);
            let sep = if i + 1 < self.footprints.len() { "," } else { "" };
            out.push_str(&format!("    {}{sep}\n", obj.render()));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a document written by [`SweepDoc::to_json`].
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors, a schema-version mismatch, or the
    /// first missing/mistyped field.
    pub fn from_json(text: &str) -> Result<SweepDoc, String> {
        let v = parse(text)?;
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing integer field 'schema_version'")?;
        if version != SWEEP_SCHEMA_VERSION {
            return Err(format!(
                "repro.json schema version {version} (this binary reads {SWEEP_SCHEMA_VERSION})"
            ));
        }
        let scale = v.get("scale").and_then(Json::as_str).ok_or("missing 'scale'")?.to_string();
        let seed = v.get("seed").and_then(Json::as_u64).ok_or("missing 'seed'")?;
        let records = v
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("missing array 'runs'")?
            .iter()
            .map(run_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let str_of = |o: &Json, key: &str| -> Result<String, String> {
            o.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let failures = v
            .get("failures")
            .and_then(Json::as_arr)
            .ok_or("missing array 'failures'")?
            .iter()
            .map(|o| {
                let u64_of = |key: &str| -> Result<u64, String> {
                    o.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("missing integer field '{key}'"))
                };
                let (workload, launch_model, scheduler) =
                    (str_of(o, "workload")?, str_of(o, "launch_model")?, str_of(o, "scheduler")?);
                Ok(SweepFailure {
                    cell_index: usize::try_from(u64_of("cell_index")?)
                        .map_err(|_| "cell_index out of range".to_string())?,
                    label: format!("{workload}/{launch_model}/{scheduler}"),
                    workload,
                    launch_model,
                    scheduler,
                    attempts: u32::try_from(u64_of("attempts")?)
                        .map_err(|_| "attempts out of range".to_string())?,
                    error: str_of(o, "error")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let footprints = v
            .get("footprints")
            .and_then(Json::as_arr)
            .ok_or("missing array 'footprints'")?
            .iter()
            .map(|o| {
                let num = |key: &str| -> Result<f64, String> {
                    o.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("missing number field '{key}'"))
                };
                Ok(FootprintRow {
                    workload: str_of(o, "workload")?,
                    parent_child: num("parent_child")?,
                    child_sibling: num("child_sibling")?,
                    parent_parent: num("parent_parent")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SweepDoc { scale, seed, records, failures, footprints })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn run_cells_preserves_input_order_for_any_job_count() {
        let cells: Vec<usize> = (0..40).collect();
        for jobs in [1, 2, 8, 64] {
            let out = run_cells(&cells, jobs, |&i| i * i);
            let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
            assert_eq!(values, cells.iter().map(|&i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn a_panicking_cell_is_isolated() {
        let cells: Vec<usize> = (0..10).collect();
        let out = run_cells(&cells, 4, |&i| {
            assert!(i != 5, "cell five exploded");
            i + 1
        });
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("cell five exploded"), "{msg}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i + 1);
            }
        }
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_cells(&[0, 1], 1, |_| std::thread::current().id());
        assert!(out.into_iter().all(|id| id.unwrap() == caller));
        let isolated = run_cells(&[0, 1], 1, |&i| {
            assert!(i != 0, "first cell exploded");
            i
        });
        assert!(isolated[0].as_ref().unwrap_err().contains("first cell exploded"));
        assert_eq!(isolated[1], Ok(1));
    }

    #[test]
    fn zero_jobs_is_clamped_and_empty_input_is_fine() {
        assert_eq!(run_cells(&[1, 2], 0, |&i: &i32| i).len(), 2);
        assert!(run_cells::<i32, i32, _>(&[], 8, |&i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn parallel_map_reraises_panics() {
        parallel_map(&[1], 1, |_| -> i32 { panic!("boom") });
    }

    #[test]
    fn program_path_flag_values_round_trip() {
        for path in [ProgramPath::Generator, ProgramPath::Dsl] {
            assert_eq!(ProgramPath::parse(path.name()), Some(path));
        }
        assert_eq!(ProgramPath::parse("vm"), None);
        assert_eq!(ProgramPath::default(), ProgramPath::Generator);
    }

    #[test]
    fn both_program_paths_list_the_same_suite() {
        let gen = suite_for_path(Scale::Tiny, 0, ProgramPath::Generator).unwrap();
        let dsl = suite_for_path(Scale::Tiny, 0, ProgramPath::Dsl).unwrap();
        assert_eq!(gen.len(), dsl.len());
        for (g, d) in gen.iter().zip(&dsl) {
            assert_eq!(g.full_name(), d.full_name());
        }
    }

    #[test]
    fn dsl_path_records_match_generator_path_records() {
        // One workload's full model × scheduler sub-matrix, run through
        // both program paths, must produce identical run records —
        // program byte-identity implies simulation-statistic identity.
        let mut cfg = GpuConfig::kepler_k20c();
        cfg.profile_locality = true;
        let pick = |path| -> Vec<Arc<dyn Workload>> {
            suite_for_path(Scale::Tiny, 0, path)
                .unwrap()
                .into_iter()
                .filter(|w| w.full_name() == "join-uniform")
                .collect()
        };
        let run = |path| {
            let outcome = run_matrix_cells(&matrix_cells_for(&pick(path)), 2, &cfg);
            assert!(outcome.failures.is_empty(), "{path:?}: {:?}", outcome.failures);
            outcome.records
        };
        let gen = run(ProgramPath::Generator);
        let dsl = run(ProgramPath::Dsl);
        assert_eq!(gen.len(), 8);
        assert_eq!(gen, dsl);
    }
}
