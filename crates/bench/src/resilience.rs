//! Crash-safe, resumable sweep execution.
//!
//! This layer wraps the raw matrix executor ([`crate::sweep::run_cells`])
//! with the three robustness mechanisms ROADMAP item 3 needs before the
//! sweep can be served incrementally:
//!
//! * **Content-addressed cell cache** — every completed cell is keyed by
//!   [`cell_key`] (a hash over workload id, launch model, scheduler, GPU
//!   config, sweep tag, schema version, and the crate's
//!   [`CODE_FINGERPRINT`]) and persisted to an append-only
//!   [`sim_metrics::journal`] under `--cache-dir`. A re-run — including
//!   one resumed after a SIGKILL — looks every cell up first and
//!   recomputes only misses. Damaged journal tails are detected by
//!   checksum, logged, truncated away, and recomputed: a corrupt record
//!   is never served.
//! * **Per-cell supervision** — each cell runs under `catch_unwind` with
//!   the forward-progress watchdog tightened to `--cell-deadline`
//!   simulated cycles ([`gpu_sim::config::GpuConfig::tighten_watchdog`]).
//!   Panics, deadline trips, and structured `SimError`s become
//!   [`CellFailure`] records; failed cells retry up to `--retries` times
//!   with deterministic exponential backoff before being recorded as
//!   permanent failures in the sweep document.
//! * **Harness-level fault injection** — a seed-derived
//!   [`HarnessFaultPlan`] mirrors `gpu_sim::fault` one layer up: inject
//!   a panic into a cell, wedge a cell (every SMX killed forever, so the
//!   deadline machinery must catch it), truncate the journal mid-record,
//!   or flip a checksum byte. The `tests/sweep_resilience.rs` suite
//!   drives these to prove kill-and-resume byte-identity, corruption
//!   recomputation, and jobs-count-invariant retries.
//!
//! With a default [`Resilience`] (no cache dir, zero retries, no faults,
//! no deadline) the behavior — including every stderr progress line and
//! failure message — is identical to the pre-resilience executor, which
//! is what keeps the default `repro all` artifact byte-stable.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use dynpar::LaunchLatency;
use gpu_sim::config::GpuConfig;
use gpu_sim::error::SimError;
use gpu_sim::fault::{Fault, FaultPlan};
use gpu_sim::lowered::ProgramMemo;
use gpu_sim::types::SmxId;
use sim_metrics::harness::{run_with_latency_faulted, RunRecord};
use sim_metrics::journal::{fnv1a64, JournalWriter};
use sim_metrics::json::{parse, run_from_json, run_to_json, Json};

use crate::sweep::{panic_message, run_cells, MatrixCell, SweepFailure, SweepOutcome};

/// Fingerprint of the simulation code baked into every cache key: a
/// cached cell is only reused by a binary built from the same
/// simulation sources. The suffix is a digest that `build.rs` computes
/// over every source file of the crates that decide a cell's record
/// (gpu-sim, dynpar, core, workloads, wdsl, metrics), so any edit there
/// misses the cache; changes to this crate (the harness and reports)
/// keep the fingerprint — and the cache — intact.
pub const CODE_FINGERPRINT: &str =
    concat!("laperm-bench/", env!("CARGO_PKG_VERSION"), "+src-", env!("LAPERM_SIM_SOURCE_DIGEST"));

/// Watchdog window forced onto wedged-cell injections: tight enough
/// that a wedged cell fails in simulated moments, loose enough that the
/// liveness suite's own scenarios (which use 20k windows) agree.
const WEDGE_WATCHDOG: u64 = 20_000;

/// Longest single backoff sleep, so a fat retry budget cannot stall a
/// worker for minutes.
const MAX_BACKOFF_MS: u64 = 2_000;

/// The content address of one matrix cell under one sweep
/// configuration, as 32 hex digits (two independent FNV-1a 64 passes).
/// Everything that can change a cell's statistics is folded in: the
/// workload/model/scheduler ids, the workload's program identity
/// (`generator`, or a digest of its DSL source), the sweep tag (scale +
/// input seed), the full `GpuConfig` (engine mode, profiling flags,
/// limits — via its `Debug` rendering), the simulator-level fault seed
/// if any, the `repro.json` schema version, and [`CODE_FINGERPRINT`].
pub fn cell_key(
    cell: &MatrixCell,
    cfg: &GpuConfig,
    sweep_tag: &str,
    sim_fault_seed: Option<u64>,
) -> String {
    cell_key_with_fingerprint(cell, cfg, sweep_tag, sim_fault_seed, CODE_FINGERPRINT)
}

/// [`cell_key`] with an explicit code fingerprint (exposed so tests can
/// prove that a fingerprint change misses the cache and a no-op
/// rebuild with the same fingerprint hits it).
pub fn cell_key_with_fingerprint(
    cell: &MatrixCell,
    cfg: &GpuConfig,
    sweep_tag: &str,
    sim_fault_seed: Option<u64>,
    fingerprint: &str,
) -> String {
    let canonical = format!(
        "schema=v{}|code={fingerprint}|sweep={sweep_tag}|workload={}|programs={}|model={}\
         |scheduler={}|sim_fault={sim_fault_seed:?}|cfg={cfg:?}",
        crate::sweep::SWEEP_SCHEMA_VERSION,
        cell.workload.full_name(),
        cell.workload.program_id(),
        cell.model.name(),
        cell.scheduler.name(),
    );
    let lo = fnv1a64(canonical.as_bytes());
    // Second pass over a salted copy: 128 key bits from a 64-bit hash
    // primitive, so unrelated cells cannot collide by accident.
    let hi = fnv1a64(format!("laperm-cell-salt|{canonical}").as_bytes());
    format!("{hi:016x}{lo:016x}")
}

/// Why one cell attempt (or a whole cell, after retries ran out)
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The cell panicked; the payload message is preserved.
    Panic(String),
    /// The per-cell deadline (forward-progress watchdog) fired.
    Deadline {
        /// The watchdog window that was armed, in simulated cycles.
        window: u64,
        /// Simulated cycle at which the watchdog fired.
        cycle: u64,
        /// The full structured error text (includes suspect TBs).
        message: String,
    },
    /// The simulator returned a structured error other than a
    /// watchdog trip.
    Sim(String),
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
            FailureCause::Deadline { window, cycle, .. } => {
                write!(f, "deadline: no forward progress for {window} cycles (at cycle {cycle})")
            }
            FailureCause::Sim(msg) => write!(f, "sim error: {msg}"),
        }
    }
}

/// A structured per-cell failure: which cell, which configuration, how
/// many attempts were spent, and why the last one failed. This is the
/// supervised form of what used to be a bare panic string.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Index of the cell in the canonical matrix order.
    pub cell_index: usize,
    /// Workload display name.
    pub workload: String,
    /// Launch model name.
    pub launch_model: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Attempts spent (1 = no retries were configured or needed).
    pub attempts: u32,
    /// Why the final attempt failed.
    pub cause: FailureCause,
}

impl CellFailure {
    /// The failure rendered the way the sweep document reports it. For
    /// simulator errors this is the exact message the pre-resilience
    /// executor produced, so default-path documents are byte-stable.
    pub fn error_message(&self) -> String {
        match &self.cause {
            FailureCause::Panic(msg) => msg.clone(),
            FailureCause::Deadline { message, .. } | FailureCause::Sim(message) => format!(
                "{} under {}/{} failed: {message}",
                self.workload, self.launch_model, self.scheduler
            ),
        }
    }

    /// Converts into the sweep document's failure row.
    pub fn to_sweep_failure(&self) -> SweepFailure {
        SweepFailure {
            cell_index: self.cell_index,
            workload: self.workload.clone(),
            launch_model: self.launch_model.clone(),
            scheduler: self.scheduler.clone(),
            attempts: self.attempts,
            error: self.error_message(),
        }
    }
}

/// One harness-level fault. The first two target cell execution; the
/// last two target the cache journal (applied between runs by
/// [`HarnessFaultPlan::apply_journal_faults`], the way a crash or disk
/// corruption would strike between processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessFault {
    /// The cell's first `attempts` attempts panic before the simulator
    /// is even built.
    PanicCell {
        /// Target cell index in canonical matrix order.
        cell: usize,
        /// How many leading attempts panic (`u32::MAX` = all).
        attempts: u32,
    },
    /// The cell's first `attempts` attempts run with every SMX killed
    /// from cycle 0 forever: the watchdog/deadline machinery must trip.
    WedgeCell {
        /// Target cell index in canonical matrix order.
        cell: usize,
        /// How many leading attempts wedge (`u32::MAX` = all).
        attempts: u32,
    },
    /// Truncate the cache journal in the middle of record `record`.
    TruncateJournal {
        /// Zero-based record index to tear.
        record: usize,
    },
    /// Flip a byte of record `record`'s stored checksum.
    FlipChecksumByte {
        /// Zero-based record index to damage.
        record: usize,
    },
}

/// A deterministic set of harness-level faults, mirroring
/// [`gpu_sim::fault::FaultPlan`] one layer up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessFaultPlan {
    seed: u64,
    faults: Vec<HarnessFault>,
}

impl HarnessFaultPlan {
    /// A plan with an explicit fault list.
    pub fn new(faults: Vec<HarnessFault>) -> Self {
        HarnessFaultPlan { seed: 0, faults }
    }

    /// Derives one to four faults deterministically from `seed` (the
    /// same xorshift64* stream shape as `gpu_sim::fault`): panics and
    /// wedges strike cells below `num_cells`, journal faults strike
    /// early records. Injected cell faults are always transient (1–2
    /// attempts), so a retry budget of 2 recovers every seeded plan.
    pub fn from_seed(seed: u64, num_cells: usize) -> Self {
        let mut state = seed | 1;
        let mut next = move || -> u64 {
            let mut x = state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let cells = num_cells.max(1) as u64;
        let count = 1 + (next() % 4) as usize;
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let fault = match next() % 4 {
                0 => HarnessFault::PanicCell {
                    cell: (next() % cells) as usize,
                    attempts: 1 + (next() % 2) as u32,
                },
                1 => HarnessFault::WedgeCell {
                    cell: (next() % cells) as usize,
                    attempts: 1 + (next() % 2) as u32,
                },
                2 => HarnessFault::TruncateJournal { record: (next() % 8) as usize },
                _ => HarnessFault::FlipChecksumByte { record: (next() % 8) as usize },
            };
            faults.push(fault);
        }
        HarnessFaultPlan { seed, faults }
    }

    /// The seed the plan was derived from (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injected faults.
    pub fn faults(&self) -> &[HarnessFault] {
        &self.faults
    }

    /// Whether `cell`'s 1-based `attempt` should panic.
    pub fn panics(&self, cell: usize, attempt: u32) -> bool {
        self.faults.iter().any(|f| {
            matches!(*f, HarnessFault::PanicCell { cell: c, attempts } if c == cell && attempt <= attempts)
        })
    }

    /// Whether `cell`'s 1-based `attempt` should run wedged.
    pub fn wedges(&self, cell: usize, attempt: u32) -> bool {
        self.faults.iter().any(|f| {
            matches!(*f, HarnessFault::WedgeCell { cell: c, attempts } if c == cell && attempt <= attempts)
        })
    }

    /// Applies the plan's journal faults (truncation, checksum flips)
    /// to the journal at `path`, returning a description of each fault
    /// that actually landed (a fault targeting a record the journal
    /// does not hold is a no-op).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from the corruption helpers.
    pub fn apply_journal_faults(&self, path: &Path) -> std::io::Result<Vec<String>> {
        let mut applied = Vec::new();
        for f in &self.faults {
            match *f {
                HarnessFault::TruncateJournal { record } => {
                    if sim_metrics::journal::truncate_mid_record(path, record)? {
                        applied.push(format!("truncated journal mid-record {record}"));
                    }
                }
                HarnessFault::FlipChecksumByte { record } => {
                    if sim_metrics::journal::corrupt_record_checksum(path, record)? {
                        applied.push(format!("flipped checksum byte of record {record}"));
                    }
                }
                HarnessFault::PanicCell { .. } | HarnessFault::WedgeCell { .. } => {}
            }
        }
        Ok(applied)
    }
}

/// The persistent content-addressed cell cache: a last-writer-wins view
/// over the append-only journal in its cache directory.
pub struct CellCache {
    path: PathBuf,
    entries: HashMap<String, RunRecord>,
    writer: Mutex<JournalWriter>,
    damage: Option<String>,
    malformed: usize,
}

impl CellCache {
    /// The journal file a cache directory uses.
    pub fn journal_path(dir: &Path) -> PathBuf {
        dir.join("cells.journal")
    }

    /// Opens (creating if needed) the cache under `dir`: reads the
    /// journal, truncates any damaged tail so the file is clean again,
    /// and merges intact records last-writer-wins. Records that fail to
    /// parse (e.g. written by an older schema) are skipped and counted,
    /// never served.
    ///
    /// # Errors
    ///
    /// Reports directory-creation and journal I/O errors.
    pub fn open(dir: &Path) -> Result<CellCache, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create cache dir {dir:?}: {e}"))?;
        let path = Self::journal_path(dir);
        let (writer, read) = JournalWriter::open_repairing(&path)
            .map_err(|e| format!("open cell journal {path:?}: {e}"))?;
        let mut entries = HashMap::new();
        let mut malformed = 0usize;
        for payload in &read.payloads {
            match parse_cache_payload(payload) {
                Some((key, record)) => {
                    entries.insert(key, record);
                }
                None => malformed += 1,
            }
        }
        Ok(CellCache {
            path,
            entries,
            writer: Mutex::new(writer),
            damage: read.damage.map(|d| d.to_string()),
            malformed,
        })
    }

    /// The journal file backing this cache.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Damage found (and repaired away) when the journal was opened.
    pub fn damage(&self) -> Option<&str> {
        self.damage.as_deref()
    }

    /// Intact-but-unparseable records skipped at open.
    pub fn malformed(&self) -> usize {
        self.malformed
    }

    /// Cached entries visible after the last-writer-wins merge.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached record for `key`, if any.
    pub fn lookup(&self, key: &str) -> Option<&RunRecord> {
        self.entries.get(key)
    }

    /// Appends a completed cell to the journal. The write is a single
    /// unbuffered syscall, so a SIGKILL between cells loses at most the
    /// record being written — which the next open detects and drops.
    ///
    /// # Errors
    ///
    /// Reports journal write errors.
    pub fn commit(&self, key: &str, record: &RunRecord) -> Result<(), String> {
        let payload = Json::Obj(vec![
            ("key".into(), Json::Str(key.to_string())),
            ("run".into(), run_to_json(record)),
        ])
        .render();
        let mut writer = self.writer.lock().map_err(|_| "cell journal lock poisoned")?;
        writer.append(payload.as_bytes()).map_err(|e| format!("append to cell journal: {e}"))
    }
}

fn parse_cache_payload(payload: &[u8]) -> Option<(String, RunRecord)> {
    let text = std::str::from_utf8(payload).ok()?;
    let v = parse(text).ok()?;
    let key = v.get("key")?.as_str()?.to_string();
    let record = run_from_json(v.get("run")?).ok()?;
    Some((key, record))
}

/// Knobs of the resilient executor. [`Resilience::default`] disables
/// everything and reproduces the raw executor's behavior exactly.
#[derive(Debug, Clone, Default)]
pub struct Resilience {
    /// Cache directory (`--cache-dir`); `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Retries per failed cell (`--retries`); 0 = fail on first error.
    pub retries: u32,
    /// Base backoff in wall milliseconds before retry `n`, growing as
    /// `backoff_ms << (n-1)` capped at 2 s (`--retry-backoff-ms`).
    /// Backoff paces wall-clock execution only; it cannot affect any
    /// simulated statistic.
    pub backoff_ms: u64,
    /// Per-cell deadline in simulated cycles (`--cell-deadline`),
    /// applied by tightening the forward-progress watchdog.
    pub cell_deadline: Option<u64>,
    /// Kill the process (SIGKILL-hard, no unwinding, no flushing) right
    /// after this many cells have been committed to the cache
    /// (`--kill-after-cells`). The CI resilience job uses this to prove
    /// kill-and-resume byte-identity; useless without a cache dir.
    pub kill_after_cells: Option<u64>,
    /// Harness-level fault plan (tests only).
    pub faults: Option<HarnessFaultPlan>,
    /// Simulator-level fault-plan seed, mixed per cell index — the
    /// composed-layer hook `tests/liveness.rs` uses. Folded into the
    /// cache key, so faulted and healthy sweeps never share entries.
    pub sim_fault_seed: Option<u64>,
}

/// What the resilient executor did besides producing records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Cells served from the cache.
    pub cache_hits: u64,
    /// Cells looked up but absent (then computed).
    pub cache_misses: u64,
    /// Cells committed to the cache this run.
    pub committed: u64,
    /// Journal damage found and repaired at open, if any.
    pub journal_damage: Option<String>,
    /// Intact-but-unparseable journal records skipped at open.
    pub journal_malformed: usize,
    /// Cell attempts that failed and were retried.
    pub retried_attempts: u64,
    /// Distinct TB programs materialized and lowered (once per
    /// workload, shared by its cells).
    pub programs_built: u64,
    /// TB programs the simulated cells dispatched, served from the
    /// per-workload memos (`programs_built` of them built on a miss).
    pub programs_served: u64,
}

/// The per-workload program memos of one sweep. A workload's memo is
/// created when its first cell needs simulating (a fully cached
/// workload never builds one) and dropped when its last cell finishes,
/// so only the workloads in flight hold lowered programs.
struct WorkloadMemos {
    slots: Mutex<HashMap<usize, MemoSlot>>,
    built: AtomicU64,
    served: AtomicU64,
}

struct MemoSlot {
    cells_left: usize,
    memo: Option<Arc<ProgramMemo>>,
}

/// Cells share a memo exactly when they share a workload object.
fn workload_id(cell: &MatrixCell) -> usize {
    Arc::as_ptr(&cell.workload).cast::<()>() as usize
}

impl WorkloadMemos {
    fn new(cells: &[MatrixCell]) -> Self {
        let mut slots = HashMap::new();
        for cell in cells {
            slots
                .entry(workload_id(cell))
                .or_insert(MemoSlot { cells_left: 0, memo: None })
                .cells_left += 1;
        }
        WorkloadMemos {
            slots: Mutex::new(slots),
            built: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<usize, MemoSlot>> {
        // Every update is one map or counter operation, so the map is
        // valid even if a holder panicked.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memo `cell`'s workload shares, created on first use.
    fn acquire(&self, cell: &MatrixCell, cfg: &GpuConfig) -> Arc<ProgramMemo> {
        let mut slots = self.lock();
        let slot = slots.entry(workload_id(cell)).or_insert(MemoSlot { cells_left: 1, memo: None });
        slot.memo.get_or_insert_with(|| Arc::new(ProgramMemo::for_config(cfg))).clone()
    }

    /// Marks one of `cell`'s workload's cells finished; the last one
    /// drops the memo and folds its counts into the totals.
    fn release(&self, cell: &MatrixCell) {
        let memo = {
            let mut slots = self.lock();
            let Some(slot) = slots.get_mut(&workload_id(cell)) else { return };
            slot.cells_left = slot.cells_left.saturating_sub(1);
            if slot.cells_left > 0 {
                return;
            }
            slots.remove(&workload_id(cell)).and_then(|slot| slot.memo)
        };
        if let Some(memo) = memo {
            self.built.fetch_add(memo.built(), Ordering::Relaxed);
            self.served.fetch_add(memo.served(), Ordering::Relaxed);
        }
    }

    /// Memos alive right now.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.lock().values().filter(|slot| slot.memo.is_some()).count()
    }

    /// `(built, served)` over every memo, released or not.
    fn totals(&self) -> (u64, u64) {
        let slots = self.lock();
        let live = slots.values().filter_map(|slot| slot.memo.as_ref());
        live.fold(
            (self.built.load(Ordering::Relaxed), self.served.load(Ordering::Relaxed)),
            |t, m| (t.0 + m.built(), t.1 + m.served()),
        )
    }
}

/// Runs a cell list under the resilience policy. Records and failures
/// come back in canonical input order for any `jobs`; an `Err` is a
/// setup failure (unusable cache directory), never a cell failure.
///
/// # Errors
///
/// Reports cache-directory and journal I/O errors at setup.
// The worker closure's Err arm is a full CellFailure; it is built once
// per *failed* cell, so its size is irrelevant next to a simulation.
#[allow(clippy::result_large_err)]
pub fn run_matrix_cells_resilient(
    cells: &[MatrixCell],
    jobs: usize,
    cfg: &GpuConfig,
    sweep_tag: &str,
    res: &Resilience,
) -> Result<(SweepOutcome, ResilienceReport), String> {
    let cache = match &res.cache_dir {
        Some(dir) => Some(CellCache::open(dir)?),
        None => None,
    };
    let mut run_cfg = cfg.clone();
    if let Some(deadline) = res.cell_deadline {
        run_cfg.tighten_watchdog(deadline);
    }
    let mut wedge_cfg = run_cfg.clone();
    wedge_cfg.tighten_watchdog(WEDGE_WATCHDOG);

    let total = cells.len();
    let done = AtomicUsize::new(0);
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let committed = AtomicU64::new(0);
    let retried = AtomicU64::new(0);

    let memos = WorkloadMemos::new(cells);
    let supervise = |i: usize| {
        let cell = &cells[i];
        let key = cache.as_ref().map(|_| cell_key(cell, &run_cfg, sweep_tag, res.sim_fault_seed));
        if let (Some(cache), Some(key)) = (&cache, &key) {
            if let Some(record) = cache.lookup(key) {
                hits.fetch_add(1, Ordering::Relaxed);
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "[{n}/{total}] {} {} {}: cached",
                    cell.workload.full_name(),
                    cell.model,
                    cell.scheduler
                );
                return Ok(record.clone());
            }
            misses.fetch_add(1, Ordering::Relaxed);
        }

        let memo = memos.acquire(cell, &run_cfg);
        let total_attempts = res.retries.saturating_add(1);
        let mut last_cause = FailureCause::Panic("cell never attempted".to_string());
        for attempt in 1..=total_attempts {
            if attempt > 1 {
                retried.fetch_add(1, Ordering::Relaxed);
                backoff(res.backoff_ms, attempt);
            }
            match attempt_cell(cell, i, attempt, &run_cfg, &wedge_cfg, res, &memo) {
                Ok(record) => {
                    if let (Some(cache), Some(key)) = (&cache, &key) {
                        if let Err(e) = cache.commit(key, &record) {
                            eprintln!("warning: {e}");
                        } else {
                            let c = committed.fetch_add(1, Ordering::Relaxed) + 1;
                            if Some(c) == res.kill_after_cells {
                                kill_self_hard();
                            }
                        }
                    }
                    let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!(
                        "[{n}/{total}] {} {} {}: {} cycles, IPC {:.1}",
                        cell.workload.full_name(),
                        cell.model,
                        cell.scheduler,
                        record.cycles,
                        record.ipc
                    );
                    return Ok(record);
                }
                Err(cause) => {
                    if attempt < total_attempts {
                        eprintln!(
                            "retrying {} {} {} (attempt {attempt} of {total_attempts}): {cause}",
                            cell.workload.full_name(),
                            cell.model,
                            cell.scheduler
                        );
                    }
                    last_cause = cause;
                }
            }
        }
        Err(CellFailure {
            cell_index: i,
            workload: cell.workload.full_name(),
            launch_model: cell.model.name().to_string(),
            scheduler: cell.scheduler.name().to_string(),
            attempts: total_attempts,
            cause: last_cause,
        })
    };
    let indices: Vec<usize> = (0..cells.len()).collect();
    let results = run_cells(&indices, jobs, |&i| {
        let result = supervise(i);
        memos.release(&cells[i]);
        result
    });

    let mut records = Vec::new();
    let mut failures = Vec::new();
    for (i, result) in results.into_iter().enumerate() {
        match result {
            Ok(Ok(record)) => records.push(record),
            Ok(Err(failure)) => failures.push(failure.to_sweep_failure()),
            // The supervision loop itself panicked — nothing structured
            // survived, so fall back to the raw message.
            Err(error) => {
                let cell = &cells[i];
                failures.push(SweepFailure {
                    cell_index: i,
                    workload: cell.workload.full_name(),
                    launch_model: cell.model.name().to_string(),
                    scheduler: cell.scheduler.name().to_string(),
                    attempts: 1,
                    error,
                });
            }
        }
    }
    let (programs_built, programs_served) = memos.totals();
    let report = ResilienceReport {
        cache_hits: hits.into_inner(),
        cache_misses: misses.into_inner(),
        committed: committed.into_inner(),
        journal_damage: cache.as_ref().and_then(|c| c.damage().map(str::to_string)),
        journal_malformed: cache.as_ref().map(CellCache::malformed).unwrap_or(0),
        retried_attempts: retried.into_inner(),
        programs_built,
        programs_served,
    };
    Ok((SweepOutcome { records, failures }, report))
}

/// One supervised attempt at one cell: harness faults first, then the
/// simulator (with the composed simulator-level fault plan, if any),
/// with panics caught and `SimError`s classified.
fn attempt_cell(
    cell: &MatrixCell,
    index: usize,
    attempt: u32,
    run_cfg: &GpuConfig,
    wedge_cfg: &GpuConfig,
    res: &Resilience,
    memo: &Arc<ProgramMemo>,
) -> Result<RunRecord, FailureCause> {
    let plan = res.faults.as_ref();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if plan.is_some_and(|p| p.panics(index, attempt)) {
            panic!("injected harness panic: cell {index} attempt {attempt}");
        }
        let (cfg, fault_plan) = if plan.is_some_and(|p| p.wedges(index, attempt)) {
            (wedge_cfg, Some(kill_all_smxs_plan(wedge_cfg)))
        } else {
            (run_cfg, res.sim_fault_seed.map(|s| sim_plan_for_cell(s, index, run_cfg)))
        };
        run_with_latency_faulted(
            &cell.workload,
            cell.model,
            LaunchLatency::default_for(cell.model),
            cell.scheduler,
            cfg,
            fault_plan,
            Some(memo),
        )
    }));
    match result {
        Ok(Ok(record)) => Ok(record),
        Ok(Err(e)) => match &e {
            SimError::NoForwardProgress { window, cycle, .. } => Err(FailureCause::Deadline {
                window: *window,
                cycle: *cycle,
                message: e.to_string(),
            }),
            _ => Err(FailureCause::Sim(e.to_string())),
        },
        Err(payload) => Err(FailureCause::Panic(panic_message(payload.as_ref()))),
    }
}

/// A plan that freezes every SMX from cycle 0 forever — the harness
/// wedge injection. The watchdog (tightened to [`WEDGE_WATCHDOG`]) is
/// what turns this into a structured deadline failure.
fn kill_all_smxs_plan(cfg: &GpuConfig) -> FaultPlan {
    FaultPlan::new(
        (0..cfg.num_smxs)
            .map(|i| Fault::KillSmx { smx: SmxId(i), from: 0, until: u64::MAX })
            .collect(),
    )
}

/// The simulator-level plan for one cell under a composed sweep: the
/// base seed mixed with the cell index (golden-ratio multiply) so every
/// cell sees a different but fully deterministic fault mix.
fn sim_plan_for_cell(base_seed: u64, index: usize, cfg: &GpuConfig) -> FaultPlan {
    let mixed = base_seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    FaultPlan::from_seed(mixed, cfg.num_smxs)
}

/// Deterministic exponential backoff before 1-based retry `attempt`
/// (attempt 2 sleeps `base`, attempt 3 sleeps `2 * base`, …, capped).
fn backoff(base_ms: u64, attempt: u32) {
    if base_ms == 0 {
        return;
    }
    let shift = attempt.saturating_sub(2).min(16);
    let ms = base_ms.saturating_mul(1 << shift).min(MAX_BACKOFF_MS);
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// Kills the current process without unwinding or flushing — the
/// harness's stand-in for a SIGKILL from outside. Prefers a real
/// SIGKILL (so even atexit hooks cannot run) and falls back to abort.
fn kill_self_hard() -> ! {
    let _ =
        std::process::Command::new("kill").arg("-9").arg(std::process::id().to_string()).status();
    std::process::abort();
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::sweep::matrix_cells;
    use gpu_sim::stats::StallBreakdown;
    use sim_metrics::harness::HostCost;
    use workloads::Scale;

    fn cells() -> Vec<MatrixCell> {
        matrix_cells(Scale::Tiny, 0)
    }

    fn record(workload: &str, cycles: u64) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            launch_model: "dtbl".into(),
            scheduler: "rr".into(),
            cycles,
            ipc: 1.5,
            l1_hit_rate: 0.5,
            l2_hit_rate: 0.25,
            child_l1_hit_rate: 0.5,
            mean_child_wait: 10.0,
            parent_smx_affinity: 0.5,
            smx_utilization: 0.5,
            load_imbalance: 1.0,
            dynamic_tbs: 4,
            total_tbs: 8,
            steals: 0,
            queue_overflows: 0,
            queue_pushes: 0,
            max_queue_depth: 0,
            queue_search_cycles: 0,
            table_overflows: 0,
            stalls: StallBreakdown::default(),
            locality: None,
            engine: None,
            latency: None,
            host: HostCost::default(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("laperm-resilience-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn cell_keys_are_stable_and_distinguish_every_axis() {
        let cells = cells();
        let cfg = GpuConfig::kepler_k20c();
        let key = |c: &MatrixCell| cell_key(c, &cfg, "tiny/0", None);
        assert_eq!(key(&cells[0]), key(&cells[0]), "same cell must hash identically");
        assert_eq!(key(&cells[0]).len(), 32);
        // All 128 canonical cells get distinct keys.
        let mut keys: Vec<String> = cells.iter().map(key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "cell key collision in the canonical matrix");
        // The sweep tag, fault seed, and config are all load-bearing.
        assert_ne!(key(&cells[0]), cell_key(&cells[0], &cfg, "ci/0", None));
        assert_ne!(key(&cells[0]), cell_key(&cells[0], &cfg, "tiny/1", None));
        assert_ne!(key(&cells[0]), cell_key(&cells[0], &cfg, "tiny/0", Some(7)));
        let mut other_cfg = cfg.clone();
        other_cfg.profile_locality = !cfg.profile_locality;
        assert_ne!(key(&cells[0]), cell_key(&cells[0], &other_cfg, "tiny/0", None));
    }

    #[test]
    fn program_paths_never_share_cached_cells() {
        // One workload's sub-matrix through the generator path fills
        // the cache; the same cells served by the DSL port must miss.
        let cfg = crate::sweep::sweep_config(gpu_sim::config::EngineMode::Event, false);
        let dir = temp_dir("program-paths");
        let res = Resilience { cache_dir: Some(dir.clone()), ..Resilience::default() };
        let sweep = |path| {
            let suite = crate::sweep::suite_for_path(Scale::Tiny, 0, path).unwrap();
            let cells = crate::sweep::matrix_cells_for(&suite[..1]);
            run_matrix_cells_resilient(&cells, 1, &cfg, "tiny/0", &res).unwrap()
        };
        let (generator, filled) = sweep(crate::sweep::ProgramPath::Generator);
        assert_eq!((filled.cache_hits, filled.committed), (0, 8));
        let (dsl, report) = sweep(crate::sweep::ProgramPath::Dsl);
        assert_eq!((report.cache_hits, report.cache_misses), (0, 8), "DSL cells served from cache");
        assert_eq!(dsl.records, generator.records);
        // A second DSL sweep now hits its own cells.
        assert_eq!(sweep(crate::sweep::ProgramPath::Dsl).1.cache_hits, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_workload_memo_lives_from_first_simulated_cell_to_last_cell() {
        let cells = cells();
        let (a, b) = (&cells[0..8], &cells[8..16]);
        let cfg = GpuConfig::kepler_k20c();
        let memos = WorkloadMemos::new(&cells[..16]);
        assert_eq!(memos.live(), 0, "memos are created lazily");
        // Only cells that simulate acquire: a cached cell just releases.
        memos.release(&a[0]);
        let memo = memos.acquire(&a[1], &cfg);
        assert!(Arc::ptr_eq(&memo, &memos.acquire(&a[7], &cfg)), "one memo per workload");
        let other = memos.acquire(&b[0], &cfg);
        assert!(!Arc::ptr_eq(&memo, &other));
        assert_eq!(memos.live(), 2);
        let weak = Arc::downgrade(&memo);
        drop(memo);
        for cell in &a[1..7] {
            memos.release(cell);
        }
        assert!(weak.upgrade().is_some(), "released before the workload's last cell");
        memos.release(&a[7]);
        assert!(weak.upgrade().is_none(), "memo outlived its workload's last cell");
        assert_eq!(memos.live(), 1);
    }

    #[test]
    fn fingerprint_changes_miss_but_noop_rebuilds_hit() {
        let cells = cells();
        let cfg = GpuConfig::kepler_k20c();
        let shipped = cell_key(&cells[0], &cfg, "tiny/0", None);
        // A no-op rebuild (same declared fingerprint) addresses the same
        // entry; a semantic revision misses and recomputes.
        let rebuilt = cell_key_with_fingerprint(&cells[0], &cfg, "tiny/0", None, CODE_FINGERPRINT);
        assert_eq!(shipped, rebuilt);
        let revised =
            cell_key_with_fingerprint(&cells[0], &cfg, "tiny/0", None, "laperm-bench/9.9.9+sim-r2");
        assert_ne!(shipped, revised);
    }

    #[test]
    fn harness_fault_plans_are_deterministic_and_bounded() {
        for seed in 0..32u64 {
            let a = HarnessFaultPlan::from_seed(seed, 16);
            let b = HarnessFaultPlan::from_seed(seed, 16);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.faults().is_empty() && a.faults().len() <= 4);
            for f in a.faults() {
                match *f {
                    HarnessFault::PanicCell { cell, attempts }
                    | HarnessFault::WedgeCell { cell, attempts } => {
                        assert!(cell < 16, "seed {seed}: cell {cell} out of range");
                        assert!(
                            (1..=2).contains(&attempts),
                            "seed {seed}: seeded cell faults must be transient"
                        );
                    }
                    HarnessFault::TruncateJournal { record }
                    | HarnessFault::FlipChecksumByte { record } => assert!(record < 8),
                }
            }
        }
    }

    #[test]
    fn fault_predicates_cover_leading_attempts_only() {
        let plan = HarnessFaultPlan::new(vec![
            HarnessFault::PanicCell { cell: 3, attempts: 2 },
            HarnessFault::WedgeCell { cell: 5, attempts: 1 },
        ]);
        assert!(plan.panics(3, 1) && plan.panics(3, 2) && !plan.panics(3, 3));
        assert!(!plan.panics(4, 1));
        assert!(plan.wedges(5, 1) && !plan.wedges(5, 2));
        assert!(!plan.wedges(3, 1));
    }

    #[test]
    fn cache_round_trips_and_duplicate_keys_take_the_last_writer() {
        let dir = temp_dir("cache-lww");
        {
            let cache = CellCache::open(&dir).unwrap();
            assert!(cache.is_empty());
            cache.commit("key-a", &record("bfs-citation", 100)).unwrap();
            cache.commit("key-b", &record("join-uniform", 200)).unwrap();
            // Recomputed cell appends a fresh record under the same key.
            cache.commit("key-a", &record("bfs-citation", 300)).unwrap();
        }
        let cache = CellCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.damage(), None);
        assert_eq!(cache.malformed(), 0);
        assert_eq!(cache.lookup("key-a").unwrap().cycles, 300, "last writer must win");
        assert_eq!(cache.lookup("key-b").unwrap().cycles, 200);
        assert!(cache.lookup("key-c").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cache_records_are_dropped_and_reported() {
        let dir = temp_dir("cache-corrupt");
        {
            let cache = CellCache::open(&dir).unwrap();
            cache.commit("key-a", &record("bfs-citation", 100)).unwrap();
            cache.commit("key-b", &record("join-uniform", 200)).unwrap();
        }
        let journal = CellCache::journal_path(&dir);
        assert!(sim_metrics::journal::corrupt_record_checksum(&journal, 1).unwrap());
        let cache = CellCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1, "damaged record must not be served");
        assert!(cache.damage().unwrap().contains("checksum mismatch"));
        assert!(cache.lookup("key-b").is_none());
        // The open repaired the file: a third open is clean.
        drop(cache);
        let cache = CellCache::open(&dir).unwrap();
        assert_eq!(cache.damage(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backoff_shifts_are_capped() {
        // Pure timing: just prove the arithmetic cannot overflow or
        // sleep past the cap even at absurd attempt counts.
        backoff(0, 1000);
        let shift = 1000u32.saturating_sub(2).min(16);
        assert_eq!(shift, 16);
        assert_eq!(u64::MAX.saturating_mul(1 << shift).min(MAX_BACKOFF_MS), MAX_BACKOFF_MS);
    }
}
