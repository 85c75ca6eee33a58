//! Crash-safety suite for the resilient sweep executor.
//!
//! Proves the three contracts the cell cache and per-cell supervision
//! exist for (docs/ARCHITECTURE.md, "Resilient sweeps"):
//!
//! 1. **Kill-and-resume byte-identity** — a sweep interrupted after any
//!    number of committed cells resumes from `--cache-dir` and writes a
//!    `repro.json` byte-identical to a one-shot run, at any `--jobs`.
//! 2. **Corrupt entries are recomputed, never served** — checksum flips
//!    and truncated tails in the journal are detected at open, dropped,
//!    repaired, and the affected cells recomputed to identical records.
//! 3. **Retries are deterministic and jobs-invariant** — injected
//!    harness faults (panics, wedges) retry on a fixed schedule and
//!    produce identical documents regardless of worker count.
//!
//! The in-process kill here truncates the run at a cell boundary (the
//! journal commits each cell in one write, so a SIGKILL can only ever
//! land between commits or mid-record — both covered). The real
//! SIGKILL rehearsal lives in the CI `repro-gate` job, which kills
//! `repro all --kill-after-cells 48` from outside, resumes, and diffs
//! the result against the job's one reference sweep.

use std::path::{Path, PathBuf};

use gpu_sim::config::{EngineMode, GpuConfig};
use laperm_bench::sweep::{footprint_analyses, matrix_cells, sweep_config, ProgramPath};
use laperm_bench::{
    full_report, run_matrix_cells_resilient, CellCache, HarnessFault, HarnessFaultPlan,
    MatrixRecords, Resilience, Session, SweepDoc,
};
use sim_metrics::harness::RunRecord;
use workloads::{suite, Scale};

/// The exact configuration `SweepDoc::build` hands the executor — cache
/// keys fold the config in, so the pre-populated journal in the resume
/// test must be written under the same one.
fn doc_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::kepler_k20c();
    cfg.profile_locality = true;
    cfg.engine_mode = EngineMode::Event;
    cfg
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("laperm-sweep-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn cached(dir: &Path) -> Resilience {
    Resilience { cache_dir: Some(dir.to_path_buf()), ..Resilience::default() }
}

/// Contract 1. A run killed after 40 committed cells (simulated by
/// running only a 40-cell prefix against the cache) resumes into a
/// byte-identical `repro.json`, and a further all-hits rerun at a
/// different `--jobs` renders the same bytes from the cache alone.
#[test]
fn kill_and_resume_repro_json_is_byte_identical() {
    let dir = temp_dir("resume");
    let one_shot = SweepDoc::build(Scale::Tiny, 0, 4).to_json();

    // The "killed" first run: only 40 of 128 cells ever committed.
    let cells = matrix_cells(Scale::Tiny, 0);
    let cfg = doc_cfg();
    let (partial, report) =
        run_matrix_cells_resilient(&cells[..40], 4, &cfg, "tiny/0", &cached(&dir))
            .expect("partial run");
    assert!(partial.failures.is_empty(), "{:?}", partial.failures);
    assert_eq!(report.committed, 40);

    // Resume: the 40 cached cells are served, the remaining 88 computed.
    let (doc, report) = SweepDoc::build_resilient(
        Scale::Tiny,
        0,
        4,
        EngineMode::Event,
        ProgramPath::Generator,
        &cached(&dir),
    )
    .expect("resumed build");
    assert_eq!(report.cache_hits, 40, "resume recomputed cached cells");
    assert_eq!(report.cache_misses, 88);
    assert_eq!(report.committed, 88);
    assert_eq!(report.journal_damage, None);
    assert_eq!(doc.to_json(), one_shot, "resumed repro.json differs from one-shot");

    // A fully warm rerun at a different --jobs is pure cache reads and
    // still renders the identical bytes.
    let (doc, report) = SweepDoc::build_resilient(
        Scale::Tiny,
        0,
        1,
        EngineMode::Event,
        ProgramPath::Generator,
        &cached(&dir),
    )
    .expect("warm rerun");
    assert_eq!(report.cache_hits, 128);
    assert_eq!(report.committed, 0);
    assert_eq!(doc.to_json(), one_shot, "warm-cache repro.json differs from one-shot");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Contract 1 covers the studies too: `full_report` rendered twice
/// through sessions over one cache directory. The second session is
/// served every matrix and study cell from the journal (0 misses) and
/// renders the identical report.
#[test]
fn full_report_resumes_its_studies_from_the_cache() {
    let dir = temp_dir("studies");
    let all = suite(Scale::Tiny);
    let footprints = footprint_analyses(&all, 2);
    let render = || {
        let cfg = sweep_config(EngineMode::Event, false);
        let mut s = Session::new(Scale::Tiny, ProgramPath::Generator, cfg, 2, cached(&dir));
        let doc = s.matrix(&all).expect("matrix");
        assert!(doc.failures.is_empty(), "{:?}", doc.failures);
        let text =
            full_report(&mut s, &all, &MatrixRecords::from_records(doc.records), &footprints);
        assert!(s.failures().is_empty(), "{:?}", s.failures());
        (text, s.report().clone())
    };
    let (first, filled) = render();
    assert_eq!(filled.cache_hits, 0);
    assert!(filled.committed > 128, "no study cell reached the cache");
    let (second, warm) = render();
    assert_eq!(warm.cache_misses, 0, "a matrix or study cell missed the cache");
    assert_eq!(warm.cache_hits, filled.committed);
    assert_eq!(warm.committed, 0);
    assert_eq!(second, first, "resumed report differs from the first");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A study cell that fails after its retries is reported once and reads
/// as its names over zero measurements; a later batch naming the same
/// cell is served that record instead of running the cell again.
#[test]
fn a_failed_study_cell_fails_once() {
    let cells = matrix_cells(Scale::Tiny, 0);
    let res = Resilience {
        faults: Some(HarnessFaultPlan::new(vec![HarnessFault::PanicCell {
            cell: 1,
            attempts: u32::MAX,
        }])),
        ..Resilience::default()
    };
    let mut s = Session::new(Scale::Tiny, ProgramPath::Generator, doc_cfg(), 2, res);
    let records = s.run(0, &cells[..2]);
    assert!(records[0].cycles > 0);
    assert_eq!(records[1].workload, cells[1].workload.full_name());
    assert_eq!(records[1].cycles, 0);
    assert_eq!(s.failures().len(), 1);
    // Alone in a batch the cell would be index 0, which the plan spares.
    let again: Vec<RunRecord> = s.run(0, &cells[1..2]);
    assert_eq!(again[0].cycles, 0, "a failed cell ran again");
    assert_eq!(s.failures().len(), 1);
}

/// Contract 2. Flipping a checksum byte mid-journal invalidates that
/// record and everything after it (append-only framing cannot trust a
/// suffix behind a bad header); the next open reports the damage,
/// repairs the file, and the dropped cells are recomputed to records
/// identical to the originals.
#[test]
fn corrupt_cache_entries_are_recomputed_not_served() {
    let dir = temp_dir("corrupt");
    let cells = matrix_cells(Scale::Tiny, 0);
    let subset = &cells[..6];
    let cfg = doc_cfg();

    let (first, report) =
        run_matrix_cells_resilient(subset, 2, &cfg, "tiny/0", &cached(&dir)).expect("seed run");
    assert_eq!(report.committed, 6);

    // Flip one checksum byte in record 3 of 6.
    let plan = HarnessFaultPlan::new(vec![HarnessFault::FlipChecksumByte { record: 3 }]);
    let applied = plan.apply_journal_faults(&CellCache::journal_path(&dir)).expect("apply fault");
    assert_eq!(applied.len(), 1, "fault did not land: {applied:?}");

    let (second, report) =
        run_matrix_cells_resilient(subset, 2, &cfg, "tiny/0", &cached(&dir)).expect("repair run");
    let damage = report.journal_damage.expect("damage went undetected");
    assert!(damage.contains("checksum mismatch"), "wrong damage class: {damage}");
    assert_eq!(report.cache_hits, 3, "a corrupt record was served");
    assert_eq!(report.cache_misses, 3);
    assert_eq!(second.records, first.records, "recomputed cells diverged from originals");

    // Truncate mid-record (the shape a SIGKILL mid-write leaves), then
    // prove the journal heals: the third open repairs, the fourth is
    // clean and fully warm.
    let plan = HarnessFaultPlan::new(vec![HarnessFault::TruncateJournal { record: 5 }]);
    let applied =
        plan.apply_journal_faults(&CellCache::journal_path(&dir)).expect("apply truncation");
    assert_eq!(applied.len(), 1, "truncation did not land: {applied:?}");
    let (third, report) =
        run_matrix_cells_resilient(subset, 2, &cfg, "tiny/0", &cached(&dir)).expect("heal run");
    let damage = report.journal_damage.expect("truncation went undetected");
    assert!(damage.contains("truncated"), "wrong damage class: {damage}");
    assert_eq!(third.records, first.records);

    let (_, report) =
        run_matrix_cells_resilient(subset, 2, &cfg, "tiny/0", &cached(&dir)).expect("warm run");
    assert_eq!(report.journal_damage, None, "journal not repaired on previous open");
    assert_eq!(report.cache_hits, 6);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Contract 3. Transient injected faults — a cell that panics on its
/// first two attempts, another wedged on its first — are retried on the
/// deterministic schedule and leave no trace in the output: records
/// match a fault-free run and are jobs-invariant.
#[test]
fn transient_faults_retry_deterministically_across_jobs() {
    let cells = matrix_cells(Scale::Tiny, 0);
    let subset = &cells[..8];
    let cfg = doc_cfg();

    let clean = run_matrix_cells_resilient(subset, 4, &cfg, "tiny/0", &Resilience::default())
        .expect("clean run")
        .0;

    let res = Resilience {
        retries: 2,
        backoff_ms: 0,
        faults: Some(HarnessFaultPlan::new(vec![
            HarnessFault::PanicCell { cell: 2, attempts: 2 },
            HarnessFault::WedgeCell { cell: 5, attempts: 1 },
        ])),
        ..Resilience::default()
    };
    for jobs in [1, 4] {
        let (outcome, report) =
            run_matrix_cells_resilient(subset, jobs, &cfg, "tiny/0", &res).expect("faulted run");
        assert!(outcome.failures.is_empty(), "jobs {jobs}: transient faults leaked: {:?}", {
            &outcome.failures
        });
        assert_eq!(outcome.records, clean.records, "jobs {jobs}: retries changed the records");
        assert_eq!(report.retried_attempts, 3, "jobs {jobs}: retry schedule drifted");
    }
}

/// Permanent faults exhaust the retry budget and degrade the sweep with
/// full attribution — cell index, attempt count, and a cause naming the
/// injection (panic) or the tripped deadline (wedge) — identically at
/// any `--jobs`, while every healthy cell still completes.
#[test]
fn permanent_faults_degrade_with_attribution() {
    let cells = matrix_cells(Scale::Tiny, 0);
    let subset = &cells[..4];
    let cfg = doc_cfg();
    let res = Resilience {
        retries: 1,
        backoff_ms: 0,
        faults: Some(HarnessFaultPlan::new(vec![
            HarnessFault::PanicCell { cell: 1, attempts: u32::MAX },
            HarnessFault::WedgeCell { cell: 3, attempts: u32::MAX },
        ])),
        ..Resilience::default()
    };

    let (first, _) =
        run_matrix_cells_resilient(subset, 2, &cfg, "tiny/0", &res).expect("faulted run");
    assert_eq!(first.records.len(), 2, "healthy cells did not survive");
    assert_eq!(first.failures.len(), 2);

    let panic_failure = &first.failures[0];
    assert_eq!(panic_failure.cell_index, 1);
    assert_eq!(panic_failure.attempts, 2, "retry budget not exhausted");
    assert_eq!(panic_failure.workload, subset[1].workload.full_name());
    assert_eq!(panic_failure.scheduler, subset[1].scheduler.to_string());
    assert!(
        panic_failure.error.contains("injected harness panic: cell 1"),
        "panic cause lost: {}",
        panic_failure.error
    );

    let wedge_failure = &first.failures[1];
    assert_eq!(wedge_failure.cell_index, 3);
    assert_eq!(wedge_failure.attempts, 2);
    assert!(
        wedge_failure.error.contains("no forward progress"),
        "wedge must surface as a deadline trip: {}",
        wedge_failure.error
    );

    let (second, _) =
        run_matrix_cells_resilient(subset, 1, &cfg, "tiny/0", &res).expect("serial run");
    assert_eq!(second.records, first.records, "records not jobs-invariant under faults");
    assert_eq!(second.failures, first.failures, "failures not jobs-invariant under faults");
}

/// `--cell-deadline` reaches the engine and the cache key. A wedged
/// cell under a 5 000-cycle deadline must trip the watchdog at exactly
/// that window (the wedge fallback window is 20 000, so seeing 5 000 in
/// the error proves the flag tightened it), and changing the deadline
/// must miss the cache while the original policy still hits.
#[test]
fn cell_deadline_is_enforced_and_keyed() {
    let dir = temp_dir("deadline");
    let cells = matrix_cells(Scale::Tiny, 0);
    let subset = &cells[..2];
    let cfg = doc_cfg();

    let healthy =
        run_matrix_cells_resilient(subset, 2, &cfg, "tiny/0", &cached(&dir)).expect("healthy").0;
    assert!(healthy.failures.is_empty());

    let res = Resilience {
        cell_deadline: Some(5_000),
        faults: Some(HarnessFaultPlan::new(vec![HarnessFault::WedgeCell {
            cell: 0,
            attempts: u32::MAX,
        }])),
        ..cached(&dir)
    };
    let (strangled, report) =
        run_matrix_cells_resilient(subset, 2, &cfg, "tiny/0", &res).expect("strangled");
    assert_eq!(report.cache_hits, 0, "deadline change must miss the cache");
    assert_eq!(strangled.records.len(), 1, "healthy cell must survive");
    assert_eq!(strangled.failures.len(), 1);
    let f = &strangled.failures[0];
    assert_eq!(f.cell_index, 0);
    assert_eq!(f.attempts, 1);
    assert!(
        f.error.contains("no forward progress for 5000 cycles"),
        "deadline did not reach the engine: {}",
        f.error
    );

    // Back at the original policy the healthy entries still hit.
    let (_, report) =
        run_matrix_cells_resilient(subset, 2, &cfg, "tiny/0", &cached(&dir)).expect("warm");
    assert_eq!(report.cache_hits, 2);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
