//! One report run's simulations, deduplicated by cell key.
//!
//! A [`Session`] belongs to one `repro` run (or one
//! [`crate::full_report`] call). It sweeps the evaluation matrix first
//! and then each study section's cells, all through
//! [`run_matrix_cells_resilient`] under one sweep configuration and one
//! resilience policy. Every record it receives stays held under
//! its [`cell_key`], so a study point equal to a matrix cell or an
//! earlier point is served from memory and only the misses reach the
//! executor. The matrix path itself computes no extra key.

use std::collections::HashMap;
use std::sync::Arc;

use gpu_sim::config::GpuConfig;
use sim_metrics::harness::RunRecord;
use workloads::{Scale, Workload};

use crate::resilience::{cell_key, run_matrix_cells_resilient, Resilience, ResilienceReport};
use crate::sweep::{
    matrix_cells_for, MatrixCell, ProgramPath, SweepDoc, SweepFailure, SweepOutcome,
};

/// The simulations of one report run (see the module docs).
pub struct Session {
    /// The suite scale.
    pub(crate) scale: Scale,
    /// What cell keys name the inputs by: the scale, or `file` for a
    /// workload whose source fixes its own inputs.
    inputs: &'static str,
    /// The program path the suite is served through.
    pub(crate) programs: ProgramPath,
    /// The worker count.
    pub(crate) jobs: usize,
    cfg: GpuConfig,
    res: Resilience,
    /// Every record received, by cell key. A failed cell holds its
    /// [`failed_record`], so it fails (and prints) once.
    held: HashMap<String, RunRecord>,
    report: ResilienceReport,
    failures: Vec<SweepFailure>,
    /// The first batch that could not start, and why.
    setup_error: Option<String>,
}

impl Session {
    /// A session over the suite of `scale` on the `programs` path whose
    /// cells run under the sweep configuration `cfg` and the policy
    /// `res` on `jobs` workers.
    pub fn new(
        scale: Scale,
        programs: ProgramPath,
        cfg: GpuConfig,
        jobs: usize,
        res: Resilience,
    ) -> Self {
        let (held, report, failures, setup_error) = Default::default();
        let inputs = scale.name();
        Session { scale, inputs, programs, jobs, cfg, res, held, report, failures, setup_error }
    }

    /// This session, its cells keyed independently of the scale: for a
    /// workload whose source fixes its own inputs (`repro dsl FILE`), so
    /// the same file hits the same cells at any `--scale`.
    pub fn with_fixed_inputs(mut self) -> Self {
        self.inputs = "file";
        self
    }

    /// What the executor did, totalled over every batch.
    pub fn report(&self) -> &ResilienceReport {
        &self.report
    }

    /// The study cells that failed after their retries (the matrix's
    /// are in its document).
    pub fn failures(&self) -> &[SweepFailure] {
        &self.failures
    }

    /// Why a batch could not start (an unusable cache directory), if
    /// one could not: its cells, and every later batch's, read as zero
    /// records.
    pub fn setup_error(&self) -> Option<&str> {
        self.setup_error.as_deref()
    }

    /// Sweeps the matrix of `all`, the seed-0 suite, as
    /// [`SweepDoc::build_matrix`] does, and holds its records.
    ///
    /// # Errors
    ///
    /// Reports cache-directory or journal I/O setup errors; per-cell
    /// failures land in the document's `failures`.
    pub fn matrix(&mut self, all: &[Arc<dyn Workload>]) -> Result<SweepDoc, String> {
        let (doc, report) =
            SweepDoc::build_matrix(self.scale, 0, self.jobs, &self.cfg, all, &self.policy())?;
        let keys: Vec<String> = matrix_cells_for(all).iter().map(|c| self.key(c, 0)).collect();
        let outcome = SweepOutcome { records: doc.records.clone(), failures: doc.failures.clone() };
        self.hold(&keys, outcome, &report);
        Ok(doc)
    }

    /// The records of `cells`, whose workloads come from the suite of
    /// input `seed`, in cell order. Held cells are served and the rest
    /// run as one executor batch. A cell that fails after its retries
    /// joins [`Session::failures`] and reads as its names over zero
    /// measurements. A batch that cannot start records
    /// [`Session::setup_error`] and reads as zero records.
    pub fn run(&mut self, seed: u64, cells: &[MatrixCell]) -> Vec<RunRecord> {
        let keys: Vec<String> = cells.iter().map(|c| self.key(c, seed)).collect();
        let (mut batch, mut batch_keys) = (Vec::new(), Vec::new());
        for (cell, key) in cells.iter().zip(&keys) {
            if !self.held.contains_key(key) && !batch_keys.contains(key) {
                batch.push(cell.clone());
                batch_keys.push(key.clone());
            }
        }
        if !batch.is_empty() && self.setup_error.is_none() {
            let tag = format!("{}/{seed}", self.inputs);
            match run_matrix_cells_resilient(&batch, self.jobs, &self.cfg, &tag, &self.policy()) {
                Ok((outcome, report)) => {
                    self.failures.extend_from_slice(&outcome.failures);
                    self.hold(&batch_keys, outcome, &report);
                }
                Err(e) => self.setup_error = Some(e),
            }
        }
        keys.iter().map(|k| self.held.get(k).cloned().unwrap_or_default()).collect()
    }

    /// The in-memory key of `cell` (every cell of a session shares its
    /// deadline, so the sweep configuration stands in for the run's).
    fn key(&self, cell: &MatrixCell, seed: u64) -> String {
        let tag = format!("{}/{seed}", self.inputs);
        cell_key(cell, &self.cfg, &tag, self.res.sim_fault_seed)
    }

    /// The session's policy, its `--kill-after-cells` budget reduced by
    /// the cells already committed, so the kill counts the whole run.
    fn policy(&self) -> Resilience {
        let mut res = self.res.clone();
        res.kill_after_cells =
            res.kill_after_cells.map(|n| n.saturating_sub(self.report.committed));
        res
    }

    /// Holds one batch's `outcome` under its cells' `keys` and adds `r`
    /// to the run's totals.
    fn hold(&mut self, keys: &[String], outcome: SweepOutcome, r: &ResilienceReport) {
        let mut records = outcome.records.into_iter();
        for (i, key) in keys.iter().enumerate() {
            let record = match outcome.failures.iter().find(|f| f.cell_index == i) {
                Some(f) => failed_record(f),
                None => records.next().unwrap_or_default(),
            };
            self.held.insert(key.clone(), record);
        }
        let t = &mut self.report;
        t.cache_hits += r.cache_hits;
        t.cache_misses += r.cache_misses;
        t.committed += r.committed;
        t.retried_attempts += r.retried_attempts;
        t.programs_built += r.programs_built;
        t.programs_served += r.programs_served;
        // Only the first open can find damage: it repairs the journal.
        t.journal_damage = t.journal_damage.take().or_else(|| r.journal_damage.clone());
        t.journal_malformed = t.journal_malformed.max(r.journal_malformed);
    }
}

/// What a failed cell reads as: its names, every measurement zero.
fn failed_record(f: &SweepFailure) -> RunRecord {
    RunRecord {
        workload: f.workload.clone(),
        launch_model: f.launch_model.clone(),
        scheduler: f.scheduler.clone(),
        ..RunRecord::default()
    }
}
