//! Experiment definitions for the LaPerm reproduction.
//!
//! Each function regenerates one table or figure of the paper as a
//! formatted text report (see DESIGN.md for the experiment index). The
//! `repro` binary exposes them as subcommands, and every matrix
//! subcommand runs the evaluation matrix through the one resilient
//! sweep ([`SweepDoc::build_matrix`]). Wall-clock throughput is
//! measured by the separate `perfbench` package at the repository root.
//!
//! * [`sweep`] — work-queue executor fanning independent simulations
//!   over cores, plus the `repro.json` document it emits.
//! * [`resilience`] — crash-safe sweep execution: content-addressed cell
//!   cache over an append-only journal, per-cell supervision
//!   (deadline/retry/backoff), and harness-level fault injection.
//! * [`shapes`] — EXPERIMENTS.md's qualitative claims as machine-checked
//!   assertions over `repro.json` (the `repro check` reproduction gate).
//! * [`cli`] — strict flag parsing shared by the `repro`, `laperm-sim`
//!   and `laperm-trace` binaries.

// Library code must not panic on fallible lookups; tests opt back
// in locally.
#![deny(clippy::unwrap_used)]

pub mod cli;
pub mod experiments;
pub mod fig4;
pub mod resilience;
pub mod shapes;
pub mod sweep;

pub use experiments::{
    ablate, fig7, fig8, fig9, full_report, generality, latency_attribution, latency_report,
    latency_sweep, locality, overhead, profile, saturation, sweep_cache, table1, table2, timeline,
    variance, MatrixRecords,
};
pub use fig4::figure4;
pub use resilience::{
    cell_key, cell_key_with_fingerprint, run_matrix_cells_resilient, CellCache, CellFailure,
    FailureCause, HarnessFault, HarnessFaultPlan, Resilience, ResilienceReport, CODE_FINGERPRINT,
};
pub use shapes::{
    check_document, evaluate_shapes, render_check_report, render_shape_report, CheckVerdict,
    ShapeOutcome,
};
pub use sweep::{
    default_jobs, parallel_map, run_cells, suite_for_path, ProgramPath, SweepDoc, SweepFailure,
    SweepOutcome,
};
