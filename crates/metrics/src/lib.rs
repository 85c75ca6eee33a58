//! Locality analysis and experiment harness for the LaPerm reproduction.
//!
//! * [`footprint`] — static shared-footprint analysis of a workload's TB
//!   tree (regenerates the paper's Figure 2).
//! * [`harness`] — runs one (workload × launch model × scheduler)
//!   simulation and collects a [`harness::RunRecord`]; the building block
//!   for Figures 7, 8, and 9.
//! * [`report`] — mean/geomean aggregation and fixed-width table
//!   rendering for the `repro` binary and EXPERIMENTS.md, and the one
//!   text summary of a single run ([`report::run_summary`]).
//! * [`timeline`] — windowed time-series sampling of a running
//!   simulation (when does the locality benefit materialize?).
//! * [`export`] — CSV rendering of run records and timelines for
//!   external plotting.
//! * [`json`] — minimal JSON value/parser/writer plus exact-round-trip
//!   [`harness::RunRecord`] serialization for the `repro.json` sweep
//!   artifact.
//! * [`journal`] — append-only, checksummed record journal backing the
//!   resilient sweep's content-addressed cell cache (truncated or
//!   corrupt tails are detected and dropped, never served).
//! * [`perfetto`] — Chrome/Perfetto `trace_event` JSON export of a
//!   traced run, plus the validator the CI smoke step uses.

// Library code must not panic on fallible lookups; tests opt back
// in locally.
#![deny(clippy::unwrap_used)]

pub mod export;
pub mod footprint;
pub mod harness;
pub mod journal;
pub mod json;
pub mod perfetto;
pub mod report;
pub mod timeline;

pub use footprint::{FootprintAnalysis, FootprintSummary};
pub use harness::{run_once, LocalityRecord, RunRecord, SchedulerKind};
pub use journal::{fnv1a64, read_journal, JournalDamage, JournalRead, JournalWriter};
pub use json::{run_from_json, run_to_json, Json};
pub use perfetto::{perfetto_json, validate_trace, TraceCheck};
pub use timeline::{run_timeline, TimelinePoint};
