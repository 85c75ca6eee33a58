//! Tier-2 snapshot test: the ci-scale reproduction report must match
//! the checked-in golden byte-for-byte.
//!
//! This is the offline half of the CI reproduction gate: the `repro-gate`
//! workflow job runs the same sweep through the `repro` binary and diffs
//! against the same golden, so a drift fails both here and there. The
//! test is `#[ignore]`d because the full ci-scale sweep takes tens of
//! seconds — CI runs it explicitly with `cargo test -- --ignored`.
//!
//! If a deliberate model change alters the output, regenerate with
//! `cargo run --release -p laperm-bench --bin repro -- all --scale ci \
//!  --json /tmp/repro.json > tests/golden/repro_ci.txt`
//! and review the diff like any other code change.

use std::sync::{Arc, OnceLock};

use gpu_sim::config::EngineMode;
use laperm_bench::sweep::{footprint_analyses, sweep_config, FootprintRow};
use laperm_bench::{
    default_jobs, evaluate_shapes, full_report, MatrixRecords, ProgramPath, Resilience, SweepDoc,
};
use sim_metrics::FootprintAnalysis;
use workloads::{suite, Scale, Workload};

/// A suite and its Figure 2 footprint analyses.
type AnalyzedSuite = (Vec<Arc<dyn Workload>>, Vec<FootprintAnalysis>);

/// The ci suite and its footprint analyses, built once and read by
/// every test and document here, as `repro` builds its suite once per
/// run.
fn ci_suite() -> &'static AnalyzedSuite {
    static SUITE: OnceLock<AnalyzedSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        let all = suite(Scale::Ci);
        let footprints = footprint_analyses(&all, default_jobs());
        (all, footprints)
    })
}

/// The full ci-scale document over [`ci_suite`], swept as `repro all`
/// (`profiled == false`) or `repro profile` (`true`) sweeps it.
fn ci_sweep(profiled: bool) -> SweepDoc {
    let (all, footprints) = ci_suite();
    let cfg = sweep_config(EngineMode::Event, profiled);
    let (mut doc, _) =
        SweepDoc::build_matrix(Scale::Ci, 0, default_jobs(), &cfg, all, &Resilience::default())
            .expect("ci sweep setup");
    doc.footprints = footprints.iter().map(FootprintRow::from).collect();
    doc
}

/// The ci-scale document, built once and shared by the plain-sweep
/// tests here (each build is a full ci-scale sweep).
fn ci_doc() -> &'static SweepDoc {
    static DOC: OnceLock<SweepDoc> = OnceLock::new();
    DOC.get_or_init(|| ci_sweep(false))
}

/// The profiled ci-scale document, shared by the profile and latency
/// tests.
fn ci_profiled_doc() -> &'static SweepDoc {
    static DOC: OnceLock<SweepDoc> = OnceLock::new();
    DOC.get_or_init(|| ci_sweep(true))
}

#[test]
#[ignore = "ci-scale sweep takes tens of seconds; run with --ignored"]
fn ci_scale_report_matches_golden() {
    let golden = include_str!("golden/repro_ci.txt");
    let doc = ci_doc();
    assert!(doc.failures.is_empty(), "sweep failures: {:?}", doc.failures);
    let m = MatrixRecords::from_records(doc.records.clone());
    let (all, footprints) = ci_suite();
    let current =
        full_report(Scale::Ci, ProgramPath::Generator, all, default_jobs(), &m, footprints);
    assert_eq!(
        current, golden,
        "ci-scale reproduction report drifted from tests/golden/repro_ci.txt"
    );
}

#[test]
#[ignore = "ci-scale sweep takes tens of seconds; run with --ignored"]
fn ci_scale_shapes_all_pass() {
    let outcomes = evaluate_shapes(ci_doc());
    let failed: Vec<String> =
        outcomes.iter().filter(|o| !o.passed).map(|o| format!("{}: {}", o.id, o.detail)).collect();
    assert!(failed.is_empty(), "shape assertions failed at ci scale:\n{}", failed.join("\n"));
}

/// The engine-profiled twin of [`ci_scale_report_matches_golden`]: the
/// `repro profile` section at ci scale is deterministic (simulated-side
/// counters only, no wall clock) and must match its golden. Regenerate
/// with `cargo run --release -p laperm-bench --bin repro -- profile \
/// --scale ci --json /tmp/repro_profile.json \
/// > tests/golden/repro_profile_ci.txt`
#[test]
#[ignore = "ci-scale sweep takes tens of seconds; run with --ignored"]
fn ci_scale_profile_matches_golden() {
    let golden = include_str!("golden/repro_profile_ci.txt");
    let doc = ci_profiled_doc();
    assert!(doc.failures.is_empty(), "sweep failures: {:?}", doc.failures);

    // The engine shape assertions bind on a profiled document.
    let outcomes = evaluate_shapes(doc);
    let failed: Vec<String> =
        outcomes.iter().filter(|o| !o.passed).map(|o| format!("{}: {}", o.id, o.detail)).collect();
    assert!(failed.is_empty(), "shape assertions failed on profiled doc:\n{}", failed.join("\n"));

    let m = MatrixRecords::from_records(doc.records.clone());
    let current = laperm_bench::profile(&m);
    assert_eq!(
        current, golden,
        "ci-scale profile report drifted from tests/golden/repro_profile_ci.txt"
    );
}

/// The latency-attribution twin: `repro latency` at ci scale is
/// deterministic (lifecycle edges are simulated-cycle stamps, never wall
/// clock) and must match its golden byte-for-byte regardless of `--jobs`.
/// Regenerate with `cargo run --release -p laperm-bench --bin repro -- \
/// latency --scale ci > tests/golden/repro_latency_ci.txt`
#[test]
#[ignore = "ci-scale sweep takes tens of seconds; run with --ignored"]
fn ci_scale_latency_matches_golden() {
    let golden = include_str!("golden/repro_latency_ci.txt");
    let doc = ci_profiled_doc();
    assert!(doc.failures.is_empty(), "sweep failures: {:?}", doc.failures);

    // The latency shape assertions bind on a profiled document.
    let outcomes = evaluate_shapes(doc);
    let failed: Vec<String> =
        outcomes.iter().filter(|o| !o.passed).map(|o| format!("{}: {}", o.id, o.detail)).collect();
    assert!(failed.is_empty(), "shape assertions failed on profiled doc:\n{}", failed.join("\n"));

    let m = MatrixRecords::from_records(doc.records.clone());
    let current = laperm_bench::latency_report(Scale::Ci, &ci_suite().0, default_jobs(), &m);
    assert_eq!(
        current, golden,
        "ci-scale latency report drifted from tests/golden/repro_latency_ci.txt"
    );
}
