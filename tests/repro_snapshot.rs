//! Tier-2 snapshot test: the ci-scale reproduction report must match
//! the checked-in golden byte-for-byte.
//!
//! This is the offline form of the CI reproduction gate: the `repro-gate`
//! workflow job runs the same sweeps through the `repro` binary and
//! diffs against the same goldens and shape checks, so CI does not run
//! this file. The tests are `#[ignore]`d because the full ci-scale sweep
//! takes seconds; run them with `cargo test --release --test
//! repro_snapshot -- --ignored` to check a change without the binary.
//!
//! If a deliberate model change alters the output, regenerate with
//! `cargo run --release -p laperm-bench --bin repro -- all --scale ci \
//!  --json /tmp/repro.json > tests/golden/repro_ci.txt`
//! and review the diff like any other code change.

use std::sync::{Arc, Mutex, OnceLock};

use gpu_sim::config::EngineMode;
use laperm_bench::sweep::{footprint_analyses, sweep_config, FootprintRow};
use laperm_bench::{
    default_jobs, evaluate_shapes, full_report, MatrixRecords, ProgramPath, Resilience, Session,
    SweepDoc,
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

/// A ci-scale document and the session that swept its matrix, which a
/// report test continues with the report's studies, as `repro` does.
struct Swept {
    doc: SweepDoc,
    session: Mutex<Session>,
}

/// The full ci-scale document over [`ci_suite`], swept as `repro all`
/// (`profiled == false`) or `repro profile` (`true`) sweeps it.
fn ci_sweep(profiled: bool) -> Swept {
    let (all, footprints) = ci_suite();
    let cfg = sweep_config(EngineMode::Event, profiled);
    let mut session =
        Session::new(Scale::Ci, ProgramPath::Generator, cfg, default_jobs(), Resilience::default());
    let mut doc = session.matrix(all).expect("ci sweep setup");
    doc.footprints = footprints.iter().map(FootprintRow::from).collect();
    Swept { doc, session: Mutex::new(session) }
}

/// The ci-scale sweep, built once and shared by the plain-sweep tests
/// here (each build is a full ci-scale sweep).
fn ci_swept() -> &'static Swept {
    static SWEPT: OnceLock<Swept> = OnceLock::new();
    SWEPT.get_or_init(|| ci_sweep(false))
}

#[test]
#[ignore = "ci-scale sweep takes tens of seconds; run with --ignored"]
fn ci_scale_report_matches_golden() {
    let golden = include_str!("golden/repro_ci.txt");
    let swept = ci_swept();
    let doc = &swept.doc;
    assert!(doc.failures.is_empty(), "sweep failures: {:?}", doc.failures);
    let m = MatrixRecords::from_records(doc.records.clone());
    let (all, footprints) = ci_suite();
    let mut session = swept.session.lock().expect("session lock");
    let current = full_report(&mut session, all, &m, footprints);
    assert!(session.failures().is_empty(), "study failures: {:?}", session.failures());
    assert_eq!(
        current, golden,
        "ci-scale reproduction report drifted from tests/golden/repro_ci.txt"
    );
}

#[test]
#[ignore = "ci-scale sweep takes tens of seconds; run with --ignored"]
fn ci_scale_shapes_all_pass() {
    let outcomes = evaluate_shapes(&ci_swept().doc);
    let failed: Vec<String> =
        outcomes.iter().filter(|o| !o.passed).map(|o| format!("{}: {}", o.id, o.detail)).collect();
    assert!(failed.is_empty(), "shape assertions failed at ci scale:\n{}", failed.join("\n"));
}

/// The profiled twin of [`ci_scale_report_matches_golden`]: the `repro
/// profile` report at ci scale (engine introspection, then latency
/// attribution) is deterministic (simulated-side counters and
/// simulated-cycle lifecycle stamps only, no wall clock) and must match
/// its golden. Regenerate with `cargo run --release -p laperm-bench \
/// --bin repro -- profile --scale ci --json /tmp/repro_profile.json \
/// > tests/golden/repro_profile_ci.txt`
#[test]
#[ignore = "ci-scale sweep takes tens of seconds; run with --ignored"]
fn ci_scale_profile_matches_golden() {
    let golden = include_str!("golden/repro_profile_ci.txt");
    let swept = ci_sweep(true);
    let doc = &swept.doc;
    assert!(doc.failures.is_empty(), "sweep failures: {:?}", doc.failures);

    // The engine and latency shape assertions bind on a profiled
    // document.
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
