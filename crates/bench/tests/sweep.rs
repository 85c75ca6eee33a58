//! Integration tests for the parallel sweep executor and the
//! `repro.json` document: job-count invariance, failure isolation, and
//! shape-assertion round-trips through serialization.
//!
//! These run at tiny scale so they stay in the tier-1 (`cargo test`)
//! budget; the ci-scale golden snapshot lives in the workspace-level
//! `tests/repro_snapshot.rs` and runs `--ignored` in CI.

use std::sync::OnceLock;

use laperm_bench::{evaluate_shapes, run_cells, SweepDoc, SweepFailure};
use workloads::Scale;

/// One tiny-scale sweep built on 8 workers, shared across the tests
/// here (a full build costs seconds even at tiny scale).
fn parallel_doc() -> &'static SweepDoc {
    static DOC: OnceLock<SweepDoc> = OnceLock::new();
    DOC.get_or_init(|| SweepDoc::build(Scale::Tiny, 0, 8))
}

/// The tentpole invariant: the sweep document is bit-identical no
/// matter how many workers produced it. `repro all --jobs 1` and
/// `--jobs 8` must write the same `repro.json` byte-for-byte.
#[test]
fn sweep_doc_is_bit_identical_across_job_counts() {
    let serial = SweepDoc::build(Scale::Tiny, 0, 1).to_json();
    assert_eq!(
        serial,
        parallel_doc().to_json(),
        "repro.json differs between --jobs 1 and --jobs 8"
    );
}

/// Backpressure determinism across workers: with finite launch-path
/// capacities under either overflow policy, the sweep records are
/// bit-identical for any `--jobs` count. Stalls and spills are decided
/// by simulated cycles, never by wall-clock interleaving.
#[test]
fn finite_limit_sweeps_are_bit_identical_across_job_counts() {
    use gpu_sim::config::{GpuConfig, LaunchLimits, OverflowPolicy};
    use laperm_bench::sweep::{matrix_cells, run_matrix_cells};

    let cells = matrix_cells(Scale::Tiny, 0);
    let subset = &cells[..8.min(cells.len())];
    for policy in [OverflowPolicy::StallParent, OverflowPolicy::SpillVirtual { extra_latency: 200 }]
    {
        let mut cfg = GpuConfig::kepler_k20c();
        cfg.launch_limits = LaunchLimits {
            kmu_capacity: Some(2),
            pending_launch_capacity: Some(2),
            smx_queue_capacity: Some(64),
            policy,
        };
        let serial = run_matrix_cells(subset, 1, &cfg);
        let parallel = run_matrix_cells(subset, 8, &cfg);
        assert!(serial.failures.is_empty(), "{}: {:?}", policy.name(), serial.failures);
        assert_eq!(
            serial.records,
            parallel.records,
            "{}: finite-limit sweep differs between --jobs 1 and --jobs 8",
            policy.name()
        );
    }
}

/// A panic in one run surfaces as that cell's error; every other cell
/// still completes and results stay in input order.
#[test]
fn one_panicking_run_does_not_poison_the_sweep() {
    let cells: Vec<u32> = (0..16).collect();
    let results = run_cells(&cells, 8, |&i| {
        assert!(i != 11, "simulated run {i} exploded");
        i * 10
    });
    assert_eq!(results.len(), 16);
    for (i, r) in results.iter().enumerate() {
        if i == 11 {
            let err = r.as_ref().unwrap_err();
            assert!(err.contains("simulated run 11 exploded"), "unexpected message: {err}");
        } else {
            assert_eq!(*r.as_ref().unwrap(), i as u32 * 10);
        }
    }
}

/// The document survives a serialize/parse round-trip byte-for-byte,
/// and the shape assertions judge the parsed copy exactly like the
/// original — `repro check` sees what `repro all` saw.
#[test]
fn shape_assertions_round_trip_through_json() {
    let doc = parallel_doc();
    let text = doc.to_json();
    let parsed = SweepDoc::from_json(&text).expect("parse own output");
    assert_eq!(parsed.to_json(), text, "re-serialization drifted");

    let before = evaluate_shapes(doc);
    let after = evaluate_shapes(&parsed);
    assert_eq!(before.len(), after.len());
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(b.id, a.id);
        assert_eq!(b.passed, a.passed, "assertion {} flipped across round-trip", b.id);
        assert_eq!(b.detail, a.detail, "assertion {} detail drifted", b.id);
    }
}

/// Failures are serialized per configuration, and their presence flips
/// the matrix-completeness assertion from PASS to FAIL.
#[test]
fn failures_are_attributed_and_fail_the_gate() {
    let mut doc = parallel_doc().clone();
    let complete = |d: &SweepDoc| {
        evaluate_shapes(d)
            .into_iter()
            .find(|o| o.id == "matrix-complete")
            .expect("matrix-complete assertion exists")
    };
    assert!(complete(&doc).passed, "healthy tiny sweep should be complete");

    doc.records.pop();
    doc.failures.push(SweepFailure {
        cell_index: 127,
        workload: "sssp-cage15".into(),
        launch_model: "dtbl".into(),
        scheduler: "adaptive-bind".into(),
        attempts: 3,
        error: "simulated: queue wedged".into(),
        label: "sssp-cage15/dtbl/adaptive-bind".into(),
    });
    let outcome = complete(&doc);
    assert!(!outcome.passed, "missing record + failure must fail matrix-complete");

    let parsed = SweepDoc::from_json(&doc.to_json()).expect("parse doctored doc");
    assert_eq!(parsed.failures, doc.failures, "failure attribution lost in round-trip");
    assert!(!complete(&parsed).passed);
}

/// Compile-time audit of the threading seam: everything the executor
/// moves across or shares between worker threads must stay Send/Sync.
/// Removing `Send + Sync` from `ProgramSource` (or storing an `Rc`/raw
/// pointer in any of these) turns into a build error here instead of an
/// error deep inside `std::thread::scope`.
#[test]
fn sweep_types_stay_thread_safe() {
    fn sendable<T: Send>() {}
    fn shareable<T: Sync>() {}
    sendable::<std::sync::Arc<dyn workloads::Workload>>();
    shareable::<std::sync::Arc<dyn workloads::Workload>>();
    shareable::<laperm_bench::sweep::MatrixCell>();
    shareable::<gpu_sim::config::GpuConfig>();
    sendable::<sim_metrics::harness::RunRecord>();
    sendable::<SweepDoc>();
}

/// Degraded documents dominate the check verdict (missing cells make
/// per-assertion FAILs indistinguishable from vacuity), and the
/// degraded rendering leads with the banner and the survivors note.
/// Healthy documents render byte-identically to the plain shape report
/// — the CI goldens depend on that.
#[test]
fn check_verdicts_and_degraded_rendering() {
    use laperm_bench::{check_document, render_check_report, render_shape_report, CheckVerdict};

    let healthy = parallel_doc();
    let (outcomes, verdict) = check_document(healthy);
    assert_ne!(verdict, CheckVerdict::Degraded, "healthy doc misclassified");
    assert_eq!(
        render_check_report(healthy, &outcomes),
        render_shape_report(&outcomes),
        "healthy rendering must not gain a preamble"
    );

    let mut degraded = healthy.clone();
    degraded.records.pop();
    degraded.failures.push(SweepFailure {
        cell_index: 127,
        workload: "sssp-cage15".into(),
        launch_model: "dtbl".into(),
        scheduler: "adaptive-bind".into(),
        attempts: 2,
        error: "injected: cell wedged".into(),
        label: "sssp-cage15/dtbl/adaptive-bind".into(),
    });
    let (outcomes, verdict) = check_document(&degraded);
    assert_eq!(verdict, CheckVerdict::Degraded);
    let report = render_check_report(&degraded, &outcomes);
    assert!(report.starts_with("DEGRADED (1/128 cells failed)"), "banner missing: {report}");
    assert!(report.contains("sssp-cage15"), "failures table missing the failed cell");
    assert!(report.contains("vacuous"), "survivors note missing");
}

/// Corrupt or incompatible documents are rejected with a message, not a
/// panic — `repro check` exits 3 on them (I/O-corruption, distinct from
/// assertion violations and degraded input).
#[test]
fn malformed_documents_are_rejected() {
    assert!(SweepDoc::from_json("not json").is_err());
    assert!(SweepDoc::from_json("{}").is_err());
    let future = "{\"schema_version\": 999, \"scale\": \"ci\", \"seed\": 0, \
                  \"runs\": [], \"failures\": [], \"footprints\": []}";
    let err = SweepDoc::from_json(future).unwrap_err();
    assert!(err.contains("schema version 999"), "unhelpful error: {err}");
}
