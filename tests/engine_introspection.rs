//! Engine introspection end-to-end: the two-clock self-profile layer
//! must (a) partition every loop iteration over wake sources exactly,
//! (b) be purely additive — turning it on changes no simulated
//! statistic and no serialized byte of the unprofiled document — and
//! (c) observe the *engine*, not the simulation: the event engine and
//! the cycle-stepped engine report identical `SimStats` for the same
//! cell while their introspection legitimately differs (the event
//! engine elides idle cycles, so it iterates fewer times), and (d)
//! observe the engine `run_to_completion` runs, also when a caller
//! drives it through `step()`.

use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::{EngineMode, GpuConfig};
use gpu_sim::engine::Simulator;
use gpu_sim::stats::SimStats;
use laperm_bench::sweep::SweepDoc;
use sim_metrics::harness::SchedulerKind;
use workloads::{suite, Scale, SharedSource, Workload};

/// A launched, not yet started simulation of `w`.
fn launched(w: &Arc<dyn Workload>, engine: EngineMode, profile: bool) -> Simulator {
    let mut cfg = GpuConfig::small_test();
    cfg.num_smxs = 4;
    cfg.engine_mode = engine;
    cfg.profile_engine = profile;
    let model = LaunchModelKind::Dtbl;
    let sched = SchedulerKind::AdaptiveBind;
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(sched.build(&cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)));
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("launch");
    }
    sim
}

fn run(w: &Arc<dyn Workload>, engine: EngineMode, profile: bool) -> SimStats {
    launched(w, engine, profile).run_to_completion().expect("run")
}

/// Wake-source counts partition loop iterations exactly, in both
/// engines, and the reconstruction invariant holds: every iteration
/// advanced the clock by one cycle plus its recorded jump.
#[test]
fn wake_sources_partition_iterations_in_both_engines() {
    let all = suite(Scale::Tiny);
    for engine in [EngineMode::Event, EngineMode::CycleStepped] {
        for w in &all {
            let stats = run(w, engine, true);
            let eng = stats.engine.as_ref().expect("profiled run has engine stats");
            assert!(eng.loop_iterations > 0, "{}: no iterations recorded", w.full_name());
            assert_eq!(
                eng.wake_total(),
                eng.loop_iterations,
                "{} under {engine:?}: wake counts do not partition iterations",
                w.full_name()
            );
            assert_eq!(
                eng.loop_iterations + eng.jump_len.sum,
                stats.cycles,
                "{} under {engine:?}: iterations + jumped cycles != cycles",
                w.full_name()
            );
            assert!(
                eng.host_samples > 0,
                "{} under {engine:?}: host sampling never fired",
                w.full_name()
            );
        }
    }
}

/// Cross-engine: identical `SimStats` once the engine introspection is
/// stripped, while the introspection itself differs — the event engine
/// (which skips idle cycles) iterates strictly fewer times than the
/// cycle-stepped reference (which steps every single cycle), and only
/// the event engine populates the heap histograms.
#[test]
fn engines_agree_on_simulation_and_differ_in_introspection() {
    let all = suite(Scale::Tiny);
    let w = &all[0];
    let mut event = run(w, EngineMode::Event, true);
    let mut stepped = run(w, EngineMode::CycleStepped, true);
    let event_eng = event.engine.take().expect("event engine stats");
    let stepped_eng = stepped.engine.take().expect("stepped engine stats");
    assert_eq!(event, stepped, "simulated statistics must not depend on the engine");

    // The cycle-stepped engine iterates once per cycle; the event
    // engine skips idle stretches, so it must iterate less on a
    // workload with launch-latency gaps.
    assert_eq!(stepped_eng.loop_iterations, stepped.cycles);
    assert_eq!(stepped_eng.jump_len.count, 0);
    assert!(
        event_eng.loop_iterations < stepped_eng.loop_iterations,
        "event engine elided nothing: {} vs {} iterations",
        event_eng.loop_iterations,
        stepped_eng.loop_iterations
    );
    // Only the event engine has an event heap to observe.
    assert!(event_eng.heap_depth.count > 0);
    assert_eq!(stepped_eng.heap_depth.count, 0);
}

/// `step()` runs the configured engine: a manual `while !is_done()`
/// loop over the default event engine produces exactly the statistics
/// of `run_to_completion` — engine introspection included, so the heap
/// the loop observed is the event engine's. Only the sampled host
/// nanoseconds, which are wall-clock, are cleared before comparing.
#[test]
fn manual_step_loop_observes_the_event_engine() {
    let all = suite(Scale::Tiny);
    let w = &all[0];
    let mut sim = launched(w, EngineMode::Event, true);
    while !sim.is_done() {
        sim.step().expect("step");
    }
    let mut stepped = sim.stats();
    let mut ran = run(w, EngineMode::Event, true);
    for stats in [&mut stepped, &mut ran] {
        stats.engine.as_mut().expect("profiled run has engine stats").host_ns = [0; 5];
    }
    assert_eq!(stepped, ran, "step() and run_to_completion ran different engines");
    let eng = stepped.engine.as_ref().expect("profiled run has engine stats");
    assert!(eng.heap_depth.count > 0, "step() never touched the event heap");
}

/// Profiling is observational: the simulated statistics are bit-equal
/// with and without it.
#[test]
fn profiling_does_not_perturb_the_simulation() {
    let all = suite(Scale::Tiny);
    let w = &all[0];
    for engine in [EngineMode::Event, EngineMode::CycleStepped] {
        let mut with = run(w, engine, true);
        let without = run(w, engine, false);
        assert!(without.engine.is_none(), "unprofiled run must carry no engine stats");
        with.engine = None;
        assert_eq!(with, without, "profiling changed simulated statistics under {engine:?}");
    }
}

/// Schema v4 is a pure suffix extension: the unprofiled document
/// serializes no `engine` key at all, and a profiled record's JSON is
/// the unprofiled record's JSON with the engine object appended — every
/// preexisting byte is unchanged.
#[test]
fn unprofiled_documents_have_no_engine_key() {
    let doc = SweepDoc::build(Scale::Tiny, 0, 2);
    let json = doc.to_json();
    assert!(!json.contains("\"engine\""), "unprofiled repro.json must not mention the engine");
    assert!(!json.contains("host_ns"), "wall-clock time must never reach repro.json");

    let profiled = SweepDoc::build_profiled(Scale::Tiny, 0, 2, EngineMode::Event);
    let profiled_json = profiled.to_json();
    assert!(profiled_json.contains("\"engine\""));
    assert!(!profiled_json.contains("host_ns"));
    assert_eq!(doc.records.len(), profiled.records.len());

    // Same cells, same simulated numbers: line by line, the profiled
    // document is the unprofiled one with an engine object spliced in
    // just before each record's closing brace. Every preexisting byte
    // survives unchanged.
    let (a_lines, b_lines): (Vec<&str>, Vec<&str>) =
        (json.lines().collect(), profiled_json.lines().collect());
    assert_eq!(a_lines.len(), b_lines.len());
    for (a, b) in a_lines.iter().zip(&b_lines) {
        if a == b {
            continue;
        }
        let sep = if a.ends_with(',') { "," } else { "" };
        let prefix = a
            .strip_suffix(sep)
            .and_then(|s| s.strip_suffix('}'))
            .unwrap_or_else(|| panic!("differing non-record line: {a}"));
        assert!(
            b.starts_with(prefix) && b.ends_with(&format!("}}{sep}")) && b.contains("\"engine\""),
            "profiled line is not a suffix extension:\n  {a}\n  {b}"
        );
    }
}

/// The profiled document round-trips: parsing and re-rendering
/// reproduces the exact byte stream, engine objects included.
#[test]
fn profiled_document_roundtrips_byte_exactly() {
    let doc = SweepDoc::build_profiled(Scale::Tiny, 0, 2, EngineMode::Event);
    let json = doc.to_json();
    let parsed = SweepDoc::from_json(&json).expect("parse profiled document");
    assert_eq!(parsed.to_json(), json);
}
