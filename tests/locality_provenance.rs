//! Locality provenance profiler invariants, end to end: every cache hit
//! of a profiled run is attributed to exactly one lineage class, the
//! profiler is purely observational (cycle counts and every other
//! statistic are bit-identical with it on or off), it composes with the
//! event engine's idle-cycle skipping, and an unprofiled run's `repro.json`
//! record keeps the schema-v1 byte layout.

use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::cache::ReuseClass;
use gpu_sim::config::{EngineMode, GpuConfig};
use gpu_sim::engine::Simulator;
use gpu_sim::stats::SimStats;
use sim_metrics::harness::{run_once, RunRecord, SchedulerKind};
use sim_metrics::run_to_json;
use workloads::{suite, Scale, SharedSource, Workload};

/// Runs one workload to completion with explicit profiling and engine
/// settings.
fn run(
    w: &Arc<dyn Workload>,
    model: LaunchModelKind,
    sched: SchedulerKind,
    profile: bool,
    engine: EngineMode,
) -> SimStats {
    let mut cfg = GpuConfig::small_test();
    cfg.num_smxs = 4;
    cfg.profile_locality = profile;
    cfg.engine_mode = engine;
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(sched.build(&cfg))
        .with_launch_model(model.build(LaunchLatency::default_for(model)));
    for hk in w.host_kernels() {
        sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("launch");
    }
    sim.run_to_completion().expect("run to completion")
}

#[test]
fn every_hit_is_attributed_to_exactly_one_class() {
    let all = suite(Scale::Tiny);
    let mut classified = 0;
    for w in all.iter().take(3) {
        for model in LaunchModelKind::all() {
            for sched in SchedulerKind::all() {
                let stats = run(w, model, sched, true, EngineMode::Event);
                let name = w.full_name();
                assert_eq!(
                    stats.l1.prov.total(),
                    stats.l1.hits,
                    "{name} {model}/{sched}: L1 hits escaped classification"
                );
                assert_eq!(
                    stats.l2.prov.total(),
                    stats.l2.hits,
                    "{name} {model}/{sched}: L2 hits escaped classification"
                );
                assert_eq!(
                    stats.l2.prov.same_smx + stats.l2.prov.cross_smx,
                    stats.l2.hits,
                    "{name} {model}/{sched}: L2 same/cross-SMX split broken"
                );
                // An L1 is private to its SMX: nothing can cross.
                assert_eq!(stats.l1.prov.cross_smx, 0, "{name}: cross-SMX L1 hit");
                // Reuse-distance histograms record exactly the classified hits.
                let loc = stats.locality.as_ref().expect("profiled run has locality stats");
                for class in ReuseClass::ALL {
                    let i = class.index();
                    assert_eq!(loc.l1_reuse_dist[i].count, stats.l1.prov.by_class[i]);
                    assert_eq!(loc.l2_reuse_dist[i].count, stats.l2.prov.by_class[i]);
                }
                classified += stats.l1.prov.total() + stats.l2.prov.total();
            }
        }
    }
    assert!(classified > 0, "the sweep produced no classified hits at all");
}

#[test]
fn profiling_is_observational() {
    // The profiler must not perturb the simulation: every architectural
    // statistic is identical with it on or off. (`SimStats` is compared
    // field by field after blanking the locality-only fields.)
    let all = suite(Scale::Tiny);
    for w in all.iter().take(3) {
        for sched in [SchedulerKind::RoundRobin, SchedulerKind::AdaptiveBind] {
            let on = run(w, LaunchModelKind::Dtbl, sched, true, EngineMode::Event);
            let off = run(w, LaunchModelKind::Dtbl, sched, false, EngineMode::Event);
            assert!(on.locality.is_some() && off.locality.is_none());
            let mut blanked = on.clone();
            blanked.locality = None;
            blanked.l1.prov = Default::default();
            blanked.l2.prov = Default::default();
            assert_eq!(
                blanked,
                off,
                "{} under {sched}: profiling changed an architectural statistic",
                w.full_name()
            );
        }
    }
}

#[test]
fn provenance_is_bit_identical_under_fast_forward() {
    let all = suite(Scale::Tiny);
    for w in all.iter().take(3) {
        for model in LaunchModelKind::all() {
            for sched in [SchedulerKind::TbPri, SchedulerKind::SmxBind] {
                let on = run(w, model, sched, true, EngineMode::Event);
                let off = run(w, model, sched, true, EngineMode::CycleStepped);
                assert_eq!(
                    on,
                    off,
                    "{} under {model}/{sched}: idle-cycle skipping changed provenance",
                    w.full_name()
                );
            }
        }
    }
}

#[test]
fn unprofiled_record_serializes_with_schema_v1_bytes() {
    // A run without the profiler produces a `repro.json` record with no
    // `locality` key at all — byte-identical to the pre-profiler schema.
    let all = suite(Scale::Tiny);
    let w = &all[0];
    let cfg = {
        let mut c = GpuConfig::small_test();
        c.num_smxs = 4;
        c
    };
    let plain: RunRecord =
        run_once(w, LaunchModelKind::Dtbl, SchedulerKind::SmxBind, &cfg).expect("run");
    assert!(plain.locality.is_none());
    let text = run_to_json(&plain).render();
    assert!(!text.contains("locality"), "unprofiled record leaked a locality field: {text}");

    let mut profiled_cfg = cfg.clone();
    profiled_cfg.profile_locality = true;
    let profiled: RunRecord =
        run_once(w, LaunchModelKind::Dtbl, SchedulerKind::SmxBind, &profiled_cfg).expect("run");
    let ptext = run_to_json(&profiled).render();
    // Same run, same numbers: the profiled record is the schema-v1 bytes
    // plus a trailing locality object.
    assert!(ptext.starts_with(&text[..text.len() - 1]), "profiled record rewrote v1 fields");
    assert!(ptext.contains("\"locality\":{"));
}
