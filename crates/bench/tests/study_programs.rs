//! Every study section runs its cells through a [`Session`] over the
//! suite it is given, so `repro --programs dsl` reaches the studies as
//! well as the matrix: each study cell's workload comes from the
//! compiled-DSL suite, its cell key carries the DSL program identity,
//! and the executor serves its TB programs from the DSL VM through the
//! per-workload memo. Rendered over the compiled-DSL suite, each study
//! prints the same text as over the generator suite (the two paths
//! serve byte-identical programs).

use std::sync::Arc;

use gpu_sim::config::EngineMode;
use laperm_bench::sweep::sweep_config;
use laperm_bench::{
    ablate, default_jobs, generality, latency_sweep, overhead, saturation, sweep_cache, table2,
    timeline, variance, ProgramPath, Resilience, Session,
};
use wdsl::{compiled_suite_seeded, ExecMode};
use workloads::{suite_seeded, Scale, Workload};

/// Every study section over `all`, the seed-0 suite on `programs`, run
/// through one session with no matrix.
fn studies(programs: ProgramPath, all: &[Arc<dyn Workload>]) -> String {
    let (scale, jobs) = (Scale::Tiny, default_jobs());
    let cfg = sweep_config(EngineMode::Event, false);
    let s = &mut Session::new(scale, programs, cfg, jobs, Resilience::default());
    let text = [
        table2(scale, all),
        latency_sweep(s, all),
        timeline(scale, all, jobs),
        variance(s, all),
        sweep_cache(s, all),
        generality(s, all),
        overhead(s, all),
        ablate(s, all),
        saturation(s, all),
    ]
    .join("\n\n");
    assert!(s.failures().is_empty(), "{programs:?} study failures: {:?}", s.failures());
    text
}

#[test]
fn studies_render_identically_over_the_dsl_suite() {
    let generator = studies(ProgramPath::Generator, &suite_seeded(Scale::Tiny, 0));
    let dsl_suite =
        compiled_suite_seeded(Scale::Tiny, 0, ExecMode::Vm).expect("DSL suite compiles");
    let dsl = studies(ProgramPath::Dsl, &dsl_suite);
    assert_eq!(dsl, generator);
}
