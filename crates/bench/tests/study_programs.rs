//! Every study section reads the suite it is given, so `repro
//! --programs dsl` reaches the studies as well as the matrix: rendered
//! over the compiled-DSL suite, each study prints the same text as over
//! the generator suite (the two paths serve byte-identical programs).

use std::sync::Arc;

use laperm_bench::{
    ablate, default_jobs, generality, latency_sweep, overhead, saturation, sweep_cache, table2,
    timeline, variance, ProgramPath,
};
use wdsl::{compiled_suite_seeded, ExecMode};
use workloads::{suite_seeded, Scale, Workload};

/// Every study section over `all`, the seed-0 suite on `programs`.
fn studies(programs: ProgramPath, all: &[Arc<dyn Workload>]) -> String {
    let (scale, jobs) = (Scale::Tiny, default_jobs());
    [
        table2(scale, all),
        latency_sweep(scale, all, jobs),
        timeline(scale, all, jobs),
        variance(scale, programs, all, jobs),
        sweep_cache(scale, all, jobs),
        generality(scale, all, jobs),
        overhead(all, jobs),
        ablate(scale, all, jobs),
        saturation(scale, all, jobs),
    ]
    .join("\n\n")
}

#[test]
fn studies_render_identically_over_the_dsl_suite() {
    let generator = studies(ProgramPath::Generator, &suite_seeded(Scale::Tiny, 0));
    let dsl_suite =
        compiled_suite_seeded(Scale::Tiny, 0, ExecMode::Vm).expect("DSL suite compiles");
    let dsl = studies(ProgramPath::Dsl, &dsl_suite);
    assert_eq!(dsl, generator);
}
