//! Differential-testing gate: randomized DSL programs executed by the
//! bytecode VM and the reference interpreter must agree on every
//! program (values and structured errors alike).
//!
//! `cargo test` runs 384 seeds (`DSL_FUZZ_CASES` and `DSL_FUZZ_SEED`
//! pick another count and first seed). On divergence the complete
//! failing program text is written under `DSL_FUZZ_ARTIFACT_DIR`
//! (default `target/dsl-fuzz/`, relative to this crate) so CI can
//! upload it as an artifact for offline reproduction.

use wdsl::difftest::fuzz_case;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

#[test]
fn vm_and_interpreter_agree_on_randomized_programs() {
    let cases = env_u64("DSL_FUZZ_CASES", 384);
    let base = env_u64("DSL_FUZZ_SEED", 0);
    let mut programs = 0usize;
    for seed in base..base + cases {
        match fuzz_case(seed) {
            Ok(count) => programs += count,
            Err(report) => {
                let dir = std::env::var("DSL_FUZZ_ARTIFACT_DIR")
                    .unwrap_or_else(|_| "target/dsl-fuzz".into());
                let path = std::path::Path::new(&dir).join(format!("failing-seed-{seed}.txt"));
                let write_err = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, &report))
                    .err()
                    .map(|e| format!(" (artifact write failed: {e})"))
                    .unwrap_or_default();
                panic!(
                    "fuzz seed {seed} diverged; report at {}{write_err}\n{report}",
                    path.display()
                );
            }
        }
    }
    // Every seed explores at least the host-kernel programs of its
    // generated workload, so the walk must have compared plenty.
    assert!(programs >= cases as usize, "only {programs} programs compared over {cases} seeds");
}
