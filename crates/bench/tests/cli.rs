//! Flag validation of the command-line binaries: an unknown flag, a
//! value flag with no value, a stray operand, or a value that does not
//! fit its configuration field exits 2 with a named error instead of
//! being ignored or silently narrowed.

use std::process::Command;

/// Runs `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Asserts that `bin args` exits 2 with `expected` in its stderr.
fn rejects(bin: &str, args: &[&str], expected: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(expected), "{args:?}: {stderr}");
}

#[test]
fn every_binary_rejects_unknown_flags_and_missing_values() {
    let repro = env!("CARGO_BIN_EXE_repro");
    // A misspelled flag used to run the default (paper) scale silently.
    rejects(repro, &["table2", "--scael", "ci"], "unknown argument --scael");
    // A trailing value flag used to fall back to its default.
    rejects(repro, &["table1", "--jobs"], "--jobs expects a value");
    // Only `repro dsl` takes an operand; `repro table1 ci` is a typo.
    rejects(repro, &["table1", "ci"], "unexpected argument ci");
    let trace = env!("CARGO_BIN_EXE_laperm-trace");
    rejects(trace, &["--scael", "ci"], "unknown argument --scael");
    rejects(trace, &["--out"], "--out expects a value");
    // The profiler flags are gone: every run profiles.
    rejects(trace, &["--locality"], "unknown argument --locality");
}

#[test]
fn repro_rejects_json_on_experiments_that_write_no_document() {
    // Both used to exit 0 and write nothing.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-json-ignored.json");
    let _ = std::fs::remove_file(&path);
    let out = path.to_str().expect("utf-8 path");
    let repro = env!("CARGO_BIN_EXE_repro");
    rejects(repro, &["table1", "--json", out], "--json applies only to all, profile and check");
    rejects(
        repro,
        &["fig7", "--scale", "tiny", "--json", out],
        "--json applies only to all, profile and check",
    );
    assert!(!path.exists(), "a rejected run wrote {out}");
}

#[test]
fn repro_rejects_a_retry_count_that_does_not_fit_u32() {
    // 4294967296 used to narrow to 0 retries.
    rejects(
        env!("CARGO_BIN_EXE_repro"),
        &["table1", "--retries", "4294967296"],
        "--retries must be at most 4294967295",
    );
}

#[test]
fn single_run_binaries_accept_the_ci_scale() {
    let trace = env!("CARGO_BIN_EXE_laperm-trace");
    let out =
        Command::new(trace).args(["--scale", "ci", "--workload", "list"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("bfs-citation"));
    rejects(trace, &["--scale", "huge"], "tiny, ci, small, paper");
}

#[test]
fn trace_rejects_an_smx_count_that_does_not_fit_u16() {
    // 65537 used to wrap to a 1-SMX machine.
    let (code, stderr) = run(env!("CARGO_BIN_EXE_laperm-trace"), &["--smxs", "65537"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--smxs must be at most 65535"), "{stderr}");
}

#[test]
fn sim_rejects_cache_sizes_whose_byte_count_overflows() {
    let trace = env!("CARGO_BIN_EXE_laperm-trace");
    for flag in ["--l1-kb", "--l2-kb"] {
        let (code, stderr) = run(trace, &[flag, "4194304"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("must be at most 4194303"), "{flag}: {stderr}");
    }
    let (code, stderr) = run(trace, &["--launch-latency", "4294967296"]);
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn an_unusable_cache_dir_exits_2_in_every_subcommand() {
    // A study or `repro dsl` used to panic (exit 101) where a matrix
    // subcommand exits 2.
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-cache-file");
    std::fs::write(&file, "not a directory").expect("write file");
    let dir = file.join("x");
    let dir = dir.to_str().expect("utf-8 path");
    let repro = env!("CARGO_BIN_EXE_repro");
    for args in [
        &["overhead", "--scale", "tiny", "--cache-dir", dir][..],
        &["fig7", "--scale", "tiny", "--cache-dir", dir],
        &["dsl", JOIN_GAUSSIAN_DSL, "--cache-dir", dir],
    ] {
        let (code, stderr) = run(repro, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("create cache dir"), "{args:?}: {stderr}");
    }
}

#[test]
fn repro_exits_1_when_a_study_cell_fails() {
    // A one-cycle deadline trips the watchdog in the study's cells,
    // which used to panic (exit 101) outside the sweep.
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_repro"),
        &["overhead", "--scale", "tiny", "--jobs", "1", "--cell-deadline", "1"],
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("FAILED bfs-citation/dtbl/adaptive-bind"), "{stderr}");
}

#[test]
fn failed_lines_name_each_cell_once() {
    // The matrix cell bfs-citation/dtbl/rr and two of its launch-latency
    // points used to print the same `FAILED bfs-citation/dtbl/rr` line.
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_repro"),
        &["latency", "--scale", "tiny", "--jobs", "1", "--cell-deadline", "1"],
    );
    assert_eq!(code, Some(1), "{stderr}");
    let mut prefixes: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("FAILED "))
        .map(|l| l.split_once(": ").map_or(l, |(prefix, _)| prefix))
        .collect();
    assert!(prefixes.contains(&"FAILED bfs-citation/dtbl/rr latency=500+0/tb+0/inflight"));
    let failed = prefixes.len();
    prefixes.sort_unstable();
    prefixes.dedup();
    assert_eq!(prefixes.len(), failed, "{stderr}");
}

/// A checked-in DSL port, by its path from this crate.
const JOIN_GAUSSIAN_DSL: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../workloads/dsl/join-gaussian.dsl");

#[test]
fn repro_dsl_exits_1_when_a_cell_misses_its_deadline() {
    // `repro dsl` used to run outside the sweep session, ignore the
    // deadline and exit 0.
    let (code, stderr) =
        run(env!("CARGO_BIN_EXE_repro"), &["dsl", JOIN_GAUSSIAN_DSL, "--cell-deadline", "1"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("FAILED join-gaussian/"), "{stderr}");
}

#[test]
fn repro_dsl_resumes_from_its_cell_cache() {
    // `repro dsl` used to ignore --cache-dir and create no journal, and
    // then to key its cells under `--scale` although a DSL file fixes
    // its own inputs: a `--scale ci` run did not serve the default.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-dsl-cells");
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_str().expect("utf-8 path");
    let args = ["dsl", JOIN_GAUSSIAN_DSL, "--jobs", "1", "--cache-dir", dir];
    let (code, first) = run(env!("CARGO_BIN_EXE_repro"), &[&args[..], &["--scale", "ci"]].concat());
    assert_eq!(code, Some(0), "{first}");
    assert!(first.contains("cell cache: 0 hits, 8 misses, 8 committed"), "{first}");
    let (code, second) = run(env!("CARGO_BIN_EXE_repro"), &args);
    assert_eq!(code, Some(0), "{second}");
    assert!(second.contains("cell cache: 8 hits, 0 misses, 0 committed"), "{second}");
}
