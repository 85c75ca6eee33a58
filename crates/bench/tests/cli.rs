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
    rejects(env!("CARGO_BIN_EXE_laperm-sim"), &["--scael", "ci"], "unknown argument --scael");
    rejects(env!("CARGO_BIN_EXE_laperm-trace"), &["--out"], "--out expects a value");
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
    for bin in [env!("CARGO_BIN_EXE_laperm-sim"), env!("CARGO_BIN_EXE_laperm-trace")] {
        let out = Command::new(bin)
            .args(["--scale", "ci", "--workload", "list"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("bfs-citation"));
    }
    rejects(env!("CARGO_BIN_EXE_laperm-sim"), &["--scale", "huge"], "tiny, ci, small, paper");
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
    for flag in ["--l1-kb", "--l2-kb"] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_laperm-sim"), &[flag, "4194304"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("must be at most 4194303"), "{flag}: {stderr}");
    }
    let (code, stderr) = run(env!("CARGO_BIN_EXE_laperm-sim"), &["--launch-latency", "4294967296"]);
    assert_eq!(code, Some(2), "{stderr}");
}
