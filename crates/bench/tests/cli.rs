//! Numeric flag validation of the command-line binaries: a value that
//! does not fit its configuration field exits 2 with the valid range
//! instead of being silently narrowed.

use std::process::Command;

/// Runs `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
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
