//! `laperm-perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. The line before it records the run's context: CPU
//! count, build profile, source revision, the input seed `--seed`
//! selected, and the timed repetitions with their spread. Exit codes: 0
//! all checks passed, 1 a check or the set-up failed, 2 bad arguments or
//! a debug build.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use laperm_perfbench::bench::{self, Outcome};
use laperm_perfbench::cli::{self, Args, Command, USAGE};
use laperm_perfbench::stats::iqr_share;
use sim_metrics::json::Json;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "error: debug build refused: host-time metrics need an optimized build \
             (cargo run --release)"
        );
        return ExitCode::from(2);
    }
    let scratch = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    let outcome = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("create scratch directory {}: {e}", scratch.display()))
        .and_then(|()| bench::run(args.workload, args.seed, args.seconds, args.trace, &scratch));
    // The scratch directory only ever holds this run's cell caches.
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    let Outcome { result, walls } = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", context_line(&args, &walls));
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} cells or checks failed ({} cells attempted)",
            result.failed, result.attempted
        );
        ExitCode::FAILURE
    }
}

/// The run's context as one JSON line.
fn context_line(args: &Args, walls: &[f64]) -> String {
    let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let num = |n: usize| Json::from_u64(n as u64);
    Json::Obj(vec![(
        "context".into(),
        Json::Obj(vec![
            ("workload".into(), Json::Str(args.workload.name().into())),
            ("seed".into(), Json::from_u64(args.seed)),
            ("input_seed".into(), Json::from_u64(bench::input_seed(args.seed))),
            ("seconds".into(), Json::from_u64(args.seconds)),
            ("trace".into(), Json::Bool(args.trace)),
            ("nproc".into(), num(nproc)),
            ("profile".into(), Json::Str(profile.into())),
            ("git_revision".into(), Json::Str(git_revision(Path::new(".")))),
            ("scale".into(), Json::Str(bench::SCALE.name().into())),
            ("jobs".into(), num(bench::JOBS)),
            ("setups".into(), num(args.workload.setups())),
            ("reps".into(), num(walls.len())),
            ("wall_samples".into(), Json::Arr(walls.iter().map(|&w| Json::from_f64(w)).collect())),
            ("wall_iqr_share".into(), iqr_share(walls).map_or(Json::Null, Json::from_f64)),
            ("partition_tolerance".into(), Json::from_f64(bench::PARTITION_TOLERANCE)),
        ]),
    )])
    .render()
}

/// The commit checked out at `root`, read from `.git` without running
/// git; "unknown" outside a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".into() };
    let Some(name) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(git.join(name)) {
        return rev;
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name).and_then(|r| r.strip_suffix(' ')).map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
