//! Command-line parsing. Every bad argument is a named error (the
//! binary exits 2 on it), never a panic.

use crate::bench::BenchWorkload;

/// Usage text printed with `--help` and after an argument error.
pub const USAGE: &str = "usage: laperm-perfbench --workload <ci-matrix|ci-matrix-dsl|ci-resume> \
[--seed <u64>] [--seconds <1..=3600>] [--trace <0|1>]";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Print usage and exit 0.
    Help,
    /// Run one workload.
    Run(Args),
}

/// The arguments of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: BenchWorkload,
    /// Input seed: the suite's workload inputs are generated from it.
    pub seed: u64,
    /// How long the timed phase runs, in seconds.
    pub seconds: u64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Names the offending flag or value.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(BenchWorkload::parse(v).ok_or_else(|| {
                    let names: Vec<_> = BenchWorkload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{v}' (expected one of: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().ok().filter(|s| (1..=3600).contains(s)).ok_or_else(|| {
                    format!("--seconds expects an integer in 1..=3600, got '{v}'")
                })?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got '{v}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Command::Run(Args { workload, seed, seconds, trace }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cmd = parse(&args("--workload ci-resume --seed 7 --seconds 20 --trace 1"));
        assert_eq!(
            cmd,
            Ok(Command::Run(Args {
                workload: BenchWorkload::CiResume,
                seed: 7,
                seconds: 20,
                trace: true
            }))
        );
        assert_eq!(parse(&args("--help")), Ok(Command::Help));
    }

    #[test]
    fn bad_arguments_are_named_errors() {
        let err = |line: &str| parse(&args(line)).expect_err(line);
        assert!(err("").contains("missing --workload"));
        assert!(err("--workload nope").contains("unknown workload 'nope'"));
        assert!(err("--workload ci-matrix --seed -1").contains("--seed"));
        assert!(err("--workload ci-matrix --seconds 0").contains("--seconds"));
        assert!(err("--workload ci-matrix --trace 2").contains("--trace"));
        assert!(err("--workload ci-matrix --jobs 4").contains("unknown argument '--jobs'"));
        assert!(err("--workload").contains("--workload needs a value"));
    }
}
