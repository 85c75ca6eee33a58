//! Strict flag parsing shared by the `repro`, `laperm-sim` and
//! `laperm-trace` binaries, plus one definition of the single-run flags
//! the last two share ([`RUN_FLAGS`]). An undeclared flag, a value flag
//! with no value, a stray operand or a bad value exits 2 with a named
//! error; a number that does not fit its field names the valid range
//! instead of being narrowed.

use std::sync::Arc;

use dynpar::LaunchModelKind;
use gpu_sim::config::GpuConfig;
use gpu_sim::tb_sched::{RandomScheduler, TbScheduler};
use sim_metrics::harness::SchedulerKind;
use workloads::{suite_seeded, Scale, Workload};

/// Valid `--scheduler` names (must match [`build_scheduler`]).
pub const SCHEDULER_NAMES: &str = "rr, tb-pri, smx-bind, adaptive-bind, random";

/// The value flags the single-run accessors below read.
pub const RUN_FLAGS: [&str; 6] =
    ["--workload", "--scheduler", "--model", "--scale", "--seed", "--smxs"];

/// Prints `msg` and exits 2, the exit code for a bad argument.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// A binary's command line, checked against the flags it declares.
pub struct Args {
    /// Each flag given, in order, with its value (`None` if boolean).
    flags: Vec<(String, Option<String>)>,
    /// The tokens that are neither flags nor flag values.
    operands: Vec<String>,
}

impl Args {
    /// The process's own arguments. Every token must be one of
    /// `value_flags` (which take the next token as their value), one of
    /// `bool_flags`, or one of at most `max_operands` operands that do
    /// not start with `-`; anything else exits 2 naming the valid flags.
    pub fn from_env(value_flags: &[&str], bool_flags: &[&str], max_operands: usize) -> Self {
        let mut args = Args { flags: Vec::new(), operands: Vec::new() };
        let mut tokens = std::env::args().skip(1);
        while let Some(token) = tokens.next() {
            if bool_flags.contains(&token.as_str()) {
                args.flags.push((token, None));
            } else if value_flags.contains(&token.as_str()) {
                let value =
                    tokens.next().unwrap_or_else(|| fail(format!("{token} expects a value")));
                args.flags.push((token, Some(value)));
            } else if !token.starts_with('-') && args.operands.len() < max_operands {
                args.operands.push(token);
            } else {
                let flags = [value_flags, bool_flags].concat().join(" ");
                fail(format!("unknown argument {token}; flags: {flags}"));
            }
        }
        args
    }

    /// The `i`-th operand, if given.
    pub fn operand(&self, i: usize) -> Option<&str> {
        self.operands.get(i).map(String::as_str)
    }

    /// The value of `flag`, if the flag is present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// Whether the boolean `flag` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// `flag`'s value as a `T` no larger than `max`; exits 2 on a
    /// non-number or a value out of range.
    pub fn num<T: TryFrom<u64>>(&self, flag: &str, max: u64) -> Option<T> {
        let v = self.value(flag)?;
        let n: u64 =
            v.parse().unwrap_or_else(|_| fail(format!("{flag} expects a number, got {v}")));
        match T::try_from(n) {
            Ok(t) if n <= max => Some(t),
            _ => fail(format!("{flag} must be at most {max}, got {n}")),
        }
    }

    /// `--seed` (default 0).
    pub fn seed(&self) -> u64 {
        self.num("--seed", u64::MAX).unwrap_or(0)
    }

    /// `--smxs`, an SMX count override.
    pub fn smxs(&self) -> Option<u16> {
        self.num("--smxs", u16::MAX.into())
    }

    /// `--model` (default dtbl).
    pub fn model(&self) -> LaunchModelKind {
        match self.value("--model") {
            Some("cdp") => LaunchModelKind::Cdp,
            Some("dtbl") | None => LaunchModelKind::Dtbl,
            Some(other) => fail(format!("unknown launch model {other} (cdp, dtbl)")),
        }
    }

    /// `--scale`, or `default` when the flag is absent.
    pub fn scale(&self, default: Scale) -> Scale {
        let Some(name) = self.value("--scale") else { return default };
        Scale::from_name(name).unwrap_or_else(|| {
            fail(format!("unknown scale {name} ({})", Scale::ALL.map(Scale::name).join(", ")))
        })
    }

    /// `--scheduler` (default adaptive-bind).
    pub fn scheduler(&self) -> &str {
        self.value("--scheduler").unwrap_or("adaptive-bind")
    }

    /// The suite workload named by `--workload` (default bfs-citation),
    /// generated at `--scale` (default small). `None` after printing
    /// every name for `--workload list`; an unknown name exits 2.
    pub fn workload(&self) -> Option<Arc<dyn Workload>> {
        let name = self.value("--workload").unwrap_or("bfs-citation");
        let all = suite_seeded(self.scale(Scale::Small), self.seed());
        if name == "list" {
            for w in &all {
                println!("{}", w.full_name());
            }
            return None;
        }
        let found = all.into_iter().find(|w| w.full_name() == name);
        Some(found.unwrap_or_else(|| fail(format!("unknown workload {name}; try --workload list"))))
    }
}

/// The TB scheduler called `name`; exits 2 on an unknown name.
pub fn build_scheduler(name: &str, cfg: &GpuConfig) -> Box<dyn TbScheduler> {
    if name == "random" {
        return Box::new(RandomScheduler::new(1));
    }
    match SchedulerKind::all().into_iter().find(|k| k.name() == name) {
        Some(kind) => kind.build(cfg),
        None => fail(format!("unknown scheduler {name} ({SCHEDULER_NAMES})")),
    }
}
