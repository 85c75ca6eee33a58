//! Flag parsing shared by the `laperm-sim` and `laperm-trace` binaries:
//! one definition of the flags both take (`--workload`, `--scheduler`,
//! `--model`, `--scale`, `--seed`, `--smxs`). A bad value exits 2 with a
//! named error; a number that does not fit its field names the valid
//! range instead of being narrowed.

use std::sync::Arc;

use dynpar::LaunchModelKind;
use gpu_sim::config::GpuConfig;
use gpu_sim::tb_sched::{RandomScheduler, TbScheduler};
use sim_metrics::harness::SchedulerKind;
use workloads::{suite_seeded, Scale, Workload};

/// Valid `--scheduler` names (must match [`build_scheduler`]).
pub const SCHEDULER_NAMES: &str = "rr, tb-pri, smx-bind, adaptive-bind, random";

/// Prints `msg` and exits 2, the exit code for a bad argument.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// A binary's command-line tokens, without the program name.
pub struct Args(pub Vec<String>);

impl Args {
    /// The process's own arguments.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    /// The token after `flag`, if the flag is present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    /// Whether the boolean `flag` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
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

    /// `--scale` (default small).
    pub fn scale(&self) -> Scale {
        match self.value("--scale") {
            Some("tiny") => Scale::Tiny,
            Some("small") | None => Scale::Small,
            Some("paper") => Scale::Paper,
            Some(other) => fail(format!("unknown scale {other} (tiny, small, paper)")),
        }
    }

    /// `--scheduler` (default adaptive-bind).
    pub fn scheduler(&self) -> &str {
        self.value("--scheduler").unwrap_or("adaptive-bind")
    }

    /// The suite workload named by `--workload` (default bfs-citation).
    /// `None` after printing every name for `--workload list`; an
    /// unknown name exits 2.
    pub fn workload(&self) -> Option<Arc<dyn Workload>> {
        let name = self.value("--workload").unwrap_or("bfs-citation");
        let all = suite_seeded(self.scale(), self.seed());
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
