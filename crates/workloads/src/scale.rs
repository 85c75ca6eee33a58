//! Problem-size presets.

/// How large the workload inputs are.
///
/// The paper runs full-size inputs on GPGPU-Sim for hours; this
/// reproduction exposes four presets so unit tests stay fast while the
/// benchmark harness exercises realistic pressure on the caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Minimal inputs for unit tests (hundreds of TBs).
    Tiny,
    /// Inputs for the CI reproduction gate: large enough that the
    /// paper's shape claims hold, small enough that the full `repro all`
    /// sweep finishes in CI minutes.
    Ci,
    /// Medium inputs for integration tests and quick runs.
    Small,
    /// Full-size inputs for the figure-regeneration harness.
    Paper,
}

impl Scale {
    /// Every preset, smallest first.
    pub const ALL: [Scale; 4] = [Scale::Tiny, Scale::Ci, Scale::Small, Scale::Paper];

    /// The preset whose [`Scale::name`] is `name`.
    pub fn from_name(name: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|s| s.name() == name)
    }

    /// A characteristic item count: workloads size their inputs as
    /// multiples of this.
    pub fn items(self) -> u32 {
        match self {
            Scale::Tiny => 256,
            Scale::Ci => 2048,
            Scale::Small => 4096,
            Scale::Paper => 8192,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Ci => "ci",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_by_size() {
        assert!(Scale::Tiny.items() < Scale::Ci.items());
        assert!(Scale::Ci.items() < Scale::Small.items());
        assert!(Scale::Small.items() < Scale::Paper.items());
    }

    #[test]
    fn names() {
        assert_eq!(Scale::Tiny.to_string(), "tiny");
        assert_eq!(Scale::Paper.to_string(), "paper");
    }
}
