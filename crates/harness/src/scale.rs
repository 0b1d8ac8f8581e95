//! Experiment scale selection (`SCALE=smoke|ci|paper`).

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// One tiny iteration per experiment: only checks the bench still runs.
    /// Selected by `SCALE=smoke`; used by the CI smoke step so `cargo bench`
    /// can gate pull requests in seconds.
    Smoke,
    /// Quick runs suitable for `cargo bench` on a small host (default).
    Ci,
    /// The paper's full thread ranges and longer (virtual) durations.
    Paper,
}

impl Scale {
    /// Reads the `SCALE` environment variable (`smoke`, `ci` or `paper`;
    /// [`Scale::Ci`] when unset or unrecognised).
    pub fn from_env() -> Self {
        std::env::var("SCALE")
            .ok()
            .and_then(|value| Scale::parse(&value))
            .unwrap_or(Scale::Ci)
    }

    /// Parses a scale name (`smoke`, `ci`, `paper`/`full`), as used by the
    /// `SCALE` environment variable and the `lockbench --scale` flag.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "ci" => Some(Scale::Ci),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Sizing of a short real-thread substrate run (the wall-clock substrate
    /// runs of the figure table, and the `lockbench` workloads).
    ///
    /// This hoists the per-bench `if smoke { .. } else { .. }` config
    /// branching into one place so every bench agrees on what each scale
    /// means.
    pub fn substrate_run(self) -> SubstrateRun {
        use std::time::Duration;
        match self {
            Scale::Smoke => SubstrateRun {
                threads: 2,
                duration: Duration::from_millis(10),
            },
            Scale::Ci => SubstrateRun {
                threads: 4,
                duration: Duration::from_millis(60),
            },
            Scale::Paper => SubstrateRun {
                threads: 8,
                duration: Duration::from_millis(500),
            },
        }
    }

    /// Whether this is the single-iteration smoke scale.
    pub fn is_smoke(self) -> bool {
        self == Scale::Smoke
    }

    /// The canonical token, as accepted by [`Scale::parse`] and recorded in
    /// experiment reports.
    pub const fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Ci => "ci",
            Scale::Paper => "paper",
        }
    }

    /// The concrete knobs for this scale.
    pub fn config(self) -> ScaleConfig {
        match self {
            Scale::Smoke => ScaleConfig {
                virtual_duration_ms: 1,
                repetitions: 1,
                thread_cap: 8,
            },
            Scale::Ci => ScaleConfig {
                virtual_duration_ms: 8,
                repetitions: 1,
                thread_cap: 72,
            },
            Scale::Paper => ScaleConfig {
                virtual_duration_ms: 100,
                repetitions: 5,
                thread_cap: usize::MAX,
            },
        }
    }
}

/// Thread count and wall-clock duration of a real-thread substrate run at
/// one [`Scale`] (see [`Scale::substrate_run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstrateRun {
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock measurement interval.
    pub duration: std::time::Duration,
}

/// Concrete experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Simulated duration per data point, in milliseconds of virtual time.
    pub virtual_duration_ms: u64,
    /// Number of repetitions averaged per data point (the paper uses 5).
    pub repetitions: usize,
    /// Upper bound on the swept thread counts.
    pub thread_cap: usize,
}

impl ScaleConfig {
    /// Applies the cap to a list of thread counts.
    pub fn cap_threads(&self, counts: &[usize]) -> Vec<usize> {
        counts
            .iter()
            .copied()
            .filter(|&c| c <= self.thread_cap)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_smoke_ci_paper() {
        let smoke = Scale::Smoke.config();
        let ci = Scale::Ci.config();
        let paper = Scale::Paper.config();
        assert!(smoke.virtual_duration_ms < ci.virtual_duration_ms);
        assert!(smoke.thread_cap < ci.thread_cap);
        assert!(ci.virtual_duration_ms < paper.virtual_duration_ms);
        assert!(ci.repetitions < paper.repetitions);
        assert!(Scale::Smoke.is_smoke() && !Scale::Ci.is_smoke());
    }

    #[test]
    fn thread_cap_filters_counts() {
        let cfg = ScaleConfig {
            virtual_duration_ms: 1,
            repetitions: 1,
            thread_cap: 8,
        };
        assert_eq!(cfg.cap_threads(&[1, 4, 8, 16, 70]), vec![1, 4, 8]);
    }

    #[test]
    fn name_round_trips_through_parse() {
        for scale in [Scale::Smoke, Scale::Ci, Scale::Paper] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
    }

    #[test]
    fn parse_accepts_the_env_var_spellings() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("CI"), Some(Scale::Ci));
        assert_eq!(Scale::parse(" paper "), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn substrate_runs_grow_with_the_scale() {
        let smoke = Scale::Smoke.substrate_run();
        let ci = Scale::Ci.substrate_run();
        let paper = Scale::Paper.substrate_run();
        assert!(smoke.duration < ci.duration && ci.duration < paper.duration);
        assert!(smoke.threads <= ci.threads && ci.threads <= paper.threads);
    }

    #[test]
    fn from_env_defaults_to_ci() {
        // Only meaningful when the ambient environment does not override it.
        if std::env::var("SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Ci);
        }
    }
}
