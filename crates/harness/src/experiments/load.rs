//! Load shapes: closed-loop hammering vs. open-loop arrival-driven service.
//!
//! The paper evaluates locks **closed-loop**: N threads re-request the lock
//! the instant they release it, so offered load always equals capacity and
//! the only observable is throughput. A service deployment is **open-loop**:
//! requests arrive at a rate that does not care how busy the server is, and
//! the production-relevant observable is the sojourn-time distribution
//! (queue wait + service) as the offered load approaches capacity — the
//! regime where saturated locks collapse in ways throughput curves hide
//! (Dice & Kogan 2019, "Avoiding Scalability Collapse by Restricting
//! Concurrency").
//!
//! [`LoadMode`] selects the shape of one experiment cell (the spec-level
//! axis is [`Axis::Rate`](super::Axis::Rate): no rates = closed loop);
//! [`Arrival`] picks the inter-arrival distribution.

use std::fmt;

use super::ExperimentError;

/// Inter-arrival distribution of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arrival {
    /// Deterministic arrivals every `1/rate` (a paced load generator).
    Fixed,
    /// Exponential inter-arrival times (a Poisson process — memoryless
    /// arrivals, the standard open-system model).
    #[default]
    Poisson,
}

impl Arrival {
    /// Every distribution, in `--arrival` help order.
    pub const ALL: [Arrival; 2] = [Arrival::Fixed, Arrival::Poisson];

    /// The `--arrival` token.
    pub const fn name(self) -> &'static str {
        match self {
            Arrival::Fixed => "fixed",
            Arrival::Poisson => "poisson",
        }
    }

    /// Parses an `--arrival` token.
    pub fn parse(name: &str) -> Result<Arrival, ExperimentError> {
        match name.trim().to_ascii_lowercase().as_str() {
            "fixed" | "periodic" => Ok(Arrival::Fixed),
            "poisson" | "exp" | "exponential" => Ok(Arrival::Poisson),
            _ => Err(ExperimentError::unknown(
                "arrival distribution",
                name,
                Arrival::ALL.iter().map(|a| a.name()),
            )),
        }
    }
}

impl fmt::Display for Arrival {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The load shape of **one** experiment cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Closed-loop: every worker re-requests immediately (the paper's
    /// shape). The degenerate case of open-loop with infinite rate and
    /// per-worker admission.
    Closed,
    /// Open-loop: requests arrive at `rate_per_sec` drawn from `arrival`;
    /// workers serve them by acquiring the lock around the critical section.
    Open {
        /// Offered load in requests per second (of wall-clock time on the
        /// substrate runner, of virtual time on the simulator).
        rate_per_sec: u64,
        /// Inter-arrival distribution.
        arrival: Arrival,
    },
}

impl LoadMode {
    /// The `--mode` token (`closed` / `open`).
    pub const fn name(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open { .. } => "open",
        }
    }

    /// Whether this is an open-loop cell.
    pub const fn is_open(&self) -> bool {
        matches!(self, LoadMode::Open { .. })
    }
}

impl fmt::Display for LoadMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadMode::Closed => f.write_str("closed"),
            LoadMode::Open {
                rate_per_sec,
                arrival,
            } => write!(f, "open({rate_per_sec}/s, {arrival})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_tokens_round_trip_with_aliases() {
        for a in Arrival::ALL {
            assert_eq!(Arrival::parse(a.name()).unwrap(), a);
            assert_eq!(a.to_string(), a.name());
        }
        assert_eq!(Arrival::parse("exp").unwrap(), Arrival::Poisson);
        assert_eq!(Arrival::parse("periodic").unwrap(), Arrival::Fixed);
        let err = Arrival::parse("bogus").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fixed") && msg.contains("poisson"), "{msg}");
    }

    #[test]
    fn load_modes_report_their_name() {
        assert_eq!(LoadMode::Closed.name(), "closed");
        assert!(!LoadMode::Closed.is_open());
        let open = LoadMode::Open {
            rate_per_sec: 1_000,
            arrival: Arrival::Poisson,
        };
        assert_eq!(open.name(), "open");
        assert!(open.is_open());
        assert_eq!(open.to_string(), "open(1000/s, poisson)");
    }
}
