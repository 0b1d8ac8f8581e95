//! The unified experiment API: one spec describes any sweep of the paper.
//!
//! The paper's evaluation is a grid of (algorithm × thread count × workload)
//! runs. This module expresses that grid **once**, for both measurement
//! back-ends:
//!
//! * [`ExperimentSpec`] — the builder: lock set × workloads × thread sweep ×
//!   [`Scale`] × repetitions × [`Metric`].
//! * [`Runner`] — the execution trait, with two implementations: the
//!   real-thread [`SubstrateRunner`] (kvmap / leveldb / kyoto / locktorture
//!   / will-it-scale through the registry's dyn entry points) and the
//!   discrete-event [`SimRunner`] (the NUMA machine simulator behind the
//!   reproduced figures).
//! * [`RunReport`] — the structured result: raw [`Sample`]s with enough
//!   metadata (lock, workload, threads, metric, unit, scale) to regenerate
//!   any paper figure; serializes to CSV and JSON under
//!   `target/experiments/` and aggregates into per-workload
//!   [`SweepResult`] tables.
//! * [`RunReport::diff_against`] — threshold-based regression comparison
//!   against a stored baseline (what `lockbench diff` exits non-zero on).
//!
//! The `lockbench` CLI, the figure benches and the examples are all thin
//! layers over this module: a new algorithm or workload is one spec row,
//! not another hand-rolled loop.
//!
//! # Examples
//!
//! ```
//! use harness::experiments::{ExperimentSpec, Metric, WorkloadId};
//! use harness::Scale;
//! use registry::LockId;
//!
//! let report = ExperimentSpec::new("doc_example")
//!     .locks(vec![LockId::Mcs, LockId::Cna])
//!     .workload(WorkloadId::Sim.to_spec())
//!     .threads(vec![1, 2])
//!     .scale(Scale::Smoke)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.samples.len(), 4); // 2 locks × 2 thread counts
//! let sweep = &report.sweeps()[0];
//! assert!(sweep.final_value("CNA").unwrap() > 0.0);
//! ```

pub mod diff;
pub mod histogram;
pub mod load;
pub mod openloop;
pub mod report;
pub mod runner;

pub use diff::{DiffEntry, DiffReport, DiffThreshold};
pub use histogram::LatencyHistogram;
pub use load::{parse_rate_list, Arrival, LoadMode, LoadSpec};
pub use openloop::OpenLoopSummary;
pub use report::{RunReport, Sample, SweepResult, SweepRow};
pub use runner::{Runner, SimRunner, SubstrateRunner};

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use numa_sim::{CostModel, MachineConfig, Workload};
use registry::LockId;

use crate::scale::Scale;
use crate::table::WriteError;

/// Which quantity an experiment measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Total throughput in operations per microsecond (most figures).
    ThroughputOpsPerUs,
    /// LLC load-miss-rate proxy (Figure 7; simulator only).
    LlcMissesPerUs,
    /// Long-term fairness factor: the fraction of all operations completed
    /// by the better-served half of the threads (Figure 8). 0.5 = fair.
    FairnessFactor,
    /// Median per-request sojourn time (queue wait + service), in
    /// microseconds. Open-loop only.
    P50Sojourn,
    /// 99th-percentile sojourn time, in microseconds. Open-loop only.
    P99Sojourn,
    /// 99.9th-percentile sojourn time, in microseconds. Open-loop only.
    P999Sojourn,
    /// Mean number of requests in the system (arrived, not yet served),
    /// sampled at each arrival. Open-loop only.
    QueueDepth,
}

impl Metric {
    /// Every metric, in `--metric` help order.
    pub const ALL: [Metric; 7] = [
        Metric::ThroughputOpsPerUs,
        Metric::LlcMissesPerUs,
        Metric::FairnessFactor,
        Metric::P50Sojourn,
        Metric::P99Sojourn,
        Metric::P999Sojourn,
        Metric::QueueDepth,
    ];

    /// Lower-case token used in CSV/JSON columns and `--metric` flags.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::ThroughputOpsPerUs => "throughput",
            Metric::LlcMissesPerUs => "llc-misses",
            Metric::FairnessFactor => "fairness",
            Metric::P50Sojourn => "p50",
            Metric::P99Sojourn => "p99",
            Metric::P999Sojourn => "p999",
            Metric::QueueDepth => "queue-depth",
        }
    }

    /// Column-header / CSV unit suffix.
    pub const fn unit(self) -> &'static str {
        match self {
            Metric::ThroughputOpsPerUs => "ops/us",
            Metric::LlcMissesPerUs => "misses/us",
            Metric::FairnessFactor => "fairness",
            Metric::P50Sojourn | Metric::P99Sojourn | Metric::P999Sojourn => "us",
            Metric::QueueDepth => "requests",
        }
    }

    /// Regression direction: `true` when larger values are better.
    /// (Fairness factor: 0.5 is fair, 1.0 is starvation — lower is better.
    /// Sojourn percentiles and queue depth: latency, lower is better.)
    pub const fn higher_is_better(self) -> bool {
        matches!(self, Metric::ThroughputOpsPerUs)
    }

    /// Whether the metric only exists under open-loop arrivals (there is no
    /// queue, and no per-request sojourn, when workers re-request
    /// immediately).
    pub const fn requires_open_loop(self) -> bool {
        matches!(
            self,
            Metric::P50Sojourn | Metric::P99Sojourn | Metric::P999Sojourn | Metric::QueueDepth
        )
    }

    /// Parses a `--metric` token.
    pub fn parse(name: &str) -> Result<Metric, ExperimentError> {
        match name.trim().to_ascii_lowercase().as_str() {
            "throughput" | "ops" => Ok(Metric::ThroughputOpsPerUs),
            "llc-misses" | "llc" | "misses" => Ok(Metric::LlcMissesPerUs),
            "fairness" => Ok(Metric::FairnessFactor),
            "p50" | "median" => Ok(Metric::P50Sojourn),
            "p99" => Ok(Metric::P99Sojourn),
            "p999" | "p99.9" => Ok(Metric::P999Sojourn),
            "queue-depth" | "depth" => Ok(Metric::QueueDepth),
            _ => Err(ExperimentError::unknown(
                "metric",
                name,
                Metric::ALL.iter().map(|m| m.name()),
            )),
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Anything that can go wrong building, running or (de)serializing an
/// experiment.
#[derive(Debug)]
pub enum ExperimentError {
    /// The spec selected no lock algorithms.
    EmptyLocks,
    /// The spec selected no workloads.
    EmptyWorkloads,
    /// A thread list was malformed (zero, duplicate, or unparseable), or the
    /// scale cap left no thread counts to sweep.
    InvalidThreads(String),
    /// An offered-rate list was malformed (zero, duplicate, unparseable, or
    /// empty).
    InvalidRate(String),
    /// A shard-count list was malformed (zero, duplicate, unparseable, or
    /// empty).
    InvalidShards(String),
    /// A batch-limit list was malformed (zero, duplicate, unparseable, or
    /// empty).
    InvalidBatch(String),
    /// A sweep axis was applied to a workload that has no such axis
    /// (`--shards` off the sharded kv-map, `--batch` off leveldb).
    UnsupportedAxis {
        /// The workload that has no such axis.
        workload: String,
        /// The rejected axis (`"shards"` / `"batch"`).
        axis: &'static str,
    },
    /// The spec's id or a workload label contains a character the CSV
    /// report format cannot represent (comma or newline).
    InvalidId(String),
    /// A string-to-enum parse failed: the shared error shape of every parse
    /// surface in this module (metrics, workloads, arrival distributions).
    Unknown {
        /// What kind of name failed to parse (`"metric"`, `"workload"`, ...).
        kind: &'static str,
        /// The offending input.
        name: String,
        /// Every valid token, in help order.
        valid: Vec<&'static str>,
    },
    /// The metric cannot be measured on this workload's runner.
    UnsupportedMetric {
        /// The workload that rejected the metric.
        workload: String,
        /// The rejected metric's token.
        metric: &'static str,
    },
    /// The metric and the load mode are incompatible (sojourn percentiles
    /// and queue depth on a closed-loop run).
    ModeMetricMismatch {
        /// The rejected metric's token.
        metric: &'static str,
        /// The load mode that cannot measure it (`"closed"` / `"open"`).
        mode: &'static str,
    },
    /// The workload's runner cannot serve open-loop arrivals.
    UnsupportedLoadMode {
        /// The workload that rejected the mode.
        workload: String,
    },
    /// Writing a report file failed.
    Write(WriteError),
    /// Reading a report file failed.
    Read {
        /// The file that could not be read.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A report file did not parse.
    Parse {
        /// 1-based line number within the file (0 = whole file).
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::EmptyLocks => write!(f, "the experiment selects no lock algorithms"),
            ExperimentError::EmptyWorkloads => write!(f, "the experiment selects no workloads"),
            ExperimentError::InvalidThreads(msg) => write!(f, "invalid thread list: {msg}"),
            ExperimentError::InvalidRate(msg) => write!(f, "invalid rate list: {msg}"),
            ExperimentError::InvalidShards(msg) => write!(f, "invalid shard list: {msg}"),
            ExperimentError::InvalidBatch(msg) => write!(f, "invalid batch list: {msg}"),
            ExperimentError::UnsupportedAxis { workload, axis } => {
                write!(
                    f,
                    "workload {workload:?} has no {axis} axis \
                     (--shards applies to kvmap, --batch to leveldb)"
                )
            }
            ExperimentError::Unknown { kind, name, valid } => {
                write!(f, "unknown {kind} {name:?} (valid: {})", valid.join(", "))
            }
            ExperimentError::ModeMetricMismatch { metric, mode } => {
                write!(f, "metric {metric:?} cannot be measured {mode}-loop")
            }
            ExperimentError::UnsupportedLoadMode { workload } => {
                write!(
                    f,
                    "workload {workload:?} cannot serve open-loop arrivals \
                     (open mode is supported by kvmap and sim)"
                )
            }
            ExperimentError::InvalidId(name) => {
                write!(
                    f,
                    "{name:?} cannot name a report (commas and newlines break the CSV format)"
                )
            }
            ExperimentError::UnsupportedMetric { workload, metric } => {
                write!(f, "workload {workload:?} cannot measure {metric:?}")
            }
            ExperimentError::Write(err) => write!(f, "{err}"),
            ExperimentError::Read { path, source } => {
                write!(f, "could not read {}: {source}", path.display())
            }
            ExperimentError::Parse { line, message } => {
                if *line == 0 {
                    write!(f, "malformed report: {message}")
                } else {
                    write!(f, "malformed report (line {line}): {message}")
                }
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Write(err) => Some(err),
            ExperimentError::Read { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<WriteError> for ExperimentError {
    fn from(err: WriteError) -> Self {
        ExperimentError::Write(err)
    }
}

impl ExperimentError {
    /// Builds the shared [`ExperimentError::Unknown`] parse error: `kind` is
    /// what was being parsed, `name` the offending input, `valid` every
    /// accepted token (shown in the message so CLI users never have to guess).
    pub fn unknown(
        kind: &'static str,
        name: &str,
        valid: impl IntoIterator<Item = &'static str>,
    ) -> Self {
        ExperimentError::Unknown {
            kind,
            name: name.to_string(),
            valid: valid.into_iter().collect(),
        }
    }
}

/// Parses a thread-sweep list: comma-separated counts, each either a number
/// (`4`) or an inclusive range (`1-8`, optionally strided: `2-16/2`).
///
/// Rejects zero, duplicates and empty lists — a sweep that silently dropped
/// a requested point would corrupt baseline comparisons.
///
/// # Examples
///
/// ```
/// use harness::experiments::parse_thread_list;
/// assert_eq!(parse_thread_list("1,2,4").unwrap(), vec![1, 2, 4]);
/// assert_eq!(parse_thread_list("1-4").unwrap(), vec![1, 2, 3, 4]);
/// assert_eq!(parse_thread_list("2-8/2").unwrap(), vec![2, 4, 6, 8]);
/// assert!(parse_thread_list("0,1").is_err());
/// assert!(parse_thread_list("1,1").is_err());
/// ```
pub fn parse_thread_list(list: &str) -> Result<Vec<usize>, ExperimentError> {
    let bad = |msg: String| ExperimentError::InvalidThreads(msg);
    let parse_count = |token: &str| -> Result<usize, ExperimentError> {
        let n: usize = token
            .trim()
            .parse()
            .map_err(|_| bad(format!("{token:?} is not a thread count")))?;
        if n == 0 {
            return Err(bad("thread counts must be at least 1".to_string()));
        }
        Ok(n)
    };
    let mut threads = Vec::new();
    for part in list.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((range, step)) = part.split_once('/') {
            let step = parse_count(step)?;
            let (lo, hi) = range
                .split_once('-')
                .ok_or_else(|| bad(format!("{part:?}: stride requires a range (lo-hi/step)")))?;
            let (lo, hi) = (parse_count(lo)?, parse_count(hi)?);
            if lo > hi {
                return Err(bad(format!("{part:?}: range is descending")));
            }
            threads.extend((lo..=hi).step_by(step));
        } else if let Some((lo, hi)) = part.split_once('-') {
            let (lo, hi) = (parse_count(lo)?, parse_count(hi)?);
            if lo > hi {
                return Err(bad(format!("{part:?}: range is descending")));
            }
            threads.extend(lo..=hi);
        } else {
            threads.push(parse_count(part)?);
        }
    }
    if threads.is_empty() {
        return Err(bad("the list selects no thread counts".to_string()));
    }
    let mut seen = std::collections::HashSet::new();
    for &t in &threads {
        if !seen.insert(t) {
            return Err(bad(format!("thread count {t} appears twice")));
        }
    }
    Ok(threads)
}

/// The parsed thread axis of a sweep: absolute counts plus CPU-count
/// multipliers (the oversubscription axis).
///
/// Multiplier cells resolve to `multiplier × base_threads` at run time,
/// where the base is the back-end's CPU count (the simulated machine's
/// logical CPUs, or the host's available parallelism). They deliberately
/// bypass the scale's thread cap: running more threads than CPUs is the
/// point of the axis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadAxis {
    /// Absolute thread counts (`4`, `1-8`, `2-16/2`).
    pub counts: Vec<usize>,
    /// CPU-count multipliers (`4x`, `1x-8x`, `2x-8x/2`).
    pub multipliers: Vec<usize>,
}

/// Parses a thread-sweep list that may mix absolute counts with `x`-suffixed
/// CPU-count multipliers: `"1,2,4x"`, `"1x-8x"`, `"2x-8x/2,16"`.
///
/// Plain tokens follow the [`parse_thread_list`] grammar; in a multiplier
/// token every range boundary carries the `x` suffix (`1x-8x`, not `1-8x`).
/// Zero and duplicates are rejected per sub-axis.
///
/// # Examples
///
/// ```
/// use harness::experiments::parse_thread_axis;
/// let axis = parse_thread_axis("1,2,4x,8x").unwrap();
/// assert_eq!(axis.counts, vec![1, 2]);
/// assert_eq!(axis.multipliers, vec![4, 8]);
/// let axis = parse_thread_axis("1x-4x").unwrap();
/// assert_eq!(axis.multipliers, vec![1, 2, 3, 4]);
/// assert!(parse_thread_axis("x4").is_err());
/// assert!(parse_thread_axis("1-8x").is_err());
/// ```
pub fn parse_thread_axis(list: &str) -> Result<ThreadAxis, ExperimentError> {
    let bad = |msg: String| ExperimentError::InvalidThreads(msg);
    let mut count_parts: Vec<String> = Vec::new();
    let mut mult_parts: Vec<String> = Vec::new();
    for part in list.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if !part.to_ascii_lowercase().contains('x') {
            count_parts.push(part.to_string());
            continue;
        }
        // A multiplier token: strip the `x` from every range boundary and
        // reuse the numeric grammar. The stride (after `/`) is a plain count.
        let (range, step) = match part.split_once('/') {
            Some((range, step)) => (range, Some(step)),
            None => (part, None),
        };
        let boundaries: Result<Vec<&str>, ExperimentError> = range
            .split('-')
            .map(|token| {
                let token = token.trim();
                token
                    .strip_suffix('x')
                    .or_else(|| token.strip_suffix('X'))
                    .ok_or_else(|| {
                        bad(format!(
                            "{part:?}: multiplier tokens end in 'x' (e.g. 4x, 1x-8x)"
                        ))
                    })
            })
            .collect();
        let mut rebuilt = boundaries?.join("-");
        if let Some(step) = step {
            rebuilt.push('/');
            rebuilt.push_str(step);
        }
        mult_parts.push(rebuilt);
    }
    let counts = if count_parts.is_empty() {
        Vec::new()
    } else {
        parse_thread_list(&count_parts.join(","))?
    };
    let multipliers = if mult_parts.is_empty() {
        Vec::new()
    } else {
        parse_thread_list(&mult_parts.join(",")).map_err(|err| match err {
            ExperimentError::InvalidThreads(msg) => {
                bad(msg.replace("thread count", "thread multiplier"))
            }
            other => other,
        })?
    };
    if counts.is_empty() && multipliers.is_empty() {
        return Err(bad("the list selects no thread counts".to_string()));
    }
    Ok(ThreadAxis {
        counts,
        multipliers,
    })
}

/// Parses a shard-count sweep list (`--shards`): the same grammar as
/// [`parse_thread_list`] (counts, ranges, strides; rejects zero, duplicates
/// and empty lists).
///
/// # Examples
///
/// ```
/// use harness::experiments::parse_shard_list;
/// assert_eq!(parse_shard_list("1,2,4,8").unwrap(), vec![1, 2, 4, 8]);
/// assert!(parse_shard_list("0").is_err());
/// ```
pub fn parse_shard_list(list: &str) -> Result<Vec<usize>, ExperimentError> {
    parse_thread_list(list).map_err(|err| match err {
        // Re-badge the diagnostic: the grammar is shared, the flag is not.
        ExperimentError::InvalidThreads(msg) => {
            ExperimentError::InvalidShards(msg.replace("thread count", "shard count"))
        }
        other => other,
    })
}

/// Parses a batch-limit sweep list (`--batch`): the same grammar as
/// [`parse_thread_list`] (counts, ranges, strides; rejects zero, duplicates
/// and empty lists).
///
/// # Examples
///
/// ```
/// use harness::experiments::parse_batch_list;
/// assert_eq!(parse_batch_list("1,8,32").unwrap(), vec![1, 8, 32]);
/// assert!(parse_batch_list("1,1").is_err());
/// ```
pub fn parse_batch_list(list: &str) -> Result<Vec<usize>, ExperimentError> {
    parse_thread_list(list).map_err(|err| match err {
        // Re-badge the diagnostic: the grammar is shared, the flag is not.
        ExperimentError::InvalidThreads(msg) => {
            ExperimentError::InvalidBatch(msg.replace("thread count", "batch limit"))
        }
        other => other,
    })
}

/// One cell of the experiment grid: the full coordinate a [`Runner`]
/// receives — thread count, load shape, and the scale-out axes.
///
/// `shards = 1` means a single lock guards all state (every workload's
/// native shape); `batch = 0` means the workload's native single-write path
/// (no group commit), while `batch >= 1` routes leveldb writes through
/// group commit with that leader limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    /// Worker (or simulated) thread count, always resolved to an absolute
    /// number (multiplier cells are resolved before the runner sees them).
    pub threads: usize,
    /// Load shape of the cell.
    pub mode: LoadMode,
    /// Shard count (1 = unsharded).
    pub shards: usize,
    /// Group-commit batch limit (0 = the native non-batched path).
    pub batch: usize,
    /// Provenance of `threads`: 0 for an absolute count, `m >= 1` when the
    /// cell came from an `m`-times-the-CPU-count multiplier token (`4x`) of
    /// the oversubscription axis. Reporting only; `threads` is already
    /// resolved.
    pub multiplier: usize,
}

impl GridPoint {
    /// A closed-loop, unsharded, non-batched cell — the historical default
    /// shape of every grid before the scale-out axes existed.
    pub fn closed(threads: usize) -> Self {
        GridPoint {
            threads,
            mode: LoadMode::Closed,
            shards: 1,
            batch: 0,
            multiplier: 0,
        }
    }
}

/// The workloads an experiment can select by token (the `--workload` flag).
///
/// The first five run real threads against the real substrates; [`Sim`]
/// selects the NUMA machine simulator (the Figure 6 key-value-map sweep on
/// the paper's 2-socket machine by default).
///
/// [`Sim`]: WorkloadId::Sim
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// Key-value-map-style contention loop (`harness::real`).
    KvMap,
    /// `leveldb-lite` `db_bench readrandom` (§7.1.2).
    Leveldb,
    /// `kyoto-lite` `kccachetest wicked` (§7.1.3).
    Kyoto,
    /// Kernel `locktorture` with lockstat updates (§7.2, Figures 13/14).
    LockTorture,
    /// The four `will-it-scale` VFS benchmarks (§7.2, Figure 15).
    Wis,
    /// The NUMA machine simulator (Figure 6 workload on the 2-socket
    /// machine).
    Sim,
}

impl WorkloadId {
    /// All workloads, in `--workload all` order.
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::KvMap,
        WorkloadId::Leveldb,
        WorkloadId::Kyoto,
        WorkloadId::LockTorture,
        WorkloadId::Wis,
        WorkloadId::Sim,
    ];

    /// The `--workload` token.
    pub const fn name(self) -> &'static str {
        match self {
            WorkloadId::KvMap => "kvmap",
            WorkloadId::Leveldb => "leveldb",
            WorkloadId::Kyoto => "kyoto",
            WorkloadId::LockTorture => "locktorture",
            WorkloadId::Wis => "wis",
            WorkloadId::Sim => "sim",
        }
    }

    /// Parses one `--workload` token.
    pub fn parse(name: &str) -> Result<WorkloadId, ExperimentError> {
        let normalized = name.trim().to_ascii_lowercase();
        WorkloadId::ALL
            .into_iter()
            .find(|w| w.name() == normalized)
            .ok_or_else(|| {
                ExperimentError::unknown("workload", name, WorkloadId::ALL.iter().map(|w| w.name()))
            })
    }

    /// Parses a comma-separated `--workload` list (`all` = every workload).
    pub fn parse_list(list: &str) -> Result<Vec<WorkloadId>, ExperimentError> {
        if list.trim().eq_ignore_ascii_case("all") {
            return Ok(WorkloadId::ALL.to_vec());
        }
        list.split(',')
            .filter(|part| !part.trim().is_empty())
            .map(WorkloadId::parse)
            .collect()
    }

    /// Whether this workload's runner can serve open-loop arrivals: the
    /// kvmap contention loop (real threads pacing on the wall clock) and the
    /// simulator (virtual-time event heap). The remaining substrates drive
    /// external benchmark loops that own their own iteration structure.
    pub const fn supports_open_loop(self) -> bool {
        matches!(self, WorkloadId::KvMap | WorkloadId::Sim)
    }

    /// The concrete [`WorkloadSpec`] this token selects.
    pub fn to_spec(self) -> WorkloadSpec {
        match self {
            WorkloadId::KvMap => WorkloadSpec::Substrate(SubstrateWorkload::KvMap),
            WorkloadId::Leveldb => WorkloadSpec::Substrate(SubstrateWorkload::Leveldb),
            WorkloadId::Kyoto => WorkloadSpec::Substrate(SubstrateWorkload::Kyoto),
            WorkloadId::LockTorture => WorkloadSpec::Substrate(SubstrateWorkload::LockTorture),
            WorkloadId::Wis => WorkloadSpec::Substrate(SubstrateWorkload::Wis),
            WorkloadId::Sim => WorkloadSpec::Sim(SimSweep::two_socket(
                "sim",
                numa_sim::workloads::kv_map(0, 0.2),
            )),
        }
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The real-thread substrates the [`SubstrateRunner`] can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateWorkload {
    /// Key-value-map-style contention loop.
    KvMap,
    /// `leveldb-lite` `db_bench readrandom`.
    Leveldb,
    /// `kyoto-lite` `kccachetest wicked`.
    Kyoto,
    /// Kernel `locktorture` with lockstat updates.
    LockTorture,
    /// The four `will-it-scale` VFS benchmarks.
    Wis,
}

impl SubstrateWorkload {
    /// The sample label (and `--workload` token) of this substrate.
    pub const fn name(self) -> &'static str {
        match self {
            SubstrateWorkload::KvMap => "kvmap",
            SubstrateWorkload::Leveldb => "leveldb",
            SubstrateWorkload::Kyoto => "kyoto",
            SubstrateWorkload::LockTorture => "locktorture",
            SubstrateWorkload::Wis => "wis",
        }
    }

    /// Whether this substrate can serve open-loop arrivals (see
    /// [`WorkloadId::supports_open_loop`]).
    pub const fn supports_open_loop(self) -> bool {
        matches!(self, SubstrateWorkload::KvMap)
    }
}

/// A simulator sweep configuration: which virtual machine, which latency
/// calibration and which workload preset (what `FigureSpec` used to hold).
#[derive(Debug, Clone)]
pub struct SimSweep {
    /// Sample label for this workload (e.g. `sim` or `fig06`).
    pub label: String,
    /// Simulated machine.
    pub machine: MachineConfig,
    /// Latency calibration.
    pub cost: CostModel,
    /// Workload preset.
    pub workload: Workload,
}

impl SimSweep {
    /// A sweep on the paper's 2-socket machine.
    pub fn two_socket(label: impl Into<String>, workload: Workload) -> Self {
        SimSweep {
            label: label.into(),
            machine: MachineConfig::two_socket_paper(),
            cost: CostModel::two_socket_xeon(),
            workload,
        }
    }

    /// A sweep on the paper's 4-socket machine.
    pub fn four_socket(label: impl Into<String>, workload: Workload) -> Self {
        SimSweep {
            label: label.into(),
            machine: MachineConfig::four_socket_paper(),
            cost: CostModel::four_socket_xeon(),
            workload,
        }
    }
}

/// One workload of an experiment, bound to the runner that executes it.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Wall-clock, real-thread run of a registry-driven substrate.
    Substrate(SubstrateWorkload),
    /// Discrete-event simulation on a virtual NUMA machine.
    Sim(SimSweep),
}

impl WorkloadSpec {
    /// The label samples of this workload carry.
    pub fn label(&self) -> &str {
        match self {
            WorkloadSpec::Substrate(w) => w.name(),
            WorkloadSpec::Sim(sweep) => &sweep.label,
        }
    }

    /// The runner executing this workload.
    pub fn runner(&self) -> Box<dyn Runner + '_> {
        match self {
            WorkloadSpec::Substrate(w) => Box::new(SubstrateRunner { workload: *w }),
            WorkloadSpec::Sim(sweep) => Box::new(SimRunner { sweep }),
        }
    }

    /// Whether the workload's runner can serve open-loop arrivals.
    pub fn supports_open_loop(&self) -> bool {
        match self {
            WorkloadSpec::Substrate(w) => w.supports_open_loop(),
            WorkloadSpec::Sim(_) => true,
        }
    }
}

/// Everything needed to run (and re-run) one experiment: the full
/// lock × workload × thread grid plus sizing. Construct with
/// [`ExperimentSpec::new`] and the builder methods, then call
/// [`ExperimentSpec::run`].
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Report id; names the CSV/JSON files under `target/experiments/`.
    pub id: String,
    /// Human-readable title printed above result tables.
    pub title: String,
    /// Algorithms to compare.
    pub locks: Vec<LockId>,
    /// Workloads to run; each sample records which one produced it.
    pub workloads: Vec<WorkloadSpec>,
    /// Thread counts to sweep. Empty = the runner's default for the scale
    /// (the machine's paper sweep on the simulator, one substrate sizing
    /// otherwise) unless [`thread_multipliers`](Self::thread_multipliers)
    /// pins the axis instead. Explicit lists are still capped by the scale.
    pub threads: Vec<usize>,
    /// Oversubscription axis: CPU-count multipliers resolved against the
    /// back-end's base thread count (`4` → four threads per logical CPU).
    /// Resolved cells bypass the scale's thread cap — running past the CPU
    /// count is the point. Empty = no multiplier cells.
    pub thread_multipliers: Vec<usize>,
    /// Run sizing.
    pub scale: Scale,
    /// Repetitions averaged per data point; 0 = the scale's default.
    pub repetitions: usize,
    /// Quantity to measure.
    pub metric: Metric,
    /// Wall-clock override for substrate runs, in milliseconds.
    pub duration_ms: Option<u64>,
    /// The load axis: closed-loop hammering (the default) or an open-loop
    /// offered-rate sweep.
    pub load: LoadSpec,
    /// Shard counts to sweep on the sharded kv-map. Empty = no shard axis
    /// (every cell runs unsharded, `shards = 1`).
    pub shards: Vec<usize>,
    /// Group-commit batch limits to sweep on leveldb. Empty = no batch axis
    /// (every cell runs the native non-batched write path, `batch = 0`).
    pub batches: Vec<usize>,
}

impl ExperimentSpec {
    /// A spec with defaults: title = id, scale from the environment,
    /// throughput metric, scale-default repetitions and thread counts.
    pub fn new(id: impl Into<String>) -> Self {
        let id = id.into();
        ExperimentSpec {
            title: id.clone(),
            id,
            locks: Vec::new(),
            workloads: Vec::new(),
            threads: Vec::new(),
            thread_multipliers: Vec::new(),
            scale: Scale::from_env(),
            repetitions: 0,
            metric: Metric::ThroughputOpsPerUs,
            duration_ms: None,
            load: LoadSpec::Closed,
            shards: Vec::new(),
            batches: Vec::new(),
        }
    }

    /// Sets the display title.
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Adds one lock algorithm.
    pub fn lock(mut self, id: LockId) -> Self {
        self.locks.push(id);
        self
    }

    /// Sets the lock set.
    pub fn locks(mut self, ids: Vec<LockId>) -> Self {
        self.locks = ids;
        self
    }

    /// Adds one workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Sets the workload list.
    pub fn workloads(mut self, workloads: Vec<WorkloadSpec>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Sets an explicit thread sweep (empty = runner default).
    pub fn threads(mut self, threads: Vec<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the oversubscription axis: each multiplier adds a cell at
    /// `multiplier × base_threads`, uncapped by the scale.
    pub fn thread_multipliers(mut self, multipliers: Vec<usize>) -> Self {
        self.thread_multipliers = multipliers;
        self
    }

    /// Sets both halves of the thread axis from a parsed
    /// [`ThreadAxis`] (the `--threads` grammar with `x` tokens).
    pub fn thread_axis(mut self, axis: ThreadAxis) -> Self {
        self.threads = axis.counts;
        self.thread_multipliers = axis.multipliers;
        self
    }

    /// Sets the run sizing.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the repetitions per data point (0 = scale default).
    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions;
        self
    }

    /// Sets the measured metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Overrides the substrate wall-clock duration.
    pub fn duration_ms(mut self, ms: u64) -> Self {
        self.duration_ms = Some(ms);
        self
    }

    /// Sets the load axis (closed-loop, or an open-loop rate sweep).
    pub fn load(mut self, load: LoadSpec) -> Self {
        self.load = load;
        self
    }

    /// Shorthand: open-loop at each listed rate (requests per second).
    pub fn open_rates(mut self, rates_per_sec: Vec<u64>, arrival: Arrival) -> Self {
        self.load = LoadSpec::Open {
            rates_per_sec,
            arrival,
        };
        self
    }

    /// Sets the shard-count sweep (kvmap only; empty = no shard axis).
    pub fn shards(mut self, shards: Vec<usize>) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the group-commit batch sweep (leveldb only; empty = no batch
    /// axis).
    pub fn batches(mut self, batches: Vec<usize>) -> Self {
        self.batches = batches;
        self
    }

    /// The repetitions actually run per data point.
    pub fn effective_repetitions(&self) -> usize {
        if self.repetitions == 0 {
            self.scale.config().repetitions.max(1)
        } else {
            self.repetitions
        }
    }

    /// The substrate wall-clock duration actually used.
    pub fn effective_duration(&self) -> Duration {
        self.duration_ms
            .map(Duration::from_millis)
            .unwrap_or_else(|| self.scale.substrate_run().duration)
    }

    /// Checks the spec before anything runs, so a multi-minute grid cannot
    /// fail halfway through on a condition knowable up front: non-empty
    /// lock/workload sets, CSV-representable id and labels, a metric every
    /// selected runner can measure, and a load mode every selected runner
    /// (and the metric) supports.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        if self.locks.is_empty() {
            return Err(ExperimentError::EmptyLocks);
        }
        if self.workloads.is_empty() {
            return Err(ExperimentError::EmptyWorkloads);
        }
        for name in
            std::iter::once(self.id.as_str()).chain(self.workloads.iter().map(|w| w.label()))
        {
            if name.is_empty() || name.contains([',', '\n', '\r']) {
                return Err(ExperimentError::InvalidId(name.to_string()));
            }
        }
        if self.metric.requires_open_loop() && !self.load.is_open() {
            // There is no queue (and no per-request sojourn) when workers
            // re-request the lock the instant they release it.
            return Err(ExperimentError::ModeMetricMismatch {
                metric: self.metric.name(),
                mode: self.load.name(),
            });
        }
        if let LoadSpec::Open { rates_per_sec, .. } = &self.load {
            if rates_per_sec.is_empty() {
                return Err(ExperimentError::InvalidRate(
                    "the open-loop spec lists no offered rates".to_string(),
                ));
            }
            if rates_per_sec.contains(&0) {
                return Err(ExperimentError::InvalidRate(
                    "offered rates must be at least 1 request/s".to_string(),
                ));
            }
        }
        if self.thread_multipliers.contains(&0) {
            return Err(ExperimentError::InvalidThreads(
                "thread multipliers must be at least 1".to_string(),
            ));
        }
        {
            let mut seen = std::collections::HashSet::new();
            for &m in &self.thread_multipliers {
                if !seen.insert(m) {
                    return Err(ExperimentError::InvalidThreads(format!(
                        "thread multiplier {m} appears twice"
                    )));
                }
            }
        }
        if self.shards.contains(&0) {
            return Err(ExperimentError::InvalidShards(
                "shard counts must be at least 1".to_string(),
            ));
        }
        if self.batches.contains(&0) {
            return Err(ExperimentError::InvalidBatch(
                "batch limits must be at least 1".to_string(),
            ));
        }
        for workload in &self.workloads {
            if matches!(workload, WorkloadSpec::Substrate(_))
                && self.metric == Metric::LlcMissesPerUs
            {
                // Wall-clock runs have no cache-event counters; only the
                // simulator can report LLC misses.
                return Err(ExperimentError::UnsupportedMetric {
                    workload: workload.label().to_string(),
                    metric: self.metric.name(),
                });
            }
            let is_batched_leveldb = matches!(
                workload,
                WorkloadSpec::Substrate(SubstrateWorkload::Leveldb)
            ) && !self.batches.is_empty();
            // The group-commit write path paces arrivals itself, so a
            // batched leveldb spec may serve open-loop load even though the
            // native readrandom loop cannot.
            if self.load.is_open() && !workload.supports_open_loop() && !is_batched_leveldb {
                return Err(ExperimentError::UnsupportedLoadMode {
                    workload: workload.label().to_string(),
                });
            }
            if !self.shards.is_empty()
                && !matches!(workload, WorkloadSpec::Substrate(SubstrateWorkload::KvMap))
            {
                return Err(ExperimentError::UnsupportedAxis {
                    workload: workload.label().to_string(),
                    axis: "shards",
                });
            }
            if !self.batches.is_empty()
                && !matches!(
                    workload,
                    WorkloadSpec::Substrate(SubstrateWorkload::Leveldb)
                )
            {
                return Err(ExperimentError::UnsupportedAxis {
                    workload: workload.label().to_string(),
                    axis: "batch",
                });
            }
        }
        Ok(())
    }

    /// Runs the full grid and collects every sample into a [`RunReport`].
    ///
    /// Validates first (see [`ExperimentSpec::validate`]) so nothing runs on
    /// a spec that cannot finish or serialize. Workloads run in order;
    /// within a workload the load axis is the outer loop, then the thread
    /// sweep, then the lock set, so partial output (tables printed by
    /// callers as sweeps complete) groups the way the paper's figures do.
    pub fn run(&self) -> Result<RunReport, ExperimentError> {
        self.validate()?;
        let mut samples = Vec::new();
        for workload in &self.workloads {
            let runner = workload.runner();
            let threads = if self.threads.is_empty() {
                // A pure multiplier axis pins the sweep on its own; only a
                // spec with no thread axis at all falls back to the default.
                if self.thread_multipliers.is_empty() {
                    runner.default_threads(self.scale)
                } else {
                    Vec::new()
                }
            } else {
                self.scale.config().cap_threads(&self.threads)
            };
            // The thread axis the cells iterate: capped absolutes first,
            // then the multiplier cells resolved against the back-end's CPU
            // count — deliberately uncapped (oversubscription is the point)
            // and deduplicated against already-present absolute counts.
            let mut thread_cells: Vec<(usize, usize)> = threads.iter().map(|&t| (t, 0)).collect();
            let base = runner.base_threads();
            for &m in &self.thread_multipliers {
                let resolved = m.saturating_mul(base).max(1);
                if !thread_cells.iter().any(|&(t, _)| t == resolved) {
                    thread_cells.push((resolved, m));
                }
            }
            if thread_cells.is_empty() {
                return Err(ExperimentError::InvalidThreads(format!(
                    "the {:?} scale cap removed every requested thread count",
                    self.scale
                )));
            }
            // The scale-out axes: one-point defaults keep unsharded /
            // non-batched grids identical to their historical shape.
            let shard_points: &[usize] = if self.shards.is_empty() {
                &[1]
            } else {
                &self.shards
            };
            let batch_points: &[usize] = if self.batches.is_empty() {
                &[0]
            } else {
                &self.batches
            };
            for mode in self.load.points() {
                for &shards in shard_points {
                    for &batch in batch_points {
                        for &(t, multiplier) in &thread_cells {
                            for &lock in &self.locks {
                                let point = GridPoint {
                                    threads: t,
                                    mode,
                                    shards,
                                    batch,
                                    multiplier,
                                };
                                samples.extend(runner.run_cell(self, lock, point)?);
                            }
                        }
                    }
                }
            }
        }
        Ok(RunReport {
            id: self.id.clone(),
            title: self.title.clone(),
            scale: self.scale.name().to_string(),
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_lists_parse_counts_ranges_and_strides() {
        assert_eq!(parse_thread_list("1,2,4").unwrap(), vec![1, 2, 4]);
        assert_eq!(parse_thread_list(" 8 ").unwrap(), vec![8]);
        assert_eq!(parse_thread_list("1-4").unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(parse_thread_list("2-8/2").unwrap(), vec![2, 4, 6, 8]);
        assert_eq!(parse_thread_list("1,4-6").unwrap(), vec![1, 4, 5, 6]);
    }

    #[test]
    fn thread_lists_reject_zero_duplicates_and_junk() {
        assert!(parse_thread_list("0").is_err());
        assert!(parse_thread_list("1,0,2").is_err());
        assert!(parse_thread_list("1,1").is_err());
        assert!(parse_thread_list("2,1-3").is_err(), "range re-lists 2");
        assert!(parse_thread_list("").is_err());
        assert!(parse_thread_list("four").is_err());
        assert!(parse_thread_list("4-1").is_err());
        assert!(parse_thread_list("4/2").is_err());
    }

    #[test]
    fn thread_axis_splits_counts_from_multipliers() {
        let axis = parse_thread_axis("1,2,4").unwrap();
        assert_eq!(axis.counts, vec![1, 2, 4]);
        assert!(axis.multipliers.is_empty());
        let axis = parse_thread_axis("1,2,4x,8x").unwrap();
        assert_eq!(axis.counts, vec![1, 2]);
        assert_eq!(axis.multipliers, vec![4, 8]);
        let axis = parse_thread_axis("1x-4x").unwrap();
        assert!(axis.counts.is_empty());
        assert_eq!(axis.multipliers, vec![1, 2, 3, 4]);
        let axis = parse_thread_axis("2x-8x/2").unwrap();
        assert_eq!(axis.multipliers, vec![2, 4, 6, 8]);
        let axis = parse_thread_axis("2X").unwrap();
        assert_eq!(axis.multipliers, vec![2], "upper-case x is accepted");
    }

    #[test]
    fn thread_axis_rejects_malformed_multipliers() {
        assert!(parse_thread_axis("x4").is_err(), "prefix x is not a token");
        assert!(parse_thread_axis("1-8x").is_err(), "both ends need the x");
        assert!(parse_thread_axis("1x-8").is_err());
        assert!(parse_thread_axis("0x").is_err());
        assert!(parse_thread_axis("2x,2x").is_err(), "duplicate multiplier");
        assert!(parse_thread_axis("").is_err());
        // The re-badged diagnostic names the multiplier, not a thread count.
        match parse_thread_axis("0x").unwrap_err() {
            ExperimentError::InvalidThreads(msg) => {
                assert!(msg.contains("multiplier"), "{msg}");
            }
            other => panic!("expected InvalidThreads, got {other:?}"),
        }
    }

    #[test]
    fn multiplier_cells_resolve_against_the_machine_and_bypass_the_cap() {
        // Smoke caps absolute counts at 8, but a 2x cell on the 72-CPU paper
        // machine must still run 144 simulated threads.
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Mcs)
            .workload(WorkloadId::Sim.to_spec())
            .scale(Scale::Smoke)
            .repetitions(1)
            .threads(vec![2])
            .thread_multipliers(vec![2]);
        let report = spec.run().unwrap();
        let threads: Vec<usize> = report.samples.iter().map(|s| s.threads).collect();
        assert!(threads.contains(&2), "absolute cell ran: {threads:?}");
        assert!(
            threads.contains(&144),
            "2x cell resolved to 144 and escaped the smoke cap: {threads:?}"
        );
    }

    #[test]
    fn concurrency_restriction_wins_the_oversubscription_sweep() {
        // End-to-end regime check (EuroSys'19 §1): at 8x oversubscription the
        // plain MCS queue collapses under preemption-in-queue while the
        // concurrency-restricting lock keeps its active set near the core
        // count and holds close to its 1x throughput.
        let spec = ExperimentSpec::new("t")
            .locks(vec![LockId::Mcs, LockId::Mcscr])
            .workload(WorkloadId::Sim.to_spec())
            .scale(Scale::Smoke)
            .repetitions(1)
            .thread_multipliers(vec![1, 8]);
        let report = spec.run().unwrap();
        let value = |lock: &str, threads: usize| -> f64 {
            report
                .samples
                .iter()
                .find(|s| s.lock == lock && s.threads == threads)
                .unwrap_or_else(|| panic!("missing sample {lock}@{threads}"))
                .value
        };
        // 72-CPU two_socket_paper machine: 1x = 72 threads, 8x = 576.
        let (mcs_1x, mcs_8x) = (value("mcs", 72), value("mcs", 576));
        let (cr_1x, cr_8x) = (value("mcscr", 72), value("mcscr", 576));
        assert!(
            mcs_8x < mcs_1x * 0.25,
            "plain MCS should collapse at 8x: 1x={mcs_1x:.0} 8x={mcs_8x:.0}"
        );
        assert!(
            cr_8x > cr_1x * 0.9,
            "MCSCR should hold within 10% of its 1x value: 1x={cr_1x:.0} 8x={cr_8x:.0}"
        );
        assert!(
            cr_8x > mcs_8x * 2.0,
            "MCSCR should beat plain MCS at 8x: mcscr={cr_8x:.0} mcs={mcs_8x:.0}"
        );
    }

    #[test]
    fn a_pure_multiplier_axis_skips_the_default_thread_sweep() {
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Mcs)
            .workload(WorkloadId::Sim.to_spec())
            .scale(Scale::Smoke)
            .repetitions(1)
            .thread_multipliers(vec![1]);
        let report = spec.run().unwrap();
        let threads: std::collections::HashSet<usize> =
            report.samples.iter().map(|s| s.threads).collect();
        assert_eq!(
            threads,
            std::collections::HashSet::from([72]),
            "only the 1x cell runs"
        );
    }

    #[test]
    fn multiplier_validation_rejects_zero_and_duplicates() {
        let base = || {
            ExperimentSpec::new("t")
                .lock(LockId::Cna)
                .workload(WorkloadId::Sim.to_spec())
        };
        assert!(matches!(
            base().thread_multipliers(vec![0]).validate(),
            Err(ExperimentError::InvalidThreads(_))
        ));
        assert!(matches!(
            base().thread_multipliers(vec![2, 2]).validate(),
            Err(ExperimentError::InvalidThreads(_))
        ));
        assert!(base().thread_multipliers(vec![1, 8]).validate().is_ok());
    }

    #[test]
    fn workload_tokens_round_trip_and_all_expands() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(id.name()).unwrap(), id);
            assert_eq!(id.to_string(), id.name());
        }
        assert_eq!(WorkloadId::parse_list("all").unwrap().len(), 6);
        assert_eq!(
            WorkloadId::parse_list("sim, kvmap").unwrap(),
            vec![WorkloadId::Sim, WorkloadId::KvMap]
        );
        let err = WorkloadId::parse("bogus").unwrap_err();
        assert!(
            matches!(
                &err,
                ExperimentError::Unknown {
                    kind: "workload",
                    ..
                }
            ),
            "expected Unknown, got {err:?}"
        );
        assert!(err.to_string().contains("kvmap"), "{err}");
        assert!(WorkloadId::KvMap.supports_open_loop());
        assert!(WorkloadId::Sim.supports_open_loop());
        assert!(!WorkloadId::Leveldb.supports_open_loop());
    }

    #[test]
    fn open_loop_metrics_require_open_mode() {
        // p99 on a closed spec: rejected before anything runs.
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::Sim.to_spec())
            .metric(Metric::P99Sojourn);
        assert!(matches!(
            spec.validate(),
            Err(ExperimentError::ModeMetricMismatch {
                metric: "p99",
                mode: "closed"
            })
        ));
    }

    #[test]
    fn llc_misses_are_counted_in_both_sim_modes_and_on_no_substrate() {
        // The one engine tracks per-line ownership whatever the arrival
        // process, so an open sim spec counts misses like a closed one.
        let open_llc = |workload: WorkloadId| {
            ExperimentSpec::new("t")
                .lock(LockId::Mcs)
                .workload(workload.to_spec())
                .threads(vec![4])
                .scale(Scale::Smoke)
                .duration_ms(2)
                .metric(Metric::LlcMissesPerUs)
                // Saturating: below capacity one worker serves every
                // request and no line ever changes socket.
                .open_rates(vec![20_000_000], Arrival::Fixed)
        };
        let report = open_llc(WorkloadId::Sim)
            .run()
            .expect("open sim counts misses");
        assert_eq!(report.samples.len(), 1);
        assert_eq!(report.samples[0].mode, "open");
        assert_eq!(report.samples[0].unit, "misses/us");
        assert!(report.samples[0].value > 0.0, "{:?}", report.samples[0]);
        assert!(matches!(
            open_llc(WorkloadId::KvMap).run(),
            Err(ExperimentError::UnsupportedMetric { .. })
        ));
    }

    #[test]
    fn open_loop_specs_reject_unsupported_workloads_and_bad_rates() {
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::Leveldb.to_spec())
            .open_rates(vec![1_000], Arrival::Poisson);
        match spec.validate() {
            Err(ExperimentError::UnsupportedLoadMode { workload }) => {
                assert_eq!(workload, "leveldb");
            }
            other => panic!("expected UnsupportedLoadMode, got {other:?}"),
        }
        for rates in [vec![], vec![0]] {
            let spec = ExperimentSpec::new("t")
                .lock(LockId::Cna)
                .workload(WorkloadId::Sim.to_spec())
                .open_rates(rates.clone(), Arrival::Fixed);
            assert!(
                matches!(spec.validate(), Err(ExperimentError::InvalidRate(_))),
                "rates {rates:?} should be rejected"
            );
        }
    }

    #[test]
    fn shard_and_batch_lists_parse_and_re_badge_errors() {
        assert_eq!(parse_shard_list("1,2,4,8").unwrap(), vec![1, 2, 4, 8]);
        assert_eq!(parse_batch_list("1-4").unwrap(), vec![1, 2, 3, 4]);
        match parse_shard_list("0").unwrap_err() {
            ExperimentError::InvalidShards(msg) => {
                assert!(msg.contains("shard count"), "{msg}");
            }
            other => panic!("expected InvalidShards, got {other:?}"),
        }
        match parse_batch_list("1,1").unwrap_err() {
            ExperimentError::InvalidBatch(msg) => {
                assert!(msg.contains("batch limit"), "{msg}");
            }
            other => panic!("expected InvalidBatch, got {other:?}"),
        }
    }

    #[test]
    fn scale_out_axes_validate_against_their_workloads() {
        // Shards on a non-kvmap workload: a typed axis error.
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::Sim.to_spec())
            .shards(vec![1, 4]);
        match spec.validate() {
            Err(ExperimentError::UnsupportedAxis { workload, axis }) => {
                assert_eq!(workload, "sim");
                assert_eq!(axis, "shards");
            }
            other => panic!("expected UnsupportedAxis, got {other:?}"),
        }
        // Batch on a non-leveldb workload likewise.
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::KvMap.to_spec())
            .batches(vec![8]);
        match spec.validate() {
            Err(ExperimentError::UnsupportedAxis { axis, .. }) => assert_eq!(axis, "batch"),
            other => panic!("expected UnsupportedAxis, got {other:?}"),
        }
        // Zero values are rejected even when set via the builder.
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::KvMap.to_spec())
            .shards(vec![0]);
        assert!(matches!(
            spec.validate(),
            Err(ExperimentError::InvalidShards(_))
        ));
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::Leveldb.to_spec())
            .batches(vec![0]);
        assert!(matches!(
            spec.validate(),
            Err(ExperimentError::InvalidBatch(_))
        ));
        // The axes on their own workloads pass validation.
        assert!(ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::KvMap.to_spec())
            .shards(vec![1, 4])
            .validate()
            .is_ok());
        // Batched leveldb may serve open-loop load; native leveldb may not
        // (covered above), and the batch axis unlocks it.
        assert!(ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::Leveldb.to_spec())
            .batches(vec![1, 16])
            .open_rates(vec![10_000], Arrival::Poisson)
            .metric(Metric::P99Sojourn)
            .validate()
            .is_ok());
    }

    #[test]
    fn metric_tokens_round_trip() {
        for metric in Metric::ALL {
            assert_eq!(Metric::parse(metric.name()).unwrap(), metric);
        }
        assert_eq!(Metric::parse("p99.9").unwrap(), Metric::P999Sojourn);
        assert!(Metric::ThroughputOpsPerUs.higher_is_better());
        assert!(!Metric::FairnessFactor.higher_is_better());
        assert!(!Metric::P99Sojourn.higher_is_better());
        assert!(Metric::P50Sojourn.requires_open_loop());
        assert!(!Metric::ThroughputOpsPerUs.requires_open_loop());
        let err = Metric::parse("bogus").unwrap_err();
        match &err {
            ExperimentError::Unknown { kind, name, valid } => {
                assert_eq!(*kind, "metric");
                assert_eq!(name, "bogus");
                assert!(valid.contains(&"p99") && valid.contains(&"throughput"));
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert!(err.to_string().contains("queue-depth"), "{err}");
    }

    #[test]
    fn spec_requires_locks_and_workloads() {
        let empty = ExperimentSpec::new("t").workload(WorkloadId::Sim.to_spec());
        assert!(matches!(empty.run(), Err(ExperimentError::EmptyLocks)));
        let empty = ExperimentSpec::new("t").lock(LockId::Cna);
        assert!(matches!(empty.run(), Err(ExperimentError::EmptyWorkloads)));
    }

    #[test]
    fn scale_cap_that_empties_the_sweep_is_an_error() {
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::Sim.to_spec())
            .scale(Scale::Smoke)
            .threads(vec![4096]);
        assert!(matches!(
            spec.run(),
            Err(ExperimentError::InvalidThreads(_))
        ));
    }

    #[test]
    fn unsupported_metric_is_a_typed_error() {
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::KvMap.to_spec())
            .threads(vec![1])
            .scale(Scale::Smoke)
            .duration_ms(2)
            .metric(Metric::LlcMissesPerUs);
        match spec.run() {
            Err(ExperimentError::UnsupportedMetric { workload, metric }) => {
                assert_eq!(workload, "kvmap");
                assert_eq!(metric, "llc-misses");
            }
            other => panic!("expected UnsupportedMetric, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_unsupported_metrics_before_anything_runs() {
        // The sim workload comes first and would take real time at paper
        // scale; validate() must reject the grid up front instead of after
        // the sim sweep completed.
        let spec = ExperimentSpec::new("t")
            .lock(LockId::Cna)
            .workload(WorkloadId::Sim.to_spec())
            .workload(WorkloadId::KvMap.to_spec())
            .scale(Scale::Paper)
            .metric(Metric::LlcMissesPerUs);
        assert!(matches!(
            spec.validate(),
            Err(ExperimentError::UnsupportedMetric { .. })
        ));
    }

    #[test]
    fn validation_rejects_ids_and_labels_the_csv_cannot_represent() {
        for bad in ["a,b", "a\nb", ""] {
            let spec = ExperimentSpec::new(bad)
                .lock(LockId::Cna)
                .workload(WorkloadId::Sim.to_spec());
            assert!(
                matches!(spec.run(), Err(ExperimentError::InvalidId(_))),
                "id {bad:?} should be rejected"
            );
        }
        let spec = ExperimentSpec::new("ok")
            .lock(LockId::Cna)
            .workload(WorkloadSpec::Sim(SimSweep::two_socket(
                "lab,el",
                numa_sim::workloads::kv_map(0, 0.2),
            )));
        assert!(matches!(spec.run(), Err(ExperimentError::InvalidId(_))));
    }
}
