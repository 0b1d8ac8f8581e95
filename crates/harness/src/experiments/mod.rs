//! The unified experiment API: one spec describes any sweep of the paper.
//!
//! The paper's evaluation is a grid of (algorithm × thread count × workload)
//! runs. This module expresses that grid **once**, for both measurement
//! back-ends:
//!
//! * [`ExperimentSpec`] — the builder: lock set × workloads × the sweep
//!   axes ([`Axis`]: threads, shards, batch, rate) × [`Scale`] ×
//!   repetitions × [`Metric`].
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
//! The `lockbench` CLI, the figure table and the examples are all thin
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

pub mod axis;
pub mod diff;
pub mod histogram;
pub mod load;
pub mod openloop;
pub mod report;
pub mod runner;

pub use axis::{Axis, AxisLists, GridPoint, MAX_POINTS};
pub use diff::{DiffEntry, DiffReport, DiffThreshold};
pub use histogram::LatencyHistogram;
pub use load::{Arrival, LoadMode};
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
    /// An axis list was malformed (zero, duplicate, unparseable, empty or
    /// longer than [`MAX_POINTS`]), or the scale cap left no thread counts
    /// to sweep.
    InvalidAxis {
        /// The axis of the list.
        axis: Axis,
        /// What was wrong.
        message: String,
    },
    /// A sweep axis was applied to a workload that has no such axis
    /// (`--shards` off the sharded kv-map, `--batch` off leveldb, `--rate`
    /// on a workload that cannot serve open-loop arrivals).
    UnsupportedAxis {
        /// The workload that has no such axis.
        workload: String,
        /// The rejected axis.
        axis: Axis,
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
            ExperimentError::InvalidAxis { axis, message } => {
                f.write_str(&axis.invalid_message(message))
            }
            ExperimentError::UnsupportedAxis { workload, axis } => {
                f.write_str(&axis.unsupported_message(workload))
            }
            ExperimentError::Unknown { kind, name, valid } => {
                write!(f, "unknown {kind} {name:?} (valid: {})", valid.join(", "))
            }
            ExperimentError::ModeMetricMismatch { metric, mode } => {
                write!(f, "metric {metric:?} cannot be measured {mode}-loop")
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

    /// Whether this substrate can serve open-loop arrivals: the kvmap
    /// contention loop paces real threads on the wall clock, and so does
    /// leveldb's group-commit write path (`batched`, a batch limit above 0);
    /// native leveldb and the remaining substrates drive external benchmark
    /// loops that own their own iteration structure.
    pub const fn supports_open_loop(self, batched: bool) -> bool {
        match self {
            SubstrateWorkload::KvMap => true,
            SubstrateWorkload::Leveldb => batched,
            _ => false,
        }
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

    /// Whether the workload's runner can serve open-loop arrivals, on the
    /// group-commit write path if `batched` (the simulator always can:
    /// arrivals are events on its virtual clock).
    pub fn supports_open_loop(&self, batched: bool) -> bool {
        match self {
            WorkloadSpec::Substrate(w) => w.supports_open_loop(batched),
            WorkloadSpec::Sim(_) => true,
        }
    }
}

/// Everything needed to run (and re-run) one experiment: the full
/// lock × workload × axis grid plus sizing. Construct with
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
    /// The swept points of every [`Axis`]. No thread counts = the runner's
    /// default for the scale (the machine's paper sweep on the simulator,
    /// one substrate sizing otherwise) unless CPU-count multiples pin the
    /// axis; explicit counts are capped by the scale, multiples are not. An
    /// unswept rate axis = closed loop.
    pub axes: AxisLists,
    /// Inter-arrival distribution of the open-loop cells.
    pub arrival: Arrival,
    /// Run sizing.
    pub scale: Scale,
    /// Repetitions averaged per data point; 0 = the scale's default.
    pub repetitions: usize,
    /// Quantity to measure.
    pub metric: Metric,
    /// Wall-clock override for substrate runs, in milliseconds.
    pub duration_ms: Option<u64>,
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
            axes: AxisLists::default(),
            arrival: Arrival::default(),
            scale: Scale::from_env(),
            repetitions: 0,
            metric: Metric::ThroughputOpsPerUs,
            duration_ms: None,
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
        let counts: Vec<u64> = threads.into_iter().map(|t| t as u64).collect();
        self.axes
            .set(Axis::Threads, (!counts.is_empty()).then_some(counts));
        self
    }

    /// Sweeps `axis` over `points`; an empty list fails validation.
    pub fn axis(mut self, axis: Axis, points: Vec<u64>) -> Self {
        self.axes.set(axis, Some(points));
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

    /// Open loop at each listed rate (requests per second), arrivals drawn
    /// from `arrival`. An empty list fails validation.
    pub fn open_rates(mut self, rates_per_sec: Vec<u64>, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self.axis(Axis::Rate, rates_per_sec)
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
    /// lock/workload sets, CSV-representable id and labels, well-formed axis
    /// lists, a metric every selected runner can measure, and no swept axis
    /// a selected workload lacks.
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
        if self.metric.requires_open_loop() && !self.axes.is_swept(Axis::Rate) {
            // There is no queue (and no per-request sojourn) when workers
            // re-request the lock the instant they release it.
            return Err(ExperimentError::ModeMetricMismatch {
                metric: self.metric.name(),
                mode: LoadMode::Closed.name(),
            });
        }
        self.axes.check()?;
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
            if let Some(axis) = self.axes.missing_on(workload) {
                return Err(ExperimentError::UnsupportedAxis {
                    workload: workload.label().to_string(),
                    axis,
                });
            }
        }
        Ok(())
    }

    /// Runs the full grid and collects every sample into a [`RunReport`].
    ///
    /// Validates first (see [`ExperimentSpec::validate`]) so nothing runs on
    /// a spec that cannot finish or serialize. Workloads run in order;
    /// within a workload the last axis varies slowest and the first fastest
    /// — offered rate, then shards and batch (which never both vary: they
    /// apply to different workloads), then threads — and the lock set
    /// innermost, so partial output groups the way the paper's figures do.
    pub fn run(&self) -> Result<RunReport, ExperimentError> {
        self.validate()?;
        let mut samples = Vec::new();
        for workload in &self.workloads {
            let runner = workload.runner();
            let mut lists: [Vec<u64>; Axis::COUNT] = Default::default();
            for axis in Axis::ALL {
                lists[axis as usize] = match axis.default_point() {
                    Some(default) if !self.axes.is_swept(axis) => vec![default],
                    Some(_) => self.axes[axis].to_vec(),
                    None => self.thread_points(&*runner)?,
                };
            }
            for point in GridPoint::grid(&lists) {
                for &lock in &self.locks {
                    samples.extend(runner.run_cell(self, lock, point)?);
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

    /// The thread counts the cells iterate on `runner`: the capped counts
    /// first, then the CPU-count multiples resolved against the back-end —
    /// uncapped (oversubscription is the point) and deduplicated against
    /// the counts. Only a spec with neither falls back to the default.
    fn thread_points(&self, runner: &dyn Runner) -> Result<Vec<u64>, ExperimentError> {
        let as_usize = |t: u64| usize::try_from(t).unwrap_or(usize::MAX);
        let counts: Vec<usize> = self.axes[Axis::Threads]
            .iter()
            .map(|&t| as_usize(t))
            .collect();
        let multiples = &self.axes.multiples;
        let mut threads = if counts.is_empty() && multiples.is_empty() {
            runner.default_threads(self.scale)
        } else {
            self.scale.config().cap_threads(&counts)
        };
        let base = runner.base_threads();
        for &m in multiples {
            let resolved = as_usize(m).saturating_mul(base).max(1);
            if !threads.contains(&resolved) {
                threads.push(resolved);
            }
        }
        if threads.is_empty() {
            return Err(Axis::Threads.invalid(format!(
                "the {:?} scale cap removed every requested thread count",
                self.scale
            )));
        }
        Ok(threads.into_iter().map(|t| t as u64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_spec(multiples: Vec<u64>) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new("t")
            .workload(WorkloadId::Sim.to_spec())
            .scale(Scale::Smoke)
            .repetitions(1);
        spec.axes.multiples = multiples;
        spec
    }

    #[test]
    fn multiplier_cells_resolve_against_the_machine_and_bypass_the_cap() {
        // Smoke caps absolute counts at 8, but a 2x cell on the 72-CPU paper
        // machine must still run 144 simulated threads.
        let report = sim_spec(vec![2])
            .lock(LockId::Mcs)
            .threads(vec![2])
            .run()
            .unwrap();
        let threads: Vec<usize> = report.samples.iter().map(|s| s.point.threads()).collect();
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
        let report = sim_spec(vec![1, 8])
            .locks(vec![LockId::Mcs, LockId::Mcscr])
            .run()
            .unwrap();
        let value = |lock: &str, threads: usize| -> f64 {
            report
                .samples
                .iter()
                .find(|s| s.lock == lock && s.point.threads() == threads)
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
        let report = sim_spec(vec![1]).lock(LockId::Mcs).run().unwrap();
        let threads: std::collections::HashSet<usize> =
            report.samples.iter().map(|s| s.point.threads()).collect();
        assert_eq!(
            threads,
            std::collections::HashSet::from([72]),
            "only the 1x cell runs"
        );
    }

    #[test]
    fn validation_rejects_empty_zero_and_repeated_points_on_every_axis() {
        let spec = |axis: Axis, points: Vec<u64>| {
            ExperimentSpec::new("t")
                .lock(LockId::Cna)
                .workload(WorkloadId::KvMap.to_spec())
                .axis(axis, points)
        };
        for axis in Axis::ALL {
            for points in [vec![], vec![0], vec![2, 2]] {
                match spec(axis, points.clone()).validate() {
                    Err(ExperimentError::InvalidAxis { axis: got, .. }) => assert_eq!(got, axis),
                    other => panic!("{axis} {points:?}: expected InvalidAxis, got {other:?}"),
                }
            }
        }
        // An open-loop spec listing no rates is an error, not a closed run,
        // whatever the metric.
        for metric in [Metric::ThroughputOpsPerUs, Metric::P99Sojourn] {
            let err = spec(Axis::Threads, vec![1])
                .open_rates(vec![], Arrival::Fixed)
                .metric(metric)
                .validate()
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid rate list: the list selects no rates"
            );
        }
        // Only `threads` reads an empty list as the runner's default.
        assert!(spec(Axis::Rate, vec![1]).threads(vec![]).validate().is_ok());
        for multiples in [vec![0], vec![2, 2]] {
            assert!(matches!(
                sim_spec(multiples).lock(LockId::Cna).validate(),
                Err(ExperimentError::InvalidAxis {
                    axis: Axis::Threads,
                    ..
                })
            ));
        }
        assert!(sim_spec(vec![1, 8]).lock(LockId::Cna).validate().is_ok());
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
        assert_eq!(report.samples[0].mode(), "open");
        assert_eq!(report.samples[0].unit, "misses/us");
        assert!(report.samples[0].value > 0.0, "{:?}", report.samples[0]);
        assert!(matches!(
            open_llc(WorkloadId::KvMap).run(),
            Err(ExperimentError::UnsupportedMetric { .. })
        ));
    }

    #[test]
    fn swept_axes_validate_against_their_workloads() {
        let spec = |workload: WorkloadId| {
            ExperimentSpec::new("t")
                .lock(LockId::Cna)
                .workload(workload.to_spec())
        };
        for (workload, axis) in [
            (WorkloadId::Sim, Axis::Shards),
            (WorkloadId::KvMap, Axis::Batch),
            (WorkloadId::Leveldb, Axis::Rate),
        ] {
            match spec(workload).axis(axis, vec![1, 4]).validate() {
                Err(ExperimentError::UnsupportedAxis {
                    workload: label,
                    axis: got,
                }) => {
                    assert_eq!((label.as_str(), got), (workload.name(), axis));
                }
                other => panic!("{axis} on {workload}: expected UnsupportedAxis, got {other:?}"),
            }
        }
        let err = spec(WorkloadId::Leveldb)
            .open_rates(vec![1_000], Arrival::Poisson)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("rate axis"), "{err}");
        // The axes on their own workloads pass validation.
        assert!(spec(WorkloadId::KvMap)
            .axis(Axis::Shards, vec![1, 4])
            .validate()
            .is_ok());
        // Batched leveldb may serve open-loop load; native leveldb may not
        // (above), and the batch axis unlocks it.
        assert!(spec(WorkloadId::Leveldb)
            .axis(Axis::Batch, vec![1, 16])
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
            Err(ExperimentError::InvalidAxis {
                axis: Axis::Threads,
                ..
            })
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
