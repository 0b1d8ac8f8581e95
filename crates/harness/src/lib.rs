//! Benchmark measurement harness.
//!
//! The front door is the [`experiments`] module — the unified experiment
//! API: one [`ExperimentSpec`](experiments::ExperimentSpec) describes any
//! (lock set × workload × thread sweep × scale × repetitions × metric) grid
//! of the paper's evaluation, a [`Runner`](experiments::Runner) executes it
//! on either back-end, and the structured
//! [`RunReport`](experiments::RunReport) serializes to CSV/JSON under
//! `target/experiments/` and diffs against stored baselines.
//!
//! The two back-ends:
//!
//! * [`real`] — wall-clock, real-thread measurements of the actual lock
//!   implementations (used by the repo benchmark and the
//!   [`experiments::SubstrateRunner`]). On a single-socket build host these
//!   demonstrate correctness and single-thread behaviour; they cannot show
//!   NUMA effects.
//! * [`experiments::SimRunner`] — sweeps on the discrete-event NUMA machine
//!   simulator, producing the series plotted in each figure of the paper.
//!
//! The [`scale`] module selects between `smoke`, `ci` (default) and the
//! full `paper` configuration via the `SCALE` environment variable; the
//! [`table`] module renders aligned text tables and writes the report
//! files.

#![warn(missing_docs)]

pub mod experiments;
pub mod kvmap;
pub mod real;
pub mod scale;
pub mod table;

pub use experiments::{
    Arrival, Axis, AxisLists, DiffReport, DiffThreshold, ExperimentError, ExperimentSpec,
    GridPoint, LatencyHistogram, LoadMode, Metric, RunReport, Sample, SweepResult, WorkloadId,
};
pub use kvmap::{run_sharded_kvmap, ShardedKvMap};
pub use real::{run_real_contention, run_real_contention_dyn, RunConfig, RunResult};
pub use scale::{Scale, ScaleConfig, SubstrateRun};
pub use table::{experiments_dir, render_table, WriteError};
