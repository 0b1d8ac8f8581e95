//! The two experiment back-ends: real threads and the NUMA simulator.

use std::time::Duration;

use kernel_sim::{
    run_locktorture_dyn, run_will_it_scale_dyn, LockTortureConfig, WisBenchmark, WisConfig,
};
use kyoto_lite::{wicked_dyn, WickedConfig};
use leveldb_lite::{readrandom_dyn, writebatch_dyn, Db, ReadRandomConfig, WriteBatchConfig};
use numa_sim::Simulation;
use registry::LockId;
use sync_core::rng::mix64;

use super::load::LoadMode;
use super::openloop::{offered_schedule, run_wall_clock, OpenLoopSummary};
use super::report::Sample;
use super::{
    Axis, ExperimentError, ExperimentSpec, GridPoint, Metric, SimSweep, SubstrateWorkload,
};
use crate::kvmap::run_sharded_kvmap;
use crate::real::RunConfig;
use crate::scale::Scale;

/// One experiment back-end: turns a grid cell (lock × grid point) of a spec
/// into raw [`Sample`]s, one per repetition (per
/// sub-benchmark for composite workloads like will-it-scale).
pub trait Runner {
    /// Back-end name (`substrate` or `sim`), recorded for diagnostics.
    fn name(&self) -> &'static str;

    /// The thread counts swept when the spec does not pin any.
    fn default_threads(&self, scale: Scale) -> Vec<usize>;

    /// The base thread count a `4x`-style oversubscription multiplier
    /// resolves against: the back-end's notion of "one thread per CPU" (the
    /// simulated machine's logical CPUs, or the host's parallelism).
    fn base_threads(&self) -> usize;

    /// Runs one cell of the grid: `spec.effective_repetitions()` runs of
    /// `lock` at the grid coordinate `point` (a point on every [`Axis`]).
    fn run_cell(
        &self,
        spec: &ExperimentSpec,
        lock: LockId,
        point: GridPoint,
    ) -> Result<Vec<Sample>, ExperimentError>;
}

/// Real-thread, wall-clock runner: drives the actual lock implementations
/// through the registry's type-erased entry points against the real
/// substrates (the paper's user-space and kernel benchmarks, minus the NUMA
/// hardware).
#[derive(Debug, Clone, Copy)]
pub struct SubstrateRunner {
    /// Which substrate this runner drives.
    pub workload: SubstrateWorkload,
}

/// One completed run of either back-end, normalized across the
/// heterogeneous report types of the substrate crates and the simulator.
struct CellRun {
    workload: String,
    ops_per_thread: Vec<u64>,
    elapsed_ns: u64,
    /// The simulator's LLC-miss proxy; wall-clock runs cannot count it.
    remote_transfers: u64,
    open_loop: Option<OpenLoopSummary>,
}

impl CellRun {
    /// Reduces the run to the spec's metric plus the always-carried
    /// histogram columns (zero for closed-loop runs, which time no request).
    fn into_sample(
        self,
        spec: &ExperimentSpec,
        lock: LockId,
        label: &str,
        point: GridPoint,
        rep: usize,
    ) -> Sample {
        let total_ops: u64 = self.ops_per_thread.iter().sum();
        let elapsed_us = (self.elapsed_ns as f64 / 1e3).max(1.0);
        let (p50_us, p99_us, p999_us, queue_depth) =
            self.open_loop.as_ref().map_or((0.0, 0.0, 0.0, 0.0), |s| {
                let h = &s.histogram;
                (h.p50_us(), h.p99_us(), h.p999_us(), s.mean_queue_depth)
            });
        let value = match spec.metric {
            Metric::ThroughputOpsPerUs => total_ops as f64 / elapsed_us,
            Metric::LlcMissesPerUs => self.remote_transfers as f64 / elapsed_us,
            Metric::FairnessFactor => numa_sim::stats::fairness_factor(&self.ops_per_thread),
            Metric::P50Sojourn => p50_us,
            Metric::P99Sojourn => p99_us,
            Metric::P999Sojourn => p999_us,
            Metric::QueueDepth => queue_depth,
        };
        Sample {
            workload: self.workload,
            lock: lock.name().to_string(),
            label: label.to_string(),
            point,
            rep,
            metric: spec.metric.name().to_string(),
            unit: spec.metric.unit().to_string(),
            value,
            p50_us,
            p99_us,
            p999_us,
            queue_depth,
            total_ops,
            elapsed_ms: self.elapsed_ns as f64 / 1e6,
        }
    }
}

impl Runner for SubstrateRunner {
    fn name(&self) -> &'static str {
        "substrate"
    }

    fn default_threads(&self, scale: Scale) -> Vec<usize> {
        vec![scale.substrate_run().threads]
    }

    fn base_threads(&self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    fn run_cell(
        &self,
        spec: &ExperimentSpec,
        lock: LockId,
        point: GridPoint,
    ) -> Result<Vec<Sample>, ExperimentError> {
        let (threads, mode) = (point.threads(), point.mode(spec.arrival));
        let (shards, batch) = (point[Axis::Shards] as usize, point[Axis::Batch] as usize);
        if spec.metric == Metric::LlcMissesPerUs {
            // Wall-clock runs have no cache-event counters; only the
            // simulator can report LLC misses.
            return Err(ExperimentError::UnsupportedMetric {
                workload: self.workload.name().to_string(),
                metric: spec.metric.name(),
            });
        }
        if mode.is_open() && !self.workload.supports_open_loop(batch > 0) {
            return Err(ExperimentError::UnsupportedAxis {
                workload: self.workload.name().to_string(),
                axis: Axis::Rate,
            });
        }
        let duration = spec.effective_duration();
        // The single-report workloads all record the same three fields; only
        // `wis` fans out into one run per sub-benchmark.
        let run = |workload: String, ops_per_thread, elapsed: Duration, open_loop| CellRun {
            workload,
            ops_per_thread,
            elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            remote_transfers: 0,
            open_loop,
        };
        let single = |ops_per_thread, elapsed, open_loop| {
            let workload = self.workload.name().to_string();
            vec![run(workload, ops_per_thread, elapsed, open_loop)]
        };
        let mut samples = Vec::new();
        for rep in 0..spec.effective_repetitions() {
            let runs: Vec<CellRun> = match self.workload {
                SubstrateWorkload::KvMap => {
                    // shards == 1 is the single-lock map: same code path,
                    // one shard, so the sharded axis is comparable end to
                    // end.
                    let report = run_sharded_kvmap(
                        lock,
                        &RunConfig {
                            threads,
                            duration,
                            load: mode,
                            shards,
                            ..RunConfig::default()
                        },
                    );
                    single(report.ops_per_thread, report.elapsed, report.open_loop)
                }
                SubstrateWorkload::Leveldb => match (batch, mode) {
                    // batch == 0 is the native read path (no write queue).
                    (0, _) => {
                        let report = readrandom_dyn(
                            lock,
                            &ReadRandomConfig {
                                threads,
                                duration,
                                ..ReadRandomConfig::default()
                            },
                        );
                        single(report.ops_per_thread, report.elapsed, None)
                    }
                    (_, LoadMode::Closed) => {
                        let report = writebatch_dyn(
                            lock,
                            &WriteBatchConfig {
                                threads,
                                duration,
                                batch,
                                ..WriteBatchConfig::default()
                            },
                        );
                        single(report.ops_per_thread, report.elapsed, None)
                    }
                    (_, LoadMode::Open { .. }) => {
                        let summary = open_writebatch_dyn(lock, threads, duration, batch, mode);
                        single(
                            summary.served_per_worker.clone(),
                            Duration::from_nanos(summary.elapsed_ns),
                            Some(summary),
                        )
                    }
                },
                SubstrateWorkload::Kyoto => {
                    let report = wicked_dyn(
                        lock,
                        &WickedConfig {
                            threads,
                            duration,
                            ..WickedConfig::default()
                        },
                    );
                    single(report.ops_per_thread, report.elapsed, None)
                }
                SubstrateWorkload::LockTorture => {
                    let report = run_locktorture_dyn(
                        lock,
                        &LockTortureConfig {
                            threads,
                            duration,
                            lockstat: true,
                        },
                    );
                    single(report.ops_per_thread, report.elapsed, None)
                }
                SubstrateWorkload::Wis => WisBenchmark::all()
                    .into_iter()
                    .map(|bench| {
                        let report =
                            run_will_it_scale_dyn(lock, bench, &WisConfig { threads, duration });
                        run(
                            format!("{}/{}", self.workload.name(), report.benchmark),
                            report.ops_per_thread,
                            report.elapsed,
                            None,
                        )
                    })
                    .collect(),
            };
            samples.extend(
                runs.into_iter()
                    .map(|run| run.into_sample(spec, lock, lock.raw_name(), point, rep)),
            );
        }
        Ok(samples)
    }
}

/// Open-loop group-commit writes: the wall-clock driver paces arrivals and
/// every served request issues one [`Db::put_group`] through the ambient
/// registry lock, so up to `batch` concurrent writers share a DB-mutex
/// acquisition while sojourn time is still measured per request.
fn open_writebatch_dyn(
    lock: LockId,
    threads: usize,
    duration: Duration,
    batch: usize,
    load: LoadMode,
) -> OpenLoopSummary {
    let cfg = WriteBatchConfig::default();
    registry::with_ambient(lock, || {
        let db: Db<registry::AmbientLock> = Db::prefilled(cfg.prefill_keys, cfg.cache_capacity);
        let db = &db;
        run_wall_clock(
            threads,
            load,
            duration,
            |t| numa_topology::SocketOverrideGuard::new(t % 2),
            |_socket, request| {
                // A deterministic overwrite key per request index,
                // independent of which worker serves it.
                let x = mix64(request as u64);
                let key = Db::<registry::AmbientLock>::bench_key(x as usize % cfg.key_range.max(1));
                let seq = db.put_group(&key, b"batched-value", batch);
                debug_assert!(seq > 0, "committed writes carry a sequence");
            },
        )
    })
}

/// Discrete-event simulator runner: maps each [`LockId`] onto its simulator
/// policy model and sweeps the virtual NUMA machine the spec describes.
#[derive(Debug, Clone, Copy)]
pub struct SimRunner<'a> {
    /// Machine, calibration and workload preset of this sweep.
    pub sweep: &'a SimSweep,
}

impl Runner for SimRunner<'_> {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn default_threads(&self, scale: Scale) -> Vec<usize> {
        scale
            .config()
            .cap_threads(&self.sweep.machine.paper_thread_counts())
    }

    fn base_threads(&self) -> usize {
        self.sweep.machine.logical_cpus()
    }

    fn run_cell(
        &self,
        spec: &ExperimentSpec,
        lock: LockId,
        point: GridPoint,
    ) -> Result<Vec<Sample>, ExperimentError> {
        let (threads, mode) = (point.threads(), point.mode(spec.arrival));
        let virtual_ms = spec.scale.config().virtual_duration_ms;
        // The schedule ignores the rep so every repetition sees the same
        // offered load; the engine seed varies.
        let schedule = offered_schedule(mode, Duration::from_millis(virtual_ms.max(1)));
        let algorithm = lock.sim_algorithm();
        let mut samples = Vec::new();
        for rep in 0..spec.effective_repetitions() {
            let simulation = Simulation::new(
                self.sweep.machine.clone(),
                self.sweep.cost,
                algorithm,
                self.sweep.workload.clone(),
            )
            .threads(threads)
            .virtual_duration_ms(virtual_ms)
            .seed(0xC0FFEE ^ (rep as u64) << 32 ^ threads as u64);
            let result = match &schedule {
                None => simulation.run(),
                Some(arrivals) => simulation.run_schedule(arrivals),
            };
            let run = CellRun {
                workload: self.sweep.label.clone(),
                open_loop: mode.is_open().then(|| OpenLoopSummary::from_sim(&result)),
                ops_per_thread: result.ops_per_thread,
                elapsed_ns: result.duration_ns,
                remote_transfers: result.remote_transfers,
            };
            // The simulator plots policy models: both qspinlock slow paths
            // keep their paper labels ("MCS"-admission = stock).
            samples.push(run.into_sample(spec, lock, algorithm.name(), point, rep));
        }
        Ok(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::load::Arrival;
    use crate::experiments::WorkloadId;

    fn smoke_spec(metric: Metric, workload: WorkloadId) -> ExperimentSpec {
        ExperimentSpec::new("runner_test")
            .lock(LockId::Cna)
            .workload(workload.to_spec())
            .scale(Scale::Smoke)
            .duration_ms(5)
            .metric(metric)
    }

    fn open_point(threads: usize, rate: u64) -> GridPoint {
        GridPoint::closed(threads).with(Axis::Rate, rate)
    }

    #[test]
    fn sim_runner_defaults_to_the_capped_paper_sweep() {
        let spec = WorkloadId::Sim.to_spec();
        let runner = spec.runner();
        assert_eq!(runner.name(), "sim");
        let threads = runner.default_threads(Scale::Smoke);
        assert!(!threads.is_empty());
        assert!(threads.iter().all(|&t| t <= 8));
    }

    #[test]
    fn substrate_runner_defaults_to_one_sizing_point() {
        let spec = WorkloadId::KvMap.to_spec();
        let runner = spec.runner();
        assert_eq!(runner.name(), "substrate");
        assert_eq!(runner.default_threads(Scale::Smoke).len(), 1);
    }

    #[test]
    fn substrate_cell_produces_one_sample_per_rep() {
        let spec = smoke_spec(Metric::ThroughputOpsPerUs, WorkloadId::KvMap).repetitions(2);
        let samples = spec.workloads[0]
            .runner()
            .run_cell(&spec, LockId::Cna, GridPoint::closed(2))
            .unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].lock, "cna");
        assert_eq!(samples[0].label, "CNA");
        assert_eq!(samples[0].mode(), "closed");
        assert_eq!(samples[0].point, GridPoint::closed(2));
        assert_eq!(samples[0].p99_us, 0.0, "closed runs have no histogram");
        assert_eq!(samples[1].rep, 1);
        assert!(samples.iter().all(|s| s.value > 0.0 && s.total_ops > 0));
    }

    #[test]
    fn wis_cell_expands_to_one_sample_per_sub_benchmark() {
        let spec = smoke_spec(Metric::ThroughputOpsPerUs, WorkloadId::Wis);
        let samples = spec.workloads[0]
            .runner()
            .run_cell(&spec, LockId::QSpinCna, GridPoint::closed(2))
            .unwrap();
        assert_eq!(samples.len(), WisBenchmark::all().len());
        assert!(samples.iter().all(|s| s.workload.starts_with("wis/")));
    }

    #[test]
    fn substrate_fairness_is_measurable_and_bounded() {
        let spec = smoke_spec(Metric::FairnessFactor, WorkloadId::KvMap);
        let samples = spec.workloads[0]
            .runner()
            .run_cell(&spec, LockId::Mcs, GridPoint::closed(2))
            .unwrap();
        assert!((0.5..=1.0).contains(&samples[0].value));
    }

    #[test]
    fn sim_cell_honours_metric_and_seed_determinism() {
        let spec = smoke_spec(Metric::ThroughputOpsPerUs, WorkloadId::Sim);
        let a = spec.workloads[0]
            .runner()
            .run_cell(&spec, LockId::Mcs, GridPoint::closed(2))
            .unwrap();
        let b = spec.workloads[0]
            .runner()
            .run_cell(&spec, LockId::Mcs, GridPoint::closed(2))
            .unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].value, b[0].value, "sim runs must be deterministic");
        assert_eq!(a[0].workload, "sim");
    }

    #[test]
    fn open_substrate_cell_carries_histogram_columns() {
        let spec = smoke_spec(Metric::P99Sojourn, WorkloadId::KvMap)
            .open_rates(vec![100_000], Arrival::Poisson)
            .duration_ms(2);
        let samples = spec.workloads[0]
            .runner()
            .run_cell(&spec, LockId::Cna, open_point(2, 100_000))
            .unwrap();
        assert_eq!(samples.len(), 1);
        let s = &samples[0];
        assert_eq!(s.mode(), "open");
        assert_eq!(s.point[Axis::Rate], 100_000);
        assert_eq!(s.unit, "us");
        assert_eq!(s.value, s.p99_us, "the p99 metric is the p99 column");
        assert!(s.p50_us > 0.0 && s.p99_us >= s.p50_us && s.p999_us >= s.p99_us);
        assert!(s.queue_depth >= 1.0);
        assert!(s.total_ops >= 64, "at least MIN_REQUESTS served");
    }

    #[test]
    fn open_sim_cell_is_deterministic_and_populated() {
        let spec = smoke_spec(Metric::P99Sojourn, WorkloadId::Sim)
            .open_rates(vec![1_000_000], Arrival::Poisson);
        let run = || {
            spec.workloads[0]
                .runner()
                .run_cell(&spec, LockId::Cna, open_point(4, 1_000_000))
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a[0].value, b[0].value, "sim open loop is deterministic");
        assert!(a[0].p99_us > 0.0);
        assert!(a[0].total_ops >= 64);
        assert_eq!(a[0].mode(), "open");
    }

    #[test]
    fn open_mode_on_a_non_kvmap_substrate_is_a_typed_error() {
        let spec = smoke_spec(Metric::ThroughputOpsPerUs, WorkloadId::Leveldb);
        let err = spec.workloads[0]
            .runner()
            .run_cell(&spec, LockId::Cna, open_point(2, 1_000))
            .unwrap_err();
        assert!(matches!(
            err,
            ExperimentError::UnsupportedAxis {
                axis: Axis::Rate,
                ..
            }
        ));
    }

    #[test]
    fn sharded_kvmap_cell_carries_the_shard_coordinate() {
        let spec = smoke_spec(Metric::ThroughputOpsPerUs, WorkloadId::KvMap);
        let samples = spec.workloads[0]
            .runner()
            .run_cell(
                &spec,
                LockId::Mcs,
                GridPoint::closed(2).with(Axis::Shards, 4),
            )
            .unwrap();
        assert_eq!(samples[0].point[Axis::Shards], 4);
        assert!(samples[0].value > 0.0 && samples[0].total_ops > 0);
    }

    #[test]
    fn batched_leveldb_cell_runs_the_group_commit_write_path() {
        let spec = smoke_spec(Metric::ThroughputOpsPerUs, WorkloadId::Leveldb);
        let samples = spec.workloads[0]
            .runner()
            .run_cell(
                &spec,
                LockId::Cna,
                GridPoint::closed(2).with(Axis::Batch, 4),
            )
            .unwrap();
        assert_eq!(samples[0].point[Axis::Batch], 4);
        assert!(samples[0].total_ops > 0);
    }

    #[test]
    fn batched_leveldb_cell_supports_open_loop_with_histograms() {
        let spec = smoke_spec(Metric::P99Sojourn, WorkloadId::Leveldb)
            .open_rates(vec![50_000], Arrival::Fixed)
            .duration_ms(2);
        let samples = spec.workloads[0]
            .runner()
            .run_cell(
                &spec,
                LockId::Mcs,
                open_point(2, 50_000).with(Axis::Batch, 8),
            )
            .unwrap();
        let s = &samples[0];
        assert_eq!(s.mode(), "open");
        assert_eq!(s.point[Axis::Batch], 8);
        assert!(s.p99_us > 0.0, "batched open loop records sojourn times");
        assert!(s.total_ops >= 64, "at least MIN_REQUESTS served");
    }
}
