//! Real-thread, wall-clock measurements of the actual lock implementations.
//!
//! These runs exercise the atomics-based locks end to end (the same code a
//! user of the library runs) in either load shape:
//!
//! * **Closed-loop** ([`LoadMode::Closed`], the default): every worker
//!   re-requests the lock the instant it releases it, counting completed
//!   critical sections over a fixed wall-clock interval — the paper's
//!   user-space methodology, minus the NUMA hardware.
//! * **Open-loop** ([`LoadMode::Open`]): requests arrive on a precomputed
//!   wall-clock schedule (fixed-rate or Poisson) and workers serve them by
//!   acquiring the lock around the critical section, recording each
//!   request's sojourn time (queue wait + service) into a
//!   [`LatencyHistogram`]. An open run is sized by its request count (see
//!   [`request_count`]), so at low offered rates it outlives
//!   [`RunConfig::duration`] to collect enough samples.
//!
//! One [`RunConfig`] and one worker closure pair drive both modes through
//! [`run_wall_clock`]; closed-loop is the degenerate arrival process
//! "re-arrive on completion". Used by the repo benchmark, the examples, the
//! integration tests and the [`SubstrateRunner`]'s kvmap workload.
//!
//! [`SubstrateRunner`]: crate::experiments::SubstrateRunner
//! [`request_count`]: crate::experiments::openloop::request_count

use std::time::Duration;

use numa_topology::SocketOverrideGuard;
use registry::LockId;
use sync_core::raw::RawLock;

use crate::experiments::load::{Arrival, LoadMode};
use crate::experiments::openloop::{run_wall_clock, OpenLoopSummary};
use crate::scale::Scale;

/// Configuration of a real-thread contention run (closed- or open-loop).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock measurement interval. Closed-loop runs stop after exactly
    /// this long; open-loop runs use it to size the arrival schedule
    /// (`rate × duration` requests, clamped) and then drain every request.
    pub duration: Duration,
    /// Iterations of trivial work inside the critical section.
    pub critical_work: u32,
    /// Iterations of trivial work outside the critical section.
    pub non_critical_work: u32,
    /// Number of virtual sockets the worker threads are spread over.
    pub virtual_sockets: usize,
    /// Load shape: closed-loop hammering (the default) or open-loop
    /// arrivals at a fixed offered rate.
    pub load: LoadMode,
    /// Shard count for sharded substrates ([`crate::kvmap`]); 1 means a
    /// single lock guards all state. Ignored by single-lock entry points.
    pub shards: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 2,
            duration: Duration::from_millis(50),
            critical_work: 32,
            non_critical_work: 0,
            virtual_sockets: 2,
            load: LoadMode::Closed,
            shards: 1,
        }
    }
}

impl RunConfig {
    /// A configuration sized for the current `SCALE` (CI keeps runs short).
    pub fn for_scale(threads: usize) -> Self {
        let duration = match Scale::from_env() {
            Scale::Smoke => Duration::from_millis(5),
            Scale::Ci => Duration::from_millis(40),
            Scale::Paper => Duration::from_secs(2),
        };
        RunConfig {
            threads,
            duration,
            ..Self::default()
        }
    }

    /// The same configuration with an open-loop load shape.
    pub fn open(mut self, rate_per_sec: u64, arrival: Arrival) -> Self {
        self.load = LoadMode::Open {
            rate_per_sec,
            arrival,
        };
        self
    }
}

/// Result of a real-thread contention run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Lock algorithm name.
    pub algorithm: String,
    /// Completed critical sections (closed) or served requests (open) per
    /// thread.
    pub ops_per_thread: Vec<u64>,
    /// Wall-clock measurement interval (closed: the configured duration;
    /// open: first arrival to last completion).
    pub elapsed: Duration,
    /// Open-loop measurements (sojourn histogram, queue depths); `None` for
    /// closed-loop runs.
    pub open_loop: Option<OpenLoopSummary>,
}

impl RunResult {
    /// Wraps what [`run_wall_clock`] measured under `load`; only open-loop
    /// runs keep the summary.
    pub(crate) fn from_driver(algorithm: &str, load: LoadMode, summary: OpenLoopSummary) -> Self {
        RunResult {
            algorithm: algorithm.to_string(),
            ops_per_thread: summary.served_per_worker.clone(),
            elapsed: Duration::from_nanos(summary.elapsed_ns),
            open_loop: load.is_open().then_some(summary),
        }
    }

    /// Total completed critical sections.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_thread.iter().sum()
    }

    /// Throughput in operations per microsecond.
    pub fn throughput_ops_per_us(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_micros().max(1) as f64
    }

    /// The paper's fairness factor over the per-thread counts.
    pub fn fairness_factor(&self) -> f64 {
        numa_sim::stats::fairness_factor(&self.ops_per_thread)
    }
}

#[inline]
pub(crate) fn spin_work(iters: u32, seed: &mut u64) {
    // A small pseudo-random calculation loop, like the paper's non-critical
    // section simulation; kept dependency-carrying so it cannot be optimised
    // away. It is a unit of work, not a source of random numbers, so it does
    // not use `sync_core::rng`: `critical_work` counts these exact steps, and
    // the benchmark's `kvmap_incr_ns` and `l0.alu_ns` are measured in them.
    for _ in 0..iters {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
    }
    std::hint::black_box(*seed);
}

/// The shared state every worker thread touches: the lock and the protected
/// (non-atomic) counter whose final value cross-checks mutual exclusion.
#[derive(Default)]
struct Shared<L> {
    lock: L,
    counter: std::cell::UnsafeCell<u64>,
}
// SAFETY: the counter is only accessed while `lock` is held.
unsafe impl<L: Sync> Sync for Shared<L> {}

impl<L: RawLock> Shared<L> {
    /// One request: the counted critical section, then the non-critical
    /// work.
    fn serve(&self, node: &L::Node, config: &RunConfig, seed: &mut u64) {
        // SAFETY: the node lives in the worker's state for the whole
        // acquisition; the counter is only touched under the lock.
        unsafe {
            self.lock.lock(node);
            *self.counter.get() += 1;
            spin_work(config.critical_work, seed);
            self.lock.unlock(node);
        }
        spin_work(config.non_critical_work, seed);
    }

    /// Asserts the mutual-exclusion invariant after every worker joined:
    /// the protected counter equals the number of requests the driver
    /// counted as served.
    fn check_mutual_exclusion(&mut self, served: u64) {
        assert_eq!(
            *self.counter.get_mut(),
            served,
            "mutual exclusion violated: protected counter diverged from op counts"
        );
    }
}

/// Runs `config.threads` workers on one lock of type `L` in the load shape
/// `config.load` selects, counting completed critical sections.
///
/// The protected state is a non-atomic counter, so any mutual-exclusion bug
/// shows up as a mismatch between the counter and the sum of per-thread op
/// counts (the function asserts this invariant in both modes).
pub fn run_real_contention<L>(config: &RunConfig) -> RunResult
where
    L: RawLock + 'static,
{
    let mut shared = Shared::<L>::default();
    let summary = run_wall_clock(
        config.threads,
        config.load,
        config.duration,
        |t| {
            let socket = SocketOverrideGuard::new(t % config.virtual_sockets.max(1));
            (socket, L::Node::default(), (t as u64 + 1) * 0x9E37_79B9)
        },
        |(_socket, node, seed), _request| shared.serve(node, config, seed),
    );
    shared.check_mutual_exclusion(summary.served());
    RunResult::from_driver(L::NAME, config.load, summary)
}

/// Registry-driven counterpart of [`run_real_contention`]: the algorithm is
/// chosen by [`LockId`] at runtime.
///
/// Reuses the generic measurement loop, instantiated once with
/// [`registry::AmbientLock`], so every registered algorithm shares one
/// compiled loop and dispatches per acquisition through the type-erased
/// adapter. The erased path adds one virtual call and a pooled-node round
/// trip per acquisition — the same constant for every algorithm, so
/// cross-algorithm comparisons remain meaningful. Runs serialize on the
/// process-wide ambient scope.
pub fn run_real_contention_dyn(id: LockId, config: &RunConfig) -> RunResult {
    let mut result =
        registry::with_ambient(id, || run_real_contention::<registry::AmbientLock>(config));
    result.algorithm = id.name().to_string();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cna::CnaLock;
    use locks::McsLock;

    #[test]
    fn real_run_counts_operations_and_checks_mutual_exclusion() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(30),
            critical_work: 8,
            non_critical_work: 8,
            ..RunConfig::default()
        };
        let result = run_real_contention::<CnaLock>(&cfg);
        assert_eq!(result.algorithm, "CNA");
        assert!(result.total_ops() > 0);
        assert!(result.throughput_ops_per_us() > 0.0);
        assert!(result.open_loop.is_none(), "closed runs carry no histogram");
        let f = result.fairness_factor();
        assert!((0.5..=1.0).contains(&f));
    }

    #[test]
    fn works_for_mcs_too() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(20),
            critical_work: 4,
            non_critical_work: 4,
            ..RunConfig::default()
        };
        let result = run_real_contention::<McsLock>(&cfg);
        assert_eq!(result.algorithm, "MCS");
        assert!(result.total_ops() > 0);
    }

    #[test]
    fn dyn_run_matches_the_generic_run_shape() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(25),
            critical_work: 8,
            non_critical_work: 8,
            ..RunConfig::default()
        };
        let result = run_real_contention_dyn(LockId::Cna, &cfg);
        assert_eq!(result.algorithm, "cna");
        assert!(result.total_ops() > 0);
        assert!((0.5..=1.0).contains(&result.fairness_factor()));
    }

    #[test]
    fn dyn_run_works_for_a_qspinlock_id() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(20),
            critical_work: 4,
            non_critical_work: 4,
            ..RunConfig::default()
        };
        let result = run_real_contention_dyn(LockId::QSpinStock, &cfg);
        assert_eq!(result.algorithm, "qspinlock-stock");
        assert!(result.total_ops() > 0);
    }

    #[test]
    fn scale_config_produces_short_ci_runs() {
        let cfg = RunConfig::for_scale(4);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.load, LoadMode::Closed);
        assert!(cfg.duration <= Duration::from_millis(100) || Scale::from_env() == Scale::Paper);
    }

    #[test]
    fn open_loop_run_serves_every_scheduled_request() {
        // 100k req/s over 2 ms ⇒ the MIN_REQUESTS floor (64 requests, ~0.6 ms
        // of schedule): fast and deterministic in count.
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(2),
            critical_work: 4,
            non_critical_work: 0,
            ..RunConfig::default()
        }
        .open(100_000, Arrival::Poisson);
        let result = run_real_contention::<CnaLock>(&cfg);
        let summary = result
            .open_loop
            .as_ref()
            .expect("open runs carry a summary");
        assert_eq!(summary.served(), summary.histogram.count());
        assert_eq!(summary.served(), result.total_ops());
        assert!(summary.histogram.count() >= 64);
        assert!(summary.histogram.percentile(99.0) >= summary.histogram.percentile(50.0));
        assert!(summary.mean_queue_depth >= 1.0, "arrivals count themselves");
        assert!(result.elapsed.as_nanos() > 0);
    }

    #[test]
    fn open_loop_dyn_run_works_through_the_registry() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(2),
            critical_work: 4,
            ..RunConfig::default()
        }
        .open(200_000, Arrival::Fixed);
        let result = run_real_contention_dyn(LockId::Mcs, &cfg);
        assert_eq!(result.algorithm, "mcs");
        assert!(result.open_loop.is_some());
    }
}
