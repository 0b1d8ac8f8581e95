//! Load-driving machinery shared by both runners: arrival schedules, the
//! per-run summary, and the one real-thread driver. (The simulator's
//! counterpart of the driver is `numa_sim::engine`, which consumes the same
//! schedules.)
//!
//! An open-loop run is sized by **request count**, not duration: the
//! schedule always contains between [`MIN_REQUESTS`] and [`MAX_REQUESTS`]
//! arrivals (aiming for `rate × duration`), so low offered rates still
//! produce statistically meaningful histograms and saturating rates cannot
//! allocate unbounded schedules. Both runners consume the same schedule
//! generator, so a substrate run and a simulator run at the same (rate,
//! arrival, seed) see the **same** offered load.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng, SmallRng};

use numa_sim::SimResult;

use super::histogram::LatencyHistogram;
use super::load::{Arrival, LoadMode};

/// Fewest arrivals an open-loop run schedules — below this, tail
/// percentiles are meaningless.
pub const MIN_REQUESTS: usize = 64;
/// Most arrivals an open-loop run schedules (bounds schedule memory and
/// drain time at saturating rates).
pub const MAX_REQUESTS: usize = 1 << 20;

/// The number of requests an open-loop run at `rate_per_sec` offers over a
/// `horizon_ns` measurement window, clamped to
/// [`MIN_REQUESTS`]..=[`MAX_REQUESTS`].
pub fn request_count(rate_per_sec: u64, horizon_ns: u64) -> usize {
    let n = u128::from(rate_per_sec) * u128::from(horizon_ns) / 1_000_000_000;
    // Clamp before narrowing: the product can exceed 64 bits.
    n.clamp(MIN_REQUESTS as u128, MAX_REQUESTS as u128) as usize
}

/// Generates the arrival schedule: `requests` offsets in nanoseconds from
/// run start, non-decreasing, drawn from `arrival` at `rate_per_sec`.
/// Deterministic per seed (Poisson uses the offline `rand` shim).
pub fn arrival_schedule(
    rate_per_sec: u64,
    arrival: Arrival,
    requests: usize,
    seed: u64,
) -> Vec<u64> {
    assert!(rate_per_sec > 0, "open-loop rate must be positive");
    let mean_gap_ns = 1e9 / rate_per_sec as f64;
    let mut schedule = Vec::with_capacity(requests);
    match arrival {
        Arrival::Fixed => {
            for i in 0..requests {
                schedule.push((i as f64 * mean_gap_ns) as u64);
            }
        }
        Arrival::Poisson => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = 0.0f64;
            for _ in 0..requests {
                schedule.push(t as u64);
                let u: f64 = rng.gen();
                // Inverse-CDF exponential draw; 1-u is in (0, 1].
                t += -(1.0 - u).ln() * mean_gap_ns;
            }
        }
    }
    schedule
}

/// The schedule a run of `load` offers over a `horizon` measurement window,
/// or `None` for closed-loop load, which has no arrivals of its own.
///
/// Every open loop of both back-ends derives its schedule here. The seed
/// depends on the rate alone, so every repetition and every re-run at one
/// rate is offered the identical load and baseline diffs compare like with
/// like.
pub fn offered_schedule(load: LoadMode, horizon: Duration) -> Option<Vec<u64>> {
    match load {
        LoadMode::Closed => None,
        LoadMode::Open {
            rate_per_sec,
            arrival,
        } => {
            let horizon_ns = u64::try_from(horizon.as_nanos()).unwrap_or(u64::MAX);
            Some(arrival_schedule(
                rate_per_sec,
                arrival,
                request_count(rate_per_sec, horizon_ns),
                0x00DD_5EED ^ rate_per_sec,
            ))
        }
    }
}

/// What one run of the load driver measured, normalized across the
/// real-thread and simulated back-ends. Closed-loop runs have no requests,
/// so their histogram and queue depths stay empty.
#[derive(Debug, Clone)]
pub struct OpenLoopSummary {
    /// Per-request sojourn times (arrival → completion), nanoseconds.
    pub histogram: LatencyHistogram,
    /// Requests completed per worker (for fairness-style accounting).
    pub served_per_worker: Vec<u64>,
    /// Mean number of requests in the system (arrived, not yet completed),
    /// sampled at each arrival.
    pub mean_queue_depth: f64,
    /// Largest sampled in-system count.
    pub max_queue_depth: u64,
    /// Run makespan: first arrival to last completion, nanoseconds.
    pub elapsed_ns: u64,
}

impl OpenLoopSummary {
    /// Total requests served.
    pub fn served(&self) -> u64 {
        self.served_per_worker.iter().sum()
    }

    /// Completed requests per microsecond of makespan.
    pub fn throughput_ops_per_us(&self) -> f64 {
        self.served() as f64 / (self.elapsed_ns as f64 / 1e3).max(1.0)
    }

    /// Folds the raw per-request records of a scheduled simulator run into
    /// the summary the real-thread driver produces.
    pub(crate) fn from_sim(result: &SimResult) -> Self {
        let mut histogram = LatencyHistogram::new();
        for &sojourn in &result.sojourn_ns {
            histogram.record(sojourn);
        }
        let mut depth = DepthMeter::default();
        for &in_system in &result.depth_at_arrival {
            depth.sample(in_system);
        }
        OpenLoopSummary {
            histogram,
            served_per_worker: result.ops_per_thread.clone(),
            mean_queue_depth: depth.mean(),
            max_queue_depth: depth.max(),
            elapsed_ns: result.duration_ns,
        }
    }
}

/// Accumulates queue-depth samples (one per arrival).
#[derive(Debug, Default, Clone)]
pub struct DepthMeter {
    sum: u128,
    samples: u64,
    max: u64,
}

impl DepthMeter {
    /// Records the in-system count observed at one arrival.
    pub fn sample(&mut self, depth: u64) {
        self.sum += u128::from(depth);
        self.samples += 1;
        self.max = self.max.max(depth);
    }

    /// Mean sampled depth (0 when nothing was sampled).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum as f64 / self.samples as f64
    }

    /// Largest sampled depth.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another meter in (for merging per-worker meters).
    pub fn merge(&mut self, other: &DepthMeter) {
        self.sum += other.sum;
        self.samples += other.samples;
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------------
// The wall-clock load driver
// ---------------------------------------------------------------------------

/// Drives `threads` real workers with `load` for a `duration` window — the
/// one thread-spawning loop behind every real-thread measurement.
///
/// The caller supplies the substrate via two closures:
///
/// * `init(worker)` runs **on the worker thread** and builds its per-worker
///   state (socket override guard, queue node, RNG seed, …) — the state
///   type `W` never crosses threads, so it needs no `Send`.
/// * `serve(&mut state, request)` performs one request — the critical
///   section being measured. `request` is unique within the run.
///
/// The load shape only decides when a worker's next request arrives:
///
/// * [`LoadMode::Closed`] — the instant its last one completes, until
///   `duration` has passed. Workers share no dispatch state, so they contend
///   only on what `serve` touches, and nothing is timed per request.
/// * [`LoadMode::Open`] — at its offset in [`offered_schedule`]: workers
///   claim arrivals with a shared fetch-add, pace each to the wall clock
///   (sleep through long gaps, spin out the tail) and record its sojourn
///   from the **scheduled** arrival plus a queue-depth sample. The run ends
///   when the schedule drains, so saturating rates produce growing sojourn
///   times rather than drops.
pub fn run_wall_clock<W, I, S>(
    threads: usize,
    load: LoadMode,
    duration: Duration,
    init: I,
    serve: S,
) -> OpenLoopSummary
where
    I: Fn(usize) -> W + Sync,
    S: Fn(&mut W, usize) + Sync,
{
    let threads = threads.max(1);
    let schedule = offered_schedule(load, duration);
    let schedule = schedule.as_deref();
    let stop = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let completed = AtomicU64::new(0);
    let start = Instant::now();

    let per_worker: Vec<(LatencyHistogram, DepthMeter, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (stop, next, completed) = (&stop, &next, &completed);
                let (init, serve) = (&init, &serve);
                scope.spawn(move || {
                    let mut state = init(t);
                    let mut histogram = LatencyHistogram::new();
                    let mut depth = DepthMeter::default();
                    let mut served = 0u64;
                    let mut last_done_ns = 0u64;
                    match schedule {
                        None => {
                            while !stop.load(Ordering::Relaxed) {
                                serve(&mut state, t + served as usize * threads);
                                served += 1;
                            }
                            last_done_ns = start.elapsed().as_nanos() as u64;
                        }
                        Some(schedule) => loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= schedule.len() {
                                break;
                            }
                            let arrival_ns = schedule[i];
                            // Pace on the wall clock: sleep through long
                            // gaps, spin out the tail for precision.
                            loop {
                                let now = start.elapsed().as_nanos() as u64;
                                if now >= arrival_ns {
                                    break;
                                }
                                if arrival_ns - now > 200_000 {
                                    std::thread::sleep(Duration::from_nanos(
                                        (arrival_ns - now) / 2,
                                    ));
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                            let now = start.elapsed().as_nanos() as u64;
                            // In-system count at service start: arrivals due
                            // by now minus requests already completed.
                            let arrived = schedule.partition_point(|&a| a <= now) as u64;
                            depth.sample(arrived.saturating_sub(completed.load(Ordering::Relaxed)));
                            serve(&mut state, i);
                            let done = start.elapsed().as_nanos() as u64;
                            histogram.record(done.saturating_sub(arrival_ns));
                            completed.fetch_add(1, Ordering::Relaxed);
                            served += 1;
                            last_done_ns = done;
                        },
                    }
                    (histogram, depth, served, last_done_ns)
                })
            })
            .collect();
        if schedule.is_none() {
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load-driver worker panicked"))
            .collect()
    });

    let mut histogram = LatencyHistogram::new();
    let mut depth = DepthMeter::default();
    let mut served_per_worker = Vec::with_capacity(per_worker.len());
    let mut elapsed_ns = 0u64;
    for (h, d, served, last) in &per_worker {
        histogram.merge(h);
        depth.merge(d);
        served_per_worker.push(*served);
        elapsed_ns = elapsed_ns.max(*last);
    }
    debug_assert_eq!(histogram.count(), schedule.map_or(0, |s| s.len() as u64));
    OpenLoopSummary {
        histogram,
        served_per_worker,
        mean_queue_depth: depth.mean(),
        max_queue_depth: depth.max(),
        elapsed_ns: elapsed_ns.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{SimSweep, WorkloadSpec};
    use numa_sim::{LockAlgorithm, Simulation};

    fn sim_sweep() -> SimSweep {
        match crate::experiments::WorkloadId::Sim.to_spec() {
            WorkloadSpec::Sim(sweep) => sweep,
            other => panic!("sim spec expected, got {other:?}"),
        }
    }

    /// A scheduled run of the sweep's machine and workload, summarized.
    fn sim_open(
        algorithm: LockAlgorithm,
        workers: usize,
        schedule: &[u64],
        seed: u64,
    ) -> OpenLoopSummary {
        let sweep = sim_sweep();
        let result = Simulation::new(sweep.machine, sweep.cost, algorithm, sweep.workload)
            .threads(workers)
            .seed(seed)
            .run_schedule(schedule);
        OpenLoopSummary::from_sim(&result)
    }

    fn open(rate_per_sec: u64, arrival: Arrival) -> LoadMode {
        LoadMode::Open {
            rate_per_sec,
            arrival,
        }
    }

    #[test]
    fn request_counts_clamp_to_the_configured_bounds() {
        assert_eq!(request_count(1, 1_000_000), MIN_REQUESTS);
        assert_eq!(request_count(1_000, 1_000_000_000), 1_000);
        assert_eq!(request_count(u64::MAX / 2, u64::MAX / 2), MAX_REQUESTS);
        // Exactly 2^64 requests: the count's low 64 bits are zero, so
        // narrowing before clamping reads it as no load at all.
        let (rate, horizon_ns) = (1u64 << 47, 1_000_000_000u64 << 17);
        let exact = u128::from(rate) * u128::from(horizon_ns) / 1_000_000_000;
        assert_eq!(exact, 1 << 64);
        assert!((exact as u64 as usize) < MIN_REQUESTS);
        assert_eq!(request_count(rate, horizon_ns), MAX_REQUESTS);
    }

    #[test]
    fn fixed_schedules_are_evenly_spaced() {
        let s = arrival_schedule(1_000_000, Arrival::Fixed, 100, 7);
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 1_000);
        assert_eq!(s[99], 99_000);
    }

    #[test]
    fn poisson_schedules_are_sorted_deterministic_and_rate_calibrated() {
        let a = arrival_schedule(1_000_000, Arrival::Poisson, 10_000, 42);
        let b = arrival_schedule(1_000_000, Arrival::Poisson, 10_000, 42);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let c = arrival_schedule(1_000_000, Arrival::Poisson, 10_000, 43);
        assert_ne!(a, c, "different seed, different draw");
        // Mean gap ≈ 1000 ns (within 10 % over 10k draws).
        let span = (a[a.len() - 1] - a[0]) as f64 / (a.len() - 1) as f64;
        assert!((900.0..1100.0).contains(&span), "mean gap {span}");
    }

    #[test]
    fn the_offered_schedule_depends_on_load_and_horizon_alone() {
        let horizon = Duration::from_millis(1);
        assert_eq!(offered_schedule(LoadMode::Closed, horizon), None);
        let load = open(2_000_000, Arrival::Poisson);
        let schedule = offered_schedule(load, horizon).expect("open load has arrivals");
        assert_eq!(schedule.len(), 2_000, "rate × horizon");
        assert_eq!(offered_schedule(load, horizon), Some(schedule));
    }

    #[test]
    fn wall_clock_driver_serves_every_request_and_merges_workers() {
        // 1 M/s over 200 µs: 200 requests, 1 µs apart.
        let sum = AtomicU64::new(0);
        let summary = run_wall_clock(
            3,
            open(1_000_000, Arrival::Fixed),
            Duration::from_micros(200),
            |worker| (worker, 0u64),
            |state, i| {
                state.1 += 1;
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            },
        );
        assert_eq!(summary.served(), 200);
        assert_eq!(summary.histogram.count(), 200);
        assert_eq!(summary.served_per_worker.len(), 3);
        assert_eq!(
            sum.load(Ordering::Relaxed),
            (200 * 201) / 2,
            "every request index served once"
        );
        assert!(summary.elapsed_ns >= 199_000, "the last arrival is paced");
        assert!(
            summary.mean_queue_depth >= 1.0,
            "arrivals sample themselves"
        );
    }

    #[test]
    fn wall_clock_driver_closed_loop_re_arrives_until_the_deadline() {
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        let summary = run_wall_clock(
            3,
            LoadMode::Closed,
            Duration::from_millis(5),
            |worker| worker,
            |&mut worker, request| {
                assert_eq!(request % 3, worker, "a worker served another's id");
                assert!(seen.lock().unwrap().insert(request), "request ids repeat");
            },
        );
        assert_eq!(summary.served_per_worker.len(), 3);
        // On a busy host one of three workers may not be scheduled inside a
        // 5 ms window, so only the total is asserted, not each worker's.
        assert!(summary.served() > 0, "nothing was served");
        assert_eq!(summary.served(), seen.lock().unwrap().len() as u64);
        assert!(summary.elapsed_ns >= 5_000_000, "runs to the deadline");
        assert_eq!(summary.histogram.count(), 0, "nothing is timed per request");
        assert_eq!(summary.mean_queue_depth, 0.0);
    }

    #[test]
    fn sim_open_loop_serves_every_request_deterministically() {
        let schedule = arrival_schedule(2_000_000, Arrival::Poisson, 500, 1);
        let run = || sim_open(LockAlgorithm::Cna, 4, &schedule, 99);
        let a = run();
        let b = run();
        assert_eq!(a.served(), 500);
        assert_eq!(a.served(), b.served());
        assert_eq!(a.histogram, b.histogram, "virtual time is deterministic");
        assert!(a.elapsed_ns >= *schedule.last().unwrap());
        assert!(a.histogram.percentile(50.0) > 0);
        assert!(a.mean_queue_depth >= 1.0, "arrivals sample themselves");
    }

    #[test]
    fn saturating_rates_grow_queues_and_tails() {
        let mild = arrival_schedule(100_000, Arrival::Fixed, 300, 1);
        let crushing = arrival_schedule(50_000_000, Arrival::Fixed, 300, 1);
        let low = sim_open(LockAlgorithm::Mcs, 2, &mild, 5);
        let high = sim_open(LockAlgorithm::Mcs, 2, &crushing, 5);
        assert!(
            high.histogram.percentile(99.0) > low.histogram.percentile(99.0),
            "p99 must grow under saturation ({} vs {})",
            high.histogram.percentile(99.0),
            low.histogram.percentile(99.0)
        );
        assert!(high.max_queue_depth > low.max_queue_depth);
    }
}
