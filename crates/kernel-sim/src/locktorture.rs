//! The locktorture benchmark (Figures 13 and 14).
//!
//! `locktorture` creates a set of kernel threads that repeatedly acquire and
//! release a lock, with occasional short delays inside the critical section
//! ("to emulate likely code") and occasional long delays ("to force massive
//! contention"). With `lockstat` enabled the kernel additionally updates
//! shared bookkeeping (e.g. the CPU that last acquired each lock class) after
//! every acquisition, which adds shared-data accesses to the otherwise
//! data-free critical section — the paper uses this to approximate real
//! critical sections.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sync_core::raw::RawLock;
use sync_core::rng::Rng;
use sync_core::CachePadded;

/// Configuration of a locktorture run.
#[derive(Debug, Clone)]
pub struct LockTortureConfig {
    /// Number of torture writer threads.
    pub threads: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Emulates compiling the kernel with `lockstat` enabled: update shared
    /// statistics inside every critical section.
    pub lockstat: bool,
}

impl Default for LockTortureConfig {
    fn default() -> Self {
        LockTortureConfig {
            threads: 2,
            duration: Duration::from_millis(50),
            lockstat: false,
        }
    }
}

/// Result of a locktorture run.
#[derive(Debug, Clone)]
pub struct LockTortureReport {
    /// Lock algorithm exercised.
    pub algorithm: String,
    /// Lock operations per thread.
    pub ops_per_thread: Vec<u64>,
    /// Wall-clock interval.
    pub elapsed: Duration,
    /// Whether the lockstat-style shared updates were enabled.
    pub lockstat: bool,
}

impl LockTortureReport {
    /// Total completed lock operations.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_thread.iter().sum()
    }

    /// Aggregate throughput in operations per millisecond.
    pub fn throughput_ops_per_ms(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_millis().max(1) as f64
    }
}

/// Shared state mimicking lockstat's per-class bookkeeping.
struct TortureShared {
    last_cpu: u64,
    acquisitions: u64,
    max_streak: u64,
    current_streak: u64,
}

/// Runs locktorture over lock type `L` (the qspinlock with the stock or CNA
/// slow path in the figures).
pub fn run_locktorture<L>(config: &LockTortureConfig) -> LockTortureReport
where
    L: RawLock + 'static,
{
    struct Protected(std::cell::UnsafeCell<TortureShared>);
    // SAFETY: only touched while the torture lock is held.
    unsafe impl Sync for Protected {}

    let lock = Arc::new(L::default());
    let shared = Arc::new(Protected(std::cell::UnsafeCell::new(TortureShared {
        last_cpu: 0,
        acquisitions: 0,
        max_streak: 0,
        current_streak: 0,
    })));
    let stop = Arc::new(AtomicBool::new(false));
    let counts: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
        (0..config.threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
    );

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..config.threads {
            let lock = Arc::clone(&lock);
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let counts = Arc::clone(&counts);
            let cfg = config.clone();
            scope.spawn(move || {
                let _socket = numa_topology::SocketOverrideGuard::new(t % 2);
                let mut rng = Rng::new(0x7047 + t as u64);
                let node = L::Node::default();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // SAFETY: pinned node, matched pair; shared state only
                    // touched under the lock.
                    unsafe {
                        lock.lock(&node);
                        // Occasional short delay (1/200) and long delay
                        // (1/1000), mirroring locktorture's torture_spin_lock
                        // write delays.
                        let draw = rng.next_below(1_000);
                        if draw < 1 {
                            busy_ns(30_000, &mut rng);
                        } else if draw < 6 {
                            busy_ns(2_000, &mut rng);
                        }
                        if cfg.lockstat {
                            let s = &mut *shared.0.get();
                            s.acquisitions += 1;
                            if s.last_cpu == t as u64 {
                                s.current_streak += 1;
                                s.max_streak = s.max_streak.max(s.current_streak);
                            } else {
                                s.current_streak = 1;
                            }
                            s.last_cpu = t as u64;
                        }
                        lock.unlock(&node);
                    }
                    // Short pause between acquisitions ("to emulate likely
                    // code" outside the lock).
                    busy_ns(200, &mut rng);
                    ops += 1;
                    if ops.is_multiple_of(64) {
                        counts[t].store(ops, Ordering::Relaxed);
                    }
                }
                counts[t].store(ops, Ordering::Relaxed);
            });
        }
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();

    // SAFETY: all workers joined.
    let total_shared = unsafe { (*shared.0.get()).acquisitions };
    let total_ops: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    if config.lockstat {
        assert_eq!(
            total_shared, total_ops,
            "lockstat bookkeeping must observe every acquisition exactly once"
        );
    }

    LockTortureReport {
        algorithm: L::NAME.to_string(),
        ops_per_thread: counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        elapsed,
        lockstat: config.lockstat,
    }
}

/// Registry-driven counterpart of [`run_locktorture`]: the lock algorithm is
/// chosen by [`LockId`](registry::LockId) at runtime.
///
/// The torture loop is instantiated once with [`registry::AmbientLock`] —
/// the LiTL-style process-wide selection — so every registered algorithm
/// shares one compiled loop and dispatches per acquisition through the
/// type-erased adapter.
pub fn run_locktorture_dyn(id: registry::LockId, config: &LockTortureConfig) -> LockTortureReport {
    let mut report =
        registry::with_ambient(id, || run_locktorture::<registry::AmbientLock>(config));
    report.algorithm = id.name().to_string();
    report
}

fn busy_ns(ns: u64, rng: &mut Rng) {
    // An uncalibrated busy wait of `ns / 25 + 1` generator steps. A step is
    // about 1.2 ns on an AMD EPYC core, so the wait is about a twentieth of
    // `ns`; the delays only need to be rare and long next to the bare
    // critical section.
    let iters = ns / 25 + 1;
    let mut acc = 0u64;
    for _ in 0..iters {
        acc = acc.wrapping_add(rng.next_u64());
    }
    std::hint::black_box(acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspinlock::{CnaQSpinLock, StockQSpinLock};

    #[test]
    fn locktorture_counts_operations_stock() {
        let report = run_locktorture::<StockQSpinLock>(&LockTortureConfig {
            threads: 2,
            duration: Duration::from_millis(30),
            lockstat: false,
        });
        assert_eq!(report.algorithm, "stock");
        assert!(report.total_ops() > 0);
        assert!(!report.lockstat);
    }

    #[test]
    fn locktorture_dyn_runs_any_registered_algorithm() {
        let report = run_locktorture_dyn(
            registry::LockId::Cna,
            &LockTortureConfig {
                threads: 2,
                duration: Duration::from_millis(25),
                lockstat: true,
            },
        );
        assert_eq!(report.algorithm, "cna");
        assert!(report.total_ops() > 0);
    }

    #[test]
    fn locktorture_with_lockstat_keeps_shared_state_consistent() {
        let report = run_locktorture::<CnaQSpinLock>(&LockTortureConfig {
            threads: 3,
            duration: Duration::from_millis(30),
            lockstat: true,
        });
        assert_eq!(report.algorithm, "CNA");
        assert!(report.total_ops() > 0);
        assert!(report.lockstat);
        assert!(report.throughput_ops_per_ms() > 0.0);
    }
}
