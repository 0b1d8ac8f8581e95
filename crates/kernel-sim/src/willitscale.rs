//! The four will-it-scale benchmarks of Figure 15, driving the VFS
//! substrates of this crate, plus the lockstat report behind Table 1.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sync_core::raw::RawLock;
use sync_core::CachePadded;

use crate::dentry::DentryDir;
use crate::fdtable::{File, FilesStruct};
use crate::filelock::FileLockContext;
use crate::lockstat::{LockStatRegistry, LockStatReport};

/// The four benchmarks (threads mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WisBenchmark {
    /// fcntl lock/unlock, separate file per thread.
    Lock1,
    /// fcntl lock/unlock, one shared file.
    Lock2,
    /// open/close separate files in the same directory.
    Open1,
    /// open/close separate files in separate directories.
    Open2,
}

impl WisBenchmark {
    /// All benchmarks in Figure 15 order.
    pub fn all() -> [WisBenchmark; 4] {
        [
            WisBenchmark::Lock1,
            WisBenchmark::Lock2,
            WisBenchmark::Open1,
            WisBenchmark::Open2,
        ]
    }

    /// The upstream benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            WisBenchmark::Lock1 => "lock1_threads",
            WisBenchmark::Lock2 => "lock2_threads",
            WisBenchmark::Open1 => "open1_threads",
            WisBenchmark::Open2 => "open2_threads",
        }
    }
}

/// Configuration of a will-it-scale run.
#[derive(Debug, Clone)]
pub struct WisConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock duration.
    pub duration: Duration,
}

impl Default for WisConfig {
    fn default() -> Self {
        WisConfig {
            threads: 2,
            duration: Duration::from_millis(50),
        }
    }
}

/// Result of a will-it-scale run.
#[derive(Debug, Clone)]
pub struct WisReport {
    /// The benchmark that ran.
    pub benchmark: &'static str,
    /// Lock algorithm behind the kernel spin locks.
    pub algorithm: String,
    /// Iterations per thread.
    pub ops_per_thread: Vec<u64>,
    /// Wall-clock interval.
    pub elapsed: Duration,
    /// Lockstat report (feeds Table 1).
    pub lockstat: LockStatReport,
}

impl WisReport {
    /// Total iterations.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_thread.iter().sum()
    }

    /// Aggregate throughput in iterations per millisecond.
    pub fn throughput_ops_per_ms(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_millis().max(1) as f64
    }
}

/// Runs one will-it-scale benchmark with every kernel spin lock implemented
/// by lock type `L` (the stock or CNA qspinlock in the paper's figures).
pub fn run_will_it_scale<L>(benchmark: WisBenchmark, config: &WisConfig) -> WisReport
where
    L: RawLock + 'static,
{
    let stats = Arc::new(LockStatRegistry::new());
    let files: Arc<FilesStruct<L>> = Arc::new(FilesStruct::new(1 << 16, stats.clone()));
    let shared_flc: Arc<FileLockContext<L>> = Arc::new(FileLockContext::new(stats.clone()));
    let shared_dir: Arc<DentryDir<L>> = Arc::new(DentryDir::new(stats.clone()));

    let stop = Arc::new(AtomicBool::new(false));
    let counts: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
        (0..config.threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
    );

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..config.threads {
            let files = Arc::clone(&files);
            let shared_flc = Arc::clone(&shared_flc);
            let shared_dir = Arc::clone(&shared_dir);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let counts = Arc::clone(&counts);
            scope.spawn(move || {
                let _socket = numa_topology::SocketOverrideGuard::new(t % 2);
                // Per-thread private structures (the "separate file /
                // separate directory" halves of the benchmarks).
                let private_flc: FileLockContext<L> = FileLockContext::new(stats.clone());
                let private_dir: DentryDir<L> = DentryDir::new(stats.clone());
                let owner = t as u64;
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match benchmark {
                        WisBenchmark::Lock1 => {
                            // Shared fd table (the file was opened once per
                            // thread in the real benchmark; the hot path is
                            // the fcntl on the shared files_struct) + a
                            // per-thread lock context.
                            let fd = files
                                .alloc_fd(Arc::new(File { inode: owner }))
                                .expect("fd available");
                            let _ = files.get(fd);
                            private_flc.posix_lock(owner, 0, 10, true);
                            private_flc.posix_unlock(owner, 0, 10);
                            files.close_fd(fd).expect("fd open");
                        }
                        WisBenchmark::Lock2 => {
                            // All threads lock the same file: the shared
                            // file_lock_context is hot. Use disjoint ranges so
                            // requests succeed (as the benchmark does).
                            let base = owner * 100;
                            shared_flc.posix_lock(owner, base, base + 10, true);
                            shared_flc.posix_unlock(owner, base, base + 10);
                        }
                        WisBenchmark::Open1 => {
                            // open/close in one shared directory: fd table +
                            // shared parent dentry lockref.
                            let fd = files
                                .alloc_fd(Arc::new(File { inode: owner }))
                                .expect("fd available");
                            let dentry = shared_dir.d_alloc(&format!("t{t}-{ops}"));
                            shared_dir.dput(&dentry);
                            files.close_fd(fd).expect("fd open");
                        }
                        WisBenchmark::Open2 => {
                            // open/close in per-thread directories: only the
                            // fd table is shared.
                            let fd = files
                                .alloc_fd(Arc::new(File { inode: owner }))
                                .expect("fd available");
                            let dentry = private_dir.d_alloc(&format!("t{t}-{ops}"));
                            private_dir.dput(&dentry);
                            files.close_fd(fd).expect("fd open");
                        }
                    }
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

    WisReport {
        benchmark: benchmark.name(),
        algorithm: L::NAME.to_string(),
        ops_per_thread: counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        elapsed,
        lockstat: stats.report(),
    }
}

/// Registry-driven counterpart of [`run_will_it_scale`]: the spin-lock
/// algorithm behind every kernel substrate is chosen by
/// [`LockId`](registry::LockId) at runtime.
///
/// The VFS substrates (`FilesStruct<L>`, `FileLockContext<L>`,
/// `DentryDir<L>`) construct their locks internally, so the selection rides
/// on [`registry::AmbientLock`] — every lock they create inside the scope
/// dispatches to the registered algorithm of `id`.
pub fn run_will_it_scale_dyn(
    id: registry::LockId,
    benchmark: WisBenchmark,
    config: &WisConfig,
) -> WisReport {
    let mut report = registry::with_ambient(id, || {
        run_will_it_scale::<registry::AmbientLock>(benchmark, config)
    });
    report.algorithm = id.name().to_string();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspinlock::StockQSpinLock;

    fn cfg() -> WisConfig {
        WisConfig {
            threads: 2,
            duration: Duration::from_millis(25),
        }
    }

    #[test]
    fn every_benchmark_completes_iterations() {
        for bench in WisBenchmark::all() {
            let report = run_will_it_scale::<StockQSpinLock>(bench, &cfg());
            assert!(report.total_ops() > 0, "{} made no progress", bench.name());
            assert_eq!(report.algorithm, "stock");
        }
    }

    #[test]
    fn every_benchmark_completes_iterations_on_a_dyn_selected_lock() {
        for (id, bench) in [
            (registry::LockId::QSpinCna, WisBenchmark::Lock1),
            (registry::LockId::Mcs, WisBenchmark::Open2),
        ] {
            let report = run_will_it_scale_dyn(id, bench, &cfg());
            assert_eq!(report.algorithm, id.name());
            assert!(
                report.total_ops() > 0,
                "{} on {} made no progress",
                bench.name(),
                id
            );
        }
    }

    /// The paper's Table 1: the contended spin locks and call sites of
    /// each benchmark, every pair of which must see acquisitions on both
    /// the stock and the CNA qspinlock slow path.
    #[test]
    fn table1_call_sites_appear_for_every_benchmark() {
        let table1 = [
            (WisBenchmark::Lock1, "files_struct.file_lock", "__alloc_fd"),
            (WisBenchmark::Lock1, "files_struct.file_lock", "fcntl_setlk"),
            (
                WisBenchmark::Lock2,
                "file_lock_context.flc_lock",
                "posix_lock_inode",
            ),
            (WisBenchmark::Open1, "files_struct.file_lock", "__alloc_fd"),
            (WisBenchmark::Open1, "files_struct.file_lock", "__close_fd"),
            (WisBenchmark::Open1, "lockref.lock", "dput"),
            (WisBenchmark::Open1, "lockref.lock", "d_alloc"),
            (WisBenchmark::Open2, "files_struct.file_lock", "__alloc_fd"),
            (WisBenchmark::Open2, "files_struct.file_lock", "__close_fd"),
        ];
        for id in [registry::LockId::QSpinStock, registry::LockId::QSpinCna] {
            for bench in WisBenchmark::all() {
                let report = run_will_it_scale_dyn(id, bench, &cfg());
                for &(_, lock, site) in table1.iter().filter(|(b, ..)| *b == bench) {
                    assert!(
                        report
                            .lockstat
                            .rows
                            .iter()
                            .any(|r| r.lock == lock && r.call_site == site && r.acquisitions > 0),
                        "{} on {id}: expected call site {site} on {lock} was not observed",
                        bench.name()
                    );
                }
            }
        }
    }
}
