//! A `db_bench readrandom`-style driver (§7.1.2).
//!
//! As in the paper, the benchmark runs for a fixed time (rather than a fixed
//! number of operations) and reports aggregate throughput; the database is
//! either pre-filled (1M keys in the paper) or empty, which concentrates all
//! contention on the global DB mutex.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sync_core::raw::RawLock;
use sync_core::CachePadded;

use crate::db::Db;

/// Configuration of a `readrandom` run.
#[derive(Debug, Clone)]
pub struct ReadRandomConfig {
    /// Number of reader threads.
    pub threads: usize,
    /// Wall-clock duration of the measured interval.
    pub duration: Duration,
    /// Number of keys the database is pre-filled with (0 = empty DB).
    pub prefill_keys: usize,
    /// Key range the random reads draw from (usually ≥ `prefill_keys`).
    pub key_range: usize,
    /// Block cache capacity.
    pub cache_capacity: usize,
}

impl Default for ReadRandomConfig {
    fn default() -> Self {
        ReadRandomConfig {
            threads: 2,
            duration: Duration::from_millis(50),
            prefill_keys: 10_000,
            key_range: 10_000,
            cache_capacity: 4_096,
        }
    }
}

/// Result of a `readrandom` run.
#[derive(Debug, Clone)]
pub struct ReadRandomReport {
    /// Lock algorithm used for the DB mutex and cache shards.
    pub algorithm: String,
    /// Operations completed per thread.
    pub ops_per_thread: Vec<u64>,
    /// Reads that found their key.
    pub found: u64,
    /// Wall-clock measurement interval.
    pub elapsed: Duration,
}

impl ReadRandomReport {
    /// Total completed operations.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_thread.iter().sum()
    }

    /// Aggregate throughput in operations per millisecond.
    pub fn throughput_ops_per_ms(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_millis().max(1) as f64
    }
}

/// Runs the `readrandom` workload against a fresh database protected by lock
/// algorithm `L`.
pub fn readrandom<L>(config: &ReadRandomConfig) -> ReadRandomReport
where
    L: RawLock + 'static,
{
    let db: Arc<Db<L>> = Arc::new(if config.prefill_keys > 0 {
        Db::prefilled(config.prefill_keys, config.cache_capacity)
    } else {
        Db::new(config.cache_capacity)
    });
    let stop = Arc::new(AtomicBool::new(false));
    let counts: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
        (0..config.threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
    );
    let found = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..config.threads {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let counts = Arc::clone(&counts);
            let found = Arc::clone(&found);
            let cfg = config.clone();
            scope.spawn(move || {
                let _socket = numa_topology::SocketOverrideGuard::new(t % 2);
                let mut rng = SmallRng::seed_from_u64(0xDB + t as u64);
                let mut ops = 0u64;
                let mut local_found = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key_index = rng.gen_range(0..cfg.key_range.max(1));
                    let key = Db::<L>::bench_key(key_index);
                    if db.get(&key).is_some() {
                        local_found += 1;
                    }
                    ops += 1;
                    if ops.is_multiple_of(32) {
                        counts[t].store(ops, Ordering::Relaxed);
                    }
                }
                counts[t].store(ops, Ordering::Relaxed);
                found.fetch_add(local_found, Ordering::Relaxed);
            });
        }
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();

    ReadRandomReport {
        algorithm: L::NAME.to_string(),
        ops_per_thread: counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        found: found.load(Ordering::Relaxed),
        elapsed,
    }
}

/// Configuration of a group-commit `writebatch` run.
#[derive(Debug, Clone)]
pub struct WriteBatchConfig {
    /// Number of writer threads.
    pub threads: usize,
    /// Wall-clock duration of the measured interval.
    pub duration: Duration,
    /// Number of keys the database is pre-filled with.
    pub prefill_keys: usize,
    /// Key range the random writes draw from. Equal to `prefill_keys` by
    /// default, so every write overwrites in place and the memtable keeps
    /// its size over the run.
    pub key_range: usize,
    /// Most writes one group-commit leader applies per DB-mutex
    /// acquisition; 1 degenerates to a plain put per acquisition.
    pub batch: usize,
    /// Block cache capacity.
    pub cache_capacity: usize,
}

impl Default for WriteBatchConfig {
    fn default() -> Self {
        WriteBatchConfig {
            threads: 2,
            duration: Duration::from_millis(50),
            prefill_keys: 512,
            key_range: 512,
            batch: 8,
            cache_capacity: 256,
        }
    }
}

/// Result of a `writebatch` run.
#[derive(Debug, Clone)]
pub struct WriteBatchReport {
    /// Lock algorithm used for the DB mutex and cache shards.
    pub algorithm: String,
    /// Writes completed per thread.
    pub ops_per_thread: Vec<u64>,
    /// Group commits performed (DB-mutex acquisitions on the write path).
    pub batches: u64,
    /// Wall-clock measurement interval.
    pub elapsed: Duration,
}

impl WriteBatchReport {
    /// Total completed writes.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_thread.iter().sum()
    }

    /// Aggregate throughput in writes per millisecond.
    pub fn throughput_ops_per_ms(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_millis().max(1) as f64
    }

    /// Mean writes applied per DB-mutex acquisition.
    pub fn mean_batch_size(&self) -> f64 {
        self.total_ops() as f64 / self.batches.max(1) as f64
    }
}

/// Runs the group-commit write workload against a pre-filled database:
/// every thread overwrites random keys through [`Db::put_group`], so up to
/// `config.batch` concurrent writes share one DB-mutex acquisition.
pub fn writebatch<L>(config: &WriteBatchConfig) -> WriteBatchReport
where
    L: RawLock + 'static,
{
    let db: Arc<Db<L>> = Arc::new(if config.prefill_keys > 0 {
        Db::prefilled(config.prefill_keys, config.cache_capacity)
    } else {
        Db::new(config.cache_capacity)
    });
    let stop = Arc::new(AtomicBool::new(false));

    let start = Instant::now();
    let ops_per_thread: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|t| {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                let cfg = config.clone();
                scope.spawn(move || {
                    let _socket = numa_topology::SocketOverrideGuard::new(t % 2);
                    let mut rng = SmallRng::seed_from_u64(0xDB + t as u64);
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let key_index = rng.gen_range(0..cfg.key_range.max(1));
                        let key = Db::<L>::bench_key(key_index);
                        let seq = db.put_group(&key, b"batched-value", cfg.batch);
                        debug_assert!(seq > 0, "committed writes carry a sequence");
                        ops += 1;
                    }
                    ops
                })
            })
            .collect();
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("writebatch worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed();

    WriteBatchReport {
        algorithm: L::NAME.to_string(),
        ops_per_thread,
        batches: db.stats().batches,
        elapsed,
    }
}

/// Registry-driven counterpart of [`writebatch`], selecting the DB-mutex
/// algorithm by [`LockId`](registry::LockId) through the ambient scope.
pub fn writebatch_dyn(id: registry::LockId, config: &WriteBatchConfig) -> WriteBatchReport {
    let mut report = registry::with_ambient(id, || writebatch::<registry::AmbientLock>(config));
    report.algorithm = id.name().to_string();
    report
}

/// Registry-driven counterpart of [`readrandom`]: the DB mutex and cache
/// shard algorithm is chosen by [`LockId`](registry::LockId) at runtime.
///
/// `Db<L>` constructs its locks internally, so the selection rides on
/// [`registry::AmbientLock`] (the LiTL-style process-wide interposition):
/// every mutex the store creates inside the scope dispatches to the
/// registered algorithm of `id`.
pub fn readrandom_dyn(id: registry::LockId, config: &ReadRandomConfig) -> ReadRandomReport {
    let mut report = registry::with_ambient(id, || readrandom::<registry::AmbientLock>(config));
    report.algorithm = id.name().to_string();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cna::CnaLock;
    use locks::McsLock;

    #[test]
    fn readrandom_on_prefilled_db_finds_keys() {
        let cfg = ReadRandomConfig {
            threads: 2,
            duration: Duration::from_millis(30),
            prefill_keys: 1_000,
            key_range: 1_000,
            cache_capacity: 512,
        };
        let report = readrandom::<CnaLock>(&cfg);
        assert_eq!(report.algorithm, "CNA");
        assert!(report.total_ops() > 0);
        assert!(report.found > 0);
        assert!(report.throughput_ops_per_ms() > 0.0);
    }

    #[test]
    fn readrandom_dyn_runs_a_registry_selected_lock() {
        let cfg = ReadRandomConfig {
            threads: 2,
            duration: Duration::from_millis(25),
            prefill_keys: 500,
            key_range: 500,
            cache_capacity: 256,
        };
        let report = readrandom_dyn(registry::LockId::Hmcs, &cfg);
        assert_eq!(report.algorithm, "hmcs");
        assert!(report.total_ops() > 0);
        assert!(report.found > 0);
    }

    #[test]
    fn writebatch_amortizes_acquisitions_over_writes() {
        let cfg = WriteBatchConfig {
            threads: 3,
            duration: Duration::from_millis(30),
            batch: 8,
            ..WriteBatchConfig::default()
        };
        let report = writebatch::<CnaLock>(&cfg);
        assert_eq!(report.algorithm, "CNA");
        assert!(report.total_ops() > 0);
        assert!(report.batches > 0);
        assert!(
            report.batches <= report.total_ops(),
            "batching cannot take more acquisitions than writes"
        );
        assert!(report.mean_batch_size() >= 1.0);
    }

    #[test]
    fn writebatch_dyn_runs_a_registry_selected_lock() {
        let cfg = WriteBatchConfig {
            threads: 2,
            duration: Duration::from_millis(20),
            batch: 1,
            ..WriteBatchConfig::default()
        };
        let report = writebatch_dyn(registry::LockId::Mcs, &cfg);
        assert_eq!(report.algorithm, "mcs");
        assert!(report.total_ops() > 0);
        assert_eq!(
            report.batches,
            report.total_ops(),
            "batch=1 degenerates to one acquisition per write"
        );
    }

    #[test]
    fn readrandom_on_empty_db_finds_nothing() {
        let cfg = ReadRandomConfig {
            threads: 2,
            duration: Duration::from_millis(20),
            prefill_keys: 0,
            key_range: 1_000,
            cache_capacity: 512,
        };
        let report = readrandom::<McsLock>(&cfg);
        assert!(report.total_ops() > 0);
        assert_eq!(report.found, 0);
    }
}
