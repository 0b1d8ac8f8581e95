//! `kyoto-lite`: an in-memory hash cache database reproducing the locking
//! profile of Kyoto Cabinet's `CacheDB` as exercised by `kccachetest wicked`
//! (§7.1.3 of the paper).
//!
//! Following the paper's methodology, the database is protected by a single
//! pthread-style mutex (the paper interposes the evaluated locks underneath
//! Kyoto Cabinet's mutex via LiTL); operations are a random "wicked" mix of
//! gets, sets, appends, removes and the occasional iteration, so critical
//! sections vary in length. The benchmark runs for a fixed time over a fixed
//! 10M key range and reports aggregate completed operations.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sync_core::mutex::LockMutex;
use sync_core::raw::RawLock;
use sync_core::rng::Rng;
use sync_core::CachePadded;

/// The fixed key range the paper uses after modifying `kccachetest`
/// (10M elements).
pub const PAPER_KEY_RANGE: u64 = 10_000_000;

/// Operations of the wicked mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WickedOp {
    /// Point lookup.
    Get,
    /// Insert/overwrite.
    Set,
    /// Append to an existing value.
    Append,
    /// Remove.
    Remove,
    /// Short scan from a random position (the occasional expensive op).
    Scan,
}

impl WickedOp {
    /// Draws the next operation of the wicked mix.
    pub fn draw(rng: &mut Rng) -> WickedOp {
        match rng.next_below(100) {
            0..=44 => WickedOp::Get,
            45..=74 => WickedOp::Set,
            75..=86 => WickedOp::Append,
            87..=96 => WickedOp::Remove,
            _ => WickedOp::Scan,
        }
    }
}

/// The in-memory cache database: one hash map behind one mutex.
pub struct CacheDb<L: RawLock>
where
    L::Node: 'static,
{
    map: LockMutex<HashMap<u64, Vec<u8>>, L>,
    ops: AtomicU64,
}

impl<L: RawLock> Default for CacheDb<L>
where
    L::Node: 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<L: RawLock> CacheDb<L>
where
    L::Node: 'static,
{
    /// Creates an empty database.
    pub fn new() -> Self {
        CacheDb {
            map: LockMutex::new(HashMap::new()),
            ops: AtomicU64::new(0),
        }
    }

    /// Executes one wicked operation on `key`.
    pub fn execute(&self, op: WickedOp, key: u64) {
        match op {
            WickedOp::Get => {
                let guard = self.map.lock();
                let _ = guard.get(&key).map(Vec::len);
            }
            WickedOp::Set => {
                let mut guard = self.map.lock();
                guard.insert(key, format!("value-{key}").into_bytes());
            }
            WickedOp::Append => {
                let mut guard = self.map.lock();
                guard
                    .entry(key)
                    .or_insert_with(|| b"seed".to_vec())
                    .extend_from_slice(b"+more");
            }
            WickedOp::Remove => {
                let mut guard = self.map.lock();
                guard.remove(&key);
            }
            WickedOp::Scan => {
                let guard = self.map.lock();
                // A bounded scan: touch up to 32 entries.
                let mut touched = 0usize;
                for (_, v) in guard.iter() {
                    touched += v.len();
                    if touched > 32 * 16 {
                        break;
                    }
                }
                std::hint::black_box(touched);
            }
        }
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// `true` when the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total executed operations.
    pub fn total_ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

/// Configuration of a `kccachetest wicked`-style run.
#[derive(Debug, Clone)]
pub struct WickedConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock duration of the measured interval.
    pub duration: Duration,
    /// Key range (the paper fixes it at 10M).
    pub key_range: u64,
}

impl Default for WickedConfig {
    fn default() -> Self {
        WickedConfig {
            threads: 2,
            duration: Duration::from_millis(50),
            key_range: 100_000,
        }
    }
}

/// Result of a wicked run.
#[derive(Debug, Clone)]
pub struct WickedReport {
    /// Lock algorithm protecting the database mutex.
    pub algorithm: String,
    /// Operations completed per thread.
    pub ops_per_thread: Vec<u64>,
    /// Wall-clock measurement interval.
    pub elapsed: Duration,
}

impl WickedReport {
    /// Total completed operations.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_thread.iter().sum()
    }

    /// Aggregate throughput in operations per millisecond.
    pub fn throughput_ops_per_ms(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_millis().max(1) as f64
    }
}

/// Runs the wicked workload against a fresh database protected by `L`.
pub fn wicked<L>(config: &WickedConfig) -> WickedReport
where
    L: RawLock + 'static,
{
    let db: Arc<CacheDb<L>> = Arc::new(CacheDb::new());
    let stop = Arc::new(AtomicBool::new(false));
    let counts: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
        (0..config.threads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
    );

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..config.threads {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let counts = Arc::clone(&counts);
            let cfg = config.clone();
            scope.spawn(move || {
                let _socket = numa_topology::SocketOverrideGuard::new(t % 2);
                let mut rng = Rng::new(0x4B59 + t as u64);
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let op = WickedOp::draw(&mut rng);
                    let key = rng.next_below(cfg.key_range);
                    db.execute(op, key);
                    ops += 1;
                    if ops.is_multiple_of(32) {
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

    WickedReport {
        algorithm: L::NAME.to_string(),
        ops_per_thread: counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        elapsed,
    }
}

/// Registry-driven counterpart of [`wicked`]: the database mutex algorithm
/// is chosen by [`LockId`](registry::LockId) at runtime.
///
/// `CacheDb<L>` constructs its mutex internally, so the selection rides on
/// [`registry::AmbientLock`] — the LiTL-style process-wide interposition the
/// paper uses to put the evaluated locks underneath Kyoto Cabinet.
pub fn wicked_dyn(id: registry::LockId, config: &WickedConfig) -> WickedReport {
    let mut report = registry::with_ambient(id, || wicked::<registry::AmbientLock>(config));
    report.algorithm = id.name().to_string();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cna::CnaLock;
    use locks::McsLock;

    #[test]
    fn wicked_op_mix_covers_all_operations() {
        let mut rng = Rng::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            seen.insert(format!("{:?}", WickedOp::draw(&mut rng)));
        }
        assert_eq!(seen.len(), 5, "all five wicked operations should occur");
    }

    #[test]
    fn cache_db_operations_behave() {
        let db: CacheDb<McsLock> = CacheDb::new();
        db.execute(WickedOp::Set, 1);
        db.execute(WickedOp::Append, 1);
        db.execute(WickedOp::Get, 1);
        assert_eq!(db.len(), 1);
        db.execute(WickedOp::Remove, 1);
        assert!(db.is_empty());
        db.execute(WickedOp::Scan, 0);
        assert_eq!(db.total_ops(), 5);
    }

    #[test]
    fn wicked_dyn_runs_a_registry_selected_lock() {
        let cfg = WickedConfig {
            threads: 2,
            duration: Duration::from_millis(25),
            key_range: 10_000,
        };
        let report = wicked_dyn(registry::LockId::CBoMcs, &cfg);
        assert_eq!(report.algorithm, "c-bo-mcs");
        assert!(report.total_ops() > 0);
    }

    #[test]
    fn wicked_run_completes_work_under_contention() {
        let cfg = WickedConfig {
            threads: 3,
            duration: Duration::from_millis(30),
            key_range: 10_000,
        };
        let report = wicked::<CnaLock>(&cfg);
        assert_eq!(report.algorithm, "CNA");
        assert!(report.total_ops() > 0);
        assert!(report.ops_per_thread.iter().all(|&o| o > 0));
    }
}
