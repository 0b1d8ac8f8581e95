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
//!
//! Per operation the database does what `CacheDB` does, and nothing more, so
//! that the row measures the lock rather than the allocator or a second
//! shared cache line:
//!
//! * **A fixed hash.** Keys are hashed with one fold and one multiply by
//!   MurmurHash64A's constant, with no per-instance seed, as `CacheDB`
//!   hashes record keys with its fixed `hashmurmur`. SipHash under a random
//!   key would cost several times more and resists an attack a benchmark
//!   does not face. It also makes the map layout, and so the order a `Scan`
//!   visits records in, a function of the operation stream alone.
//! * **An in-place overwrite.** `Set` of an existing record clears it and
//!   writes `value-{key}` into the same buffer, as `CacheDB` overwrites a
//!   record whose allocation is large enough. It allocates only for a new
//!   key or a buffer too small for the value.
//! * **The count under the mutex.** The operation counter is a field of the
//!   locked state, as `CacheDB`'s record count is, and [`wicked`]'s workers
//!   count their own operations. A shared atomic counted outside the lock
//!   would be a second contended cache line on every operation, bouncing
//!   between sockets whatever the lock does.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
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

/// Builds [`KeyHasher`]s: the map's hash has no seed.
#[derive(Clone, Copy, Default)]
struct KeyHash;

/// Hashes a `u64` key with one shift and one multiply. The shift folds high
/// bits into the low ones the table picks buckets with; the multiply by
/// MurmurHash64A's constant fills the top bits its 7-bit tags come from.
struct KeyHasher(u64);

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(0)
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the database hashes only u64 keys");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (key ^ key >> 29).wrapping_mul(0xC6A4_A793_5BD1_E995);
    }
}

type Records = HashMap<u64, Vec<u8>, KeyHash>;

/// Everything the database mutex protects.
#[derive(Default)]
struct State {
    map: Records,
    /// Operations executed, counted under the lock.
    ops: u64,
}

/// What `Set` writes before the key's decimal digits.
const VALUE_PREFIX: &[u8] = b"value-";

/// Replaces `record` with `value-{key}`, reusing its buffer: it allocates
/// only when the buffer is too small.
fn overwrite(record: &mut Vec<u8>, key: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = key;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = &digits[at..];
    record.clear();
    record.reserve(VALUE_PREFIX.len() + digits.len());
    record.extend_from_slice(VALUE_PREFIX);
    record.extend_from_slice(digits);
}

/// A bounded scan: visits records in map order, passing each key to
/// `visit`, until more than 512 value bytes have been touched. Returns the
/// bytes touched.
fn scan(map: &Records, mut visit: impl FnMut(u64)) -> usize {
    let mut touched = 0usize;
    for (&key, value) in map {
        visit(key);
        touched += value.len();
        if touched > 32 * 16 {
            break;
        }
    }
    touched
}

/// The in-memory cache database: one hash map and its operation count
/// behind one mutex.
pub struct CacheDb<L: RawLock>
where
    L::Node: 'static,
{
    state: LockMutex<State, L>,
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
            state: LockMutex::new(State::default()),
        }
    }

    /// Executes one wicked operation on `key`, counting it under the lock.
    pub fn execute(&self, op: WickedOp, key: u64) {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        state.ops += 1;
        let map = &mut state.map;
        match op {
            WickedOp::Get => {
                std::hint::black_box(map.get(&key).map(Vec::len));
            }
            WickedOp::Set => overwrite(map.entry(key).or_default(), key),
            WickedOp::Append => {
                map.entry(key)
                    .or_insert_with(|| b"seed".to_vec())
                    .extend_from_slice(b"+more");
            }
            WickedOp::Remove => {
                map.remove(&key);
            }
            WickedOp::Scan => {
                std::hint::black_box(scan(map, |_| {}));
            }
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    /// `true` when the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total executed operations, read under the lock.
    pub fn total_ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// The keys a `Scan` would visit now, in order.
    #[cfg(test)]
    fn scanned_keys(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        scan(&self.state.lock().map, |key| keys.push(key));
        keys
    }

    /// A copy of the record stored under `key`.
    #[cfg(test)]
    fn record(&self, key: u64) -> Option<Vec<u8>> {
        self.state.lock().map.get(&key).cloned()
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
                // One operation before the first `stop` check, so a worker
                // started late still reports one.
                loop {
                    let op = WickedOp::draw(&mut rng);
                    let key = rng.next_below(cfg.key_range);
                    db.execute(op, key);
                    ops += 1;
                    if ops.is_multiple_of(32) {
                        counts[t].store(ops, Ordering::Relaxed);
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
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
    use sync_core::spinlock::TestAndSetLock;

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

    /// The wicked mix over `keys` keys, from `seed`.
    fn op_stream(seed: u64, len: usize, keys: u64) -> Vec<(WickedOp, u64)> {
        let mut rng = Rng::new(seed);
        (0..len)
            .map(|_| (WickedOp::draw(&mut rng), rng.next_below(keys)))
            .collect()
    }

    #[test]
    fn two_databases_fed_one_stream_scan_the_same_keys_in_order() {
        let a: CacheDb<McsLock> = CacheDb::new();
        let b: CacheDb<McsLock> = CacheDb::new();
        let mut scans = 0;
        for (op, key) in op_stream(3, 20_000, 512) {
            if op == WickedOp::Scan {
                let (seen_a, seen_b) = (a.scanned_keys(), b.scanned_keys());
                assert_eq!(seen_a, seen_b, "scan {scans} visited other keys");
                scans += 1;
            }
            a.execute(op, key);
            b.execute(op, key);
        }
        assert!(scans > 100, "the stream scans");
        assert!(a.scanned_keys().len() > 10, "a scan visits many records");
    }

    #[test]
    fn set_overwrites_a_grown_record_in_place() {
        let db: CacheDb<CnaLock> = CacheDb::new();
        for _ in 0..50 {
            db.execute(WickedOp::Append, 7);
        }
        let grown = db.record(7).unwrap();
        assert!(grown.starts_with(b"seed+more+more"));
        db.execute(WickedOp::Set, 7);
        assert_eq!(db.record(7).unwrap(), b"value-7");
    }

    #[test]
    fn overwrite_writes_what_format_writes() {
        let mut record = b"a much longer record than any value".to_vec();
        for key in [
            0,
            1,
            9,
            10,
            99,
            100,
            4_096,
            9_999_999,
            u64::MAX / 3,
            u64::MAX,
        ] {
            overwrite(&mut record, key);
            assert_eq!(record, format!("value-{key}").into_bytes());
        }
    }

    #[test]
    fn the_count_under_the_lock_is_exact() {
        // A test-and-set lock: with four threads on fewer cores, a queue
        // lock waits out the time slice of every preempted waiter.
        let db: CacheDb<TestAndSetLock> = CacheDb::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let db = &db;
                scope.spawn(move || {
                    for (op, key) in op_stream(t, 10_000, 1_000) {
                        db.execute(op, key);
                    }
                });
            }
        });
        assert_eq!(db.total_ops(), 40_000);
    }

    #[test]
    fn a_zero_length_wicked_run_still_counts_one_op_per_worker() {
        let cfg = WickedConfig {
            threads: 3,
            duration: Duration::ZERO,
            key_range: 1_000,
        };
        let report = wicked::<McsLock>(&cfg);
        assert_eq!(report.ops_per_thread.len(), 3);
        assert!(
            report.ops_per_thread.iter().all(|&o| o >= 1),
            "{:?}",
            report.ops_per_thread
        );
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
