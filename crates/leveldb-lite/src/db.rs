//! The database object: global mutex + memtable + block cache, mirroring
//! leveldb's `DBImpl`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use sync_core::mutex::LockMutex;
use sync_core::raw::RawLock;

use crate::cache::ShardedLruCache;
use crate::memtable::MemTable;

/// A write staged for group commit: filled in by the batch leader, then
/// published with a `done` release-store the enqueuing writer waits on.
struct PendingWrite {
    key: Vec<u8>,
    value: Vec<u8>,
    /// Sequence number assigned when the batch commits.
    seq: AtomicU64,
    /// Set (release) once the write is durable in the memtable.
    done: AtomicBool,
}

/// State protected by the global DB mutex (leveldb's `DBImpl::mutex_`).
struct VersionState {
    /// Monotonic sequence number, bumped by writes.
    sequence: u64,
    /// Gets between their `Ref` and `Unref` (leveldb's `mem_->Ref()`
    /// count). While one is, a value an overwrite superseded may still be
    /// read, so commits leave it on the memtable's retire list.
    refs: u64,
    /// Counted under this mutex, as leveldb's `UpdateStats` runs under
    /// `mutex_`.
    stats: DbStats,
}

/// Read/write statistics of a [`Db`].
#[derive(Debug, Default, Clone)]
pub struct DbStats {
    /// Completed `get` operations.
    pub gets: u64,
    /// `get` operations that found the key.
    pub hits: u64,
    /// Completed `put` operations.
    pub puts: u64,
    /// Group commits performed via [`Db::put_group`] (each one is a single
    /// DB-mutex acquisition covering one or more puts).
    pub batches: u64,
}

/// The `leveldb-lite` database, generic over the lock algorithm protecting
/// the global mutex and the cache shards.
pub struct Db<L: RawLock>
where
    L::Node: 'static,
{
    state: LockMutex<VersionState, L>,
    /// Written only by [`Db::commit`], under `state`'s lock, so it has one
    /// writer at a time; `get` searches it outside the lock.
    memtable: MemTable,
    cache: ShardedLruCache<L>,
    /// Group-commit staging area, mirroring leveldb's `writers_` deque. A
    /// plain std mutex guards only the queue pointers — the measured
    /// contention stays on the DB mutex, which the batch leader acquires
    /// exactly once per batch.
    write_queue: Mutex<VecDeque<Arc<PendingWrite>>>,
}

impl<L: RawLock> Db<L>
where
    L::Node: 'static,
{
    /// Creates an empty database with a block cache of `cache_capacity`
    /// entries.
    pub fn new(cache_capacity: usize) -> Self {
        Db {
            state: LockMutex::new(VersionState {
                sequence: 0,
                refs: 0,
                stats: DbStats::default(),
            }),
            memtable: MemTable::new(),
            cache: ShardedLruCache::new(cache_capacity),
            write_queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Creates a database pre-filled with `n` sequential keys (`db_bench`'s
    /// `fillseq` step before `readrandom`).
    ///
    /// The fill runs before the database is shared, so it goes through the
    /// memtable's exclusive `put` and takes no lock.
    pub fn prefilled(n: usize, cache_capacity: usize) -> Self {
        let mut db = Self::new(cache_capacity);
        for i in 0..n {
            db.memtable
                .put(&Self::bench_key(i), format!("value-{i}").as_bytes());
        }
        let state = db.state.get_mut();
        state.sequence = n as u64;
        state.stats.puts = n as u64;
        db
    }

    /// The 16-byte zero-padded key format `db_bench` uses.
    pub fn bench_key(i: usize) -> Vec<u8> {
        format!("{i:016}").into_bytes()
    }

    /// Inserts `key → value`: one DB-mutex acquisition and one in-place
    /// memtable insert, while concurrent `get`s keep searching.
    pub fn put(&self, key: &[u8], value: &[u8]) {
        self.commit([(key, value)], false);
    }

    /// Applies `writes` in order under the DB mutex, one O(log n) in-place
    /// memtable insert each, and returns the sequence number of the first.
    /// The only write path: [`Db::put`] and the group-commit leader (with
    /// `group` set, counted as one batch) both come through here.
    fn commit<'w>(
        &self,
        writes: impl IntoIterator<Item = (&'w [u8], &'w [u8])>,
        group: bool,
    ) -> u64 {
        let mut guard = self.state.lock();
        let first = guard.sequence + 1;
        for (key, value) in writes {
            // SAFETY: the DB mutex is held, so this is the memtable's only
            // writer.
            unsafe { self.memtable.insert(key, value) };
            guard.sequence += 1;
            guard.stats.puts += 1;
        }
        guard.stats.batches += u64::from(group);
        if guard.refs == 0 {
            // SAFETY: the DB mutex is held, so no other writer runs, and no
            // `get` is between its Ref and Unref, so none can hold a retired
            // value. A `get` that Refs later does so under this mutex, after
            // this commit, and reaches only the cells it published.
            unsafe { self.memtable.reclaim() };
        }
        first
    }

    /// Inserts `key → value` through the group-commit path, returning the
    /// write's sequence number once it is durable.
    ///
    /// This is leveldb's `Write` protocol: the writer joins the `writers_`
    /// queue, and whoever finds itself at the front becomes the batch
    /// leader — it drains up to `max_batch` queued writes, takes the DB
    /// mutex **once**, applies the whole batch (consecutive sequence
    /// numbers in queue order), and publishes completion to the followers.
    /// `max_batch = 1` degenerates to [`Db::put`]'s behavior: one
    /// acquisition and one sequence bump per write.
    pub fn put_group(&self, key: &[u8], value: &[u8], max_batch: usize) -> u64 {
        let entry = Arc::new(PendingWrite {
            key: key.to_vec(),
            value: value.to_vec(),
            seq: AtomicU64::new(0),
            done: AtomicBool::new(false),
        });
        self.enqueue(Arc::clone(&entry));
        self.drive(&entry, max_batch)
    }

    /// Stages a write in the group-commit queue (it commits when a leader
    /// drains it). Split from [`Db::drive`] so tests can build a multi-write
    /// batch deterministically.
    fn enqueue(&self, entry: Arc<PendingWrite>) {
        self.write_queue
            .lock()
            .expect("write queue poisoned")
            .push_back(entry);
    }

    /// Waits for `entry` to commit, leading a batch of up to `max_batch`
    /// writes if `entry` reaches the queue front first. Returns the write's
    /// assigned sequence number.
    fn drive(&self, entry: &Arc<PendingWrite>, max_batch: usize) -> u64 {
        let max_batch = max_batch.max(1);
        loop {
            if entry.done.load(Ordering::Acquire) {
                return entry.seq.load(Ordering::Relaxed);
            }
            let batch: Vec<Arc<PendingWrite>> = {
                let mut queue = self.write_queue.lock().expect("write queue poisoned");
                match queue.front() {
                    // Only the front writer may lead; everyone else waits
                    // for a leader to commit them.
                    Some(front) if Arc::ptr_eq(front, entry) => {
                        let n = queue.len().min(max_batch);
                        queue.drain(..n).collect()
                    }
                    _ => {
                        drop(queue);
                        std::hint::spin_loop();
                        continue;
                    }
                }
            };
            // Leader: one DB-mutex acquisition amortized over the whole
            // batch, applied in queue order.
            let first = self.commit(batch.iter().map(|w| (&w.key[..], &w.value[..])), true);
            for (i, write) in batch.iter().enumerate() {
                write.seq.store(first + i as u64, Ordering::Relaxed);
            }
            for write in &batch {
                write.done.store(true, Ordering::Release);
            }
            // The leader is the batch's first write, so it committed itself.
            return entry.seq.load(Ordering::Relaxed);
        }
    }

    /// Reads `key`, following leveldb's `Get` structure: take the DB mutex to
    /// bump the memtable's refcount, search without the mutex, then update
    /// the block cache (one shard mutex) and take the DB mutex again to drop
    /// the reference. That second critical section also counts the `get`
    /// (and its hit) in [`DbStats`], as leveldb's `UpdateStats` runs under
    /// `mutex_`; a cache hit clones no value.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        // -- critical section 1: the global DB mutex -----------------------
        self.state.lock().refs += 1;

        // -- search outside the mutex, concurrently with a writer -----------
        let result = self.memtable.get(key);

        // -- critical section 2: one LRU cache shard ------------------------
        if let Some(value) = &result {
            let cache_key = hash_key(key);
            if !self.cache.refresh(cache_key) {
                self.cache.insert(cache_key, value.clone());
            }
        }

        // -- drop the memtable reference and count the read (global mutex
        //    again, as in leveldb's `mem->Unref()` under `mutex_`) ----------
        {
            let mut guard = self.state.lock();
            guard.refs = guard.refs.saturating_sub(1);
            guard.stats.gets += 1;
            guard.stats.hits += u64::from(result.is_some());
        }
        result
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.memtable.len()
    }

    /// `true` when the database holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DbStats {
        self.state.lock().stats.clone()
    }

    /// (cache hits, cache misses) of the block cache.
    pub fn cache_counts(&self) -> (u64, u64) {
        self.cache.hit_miss_counts()
    }
}

/// The block cache's key for `key`: leveldb's `Hash` widened to eight bytes
/// a step, so a 16-byte bench key costs two multiplies, not sixteen. Each
/// step is one 64×64→128-bit multiply with its halves folded together, so
/// the bytes that vary between bench keys (the last digits, the high bytes
/// of a little-endian word) reach the low bits too.
fn hash_key(key: &[u8]) -> u64 {
    const M: u64 = 0xC6A4_A793_5BD1_E995;
    let step = |hash: u64, word: u64| {
        let full = u128::from(hash ^ word) * u128::from(M);
        full as u64 ^ (full >> 64) as u64
    };
    let mut hash = 0xBC9F_1D34 ^ (key.len() as u64).wrapping_mul(M);
    let mut words = key.chunks_exact(8);
    for word in &mut words {
        hash = step(hash, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        hash = step(hash, u64::from_le_bytes(tail));
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{shard_of, NUM_SHARDS};
    use cna::CnaLock;
    use locks::McsLock;

    #[test]
    fn put_get_roundtrip() {
        let db: Db<McsLock> = Db::new(128);
        assert!(db.is_empty());
        db.put(b"alpha", b"1");
        db.put(b"beta", b"2");
        assert_eq!(db.get(b"alpha").as_deref(), Some(&b"1"[..]));
        assert_eq!(db.get(b"gamma"), None);
        assert_eq!(db.len(), 2);
        let stats = db.stats();
        assert_eq!(stats.puts, 2);
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn prefilled_db_has_bench_keys() {
        let db: Db<McsLock> = Db::prefilled(100, 64);
        assert_eq!(db.len(), 100);
        assert!(db.get(&Db::<McsLock>::bench_key(42)).is_some());
        assert!(db.get(&Db::<McsLock>::bench_key(100)).is_none());
    }

    #[test]
    fn concurrent_readers_with_cna_global_lock() {
        let db: Arc<Db<CnaLock>> = Arc::new(Db::prefilled(256, 128));
        let found: u64 = std::thread::scope(|s| {
            let readers: Vec<_> = (0..3usize)
                .map(|t| {
                    let db = Arc::clone(&db);
                    s.spawn(move || {
                        let mut found = 0;
                        for i in 0..2_000usize {
                            let key = Db::<CnaLock>::bench_key((i * 7 + t) % 300);
                            if db.get(&key).is_some() {
                                found += 1;
                            }
                        }
                        assert!(found > 0);
                        found
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .sum()
        });
        let stats = db.stats();
        assert_eq!(stats.gets, 6_000);
        assert_eq!(stats.hits, found, "every found key counted once");
        let (hits, misses) = db.cache_counts();
        assert_eq!(hits + misses, found, "every found key touched the cache");
    }

    #[test]
    fn stats_count_exactly_what_concurrent_readers_and_writers_issued() {
        const KEYS: usize = 200;
        const READS: usize = 2_000;
        const WRITES: usize = 300;
        let db: Arc<Db<CnaLock>> = Arc::new(Db::prefilled(KEYS, 64));
        let found: u64 = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2usize)
                .map(|t| {
                    let db = Arc::clone(&db);
                    s.spawn(move || {
                        // A third of the keys read are absent.
                        (0..READS)
                            .filter(|i| {
                                let key = Db::<CnaLock>::bench_key((i * 7 + t) % (KEYS * 3 / 2));
                                db.get(&key).is_some()
                            })
                            .count() as u64
                    })
                })
                .collect();
            for w in 0..2usize {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..WRITES {
                        let key = Db::<CnaLock>::bench_key((i * 3 + w) % KEYS);
                        if w == 0 {
                            db.put(&key, b"plain");
                        } else {
                            db.put_group(&key, b"grouped", 1);
                        }
                    }
                });
            }
            readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .sum()
        });
        let stats = db.stats();
        assert_eq!(stats.gets, 2 * READS as u64);
        assert_eq!(stats.hits, found);
        assert_eq!(
            stats.puts,
            (KEYS + 2 * WRITES) as u64,
            "prefill + both writers"
        );
        assert_eq!(stats.batches, WRITES as u64, "a put is not a batch");
        assert_eq!(db.state.lock().refs, 0, "every Ref met its Unref");
        assert_eq!(db.len(), KEYS, "writers only overwrote");
    }

    #[test]
    fn the_key_hash_spreads_bench_keys_over_the_cache_shards() {
        const KEYS: usize = 5_000;
        let mut per_shard = [0usize; NUM_SHARDS];
        for i in 0..KEYS {
            per_shard[shard_of(hash_key(&Db::<McsLock>::bench_key(i)))] += 1;
        }
        let even = KEYS as f64 / NUM_SHARDS as f64;
        for (shard, &n) in per_shard.iter().enumerate() {
            assert!(
                (n as f64 - even).abs() <= 0.25 * even,
                "shard {shard} holds {n} of {KEYS} keys: {per_shard:?}"
            );
        }
    }

    fn pending(key: &[u8], value: &[u8]) -> Arc<PendingWrite> {
        Arc::new(PendingWrite {
            key: key.to_vec(),
            value: value.to_vec(),
            seq: AtomicU64::new(0),
            done: AtomicBool::new(false),
        })
    }

    #[test]
    fn group_commit_applies_a_whole_batch_under_one_leader() {
        let db: Db<McsLock> = Db::new(64);
        let writes = [
            pending(b"a", b"1"),
            pending(b"b", b"2"),
            pending(b"c", b"3"),
        ];
        for w in &writes {
            db.enqueue(Arc::clone(w));
        }
        // The front writer leads and commits all three in one batch.
        let leader_seq = db.drive(&writes[0], 3);
        assert_eq!(leader_seq, 1);
        for (i, w) in writes.iter().enumerate() {
            assert!(w.done.load(Ordering::Acquire), "write {i} durable");
            // Ordered within the batch: consecutive seqs in queue order.
            assert_eq!(w.seq.load(Ordering::Relaxed), i as u64 + 1);
        }
        for (key, value) in [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")] {
            assert_eq!(db.get(key).as_deref(), Some(&value[..]));
        }
        let stats = db.stats();
        assert_eq!(stats.puts, 3);
        assert_eq!(stats.batches, 1, "one acquisition covered the batch");
        assert_eq!(db.state.lock().sequence, 3);
    }

    #[test]
    fn one_write_batches_degenerate_to_plain_puts() {
        let db: Db<McsLock> = Db::new(64);
        let s1 = db.put_group(b"x", b"1", 1);
        let s2 = db.put_group(b"y", b"2", 1);
        let s3 = db.put_group(b"x", b"3", 1);
        assert_eq!((s1, s2, s3), (1, 2, 3), "one sequence bump per write");
        let stats = db.stats();
        assert_eq!(stats.puts, 3);
        assert_eq!(stats.batches, 3, "batch=1 means one commit per write");
        assert_eq!(db.get(b"x").as_deref(), Some(&b"3"[..]), "later write wins");
        assert_eq!(db.len(), 2);
        // Identical externally visible outcome to the plain put path.
        let plain: Db<McsLock> = Db::new(64);
        plain.put(b"x", b"1");
        plain.put(b"y", b"2");
        plain.put(b"x", b"3");
        assert_eq!(plain.state.lock().sequence, db.state.lock().sequence);
        assert_eq!(plain.len(), db.len());
    }

    #[test]
    fn concurrent_group_commits_are_all_durable_with_unique_seqs() {
        let db: Arc<Db<CnaLock>> = Arc::new(Db::new(128));
        let threads = 4usize;
        let writes_per_thread = 50usize;
        let seqs: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let db = Arc::clone(&db);
                    s.spawn(move || {
                        let mut local = Vec::new();
                        for i in 0..writes_per_thread {
                            let key = format!("k{t}-{i}");
                            local.push(db.put_group(key.as_bytes(), b"v", 8));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("writer panicked"))
                .collect()
        });
        let total = (threads * writes_per_thread) as u64;
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len() as u64, total, "every write got a unique seq");
        assert_eq!(*sorted.last().unwrap(), total, "seqs are dense 1..=n");
        let stats = db.stats();
        assert_eq!(stats.puts, total);
        assert!(
            stats.batches <= total,
            "batching can only reduce acquisitions"
        );
        assert_eq!(db.len(), threads * writes_per_thread);
    }

    #[test]
    fn single_thread_overwrites_leave_the_retire_list_empty() {
        let mut db: Db<McsLock> = Db::prefilled(100, 16);
        for i in 0..1_000 {
            let key = Db::<McsLock>::bench_key(i % 100);
            if i % 2 == 0 {
                db.put(&key, b"plain");
            } else {
                db.put_group(&key, b"grouped", 4);
            }
            assert_eq!(db.memtable.retired(), 0, "write {i} left a cell behind");
        }
        assert_eq!(db.len(), 100);
        assert_eq!(
            db.get(&Db::<McsLock>::bench_key(99)).as_deref(),
            Some(&b"grouped"[..])
        );
    }

    #[test]
    fn a_held_reference_defers_freeing_to_the_next_commit_without_one() {
        let mut db: Db<McsLock> = Db::prefilled(10, 16);
        let key = Db::<McsLock>::bench_key(3);
        // A `get` between its Ref and Unref.
        db.state.lock().refs += 1;
        db.put(&key, b"a");
        db.put(&key, b"b");
        assert_eq!(db.memtable.retired(), 2);
        db.state.lock().refs -= 1;
        db.put(&key, b"c");
        assert_eq!(db.memtable.retired(), 0);
        assert_eq!(db.get(&key).as_deref(), Some(&b"c"[..]));
        assert_eq!(db.len(), 10);
    }

    #[test]
    fn refcount_returns_to_zero_when_idle() {
        let db: Db<McsLock> = Db::prefilled(10, 16);
        for i in 0..10 {
            let _ = db.get(&Db::<McsLock>::bench_key(i));
        }
        assert_eq!(db.state.lock().refs, 0);
    }
}
