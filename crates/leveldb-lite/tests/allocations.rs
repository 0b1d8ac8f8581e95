//! What a read or a write allocates does not depend on what the table
//! holds. One `put_group` makes a small, fixed number of allocations (the
//! staged write and its two buffers, the batch, the new value cell), the
//! same on a 5 000-key DB as on a 10-key one; a write that rebuilt the
//! memtable would allocate per existing key. A warm `get` makes none: not on
//! a cache hit, not for an absent key, and not on a cache miss that evicts,
//! because the evicted entry's slot is reused and the cache index is sized
//! once, when the DB is built. Counted, not timed, with a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cna::CnaLock;
use leveldb_lite::cache::NUM_SHARDS;
use leveldb_lite::Db;

thread_local! {
    /// Allocations made by this thread (per thread, so the test harness's
    /// own threads do not show up in the count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// plain thread-local `Cell` that allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Generous bound on what one write allocates, whatever the table size.
const FEW: u64 = 10;

/// Allocations of one `write` on a DB prefilled with `keys` keys, after one
/// warm-up write has sized the write queue and the retire list.
fn allocations_of(keys: usize, write: impl Fn(&Db<CnaLock>)) -> u64 {
    let db: Db<CnaLock> = Db::prefilled(keys, 64);
    write(&db);
    let before = ALLOCATIONS.with(Cell::get);
    write(&db);
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_group_commit_overwrite_allocates_the_same_on_any_table_size() {
    let overwrite = |db: &Db<CnaLock>| {
        db.put_group(&Db::<CnaLock>::bench_key(3), b"overwritten", 8);
    };
    let small = allocations_of(10, overwrite);
    let large = allocations_of(5_000, overwrite);
    assert_eq!(small, large, "a write allocated per existing key");
    assert!((1..=FEW).contains(&large), "{large} allocations per write");
}

#[test]
fn a_new_key_adds_one_node_and_nothing_per_existing_key() {
    let fresh = |db: &Db<CnaLock>| {
        let key = Db::<CnaLock>::bench_key(1_000_000 + db.len());
        db.put_group(&key, b"fresh", 8);
    };
    let small = allocations_of(10, fresh);
    let large = allocations_of(5_000, fresh);
    assert_eq!(small, large, "a write allocated per existing key");
    assert!((1..=FEW).contains(&large), "{large} allocations per write");

    let plain = |db: &Db<CnaLock>| db.put(&Db::<CnaLock>::bench_key(7), b"plain");
    assert_eq!(allocations_of(10, plain), allocations_of(5_000, plain));
}

/// Allocations of one `get` of `key`, and whether it hit the block cache
/// (`None` for an absent key, which does not consult the cache).
fn one_get(db: &Db<CnaLock>, key: &[u8]) -> (u64, Option<bool>) {
    let (hits, _) = db.cache_counts();
    let before = ALLOCATIONS.with(Cell::get);
    let found = db.get(key).is_some();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, found.then(|| db.cache_counts().0 > hits))
}

#[test]
fn a_warm_get_allocates_nothing_on_any_table_size() {
    // One cache entry per shard under 10 keys, and the benchmark's 4 096
    // entries under 5 000 keys: once every key has been read, every shard
    // that holds a key is full, so each cache miss evicts.
    for (keys, cache) in [(10, NUM_SHARDS), (5_000, 4_096)] {
        let db: Db<CnaLock> = Db::prefilled(keys, cache);
        let key = Db::<CnaLock>::bench_key;
        for i in 0..keys {
            db.get(&key(i));
        }
        let (mut hits, mut evicting_misses, mut absent) = (0, 0, 0);
        for i in 0..keys {
            let (present, missing) = (key(i), key(keys + i));
            for (allocations, cached) in [
                // A hit, or a miss that evicts its shard's least recently
                // used key.
                one_get(&db, &present),
                // A hit: the key was just cached.
                one_get(&db, &present),
                one_get(&db, &missing),
            ] {
                assert_eq!(allocations, 0, "{keys} keys: a get allocated");
                match cached {
                    Some(true) => hits += 1,
                    Some(false) => evicting_misses += 1,
                    None => absent += 1,
                }
            }
        }
        assert!(hits >= keys, "{keys} keys: {hits} cache hits");
        assert!(evicting_misses > 0, "{keys} keys: no cache miss");
        assert_eq!(absent, keys);
    }
}
