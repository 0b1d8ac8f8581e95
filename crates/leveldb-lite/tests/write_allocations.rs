//! A write costs the same whatever the table holds. One `put_group` makes a
//! small, fixed number of allocations (the staged write and its two buffers,
//! the batch, the new value cell), the same on a 5 000-key DB as on a 10-key
//! one; a write that rebuilt the memtable would allocate per existing key.
//! Counted, not timed, with a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cna::CnaLock;
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
